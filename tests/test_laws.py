import math

import numpy as np
import pytest

from subscale import laws
from subscale.errors import NonFiniteLoss

REF = laws.SubOptimalParams(
    e_irreducible=1.372,
    lambda_n=61.929,
    alpha_n=0.272,
    lambda_d=455.345,
    alpha_d=0.289,
    k1=0.00810,
    k2=0.00114,
)


def _sigma(z):
    return 1.0 / (1.0 + math.exp(-z))


# ---------------------------------------------------------------------------
# power law
# ---------------------------------------------------------------------------


def test_power_reciprocal():
    assert laws.eval_power(laws.PowerLawParams(1.0, 1.0), 2.0) == pytest.approx(0.5)


def test_power_decade_ratio():
    p = laws.PowerLawParams(lam=5.0, alpha=0.0521)
    ratio = laws.eval_power(p, 1e20) / laws.eval_power(p, 1e21)
    assert ratio == pytest.approx(10**0.0521, rel=1e-12)


def test_power_small_alpha_limit():
    p = laws.PowerLawParams(lam=7.0, alpha=1e-9)
    for x in (1e-3, 1.0, 1e12):
        assert laws.eval_power(p, x) == pytest.approx(7.0, rel=1e-6)


# ---------------------------------------------------------------------------
# repetition factor
# ---------------------------------------------------------------------------


def test_repetition_factor_near_zero():
    assert laws.repetition_factor(1e-12, 0.5) == pytest.approx(1.5, abs=1e-9)
    assert laws.repetition_factor(123.0, 0.0) == 1.5


def test_repetition_factor_hand_values():
    assert laws.repetition_factor(20.0, 0.00810) == pytest.approx(
        1.0 + _sigma(0.162), rel=1e-12
    )
    assert laws.repetition_factor(20.0, 0.00810) == pytest.approx(1.5404, abs=5e-5)
    assert laws.repetition_factor(1875.0, 0.00114) == pytest.approx(
        1.0 + _sigma(2.1375), rel=1e-12
    )
    assert laws.repetition_factor(1875.0, 0.00114) == pytest.approx(1.8945, abs=5e-5)


def test_repetition_factor_bounds_and_monotonicity():
    rng = np.random.default_rng(5)
    otr = 10 ** rng.uniform(-6, 4, size=5000)
    k = rng.uniform(0, 1, size=5000)
    values = laws.repetition_factor(otr, 1.0)
    assert np.all(values >= 1.5) and np.all(values < 2.0)
    for o, kk in zip(otr, k):
        r = laws.repetition_factor(float(o), float(kk))
        assert 1.5 <= r < 2.0
    # strict monotonicity for k > 0, below the float64 saturation plateau
    for o, kk in zip(otr[:500], np.maximum(k[:500], 1e-3)):
        if 2.0 * kk * o > 30.0:
            continue
        assert laws.repetition_factor(float(o) * 2.0, float(kk)) > laws.repetition_factor(
            float(o), float(kk)
        )


# ---------------------------------------------------------------------------
# chinchilla / suboptimal
# ---------------------------------------------------------------------------


def test_chinchilla_baseline_only():
    p = laws.ChinchillaParams(1.7, 1e-12, 0.3, 1e-12, 0.3)
    assert laws.eval_chinchilla(p, 1e8, 1e10) == pytest.approx(1.7, abs=1e-9)


def test_chinchilla_monotone_decreasing():
    p = laws.ChinchillaParams(1.0, 50.0, 0.3, 400.0, 0.28)
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = 10 ** rng.uniform(6, 11)
        d = 10 ** rng.uniform(8, 13)
        base = laws.eval_chinchilla(p, n, d)
        assert laws.eval_chinchilla(p, n * 2, d) < base
        assert laws.eval_chinchilla(p, n, d * 2) < base


def test_suboptimal_reference_constants_value():
    # independent evaluation of the closed form at N=1e9, D=2e10
    otr = 2e10 / 1e9
    expected = (
        1.372
        + 61.929 * (1 + _sigma(0.00114 * otr)) / (1e9**0.272)
        + 455.345 * (1 + _sigma(0.00810 * otr)) / ((2e10) ** 0.289)
    )
    got = laws.eval_suboptimal(REF, 1e9, 2e10)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(2.443, abs=1e-3)


def test_suboptimal_reduces_to_scaled_chinchilla_at_zero_k():
    sub = laws.SubOptimalParams(1.2, 60.0, 0.27, 450.0, 0.29, 0.0, 0.0)
    chin = laws.ChinchillaParams(1.2, 60.0 * 1.5, 0.27, 450.0 * 1.5, 0.29)
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = 10 ** rng.uniform(6, 11)
        d = 10 ** rng.uniform(8, 13)
        assert laws.eval_suboptimal(sub, n, d) == pytest.approx(
            laws.eval_chinchilla(chin, n, d), rel=1e-12
        )


def test_chinchilla_matches_suboptimal_with_rescaled_lambda():
    chin = laws.ChinchillaParams(1.3, 80.0, 0.25, 300.0, 0.3)
    sub = laws.SubOptimalParams(1.3, 80.0 / 1.5, 0.25, 300.0 / 1.5, 0.3, 0.0, 0.0)
    for n, d in ((1e7, 1e9), (1e9, 1e12)):
        assert laws.eval_chinchilla(chin, n, d) == pytest.approx(
            laws.eval_suboptimal(sub, n, d), rel=1e-12
        )


def test_suboptimal_dominates_chinchilla():
    chin = laws.ChinchillaParams(1.372, 61.929, 0.272, 455.345, 0.289)
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = 10 ** rng.uniform(6, 11)
        d = 10 ** rng.uniform(8, 13)
        assert laws.eval_suboptimal(REF, n, d) > laws.eval_chinchilla(chin, n, d)


def test_suboptimal_u_shape_at_fixed_compute():
    budget = 1e20
    ln_n = np.linspace(math.log(1e6), math.log(1e13), 500)
    n = np.exp(ln_n)
    losses = laws.eval_suboptimal(REF, n, budget / (6.0 * n))
    diffs = np.sign(np.diff(losses))
    changes = np.sum(np.diff(diffs[diffs != 0]) != 0)
    assert changes == 1  # single interior minimum on the log grid
    interior = int(np.argmin(losses))
    assert 0 < interior < len(losses) - 1


@pytest.mark.parametrize(
    "params",
    [
        laws.ChinchillaParams(1.7e308, 1e308, 0.001, 1.0, 0.3),
        laws.SubOptimalParams(1e308, 1e308, 0.001, 1e308, 0.001, 1e308, 0.0),
        laws.PowerLawParams(1e300, 30.0),
    ],
    ids=["chinchilla", "suboptimal", "power"],
)
def test_loss_at_overflow_raises_without_warning(params):
    # the power law overflows below C = 1 (n = d = 0.1), the others anywhere
    with pytest.raises(NonFiniteLoss, match=f"the {laws.family_of(params)} law's loss"):
        laws.loss_at(params, np.array([0.1, 1e9]), np.array([0.1, 1e11]))


def test_swap_symmetry_chinchilla():
    p = laws.ChinchillaParams(1.1, 70.0, 0.26, 350.0, 0.31)
    swapped = laws.ChinchillaParams(1.1, 350.0, 0.31, 70.0, 0.26)
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = 10 ** rng.uniform(6, 11)
        d = 10 ** rng.uniform(8, 13)
        assert laws.eval_chinchilla(p, n, d) == pytest.approx(
            laws.eval_chinchilla(swapped, d, n), rel=1e-12
        )


def test_swap_symmetry_suboptimal_special_cases():
    # constant factors (k1 = k2 = 0): a pure role swap
    p0 = laws.SubOptimalParams(1.1, 70.0, 0.26, 350.0, 0.31, 0.0, 0.0)
    s0 = laws.SubOptimalParams(1.1, 350.0, 0.31, 70.0, 0.26, 0.0, 0.0)
    assert laws.eval_suboptimal(p0, 1e8, 1e11) == pytest.approx(
        laws.eval_suboptimal(s0, 1e11, 1e8), rel=1e-12
    )
    # n == d keeps OTR = 1 on both sides of the swap
    p1 = laws.SubOptimalParams(1.1, 70.0, 0.26, 350.0, 0.31, 0.008, 0.001)
    s1 = laws.SubOptimalParams(1.1, 350.0, 0.31, 70.0, 0.26, 0.001, 0.008)
    assert laws.eval_suboptimal(p1, 1e9, 1e9) == pytest.approx(
        laws.eval_suboptimal(s1, 1e9, 1e9), rel=1e-12
    )


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _central_diff(f, vec, i, eps):
    up = vec.copy()
    dn = vec.copy()
    up[i] += eps
    dn[i] -= eps
    return (f(up) - f(dn)) / (2 * eps)


@pytest.mark.parametrize("case", ["power", "chinchilla", "suboptimal"])
def test_analytic_gradients_match_finite_differences(case):
    n = np.array([1e7, 1e9, 4e10])
    d = np.array([1e9, 5e11, 9e12])
    if case == "power":
        vec = np.array([5.1, 0.21])
        x = 6.0 * n * d

        def f(v):
            return laws.eval_power(laws.PowerLawParams(*v), x)

        grad = laws.power_gradient(laws.PowerLawParams(*vec), x)
    elif case == "chinchilla":
        vec = np.array([1.3, 61.0, 0.27, 450.0, 0.29])

        def f(v):
            return laws.eval_chinchilla(laws.ChinchillaParams(*v), n, d)

        grad = laws.chinchilla_gradient(laws.ChinchillaParams(*vec), n, d)
    else:
        vec = np.array([1.3, 61.0, 0.27, 450.0, 0.29, 0.008, 0.0011])

        def f(v):
            return laws.eval_suboptimal(laws.SubOptimalParams(*v), n, d)

        grad = laws.suboptimal_gradient(laws.SubOptimalParams(*vec), n, d)

    for i in range(len(vec)):
        eps = 1e-6 * max(1.0, abs(vec[i]))
        numeric = _central_diff(f, vec, i, eps)
        for row in range(len(n)):
            denom = max(abs(numeric[row]), 1e-8)
            assert abs(grad[row, i] - numeric[row]) / denom < 1e-4


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "params",
    [
        laws.PowerLawParams(lam=5.0, alpha=0.0521),
        laws.ChinchillaParams(1.372, 61.929, 0.272, 455.345, 0.289),
        REF,
    ],
)
def test_params_json_roundtrip(params):
    data = laws.params_to_dict(params)
    assert "family" in data
    assert laws.params_from_dict(data) == params


def test_power_json_uses_lambda_key():
    data = laws.params_to_dict(laws.PowerLawParams(lam=5.0, alpha=0.1))
    assert data == {"family": "power", "lambda": 5.0, "alpha": 0.1}


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        laws.PowerLawParams(lam=-1.0, alpha=0.1)
    with pytest.raises(ValueError):
        laws.SubOptimalParams(1.0, 1.0, 0.1, 1.0, 0.1, -0.1, 0.0)
