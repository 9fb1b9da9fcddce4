import math

import numpy as np
import pytest

from subscale import alloc, runs
from subscale.errors import BinTooSmall, NoInteriorMinimum
from subscale.laws import ChinchillaParams, PowerLawParams, SubOptimalParams, loss_at

REF = SubOptimalParams(1.372, 61.929, 0.272, 455.345, 0.289, 0.00810, 0.00114)


def _grid_argmin(law, budget, n_lo=1e6, n_hi=1e13, points=2000):
    ln_n = np.linspace(math.log(n_lo), math.log(n_hi), points)
    n = np.exp(ln_n)
    losses = np.array([loss_at(law, nn, budget / (6.0 * nn)) for nn in n])
    i = int(np.argmin(losses))
    return ln_n, i, losses


# ---------------------------------------------------------------------------
# optimal_allocation
# ---------------------------------------------------------------------------


def test_symmetric_chinchilla_gives_otr_one():
    law = ChinchillaParams(1.0, 120.0, 0.3, 120.0, 0.3)
    plan = alloc.optimal_allocation(law, 1e20)
    assert plan.otr_star == pytest.approx(1.0, abs=1e-4)


def test_reference_law_matches_brute_force_grid():
    ln_n, i, _ = _grid_argmin(REF, 1e20)
    step = ln_n[1] - ln_n[0]
    plan = alloc.optimal_allocation(REF, 1e20)
    assert 0 < i < len(ln_n) - 1
    assert abs(math.log(plan.n_star) - ln_n[i]) <= step


def test_budget_constraint_exact():
    plan = alloc.optimal_allocation(REF, 3.7e19)
    assert 6.0 * plan.n_star * plan.d_star == pytest.approx(3.7e19, rel=1e-9)


def test_doubling_budget_never_hurts():
    budget = 1e19
    previous = math.inf
    for _ in range(6):
        plan = alloc.optimal_allocation(REF, budget)
        assert plan.predicted_loss <= previous + 1e-12
        previous = plan.predicted_loss
        budget *= 2.0


def test_no_interior_minimum_reported():
    # bracket ends below the true optimum (~5.7e8 params at 1e20 FLOPs)
    with pytest.raises(NoInteriorMinimum):
        alloc.optimal_allocation(REF, 1e20, n_bracket=(1e6, 1e8))


def test_invalid_budget():
    with pytest.raises(ValueError):
        alloc.optimal_allocation(REF, 0.0)


@pytest.mark.parametrize("budget", [math.inf, math.nan])
def test_non_finite_budget_rejected(budget):
    with pytest.raises(ValueError, match="budget must be finite"):
        alloc.optimal_allocation(REF, budget)
    with pytest.raises(ValueError, match="budget must be finite"):
        alloc.otr_sweep(REF, budget, [1.0, 10.0])


def test_random_laws_match_grid():
    rng = np.random.default_rng(42)
    matched = 0
    for _ in range(20):
        law = ChinchillaParams(
            e_irreducible=float(rng.uniform(0.0, 2.0)),
            lambda_n=float(10 ** rng.uniform(0.5, 3.0)),
            alpha_n=float(rng.uniform(0.15, 0.5)),
            lambda_d=float(10 ** rng.uniform(0.5, 3.5)),
            alpha_d=float(rng.uniform(0.15, 0.5)),
        )
        budget = float(10 ** rng.uniform(19, 21))
        ln_n, i, _ = _grid_argmin(law, budget)
        step = ln_n[1] - ln_n[0]
        try:
            plan = alloc.optimal_allocation(law, budget)
        except NoInteriorMinimum:
            # solver refusal must coincide with a boundary-hugging argmin
            assert i <= 1 or i >= len(ln_n) - 2
            continue
        assert abs(math.log(plan.n_star) - ln_n[i]) <= step
        assert 6.0 * plan.n_star * plan.d_star == pytest.approx(budget, rel=1e-9)
        matched += 1
    assert matched >= 10


# ---------------------------------------------------------------------------
# otr_sweep
# ---------------------------------------------------------------------------


def test_sweep_v_shape_and_bracketing():
    points = alloc.otr_sweep(REF, 1e20, [5.0, 20.0, 400.0])
    losses = [p.predicted_loss for p in points]
    assert losses[1] < losses[0] and losses[1] < losses[2]

    plan = alloc.optimal_allocation(REF, 1e20)
    around = alloc.otr_sweep(
        REF, 1e20, [plan.otr_star / 2.0, plan.otr_star, plan.otr_star * 2.0]
    )
    assert around[1].predicted_loss <= around[0].predicted_loss
    assert around[1].predicted_loss <= around[2].predicted_loss


def test_sweep_budget_and_order_preserved():
    values = [100.0, 1.0, 7.0]
    points = alloc.otr_sweep(REF, 2e20, values)
    assert [p.otr for p in points] == values
    for p in points:
        assert 6.0 * p.n * p.d == pytest.approx(2e20, rel=1e-12)
        assert p.d / p.n == pytest.approx(p.otr, rel=1e-12)


def test_sweep_empty_grid_rejected():
    with pytest.raises(ValueError, match="otr_values must not be empty"):
        alloc.otr_sweep(REF, 1e20, np.geomspace(1.0, 10.0, 0))


def test_sweep_works_for_power_family():
    points = alloc.otr_sweep(PowerLawParams(lam=5.0, alpha=0.05), 1e20, [1.0, 10.0])
    # at fixed compute a pure power law is allocation-blind
    assert points[0].predicted_loss == pytest.approx(points[1].predicted_loss, rel=1e-12)


# ---------------------------------------------------------------------------
# alpha_stability
# ---------------------------------------------------------------------------


def _records_for_bin(bin_lo, bin_hi, alpha, lam, bin_idx, n_points=5):
    """Noiseless L = lam * C^(-alpha) records with OTRs inside the bin.

    The loss is computed from the integer (N, D) actually stored, so the
    closed-form fit recovers alpha exactly.
    """
    records = []
    width = bin_hi - bin_lo
    otrs = np.linspace(bin_lo + 0.05 * width, bin_hi - 0.05 * width, n_points)
    for j, otr in enumerate(otrs):
        n = int(10 ** (7 + 0.3 * j))
        d = int(otr * n)
        c = 6.0 * n * d
        records.append(
            runs.TrainingRun(
                run_id=f"bin{bin_idx}p{j}",
                model_size=n,
                tokens=d,
                loss=float(lam * c**-alpha),
            )
        )
    return records


def _bins(n_bins=30, lo=60.0, width=10.0):
    return [(lo + i * width, lo + (i + 1) * width) for i in range(n_bins)]


def test_alpha_stability_exact_alpha_recovered():
    bins = _bins()
    records = []
    for i, (lo, hi) in enumerate(bins):
        records.extend(_records_for_bin(lo, hi, 0.0521, lam=5.0 + 0.1 * i, bin_idx=i))
    series = runs.RunSeries(records)
    report = alloc.alpha_stability(series, bins)
    assert report.mean_alpha == pytest.approx(0.0521, abs=1e-6)
    assert report.std_alpha <= 1e-9
    assert report.n_stable_bins == len(bins)


def test_alpha_stability_normal_draws_pass_moment_test():
    from subscale.rng import SplitMix64

    bins = _bins()
    rng = SplitMix64(20260810)
    records = []
    for i, (lo, hi) in enumerate(bins):
        alpha = 0.0521 + 0.002 * rng.normal()
        records.extend(_records_for_bin(lo, hi, alpha, lam=5.0, bin_idx=i))
    series = runs.RunSeries(records)
    report = alloc.alpha_stability(series, bins, significance=0.05)
    assert report.normality_method == "jarque-bera"
    assert report.normality_pass


def test_alpha_stability_detects_decreasing_regime():
    # below the stability threshold the exponent falls as OTR grows
    bins = [(5.0 + 5.0 * i, 10.0 + 5.0 * i) for i in range(8)]
    records = []
    for i, (lo, hi) in enumerate(bins):
        records.extend(_records_for_bin(lo, hi, 0.09 - 0.005 * i, lam=4.0, bin_idx=i))
    series = runs.RunSeries(records)
    report = alloc.alpha_stability(series, bins, otr_threshold=50.0)
    alphas = [b.alpha for b in report.bins]
    assert all(b < a for a, b in zip(alphas, alphas[1:]))
    assert report.n_stable_bins == 0  # every bin sits below the threshold


def test_alpha_stability_bin_invariance_for_global_law():
    # a single global power law yields the same exponent in every bin
    bins = _bins(n_bins=6)
    records = []
    for i, (lo, hi) in enumerate(bins):
        records.extend(_records_for_bin(lo, hi, 0.0777, lam=3.0, bin_idx=i))
    series = runs.RunSeries(records)
    report = alloc.alpha_stability(series, bins)
    for b in report.bins:
        assert b.alpha == pytest.approx(0.0777, abs=1e-9)


def test_alpha_stability_bin_too_small():
    bins = [(60.0, 70.0)]
    records = _records_for_bin(60.0, 70.0, 0.05, lam=5.0, bin_idx=0, n_points=2)
    series = runs.RunSeries(records)
    with pytest.raises(BinTooSmall):
        alloc.alpha_stability(series, bins)
