import dataclasses
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from subscale import cli, fit, runs, synth
from subscale.errors import (
    FamilyMismatch,
    InsufficientData,
    LengthMismatch,
    MalformedRecord,
    MissingField,
    NonFiniteLoss,
    NonPositiveActual,
)
from subscale.laws import (
    ChinchillaParams,
    PowerLawParams,
    SubOptimalParams,
    params_to_dict,
)

REF = SubOptimalParams(1.372, 61.929, 0.272, 455.345, 0.289, 0.00810, 0.00114)


def _power_series(lam=3.0, alpha=0.3, n_points=20, noise=0.0, seed=0):
    tokens = tuple(int(1e8 * 1.6**i) for i in range(n_points))
    spec = synth.CurveSpec(
        law=PowerLawParams(lam=lam, alpha=alpha),
        model_sizes=(10**7,),
        token_checkpoints=(tokens,),
        noise_sigma=noise,
        seed=seed,
    )
    return synth.gen_curves(spec)


def _suboptimal_series(n_sizes=6, n_checkpoints=12, noise=0.0, seed=0, otr_hi=1700.0):
    sizes = synth.LADDER_MODEL_SIZES[:n_sizes]
    otrs = np.geomspace(2.0, otr_hi, n_checkpoints)
    spec = synth.CurveSpec(
        law=REF,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, otrs),
        noise_sigma=noise,
        seed=seed,
    )
    return synth.gen_curves(spec)


# ---------------------------------------------------------------------------
# mape
# ---------------------------------------------------------------------------


def test_mape_exact_fit_is_zero():
    assert fit.mape([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_mape_uniform_ten_percent():
    actual = np.array([1.0, 2.0, 5.0, 0.3])
    assert fit.mape(1.1 * actual, actual) == pytest.approx(0.1, rel=1e-12)


def test_mape_hand_arithmetic():
    assert fit.mape([2.0, 3.0], [2.5, 2.0]) == pytest.approx(0.35, rel=1e-12)


def test_mape_errors():
    with pytest.raises(LengthMismatch):
        fit.mape([1.0, 2.0], [1.0])
    with pytest.raises(NonPositiveActual):
        fit.mape([1.0], [0.0])


def test_mape_scale_invariant():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.5, 3.0, size=30)
    a = rng.uniform(0.5, 3.0, size=30)
    base = fit.mape(p, a)
    for s in (1e-6, 3.7, 1e9):
        assert fit.mape(s * p, s * a) == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# power-law fitting
# ---------------------------------------------------------------------------


def test_power_noiseless_recovery():
    result = fit.fit_law(_power_series(), "power")
    assert result.converged
    assert result.params.lam == pytest.approx(3.0, rel=1e-6)
    assert result.params.alpha == pytest.approx(0.3, rel=1e-6)
    assert result.mape_fit < 1e-10


def test_lm_agrees_with_closed_form_regression():
    # realistic loss magnitudes, modest noise: see the acceptance-suite note
    # on the resolution basin of the float objective
    rng = np.random.default_rng(1)
    for trial in range(10):
        alpha = float(rng.uniform(0.05, 0.2))
        x0 = float(10 ** rng.uniform(10, 13))
        tokens = tuple(int(v) for v in np.geomspace(x0, x0 * 1e5, 30))
        x_mid = 6.0 * 10**7 * math.sqrt(tokens[0] * float(tokens[-1]))
        lam = float(rng.uniform(1.0, 5.0)) * x_mid**alpha
        spec = synth.CurveSpec(
            law=PowerLawParams(lam=lam, alpha=alpha),
            model_sizes=(10**7,),
            token_checkpoints=(tokens,),
            noise_sigma=0.001,
            seed=trial,
        )
        series = synth.gen_curves(spec)
        result = fit.fit_law(series, "power")
        x = np.array([6.0 * r.model_size * r.tokens for r in series.records])
        y = np.array([r.loss for r in series.records])
        # independent closed form: plain polyfit of ln y on ln x
        slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
        assert math.log(result.params.lam) == pytest.approx(intercept, abs=1e-8)
        assert result.params.alpha == pytest.approx(-slope, abs=1e-8)
        # in-package closed form matches the same oracle
        cl, ca = fit.fit_power_loglog(x, y)
        assert math.log(cl) == pytest.approx(intercept, abs=1e-12)
        assert ca == pytest.approx(-slope, abs=1e-12)


# ---------------------------------------------------------------------------
# chinchilla / suboptimal fitting
# ---------------------------------------------------------------------------


def test_suboptimal_noiseless_grid_recovery():
    series = _suboptimal_series()
    result = fit.fit_law(series, "suboptimal")
    assert result.converged
    assert result.mape_fit <= 1e-4
    assert result.params.alpha_n == pytest.approx(0.272, rel=0.01)
    assert result.params.alpha_d == pytest.approx(0.289, rel=0.01)


def test_suboptimal_noisy_grid_recovery():
    # the full ladder grid; smaller grids leave E and the exponents too
    # weakly identified for a 5% guarantee under 1% noise
    series = _suboptimal_series(n_sizes=11, n_checkpoints=30, noise=0.01, seed=77)
    result = fit.fit_law(series, "suboptimal")
    assert result.converged
    assert result.params.alpha_n == pytest.approx(0.272, rel=0.05)
    assert result.params.alpha_d == pytest.approx(0.289, rel=0.05)


def test_chinchilla_noiseless_recovery():
    truth = ChinchillaParams(1.5, 90.0, 0.31, 520.0, 0.27)
    sizes = (10**7, 10**8, 10**9, 10**10)
    otrs = np.geomspace(3, 300, 10)
    spec = synth.CurveSpec(
        law=truth,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, otrs),
    )
    result = fit.fit_law(synth.gen_curves(spec), "chinchilla")
    assert result.params.alpha_n == pytest.approx(0.31, rel=0.01)
    assert result.params.alpha_d == pytest.approx(0.27, rel=0.01)
    assert result.mape_fit <= 1e-6


def test_objective_trace_never_increases():
    for family, series in (
        ("power", _power_series(noise=0.05, seed=3)),
        ("suboptimal", _suboptimal_series(noise=0.02, seed=4)),
    ):
        result = fit.fit_law(series, family)
        trace = result.objective_trace
        assert len(trace) >= 1
        assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_fitted_params_respect_bounds():
    series = _suboptimal_series(noise=0.02, seed=5)
    result = fit.fit_law(series, "suboptimal")
    p = result.params
    min_loss = min(r.loss for r in series.records)
    assert 0.0 <= p.e_irreducible <= min_loss
    for value in (p.lambda_n, p.lambda_d):
        assert 1e-12 <= value <= 1e12
    for value in (p.alpha_n, p.alpha_d):
        assert 1e-3 <= value <= 2.0
    for value in (p.k1, p.k2):
        assert 0.0 <= value <= 1.0


def test_custom_bounds_respected():
    series = _power_series(noise=0.05, seed=9)
    config = fit.FitConfig(bounds={"alpha": (0.4, 0.6)})
    result = fit.fit_law(series, "power", config)
    assert 0.4 <= result.params.alpha <= 0.6


def test_fit_deterministic():
    series = _suboptimal_series(noise=0.01, seed=6)
    config = fit.FitConfig()
    a = fit.fit_law(series, "suboptimal", config)
    b = fit.fit_law(series, "suboptimal", config)
    assert a == b


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"tolerance": math.inf}, "tolerance"),
        ({"robust_delta": math.inf}, "robust_delta"),
        ({"robust_delta": math.nan}, "robust_delta"),
        ({"bounds": {"alpha": (0.01, math.inf)}}, "bounds.alpha"),
        ({"multistart_grid": {"alpha": (0.1, -math.inf)}}, "multistart_grid.alpha"),
    ],
)
def test_fit_config_rejects_non_finite_numbers(kwargs, key):
    with pytest.raises(ValueError, match=f"fit config '{key}' must be a finite number"):
        fit.FitConfig(**kwargs)


@pytest.mark.parametrize(
    "family, bounds",
    [("power", {"alpha": (0.0, 1.0)}), ("chinchilla", {"alpha_d": (-0.5, 0.5)}),
     ("suboptimal", {"k2": (-1.0, 0.0)}), ("suboptimal", {"e_irreducible": (-1.0, 1.0)})],
)
def test_fit_law_rejects_box_outside_domain_before_fitting(family, bounds):
    # the config cannot be built, so neither fit_law nor compare_laws gets it
    (name,) = bounds
    assert name in fit.FAMILIES[family].names
    lo, hi = bounds[name]
    with pytest.raises(
        ValueError,
        match=rf"^fit config 'bounds.{name}' = \[{lo!r}, {hi!r}\] leaves the domain of {name}: ",
    ):
        fit.FitConfig(bounds=bounds)


def test_fit_config_from_dict_keeps_field_defaults():
    assert fit.FitConfig.from_dict({}) == fit.FitConfig()
    # older configs carry a seed, which has no effect
    assert fit.FitConfig.from_dict({"seed": 7}) == fit.FitConfig()
    config = fit.FitConfig.from_dict(
        {"multistart_grid": {"alpha": [0.1, 0.2]}, "bounds": {"lambda": [0, 1]},
         "max_iters": 50.0, "tolerance": 1}
    )
    assert config == fit.FitConfig(
        multistart_grid={"alpha": (0.1, 0.2)}, bounds={"lambda": (0.0, 1.0)},
        max_iters=50, tolerance=1.0,
    )


@pytest.mark.parametrize(
    "data, message",
    [({"max_iter": 1, "tolerence": 5}, "unknown fit config key.*max_iter, tolerence"),
     ([1, 2], "must be a JSON object, not a list")],
)
def test_fit_config_from_dict_rejects_bad_input(data, message):
    with pytest.raises(ValueError, match=message):
        fit.FitConfig.from_dict(data)


@pytest.mark.parametrize("key", ["bounds", "multistart_grid"])
def test_fit_config_rejects_a_name_no_family_has(key):
    with pytest.raises(ValueError, match=f"'{key}.k3' names no parameter of any law family"):
        fit.FitConfig(**{key: {"alpha": (0.1, 0.2), "k3": (0.0, 9.0)}})
    # every family's names are accepted, whichever family is fitted
    names = {name for spec in fit.FAMILIES.values() for name in spec.names}
    fit.FitConfig(**{key: dict.fromkeys(names, (0.1, 0.2))})


def test_predict_overflowing_law_raises_without_warning():
    law = ChinchillaParams(1.7e308, 1e308, 0.001, 1.0, 0.3)
    with pytest.raises(NonFiniteLoss, match="chinchilla law's loss overflows"):
        fit.predict(law, _suboptimal_series(n_sizes=2, n_checkpoints=4))


# coefficients (lambda*) are optimized as logs, everything else linearly
_LOG_MASKS = {
    "power": (True, False),
    "batch_power": (True, False),
    "lr_power": (True, False),
    "chinchilla": (False, True, False, True, False),
    "suboptimal": (False, True, False, True, False, False, False),
}


@pytest.mark.parametrize("tag", sorted(fit.FAMILIES))
def test_family_registry_derives_from_params_class(tag):
    spec = fit.FAMILIES[tag]
    vec = np.linspace(0.5, 0.9, len(spec.names))
    params = spec.make_params(vec)
    assert type(params) is spec.law
    record = params_to_dict(params)
    assert tuple(k for k in record if k != "family") == spec.names
    assert dataclasses.astuple(params) == tuple(float(v) for v in vec)
    assert spec.make_params(dataclasses.astuple(params)) == params
    assert spec.log_scaled == _LOG_MASKS[tag]
    assert spec.staged_k == (tag == "suboptimal")
    # init starts every parameter the default grid leaves out
    series = runs.RunSeries(
        dataclasses.replace(r, batch_size=2 ** (4 + i), learning_rate=1e-4 * (i + 1))
        for i, r in enumerate(_suboptimal_series(n_sizes=3, n_checkpoints=4).records)
    )
    combo = {name: fit.EXPONENT_GRID[0] for name in spec.names if name.startswith("alpha")}
    init = spec.init(spec.extract(series), fit._losses(series), combo)
    assert set(spec.names) - set(combo) <= set(init)
    assert all(math.isfinite(init[name]) for name in spec.names if name not in combo)


@pytest.mark.parametrize(
    "tag, evaluator, fused",
    [
        ("power", "eval_power", "power_value_and_jacobian"),
        ("chinchilla", "eval_chinchilla", "chinchilla_value_and_jacobian"),
        ("suboptimal", "eval_suboptimal", "suboptimal_value_and_jacobian"),
    ],
)
def test_family_rows_look_up_laws_at_call_time(monkeypatch, tag, evaluator, fused):
    # call tracing replaces the evaluators' module attributes, and the rows
    # must see it; no tracer wraps the fused functions, which a row holds
    calls = []
    original = getattr(fit, evaluator)
    monkeypatch.setattr(fit, evaluator, lambda *a: calls.append(evaluator) or original(*a))
    fit.fit_law(_suboptimal_series(n_sizes=3, n_checkpoints=4), tag)
    assert evaluator in calls
    assert fit.FAMILIES[tag].value_and_jacobian is getattr(fit, fused)


@pytest.mark.parametrize(
    "name", ["eval_power", "eval_chinchilla", "eval_suboptimal", "power_gradient",
             "chinchilla_gradient", "suboptimal_gradient"],
)
def test_traced_law_names_stay_importable_from_fit(name):
    # call tracers wrap these by name on this module
    assert callable(getattr(fit, name))


def test_benchmark_tracer_installs_and_restores_every_attribute():
    # perfbench/tracing.py wraps subscale functions by module attribute; a
    # deleted or renamed target makes install() raise AttributeError there
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tracing)
    names = ("cli", "runs", "fit", "laws", "alloc", "density", "synth", "rng", "svg")
    modules = {n: importlib.import_module(f"subscale.{n}") for n in names}
    tracer = tracing.Tracer(modules)
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in tracer._targets]
    try:
        tracer.install()
        for owner, attr, original in before:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.remove()
    for owner, attr, original in before:
        assert getattr(owner, attr) is original


def test_huber_robust_fit_still_recovers():
    series = _power_series(noise=0.02, seed=10)
    config = fit.FitConfig(robust_delta=1e-3)
    result = fit.fit_law(series, "power", config)
    assert result.params.alpha == pytest.approx(0.3, rel=0.05)
    trace = result.objective_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_linear_residual_fit_reports_linear_residuals():
    series = _power_series(noise=0.02, seed=10)
    result = fit.fit_law(series, "power", fit.FitConfig(residual_space="linear"))
    assert result.params.alpha == pytest.approx(0.3, rel=0.05)
    preds, _ = fit.predict(result.params, series)
    assert result.residuals == tuple((preds - runs.column(series, "loss")).tolist())


@pytest.mark.parametrize("delta", [2.0**53, 1e300], ids=["2^53", "1e300"])
def test_huge_robust_delta_fits_as_least_squares(delta):
    # every residual is inside delta; the outer Huber branch, computed for
    # every residual, used to overflow (a RuntimeWarning, an error here)
    series = _power_series(noise=0.02, seed=10)
    plain = fit.fit_law(series, "power", fit.FitConfig())
    huber = fit.fit_law(series, "power", fit.FitConfig(robust_delta=delta))
    assert huber.params.alpha == pytest.approx(plain.params.alpha, rel=1e-9)
    assert huber.params.lam == pytest.approx(plain.params.lam, rel=1e-9)


def test_insufficient_data():
    series = _power_series(n_points=2)
    with pytest.raises(InsufficientData):
        fit.fit_law(series, "power")


def test_missing_field_for_batch_family():
    series = _power_series(n_points=8)
    with pytest.raises(MissingField):
        fit.fit_law(series, "batch_power")


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_on_fit_data_matches_mape_fit():
    series = _power_series(noise=0.03, seed=11)
    result = fit.fit_law(series, "power")
    _, mape_pred = fit.predict(result.params, series)
    assert mape_pred == pytest.approx(result.mape_fit, rel=1e-12)


def test_predict_empty_holdout_rejected():
    # an empty holdout cannot be built, so it never reaches predict
    with pytest.raises(MalformedRecord, match="series has no records"):
        runs.RunSeries(())


@pytest.mark.parametrize(
    "params, family",
    [(REF, "power"), (PowerLawParams(lam=3.0, alpha=0.3), "chinchilla")],
)
def test_predict_rejects_params_of_another_family(params, family):
    series = _power_series(n_points=6)
    with pytest.raises(FamilyMismatch, match=f"as family '{family}'"):
        fit.predict(params, series, family=family)


def test_predict_missing_field():
    series = _power_series(n_points=6)
    with pytest.raises(MissingField):
        fit.predict(PowerLawParams(lam=1.0, alpha=0.1), series, family="lr_power")


# ---------------------------------------------------------------------------
# compare_laws
# ---------------------------------------------------------------------------


def test_compare_single_family_equals_fit_plus_predict():
    series = _suboptimal_series(noise=0.01, seed=12)
    fit_split, holdout = runs.split_fit_holdout(series, 0.25)
    rows = fit.compare_laws(fit_split, holdout, ["chinchilla"])
    assert len(rows) == 1
    row = rows[0]
    direct = fit.fit_law(fit_split, "chinchilla")
    _, mape_pred = fit.predict(direct.params, holdout)
    assert row.mape_fit == pytest.approx(direct.mape_fit, rel=1e-12)
    assert row.mape_pred == pytest.approx(mape_pred, rel=1e-12)


def test_compare_pure_power_data_power_wins():
    # several model sizes, so a power law in C = 6*N*D is NOT representable
    # by the chinchilla family (on a single size the families nest and the
    # richer one can win by noise)
    sizes = (10**7, 10**8, 10**9, 10**10)
    otrs = np.geomspace(5, 500, 8)
    spec = synth.CurveSpec(
        law=PowerLawParams(lam=400.0, alpha=0.05),
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, otrs),
        noise_sigma=0.002,
        seed=13,
    )
    series = synth.gen_curves(spec)
    rows = fit.compare_laws(*runs.split_fit_holdout(series, 0.25), ["chinchilla", "power"])
    ok_rows = [r for r in rows if r.error is None]
    assert ok_rows[0].family == "power"


def test_compare_high_otr_suboptimal_beats_chinchilla():
    series = _suboptimal_series(n_sizes=6, n_checkpoints=16, otr_hi=1700.0)
    rows = fit.compare_laws(*runs.split_fit_holdout(series, 0.25), ["chinchilla", "suboptimal"])
    by_family = {r.family: r for r in rows}
    assert by_family["suboptimal"].mape_pred < by_family["chinchilla"].mape_pred
    assert rows[0].family == "suboptimal"


def test_leading_quarter_split_leaves_k1_on_its_bound():
    # the leading 25% of each ladder run stops near OTR 10, where k1 * OTR is
    # too small to identify k1, so its fit ends on the lower bound 0 on most
    # seeds; a change that moves this changes what `compare` ranks
    seeds = range(12)
    k1 = [
        fit.fit_law(
            runs.split_fit_holdout(
                _suboptimal_series(n_sizes=11, n_checkpoints=30, noise=0.01, seed=seed), 0.25
            )[0],
            "suboptimal",
        ).params.k1
        for seed in seeds
    ]
    assert sum(k == 0.0 for k in k1) >= 9, dict(zip(seeds, k1))


def test_compare_marks_failed_rows():
    series = _suboptimal_series(n_checkpoints=8)
    rows = fit.compare_laws(*runs.split_fit_holdout(series, 0.25), ["power", "batch_power"])
    by_family = {r.family: r for r in rows}
    assert by_family["batch_power"].error is not None
    assert by_family["power"].error is None
    assert rows[-1].family == "batch_power"  # failed rows sort last


def test_compare_propagates_programming_errors(monkeypatch):
    # only fit failures become table rows; a bug in the fitter surfaces
    series = _suboptimal_series(n_checkpoints=8)

    def broken_fit(*args, **kwargs):
        raise TypeError("unexpected argument")

    monkeypatch.setattr(fit, "fit_law", broken_fit)
    with pytest.raises(TypeError, match="unexpected argument"):
        fit.compare_laws(*runs.split_fit_holdout(series, 0.25), ["power"])


def test_comparison_csv_layout(tmp_path):
    series = _suboptimal_series(n_checkpoints=8, noise=0.005, seed=14)
    rows = fit.compare_laws(*runs.split_fit_holdout(series, 0.25), ["power", "chinchilla"])
    cli._write_fit_table(tmp_path / "comparison.csv", rows)
    text = (tmp_path / "comparison.csv").read_text(encoding="utf-8")
    header = text.splitlines()[0].split(",")
    assert header[:4] == ["family", "mape_fit", "mape_pred", "converged"]
    assert len(text.splitlines()) == 3
