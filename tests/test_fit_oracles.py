"""The lockstep fitting engine against the serial, unfused code it replaced.

The fitter runs every start of a fit together: one fused
``*_value_and_jacobian`` call per LM round for all running starts, over
inputs prepared once per fit, with the stacked arithmetic of each start
kept bit for bit that of a start run alone.  The references below are the
earlier implementations, kept here only as oracles: separate evaluator and
gradient formulas over raw (N, D) inputs, a residual closure that calls
both, and the serial LM loop that runs one start at a time and stacks
``[J; sqrt(mu) I]`` afresh on every step.  The engine must agree with them
bit for bit, start by start.  The bounds and the multistart points, now
built by name from each family row, are pinned the same way against the
positional code they replaced.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from subscale import fit, laws, runs, synth
from subscale.laws import ChinchillaParams, PowerLawParams, SubOptimalParams
from subscale.rng import SplitMix64

REF = SubOptimalParams(1.372, 61.929, 0.272, 455.345, 0.289, 0.00810, 0.00114)

# ---------------------------------------------------------------------------
# Reference: unfused evaluators and gradients
# ---------------------------------------------------------------------------


def _ref_sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_eval_power(params, x):
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0):
        raise ValueError("x must be > 0")
    return np.exp(math.log(params.lam) - params.alpha * np.log(xa))


def _ref_eval_chinchilla(params, n, d):
    na = np.asarray(n, dtype=float)
    da = np.asarray(d, dtype=float)
    if np.any(na <= 0) or np.any(da <= 0):
        raise ValueError("n and d must be > 0")
    term_n = np.exp(math.log(params.lambda_n) - params.alpha_n * np.log(na))
    term_d = np.exp(math.log(params.lambda_d) - params.alpha_d * np.log(da))
    return params.e_irreducible + term_n + term_d


def _ref_eval_suboptimal(params, n, d):
    na = np.asarray(n, dtype=float)
    da = np.asarray(d, dtype=float)
    if np.any(na <= 0) or np.any(da <= 0):
        raise ValueError("n and d must be > 0")
    r = da / na
    r_d = 1.0 + _ref_sigmoid(params.k1 * r)
    r_n = 1.0 + _ref_sigmoid(params.k2 * r)
    term_n = r_n * np.exp(math.log(params.lambda_n) - params.alpha_n * np.log(na))
    term_d = r_d * np.exp(math.log(params.lambda_d) - params.alpha_d * np.log(da))
    return params.e_irreducible + term_n + term_d


def _ref_power_gradient(params, x):
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    base = np.exp(-params.alpha * np.log(xa))
    return np.column_stack([base, -params.lam * np.log(xa) * base])


def _ref_chinchilla_gradient(params, n, d):
    na = np.atleast_1d(np.asarray(n, dtype=float))
    da = np.atleast_1d(np.asarray(d, dtype=float))
    ln_n, ln_d = np.log(na), np.log(da)
    t_n = np.exp(-params.alpha_n * ln_n)
    t_d = np.exp(-params.alpha_d * ln_d)
    return np.column_stack(
        [
            np.ones_like(na),
            t_n,
            -params.lambda_n * ln_n * t_n,
            t_d,
            -params.lambda_d * ln_d * t_d,
        ]
    )


def _ref_suboptimal_gradient(params, n, d):
    na = np.atleast_1d(np.asarray(n, dtype=float))
    da = np.atleast_1d(np.asarray(d, dtype=float))
    r = da / na
    ln_n, ln_d = np.log(na), np.log(da)
    t_n = np.exp(-params.alpha_n * ln_n)
    t_d = np.exp(-params.alpha_d * ln_d)
    s_d = _ref_sigmoid(params.k1 * r)
    s_n = _ref_sigmoid(params.k2 * r)
    r_d = 1.0 + s_d
    r_n = 1.0 + s_n
    return np.column_stack(
        [
            np.ones_like(na),
            r_n * t_n,
            -params.lambda_n * r_n * ln_n * t_n,
            r_d * t_d,
            -params.lambda_d * r_d * ln_d * t_d,
            params.lambda_d * t_d * s_d * (1.0 - s_d) * r,
            params.lambda_n * t_n * s_n * (1.0 - s_n) * r,
        ]
    )


_REF_LAWS = {
    PowerLawParams: (_ref_eval_power, _ref_power_gradient),
    ChinchillaParams: (_ref_eval_chinchilla, _ref_chinchilla_gradient),
    SubOptimalParams: (_ref_eval_suboptimal, _ref_suboptimal_gradient),
}

# ---------------------------------------------------------------------------
# Reference: residual closure, LM loop and staged start
# ---------------------------------------------------------------------------


def _ref_residual_jac(spec, inputs, obs, residual_space, free, fixed_vec, log_mask):
    ln_obs = np.log(obs)
    evaluate, gradient = _REF_LAWS[spec.law]

    def fn(theta):
        ext = fixed_vec.copy()
        ext[free] = np.where(log_mask[free], np.exp(theta), theta)
        params = spec.law(*map(float, ext))
        pred = evaluate(params, *inputs)
        jac_ext = gradient(params, *inputs)
        scale = np.where(log_mask[free], ext[free], 1.0)
        jac_int = jac_ext[:, free] * scale[None, :]
        if residual_space == "log":
            return np.log(pred) - ln_obs, jac_int / pred[:, None]
        return pred - obs, jac_int

    return fn


def _ref_huber_objective(r, delta):
    if delta is None:
        return 0.5 * float(r @ r)
    a = np.abs(r)
    return float(np.sum(np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))))


def _ref_levenberg_marquardt(residual_jac, x0, lo, hi, max_iters, tol, huber_delta=None):
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r, jac = residual_jac(x)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(jac))):
        raise fit._StartFailed("non-finite residuals at the start point")
    objective = _ref_huber_objective(r, huber_delta)
    trace = [objective]

    def _weighted(r_, jac_):
        if huber_delta is None:
            return r_, jac_
        a = np.abs(r_)
        w = np.where(a <= huber_delta, 1.0, np.sqrt(huber_delta / np.maximum(a, 1e-300)))
        return w * r_, w[:, None] * jac_

    rw, jw = _weighted(r, jac)
    a_mat = jw.T @ jw
    g = jw.T @ rw
    mu = 1e-3 * float(np.max(np.diag(a_mat))) if np.max(np.diag(a_mat)) > 0 else 1e-3
    nu = 2.0
    converged = False
    n_iters = 0
    small_decreases = 0

    def _pinned():
        return ((x == lo) & (g > 0)) | ((x == hi) & (g < 0))

    for _ in range(max_iters):
        n_iters += 1
        free = ~_pinned()
        if not free.any():
            converged = True
            break
        n_free = int(free.sum())
        lhs = np.vstack([jw[:, free], math.sqrt(mu) * np.eye(n_free)])
        rhs = np.concatenate([-rw, np.zeros(n_free)])
        step_free, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        step = np.zeros_like(x)
        step[free] = step_free
        x_new = np.clip(x + step, lo, hi)
        actual = x_new - x
        step_small = np.max(np.abs(actual)) <= tol * (tol + np.max(np.abs(x)))

        r_new, jac_new = residual_jac(x_new)
        finite = np.all(np.isfinite(r_new)) and np.all(np.isfinite(jac_new))
        obj_new = _ref_huber_objective(r_new, huber_delta) if finite else math.inf

        if finite and obj_new < objective:
            predicted = -float(actual @ g) - 0.5 * float(actual @ (a_mat @ actual))
            gain = (objective - obj_new) / predicted if predicted > 0 else 1.0
            if (objective - obj_new) <= tol * max(objective, 1e-300):
                small_decreases += 1
            else:
                small_decreases = 0
            x, r, jac, objective = x_new, r_new, jac_new, obj_new
            trace.append(objective)
            rw, jw = _weighted(r, jac)
            a_mat = jw.T @ jw
            g = jw.T @ rw
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
            if step_small or small_decreases >= 2:
                converged = True
                break
        else:
            if step_small:
                converged = True
                break
            mu *= nu
            nu *= 2.0
            if mu > 1e32:
                break

    for _ in range(3):
        free = ~_pinned()
        if not free.any():
            break
        step = np.zeros_like(x)
        step[free], *_ = np.linalg.lstsq(jw[:, free], -rw, rcond=None)
        x_try = np.clip(x + step, lo, hi)
        r_try, jac_try = residual_jac(x_try)
        if not (np.all(np.isfinite(r_try)) and np.all(np.isfinite(jac_try))):
            break
        obj_try = _ref_huber_objective(r_try, huber_delta)
        if obj_try >= objective:
            break
        x, r, jac, objective = x_try, r_try, jac_try, obj_try
        trace.append(objective)
        rw, jw = _weighted(r, jac)
        g = jw.T @ rw

    return x, objective, converged, n_iters, trace


def _ref_run_start(spec, inputs, obs, start, lo, hi, config):
    log_mask = np.array(spec.log_scaled)
    lo_guard = np.where(log_mask, np.maximum(lo, 1e-300), lo)
    lo_int = fit._to_internal(lo_guard, log_mask)
    hi_int = fit._to_internal(hi, log_mask)
    if spec.staged_k:
        first = np.array([name not in ("k1", "k2") for name in spec.names])
        stages = [first, np.ones(len(spec.names), dtype=bool)]
    else:
        stages = [np.ones(len(spec.names), dtype=bool)]
    vec = start.copy()
    total_iters = 0
    for free in stages:
        fn = _ref_residual_jac(spec, inputs, obs, config.residual_space, free, vec, log_mask)
        theta0 = fit._to_internal(vec, log_mask)[free]
        x, objective, converged, n_iters, trace = _ref_levenberg_marquardt(
            fn, theta0, lo_int[free], hi_int[free], config.max_iters,
            config.tolerance, config.robust_delta,
        )
        total_iters += n_iters
        vec = vec.copy()
        vec[free] = np.where(log_mask[free], np.exp(x), x)
    return vec, objective, converged, total_iters, trace


# ---------------------------------------------------------------------------
# Every start of every fit, bit for bit
# ---------------------------------------------------------------------------


def _series(seed, noise):
    sizes = synth.LADDER_MODEL_SIZES[:5]
    spec = synth.CurveSpec(
        law=REF,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, np.geomspace(2.0, 1700.0, 9)),
        noise_sigma=noise,
        seed=seed,
    )
    return synth.gen_curves(spec)


CONFIGS = {
    "log": fit.FitConfig(),
    "linear": fit.FitConfig(residual_space="linear"),
    "huber": fit.FitConfig(robust_delta=1e-3),
    # pins coordinates on bounds mid-fit, so steps run with partial free sets
    "bounds": fit.FitConfig(
        bounds={"alpha_n": (0.25, 0.3), "k1": (0.0, 0.002), "alpha": (0.01, 0.2),
                "e_irreducible": (0.0, 1.0)},
        multistart_grid={"k2": [0.0, 0.5]},
    ),
    # a power fit's every start ends on a corner of this box after one
    # iteration, with no free coordinate left
    "pinned": fit.FitConfig(bounds={"alpha": (1.0, 1.5), "lambda": (1e-12, 1e-6)}),
}


def _outcome_or_error(run):
    try:
        return run()
    except (fit._StartFailed, ValueError, FloatingPointError) as exc:
        return type(exc), str(exc)


def _assert_each_start_matches_reference(spec, inputs, obs, starts, lo, hi, config):
    """One engine call for all starts; each start against the serial reference."""
    got = list(fit._run_starts(spec, spec.prepare(*inputs), obs, starts, lo, hi, config))
    assert len(got) == len(starts)
    n_compared = 0
    for start, outcome in zip(starts, got):
        want = _outcome_or_error(
            lambda: _ref_run_start(spec, inputs, obs, start, lo, hi, config)
        )
        if isinstance(want, tuple) and len(want) == 2:
            assert isinstance(outcome, Exception)
            assert (type(outcome), str(outcome)) == want
            continue
        x, objective, converged, n_iters, trace = want
        assert np.array_equal(outcome.x, x)
        assert outcome.objective == objective
        assert outcome.trace == trace
        assert outcome.n_iters == n_iters
        assert outcome.converged == converged
        n_compared += 1
    return n_compared


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("family", ["power", "chinchilla", "suboptimal"])
def test_every_start_matches_unfused_engine(family, config_name):
    config = CONFIGS[config_name]
    # the smaller noise level keeps k off its bounds, the larger pins it
    series = _series(0, 0.01) if family == "suboptimal" else _series(1, 0.05)
    spec = fit.FAMILIES[family]
    inputs = spec.extract(series)
    obs = fit._losses(series)
    lo, hi = fit._bounds(spec, obs, config.bounds)
    starts = fit._build_starts(spec, inputs, obs, config, lo, hi)
    assert _assert_each_start_matches_reference(spec, inputs, obs, starts, lo, hi, config) > 0


def test_random_fits_match_unfused_engine_start_by_start():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    alphas = st.floats(0.02, 1.0)

    def box(lowest, highest):
        return st.tuples(st.floats(lowest, highest), st.floats(0.01, 1.0)).map(
            lambda t: (t[0], t[0] + t[1])
        )

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(
        family=st.sampled_from(["power", "chinchilla", "suboptimal"]),
        seed=st.integers(0, 2**16),
        noise=st.sampled_from([0.0, 0.01, 0.05, 0.3]),
        n_sizes=st.integers(3, 5),
        n_checkpoints=st.integers(3, 7),
        residual_space=st.sampled_from(["log", "linear"]),
        robust_delta=st.none() | st.floats(1e-4, 0.1),
        grid=st.fixed_dictionaries(
            {"alpha": st.lists(alphas, min_size=1, max_size=3),
             "alpha_n": st.lists(alphas, min_size=1, max_size=3),
             "alpha_d": st.lists(alphas, min_size=1, max_size=2)},
            optional={"k1": st.lists(st.floats(0.0, 0.05), min_size=1, max_size=2)},
        ),
        # every box inside its parameter's domain, as FitConfig requires
        bounds=st.fixed_dictionaries({}, optional={
            "alpha": box(1e-3, 0.5), "alpha_n": box(1e-3, 0.5), "alpha_d": box(1e-3, 0.5),
            "k2": box(0.0, 0.01), "e_irreducible": box(0.0, 0.5),
        }),
        max_iters=st.integers(1, 60),
    )
    def check(family, seed, noise, n_sizes, n_checkpoints, residual_space, robust_delta,
              grid, bounds, max_iters):
        sizes = synth.LADDER_MODEL_SIZES[:: 11 // n_sizes][:n_sizes]
        series = synth.gen_curves(synth.CurveSpec(
            law=REF,
            model_sizes=sizes,
            token_checkpoints=synth.otr_checkpoints(
                sizes, np.geomspace(2.0, 1700.0, n_checkpoints)),
            noise_sigma=noise,
            seed=seed,
        ))
        config = fit.FitConfig(residual_space=residual_space, robust_delta=robust_delta,
                               multistart_grid=grid, bounds=bounds, max_iters=max_iters)
        spec = fit.FAMILIES[family]
        inputs = spec.extract(series)
        obs = fit._losses(series)
        lo, hi = fit._bounds(spec, obs, config.bounds)
        starts = fit._build_starts(spec, inputs, obs, config, lo, hi)
        _assert_each_start_matches_reference(spec, inputs, obs, starts, lo, hi, config)

    check()


def test_fit_law_matches_best_reference_start():
    series = _series(2, 0.05)
    config = fit.FitConfig(
        multistart_grid={"alpha": [0.1, 0.3], "alpha_n": [0.1, 0.3], "alpha_d": [0.1, 0.3]}
    )
    for family in ("power", "chinchilla", "suboptimal"):
        spec = fit.FAMILIES[family]
        inputs = spec.extract(series)
        obs = fit._losses(series)
        lo, hi = fit._bounds(spec, obs, None)
        best = None
        for start in fit._build_starts(spec, inputs, obs, config, lo, hi):
            outcome = _ref_run_start(spec, inputs, obs, start, lo, hi, config)
            if best is None or outcome[1] < best[1]:
                best = outcome
        result = fit.fit_law(series, family, config)
        assert result.params == spec.make_params(best[0])
        assert result.best_objective == best[1]
        assert result.objective_trace == tuple(best[4])
        assert result.n_iterations == best[3]


def _ladder_fit_split(n_checkpoints, smooth_window=None):
    # the leading quarter of the 11-size ladder, as compare and fit take it
    sizes = synth.LADDER_MODEL_SIZES
    series = synth.gen_curves(synth.CurveSpec(
        law=REF,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(
            sizes, np.geomspace(2.0, 1700.0, n_checkpoints)),
        noise_sigma=0.01,
        seed=5,
    ))
    if smooth_window is not None:
        series = runs.gaussian_smooth(series, smooth_window)
    return runs.split_fit_holdout(series, 0.25)[0]


def _best_reference_start(spec, series, config):
    inputs = spec.extract(series)
    obs = fit._losses(series)
    lo, hi = fit._bounds(spec, obs, config.bounds)
    best = None
    for start in fit._build_starts(spec, inputs, obs, config, lo, hi):
        outcome = _outcome_or_error(
            lambda: _ref_run_start(spec, inputs, obs, start, lo, hi, config)
        )
        if len(outcome) == 5 and (best is None or outcome[1] < best[1]):
            best = outcome
    return best


def _assert_fit_law_matches_best_reference_start(series, family):
    spec = fit.FAMILIES[family]
    x, objective, converged, n_iters, trace = _best_reference_start(
        spec, series, fit.FitConfig()
    )
    result = fit.fit_law(series, family)
    assert result.params == spec.make_params(x)
    assert result.best_objective == objective
    assert result.objective_trace == tuple(trace)
    assert result.n_iterations == n_iters
    assert result.converged == converged


@pytest.mark.parametrize("family", ["power", "chinchilla", "suboptimal"])
@pytest.mark.parametrize("data", ["ladder", "smoothed_log"])
def test_fit_law_matches_best_reference_start_at_full_size(family, data):
    # 88 records of the 11 x 30 ladder, and 550 of an 11 x 200 smoothed log
    series = _ladder_fit_split(30) if data == "ladder" else _ladder_fit_split(200, 10)
    spec = fit.FAMILIES[family]
    per_group = fit._GROUP_FLOATS // (len(spec.names) * len(series.records))
    n_starts = 5 ** sum(name.startswith("alpha") for name in spec.names)
    if data == "smoothed_log":
        assert len(series.records) == 550
    assert per_group >= n_starts  # every start of the grid runs in one group
    _assert_fit_law_matches_best_reference_start(series, family)


@pytest.mark.parametrize("family", ["chinchilla", "suboptimal"])
def test_fit_law_matches_best_reference_start_across_groups(monkeypatch, family):
    # the 550-record smoothed log again, its 25 starts in 5 groups of 5
    series = _ladder_fit_split(200, 10)
    spec = fit.FAMILIES[family]
    monkeypatch.setattr(fit, "_GROUP_FLOATS", 5 * len(spec.names) * len(series.records))
    _assert_fit_law_matches_best_reference_start(series, family)


def test_fit_peak_memory_in_jacobian_stacks():
    # one group runs the 25-start grid on 550 records; the round keeps about
    # four (starts, params, records) Jacobian stacks alive at its peak
    series = _ladder_fit_split(200, 10)
    stack = 25 * 7 * len(series.records) * 8  # bytes, 0.77 MB
    tracemalloc.start()
    try:
        fit.fit_law(series, "suboptimal")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * stack


# ---------------------------------------------------------------------------
# The stacked least-squares solver against np.linalg.lstsq
# ---------------------------------------------------------------------------


def _lstsq_systems(seed, count, records, cols, damped):
    """Jacobian-like systems with columns over six decades.

    The last column leaves the first by 1e-16 to 1e-12 of the largest
    column's norm, so that some singular values fall near the rank cutoff.
    """
    rng = np.random.default_rng(seed)
    jac = rng.standard_normal((count, records, cols))
    jac *= 10.0 ** rng.uniform(-4.0, 2.0, (count, 1, cols))
    offset = rng.standard_normal((count, records))
    offset *= (10.0 ** rng.uniform(-16.0, -12.0, count)
               * np.linalg.norm(jac, axis=1).max(axis=1)
               / np.linalg.norm(offset, axis=1))[:, None]
    jac[:, :, -1] = jac[:, :, 0] + offset
    rhs = rng.standard_normal((count, records))
    if not damped:
        return jac, rhs
    mu = 10.0 ** rng.uniform(-8.0, 4.0, count)
    lhs = np.concatenate([jac, np.sqrt(mu)[:, None, None] * np.eye(cols)], axis=1)
    return lhs, np.concatenate([rhs, np.zeros((count, cols))], axis=1)


@pytest.mark.parametrize("count", [1, 2, 25])
@pytest.mark.parametrize(
    "records, cols, damped",
    [(88, 7, True), (88, 5, True), (550, 7, True), (88, 7, False), (550, 7, False)],
    ids=["damped-95x7", "damped-93x5", "damped-557x7", "undamped-88x7", "undamped-550x7"],
)
def test_stacked_lstsq_matches_numpy_system_by_system(count, records, cols, damped):
    lhs, rhs = _lstsq_systems(count * records + cols, count, records, cols, damped)
    assert lhs.shape == (count, records + cols * damped, cols)
    got = fit._lstsq(lhs, rhs)
    assert got.shape == (count, cols)
    for i in range(count):
        assert np.array_equal(got[i], np.linalg.lstsq(lhs[i], rhs[i], rcond=None)[0])


def test_stacked_lstsq_raises_numpys_error_for_a_nan_system(capfd):
    lhs, rhs = _lstsq_systems(0, 3, 88, 7, True)
    lhs[1, 4, 2] = math.nan
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.lstsq(lhs[1], rhs[1], rcond=None)
    # not a FloatingPointError, which fit_law would take for a failed start
    with pytest.raises(np.linalg.LinAlgError) as got:
        fit._lstsq(lhs, rhs)
    assert str(got.value) == str(want.value) == "SVD did not converge in Linear Least Squares"
    capfd.readouterr()  # LAPACK reports the NaN on stderr


# ---------------------------------------------------------------------------
# Starts that fail or raise, in and across groups
# ---------------------------------------------------------------------------


def _with_evaluator(monkeypatch, family, wrap):
    """Install a family row whose evaluator is ``wrap(original)``."""
    spec = fit.FAMILIES[family]
    faulty = dataclasses.replace(spec, value_and_jacobian=wrap(spec.value_and_jacobian))
    monkeypatch.setitem(fit.FAMILIES, family, faulty)
    return faulty


def _raise_past(error, threshold):
    def wrap(value_and_jacobian):
        def evaluate(theta, prepared):
            for vec in theta:
                if vec[2] > threshold:
                    raise error(f"alpha_n reached {float(vec[2])!r}")
            return value_and_jacobian(theta, prepared)

        return evaluate

    return wrap


@pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError])
@pytest.mark.parametrize("per_group", [1, 2, 3, 4, 25])
def test_earliest_start_that_raises_is_raised(monkeypatch, per_group, error):
    series = _series(1, 0.05)
    spec = _with_evaluator(monkeypatch, "chinchilla", _raise_past(error, 0.34))
    monkeypatch.setattr(fit, "_GROUP_FLOATS", per_group * 5 * len(series.records))
    inputs = spec.extract(series)
    obs = fit._losses(series)
    lo, hi = fit._bounds(spec, obs, None)
    starts = fit._build_starts(spec, inputs, obs, fit.FitConfig(), lo, hi)
    prepared = spec.prepare(*inputs)
    alone = [fit._run_alone(spec, prepared, obs, s, lo, hi, fit.FitConfig()) for s in starts]
    raised = [i for i, outcome in enumerate(alone) if isinstance(outcome, error)]
    # run alone, start 15 raises on its 17th evaluation, starts 16 and 17 on
    # their 3rd and 2nd, starts 20-24 on their first: in lockstep, later
    # starts raise first, in its group and in the groups after it
    assert raised[:3] == [15, 16, 17]
    with pytest.raises(error) as info:
        fit.fit_law(series, "chinchilla")
    assert str(info.value) == str(alone[15])


@pytest.mark.parametrize("per_group", [1, 3, 25])
def test_failed_starts_are_skipped(monkeypatch, per_group):
    series = _series(2, 0.05)
    spec = fit.FAMILIES["chinchilla"]
    config = fit.FitConfig()
    inputs = spec.extract(series)
    obs = fit._losses(series)
    lo, hi = fit._bounds(spec, obs, None)
    starts = fit._build_starts(spec, inputs, obs, config, lo, hi)
    ref = [_ref_run_start(spec, inputs, obs, s, lo, hi, config) for s in starts]
    ranked = sorted(range(len(ref)), key=lambda i: (ref[i][1], i))
    # the best start raises FloatingPointError at its start point, and the
    # second best gets non-finite residuals there
    raising, non_finite = starts[ranked[0]], starts[ranked[1]]

    def wrap(value_and_jacobian):
        def evaluate(theta, prepared):
            value, jac = value_and_jacobian(theta, prepared)
            for i, vec in enumerate(theta):
                if vec[2] == raising[2] and vec[4] == raising[4]:
                    raise FloatingPointError("overflow")
                if vec[2] == non_finite[2] and vec[4] == non_finite[4]:
                    value[i, 0] = math.nan
            return value, jac

        return evaluate

    _with_evaluator(monkeypatch, "chinchilla", wrap)
    monkeypatch.setattr(fit, "_GROUP_FLOATS", per_group * 5 * len(series.records))
    result = fit.fit_law(series, "chinchilla")
    x, objective, converged, n_iters, trace = ref[ranked[2]]
    assert result.params == spec.make_params(x)
    assert result.best_objective == objective
    assert result.objective_trace == tuple(trace)
    assert result.n_starts_tried == len(starts)


# ---------------------------------------------------------------------------
# Faulty values, in the engine and in the serial reference alike
# ---------------------------------------------------------------------------


def _with_values(monkeypatch, family, fault):
    """Install ``fault(values, point)`` on the values of the engine's and the
    reference's evaluators, for each parameter vector ``point`` they take."""

    def wrap(value_and_jacobian):
        def evaluate(theta, prepared):
            value, jac = value_and_jacobian(theta, prepared)
            for i, point in enumerate(theta):
                value[i] = fault(value[i], point)
            return value, jac

        return evaluate

    spec = _with_evaluator(monkeypatch, family, wrap)
    evaluate, gradient = _REF_LAWS[spec.law]

    def ref_evaluate(params, *inputs):
        return fault(evaluate(params, *inputs), np.array(dataclasses.astuple(params)))

    monkeypatch.setitem(_REF_LAWS, spec.law, (ref_evaluate, gradient))
    return spec


def _fit_inputs(spec, series, config):
    inputs = spec.extract(series)
    obs = fit._losses(series)
    lo, hi = fit._bounds(spec, obs, config.bounds)
    return inputs, obs, lo, hi, fit._build_starts(spec, inputs, obs, config, lo, hi)


def test_round_with_finite_and_non_finite_trial_points(monkeypatch):
    # objectives are taken only where the residuals are finite; the rest
    # are rejected steps
    series, config = _series(1, 0.05), fit.FitConfig()
    spec = _with_values(monkeypatch, "chinchilla",
                        lambda values, point: values * math.nan if point[2] > 0.5 else values)
    masks, original = [], fit._finite_rows

    def finite_rows(r, jac):
        masks.append(original(r, jac))
        return masks[-1]

    monkeypatch.setattr(fit, "_finite_rows", finite_rows)
    inputs, obs, lo, hi, starts = _fit_inputs(spec, series, config)
    n = _assert_each_start_matches_reference(spec, inputs, obs, starts, lo, hi, config)
    assert n == len(starts) and masks[0].all()  # every start point is finite
    assert any(mask.any() and not mask.all() for mask in masks[1:])


def test_damping_beyond_1e32_hands_off_to_polishing(monkeypatch):
    # only the start points are finite, and their residuals are so large
    # that the damping passes 1e32 before a rejected step becomes negligible
    series, config = _series(1, 0.05), fit.FitConfig(residual_space="linear")
    inputs, obs, lo, hi, starts = _fit_inputs(fit.FAMILIES["power"], series, config)
    alphas = {float(start[1]) for start in starts}
    spec = _with_values(
        monkeypatch, "power",
        lambda values, point: values * (1e20 if point[1] in alphas else math.nan),
    )
    n = _assert_each_start_matches_reference(spec, inputs, obs, starts, lo, hi, config)
    assert n == len(starts)
    for outcome in fit._run_starts(spec, spec.prepare(*inputs), obs, starts, lo, hi, config):
        # the damped loop stops unconverged before max_iters only on this hand-off
        assert not outcome.converged and outcome.n_iters < config.max_iters
        assert len(outcome.trace) == 1


def test_no_convergence_when_every_start_fails(monkeypatch):
    series, config = _series(1, 0.05), fit.FitConfig()
    spec = _with_values(monkeypatch, "chinchilla", lambda values, point: values * math.nan)
    inputs, obs, lo, hi, starts = _fit_inputs(spec, series, config)
    for start in starts:
        with pytest.raises(fit._StartFailed):
            _ref_run_start(spec, inputs, obs, start, lo, hi, config)
    with pytest.raises(fit.NoConvergence) as info:
        fit.fit_law(series, "chinchilla", config)
    assert str(info.value) == (
        f"fitting family 'chinchilla' failed from all {len(starts)} start points"
    )


# ---------------------------------------------------------------------------
# Reference: positional bounds and starts
# ---------------------------------------------------------------------------


def _ref_default_bounds(spec, obs):
    lo, hi = [], []
    min_loss = float(obs.min())
    for name in spec.names:
        if name.startswith("lambda"):
            lo.append(1e-12)
            hi.append(1e12)
        elif name.startswith("alpha"):
            lo.append(1e-3)
            hi.append(2.0)
        elif name == "e_irreducible":
            lo.append(0.0)
            hi.append(min_loss)
        else:  # k1, k2
            lo.append(0.0)
            hi.append(1.0)
    return np.array(lo), np.array(hi)


def _ref_apply_bound_overrides(spec, lo, hi, overrides):
    if not overrides:
        return lo, hi
    lo, hi = lo.copy(), hi.copy()
    for name, (b_lo, b_hi) in overrides.items():
        if name in spec.names:
            i = spec.names.index(name)
            lo[i], hi[i] = b_lo, b_hi
    return lo, hi


def _ref_two_point_coeffs(e, basis_first, basis_last, loss_first, loss_last):
    a = np.array([basis_first, basis_last])
    b = np.array([max(loss_first - e, 1e-9), max(loss_last - e, 1e-9)])
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        sol = np.array([-1.0, -1.0])
    if not np.all(np.isfinite(sol)) or np.any(sol <= 0):
        sol = np.array([0.5 * b[0] / basis_first[0], 0.5 * b[0] / basis_first[1]])
    return float(sol[0]), float(sol[1])


def _ref_build_starts(spec, inputs, obs, config, lo, hi):
    grid = {name: (0.05, 0.1, 0.2, 0.3, 0.5) for name in spec.names if name.startswith("alpha")}
    if config.multistart_grid:
        for name, values in config.multistart_grid.items():
            if name in spec.names:
                grid[name] = tuple(float(v) for v in values)
    names = list(grid)
    min_loss = float(obs.min())
    starts = []
    for combo_values in itertools.product(*(grid[n] for n in names)):
        combo = dict(zip(names, combo_values))
        vec = np.empty(len(spec.names))
        if spec.law is PowerLawParams:
            alpha = combo["alpha"]
            x = inputs[0]
            ln_lam = 0.5 * (
                (math.log(obs[0]) + alpha * math.log(x[0]))
                + (math.log(obs[-1]) + alpha * math.log(x[-1]))
            )
            vec[0] = combo.get("lambda", math.exp(ln_lam))
            vec[1] = alpha
        else:
            n, d = inputs
            e = combo.get("e_irreducible", 0.9 * min_loss)
            a_n, a_d = combo["alpha_n"], combo["alpha_d"]
            k1 = combo.get("k1", 0.00810)
            k2 = combo.get("k2", 0.00114)
            basis = []
            for i in (0, len(obs) - 1):
                t_n = n[i] ** -a_n
                t_d = d[i] ** -a_d
                if spec.staged_k:
                    r = d[i] / n[i]
                    t_n *= 1.0 + 1.0 / (1.0 + math.exp(-k2 * r))
                    t_d *= 1.0 + 1.0 / (1.0 + math.exp(-k1 * r))
                basis.append(np.array([t_n, t_d]))
            lam_n, lam_d = _ref_two_point_coeffs(e, basis[0], basis[1], obs[0], obs[-1])
            vec[0] = e
            vec[1] = combo.get("lambda_n", lam_n)
            vec[2] = a_n
            vec[3] = combo.get("lambda_d", lam_d)
            vec[4] = a_d
            if spec.staged_k:
                vec[5] = k1
                vec[6] = k2
        starts.append(np.clip(vec, lo, hi))
    return starts


# ---------------------------------------------------------------------------
# Bounds and starts, bit for bit
# ---------------------------------------------------------------------------


def _repeat_first_record(series):
    # the last record repeats the first one's (N, D): the two-point system
    # is singular
    first = series.records[0]
    last = dataclasses.replace(first, run_id="repeat", loss=first.loss * 1.01)
    return runs.RunSeries(series.records + (last,))


def _losses_rising_with_scale(series):
    # the lowest loss on the smallest, earliest record: the two-point solve
    # goes negative
    losses = sorted(r.loss for r in series.records)
    return runs.RunSeries(
        dataclasses.replace(r, loss=loss) for r, loss in zip(series.records, losses)
    )


START_DATA = {
    "ladder": lambda: _series(1, 0.05),
    "noisy": lambda: _series(4, 1.0),
    "singular": lambda: _repeat_first_record(_series(1, 0.05)),
    "rising": lambda: _losses_rising_with_scale(_series(1, 0.0)),
}

START_CONFIGS = {
    "default": fit.FitConfig(),
    # names no family has all of (a name no family has, or a box outside its
    # parameter's domain, is rejected by FitConfig itself)
    "bounds": fit.FitConfig(
        bounds={"alpha": (0.01, 0.2), "lambda": (2.0, 3.0), "alpha_n": (0.25, 0.3),
                "lambda_d": (1.0, 50.0), "e_irreducible": (0.0, 0.5), "k1": (0.0, 0.002)},
    ),
    "grid": fit.FitConfig(
        multistart_grid={"lambda": [0.5, 3.0], "lambda_n": [10.0, 1e13],
                         "e_irreducible": [-1.0, 1.2], "k1": [0.0, 0.05]},
    ),
    "both": fit.FitConfig(
        bounds={"lambda_n": (20.0, 30.0), "k1": (0.01, 0.02), "e_irreducible": (0.0, 3.0)},
        multistart_grid={"alpha_n": [0.3], "lambda": [1e-20], "e_irreducible": [0.0, 2.0],
                         "k1": [0.0, 0.5]},
    ),
}


@pytest.mark.parametrize("data", sorted(START_DATA))
@pytest.mark.parametrize("config_name", sorted(START_CONFIGS))
@pytest.mark.parametrize("family", ["power", "chinchilla", "suboptimal"])
def test_bounds_and_starts_match_positional_reference(family, config_name, data):
    config = START_CONFIGS[config_name]
    series = START_DATA[data]()
    spec = fit.FAMILIES[family]
    inputs = spec.extract(series)
    obs = fit._losses(series)
    want_lo, want_hi = _ref_apply_bound_overrides(
        spec, *_ref_default_bounds(spec, obs), config.bounds
    )
    lo, hi = fit._bounds(spec, obs, config.bounds)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
    want = _ref_build_starts(spec, inputs, obs, config, want_lo, want_hi)
    got = fit._build_starts(spec, inputs, obs, config, lo, hi)
    assert len(got) == len(want) > 0
    for start, ref in zip(got, want):
        assert np.array_equal(start, ref)


@pytest.mark.parametrize("data", ["singular", "rising"])
@pytest.mark.parametrize("family", ["chinchilla", "suboptimal"])
def test_start_data_reaches_the_two_point_fallback(family, data):
    series = START_DATA[data]()
    spec = fit.FAMILIES[family]
    obs = fit._losses(series)
    n, d = spec.extract(series)
    e = 0.9 * float(obs.min())
    a = np.array([[n[i] ** -0.05, d[i] ** -0.05] for i in (0, -1)])
    if spec.staged_k:
        r = d[[0, -1]] / n[[0, -1]]
        a *= np.column_stack([1.0 + _ref_sigmoid(0.00114 * r), 1.0 + _ref_sigmoid(0.00810 * r)])
    b = np.maximum(obs[[0, -1]] - e, 1e-9)
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        assert data == "singular"
        return
    assert np.any(sol <= 0)


# ---------------------------------------------------------------------------
# Fused value and Jacobian
# ---------------------------------------------------------------------------


def _random_params(rng, law):
    e = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 3.0)
    lam_n, lam_d = np.exp(rng.uniform(-5.0, 8.0, 2))
    a_n, a_d = rng.uniform(1e-3, 2.0, 2)
    if law is PowerLawParams:
        return PowerLawParams(float(lam_n), float(a_n))
    if law is ChinchillaParams:
        return ChinchillaParams(e, float(lam_n), float(a_n), float(lam_d), float(a_d))
    k1, k2 = (0.0 if rng.random() < 0.25 else float(v) for v in rng.uniform(0.0, 1.0, 2))
    return SubOptimalParams(e, float(lam_n), float(a_n), float(lam_d), float(a_d), k1, k2)


@pytest.mark.parametrize("seed", range(40))
def test_fused_value_and_jacobian_match_unfused_formulas(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    n = np.round(np.exp(rng.uniform(np.log(1e6), np.log(1e11), m)))
    otr = np.exp(rng.uniform(np.log(1e-2), np.log(1e5), m))  # up to 1e5
    d = np.round(n * otr)
    x = 6.0 * n * d
    cases = [
        (PowerLawParams, laws.power_value_and_jacobian, laws.prepare_power(x), (x,)),
        (ChinchillaParams, laws.chinchilla_value_and_jacobian, laws.prepare_nd(n, d), (n, d)),
        (SubOptimalParams, laws.suboptimal_value_and_jacobian, laws.prepare_nd(n, d), (n, d)),
    ]
    for law, fused, prepared, raw in cases:
        # a stack of laws; each row against its law alone
        stack = [_random_params(rng, law) for _ in range(int(rng.integers(1, 6)))]
        theta = np.array([dataclasses.astuple(params) for params in stack])
        evaluate, gradient = _REF_LAWS[law]
        value, jac = fused(theta, prepared)
        assert value.shape == (len(stack), m)
        assert jac.shape == (len(stack), theta.shape[1], m) and jac.flags.c_contiguous
        for i, params in enumerate(stack):
            assert np.array_equal(value[i], evaluate(params, *raw))
            assert np.array_equal(jac[i].T, gradient(params, *raw))
    # the public evaluators and gradients share the fused formulas
    params = _random_params(rng, SubOptimalParams)
    assert np.array_equal(laws.eval_suboptimal(params, n, d), _ref_eval_suboptimal(params, n, d))
    assert np.array_equal(
        laws.suboptimal_gradient(params, n, d), _ref_suboptimal_gradient(params, n, d)
    )


def test_sigmoid_matches_masked_reference_on_non_negative_inputs():
    z = np.concatenate([np.linspace(0.0, 50.0, 101), [0.0, 1e-300, 37.0, 745.0, 1e5]])
    assert np.array_equal(laws._sigmoid(z), _ref_sigmoid(z))


def test_prepare_rejects_non_positive_inputs():
    with pytest.raises(ValueError, match="x must be > 0"):
        laws.prepare_power([1.0, 0.0])
    with pytest.raises(ValueError, match="n and d must be > 0"):
        laws.prepare_nd([1.0, 2.0], [3.0, -1.0])


def test_fused_jacobian_matches_central_differences():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(
        st.sampled_from([PowerLawParams, ChinchillaParams, SubOptimalParams]),
        st.integers(0, 2**32 - 1),
    )
    def check(law, seed):
        rng = np.random.default_rng(seed)
        n = np.round(np.exp(rng.uniform(np.log(1e6), np.log(1e10), 5)))
        d = np.round(n * np.exp(rng.uniform(np.log(1.0), np.log(2e3), 5)))
        if law is PowerLawParams:
            prepared, fused = laws.prepare_power(6.0 * n * d), laws.power_value_and_jacobian
            vec = np.array([np.exp(rng.uniform(0.0, 5.0)), rng.uniform(0.01, 0.5)])
        else:
            prepared = laws.prepare_nd(n, d)
            fused = (laws.chinchilla_value_and_jacobian if law is ChinchillaParams
                     else laws.suboptimal_value_and_jacobian)
            vec = np.array([rng.uniform(0.0, 3.0), np.exp(rng.uniform(0.0, 6.0)),
                            rng.uniform(0.05, 0.6), np.exp(rng.uniform(0.0, 6.0)),
                            rng.uniform(0.05, 0.6), rng.uniform(0.0, 0.02),
                            rng.uniform(0.0, 0.02)])[: len(laws.param_keys(law))]
        # one stack: the point, then each coordinate stepped up and down
        eps = 1e-6 * np.maximum(1.0, np.abs(vec))
        up = vec + np.diag(eps)
        dn = np.maximum(vec - np.diag(eps), 0.0)  # e and k stay >= 0
        value, jac = fused(np.vstack([vec, up, dn]), prepared)
        # differencing noise: about 1e-16 of the value over a 1e-6 step
        atol = 1e-8 * float(np.abs(value[0]).max())
        for i in range(len(vec)):
            numeric = (value[1 + i] - value[1 + len(vec) + i]) / (up[i, i] - dn[i, i])
            assert np.all(np.abs(jac[0, i] - numeric) <= 1e-4 * np.abs(numeric) + atol)

    check()


# ---------------------------------------------------------------------------
# gen_curves: one evaluation per run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "law",
    [REF, ChinchillaParams(1.372, 61.929, 0.272, 455.345, 0.289),
     PowerLawParams(lam=3.0, alpha=0.05)],
)
@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_gen_curves_matches_scalar_loss_at(law, noise):
    sizes = synth.LADDER_MODEL_SIZES
    spec = synth.CurveSpec(
        law=law,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, np.geomspace(0.5, 3e4, 23)),
        noise_sigma=noise,
        seed=17,
    )
    rng = SplitMix64(spec.seed)
    want = []
    for size, checkpoints in zip(spec.model_sizes, spec.token_checkpoints):
        for tokens in checkpoints:
            loss = float(laws.loss_at(law, size, tokens))
            if noise > 0:
                loss *= math.exp(noise * rng.normal())
            want.append((size, tokens, loss))
    got = [(r.model_size, r.tokens, r.loss) for r in synth.gen_curves(spec).records]
    assert got == want
