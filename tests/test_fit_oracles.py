"""The fused fitting engine against the unfused code it replaced.

The fitter calls one ``*_value_and_jacobian`` per LM step over inputs
prepared once per fit, and fills the augmented LM system in place.  The
references below are the earlier implementations, kept here only as
oracles: separate evaluator and gradient formulas over raw (N, D) inputs,
a residual closure that calls both, and the LM loop that stacks
``[J; sqrt(mu) I]`` afresh on every step.  The engine must agree with them
bit for bit, start by start.  The bounds and the multistart points, now
built by name from each family row, are pinned the same way against the
positional code they replaced.
"""

import dataclasses
import itertools
import math

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


def _ref_levenberg_marquardt(residual_jac, x0, lo, hi, max_iters, tol, huber_delta=None):
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r, jac = residual_jac(x)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(jac))):
        raise fit._StartFailed("non-finite residuals at the start point")
    objective = fit._huber_objective(r, huber_delta)
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
        obj_new = fit._huber_objective(r_new, huber_delta) if finite else math.inf

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
        obj_try = fit._huber_objective(r_try, huber_delta)
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
    # a negative e is rejected by the params class mid-fit
    "negative_e": fit.FitConfig(bounds={"e_irreducible": (-10.0, 0.0)}, max_iters=20),
}


def _outcome_or_error(run):
    try:
        return run()
    except (fit._StartFailed, ValueError, FloatingPointError) as exc:
        return type(exc), str(exc)


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
    prepared = spec.prepare(*inputs)
    n_compared = 0
    # every start of the power grid; a spread of the 5 x 5 (N, D) grid
    for start in starts[:: 1 if family == "power" else 3]:
        want = _outcome_or_error(
            lambda: _ref_run_start(spec, inputs, obs, start, lo, hi, config)
        )
        got = _outcome_or_error(
            lambda: fit._run_start(spec, prepared, obs, start, lo, hi, config)
        )
        if isinstance(want, tuple) and len(want) == 2:
            assert got == want
            continue
        x, objective, converged, n_iters, trace = want
        assert np.array_equal(got.x, x)
        assert got.objective == objective
        assert got.trace == trace
        assert got.n_iters == n_iters
        assert got.converged == converged
        n_compared += 1
    if config_name != "negative_e":
        assert n_compared > 0


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
    return runs.RunSeries.from_records(series.records + (last,))


def _losses_rising_with_scale(series):
    # the lowest loss on the smallest, earliest record: the two-point solve
    # goes negative
    losses = sorted(r.loss for r in series.records)
    return runs.RunSeries.from_records(
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
    # names no family has all of, and an e box reaching below zero (a name no
    # family has is rejected by FitConfig itself)
    "bounds": fit.FitConfig(
        bounds={"alpha": (0.01, 0.2), "lambda": (2.0, 3.0), "alpha_n": (0.25, 0.3),
                "lambda_d": (1.0, 50.0), "e_irreducible": (-5.0, 0.5), "k1": (0.0, 0.002)},
    ),
    "grid": fit.FitConfig(
        multistart_grid={"lambda": [0.5, 3.0], "lambda_n": [10.0, 1e13],
                         "e_irreducible": [-1.0, 1.2], "k1": [0.0, 0.05]},
    ),
    "both": fit.FitConfig(
        bounds={"lambda_n": (20.0, 30.0), "k1": (0.01, 0.02), "e_irreducible": (-1.0, 3.0)},
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
        params = _random_params(rng, law)
        evaluate, gradient = _REF_LAWS[law]
        value, jac = fused(params, prepared)
        assert np.array_equal(value, evaluate(params, *raw))
        assert np.array_equal(jac, gradient(params, *raw))
        assert jac.flags.c_contiguous
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
        value, jac = fused(law(*vec), prepared)
        # differencing noise: about 1e-16 of the value over a 1e-6 step
        atol = 1e-8 * float(np.abs(value).max())
        for i in range(len(vec)):
            eps = 1e-6 * max(1.0, abs(vec[i]))
            up, dn = vec.copy(), vec.copy()
            up[i] += eps
            dn[i] = max(dn[i] - eps, 0.0)  # e and k stay >= 0
            numeric = (fused(law(*up), prepared)[0] - fused(law(*dn), prepared)[0]) / (
                up[i] - dn[i]
            )
            assert np.all(np.abs(jac[:, i] - numeric) <= 1e-4 * np.abs(numeric) + atol)

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
