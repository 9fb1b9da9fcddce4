"""Nonlinear least-squares fitting of scaling laws to run series.

The fitter is a damped Gauss-Newton (Levenberg-Marquardt) loop over
residuals in log space by default (losses span decades, so log residuals
equalize relative error and line up with MAPE-style evaluation).  Every fit
runs from a small multistart grid and keeps the best objective; positive
coefficients are optimized as logs so they stay positive and comparable in
scale to the exponents.  Optional Huber weighting (off by default,
delta = 1e-3 in log space when enabled) damps outliers in raw logs.

Fit families:

* ``power``        loss vs compute C = 6*N*D
* ``batch_power``  loss vs batch size
* ``lr_power``     loss vs learning rate
* ``chinchilla``   loss vs (N, D)
* ``suboptimal``   chinchilla with logistic repetition factors of OTR

For families with repetition steepness (k1, k2) the fit is staged: stage
one freezes the steepness at the default constants and fits the remaining
parameters; stage two releases everything from the stage-one solution.
This keeps the logistic in its informative regime and removes most of the
multimodality.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    InsufficientData,
    LengthMismatch,
    NoConvergence,
    NonPositiveActual,
    SubscaleError,
    UnknownFamily,
)
from .laws import (
    ChinchillaParams,
    LawParams,
    PowerLawParams,
    SubOptimalParams,
    chinchilla_gradient,
    eval_chinchilla,
    eval_power,
    eval_suboptimal,
    params_to_dict,
    power_gradient,
    suboptimal_gradient,
)
from .runs import RunSeries, require_field, split_fit_holdout

EXPONENT_GRID = (0.05, 0.1, 0.2, 0.3, 0.5)
# Default steepness inits for the repetition factors; chosen so the
# logistic transition sits in the observable OTR range.
K1_INIT = 0.00810
K2_INIT = 0.00114
_COEFF_BOUNDS = (1e-12, 1e12)
_EXPONENT_BOUNDS = (1e-3, 2.0)
_K_BOUNDS = (0.0, 1.0)


# ---------------------------------------------------------------------------
# Config and result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    """Fitting knobs; the defaults are the declared, reproducible protocol.

    multistart_grid maps parameter names (spec names, e.g. "alpha_n") to
    candidate initial values; listed parameters are gridded, everything
    else is initialized from the data.  bounds overrides the per-parameter
    box constraints.  seed is recorded in manifests and reserved for
    stochastic extensions; the current fitter is fully deterministic.
    """

    residual_space: str = "log"
    robust_delta: float | None = None
    multistart_grid: dict | None = None
    bounds: dict | None = None
    max_iters: int = 200
    tolerance: float = 1e-14
    seed: int = 0

    def __post_init__(self):
        if self.residual_space not in ("log", "linear"):
            raise ValueError("residual_space must be 'log' or 'linear'")
        if self.robust_delta is not None and not self.robust_delta > 0:
            raise ValueError("robust_delta must be > 0 when set")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.multistart_grid is not None:
            for name, values in self.multistart_grid.items():
                if len(tuple(values)) == 0:
                    raise ValueError(f"multistart grid for {name!r} is empty")
        if self.bounds is not None:
            for name, (lo, hi) in self.bounds.items():
                if not lo < hi:
                    raise ValueError(f"bounds for {name!r} must satisfy lo < hi")

    def to_dict(self) -> dict:
        return {
            "residual_space": self.residual_space,
            "robust_delta": self.robust_delta,
            "multistart_grid": (
                None
                if self.multistart_grid is None
                else {k: list(v) for k, v in self.multistart_grid.items()}
            ),
            "bounds": (
                None
                if self.bounds is None
                else {k: list(v) for k, v in self.bounds.items()}
            ),
            "max_iters": self.max_iters,
            "tolerance": self.tolerance,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: dict) -> "FitConfig":
        grid = data.get("multistart_grid")
        bounds = data.get("bounds")
        return FitConfig(
            residual_space=data.get("residual_space", "log"),
            robust_delta=data.get("robust_delta"),
            multistart_grid=(
                None if grid is None else {k: tuple(v) for k, v in grid.items()}
            ),
            bounds=(
                None
                if bounds is None
                else {k: (float(v[0]), float(v[1])) for k, v in bounds.items()}
            ),
            max_iters=int(data.get("max_iters", 200)),
            tolerance=float(data.get("tolerance", 1e-14)),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class FitResult:
    family: str
    params: LawParams
    mape_fit: float
    mape_pred: float | None
    converged: bool
    n_starts_tried: int
    best_objective: float
    residuals: tuple[float, ...]
    n_iterations: int
    objective_trace: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": params_to_dict(self.params),
            "mape_fit": self.mape_fit,
            "mape_pred": self.mape_pred,
            "converged": self.converged,
            "n_starts_tried": self.n_starts_tried,
            "best_objective": self.best_objective,
            "n_iterations": self.n_iterations,
            "residuals": list(self.residuals),
            "objective_trace": list(self.objective_trace),
        }

    def to_csv_text(self) -> str:
        """One-row CSV, columns family, mape_fit, mape_pred, converged, params."""
        record = params_to_dict(self.params)
        names = [k for k in record if k != "family"]
        header = ",".join(["family", "mape_fit", "mape_pred", "converged"] + names)
        cells = [
            self.family,
            repr(self.mape_fit),
            "" if self.mape_pred is None else repr(self.mape_pred),
            str(self.converged).lower(),
        ] + [repr(record[k]) for k in names]
        return header + "\n" + ",".join(cells) + "\n"


# ---------------------------------------------------------------------------
# Metrics and the closed-form power fit
# ---------------------------------------------------------------------------


def mape(predicted, actual) -> float:
    """Mean absolute percentage error, mean_i |pred_i - act_i| / act_i."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1 or len(p) < 1:
        raise LengthMismatch(int(np.size(p)), int(np.size(a)))
    bad = np.flatnonzero(a <= 0)
    if bad.size:
        raise NonPositiveActual(int(bad[0]), float(a[bad[0]]))
    return float(np.mean(np.abs(p - a) / a))


def fit_power_loglog(x, y) -> tuple[float, float]:
    """Closed-form power-law fit: regress ln y on ln x.

    Returns (lam, alpha) for y = lam * x**(-alpha).  This is the exact
    least-squares solution in log space and doubles as the oracle the
    iterative fitter is checked against.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y) or len(x) < 2:
        raise InsufficientData("power-law regression needs >= 2 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("x and y must be > 0")
    lx, ly = np.log(x), np.log(y)
    # center the regressor: log compute sits around 40-60, and the raw
    # normal equations lose ~8 digits of the intercept at that offset
    mx, my = lx.mean(), ly.mean()
    cx = lx - mx
    slope = float(np.dot(cx, ly - my) / np.dot(cx, cx))
    intercept = my - slope * mx
    return math.exp(intercept), -slope


# ---------------------------------------------------------------------------
# Family plumbing
# ---------------------------------------------------------------------------


def _series_nd(series: RunSeries) -> tuple[np.ndarray, np.ndarray]:
    n = np.array([r.model_size for r in series.records], dtype=float)
    d = np.array([r.tokens for r in series.records], dtype=float)
    return n, d


def _losses(series: RunSeries) -> np.ndarray:
    return np.array([r.loss for r in series.records], dtype=float)


def _extract_compute(series: RunSeries) -> tuple[np.ndarray, ...]:
    n, d = _series_nd(series)
    return (6.0 * n * d,)


def _extract_batch(series: RunSeries) -> tuple[np.ndarray, ...]:
    require_field(series, "batch_size")
    return (np.array([r.batch_size for r in series.records], dtype=float),)


def _extract_lr(series: RunSeries) -> tuple[np.ndarray, ...]:
    require_field(series, "learning_rate")
    return (np.array([r.learning_rate for r in series.records], dtype=float),)


@dataclass(frozen=True)
class _FamilySpec:
    tag: str
    names: tuple[str, ...]          # spec-facing parameter names, vector order
    log_scaled: tuple[bool, ...]    # optimized as log of the value
    staged_k: bool                  # two-stage fit with k frozen first
    extract: Callable[[RunSeries], tuple[np.ndarray, ...]]
    predict: Callable[[np.ndarray, tuple], np.ndarray]
    jacobian: Callable[[np.ndarray, tuple], np.ndarray]
    make_params: Callable[[np.ndarray], LawParams]
    param_vector: Callable[[LawParams], np.ndarray]


def _power_predict(vec, inputs):
    return eval_power(PowerLawParams(lam=vec[0], alpha=vec[1]), inputs[0])


def _power_jac(vec, inputs):
    return power_gradient(PowerLawParams(lam=vec[0], alpha=vec[1]), inputs[0])


def _chin_predict(vec, inputs):
    return eval_chinchilla(ChinchillaParams(*vec), inputs[0], inputs[1])


def _chin_jac(vec, inputs):
    return chinchilla_gradient(ChinchillaParams(*vec), inputs[0], inputs[1])


def _sub_predict(vec, inputs):
    return eval_suboptimal(SubOptimalParams(*vec), inputs[0], inputs[1])


def _sub_jac(vec, inputs):
    return suboptimal_gradient(SubOptimalParams(*vec), inputs[0], inputs[1])


def _power_family(tag: str, extract) -> _FamilySpec:
    return _FamilySpec(
        tag=tag,
        names=("lambda", "alpha"),
        log_scaled=(True, False),
        staged_k=False,
        extract=extract,
        predict=_power_predict,
        jacobian=_power_jac,
        make_params=lambda v: PowerLawParams(lam=float(v[0]), alpha=float(v[1])),
        param_vector=lambda p: np.array([p.lam, p.alpha], dtype=float),
    )


_CHIN_NAMES = ("e_irreducible", "lambda_n", "alpha_n", "lambda_d", "alpha_d")

FAMILIES: dict[str, _FamilySpec] = {
    "power": _power_family("power", _extract_compute),
    "batch_power": _power_family("batch_power", _extract_batch),
    "lr_power": _power_family("lr_power", _extract_lr),
    "chinchilla": _FamilySpec(
        tag="chinchilla",
        names=_CHIN_NAMES,
        log_scaled=(False, True, False, True, False),
        staged_k=False,
        extract=_series_nd,
        predict=_chin_predict,
        jacobian=_chin_jac,
        make_params=lambda v: ChinchillaParams(*(float(x) for x in v)),
        param_vector=lambda p: np.array(
            [p.e_irreducible, p.lambda_n, p.alpha_n, p.lambda_d, p.alpha_d],
            dtype=float,
        ),
    ),
    "suboptimal": _FamilySpec(
        tag="suboptimal",
        names=_CHIN_NAMES + ("k1", "k2"),
        log_scaled=(False, True, False, True, False, False, False),
        staged_k=True,
        extract=_series_nd,
        predict=_sub_predict,
        jacobian=_sub_jac,
        make_params=lambda v: SubOptimalParams(*(float(x) for x in v)),
        param_vector=lambda p: np.array(
            [p.e_irreducible, p.lambda_n, p.alpha_n, p.lambda_d, p.alpha_d, p.k1, p.k2],
            dtype=float,
        ),
    ),
}


def _family(tag: str) -> _FamilySpec:
    if tag not in FAMILIES:
        raise UnknownFamily(tag)
    return FAMILIES[tag]


def family_for_params(params: LawParams) -> str:
    """Default fit-family tag for a params instance."""
    if isinstance(params, PowerLawParams):
        return "power"
    if isinstance(params, ChinchillaParams):
        return "chinchilla"
    if isinstance(params, SubOptimalParams):
        return "suboptimal"
    raise UnknownFamily(type(params).__name__)


def _default_bounds(spec: _FamilySpec, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = [], []
    min_loss = float(obs.min())
    for name in spec.names:
        if name.startswith("lambda"):
            lo.append(_COEFF_BOUNDS[0])
            hi.append(_COEFF_BOUNDS[1])
        elif name.startswith("alpha"):
            lo.append(_EXPONENT_BOUNDS[0])
            hi.append(_EXPONENT_BOUNDS[1])
        elif name == "e_irreducible":
            lo.append(0.0)
            hi.append(min_loss)
        else:  # k1, k2
            lo.append(_K_BOUNDS[0])
            hi.append(_K_BOUNDS[1])
    return np.array(lo), np.array(hi)


def _apply_bound_overrides(
    spec: _FamilySpec, lo: np.ndarray, hi: np.ndarray, overrides: dict | None
) -> tuple[np.ndarray, np.ndarray]:
    if not overrides:
        return lo, hi
    lo, hi = lo.copy(), hi.copy()
    for name, (b_lo, b_hi) in overrides.items():
        if name in spec.names:
            i = spec.names.index(name)
            lo[i], hi[i] = b_lo, b_hi
    return lo, hi


def _two_point_coeffs(
    e: float,
    basis_first: np.ndarray,
    basis_last: np.ndarray,
    loss_first: float,
    loss_last: float,
) -> tuple[float, float]:
    """Solve the 2x2 system pinning both coefficients on first/last records."""
    a = np.array([basis_first, basis_last])
    b = np.array([max(loss_first - e, 1e-9), max(loss_last - e, 1e-9)])
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        sol = np.array([-1.0, -1.0])
    if not np.all(np.isfinite(sol)) or np.any(sol <= 0):
        # fall back to an even split of the first record's excess loss
        sol = np.array(
            [0.5 * b[0] / basis_first[0], 0.5 * b[0] / basis_first[1]]
        )
    return float(sol[0]), float(sol[1])


def _build_starts(
    spec: _FamilySpec,
    inputs: tuple[np.ndarray, ...],
    obs: np.ndarray,
    config: FitConfig,
    lo: np.ndarray,
    hi: np.ndarray,
) -> list[np.ndarray]:
    """Cartesian multistart grid; non-gridded parameters come from the data."""
    if spec.tag in ("power", "batch_power", "lr_power"):
        default_grid = {"alpha": EXPONENT_GRID}
    else:
        default_grid = {"alpha_n": EXPONENT_GRID, "alpha_d": EXPONENT_GRID}
    grid = dict(default_grid)
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
        if spec.tag in ("power", "batch_power", "lr_power"):
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
            k1 = combo.get("k1", K1_INIT)
            k2 = combo.get("k2", K2_INIT)
            basis = []
            for i in (0, len(obs) - 1):
                t_n = n[i] ** -a_n
                t_d = d[i] ** -a_d
                if spec.staged_k:
                    r = d[i] / n[i]
                    t_n *= 1.0 + 1.0 / (1.0 + math.exp(-k2 * r))
                    t_d *= 1.0 + 1.0 / (1.0 + math.exp(-k1 * r))
                basis.append(np.array([t_n, t_d]))
            lam_n, lam_d = _two_point_coeffs(e, basis[0], basis[1], obs[0], obs[-1])
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
# Levenberg-Marquardt core
# ---------------------------------------------------------------------------


class _StartFailed(Exception):
    pass


@dataclass
class _LMOutcome:
    x: np.ndarray
    objective: float
    converged: bool
    n_iters: int
    trace: list[float] = field(default_factory=list)


def _huber_objective(r: np.ndarray, delta: float | None) -> float:
    if delta is None:
        return 0.5 * float(r @ r)
    a = np.abs(r)
    return float(
        np.sum(np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta)))
    )


def _levenberg_marquardt(
    residual_jac: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    max_iters: int,
    tol: float,
    huber_delta: float | None = None,
) -> _LMOutcome:
    """Box-projected LM with Nielsen damping updates.

    Steps are accepted only when the objective strictly decreases, so the
    returned trace is non-increasing by construction.  With Huber weighting
    the normal equations use IRLS weights, which reproduces the exact
    gradient of the robust objective.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r, jac = residual_jac(x)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(jac))):
        raise _StartFailed("non-finite residuals at the start point")
    objective = _huber_objective(r, huber_delta)
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

    def _pinned() -> np.ndarray:
        # coordinates sitting exactly on a bound whose descent direction
        # points outward; stepping through them and clipping distorts the
        # damped model and stalls the other coordinates
        return ((x == lo) & (g > 0)) | ((x == hi) & (g < 0))

    for _ in range(max_iters):
        n_iters += 1
        free = ~_pinned()
        if not free.any():
            converged = True  # stationary corner of the box
            break
        n_free = int(free.sum())
        # damped step from the augmented system [J; sqrt(mu) I] d = [-r; 0];
        # solving the normal equations instead squares the conditioning and
        # visibly degrades the flat direction of log-log power fits
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
        obj_new = _huber_objective(r_new, huber_delta) if finite else math.inf

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
            # two consecutive negligible decreases: the first one can stop
            # an ill-conditioned problem an iteration short of the optimum
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

    # undamped Gauss-Newton polish: damping escalation can leave the iterate
    # a whisker short along the flat valley of near-linear problems, where
    # the remaining descent is real but each damped step is below objective
    # resolution.  Accepted only on strict decrease, so the trace stays
    # non-increasing.
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
        obj_try = _huber_objective(r_try, huber_delta)
        if obj_try >= objective:
            break
        x, r, jac, objective = x_try, r_try, jac_try, obj_try
        trace.append(objective)
        rw, jw = _weighted(r, jac)
        g = jw.T @ rw

    return _LMOutcome(
        x=x, objective=objective, converged=converged, n_iters=n_iters, trace=trace
    )


def _internal_residual_jac(
    spec: _FamilySpec,
    inputs: tuple[np.ndarray, ...],
    obs: np.ndarray,
    residual_space: str,
    free: np.ndarray,
    fixed_vec: np.ndarray,
    log_mask: np.ndarray,
):
    """Residual/Jacobian closure over the internal (log-scaled, free) vector."""
    ln_obs = np.log(obs)

    def fn(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ext = fixed_vec.copy()
        ext[free] = np.where(log_mask[free], np.exp(theta), theta)
        pred = spec.predict(ext, inputs)
        jac_ext = spec.jacobian(ext, inputs)
        # d ext / d theta = ext for log-scaled coordinates, 1 otherwise
        scale = np.where(log_mask[free], ext[free], 1.0)
        jac_int = jac_ext[:, free] * scale[None, :]
        if residual_space == "log":
            return np.log(pred) - ln_obs, jac_int / pred[:, None]
        return pred - obs, jac_int

    return fn


def _to_internal(vec: np.ndarray, log_mask: np.ndarray) -> np.ndarray:
    out = np.asarray(vec, dtype=float).copy()
    out[log_mask] = np.log(out[log_mask])
    return out


def _run_start(
    spec: _FamilySpec,
    inputs: tuple[np.ndarray, ...],
    obs: np.ndarray,
    start: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    config: FitConfig,
) -> _LMOutcome:
    """One multistart point; staged families fit twice (k frozen, then free)."""
    log_mask = np.array(spec.log_scaled)
    # floor only the log-scaled coordinates; zero bounds on linear ones
    # (e_irreducible, k1, k2) must survive exactly
    lo_guard = np.where(log_mask, np.maximum(lo, 1e-300), lo)
    lo_int = _to_internal(lo_guard, log_mask)
    hi_int = _to_internal(hi, log_mask)

    stages: list[np.ndarray]
    if spec.staged_k:
        k_idx = [spec.names.index("k1"), spec.names.index("k2")]
        first = np.ones(len(spec.names), dtype=bool)
        first[k_idx] = False
        stages = [first, np.ones(len(spec.names), dtype=bool)]
    else:
        stages = [np.ones(len(spec.names), dtype=bool)]

    vec = start.copy()
    outcome: _LMOutcome | None = None
    total_iters = 0
    for free in stages:
        fn = _internal_residual_jac(
            spec, inputs, obs, config.residual_space, free, vec, log_mask
        )
        theta0 = _to_internal(vec, log_mask)[free]
        outcome = _levenberg_marquardt(
            fn,
            theta0,
            lo_int[free],
            hi_int[free],
            config.max_iters,
            config.tolerance,
            config.robust_delta,
        )
        total_iters += outcome.n_iters
        vec = vec.copy()
        vec[free] = np.where(log_mask[free], np.exp(outcome.x), outcome.x)
    assert outcome is not None
    return _LMOutcome(
        x=vec,
        objective=outcome.objective,
        converged=outcome.converged,
        n_iters=total_iters,
        trace=outcome.trace,
    )


# ---------------------------------------------------------------------------
# Public fitting API
# ---------------------------------------------------------------------------


def fit_law(
    fit_split: RunSeries,
    family: str,
    config: FitConfig | None = None,
    threads: int = 1,
) -> FitResult:
    """Fit one law family to a run series.

    Runs LM from every multistart point and keeps the best objective;
    deterministic for a given (data, config) regardless of ``threads``.

    Raises:
        InsufficientData: fewer records than free parameters + 1.
        MissingField: the family needs an absent optional field.
        NoConvergence: every start point failed outright.
    """
    config = config or FitConfig()
    spec = _family(family)
    inputs = spec.extract(fit_split)
    obs = _losses(fit_split)
    if len(obs) < len(spec.names) + 1:
        raise InsufficientData(
            f"family {family!r} needs at least {len(spec.names) + 1} records, "
            f"got {len(obs)}"
        )

    lo, hi = _default_bounds(spec, obs)
    lo, hi = _apply_bound_overrides(spec, lo, hi, config.bounds)
    starts = _build_starts(spec, inputs, obs, config, lo, hi)

    def attempt(start: np.ndarray) -> _LMOutcome | None:
        try:
            return _run_start(spec, inputs, obs, start, lo, hi, config)
        except (_StartFailed, FloatingPointError):
            return None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(attempt, starts))
    else:
        outcomes = [attempt(s) for s in starts]

    best: _LMOutcome | None = None
    for outcome in outcomes:  # ties resolve to the earliest grid point
        if outcome is None:
            continue
        if best is None or outcome.objective < best.objective:
            best = outcome
    if best is None:
        raise NoConvergence(family, len(starts))

    params = spec.make_params(best.x)
    preds = spec.predict(best.x, inputs)
    if config.residual_space == "log":
        residuals = np.log(preds) - np.log(obs)
    else:
        residuals = preds - obs
    return FitResult(
        family=family,
        params=params,
        mape_fit=mape(preds, obs),
        mape_pred=None,
        converged=best.converged,
        n_starts_tried=len(starts),
        best_objective=best.objective,
        residuals=tuple(float(r) for r in residuals),
        n_iterations=best.n_iters,
        objective_trace=tuple(best.trace),
    )


def predict(
    params: LawParams, holdout: RunSeries, family: str | None = None
) -> tuple[np.ndarray, float]:
    """Evaluate a fitted law on holdout records; returns (predictions, MAPE).

    ``family`` disambiguates which record field a power law reads
    (compute by default, or batch_power / lr_power).
    """
    if len(holdout.records) == 0:
        raise InsufficientData("holdout is empty")
    tag = family or family_for_params(params)
    spec = _family(tag)
    inputs = spec.extract(holdout)
    preds = np.atleast_1d(spec.predict(spec.param_vector(params), inputs))
    return preds, mape(preds, _losses(holdout))


# ---------------------------------------------------------------------------
# Multi-law comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    family: str
    mape_fit: float | None
    mape_pred: float | None
    converged: bool | None
    n_params: int | None
    params: LawParams | None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "mape_fit": self.mape_fit,
            "mape_pred": self.mape_pred,
            "converged": self.converged,
            "n_params": self.n_params,
            "params": None if self.params is None else params_to_dict(self.params),
            "error": self.error,
        }


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    split_fraction: float

    def to_dict(self) -> dict:
        return {
            "split_fraction": self.split_fraction,
            "rows": [r.to_dict() for r in self.rows],
        }

    def to_csv_text(self) -> str:
        """Fixed column order: family, mape_fit, mape_pred, converged, params."""
        param_names: list[str] = []
        for row in self.rows:
            if row.params is None:
                continue
            for key in params_to_dict(row.params):
                if key != "family" and key not in param_names:
                    param_names.append(key)
        lines = [",".join(["family", "mape_fit", "mape_pred", "converged"] + param_names)]
        for row in self.rows:
            record = params_to_dict(row.params) if row.params is not None else {}
            cells = [
                row.family,
                "" if row.mape_fit is None else repr(row.mape_fit),
                "" if row.mape_pred is None else repr(row.mape_pred),
                "" if row.converged is None else str(row.converged).lower(),
            ]
            cells += [
                repr(record[name]) if name in record else "" for name in param_names
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


# What a family's fit may legitimately fail with; anything else is a bug
# and propagates instead of becoming a table row.
_FIT_FAILURES = (SubscaleError, ValueError, FloatingPointError, np.linalg.LinAlgError)


def compare_laws(
    series: RunSeries,
    families: list[str],
    config: FitConfig | None = None,
    split_fraction: float = 0.25,
    threads: int = 1,
) -> ComparisonTable:
    """Fit each family on the leading split, score it on the rest.

    Rows are sorted by prediction MAPE ascending, ties broken by fewer
    parameters; rows whose fit failed are kept at the bottom with the error
    message instead of aborting the comparison.
    """
    fit_split, holdout = split_fit_holdout(series, split_fraction)
    rows: list[ComparisonRow] = []
    for tag in families:
        try:
            result = fit_law(fit_split, tag, config, threads)
            _, mape_pred = predict(result.params, holdout, family=tag)
            rows.append(
                ComparisonRow(
                    family=tag,
                    mape_fit=result.mape_fit,
                    mape_pred=mape_pred,
                    converged=result.converged,
                    n_params=len(_family(tag).names),
                    params=result.params,
                )
            )
        except _FIT_FAILURES as exc:  # keep the table; mark the row
            rows.append(
                ComparisonRow(
                    family=tag,
                    mape_fit=None,
                    mape_pred=None,
                    converged=None,
                    n_params=None,
                    params=None,
                    error=str(exc),
                )
            )

    def sort_key(item: tuple[int, ComparisonRow]):
        i, row = item
        if row.error is not None:
            return (1, math.inf, math.inf, i)
        return (0, row.mape_pred, row.n_params, i)

    ordered = tuple(row for _, row in sorted(enumerate(rows), key=sort_key))
    return ComparisonTable(rows=ordered, split_fraction=split_fraction)
