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
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from .errors import (
    FamilyMismatch,
    InsufficientData,
    LengthMismatch,
    NoConvergence,
    NonPositiveActual,
    SubscaleError,
    UnknownFamily,
)
from .laws import (  # noqa: F401  (the *_gradient names: see _FamilySpec)
    ChinchillaParams,
    LawParams,
    PowerLawParams,
    SubOptimalParams,
    chinchilla_gradient,
    chinchilla_value_and_jacobian,
    eval_chinchilla,
    eval_power,
    eval_suboptimal,
    family_of,
    json_integer,
    param_keys,
    params_to_dict,
    power_gradient,
    power_value_and_jacobian,
    prepare_nd,
    prepare_power,
    suboptimal_gradient,
    suboptimal_value_and_jacobian,
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
# log-scaled coordinates are floored here before their log is taken
_LOG_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# Config and result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    """Fitting knobs; the defaults are the declared, reproducible protocol.

    multistart_grid maps parameter names (spec names, e.g. "alpha_n") to
    candidate initial values; listed parameters are gridded, everything
    else is initialized from the data.  bounds overrides the per-parameter
    box constraints.  The fitter is fully deterministic.
    """

    residual_space: str = "log"
    robust_delta: float | None = None
    multistart_grid: dict | None = None
    bounds: dict | None = None
    max_iters: int = 200
    tolerance: float = 1e-14

    def __post_init__(self):
        if self.residual_space not in ("log", "linear"):
            raise ValueError("residual_space must be 'log' or 'linear'")
        # NaN and infinities, however the config was built
        numbers = {"tolerance": [self.tolerance]}
        if self.robust_delta is not None:
            numbers["robust_delta"] = [self.robust_delta]
        for key in ("multistart_grid", "bounds"):
            for name, values in (getattr(self, key) or {}).items():
                numbers[f"{key}.{name}"] = values
        for key, values in numbers.items():
            for value in values:
                if not math.isfinite(value):
                    raise _not_a_number(key, value)
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

    @staticmethod
    def from_dict(data: dict) -> "FitConfig":
        """Config from its JSON object; absent keys keep the field defaults."""
        if not isinstance(data, dict):
            kind = type(data).__name__
            raise ValueError(f"fit config must be a JSON object, not a {kind}")
        names = {f.name for f in fields(FitConfig)}
        # "seed" was a field of older versions: accepted, without effect
        unknown = sorted(set(data) - names - {"seed"})
        if unknown:
            raise ValueError(f"unknown fit config key(s): {', '.join(unknown)}")
        kwargs = {k: v for k, v in data.items() if k in names}
        for key, convert in _CONFIG_CONVERTERS.items():
            if key in kwargs:
                kwargs[key] = convert(key, kwargs[key])
        return FitConfig(**kwargs)


def _not_a_number(key: str, value) -> ValueError:
    return ValueError(f"fit config {key!r} must be a number, got {value!r}")


def _config_number(key: str, value) -> float:
    # FitConfig itself rejects NaN and infinities
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise _not_a_number(key, value)


def _config_count(key: str, value) -> int:
    return json_integer(value, f"fit config {key!r}")


def _config_mapping(key: str, value, convert) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"fit config {key!r} must be an object, got {value!r}")
    return {name: convert(f"{key}.{name}", v) for name, v in value.items()}


def _config_values(key: str, value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValueError(f"fit config {key!r} must be a list of numbers, got {value!r}")
    return tuple(_config_number(key, v) for v in value)


def _config_pair(key: str, value) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"fit config {key!r} must be a [lo, hi] pair, got {value!r}")
    return _config_number(key, value[0]), _config_number(key, value[1])


def _or_null(convert):
    return lambda key, value: None if value is None else convert(key, value)


# JSON value -> field value, each naming its key when the shape is wrong
_CONFIG_CONVERTERS = {
    "robust_delta": _or_null(_config_number),
    "multistart_grid": _or_null(lambda key, v: _config_mapping(key, v, _config_values)),
    "bounds": _or_null(lambda key, v: _config_mapping(key, v, _config_pair)),
    "max_iters": _config_count,
    "tolerance": _config_number,
}


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
    """What fitting needs beyond the params class; the rest derives from it.

    The parameter vector is the class's dataclass fields in order, named by
    its JSON keys.  ``evaluate`` takes the extracted inputs; ``prepare``
    turns them, once per fit, into what ``value_and_jacobian`` (one call per
    LM step) reads.  ``init`` gives, by name, the start values that come from
    the data, given the inputs, the losses and one grid point's values.  The
    evaluators look the law functions up at call time so that wrappers
    installed on this module's attributes see every call; the
    ``*_gradient`` functions stay importable here for the same wrappers.
    """

    law: type
    extract: Callable[[RunSeries], tuple[np.ndarray, ...]]
    evaluate: Callable[[LawParams, tuple], np.ndarray]
    prepare: Callable[..., tuple[np.ndarray, ...]]
    value_and_jacobian: Callable[[LawParams, tuple], tuple[np.ndarray, np.ndarray]]
    init: Callable[[tuple, np.ndarray, dict], dict]

    @property
    def names(self) -> tuple[str, ...]:
        return param_keys(self.law)

    @property
    def log_scaled(self) -> tuple[bool, ...]:
        # positive coefficients are optimized as logs
        return tuple(name.startswith("lambda") for name in self.names)

    @property
    def staged_k(self) -> bool:
        # two-stage fit with the repetition steepness frozen first
        return "k1" in self.names

    def make_params(self, vec) -> LawParams:
        return self.law(*np.asarray(vec, dtype=float).tolist())


def _power_init(inputs: tuple, obs: np.ndarray, combo: dict) -> dict:
    """λ through the first and last records at the grid point's exponent."""
    alpha = combo["alpha"]
    x = inputs[0]
    ln_lam = 0.5 * (
        (math.log(obs[0]) + alpha * math.log(x[0]))
        + (math.log(obs[-1]) + alpha * math.log(x[-1]))
    )
    return {"lambda": math.exp(ln_lam)}


def _nd_init(inputs: tuple, obs: np.ndarray, combo: dict, repetition: bool) -> dict:
    """E at 0.9 × min loss, the default k, and λ_n, λ_d solved on two records.

    The 2x2 system pins both coefficients on the first and last records at
    the grid point's values; ``repetition`` applies the logistic factors.
    """
    init = {"e_irreducible": 0.9 * float(obs.min())}
    if repetition:
        init.update(k1=K1_INIT, k2=K2_INIT)
    point = {**init, **combo}
    n, d = inputs
    basis = []
    for i in (0, len(obs) - 1):
        t_n = n[i] ** -point["alpha_n"]
        t_d = d[i] ** -point["alpha_d"]
        if repetition:
            r = d[i] / n[i]
            t_n *= 1.0 + 1.0 / (1.0 + math.exp(-point["k2"] * r))
            t_d *= 1.0 + 1.0 / (1.0 + math.exp(-point["k1"] * r))
        basis.append((t_n, t_d))
    a = np.array(basis)
    e = point["e_irreducible"]
    b = np.array([max(obs[0] - e, 1e-9), max(obs[-1] - e, 1e-9)])
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        sol = np.array([-1.0, -1.0])
    if not np.all(np.isfinite(sol)) or np.any(sol <= 0):
        # fall back to an even split of the first record's excess loss
        sol = np.array([0.5 * b[0] / a[0, 0], 0.5 * b[0] / a[0, 1]])
    return {**init, "lambda_n": float(sol[0]), "lambda_d": float(sol[1])}


def _power_family(extract) -> _FamilySpec:
    return _FamilySpec(
        PowerLawParams,
        extract,
        lambda p, x: eval_power(p, *x),
        prepare_power,
        lambda p, prep: power_value_and_jacobian(p, prep),
        _power_init,
    )


FAMILIES: dict[str, _FamilySpec] = {
    "power": _power_family(_extract_compute),
    "batch_power": _power_family(_extract_batch),
    "lr_power": _power_family(_extract_lr),
    "chinchilla": _FamilySpec(
        ChinchillaParams,
        _series_nd,
        lambda p, x: eval_chinchilla(p, *x),
        prepare_nd,
        lambda p, prep: chinchilla_value_and_jacobian(p, prep),
        partial(_nd_init, repetition=False),
    ),
    "suboptimal": _FamilySpec(
        SubOptimalParams,
        _series_nd,
        lambda p, x: eval_suboptimal(p, *x),
        prepare_nd,
        lambda p, prep: suboptimal_value_and_jacobian(p, prep),
        partial(_nd_init, repetition=True),
    ),
}


def _family(tag: str) -> _FamilySpec:
    if tag not in FAMILIES:
        raise UnknownFamily(tag)
    return FAMILIES[tag]


def _check_bounds(family: str, overrides: dict | None) -> None:
    """Reject a ``FitConfig.bounds`` box that leaves the family's parameter domain.

    Each end of a box must give valid params when every other parameter is
    1, a point inside every family's domain.  Log-scaled coordinates are
    floored as the fitter floors them, so a coefficient box may start at 0.
    """
    spec = _family(family)
    reference = dict.fromkeys(spec.names, 1.0)
    for name, log_scaled in zip(spec.names, spec.log_scaled):
        if name not in (overrides or {}):
            continue
        lo, hi = overrides[name]
        for end in (lo, hi):
            point = {**reference, name: max(end, _LOG_FLOOR) if log_scaled else end}
            try:
                spec.make_params(list(point.values()))
            except ValueError as exc:
                raise ValueError(
                    f"fit config 'bounds.{name}' = [{lo!r}, {hi!r}] leaves the domain "
                    f"of the {family} law: {exc}"
                ) from None


def _bounds(
    spec: _FamilySpec, obs: np.ndarray, overrides: dict | None
) -> tuple[np.ndarray, np.ndarray]:
    """Box per parameter, by name; entries of ``FitConfig.bounds`` take priority."""
    box = {"e_irreducible": (0.0, float(obs.min())), "k1": _K_BOUNDS, "k2": _K_BOUNDS}
    for name in spec.names:
        if name.startswith("lambda"):
            box[name] = _COEFF_BOUNDS
        elif name.startswith("alpha"):
            box[name] = _EXPONENT_BOUNDS
    box.update(overrides or {})
    lo, hi = np.array([box[name] for name in spec.names], dtype=float).T.copy()
    return lo, hi


def _build_starts(
    spec: _FamilySpec,
    inputs: tuple[np.ndarray, ...],
    obs: np.ndarray,
    config: FitConfig,
    lo: np.ndarray,
    hi: np.ndarray,
) -> list[np.ndarray]:
    """Cartesian multistart grid; non-gridded parameters come from ``spec.init``."""
    # every exponent is gridded, in the same way log_scaled is derived
    grid = {name: EXPONENT_GRID for name in spec.names if name.startswith("alpha")}
    if config.multistart_grid:
        for name, values in config.multistart_grid.items():
            if name in spec.names:
                grid[name] = tuple(float(v) for v in values)

    starts = []
    for combo_values in itertools.product(*grid.values()):
        combo = dict(zip(grid, combo_values))
        values = {**spec.init(inputs, obs, combo), **combo}
        starts.append(np.clip(np.array([values[name] for name in spec.names]), lo, hi))
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
    if not (np.isfinite(r).all() and np.isfinite(jac).all()):
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
    diag_max = a_mat.diagonal().max()
    mu = 1e-3 * float(diag_max) if diag_max > 0 else 1e-3
    nu = 2.0
    converged = False
    n_iters = 0
    small_decreases = 0
    # the augmented system [J; sqrt(mu) I] d = [-r; 0], filled in place; a
    # step with pinned coordinates uses the leading block of the buffers.
    # x, g, and so the pinned set and the J block, change only on an
    # accepted step, so a rejected one refills only the damping block.
    m, p = jw.shape
    lhs_buf = np.empty((m + p, p))
    rhs_buf = np.zeros(m + p)
    eye = np.eye(p)
    accepted = True

    def _pinned() -> np.ndarray:
        # coordinates sitting exactly on a bound whose descent direction
        # points outward; stepping through them and clipping distorts the
        # damped model and stalls the other coordinates
        return ((x == lo) & (g > 0)) | ((x == hi) & (g < 0))

    for _ in range(max_iters):
        n_iters += 1
        if accepted:
            free = ~_pinned()
            n_free = int(free.sum())
            if n_free == 0:
                converged = True  # stationary corner of the box
                break
            lhs = lhs_buf[: m + n_free, :n_free]
            lhs[:m] = jw[:, free]
            np.negative(rw, out=rhs_buf[:m])
            accepted = False
        # damped step from the augmented system; solving the normal
        # equations instead squares the conditioning and visibly degrades
        # the flat direction of log-log power fits
        np.multiply(math.sqrt(mu), eye[:n_free, :n_free], out=lhs[m:])
        step = np.zeros_like(x)
        step[free], *_ = np.linalg.lstsq(lhs, rhs_buf[: m + n_free], rcond=None)
        x_new = np.clip(x + step, lo, hi)
        actual = x_new - x
        step_small = np.abs(actual).max() <= tol * (tol + np.abs(x).max())

        r_new, jac_new = residual_jac(x_new)
        finite = np.isfinite(r_new).all() and np.isfinite(jac_new).all()
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
            accepted = True
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
        if not (np.isfinite(r_try).all() and np.isfinite(jac_try).all()):
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
    prepared: tuple[np.ndarray, ...],
    obs: np.ndarray,
    residual_space: str,
    free: np.ndarray,
    fixed_vec: np.ndarray,
    log_mask: np.ndarray,
):
    """Residual/Jacobian closure over the internal (log-scaled, free) vector."""
    ln_obs = np.log(obs)
    log_free = log_mask[free]

    def fn(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ext_free = np.where(log_free, np.exp(theta), theta)
        ext = fixed_vec.copy()
        ext[free] = ext_free
        pred, jac_ext = spec.value_and_jacobian(spec.make_params(ext), prepared)
        # d ext / d theta = ext for log-scaled coordinates, 1 otherwise.  The
        # column selection stays even when every column is free: its copy is
        # F-ordered, and the LM matmuls round differently on a C-ordered one
        scale = np.where(log_free, ext_free, 1.0)
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
    prepared: tuple[np.ndarray, ...],
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
    lo_guard = np.where(log_mask, np.maximum(lo, _LOG_FLOOR), lo)
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
            spec, prepared, obs, config.residual_space, free, vec, log_mask
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
) -> FitResult:
    """Fit one law family to a run series.

    Runs LM from every multistart point and keeps the best objective;
    deterministic for a given (data, config).

    Raises:
        InsufficientData: fewer records than free parameters + 1.
        MissingField: the family needs an absent optional field.
        NoConvergence: every start point failed outright.
        ValueError: a ``config.bounds`` box leaves the family's domain.
    """
    config = config or FitConfig()
    spec = _family(family)
    _check_bounds(family, config.bounds)
    inputs = spec.extract(fit_split)
    obs = _losses(fit_split)
    if len(obs) < len(spec.names) + 1:
        raise InsufficientData(
            f"family {family!r} needs at least {len(spec.names) + 1} records, "
            f"got {len(obs)}"
        )

    lo, hi = _bounds(spec, obs, config.bounds)
    starts = _build_starts(spec, inputs, obs, config, lo, hi)

    prepared = spec.prepare(*inputs)
    best: _LMOutcome | None = None
    for start in starts:  # ties resolve to the earliest grid point
        try:
            outcome = _run_start(spec, prepared, obs, start, lo, hi, config)
        except (_StartFailed, FloatingPointError):
            continue
        if best is None or outcome.objective < best.objective:
            best = outcome
    if best is None:
        raise NoConvergence(family, len(starts))

    params = spec.make_params(best.x)
    preds = spec.evaluate(params, inputs)
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
    spec = _family(family or family_of(params))
    if not isinstance(params, spec.law):
        raise FamilyMismatch(family_of(params), family)
    preds = np.atleast_1d(spec.evaluate(params, spec.extract(holdout)))
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
) -> ComparisonTable:
    """Fit each family on the leading split, score it on the rest.

    Rows are sorted by prediction MAPE ascending, ties broken by fewer
    parameters; rows whose fit failed are kept at the bottom with the error
    message instead of aborting the comparison.
    """
    # a box outside a family's domain is bad input, not a failed fit; an
    # unknown family becomes its row's error below
    if config is not None:
        for tag in families:
            if tag in FAMILIES:
                _check_bounds(tag, config.bounds)
    fit_split, holdout = split_fit_holdout(series, split_fraction)
    rows: list[ComparisonRow] = []
    for tag in families:
        try:
            result = fit_law(fit_split, tag, config)
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
