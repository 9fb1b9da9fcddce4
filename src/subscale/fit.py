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

The starts of a fit run in lockstep, in groups of consecutive starts sized
so that one stack of Jacobians stays small (a whole 25-start grid on 550
records is one group).  Each LM round makes one fused
``*_value_and_jacobian`` call for every running start of the group, and
does the pinned masks, clipping, stop tests, objectives and the normal
matrices as stacked numpy operations.  The round's least-squares systems
are solved in classes of one shape (damped or polishing, and the number of
free coordinates), each with one call of the LAPACK routine that
``np.linalg.lstsq`` calls once per system; only each start's damping update
stays per start.  Every start keeps the arithmetic of a start run alone,
so its iterate, objective, trace, iteration count and outcome are bit for
bit those of the serial loop this engine replaced
(``tests/test_fit_oracles.py`` keeps that loop as the oracle).  Keeping
them so takes care; see the README's "Fitting engine" for the rules.  When
a group raises, its starts run again one at a time, so the error belongs to
the start that raised it and ``fit_law`` raises for the earliest such
start, as a loop over the starts would.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

from . import jsondoc
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
    finite_loss,
    param_keys,
    power_gradient,
    power_value_and_jacobian,
    prepare_nd,
    prepare_power,
    suboptimal_gradient,
    suboptimal_value_and_jacobian,
)
from .runs import RunSeries, column, split_fit_holdout  # noqa: F401  (see _FamilySpec)

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
        # a name of any family is accepted: compare shares one config
        known = {name for spec in FAMILIES.values() for name in spec.names}
        for key in ("multistart_grid", "bounds"):
            if getattr(self, key) is None:
                continue
            by_name = {}
            for name, values in jsondoc.obj(getattr(self, key), _where(key)).items():
                where = _where(f"{key}.{name}")
                values = jsondoc.array(values, where)
                if key == "bounds" and len(values) != 2:
                    raise ValueError(f"{where} must be a [lo, hi] pair, got {values!r}")
                by_name[name] = tuple(jsondoc.number(v, where) for v in values)
                if name not in known:
                    raise ValueError(f"{where} names no parameter of any law family")
            jsondoc.store(self, **{key: by_name})
        jsondoc.store(
            self,
            robust_delta=None
            if self.robust_delta is None
            else jsondoc.number(self.robust_delta, _where("robust_delta")),
            max_iters=jsondoc.integer(self.max_iters, _where("max_iters")),
            tolerance=jsondoc.number(self.tolerance, _where("tolerance")),
        )
        if self.robust_delta is not None and not self.robust_delta > 0:
            raise ValueError("robust_delta must be > 0 when set")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name, values in (self.multistart_grid or {}).items():
            if not values:
                raise ValueError(f"multistart grid for {name!r} is empty")
        for name, (lo, hi) in (self.bounds or {}).items():
            if not lo < hi:
                raise ValueError(f"bounds for {name!r} must satisfy lo < hi")
            # each end must give valid params of every family with the name
            # when every other parameter is 1, a point inside every domain;
            # log-scaled coordinates are floored as the fitter floors them, so
            # a coefficient box may start at 0
            for spec in FAMILIES.values():
                if name not in spec.names:
                    continue
                log_scaled = spec.log_scaled[spec.names.index(name)]
                for end in (max(lo, _LOG_FLOOR), max(hi, _LOG_FLOOR)) if log_scaled else (lo, hi):
                    try:
                        spec.make_params([end if k == name else 1.0 for k in spec.names])
                    except ValueError as exc:
                        raise ValueError(
                            f"{_where('bounds.' + name)} = [{lo!r}, {hi!r}] leaves the "
                            f"domain of {name}: {exc}"
                        ) from None

    @staticmethod
    def from_dict(data: dict) -> "FitConfig":
        """Config from its JSON object; absent keys keep the field defaults."""
        names = {f.name for f in fields(FitConfig)}
        # "seed" was a field of older versions: accepted, without effect
        unknown = sorted(set(jsondoc.obj(data, "fit config")) - names - {"seed"})
        if unknown:
            raise ValueError(f"unknown fit config key(s): {', '.join(unknown)}")
        return FitConfig(**{k: v for k, v in data.items() if k in names})


def _where(key: str) -> str:
    return f"fit config {key!r}"


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
    return column(series, "model_size"), column(series, "tokens")


def _losses(series: RunSeries) -> np.ndarray:
    return column(series, "loss")


def _extract_compute(series: RunSeries) -> tuple[np.ndarray, ...]:
    n, d = _series_nd(series)
    return (6.0 * n * d,)


@dataclass(frozen=True)
class _FamilySpec:
    """What fitting needs beyond the params class; the rest derives from it.

    The parameter vector is the class's dataclass fields in order, named by
    its JSON keys.  ``evaluate`` takes one law and the extracted inputs;
    ``prepare`` turns the inputs, once per fit, into what
    ``value_and_jacobian`` reads.  That one is called once per LM round for
    all running starts: it takes a (starts, params) matrix of parameter
    vectors and returns the (starts, records) values and the (starts,
    params, records) Jacobians.  ``init`` gives, by name, the start values
    that come from the data, given the inputs, the losses and one grid
    point's values.  ``evaluate`` looks its law function up at call time,
    so that a wrapper installed on this module's attribute sees every call;
    the ``*_gradient`` functions and ``split_fit_holdout``, which the CLI
    calls, stay importable here for the same wrappers.
    """

    law: type
    extract: Callable[[RunSeries], tuple[np.ndarray, ...]]
    evaluate: Callable[[LawParams, tuple], np.ndarray]
    prepare: Callable[..., tuple[np.ndarray, ...]]
    value_and_jacobian: Callable[[np.ndarray, tuple], tuple[np.ndarray, np.ndarray]]
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
        power_value_and_jacobian,
        _power_init,
    )


FAMILIES: dict[str, _FamilySpec] = {
    "power": _power_family(_extract_compute),
    "batch_power": _power_family(lambda s: (column(s, "batch_size"),)),
    "lr_power": _power_family(lambda s: (column(s, "learning_rate"),)),
    "chinchilla": _FamilySpec(
        ChinchillaParams,
        _series_nd,
        lambda p, x: eval_chinchilla(p, *x),
        prepare_nd,
        chinchilla_value_and_jacobian,
        partial(_nd_init, repetition=False),
    ),
    "suboptimal": _FamilySpec(
        SubOptimalParams,
        _series_nd,
        lambda p, x: eval_suboptimal(p, *x),
        prepare_nd,
        suboptimal_value_and_jacobian,
        partial(_nd_init, repetition=True),
    ),
}


def _family(tag: str) -> _FamilySpec:
    if tag not in FAMILIES:
        raise UnknownFamily(tag)
    return FAMILIES[tag]


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
                grid[name] = values

    starts = []
    for combo_values in itertools.product(*grid.values()):
        combo = dict(zip(grid, combo_values))
        values = {**spec.init(inputs, obs, combo), **combo}
        starts.append(np.clip(np.array([values[name] for name in spec.names]), lo, hi))
    return starts


# ---------------------------------------------------------------------------
# Levenberg-Marquardt core: every start of a group in lockstep
# ---------------------------------------------------------------------------

# Starts per group: as many as keep one stack of Jacobians (starts x
# parameters x records) within this many floats, and at least one.  A
# 25-start suboptimal grid on 550 records is one group; 25k records run one
# start at a time.
_GROUP_FLOATS = 96_250


class _StartFailed(Exception):
    pass


@dataclass
class _LMOutcome:
    x: np.ndarray
    objective: float
    converged: bool
    n_iters: int
    trace: list[float] = field(default_factory=list)


def _finite_rows(r: np.ndarray, jac: np.ndarray) -> np.ndarray:
    return np.isfinite(r).all(axis=1) & np.isfinite(jac).all(axis=(1, 2))


def _huber_objectives(r: np.ndarray, delta: float | None) -> np.ndarray:
    """The objective of each row of residuals."""
    if delta is None:
        return 0.5 * (r[:, None, :] @ r[:, :, None])[:, 0, 0]
    a = np.abs(r)
    m = np.minimum(a, delta)  # 0.5 r^2 within delta, delta (|r| - delta/2) beyond
    return np.sum(m * (a - 0.5 * m), axis=1)


def _weighted(r: np.ndarray, jac: np.ndarray, delta: float | None):
    # IRLS weights: the normal equations then carry the exact gradient of
    # the Huber objective
    if delta is None:
        return r, jac
    a = np.abs(r)
    w = np.sqrt(delta / np.maximum(a, delta))  # 1 where |r| <= delta
    return w * r, w[:, None, :] * jac


class _Stack:
    """The running starts of one LM solve, one row each.

    ``jac`` holds each row's Jacobian transposed, (params, records), so that
    ``jac[i].T`` is F-ordered like the serial loop's.  ``polish`` is None
    while a row is in the damped loop, then the number of undamped steps it
    has taken.  The damping and the counters stay Python floats and ints.
    """

    def __init__(self, rows, x, r, jac, delta):
        self.delta = delta
        self.rows, self.x, self.r, self.jac = rows, x, r, jac
        self.objective = _huber_objectives(r, delta)
        self.trace = [[v] for v in self.objective.tolist()]
        self._derive()
        diag = self.a_mat.diagonal(axis1=1, axis2=2).max(axis=1).tolist()
        self.mu = [1e-3 * d if d > 0 else 1e-3 for d in diag]
        n = len(rows)
        self.nu = [2.0] * n
        self.n_iters = [0] * n
        self.small = [0] * n
        self.converged = [False] * n
        self.polish: list[int | None] = [None] * n

    def _derive(self) -> None:
        self.rw, self.jw = _weighted(self.r, self.jac, self.delta)
        # one bound array on both sides: numpy then takes BLAS's syrk, as
        # the serial jw.T @ jw did; two copies would go through gemm
        self.a_mat = self.jw @ self.jw.transpose(0, 2, 1)
        self.g = (self.jw @ self.rw[:, :, None])[:, :, 0]

    def accept(self, mask, x, r, jac, objective) -> None:
        """Move the rows in ``mask`` to the new point."""
        if not mask.any():
            return
        for dst, src in ((self.x, x), (self.r, r), (self.jac, jac), (self.objective, objective)):
            np.copyto(dst, src, where=mask.reshape(mask.shape + (1,) * (src.ndim - 1)))
        for i, value in zip(np.flatnonzero(mask).tolist(), objective[mask].tolist()):
            self.trace[i].append(value)
        self._derive()

    def keep(self, mask: np.ndarray) -> None:
        for name in ("rows", "x", "r", "jac", "objective", "a_mat", "g"):
            setattr(self, name, getattr(self, name)[mask])
        self.rw, self.jw = _weighted(self.r, self.jac, self.delta)
        for name in ("trace", "mu", "nu", "n_iters", "small", "converged", "polish"):
            setattr(self, name, list(itertools.compress(getattr(self, name), mask)))


def _lstsq(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(lhs[i], rhs[i], rcond=None)[0]`` for every i, in one call.

    ``lhs`` is (systems, rows, cols) and ``rhs`` (systems, rows).  This is
    the LAPACK ``gelsd`` gufunc that ``np.linalg.lstsq`` calls once per
    system, with the same signature and cutoff, so every solution keeps its
    bits; what it skips is the wrapper's Python, once per system.
    """
    rows, cols = lhs.shape[1:]
    rcond = np.finfo(float).eps * max(rows, cols)
    # the gufunc flags a failed SVD as an invalid operation, and only that
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        try:
            x = _umath_linalg.lstsq(lhs, rhs[:, :, None], rcond, signature="ddd->ddid")[0]
        except FloatingPointError:
            # what np.linalg.lstsq raises; fit_law skips a FloatingPointError
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares") from None
    return x[:, :, 0]


def _class_steps(st: _Stack, free: np.ndarray, idx: np.ndarray, k: int, damped: bool,
                 step: np.ndarray) -> None:
    """Fill ``step`` for the rows ``idx``, all damped or all polishing, k free each."""
    n, m = st.jw.shape[1:]
    rows = idx if len(idx) < len(st.rows) else slice(None)  # a view when every row
    if k == n:
        at = rows
        jw = st.jw[rows]
    else:
        # each row's free coordinates, in ascending order
        pos, col = np.nonzero(free[idx])
        at = (idx[pos], col)
        jw = st.jw[at].reshape(len(idx), k, m)
    if damped:
        lhs = np.zeros((len(idx), m + k, k))
        lhs[:, :m] = jw.transpose(0, 2, 1)
        diag = np.arange(k)
        lhs[:, m + diag, diag] = np.sqrt([st.mu[i] for i in idx.tolist()])[:, None]
        rhs = np.zeros((len(idx), m + k))
        np.negative(st.rw[rows], out=rhs[:, :m])
    else:
        lhs, rhs = jw.transpose(0, 2, 1), np.negative(st.rw[rows])
    solution = _lstsq(lhs, rhs)
    step[at] = solution if k == n else solution.reshape(-1)


def _lockstep_lm(
    evaluate: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    max_iters: int,
    tol: float,
    huber_delta: float | None = None,
) -> list:
    """Box-projected LM with Nielsen damping, for a stack of starts at once.

    ``x0`` has one start per row; ``evaluate(theta, rows)`` gives the
    residuals and transposed Jacobians of the given rows.  Returns an
    ``_LMOutcome`` per row, or ``_StartFailed`` for a row whose start point
    has non-finite residuals.

    Each row runs the serial algorithm, with its own damping: steps are
    accepted only when the objective strictly decreases, so every trace is
    non-increasing.  After the damped loop, up to three undamped
    Gauss-Newton steps polish the iterate: damping escalation can leave it a
    whisker short along the flat valley of near-linear problems, where the
    remaining descent is real but each damped step is below objective
    resolution.  Rows move through both phases together, one evaluation of
    all running rows per round.
    """
    x = np.clip(x0, lo, hi)
    outcomes: list = [None] * len(x)
    r, jac = evaluate(x, np.arange(len(x)))
    finite = _finite_rows(r, jac)
    for i in np.flatnonzero(~finite).tolist():
        outcomes[i] = _StartFailed("non-finite residuals at the start point")
    rows = np.flatnonzero(finite)
    st = _Stack(rows, x[rows], r[rows], jac[rows], huber_delta)
    del r, jac  # the stack holds copies of its rows

    def finish(done: list[bool]) -> None:
        for i in itertools.compress(range(len(done)), done):
            outcomes[st.rows[i]] = _LMOutcome(
                x=st.x[i].copy(),
                objective=st.trace[i][-1],
                converged=st.converged[i],
                n_iters=st.n_iters[i],
                trace=st.trace[i],
            )
        st.keep(~np.array(done))

    while len(st.rows):
        # coordinates sitting exactly on a bound whose descent direction
        # points outward; stepping through them and clipping distorts the
        # damped model and stalls the other coordinates.  x and g change
        # only on an accepted step, so neither does this set otherwise.
        free = ~(((st.x == lo) & (st.g > 0)) | ((st.x == hi) & (st.g < 0)))
        n_free = free.sum(axis=1).tolist()
        for i, polish in enumerate(st.polish):
            if polish is None:
                st.n_iters[i] += 1
                if n_free[i] == 0:
                    st.converged[i] = True  # stationary corner of the box
        done = [k == 0 for k in n_free]
        if any(done):
            finish(done)
            free = free[~np.array(done)]
            n_free = [k for k in n_free if k]
            if not len(st.rows):
                break

        # damped steps solve the augmented system [J; sqrt(mu) I] d = [-r; 0]:
        # the normal equations would square the conditioning and visibly
        # degrade the flat direction of log-log power fits.  Polishing rows
        # solve J d = -r.  Rows of one shape share one LAPACK call.
        damped = [p is None for p in st.polish]
        classes: dict[tuple[bool, int], list[int]] = {}
        for i, key in enumerate(zip(damped, n_free)):
            classes.setdefault(key, []).append(i)
        step = np.zeros_like(st.x)
        for (damp, k), idx in classes.items():
            _class_steps(st, free, np.array(idx), k, damp, step)

        x_new = np.clip(st.x + step, lo, hi)
        r_new, jac_new = evaluate(x_new, st.rows)
        finite = _finite_rows(r_new, jac_new)
        obj_new = np.full(len(st.rows), math.inf)
        if finite.all():
            obj_new = _huber_objectives(r_new, huber_delta)
        elif finite.any():
            obj_new[finite] = _huber_objectives(r_new[finite], huber_delta)
        better = obj_new < st.objective

        actual = x_new - st.x
        step_small = np.abs(actual).max(axis=1) <= tol * (tol + np.abs(st.x).max(axis=1))
        step_small = step_small.tolist()
        # the decrease the damped model predicted, for the rows that gained
        gained = better & np.array(damped)
        predicted = {}
        if gained.any():
            act = actual[gained]
            g_dot = (act[:, None, :] @ st.g[gained][:, :, None])[:, 0, 0]
            quad = (act[:, None, :] @ (st.a_mat[gained] @ act[:, :, None]))[:, 0, 0]
            idx = np.flatnonzero(gained).tolist()
            predicted = dict(zip(idx, (-g_dot - 0.5 * quad).tolist()))
        objective, new = st.objective.tolist(), obj_new.tolist()

        done = [False] * len(st.rows)
        for i, (polish, ok) in enumerate(zip(st.polish, better.tolist())):
            if polish is not None:
                # an undamped step is kept only on strict decrease, at most three
                st.polish[i] = polish + 1
                done[i] = not ok or polish == 2
                continue
            if ok:
                pred = predicted[i]
                gain = (objective[i] - new[i]) / pred if pred > 0 else 1.0
                if (objective[i] - new[i]) <= tol * max(objective[i], 1e-300):
                    st.small[i] += 1
                else:
                    st.small[i] = 0
                st.mu[i] *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                st.nu[i] = 2.0
                # two consecutive negligible decreases: the first one can
                # stop an ill-conditioned problem an iteration short of the
                # optimum
                stop = step_small[i] or st.small[i] >= 2
            elif step_small[i]:
                stop = True
            else:
                st.mu[i] *= st.nu[i]
                st.nu[i] *= 2.0
                stop = False
                if st.mu[i] > 1e32:
                    st.polish[i] = 0
            if stop:
                st.converged[i] = True
                st.polish[i] = 0
            elif st.n_iters[i] == max_iters:
                st.polish[i] = 0
        st.accept(better, x_new, r_new, jac_new, obj_new)
        del r_new, jac_new  # the stack holds copies of the accepted rows
        if any(done):
            finish(done)
    return outcomes


def _to_internal(vec: np.ndarray, log_mask: np.ndarray) -> np.ndarray:
    out = np.array(vec, dtype=float)
    out[..., log_mask] = np.log(out[..., log_mask])
    return out


def _stage_residuals(
    spec: _FamilySpec,
    prepared: tuple[np.ndarray, ...],
    obs: np.ndarray,
    residual_space: str,
    free: np.ndarray,
    fixed: np.ndarray,
    log_mask: np.ndarray,
):
    """Residuals and transposed Jacobians over internal (log-scaled, free) rows.

    ``fixed`` holds the full parameter vector of each row the stage runs;
    ``evaluate(theta, rows)`` fills the free coordinates of ``fixed[rows]``
    from ``theta`` and makes one evaluator call for all of them.
    """
    ln_obs = np.log(obs)
    log_free = log_mask[free]
    all_free = bool(free.all())

    def evaluate(theta: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ext_free = np.where(log_free, np.exp(theta), theta)
        if all_free:
            ext = ext_free
        else:
            ext = fixed[rows]
            ext[:, free] = ext_free
        pred, jac_ext = spec.value_and_jacobian(ext, prepared)
        # d ext / d theta = ext for log-scaled coordinates, 1 otherwise; the
        # evaluator's Jacobian is fresh, so it is scaled in place
        jac = jac_ext if all_free else jac_ext[:, free]
        jac *= np.where(log_free, ext_free, 1.0)[:, :, None]
        if residual_space == "log":
            jac /= pred[:, None, :]
            return np.log(pred) - ln_obs, jac
        return pred - obs, jac

    return evaluate


def _run_group(
    spec: _FamilySpec,
    prepared: tuple[np.ndarray, ...],
    obs: np.ndarray,
    group: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    config: FitConfig,
) -> list:
    """Every start (row) of ``group`` through every stage, in lockstep.

    Staged families fit twice, k frozen and then free; a stage starts once
    every row has finished the one before.  Returns an ``_LMOutcome`` per
    row, or ``_StartFailed`` for a row whose stage start was non-finite.
    """
    log_mask = np.array(spec.log_scaled)
    # floor only the log-scaled coordinates; zero bounds on linear ones
    # (e_irreducible, k1, k2) must survive exactly
    lo_guard = np.where(log_mask, np.maximum(lo, _LOG_FLOOR), lo)
    lo_int = _to_internal(lo_guard, log_mask)
    hi_int = _to_internal(hi, log_mask)

    stages = [np.ones(len(spec.names), dtype=bool)]
    if spec.staged_k:
        stages.insert(0, np.array([name not in ("k1", "k2") for name in spec.names]))

    vec = np.array(group, dtype=float)
    results: list = [None] * len(vec)
    total_iters = [0] * len(vec)
    live = list(range(len(vec)))
    for free in stages:
        evaluate = _stage_residuals(
            spec, prepared, obs, config.residual_space, free, vec[live], log_mask
        )
        outcomes = _lockstep_lm(
            evaluate,
            _to_internal(vec[live], log_mask)[:, free],
            lo_int[free],
            hi_int[free],
            config.max_iters,
            config.tolerance,
            config.robust_delta,
        )
        for i, outcome in zip(live, outcomes):
            results[i] = outcome
        live = [i for i, o in zip(live, outcomes) if isinstance(o, _LMOutcome)]
        if not live:
            break
        theta = np.array([results[i].x for i in live])
        vec[np.ix_(live, free)] = np.where(log_mask[free], np.exp(theta), theta)
        for i in live:
            total_iters[i] += results[i].n_iters
    for i in live:
        results[i] = _LMOutcome(
            x=vec[i].copy(),
            objective=results[i].objective,
            converged=results[i].converged,
            n_iters=total_iters[i],
            trace=results[i].trace,
        )
    return results


def _run_starts(
    spec: _FamilySpec,
    prepared: tuple[np.ndarray, ...],
    obs: np.ndarray,
    starts: list[np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    config: FitConfig,
):
    """Yield, in start order, each start's ``_LMOutcome`` or what it raised.

    Starts run in groups of consecutive starts.  Each start's arithmetic is
    that of a start run alone, so when a group raises, running its starts
    one at a time finds which start raised what.
    """
    per_group = max(1, _GROUP_FLOATS // (len(spec.names) * len(obs)))
    for first in range(0, len(starts), per_group):
        group = np.array(starts[first : first + per_group])
        try:
            outcomes = _run_group(spec, prepared, obs, group, lo, hi, config)
        except Exception:
            # running each start alone finds which start raised what
            outcomes = [_run_alone(spec, prepared, obs, start, lo, hi, config)
                        for start in group]
        yield from outcomes


def _run_alone(spec, prepared, obs, start, lo, hi, config):
    """One start as a group of one: its ``_LMOutcome``, or what it raised."""
    try:
        return _run_group(spec, prepared, obs, start[None], lo, hi, config)[0]
    except Exception as exc:
        return exc


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

    lo, hi = _bounds(spec, obs, config.bounds)
    starts = _build_starts(spec, inputs, obs, config, lo, hi)

    prepared = spec.prepare(*inputs)
    best: _LMOutcome | None = None
    # in start order, as a serial loop over the starts: ties resolve to the
    # earliest grid point, and the earliest start that raised raises
    for outcome in _run_starts(spec, prepared, obs, starts, lo, hi, config):
        if isinstance(outcome, (_StartFailed, FloatingPointError)):
            continue
        if isinstance(outcome, Exception):
            raise outcome
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
    family = family or family_of(params)
    spec = _family(family)
    if not isinstance(params, spec.law):
        raise FamilyMismatch(family_of(params), family)
    with np.errstate(over="ignore"):
        preds = spec.evaluate(params, spec.extract(holdout))
    return finite_loss(preds, family), mape(preds, _losses(holdout))


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


# What a family's fit may legitimately fail with; anything else is a bug
# and propagates instead of becoming a table row.
_FIT_FAILURES = (SubscaleError, ValueError, FloatingPointError, np.linalg.LinAlgError)


def compare_laws(
    fit_split: RunSeries,
    holdout: RunSeries,
    families: list[str],
    config: FitConfig | None = None,
) -> tuple[ComparisonRow, ...]:
    """Fit each family on ``fit_split``, score it on ``holdout``, and rank the rows.

    Rows are sorted by prediction MAPE ascending, ties broken by fewer
    parameters; rows whose fit failed are kept at the bottom with the error
    message instead of aborting the comparison.
    """
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

    return tuple(row for _, row in sorted(enumerate(rows), key=sort_key))
