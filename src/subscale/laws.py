"""Closed-form scaling-law families and their analytic gradients.

Families:

* power           L(x)    = lam * x**(-alpha), used for loss vs compute,
                            batch size, or learning rate.
* chinchilla      L(N, D) = E + lam_n/N**alpha_n + lam_d/D**alpha_d.
* suboptimal      chinchilla with each coefficient multiplied by a logistic
                            repetition factor of the over-training ratio
                            OTR = D/N; captures the extra loss incurred when
                            tokens far exceed the optimal budget for N.

All evaluators accept scalars or numpy arrays and are smooth in their
parameters.  The fitter calls a fused ``*_value_and_jacobian`` once per
step for a whole stack of parameter vectors, over inputs that
``prepare_power`` or ``prepare_nd`` log-transform and check once per fit;
its Jacobians hold the exact partials in the params class's field order.
The ``*_gradient`` functions return those partials for one law and raw
inputs.

Each params class checks its fields through ``jsondoc``'s checks, which name
the bad JSON key, however the law was built; ``params_from_dict`` only picks
the keys of a law file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from . import jsondoc
from .errors import NonFiniteLoss, UnknownFamily

ArrayLike = Union[float, np.ndarray]


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(value: np.ndarray, scalar: bool):
    return float(value) if scalar else value


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic 1 / (1 + exp(-z)); callers pass z = k * OTR >= 0 (or NaN)."""
    return 1.0 / (1.0 + np.exp(-z))


# ---------------------------------------------------------------------------
# Parameter types
# ---------------------------------------------------------------------------


def _check_numbers(params) -> None:
    """Store each field of ``params`` as a float; a field that is no finite number
    raises ValueError naming its JSON key."""
    where = f"{family_of(params)} law params"
    jsondoc.store(params, **{
        f.name: jsondoc.number(getattr(params, f.name), f"{where}: {key!r}")
        for key, f in zip(param_keys(type(params)), fields(params))
    })


@dataclass(frozen=True)
class PowerLawParams:
    """lam * x**(-alpha)."""

    lam: float
    alpha: float

    def __post_init__(self):
        _check_numbers(self)
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


@dataclass(frozen=True)
class ChinchillaParams:
    """E + lam_n/N**alpha_n + lam_d/D**alpha_d."""

    e_irreducible: float
    lambda_n: float
    alpha_n: float
    lambda_d: float
    alpha_d: float

    def __post_init__(self):
        _check_numbers(self)
        if not self.e_irreducible >= 0:
            raise ValueError("e_irreducible must be >= 0")
        for name in ("lambda_n", "alpha_n", "lambda_d", "alpha_d"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class SubOptimalParams:
    """Chinchilla form with logistic repetition factors of OTR.

    k1 steers the factor on the data term, k2 the factor on the model term.
    """

    e_irreducible: float
    lambda_n: float
    alpha_n: float
    lambda_d: float
    alpha_d: float
    k1: float
    k2: float

    def __post_init__(self):
        _check_numbers(self)
        if not self.e_irreducible >= 0:
            raise ValueError("e_irreducible must be >= 0")
        for name in ("lambda_n", "alpha_n", "lambda_d", "alpha_d"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not (self.k1 >= 0 and self.k2 >= 0):
            raise ValueError("k1 and k2 must be >= 0")


LawParams = Union[PowerLawParams, ChinchillaParams, SubOptimalParams]

# family tag -> params class; JSON keys are the field names, except that
# the power law's ``lam`` is written "lambda"
_FAMILIES: dict[str, type] = {
    "power": PowerLawParams,
    "chinchilla": ChinchillaParams,
    "suboptimal": SubOptimalParams,
}
_JSON_KEYS = {"lam": "lambda"}


def _tag_of(cls: type) -> str:
    for tag, klass in _FAMILIES.items():
        if klass is cls:
            return tag
    raise UnknownFamily(cls.__name__)


def family_of(params: LawParams) -> str:
    return _tag_of(type(params))


def param_keys(cls: type) -> tuple[str, ...]:
    """JSON keys of a params class in field order (the fitter's vector order)."""
    return tuple(_JSON_KEYS.get(f.name, f.name) for f in fields(cls))


def params_to_dict(params: LawParams) -> dict:
    """JSON-ready mapping with a ``family`` discriminator."""
    out = {"family": family_of(params)}
    for key, f in zip(param_keys(type(params)), fields(params)):
        out[key] = getattr(params, f.name)
    return out


def params_from_dict(data: dict) -> LawParams:
    """Inverse of :func:`params_to_dict`; a bad shape raises ValueError naming the key."""
    tag = jsondoc.get(data, "family", "law params")
    if not isinstance(tag, str) or tag not in _FAMILIES:
        raise UnknownFamily(str(tag))
    cls = _FAMILIES[tag]
    return cls(*[jsondoc.get(data, key, f"{tag} law params") for key in param_keys(cls)])


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------


def eval_power(params: PowerLawParams, x: ArrayLike) -> ArrayLike:
    """lam * x**(-alpha) for x > 0, computed in log space."""
    xa, scalar = _as_array(x)
    if np.any(xa <= 0):
        raise ValueError("x must be > 0")
    return _ret(_power_value(math.log(params.lam), params.alpha, np.log(xa)), scalar)


# The value formulas take scalars for one law, or (starts, 1) columns for a
# stack of laws; the coefficients come in as their logs.


def _power_value(ln_lam, alpha, ln_x) -> np.ndarray:
    return np.exp(ln_lam - alpha * ln_x)


def _nd_value(e, ln_lam_n, alpha_n, ln_lam_d, alpha_d, ln_n, ln_d, r_n=1.0, r_d=1.0):
    """E + r_n lam_n/N**alpha_n + r_d lam_d/D**alpha_d; the factors are 1 for chinchilla."""
    term_n = r_n * np.exp(ln_lam_n - alpha_n * ln_n)
    term_d = r_d * np.exp(ln_lam_d - alpha_d * ln_d)
    return e + term_n + term_d


def _nd_args(params, ln_n, ln_d) -> tuple:
    return (
        params.e_irreducible,
        math.log(params.lambda_n),
        params.alpha_n,
        math.log(params.lambda_d),
        params.alpha_d,
        ln_n,
        ln_d,
    )


def eval_chinchilla(params: ChinchillaParams, n: ArrayLike, d: ArrayLike) -> ArrayLike:
    """E + lam_n/N**alpha_n + lam_d/D**alpha_d for N, D > 0."""
    na, s1 = _as_array(n)
    da, s2 = _as_array(d)
    if np.any(na <= 0) or np.any(da <= 0):
        raise ValueError("n and d must be > 0")
    return _ret(_nd_value(*_nd_args(params, np.log(na), np.log(da))), s1 and s2)


def eval_suboptimal(params: SubOptimalParams, n: ArrayLike, d: ArrayLike) -> ArrayLike:
    """Chinchilla terms scaled by repetition factors of OTR = d/n."""
    na, s1 = _as_array(n)
    da, s2 = _as_array(d)
    if np.any(na <= 0) or np.any(da <= 0):
        raise ValueError("n and d must be > 0")
    r = da / na
    # a zero steepness gives the factor 1.5 at every OTR: 0 * inf would be NaN
    r_d = 1.0 + _sigmoid(params.k1 * r if params.k1 else 0.0)
    r_n = 1.0 + _sigmoid(params.k2 * r if params.k2 else 0.0)
    value = _nd_value(*_nd_args(params, np.log(na), np.log(da)), r_n, r_d)
    return _ret(value, s1 and s2)


def finite_loss(value: ArrayLike, family: str) -> ArrayLike:
    """value, computed under ``np.errstate(over="ignore")``; NonFiniteLoss if it overflowed."""
    if not np.isfinite(value).all():
        raise NonFiniteLoss(family)
    return value


def loss_at(params: LawParams, n: ArrayLike, d: ArrayLike) -> ArrayLike:
    """Evaluate a law at (model size, tokens); the power family at compute C = 6*n*d."""
    with np.errstate(over="ignore"):
        if isinstance(params, PowerLawParams):
            na, s1 = _as_array(n)
            da, s2 = _as_array(d)
            c = 6.0 * na * da
            value = eval_power(params, float(c) if (s1 and s2) else c)
        elif isinstance(params, ChinchillaParams):
            value = eval_chinchilla(params, n, d)
        else:
            value = eval_suboptimal(params, n, d)
    return finite_loss(value, family_of(params))


# ---------------------------------------------------------------------------
# Fused value and Jacobian over prepared inputs (the fitter's inner call)
# ---------------------------------------------------------------------------
#
# ``theta`` stacks one parameter vector per row, in field order, and the
# Jacobians come back as (starts, params, rows): each law's Jacobian is the
# F-ordered transpose of its block.  Row i of every result is bit for bit
# what the same formulas give for row i alone.  Each Jacobian column keeps
# the operand order of the evaluator it differentiates, and the value keeps
# exp(log lam - alpha ln x) while the Jacobian uses exp(-alpha ln x): the two
# round differently, so only the inputs and the sigmoids are shared.  The
# logs of the coefficients are taken per law with ``math.log``, as the
# evaluators take them: numpy's vectorized log rounds some inputs otherwise.


def prepare_power(x: ArrayLike) -> tuple[np.ndarray]:
    """(ln x,) for x > 0: what power_value_and_jacobian reads."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xa <= 0):
        raise ValueError("x must be > 0")
    return (np.log(xa),)


def prepare_nd(n: ArrayLike, d: ArrayLike) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ln N, ln D, OTR = D/N) for N, D > 0, for the (N, D) families."""
    na = np.atleast_1d(np.asarray(n, dtype=float))
    da = np.atleast_1d(np.asarray(d, dtype=float))
    if np.any(na <= 0) or np.any(da <= 0):
        raise ValueError("n and d must be > 0")
    return np.log(na), np.log(da), da / na


def _columns(theta: np.ndarray) -> np.ndarray:
    """One (starts, 1) column per parameter."""
    return np.asarray(theta, dtype=float).T[:, :, None]


def _logs(column: np.ndarray) -> np.ndarray:
    return np.array([math.log(v) for v in column[:, 0].tolist()])[:, None]


def power_value_and_jacobian(
    theta: np.ndarray, prepared: tuple[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """eval_power for each row (lam, alpha) of theta, and its partials wrt (lam, alpha)."""
    (ln_x,) = prepared
    lam, alpha = _columns(theta)
    base = np.exp(-alpha * ln_x)
    jac = np.empty((len(lam), 2, len(ln_x)))
    jac[:, 0] = base
    jac[:, 1] = -lam * ln_x * base
    return _power_value(_logs(lam), alpha, ln_x), jac


def chinchilla_value_and_jacobian(
    theta: np.ndarray, prepared: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """eval_chinchilla for each row of theta, and its partials wrt
    (e, lambda_n, alpha_n, lambda_d, alpha_d)."""
    ln_n, ln_d, otr = prepared
    e, lam_n, alpha_n, lam_d, alpha_d = _columns(theta)
    t_n = np.exp(-alpha_n * ln_n)
    t_d = np.exp(-alpha_d * ln_d)
    jac = np.empty((len(e), 5, len(otr)))
    jac[:, 0] = 1.0
    jac[:, 1] = t_n
    jac[:, 2] = -lam_n * ln_n * t_n
    jac[:, 3] = t_d
    jac[:, 4] = -lam_d * ln_d * t_d
    value = _nd_value(e, _logs(lam_n), alpha_n, _logs(lam_d), alpha_d, ln_n, ln_d)
    return value, jac


def suboptimal_value_and_jacobian(
    theta: np.ndarray, prepared: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """eval_suboptimal for each row of theta, and its partials wrt
    (e, lambda_n, alpha_n, lambda_d, alpha_d, k1, k2).

    The k-columns chain through the logistic: d/dk sigmoid(k*r) =
    sigmoid*(1-sigmoid)*r.
    """
    ln_n, ln_d, otr = prepared
    e, lam_n, alpha_n, lam_d, alpha_d, k1, k2 = _columns(theta)
    s_d = _sigmoid(k1 * otr)
    s_n = _sigmoid(k2 * otr)
    r_d = 1.0 + s_d
    r_n = 1.0 + s_n
    t_n = np.exp(-alpha_n * ln_n)
    t_d = np.exp(-alpha_d * ln_d)
    jac = np.empty((len(e), 7, len(otr)))
    jac[:, 0] = 1.0
    jac[:, 1] = r_n * t_n
    jac[:, 2] = -lam_n * r_n * ln_n * t_n
    jac[:, 3] = r_d * t_d
    jac[:, 4] = -lam_d * r_d * ln_d * t_d
    jac[:, 5] = lam_d * t_d * s_d * (1.0 - s_d) * otr
    jac[:, 6] = lam_n * t_n * s_n * (1.0 - s_n) * otr
    value = _nd_value(e, _logs(lam_n), alpha_n, _logs(lam_d), alpha_d, ln_n, ln_d, r_n, r_d)
    return value, jac


# ---------------------------------------------------------------------------
# Analytic gradients (column order matches the fitter's packing)
# ---------------------------------------------------------------------------


def _one_law(params: LawParams) -> np.ndarray:
    return np.array([[getattr(params, f.name) for f in fields(params)]], dtype=float)


def power_gradient(params: PowerLawParams, x: ArrayLike) -> np.ndarray:
    """Partials of eval_power wrt (lam, alpha); shape (len(x), 2)."""
    return power_value_and_jacobian(_one_law(params), prepare_power(x))[1][0].T


def chinchilla_gradient(params: ChinchillaParams, n: ArrayLike, d: ArrayLike) -> np.ndarray:
    """Partials wrt (e_irreducible, lambda_n, alpha_n, lambda_d, alpha_d)."""
    return chinchilla_value_and_jacobian(_one_law(params), prepare_nd(n, d))[1][0].T


def suboptimal_gradient(params: SubOptimalParams, n: ArrayLike, d: ArrayLike) -> np.ndarray:
    """Partials wrt (e, lambda_n, alpha_n, lambda_d, alpha_d, k1, k2)."""
    return suboptimal_value_and_jacobian(_one_law(params), prepare_nd(n, d))[1][0].T
