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
step, over inputs that ``prepare_power`` or ``prepare_nd`` log-transform and
check once per fit; its Jacobian holds the exact partials in the params
class's field order.  The ``*_gradient`` functions return those partials
for raw inputs.

``params_from_dict`` reads a law file; it and the other JSON readers check
each value with ``json_number``/``json_integer``, which name the bad key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

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


@dataclass(frozen=True)
class PowerLawParams:
    """lam * x**(-alpha)."""

    lam: float
    alpha: float

    def __post_init__(self):
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


def json_number(value, name: str) -> float:
    """A finite JSON number (not a boolean) as a float; else ValueError naming ``name``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def json_integer(value, name: str) -> int:
    """A JSON integer, or an integral float such as 50.0; else ValueError naming ``name``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def params_from_dict(data: dict) -> LawParams:
    """Inverse of :func:`params_to_dict`; a bad shape raises ValueError naming the key."""
    if not isinstance(data, dict):
        raise ValueError(f"law params must be a JSON object, not a {type(data).__name__}")
    if "family" not in data:
        raise ValueError("law params: missing field 'family'")
    tag = data["family"]
    if not isinstance(tag, str) or tag not in _FAMILIES:
        raise UnknownFamily(str(tag))
    cls = _FAMILIES[tag]
    values = []
    for key in param_keys(cls):
        if key not in data:
            raise ValueError(f"{tag} law params: missing field {key!r}")
        values.append(json_number(data[key], f"{tag} law params: {key!r}"))
    return cls(*values)


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------


def eval_power(params: PowerLawParams, x: ArrayLike) -> ArrayLike:
    """lam * x**(-alpha) for x > 0, computed in log space."""
    xa, scalar = _as_array(x)
    if np.any(xa <= 0):
        raise ValueError("x must be > 0")
    return _ret(_power_value(params, np.log(xa)), scalar)


def _power_value(params: PowerLawParams, ln_x: np.ndarray) -> np.ndarray:
    return np.exp(math.log(params.lam) - params.alpha * ln_x)


def repetition_factor(otr: ArrayLike, k: float) -> ArrayLike:
    """Logistic over-training multiplier 1 + sigmoid(k * otr).

    Ranges over [1.5, 2) for otr > 0 and k >= 0; strictly increasing in otr
    when k > 0, constant 1.5 when k == 0.  The logistic saturates to 1.0 in
    float64 once k*otr exceeds ~37, so the output is clamped one ulp under
    the mathematical supremum of 2 to keep the documented range contract.
    """
    r, scalar = _as_array(otr)
    if np.any(r <= 0):
        raise ValueError("otr must be > 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    sig = np.minimum(_sigmoid(k * r), 1.0 - 2.0**-52)
    return _ret(1.0 + sig, scalar)


def eval_chinchilla(params: ChinchillaParams, n: ArrayLike, d: ArrayLike) -> ArrayLike:
    """E + lam_n/N**alpha_n + lam_d/D**alpha_d for N, D > 0."""
    na, s1 = _as_array(n)
    da, s2 = _as_array(d)
    if np.any(na <= 0) or np.any(da <= 0):
        raise ValueError("n and d must be > 0")
    return _ret(_chinchilla_value(params, np.log(na), np.log(da)), s1 and s2)


def _chinchilla_value(params: ChinchillaParams, ln_n, ln_d) -> np.ndarray:
    term_n = np.exp(math.log(params.lambda_n) - params.alpha_n * ln_n)
    term_d = np.exp(math.log(params.lambda_d) - params.alpha_d * ln_d)
    return params.e_irreducible + term_n + term_d


def eval_suboptimal(params: SubOptimalParams, n: ArrayLike, d: ArrayLike) -> ArrayLike:
    """Chinchilla terms scaled by repetition factors of OTR = d/n."""
    na, s1 = _as_array(n)
    da, s2 = _as_array(d)
    if np.any(na <= 0) or np.any(da <= 0):
        raise ValueError("n and d must be > 0")
    r = da / na
    r_d = 1.0 + _sigmoid(params.k1 * r)
    r_n = 1.0 + _sigmoid(params.k2 * r)
    return _ret(_suboptimal_value(params, np.log(na), np.log(da), r_n, r_d), s1 and s2)


def _suboptimal_value(params: SubOptimalParams, ln_n, ln_d, r_n, r_d) -> np.ndarray:
    """Chinchilla terms scaled by the repetition factors r_n, r_d."""
    term_n = r_n * np.exp(math.log(params.lambda_n) - params.alpha_n * ln_n)
    term_d = r_d * np.exp(math.log(params.lambda_d) - params.alpha_d * ln_d)
    return params.e_irreducible + term_n + term_d


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
# Each Jacobian column keeps the operand order of the evaluator it
# differentiates, and the value keeps exp(log lam - alpha ln x) while the
# Jacobian uses exp(-alpha ln x): the two round differently, so only the
# inputs and the sigmoids are shared.


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


def power_value_and_jacobian(
    params: PowerLawParams, prepared: tuple[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """eval_power and its partials wrt (lam, alpha); Jacobian (len(x), 2)."""
    (ln_x,) = prepared
    base = np.exp(-params.alpha * ln_x)
    jac = np.empty((len(ln_x), 2))
    jac[:, 0] = base
    jac[:, 1] = -params.lam * ln_x * base
    return _power_value(params, ln_x), jac


def chinchilla_value_and_jacobian(
    params: ChinchillaParams, prepared: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """eval_chinchilla and its partials wrt (e, lambda_n, alpha_n, lambda_d, alpha_d)."""
    ln_n, ln_d, otr = prepared
    t_n = np.exp(-params.alpha_n * ln_n)
    t_d = np.exp(-params.alpha_d * ln_d)
    jac = np.empty((len(otr), 5))
    jac[:, 0] = 1.0
    jac[:, 1] = t_n
    jac[:, 2] = -params.lambda_n * ln_n * t_n
    jac[:, 3] = t_d
    jac[:, 4] = -params.lambda_d * ln_d * t_d
    return _chinchilla_value(params, ln_n, ln_d), jac


def suboptimal_value_and_jacobian(
    params: SubOptimalParams, prepared: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """eval_suboptimal and its partials wrt (e, lambda_n, alpha_n, lambda_d, alpha_d, k1, k2).

    The k-columns chain through the logistic: d/dk sigmoid(k*r) =
    sigmoid*(1-sigmoid)*r.
    """
    ln_n, ln_d, otr = prepared
    s_d = _sigmoid(params.k1 * otr)
    s_n = _sigmoid(params.k2 * otr)
    r_d = 1.0 + s_d
    r_n = 1.0 + s_n
    t_n = np.exp(-params.alpha_n * ln_n)
    t_d = np.exp(-params.alpha_d * ln_d)
    jac = np.empty((len(otr), 7))
    jac[:, 0] = 1.0
    jac[:, 1] = r_n * t_n
    jac[:, 2] = -params.lambda_n * r_n * ln_n * t_n
    jac[:, 3] = r_d * t_d
    jac[:, 4] = -params.lambda_d * r_d * ln_d * t_d
    jac[:, 5] = params.lambda_d * t_d * s_d * (1.0 - s_d) * otr
    jac[:, 6] = params.lambda_n * t_n * s_n * (1.0 - s_n) * otr
    return _suboptimal_value(params, ln_n, ln_d, r_n, r_d), jac


# ---------------------------------------------------------------------------
# Analytic gradients (column order matches the fitter's packing)
# ---------------------------------------------------------------------------


def power_gradient(params: PowerLawParams, x: ArrayLike) -> np.ndarray:
    """Partials of eval_power wrt (lam, alpha); shape (len(x), 2)."""
    return power_value_and_jacobian(params, prepare_power(x))[1]


def chinchilla_gradient(params: ChinchillaParams, n: ArrayLike, d: ArrayLike) -> np.ndarray:
    """Partials wrt (e_irreducible, lambda_n, alpha_n, lambda_d, alpha_d)."""
    return chinchilla_value_and_jacobian(params, prepare_nd(n, d))[1]


def suboptimal_gradient(params: SubOptimalParams, n: ArrayLike, d: ArrayLike) -> np.ndarray:
    """Partials wrt (e, lambda_n, alpha_n, lambda_d, alpha_d, k1, k2)."""
    return suboptimal_value_and_jacobian(params, prepare_nd(n, d))[1]
