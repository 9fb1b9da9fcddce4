"""Compute-budget allocation and exponent-stability analysis.

Given a loss law L(N, D) and a fixed budget C = 6*N*D, the optimal
allocation minimizes predicted loss along the budget curve D = C/(6N).
The search runs on ln N with golden sections, so the answer is exact up to
the stated tolerance whenever the loss is unimodal along the curve (true
for the chinchilla and suboptimal families).

``alpha_stability`` reproduces the exponent-stability analysis: records are
bucketed by over-training ratio, each bucket gets a closed-form power-law
fit of loss against compute, and the per-bucket exponents above the
stability threshold are summarized with a moment-based (Jarque-Bera style)
normality check.  The moment test substitutes for Shapiro-Wilk and is named
in the report so nobody mistakes one for the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import BinTooSmall, NoInteriorMinimum
from .laws import (
    ChinchillaParams,
    LawParams,
    SubOptimalParams,
    family_of,
    loss_at,
)

if TYPE_CHECKING:
    from .runs import RunSeries

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

DEFAULT_N_BRACKET = (1e6, 1e13)
DEFAULT_OTR_THRESHOLD = 50.0


# ---------------------------------------------------------------------------
# Optimal allocation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocationPlan:
    budget: float
    n_star: float
    d_star: float
    otr_star: float
    predicted_loss: float
    law: LawParams


def _golden_section(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Minimum of a unimodal f on [lo, hi] to within tol."""
    h = hi - lo
    if h <= tol:
        return 0.5 * (lo + hi)
    n_steps = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = lo + _INV_PHI2 * h
    d = lo + _INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(n_steps):
        if yc < yd:
            hi, d, yd = d, c, yc
            h *= _INV_PHI
            c = lo + _INV_PHI2 * h
            yc = f(c)
        else:
            lo, c, yc = c, d, yd
            h *= _INV_PHI
            d = lo + _INV_PHI * h
            yd = f(d)
    return 0.5 * (lo + hi)


def optimal_allocation(
    law: LawParams,
    budget: float,
    n_bracket: tuple[float, float] = DEFAULT_N_BRACKET,
    tol: float = 1e-6,
    scan_points: int = 257,
) -> AllocationPlan:
    """Best (N, D) split of a FLOP budget under a chinchilla-family law.

    A coarse log-spaced scan locates the global basin first (the repetition
    factors of the suboptimal family can carve a second local dip into the
    budget curve, which a bare golden section may fall into), then golden
    sections refine inside the bracketing scan neighbors.  Raises
    NoInteriorMinimum when the scan minimum sits on the bracket edge, i.e.
    the loss is monotone across the bracket, instead of returning a
    boundary guess.
    """
    if not isinstance(law, (ChinchillaParams, SubOptimalParams)):
        raise ValueError(
            f"allocation needs a chinchilla or suboptimal law, got {family_of(law)!r}"
        )
    if not (budget > 0 and math.isfinite(budget)):
        raise ValueError(f"budget must be finite and > 0, got {budget!r}")
    lo, hi = n_bracket
    if not 0 < lo < hi:
        raise ValueError("n_bracket must satisfy 0 < lo < hi")
    if scan_points < 3:
        raise ValueError("scan_points must be >= 3")

    ln_scan = np.linspace(math.log(lo), math.log(hi), scan_points)
    n_scan = np.exp(ln_scan)
    scan_losses = np.asarray(loss_at(law, n_scan, budget / (6.0 * n_scan)))
    j = int(np.argmin(scan_losses))
    if j == 0 or j == scan_points - 1:
        raise NoInteriorMinimum(
            f"loss is monotone over N in [{lo:g}, {hi:g}] at budget {budget:g}"
        )

    def loss_of_ln_n(ln_n: float) -> float:
        n = math.exp(ln_n)
        return float(loss_at(law, n, budget / (6.0 * n)))

    ln_star = _golden_section(loss_of_ln_n, ln_scan[j - 1], ln_scan[j + 1], tol)
    n_star = math.exp(ln_star)
    d_star = budget / (6.0 * n_star)
    return AllocationPlan(
        budget=float(budget),
        n_star=n_star,
        d_star=d_star,
        otr_star=d_star / n_star,
        predicted_loss=loss_of_ln_n(ln_star),
        law=law,
    )


@dataclass(frozen=True)
class SweepPoint:
    otr: float
    n: float
    d: float
    predicted_loss: float


def otr_sweep(law: LawParams, budget: float, otr_values) -> list[SweepPoint]:
    """Loss along the fixed-budget curve at chosen over-training ratios.

    For each ratio r the unique allocation on the budget is
    n = sqrt(budget / (6 r)), d = r * n.
    """
    if not (budget > 0 and math.isfinite(budget)):
        raise ValueError(f"budget must be finite and > 0, got {budget!r}")
    points = []
    for r in otr_values:
        r = float(r)
        if not r > 0:
            raise ValueError("otr values must be > 0")
        n = math.sqrt(budget / (6.0 * r))
        d = r * n
        points.append(
            SweepPoint(otr=r, n=n, d=d, predicted_loss=float(loss_at(law, n, d)))
        )
    if not points:
        raise ValueError("otr_values must not be empty")
    return points


# ---------------------------------------------------------------------------
# Exponent stability across OTR bins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinFit:
    otr_range: tuple[float, float]
    alpha: float
    lam: float
    n_points: int


@dataclass(frozen=True)
class ExponentStabilityReport:
    bins: tuple[BinFit, ...]
    mean_alpha: float
    std_alpha: float
    normality_stat: float
    normality_pass: bool
    normality_method: str
    otr_threshold: float
    n_stable_bins: int


def _jarque_bera(values: np.ndarray) -> float:
    """Moment-based normality statistic from sample skewness and kurtosis."""
    n = len(values)
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        return 0.0
    skew = float(np.mean(centered**3)) / m2**1.5
    kurt = float(np.mean(centered**4)) / m2**2
    return n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)


def alpha_stability(
    series: RunSeries,
    otr_bins,
    otr_threshold: float = DEFAULT_OTR_THRESHOLD,
    significance: float = 0.05,
) -> ExponentStabilityReport:
    """Per-OTR-bin power-law exponents of loss against compute.

    Each bin [lo, hi) gets the closed-form log-log fit of L = lam * C**(-a)
    with C = 6*N*D.  Bins entirely above ``otr_threshold`` feed the
    mean/std and the normality check; records outside every bin are
    ignored.
    """
    from .fit import fit_power_loglog  # the fitting engine, for this analysis only

    bins = [(float(lo), float(hi)) for lo, hi in otr_bins]
    if not bins:
        raise ValueError("otr_bins must be non-empty")

    fits = []
    for lo, hi in bins:
        compute, losses = [], []
        for rec in series.records:
            ratio = rec.tokens / rec.model_size
            if lo <= ratio < hi:
                compute.append(6.0 * rec.model_size * rec.tokens)
                losses.append(rec.loss)
        if len(losses) < 3:
            raise BinTooSmall((lo, hi), len(losses))
        lam, alpha = fit_power_loglog(np.array(compute), np.array(losses))
        fits.append(BinFit(otr_range=(lo, hi), alpha=alpha, lam=lam, n_points=len(losses)))

    stable = [b for b in fits if b.otr_range[0] >= otr_threshold]
    basis = stable if stable else fits
    alphas = np.array([b.alpha for b in basis])
    mean_alpha = float(alphas.mean())
    std_alpha = float(alphas.std(ddof=1)) if len(alphas) > 1 else 0.0

    if len(alphas) >= 3:
        stat = _jarque_bera(alphas)
        # chi^2 with 2 dof has the closed-form quantile -2*ln(significance)
        passed = stat < -2.0 * math.log(significance)
    else:
        stat = math.nan
        passed = False

    return ExponentStabilityReport(
        bins=tuple(fits),
        mean_alpha=mean_alpha,
        std_alpha=std_alpha,
        normality_stat=stat,
        normality_pass=passed,
        normality_method="jarque-bera",
        otr_threshold=otr_threshold,
        n_stable_bins=len(stable),
    )
