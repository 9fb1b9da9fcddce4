import math

import numpy as np
import pytest

from subscale import alloc, fit, runs
from subscale.errors import (
    BinTooSmall,
    KnobMissing,
    NoInteriorMinimum,
    NoRunReachesTarget,
)
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
    series = runs.RunSeries.from_records(records)
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
    series = runs.RunSeries.from_records(records)
    report = alloc.alpha_stability(series, bins, significance=0.05)
    assert report.normality_method == "jarque-bera"
    assert report.normality_pass


def test_alpha_stability_detects_decreasing_regime():
    # below the stability threshold the exponent falls as OTR grows
    bins = [(5.0 + 5.0 * i, 10.0 + 5.0 * i) for i in range(8)]
    records = []
    for i, (lo, hi) in enumerate(bins):
        records.extend(_records_for_bin(lo, hi, 0.09 - 0.005 * i, lam=4.0, bin_idx=i))
    series = runs.RunSeries.from_records(records)
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
    series = runs.RunSeries.from_records(records)
    report = alloc.alpha_stability(series, bins)
    for b in report.bins:
        assert b.alpha == pytest.approx(0.0777, abs=1e-9)


def test_alpha_stability_bin_too_small():
    bins = [(60.0, 70.0)]
    records = _records_for_bin(60.0, 70.0, 0.05, lam=5.0, bin_idx=0, n_points=2)
    series = runs.RunSeries.from_records(records)
    with pytest.raises(BinTooSmall):
        alloc.alpha_stability(series, bins)


# ---------------------------------------------------------------------------
# hyperparam_frontier
# ---------------------------------------------------------------------------


def _frontier_runs(curves, knob="batch_size"):
    """curves: {knob_value: [(tokens, loss), ...]}"""
    records = []
    for i, (value, pts) in enumerate(sorted(curves.items())):
        for j, (tokens, loss) in enumerate(pts):
            kwargs = {knob: value if knob == "learning_rate" else int(value)}
            records.append(
                runs.TrainingRun(
                    run_id=f"r{i}",
                    model_size=10**8,
                    tokens=int(tokens),
                    loss=float(loss),
                    step=j + 1,
                    **kwargs,
                )
            )
    return runs.RunSeries.from_records(records)


def test_frontier_picks_fastest_run():
    series = _frontier_runs(
        {
            128: [(5e8, 3.5), (1e9, 3.0), (2e9, 2.8)],
            256: [(5e8, 3.6), (2e9, 3.0), (4e9, 2.7)],
        }
    )
    result = alloc.hyperparam_frontier(series, "batch_size", [3.0], smooth_window=1)
    assert result.points[0].knob_value == 128
    assert result.points[0].min_tokens == int(1e9)


def test_frontier_unreachable_target():
    series = _frontier_runs({128: [(5e8, 3.5), (1e9, 3.0)]})
    with pytest.raises(NoRunReachesTarget):
        alloc.hyperparam_frontier(series, "batch_size", [1.0], smooth_window=1)


def test_frontier_warning_for_partial_knob():
    series = _frontier_runs(
        {
            128: [(5e8, 3.5), (1e9, 3.0), (2e9, 2.5)],
            256: [(5e8, 3.6), (2e9, 3.1)],
        }
    )
    result = alloc.hyperparam_frontier(series, "batch_size", [2.8], smooth_window=1)
    assert result.points[0].knob_value == 128
    assert any(w.knob_value == 256 for w in result.warnings)


def test_frontier_knob_missing():
    records = [
        runs.TrainingRun("a", 10**8, 10**9, 3.0, step=1),
        runs.TrainingRun("a", 10**8, 2 * 10**9, 2.9, step=2),
    ]
    with pytest.raises(KnobMissing):
        alloc.hyperparam_frontier(
            runs.RunSeries.from_records(records), "batch_size", [2.95], smooth_window=1
        )


def test_frontier_min_tokens_monotone_in_target():
    rng = np.random.default_rng(17)
    curves = {}
    for value in (64, 128, 256, 512):
        t0 = float(rng.uniform(2e8, 6e8))
        gamma = float(rng.uniform(0.15, 0.3))
        tokens = np.geomspace(t0, 400 * t0, 25)
        losses = 6.0 * (tokens / t0) ** -gamma
        curves[value] = list(zip(tokens, losses))
    series = _frontier_runs(curves)
    targets = [5.0, 4.0, 3.0, 2.5]
    result = alloc.hyperparam_frontier(series, "batch_size", targets, smooth_window=1)
    by_target = {p.target_loss: p.min_tokens for p in result.points}
    ordered = [by_target[t] for t in sorted(targets)]  # harder targets first
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))


def test_frontier_recovers_batch_size_power_law():
    # Token cost to reach loss L at batch size B:
    #     T(L) * (1 + 0.5*(ln B - ln B*(L))^2),  B*(L) = (lam_b / L)^(1/alpha_b),
    # with T(L) growing steeply enough that each run's token column is
    # strictly increasing.  The argmin over B at target L(B_j) is exactly
    # B_j, so the frontier points lie on the generating power law.
    lam_b, alpha_b, gamma = 5000.0, 0.4, 0.05
    b_grid = np.geomspace(64, 4096, 13)
    targets = lam_b * b_grid**-alpha_b  # per-B optimal loss, on the grid
    l0 = float(targets.max())
    curves = {}
    for b in b_grid:
        pts = []
        for L in sorted(targets, reverse=True):  # loss decreasing, tokens increasing
            b_star = (lam_b / L) ** (1.0 / alpha_b)
            cost = (
                1e8
                * (l0 / L) ** (1.0 / gamma)
                * (1.0 + 0.5 * (math.log(b) - math.log(b_star)) ** 2)
            )
            pts.append((cost, L))
        assert all(a[0] < c[0] for a, c in zip(pts, pts[1:]))
        curves[float(b)] = pts
    series = _frontier_runs(curves)
    result = alloc.hyperparam_frontier(
        series, "batch_size", list(targets), smooth_window=1
    )
    xs = np.array([p.knob_value for p in result.points])
    ys = np.array([p.target_loss for p in result.points])
    lam_fit, alpha_fit = fit.fit_power_loglog(xs, ys)
    assert alpha_fit == pytest.approx(alpha_b, rel=0.02)


def test_frontier_uses_smoothed_losses():
    # a noise spike dips below the target but the smoothed curve does not
    pts = [(1e8 * (i + 1), 3.5 - 0.02 * i) for i in range(12)]
    pts[3] = (pts[3][0], 2.0)  # spike
    series = _frontier_runs({128: pts})
    raw = alloc.hyperparam_frontier(series, "batch_size", [2.5], smooth_window=1)
    assert raw.points[0].min_tokens == int(4e8)
    with pytest.raises(NoRunReachesTarget):
        alloc.hyperparam_frontier(series, "batch_size", [2.5], smooth_window=10)
