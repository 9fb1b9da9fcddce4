"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is either computed independently inside the
test (brute force, closed form, high-precision recomputation) or asserted
against the published closed-form constants the package ships with.
"""

import json
import math
import time

import numpy as np
import pytest

from subscale import alloc, density, fit, laws, runs, synth
from subscale.cli import main as cli_main
from subscale.errors import NoInteriorMinimum
from subscale.rng import SplitMix64

REF = laws.SubOptimalParams(
    e_irreducible=1.372,
    lambda_n=61.929,
    alpha_n=0.272,
    lambda_d=455.345,
    alpha_d=0.289,
    k1=0.00810,
    k2=0.00114,
)

FULL_GRID_OTRS = tuple(float(v) for v in np.geomspace(2.0, 1700.0, 30))


def _ok(num: int, name: str) -> None:
    print(f"[acceptance] criterion {num:02d} ({name}): PASS")


def _full_grid_spec(noise: float = 0.0, seed: int = 0) -> synth.CurveSpec:
    sizes = synth.LADDER_MODEL_SIZES
    return synth.CurveSpec(
        law=REF,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, FULL_GRID_OTRS),
        noise_sigma=noise,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# 1. closed-form consistency
# ---------------------------------------------------------------------------


def test_c01_closed_form_consistency():
    def sigma(z):
        return 1.0 / (1.0 + math.exp(-z))

    otr = 2e10 / 1e9
    by_hand = (
        1.372
        + 61.929 * (1.0 + sigma(0.00114 * otr)) / 1e9**0.272
        + 455.345 * (1.0 + sigma(0.00810 * otr)) / 2e10**0.289
    )
    value = laws.eval_suboptimal(REF, 1e9, 2e10)
    assert value == pytest.approx(by_hand, abs=1e-12)
    assert abs(value - 2.443) <= 1e-3

    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        laws.eval_suboptimal(REF, 1e9, 2e10)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3  # < 1 ms
    _ok(1, "closed-form consistency")


# ---------------------------------------------------------------------------
# 2. noiseless fit recovery on the 11 x 30 grid
# ---------------------------------------------------------------------------


def test_c02_fit_recovery_noiseless():
    series = synth.gen_curves(_full_grid_spec())
    assert len(series) == 11 * 30
    t0 = time.perf_counter()
    result = fit.fit_law(series, "suboptimal")
    elapsed = time.perf_counter() - t0
    assert result.params.alpha_n == pytest.approx(0.272, rel=0.01)
    assert result.params.alpha_d == pytest.approx(0.289, rel=0.01)
    assert result.mape_fit <= 1e-4
    assert elapsed < 30.0
    _ok(2, "noiseless fit recovery")


# ---------------------------------------------------------------------------
# 3. noisy fit recovery
# ---------------------------------------------------------------------------


def test_c03_fit_recovery_noisy():
    series = synth.gen_curves(_full_grid_spec(noise=0.01, seed=77))
    result = fit.fit_law(series, "suboptimal")
    assert result.converged
    assert result.params.alpha_n == pytest.approx(0.272, rel=0.05)
    assert result.params.alpha_d == pytest.approx(0.289, rel=0.05)
    _ok(3, "noisy fit recovery")


# ---------------------------------------------------------------------------
# 4. sub-scaling direction under first-quarter fitting
# ---------------------------------------------------------------------------


def test_c04_subscaling_direction():
    sizes = synth.LADDER_MODEL_SIZES[:6]
    otrs = np.geomspace(2.0, 1700.0, 24)  # over-trained far past the optimum
    spec = synth.CurveSpec(
        law=REF,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, otrs),
    )
    series = synth.gen_curves(spec)
    fit_split, holdout = runs.split_fit_holdout(series, 0.25)
    sub = fit.fit_law(fit_split, "suboptimal")
    chin = fit.fit_law(fit_split, "chinchilla")
    _, sub_pred = fit.predict(sub.params, holdout)
    _, chin_pred = fit.predict(chin.params, holdout)
    assert sub_pred < chin_pred
    _ok(4, "sub-scaling prediction direction")


# ---------------------------------------------------------------------------
# 5. power-law oracle equivalence over 100 fixtures
# ---------------------------------------------------------------------------


def test_c05_power_law_oracle_equivalence():
    # fixtures keep losses in the realistic few-nats range, lambda inside
    # the fitter's default bounds, and noise modest: outside that regime
    # (losses ~ 1e-12 nats, heavy noise) the float objective has an
    # indistinguishability basin wider than 1e-8, and no minimizer of it
    # can match the closed form that tightly
    rng = np.random.default_rng(55)
    for trial in range(100):
        alpha = float(rng.uniform(0.05, 0.2))
        x0 = float(10 ** rng.uniform(10, 13))
        span = float(rng.uniform(4, 6))
        tokens = tuple(int(v) for v in np.geomspace(x0, x0 * 10**span, 30))
        x_mid = 6.0 * 10**7 * math.sqrt(tokens[0] * float(tokens[-1]))
        lam = float(rng.uniform(1.0, 5.0)) * x_mid**alpha
        spec = synth.CurveSpec(
            law=laws.PowerLawParams(lam=lam, alpha=alpha),
            model_sizes=(10**7,),
            token_checkpoints=(tokens,),
            noise_sigma=0.001,
            seed=trial,
        )
        series = synth.gen_curves(spec)
        result = fit.fit_law(series, "power")
        x = np.array([6.0 * r.model_size * r.tokens for r in series.records])
        y = np.array([r.loss for r in series.records])
        # independent closed form: centered log-log regression
        lx, ly = np.log(x), np.log(y)
        cx = lx - lx.mean()
        slope = float(cx @ (ly - ly.mean()) / (cx @ cx))
        intercept = float(ly.mean() - slope * lx.mean())
        assert abs(math.log(result.params.lam) - intercept) <= 1e-8
        assert abs(result.params.alpha - (-slope)) <= 1e-8
    _ok(5, "power-law oracle equivalence")


# ---------------------------------------------------------------------------
# 6. density analytics
# ---------------------------------------------------------------------------


def test_c06_density_analytics():
    # (a) two points in dim 2, both at distance 1 from the centroid; a distant
    # third row forms a second cluster, so that the dataset radius is defined
    emb = density.EmbeddingSet([[0.0, 1.0], [0.0, -1.0], [1e3, 1e3]])
    clustering = density.kmeans(emb, 2, seed=0)
    cd = density.dataset_density(emb, clustering).per_cluster[clustering.assignment[0]]
    assert cd.n_samples == 2
    assert math.exp(cd.log_density) == pytest.approx(2.0 / math.pi, abs=1e-9)

    # (b) homogeneity: scaling embeddings by s shifts every per-cluster log
    # density by exactly -dim * ln(s), and the dataset formula shifts the
    # same way under radius scaling
    spec = synth.BlobSpec(
        k=3,
        dim=5,
        per_cluster=(
            synth.BlobCluster(40, (0.0, 0.0, 0.0, 0.0, 0.0), 0.8),
            synth.BlobCluster(25, (6.0, -2.0, 1.0, 0.0, 3.0), 1.1),
            synth.BlobCluster(30, (-5.0, 4.0, -3.0, 2.0, 0.0), 0.6),
        ),
        seed=100,
    )
    emb, _ = synth.gen_blobs(spec)
    clustering = density.kmeans(emb, 3, seed=0)
    rng = np.random.default_rng(9)
    for s in 10 ** rng.uniform(-2, 2, size=10):
        scaled = density.EmbeddingSet(emb.vectors * s, emb.ids)
        scaled_clustering = density.Clustering(
            clustering.assignment, clustering.centroids * s
        )
        pairs = zip(
            density.dataset_density(emb, clustering).per_cluster,
            density.dataset_density(scaled, scaled_clustering).per_cluster,
        )
        for before, after in pairs:
            assert after.radius == pytest.approx(before.radius * s, rel=1e-12)
            shift = after.log_density - before.log_density
            assert shift == pytest.approx(-emb.dim * math.log(s), abs=1e-9)
        report = density.dataset_density(emb, clustering)
        shifted = density.log_density_from_radius(
            report.n_total, report.dim, report.weighted_radius * s
        )
        assert shifted - report.log_density == pytest.approx(
            -emb.dim * math.log(s), abs=1e-9
        )

    # (c) 768-dimensional set: raw density overflows, the log form matches a
    # full scalar recomputation
    rng768 = SplitMix64(6)
    dim, n = 768, 40
    vectors = 0.05 * rng768.normals(dim * n).reshape(n, dim)
    vectors[n // 2 :] += 1.0
    emb768 = density.EmbeddingSet(vectors)
    clustering768 = density.kmeans(emb768, 2, seed=0)
    report = density.dataset_density(emb768, clustering768)
    assert report.density_overflowed
    expected = (
        math.log(n)
        + math.lgamma(dim / 2.0 + 1.0)
        - (dim / 2.0) * math.log(math.pi)
        - dim * math.log(report.weighted_radius)
    )
    assert report.log_density == pytest.approx(expected, abs=1e-9)
    _ok(6, "density analytics")


# ---------------------------------------------------------------------------
# 7. selection monotonicity
# ---------------------------------------------------------------------------


def test_c07_selection_monotonicity():
    rng = np.random.default_rng(70)
    for trial in range(50):
        k = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 9))
        blobs = []
        for _ in range(k):
            centroid = tuple(float(v) for v in rng.uniform(-10, 10, size=dim))
            blobs.append(
                synth.BlobCluster(
                    int(rng.integers(12, 60)), centroid, float(rng.uniform(0.3, 1.6))
                )
            )
        emb, _ = synth.gen_blobs(
            synth.BlobSpec(k=k, dim=dim, per_cluster=tuple(blobs), seed=trial)
        )
        clustering = density.kmeans(emb, k, seed=trial)
        before = density.dataset_density(emb, clustering).log_density
        fraction = float(rng.uniform(0.5, 0.9))
        retained = density.select_low_density(emb, clustering, keep_fraction=fraction)
        kept_emb, kept_cl = density.apply_selection(emb, clustering, retained)
        after = density.dataset_density(kept_emb, kept_cl).log_density
        assert after <= before + 1e-9

    # 10x-populous blob with identical spread: removals start in it
    spec = synth.BlobSpec(
        k=2,
        dim=4,
        per_cluster=(
            synth.BlobCluster(100, (0.0, 0.0, 0.0, 0.0), 0.5),
            synth.BlobCluster(10, (8.0, 8.0, 8.0, 8.0), 0.5),
        ),
        seed=23,
    )
    emb, labels = synth.gen_blobs(spec)
    clustering = density.kmeans(emb, 2, seed=0)
    retained = density.select_low_density(emb, clustering, keep_fraction=0.8)
    removed = set(emb.ids) - {emb.ids[i] for i in retained}
    id_to_label = dict(zip(emb.ids, labels))
    assert removed and all(id_to_label[i] == 0 for i in removed)
    _ok(7, "selection monotonicity")


# ---------------------------------------------------------------------------
# 8. allocation correctness
# ---------------------------------------------------------------------------


def test_c08_allocation_correctness():
    rng = np.random.default_rng(88)
    checked = 0
    attempts = 0
    ln_grid = np.linspace(math.log(1e6), math.log(1e13), 2000)
    n_grid = np.exp(ln_grid)
    step = ln_grid[1] - ln_grid[0]
    while checked < 100:
        attempts += 1
        assert attempts < 200
        if attempts % 2 == 0:
            law = laws.ChinchillaParams(
                e_irreducible=float(rng.uniform(0.5, 2.0)),
                lambda_n=float(10 ** rng.uniform(1.0, 2.5)),
                alpha_n=float(rng.uniform(0.2, 0.45)),
                lambda_d=float(10 ** rng.uniform(1.5, 3.0)),
                alpha_d=float(rng.uniform(0.2, 0.45)),
            )
        else:
            law = laws.SubOptimalParams(
                e_irreducible=float(rng.uniform(0.5, 2.0)),
                lambda_n=float(10 ** rng.uniform(1.0, 2.5)),
                alpha_n=float(rng.uniform(0.2, 0.45)),
                lambda_d=float(10 ** rng.uniform(1.5, 3.0)),
                alpha_d=float(rng.uniform(0.2, 0.45)),
                k1=float(rng.uniform(0.0, 0.02)),
                k2=float(rng.uniform(0.0, 0.02)),
            )
        budget = float(10 ** rng.uniform(19, 21.5))
        losses = np.asarray(laws.loss_at(law, n_grid, budget / (6.0 * n_grid)))
        i = int(np.argmin(losses))
        try:
            plan = alloc.optimal_allocation(law, budget)
        except NoInteriorMinimum:
            assert i <= 1 or i >= len(ln_grid) - 2
            continue
        assert abs(math.log(plan.n_star) - ln_grid[i]) <= step
        assert 6.0 * plan.n_star * plan.d_star == pytest.approx(budget, rel=1e-9)
        checked += 1

    sym = laws.ChinchillaParams(1.0, 150.0, 0.33, 150.0, 0.33)
    assert alloc.optimal_allocation(sym, 1e20).otr_star == pytest.approx(1.0, abs=1e-4)
    _ok(8, "allocation correctness")


# ---------------------------------------------------------------------------
# 9. exponent stability
# ---------------------------------------------------------------------------


def _bin_records(bins, alphas, lam=5.0, n_points=5):
    records = []
    for i, ((lo, hi), alpha) in enumerate(zip(bins, alphas)):
        width = hi - lo
        for j, otr in enumerate(
            np.linspace(lo + 0.05 * width, hi - 0.05 * width, n_points)
        ):
            n = int(10 ** (7 + 0.3 * j))
            d = int(otr * n)
            c = 6.0 * n * d
            records.append(
                runs.TrainingRun(
                    run_id=f"b{i}p{j}",
                    model_size=n,
                    tokens=d,
                    loss=float(lam * c**-alpha),
                )
            )
    return runs.RunSeries(records)


def test_c09_exponent_stability():
    bins = [(60.0 + 10.0 * i, 70.0 + 10.0 * i) for i in range(30)]

    series = _bin_records(bins, [0.0521] * 30)
    report = alloc.alpha_stability(series, bins)
    assert report.mean_alpha == pytest.approx(0.0521, abs=1e-6)
    assert report.std_alpha <= 1e-9

    passes = 0
    for trial in range(100):
        rng = SplitMix64(20260810 + trial)
        alphas = [0.0521 + 0.002 * rng.normal() for _ in range(30)]
        trial_report = alloc.alpha_stability(
            _bin_records(bins, alphas), bins, significance=0.05
        )
        if trial_report.normality_pass:
            passes += 1
    assert passes >= 95
    _ok(9, "exponent stability")


# ---------------------------------------------------------------------------
# 10. logistic factor bounds
# ---------------------------------------------------------------------------


def _factor(otr, k):
    """The suboptimal law's factor 1 + sigmoid(k * otr), read off as (S - E) / (C - E).

    S and C are the suboptimal and chinchilla losses at N = 1, D = otr, with the
    same E, lambdas and alphas and k1 = k2 = k.  With E = 0 and lambda_n = 1 the
    N term is the factor times exactly 1, and a lambda_d of 1e-300 keeps the D
    term under half an ulp of it, so the ratio is the factor bit for bit.
    """
    shared = dict(e_irreducible=0.0, lambda_n=1.0, alpha_n=0.3, lambda_d=1e-300, alpha_d=0.3)
    s = laws.eval_suboptimal(laws.SubOptimalParams(**shared, k1=k, k2=k), 1.0, otr)
    c = laws.eval_chinchilla(laws.ChinchillaParams(**shared), 1.0, otr)
    e = shared["e_irreducible"]
    return (s - e) / (c - e)


def test_c10_logistic_factor_bounds():
    rng = np.random.default_rng(10)
    otr = 10 ** rng.uniform(-6, 4, size=100_000)
    k = rng.uniform(0.0, 1.0, size=100_000)
    # the logistic saturates to exactly 1 in float64 once k*otr passes ~37, so
    # the factor reaches 2 there and stays strictly under it for k*otr < 30
    values = np.array([_factor(float(o), float(kk)) for o, kk in zip(otr[:2000], k[:2000])])
    below = k[:2000] * otr[:2000] < 30.0
    assert np.all(values >= 1.5) and np.all(values <= 2.0)
    assert np.all(values[below] < 2.0)
    # vectorized check over the full 1e5 draws, per k decile
    for k_fixed in np.linspace(0.0, 1.0, 11):
        vals = _factor(otr, float(k_fixed))
        assert np.all(vals >= 1.5) and np.all(vals <= 2.0)
        assert np.all(vals[k_fixed * otr < 30.0] < 2.0)
    # strict monotonicity in otr for k > 0 (below float saturation)
    mask = (k > 0) & (2.0 * k * otr < 30.0)
    o_sel, k_sel = otr[mask][:20_000], k[mask][:20_000]
    lo, hi = np.array(
        [_factor(np.array([o, o * 2.0]), float(kk)) for o, kk in zip(o_sel, k_sel)]
    ).T
    assert np.all(hi > lo)
    _ok(10, "logistic factor bounds")


# ---------------------------------------------------------------------------
# 11. CLI determinism
# ---------------------------------------------------------------------------


def test_c11_cli_determinism(tmp_path):
    sizes = synth.LADDER_MODEL_SIZES[:5]
    spec = synth.CurveSpec(
        law=REF,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, np.geomspace(3, 1500, 16)),
    )
    runs_path = tmp_path / "runs.csv"
    runs.write_csv(synth.gen_curves(spec), runs_path)

    fit1 = tmp_path / "fit1"
    assert cli_main(["fit", str(runs_path), "--family", "suboptimal", "-o", str(fit1)]) == 0
    fit2 = tmp_path / "fit2"
    assert cli_main(["report", str(fit1 / "manifest.json"), "-o", str(fit2)]) == 0
    for name in ("fit_result.json", "residuals.csv", "loss_tokens.svg"):
        assert (fit1 / name).read_bytes() == (fit2 / name).read_bytes()

    blob_spec = synth.BlobSpec(
        k=2,
        dim=4,
        per_cluster=(
            synth.BlobCluster(50, (0.0, 0.0, 0.0, 0.0), 0.4),
            synth.BlobCluster(20, (9.0, 9.0, 9.0, 9.0), 1.2),
        ),
        seed=3,
    )
    emb, _ = synth.gen_blobs(blob_spec)
    emb_path = tmp_path / "vectors.emb"
    density.save_embeddings(emb_path, emb)
    den1 = tmp_path / "den1"
    assert cli_main(["density", str(emb_path), "--k", "2", "-o", str(den1)]) == 0
    den2 = tmp_path / "den2"
    assert cli_main(["report", str(den1 / "manifest.json"), "-o", str(den2)]) == 0
    assert (den1 / "density_report.json").read_bytes() == (
        den2 / "density_report.json"
    ).read_bytes()

    manifest = json.loads((fit1 / "manifest.json").read_text())
    assert manifest["version"] and manifest["command"] == "fit"
    _ok(11, "CLI determinism")
