import math
import struct
import warnings

import numpy as np
import pytest

from subscale import density, synth
from subscale.density import Clustering, ClusterDensity, EmbeddingSet
from subscale.errors import (
    DegenerateGeometry,
    EmbeddingFormatError,
    KTooLarge,
    UnfilledClusters,
)
from subscale.rng import SplitMix64


def _two_blob_spec(n0=60, n1=12, dim=4, spread=0.5, gap=8.0, seed=3):
    centroid0 = tuple(0.0 for _ in range(dim))
    centroid1 = tuple(gap for _ in range(dim))
    return synth.BlobSpec(
        k=2,
        dim=dim,
        per_cluster=(
            synth.BlobCluster(n0, centroid0, spread),
            synth.BlobCluster(n1, centroid1, spread),
        ),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def test_kmeans_k1_centroid_is_mean():
    emb = EmbeddingSet([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    clustering = density.kmeans(emb, 1, seed=0)
    assert clustering.k == 1
    assert clustering.centroids[0] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_kmeans_k_equals_n():
    emb = EmbeddingSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    clustering = density.kmeans(emb, 3, seed=0)
    assert sorted(clustering.assignment) == [0, 1, 2]
    for cd in density.dataset_density(emb, clustering).per_cluster:
        assert cd.radius_floored
        assert cd.n_samples == 1


def test_kmeans_recovers_separated_blobs():
    emb, labels = synth.gen_blobs(_two_blob_spec(gap=25.0, spread=0.5))
    clustering = density.kmeans(emb, 2, seed=7)
    mapping = {}
    for got, true in zip(clustering.assignment, labels):
        mapping.setdefault(int(got), int(true))
        assert mapping[int(got)] == true
    assert len(mapping) == 2


def test_kmeans_deterministic():
    emb, _ = synth.gen_blobs(_two_blob_spec(seed=5))
    a = density.kmeans(emb, 3, seed=42)
    b = density.kmeans(emb, 3, seed=42)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_on_duplicate_rows_never_warns_and_names_unfillable_k():
    # a reseed empties another cluster for one Lloyd step at k=15..20
    x = np.repeat(np.random.default_rng(0).standard_normal((10, 2)), 5, axis=0)
    emb = EmbeddingSet(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (10, 15, 20):
            assert np.all(np.isfinite(density.kmeans(emb, k, seed=0).centroids))
        with pytest.raises(UnfilledClusters, match="k=21 .* 10 distinct rows"):
            density.kmeans(emb, 21, seed=0)


def test_kmeans_k_too_large():
    emb = EmbeddingSet([[0.0, 1.0]])
    with pytest.raises(KTooLarge):
        density.kmeans(emb, 2, seed=0)


# ---------------------------------------------------------------------------
# cluster density
# ---------------------------------------------------------------------------


def _density_of_one_cluster(rows) -> ClusterDensity:
    """The density of the cluster of ``rows``, read from ``dataset_density``.

    One row far from all of them is added as a second cluster, so that the
    dataset radius is defined.
    """
    vectors = np.asarray(rows, dtype=float)
    far = np.full((1, vectors.shape[1]), 1e3)
    emb = EmbeddingSet(np.vstack([vectors, far]))
    clustering = density.kmeans(emb, 2, seed=0)
    cd = density.dataset_density(emb, clustering).per_cluster[clustering.assignment[0]]
    assert cd.n_samples == len(vectors)
    return cd


def test_two_point_cluster_density_is_2_over_pi():
    cd = _density_of_one_cluster([[0.0, 1.0], [0.0, -1.0]])
    assert cd.radius == pytest.approx(1.0, abs=1e-15)
    assert math.exp(cd.log_density) == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert not cd.radius_floored


def test_singleton_cluster_flagged():
    cd = _density_of_one_cluster([[1.0, 2.0]])
    assert cd.radius_floored
    assert cd.radius == density.RADIUS_FLOOR
    assert math.isfinite(cd.log_density)


def test_uniform_disc_density_within_ten_percent():
    rng = SplitMix64(4)
    pts = []
    for _ in range(100):
        r = math.sqrt(rng.uniform())
        theta = 2.0 * math.pi * rng.uniform()
        pts.append((r * math.cos(theta), r * math.sin(theta)))
    cd = _density_of_one_cluster(pts)
    # uniform disc of radius 1: mean distance from center 2/3,
    # so rho = 100 * Gamma(2) / (pi * (2/3)^2)
    analytic = 100.0 / (math.pi * (2.0 / 3.0) ** 2)
    assert math.exp(cd.log_density) == pytest.approx(analytic, rel=0.10)


def test_log_density_monotone_in_radius_and_count():
    base = density.log_density_from_radius(100, 8, 1.0)
    assert density.log_density_from_radius(100, 8, 1.1) < base
    assert density.log_density_from_radius(100, 8, 0.9) > base
    assert density.log_density_from_radius(101, 8, 1.0) > base
    assert density.log_density_from_radius(99, 8, 1.0) < base


# ---------------------------------------------------------------------------
# dataset radius / density
# ---------------------------------------------------------------------------


def test_dataset_radius_hand_example():
    # centroids at +-1 on the x axis, each with two members at distance r in
    # dim 2, so rho = 2 / (pi r^2) = e - 1 and log(rho + 1) = 1
    r = math.sqrt(2.0 / (math.pi * (math.e - 1.0)))
    emb = EmbeddingSet([[1.0, r], [1.0, -r], [-1.0, r], [-1.0, -r]])
    clustering = Clustering(
        assignment=[0, 0, 1, 1],
        centroids=[[1.0, 0.0], [-1.0, 0.0]],
    )
    report = density.dataset_density(emb, clustering)
    assert report.weighted_radius == pytest.approx(1.0, abs=1e-12)


def test_dataset_radius_single_cluster_degenerate():
    emb = EmbeddingSet([[1.0, 1.0], [1.0, 3.0]])
    clustering = Clustering(assignment=[0, 0], centroids=[[1.0, 2.0]])
    with pytest.raises(DegenerateGeometry):
        density.dataset_density(emb, clustering)


def test_dataset_radius_matches_scalar_reimplementation():
    emb, _ = synth.gen_blobs(
        synth.BlobSpec(
            k=3,
            dim=3,
            per_cluster=(
                synth.BlobCluster(30, (0.0, 0.0, 0.0), 0.8),
                synth.BlobCluster(20, (6.0, 1.0, -2.0), 1.2),
                synth.BlobCluster(25, (-4.0, 5.0, 3.0), 0.6),
            ),
            seed=17,
        )
    )
    clustering = density.kmeans(emb, 3, seed=1)
    report = density.dataset_density(emb, clustering)
    per_cluster, got = report.per_cluster, report.weighted_radius

    # independent scalar reimplementation with plain python loops
    k = clustering.k
    grand = [sum(clustering.centroids[i][j] for i in range(k)) / k for j in range(3)]
    total = 0.0
    for i in range(k):
        dist = math.sqrt(
            sum((grand[j] - clustering.centroids[i][j]) ** 2 for j in range(3))
        )
        rho = math.exp(per_cluster[i].log_density)
        total += dist / math.log(rho + 1.0)
    assert got == pytest.approx(total / k, abs=1e-12)


def test_dataset_density_formula_example():
    # N=2 samples, dim 2, radius 1: rho = 2 * Gamma(2) / pi = 2/pi
    log_rho = density.log_density_from_radius(2, 2, 1.0)
    assert math.exp(log_rho) == pytest.approx(2.0 / math.pi, abs=1e-12)


def test_dataset_density_report_fields():
    emb, _ = synth.gen_blobs(_two_blob_spec())
    clustering = density.kmeans(emb, 2, seed=0)
    report = density.dataset_density(emb, clustering)
    assert report.k == 2
    assert report.n_total == emb.n_samples
    assert len(report.per_cluster) == 2
    assert report.weighted_radius > 0
    assert math.isfinite(report.log_density)
    assert report.normalized_density == pytest.approx(
        math.exp(report.log_density / emb.dim), rel=1e-12
    )


def test_high_dimensional_log_density_finite_raw_overflows():
    rng = SplitMix64(6)
    dim, n = 768, 40
    vectors = 0.05 * rng.normals(dim * n).reshape(n, dim)
    vectors[n // 2 :] += 1.0  # two separated groups
    emb = EmbeddingSet(vectors)
    clustering = density.kmeans(emb, 2, seed=0)
    report = density.dataset_density(emb, clustering)
    assert math.isfinite(report.log_density)
    assert report.density_overflowed
    assert report.density is None

    # full scalar recomputation of the analytic log expression
    expected = (
        math.log(n)
        + math.lgamma(dim / 2.0 + 1.0)
        - (dim / 2.0) * math.log(math.pi)
        - dim * math.log(report.weighted_radius)
    )
    assert report.log_density == pytest.approx(expected, abs=1e-9)


def test_scaling_homogeneity_per_cluster():
    emb, _ = synth.gen_blobs(_two_blob_spec(seed=9))
    clustering = density.kmeans(emb, 2, seed=2)
    rng = np.random.default_rng(0)
    for s in 10 ** rng.uniform(-2, 2, size=5):
        scaled = EmbeddingSet(emb.vectors * s, emb.ids)
        scaled_clustering = Clustering(
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


def test_dataset_density_permutation_invariant():
    emb, _ = synth.gen_blobs(_two_blob_spec(seed=12))
    clustering = density.kmeans(emb, 2, seed=0)
    report = density.dataset_density(emb, clustering)

    rng = np.random.default_rng(1)
    perm = rng.permutation(emb.n_samples)
    emb_perm = EmbeddingSet(
        emb.vectors[perm], [emb.ids[i] for i in perm]
    )
    # relabel clusters 0<->1 as well
    relabeled = Clustering(
        1 - clustering.assignment[perm], clustering.centroids[::-1].copy()
    )
    report_perm = density.dataset_density(emb_perm, relabeled)
    assert report_perm.log_density == pytest.approx(report.log_density, rel=1e-12)
    assert report_perm.weighted_radius == pytest.approx(report.weighted_radius, rel=1e-12)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def test_select_full_fraction_is_noop():
    emb, _ = synth.gen_blobs(_two_blob_spec())
    clustering = density.kmeans(emb, 2, seed=0)
    retained = density.select_low_density(emb, clustering, keep_fraction=1.0)
    assert [emb.ids[i] for i in retained] == list(emb.ids)


def test_select_prunes_populous_blob_first():
    spec = _two_blob_spec(n0=100, n1=10, gap=10.0, spread=0.5, seed=23)
    emb, labels = synth.gen_blobs(spec)
    clustering = density.kmeans(emb, 2, seed=0)
    retained = density.select_low_density(emb, clustering, keep_fraction=0.7)
    removed = set(emb.ids) - {emb.ids[i] for i in retained}
    assert len(removed) == emb.n_samples - math.ceil(0.7 * emb.n_samples)
    id_to_label = dict(zip(emb.ids, labels))
    # all removals must come from the 10x more populous blob
    assert all(id_to_label[i] == 0 for i in removed)


def test_select_oracle_densest_cluster_each_step():
    # recompute densities after each removal with an independent oracle
    spec = _two_blob_spec(n0=40, n1=25, gap=6.0, spread=0.8, seed=31)
    emb, _ = synth.gen_blobs(spec)
    clustering = density.kmeans(emb, 2, seed=0)
    retained = density.select_low_density(emb, clustering, keep_fraction=0.6)
    removed_rows = sorted(set(range(emb.n_samples)) - set(retained))

    # oracle: greedy with full recomputation
    alive = np.ones(emb.n_samples, dtype=bool)
    oracle_removed = []
    for _ in range(len(removed_rows)):
        best_cid, best_ld = None, -math.inf
        for cid in range(clustering.k):
            rows = [
                i
                for i in range(emb.n_samples)
                if alive[i] and clustering.assignment[i] == cid
            ]
            if not rows:
                continue
            dists = [
                float(np.linalg.norm(emb.vectors[i] - clustering.centroids[cid]))
                for i in rows
            ]
            radius = max(sum(dists) / len(dists), density.RADIUS_FLOOR)
            ld = density.log_density_from_radius(len(rows), emb.dim, radius)
            if ld > best_ld:
                best_ld, best_cid = ld, cid
        rows = [
            i
            for i in range(emb.n_samples)
            if alive[i] and clustering.assignment[i] == best_cid
        ]
        victim = min(
            rows,
            key=lambda i: (
                float(np.linalg.norm(emb.vectors[i] - clustering.centroids[best_cid])),
                i,
            ),
        )
        oracle_removed.append(victim)
        alive[victim] = False
    assert removed_rows == sorted(oracle_removed)


def test_select_never_increases_dataset_log_density():
    rng = np.random.default_rng(44)
    for trial in range(8):
        k = int(rng.integers(2, 4))
        dim = int(rng.integers(2, 6))
        blobs = []
        for c in range(k):
            centroid = tuple(float(v) for v in rng.uniform(-8, 8, size=dim))
            blobs.append(
                synth.BlobCluster(int(rng.integers(15, 50)), centroid, float(rng.uniform(0.3, 1.5)))
            )
        emb, _ = synth.gen_blobs(
            synth.BlobSpec(k=k, dim=dim, per_cluster=tuple(blobs), seed=trial)
        )
        clustering = density.kmeans(emb, k, seed=trial)
        before = density.dataset_density(emb, clustering).log_density
        retained = density.select_low_density(
            emb, clustering, keep_fraction=float(rng.uniform(0.5, 0.9))
        )
        kept_emb, kept_cl = density.apply_selection(emb, clustering, retained)
        after = density.dataset_density(kept_emb, kept_cl).log_density
        assert after <= before + 1e-9


def test_select_target_log_density():
    emb, _ = synth.gen_blobs(_two_blob_spec(seed=2))
    clustering = density.kmeans(emb, 2, seed=0)
    before = density.dataset_density(emb, clustering).log_density
    target = before - 0.5
    retained = density.select_low_density(emb, clustering, target_log_density=target)
    kept_emb, kept_cl = density.apply_selection(emb, clustering, retained)
    assert density.dataset_density(kept_emb, kept_cl).log_density <= target
    with pytest.raises(ValueError, match=r"keep_fraction 1\.5 not in \(0, 1\]"):
        density.select_low_density(emb, clustering, keep_fraction=1.5)
    with pytest.raises(ValueError, match="target_log_density is NaN"):
        density.select_low_density(emb, clustering, target_log_density=math.nan)


def test_clustering_of_another_embedding_set_is_rejected():
    emb, _ = synth.gen_blobs(_two_blob_spec(n0=40, n1=20))  # 60 rows of dimension 4
    fewer_rows = density.kmeans(EmbeddingSet(emb.vectors[:40]), 2, seed=0)
    fewer_dims = density.kmeans(EmbeddingSet(emb.vectors[:, :3]), 2, seed=0)
    for clustering in (fewer_rows, fewer_dims):
        with pytest.raises(ValueError, match="does not fit 60 embeddings of dimension 4"):
            density.dataset_density(emb, clustering)
        with pytest.raises(ValueError, match="does not fit 60 embeddings of dimension 4"):
            density.select_low_density(emb, clustering, keep_fraction=0.5)


@pytest.mark.parametrize("rows", [[0, 99], [-1, 3], []], ids=["past-the-end", "negative", "none"])
def test_apply_selection_rejects_rows_outside_the_set(rows):
    emb, _ = synth.gen_blobs(_two_blob_spec(n0=30, n1=10))
    clustering = density.kmeans(emb, 2, seed=0)
    message = r"^rows must be a non-empty selection of rows in \[0, 40\)$"
    with pytest.raises(ValueError, match=message):
        density.apply_selection(emb, clustering, rows)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_binary_roundtrip(tmp_path):
    emb, _ = synth.gen_blobs(_two_blob_spec(n0=9, n1=4, dim=3))
    path = tmp_path / "vectors.emb"
    density.save_embeddings(path, emb)
    loaded = density.load_embeddings(path)
    assert loaded.n_samples == emb.n_samples and loaded.dim == emb.dim
    # float32 quantization happens once; a second pass is exact
    density.save_embeddings(path, loaded)
    again = density.load_embeddings(path)
    assert np.array_equal(again.vectors, loaded.vectors)
    assert np.allclose(loaded.vectors, emb.vectors, atol=1e-5)


def test_csv_roundtrip_exact(tmp_path):
    emb = EmbeddingSet(
        np.array([[0.1, -2.5, 3.00000000001], [4.0, 5.0, -6.0]]), ["x", "y"]
    )
    path = tmp_path / "vectors.csv"
    density.save_embeddings(path, emb)
    loaded = density.load_embeddings(path)
    assert loaded.ids == ("x", "y")
    assert np.array_equal(loaded.vectors, emb.vectors)


def test_csv_field_beyond_the_csv_size_limit_is_named(tmp_path):
    path = tmp_path / "vectors.csv"
    path.write_text("id,v0\na,1.0\nb," + "9" * 200_000 + "\n")
    with pytest.raises(EmbeddingFormatError) as err:
        density.load_embeddings(path)
    assert str(err.value) == f"{path}: line 3: field larger than field limit (131072)"


@pytest.mark.parametrize("value", ["1e308", "-3.5e38"])
def test_csv_component_beyond_float32_range_is_named(tmp_path, value):
    # its square, and so a squared distance, could overflow
    path = tmp_path / "vectors.csv"
    path.write_text(f"id,v0,v1\na,1.0,0.0\nb,0.0,{value}\nc,2.0,1.0\n")
    with pytest.raises(EmbeddingFormatError) as err:
        density.load_embeddings(path)
    assert str(err.value) == f"{path}: id 'b': v1 = {float(value)!r} is beyond the float32 range"
    # the largest float32 still loads
    path.write_text(f"id,v0\na,{float(np.finfo(np.float32).max)!r}\nb,1.0\n")
    assert density.load_embeddings(path).n_samples == 2


@pytest.mark.parametrize(
    "value", ["\u0661", "1_0", "\u0661.5", "\uff11"],
    ids=["arabic-indic", "underscore", "arabic-indic-decimal", "fullwidth"],
)
def test_csv_component_must_be_ascii_without_underscores(tmp_path, value):
    # float() reads each of these as a number
    path = tmp_path / "e.csv"
    path.write_text(f"id,v0,v1\n\u6a21,0.5,1\nb,2.0,{value}\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError) as err:
        density.load_embeddings(path)
    assert str(err.value) == f"{path}: line 3: non-numeric component"


def test_csv_blank_line_is_skipped_and_counted_in_line_numbers(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("id,v0,v1\na,0.5,1\n\nb,2.0,3.0\n")
    emb = density.load_embeddings(path)
    assert emb.ids == ("a", "b") and emb.vectors.tolist() == [[0.5, 1.0], [2.0, 3.0]]
    path.write_text("id,v0,v1\na,0.5,1\n\nb,2.0\n")
    with pytest.raises(EmbeddingFormatError) as err:
        density.load_embeddings(path)
    assert str(err.value) == f"{path}: line 4: expected 3 columns"


def test_csv_that_is_not_utf8_names_the_file_and_line(tmp_path):
    path = tmp_path / "e.csv"
    data = b"id,v0,v1\na,0.5,1\nb\xff,2.0,3.0\n"
    path.write_bytes(data)
    offset = data.index(b"\xff")
    with pytest.raises(EmbeddingFormatError) as err:
        density.load_embeddings(path)
    assert str(err.value) == (
        f"{path}: not UTF-8 text: line 3: 'utf-8' codec can't decode byte 0xff in position "
        f"{offset}: invalid start byte"
    )


def test_binary_signalling_nan_is_rejected_without_a_warning(tmp_path):
    path = tmp_path / "vectors.emb"
    nan = np.array([0x7FA00000], dtype="<u4").tobytes()  # a float32 signalling NaN
    path.write_bytes(b"EMB1" + struct.pack("<QQ", 1, 2) + nan + np.float32(1.0).tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^vectors must be finite$"):
            density.load_embeddings(path)


@pytest.mark.parametrize("char", ["\n", "\r", "\t", "\x00", "\x1f", "\x7f"])
def test_from_array_rejects_control_character_in_id(char):
    # a CSV saved with such an id would not load again
    bad = f"a{char}b"
    with pytest.raises(ValueError) as info:
        EmbeddingSet(np.eye(3), ["x", "y", bad])
    assert str(info.value) == f"row 2: id {bad!r} holds the control character {char!r}"


def test_valid_ids_round_trip_through_csv(tmp_path):
    ids = ["plain", "comma,inside", 'quote"inside', " padded ", "\u00fcn\u00efc\u00f8d\u00e9", "",
           "7", "7"]
    vectors = np.random.default_rng(0).standard_normal((len(ids), 3))
    path = tmp_path / "vectors.csv"
    density.save_embeddings(path, EmbeddingSet(vectors, ids))
    loaded = density.load_embeddings(path)
    assert loaded.ids == tuple(ids)
    assert np.array_equal(loaded.vectors, vectors)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "vectors.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(EmbeddingFormatError):
        density.load_embeddings(path)


def test_normalize_flag(tmp_path):
    emb = EmbeddingSet(np.array([[3.0, 4.0], [0.0, 2.0]]))
    path = tmp_path / "v.csv"
    density.save_embeddings(path, emb)
    loaded = density.load_embeddings(path, normalize=True)
    assert np.allclose(np.linalg.norm(loaded.vectors, axis=1), 1.0)
