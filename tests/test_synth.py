import math

import numpy as np
import pytest

from subscale import density, fit, synth
from subscale.laws import PowerLawParams, SubOptimalParams
from subscale.rng import SplitMix64

REF = SubOptimalParams(1.372, 61.929, 0.272, 455.345, 0.289, 0.00810, 0.00114)


# ---------------------------------------------------------------------------
# portable RNG
# ---------------------------------------------------------------------------


def test_splitmix64_reference_outputs():
    # frozen from an independent transcription of the published update rule
    expected = {
        0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F),
        42: (0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52),
        1234567: (0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77),
    }
    for seed, outs in expected.items():
        rng = SplitMix64(seed)
        assert tuple(rng.next_uint64() for _ in range(3)) == outs


def test_uniform_in_unit_interval():
    rng = SplitMix64(1)
    values = rng.uniforms(2000)
    assert np.all(values > 0) and np.all(values <= 1)
    assert abs(values.mean() - 0.5) < 0.02


def test_box_muller_moments():
    rng = SplitMix64(2)
    z = rng.normals(4000)
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 1.0) < 0.05


def test_randint_range_and_determinism():
    a = SplitMix64(9)
    b = SplitMix64(9)
    va = [a.randint(7) for _ in range(100)]
    vb = [b.randint(7) for _ in range(100)]
    assert va == vb
    assert set(va) <= set(range(7))


# ---------------------------------------------------------------------------
# curve generation
# ---------------------------------------------------------------------------


def _small_spec(noise=0.0, seed=0):
    sizes = (10**7, 10**8)
    return synth.CurveSpec(
        law=REF,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, (5, 10, 20, 40)),
        noise_sigma=noise,
        seed=seed,
    )


def test_noiseless_curves_match_law_exactly():
    series = synth.gen_curves(_small_spec())
    for rec in series.records:
        from subscale.laws import eval_suboptimal

        assert rec.loss == eval_suboptimal(REF, rec.model_size, rec.tokens)


def test_same_seed_same_series():
    a = synth.gen_curves(_small_spec(noise=0.05, seed=123))
    b = synth.gen_curves(_small_spec(noise=0.05, seed=123))
    c = synth.gen_curves(_small_spec(noise=0.05, seed=124))
    assert a.records == b.records
    assert a.records != c.records


def test_ladder_grid_hand_value():
    # largest ladder entry at 20 tokens per parameter, evaluated by hand:
    # OTR = 20, so L = E + lam_n*(1+sigma(k2*20))/N^a_n + lam_d*(1+sigma(k1*20))/D^a_d
    size = synth.LADDER_MODEL_SIZES[-1]
    assert size == 7_030_000_000
    tokens = 20 * size
    s = lambda z: 1.0 / (1.0 + math.exp(-z))
    by_hand = (
        1.372
        + 61.929 * (1 + s(0.00114 * 20)) / size**0.272
        + 455.345 * (1 + s(0.00810 * 20)) / tokens**0.289
    )
    spec = synth.CurveSpec(
        law=REF,
        model_sizes=(size,),
        token_checkpoints=((tokens,),),
    )
    series = synth.gen_curves(spec)
    assert series.records[0].loss == pytest.approx(by_hand, rel=1e-12)
    assert series.records[0].loss == pytest.approx(1.9884809909116665, rel=1e-12)


def test_spec_json_roundtrip(tmp_path):
    spec = _small_spec(noise=0.01, seed=5)
    path = tmp_path / "spec.json"
    import json

    path.write_text(json.dumps(spec.to_dict()))
    loaded = synth.load_spec(path)
    assert loaded == spec
    assert synth.gen_curves(loaded).records == synth.gen_curves(spec).records


def test_noiseless_roundtrip_through_fitter():
    law = PowerLawParams(lam=3.0, alpha=0.3)
    sizes = (10**7,)
    spec = synth.CurveSpec(
        law=law,
        model_sizes=sizes,
        token_checkpoints=(tuple(int(2e8 * 1.5**i) for i in range(12)),),
    )
    series = synth.gen_curves(spec)
    result = fit.fit_law(series, "power")
    assert result.params.lam == pytest.approx(3.0, rel=1e-8)
    assert result.params.alpha == pytest.approx(0.3, rel=1e-8)


# ---------------------------------------------------------------------------
# blob generation
# ---------------------------------------------------------------------------


def test_single_blob_labels():
    spec = synth.BlobSpec(
        k=1, dim=3, per_cluster=(synth.BlobCluster(20, (1.0, 2.0, 3.0), 0.5),), seed=1
    )
    _, labels = synth.gen_blobs(spec)
    assert np.all(labels == 0)


def test_blob_means_near_centroids():
    spec = synth.BlobSpec(
        k=2,
        dim=4,
        per_cluster=(
            synth.BlobCluster(400, (0.0, 0.0, 0.0, 0.0), 0.7),
            synth.BlobCluster(300, (5.0, 5.0, 5.0, 5.0), 0.4),
        ),
        seed=8,
    )
    emb, labels = synth.gen_blobs(spec)
    for cid, blob in enumerate(spec.per_cluster):
        members = emb.vectors[labels == cid]
        bound = 3.0 * blob.spread / math.sqrt(blob.n_samples)
        assert np.all(np.abs(members.mean(axis=0) - np.array(blob.centroid)) < bound)


def test_separated_blobs_recovered_by_kmeans():
    spec = synth.BlobSpec(
        k=2,
        dim=3,
        per_cluster=(
            synth.BlobCluster(40, (0.0, 0.0, 0.0), 0.5),
            synth.BlobCluster(30, (20.0, 0.0, 0.0), 0.5),
        ),
        seed=13,
    )
    emb, labels = synth.gen_blobs(spec)
    clustering = density.kmeans(emb, 2, seed=0)
    # identical up to a relabeling of the two clusters
    mapping = {}
    ok = True
    for got, true in zip(clustering.assignment, labels):
        if got not in mapping:
            mapping[got] = true
        ok = ok and mapping[got] == true
    assert ok and len(mapping) == 2


def test_blob_radius_approaches_gaussian_mean_norm():
    dim, spread, n = 3, 0.9, 2500
    spec = synth.BlobSpec(
        k=1, dim=dim, per_cluster=(synth.BlobCluster(n, (0.0, 0.0, 0.0), spread),), seed=21
    )
    blob, _ = synth.gen_blobs(spec)
    # one distant row forms a second cluster, so the dataset radius is defined
    emb = density.EmbeddingSet(np.vstack([blob.vectors, np.full((1, dim), 1e3)]))
    clustering = density.kmeans(emb, 2, seed=0)
    cd = density.dataset_density(emb, clustering).per_cluster[clustering.assignment[0]]
    assert cd.n_samples == n
    # mean norm of an isotropic d-dim Gaussian: sigma*sqrt(2)*Gamma((d+1)/2)/Gamma(d/2)
    expected = spread * math.sqrt(2) * math.gamma((dim + 1) / 2) / math.gamma(dim / 2)
    assert cd.radius == pytest.approx(expected, rel=0.05)


def test_blob_spec_validation():
    with pytest.raises(ValueError):
        synth.BlobSpec(
            k=2,
            dim=2,
            per_cluster=(
                synth.BlobCluster(5, (0.0, 0.0), 1.0),
                synth.BlobCluster(5, (0.0, 0.0), 1.0),
            ),
        )
    with pytest.raises(ValueError):
        synth.BlobSpec(
            k=1, dim=2, per_cluster=(synth.BlobCluster(5, (0.0, 0.0), -1.0),)
        )
