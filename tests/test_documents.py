"""Each document type's constructor owns its field rules.

``FitConfig``, the three law params classes, ``CurveSpec``, ``BlobCluster``
and ``BlobSpec`` check and normalize every field when they are built, from a
file or in Python.  The property tests build each type from valid arguments
with one field replaced by an arbitrary value: a bool, an integral or
fractional float, inf or NaN, a numpy scalar, a string, None, a list or a
tuple.  The build must either raise a ValueError that names the field, or
give a value that round-trips through JSON text.

The data types ``RunSeries``, ``EmbeddingSet`` and ``Clustering`` check what
they are built from in the same way, and so does ``SplitMix64`` its seed.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from subscale import density, laws, rng, runs, synth
from subscale.errors import MalformedRecord, NonPositiveValue
from subscale.fit import FitConfig

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_SETTINGS = hypothesis.settings(max_examples=300, deadline=None, derandomize=True)

_NUMPY_SCALARS = st.one_of(
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_SCALARS = st.one_of(
    st.booleans(),
    st.integers(-3, 2**60),
    st.floats(),  # fractional and integral floats, infinities and NaN
    st.sampled_from([2.0, 1000.0, 0.5, -0.0, math.inf, -math.inf, math.nan]),
    _NUMPY_SCALARS,
    st.text(max_size=3),
    st.none(),
)
_ANY = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(
        st.sampled_from(["alpha", "alpha_n", "lambda", "k1", "e_irreducible", "alpah"]),
        inner,
        max_size=2,
    ),
    max_leaves=6,
)


@st.composite
def _arguments(draw, valid):
    """Valid arguments with at most one field replaced: (kwargs, replaced name or None)."""
    kwargs = draw(valid)
    name = draw(st.sampled_from([None, *kwargs]))
    if name is not None:
        kwargs[name] = draw(_ANY)
    return kwargs, name


def _names(message: str, aliases) -> bool:
    return any(re.search(rf"(?<!\w){re.escape(a)}(?!\w)", message) for a in aliases)


def _build(cls, kwargs, name, aliases):
    """``cls(**kwargs)``, or None after checking that the error names field ``name``
    or one of its ``aliases``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        assert name is not None, f"valid arguments rejected: {kwargs!r}: {exc}"
        assert _names(str(exc), (name, *aliases.get(name, ()))), (name, str(exc))
        return None


def _round_trip(value):
    return json.loads(json.dumps(value, allow_nan=False))


# ---------------------------------------------------------------------------
# Valid arguments
# ---------------------------------------------------------------------------

_positive = st.floats(min_value=1e-6, max_value=1e6)
_non_negative = st.floats(min_value=0.0, max_value=1e3)
_LAW_FIELDS = {
    laws.PowerLawParams: {"lam": _positive, "alpha": _positive},
    laws.ChinchillaParams: {
        "e_irreducible": _non_negative, "lambda_n": _positive, "alpha_n": _positive,
        "lambda_d": _positive, "alpha_d": _positive,
    },
}
_LAW_FIELDS[laws.SubOptimalParams] = {
    **_LAW_FIELDS[laws.ChinchillaParams], "k1": _non_negative, "k2": _non_negative,
}


def _law_kwargs(cls):
    return st.fixed_dictionaries(_LAW_FIELDS[cls])


_laws = st.one_of(*[_law_kwargs(c).map(lambda kw, c=c: c(**kw)) for c in _LAW_FIELDS])


@st.composite
def _curve_kwargs(draw):
    sizes = draw(st.lists(st.integers(1, 10**12), min_size=1, max_size=3))
    steps = st.lists(st.integers(1, 10**6), min_size=1, max_size=4)
    grids = [tuple(np.cumsum(draw(steps)).tolist()) for _ in sizes]
    return {
        "law": draw(_laws),
        "model_sizes": draw(st.sampled_from([list, tuple]))(sizes),
        "token_checkpoints": tuple(grids),
        "noise_sigma": draw(_non_negative),
        "seed": draw(st.integers(0, 2**64 - 1)),  # a SplitMix64 seed: 2**64 is rejected
    }


_cluster_kwargs = st.integers(1, 3).flatmap(
    lambda dim: st.fixed_dictionaries({
        "n_samples": st.integers(1, 50),
        "centroid": st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim),
        "spread": _positive,
    })
)


@st.composite
def _blob_kwargs(draw):
    dim = draw(st.integers(1, 3))
    centroids = draw(st.lists(
        st.tuples(*[st.floats(-1e3, 1e3)] * dim), min_size=1, max_size=3,
        unique_by=lambda c: tuple(v + 0.0 for v in c),  # 0.0 and -0.0 are one centroid
    ))
    clusters = [
        synth.BlobCluster(draw(st.integers(1, 50)), c, draw(_positive)) for c in centroids
    ]
    seed = draw(st.integers(0, 99))
    return {"k": len(clusters), "dim": dim, "per_cluster": clusters, "seed": seed}


_CONFIG_KWARGS = st.fixed_dictionaries({
    "residual_space": st.sampled_from(["log", "linear"]),
    "robust_delta": st.none() | _positive,
    "multistart_grid": st.none() | st.dictionaries(
        st.sampled_from(["alpha", "alpha_n", "k1"]),
        st.lists(_non_negative, min_size=1, max_size=3),
    ),
    "bounds": st.none() | st.dictionaries(
        st.sampled_from(["alpha", "alpha_d", "lambda", "e_irreducible"]),
        st.tuples(st.floats(0.5, 1.0), st.floats(1.5, 3.0)),
    ),
    "max_iters": st.integers(1, 500),
    "tolerance": _positive,
})


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", list(_LAW_FIELDS), ids=lambda cls: cls.__name__)
def test_law_params_reject_a_field_by_name_or_round_trip(cls):
    # a field is named by its attribute or by its JSON key
    aliases = {f: (key,) for f, key in zip(_LAW_FIELDS[cls], laws.param_keys(cls))}

    @_SETTINGS
    @hypothesis.given(_arguments(_law_kwargs(cls).map(dict)))
    def check(drawn):
        kwargs, name = drawn
        params = _build(cls, kwargs, name, aliases)
        if params is not None:
            assert all(type(getattr(params, f)) is float for f in _LAW_FIELDS[cls])
            assert laws.params_from_dict(_round_trip(laws.params_to_dict(params))) == params

    check()


def test_fit_config_rejects_a_field_by_name_or_equals_its_json_read():
    aliases = {"multistart_grid": ("multistart grid",)}

    @_SETTINGS
    @hypothesis.given(_arguments(_CONFIG_KWARGS))
    def check(drawn):
        kwargs, name = drawn
        config = _build(FitConfig, kwargs, name, aliases)
        if config is None:
            return
        assert FitConfig.from_dict(_round_trip(dataclasses.asdict(config))) == config
        try:
            text = json.dumps(kwargs, allow_nan=False)
        except TypeError:  # a numpy integer is no JSON value
            return
        assert FitConfig.from_dict(json.loads(text)) == config

    check()


def test_curve_spec_rejects_a_field_by_name_or_round_trips():
    aliases = {
        "model_sizes": ("model sizes", "model size"),
        "token_checkpoints": ("token checkpoints", "token checkpoint"),
    }

    @_SETTINGS
    @hypothesis.given(_arguments(_curve_kwargs()))
    def check(drawn):
        kwargs, name = drawn
        spec = _build(synth.CurveSpec, kwargs, name, aliases)
        if spec is None:
            return
        counts = [*spec.model_sizes, *(t for row in spec.token_checkpoints for t in row)]
        data = _round_trip(spec.to_dict())
        if max(abs(c) for c in counts) >= 2**53:
            # a runs file holds counts below 2^53, so a spec file must too
            with pytest.raises(ValueError, match="below 9007199254740992") as err:
                synth.CurveSpec.from_dict(data)
            assert _names(str(err.value), (name,))
        else:
            assert synth.CurveSpec.from_dict(data) == spec

    check()


def test_blob_cluster_rejects_a_field_by_name_or_round_trips():
    @_SETTINGS
    @hypothesis.given(_arguments(_cluster_kwargs))
    def check(drawn):
        kwargs, name = drawn
        cluster = _build(synth.BlobCluster, kwargs, name, {"spread": ("spreads",)})
        if cluster is None or not cluster.centroid:
            return
        spec = synth.BlobSpec(k=1, dim=len(cluster.centroid), per_cluster=(cluster,))
        assert synth.BlobSpec.from_dict(_round_trip(spec.to_dict())) == spec

    check()


def test_blob_spec_rejects_a_field_by_name_or_round_trips():
    aliases = {
        "dim": ("dimensionality",),
        # k and per_cluster are tied: a count mismatch names the cluster specs
        "per_cluster": ("cluster specs",),
    }

    @_SETTINGS
    @hypothesis.given(_arguments(_blob_kwargs()))
    def check(drawn):
        kwargs, name = drawn
        spec = _build(synth.BlobSpec, kwargs, name, aliases)
        if spec is not None:
            assert synth.BlobSpec.from_dict(_round_trip(spec.to_dict())) == spec

    check()


# ---------------------------------------------------------------------------
# Values built in Python that broke a rule a file keeps
# ---------------------------------------------------------------------------

_CLUSTER = synth.BlobCluster(3, (0.0, 1.0), 0.5)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FitConfig(max_iters=2.5), "fit config 'max_iters' must be an integer, got 2.5"),
        (lambda: FitConfig(bounds={"alpha": 5}),
         "fit config 'bounds.alpha' must be a list, not a int"),
        (lambda: FitConfig(robust_delta=True),
         "fit config 'robust_delta' must be a finite number, got True"),
        (lambda: laws.PowerLawParams(True, 0.5),
         "power law params: 'lambda' must be a finite number, got True"),
        (lambda: laws.ChinchillaParams(1.0, math.inf, 0.3, 400.0, 0.3),
         "chinchilla law params: 'lambda_n' must be a finite number, got inf"),
        (lambda: synth.CurveSpec(laws.PowerLawParams(3.0, 0.3), (True,), ((10, 20),)),
         "spec 'model_sizes' must be an integer, got True"),
        (lambda: synth.BlobSpec(k=1, dim=2.5, per_cluster=(_CLUSTER,)),
         "spec 'dim' must be an integer, got 2.5"),
    ],
    ids=["fractional-max_iters", "bounds-not-a-pair", "boolean-robust_delta", "boolean-lambda",
         "infinite-lambda_n", "boolean-model-size", "fractional-dim"],
)
def test_python_built_value_is_rejected_by_name(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_fit_config_fractional_max_iters_no_longer_runs_past_its_integer():
    # 2.5 once compared as a bound of the iteration count; now it is refused
    # and the integral float 2.0 is the integer 2
    assert FitConfig(max_iters=2.0).max_iters == 2
    assert type(FitConfig(max_iters=2.0).max_iters) is int


def test_power_law_with_integers_writes_json_floats():
    data = laws.params_to_dict(laws.PowerLawParams(3, 1))
    assert json.dumps(data) == '{"family": "power", "lambda": 3.0, "alpha": 1.0}'


def test_blob_spec_with_integral_float_dim_generates():
    spec = synth.BlobSpec(k=1, dim=2.0, per_cluster=(_CLUSTER,))
    assert spec.dim == 2 and type(spec.dim) is int
    embeddings, labels = synth.gen_blobs(spec)
    assert embeddings.vectors.shape == (3, 2)
    assert labels.tolist() == [0, 0, 0]


def test_numpy_scalars_are_normalized_to_plain_numbers():
    spec = synth.CurveSpec(
        laws.PowerLawParams(np.float32(3.0), np.float64(0.3)),
        model_sizes=np.array([1000, 2000]).tolist() + [np.int64(3000)],
        token_checkpoints=((10, 20), (10, 20), (np.int64(10), 20.0)),
        noise_sigma=np.float64(0.0),
        seed=np.int64(4),
    )
    assert spec.model_sizes == (1000, 2000, 3000)
    assert type(spec.model_sizes[2]) is int and type(spec.token_checkpoints[2][1]) is int
    assert type(spec.law.lam) is float and type(spec.seed) is int
    assert json.dumps(spec.to_dict()) == json.dumps({
        "kind": "curves",
        "law": {"family": "power", "lambda": 3.0, "alpha": 0.3},
        "model_sizes": [1000, 2000, 3000],
        "token_checkpoints": [[10, 20], [10, 20], [10, 20]],
        "noise_sigma": 0.0,
        "seed": 4,
    })


def test_spec_writers_keep_their_key_order():
    law = laws.SubOptimalParams(1.372, 61.929, 0.272, 455.345, 0.289, 0.00810, 0.00114)
    curves = synth.CurveSpec(law, (1000,), ((10, 20),), noise_sigma=0.01, seed=3)
    assert list(curves.to_dict()) == [
        "kind", "law", "model_sizes", "token_checkpoints", "noise_sigma", "seed"
    ]
    assert list(curves.to_dict()["law"]) == ["family", *laws.param_keys(type(law))]
    blobs = synth.BlobSpec(
        k=2, dim=2, per_cluster=(_CLUSTER, synth.BlobCluster(2, (4.0, 1.0), 0.2)), seed=1
    )
    assert json.dumps(blobs.to_dict()) == (
        '{"kind": "blobs", "k": 2, "dim": 2, "per_cluster": ['
        '{"n_samples": 3, "centroid": [0.0, 1.0], "spread": 0.5}, '
        '{"n_samples": 2, "centroid": [4.0, 1.0], "spread": 0.2}], "seed": 1}'
    )


# ---------------------------------------------------------------------------
# Data types and seeds: checked when built, by the library as by a caller
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: runs.RunSeries((runs.TrainingRun("a", -5, 10, 2.0),)), NonPositiveValue,
         "row 1: model_size must be > 0, got -5"),
        (lambda: runs.RunSeries((runs.TrainingRun("a", 5, 10, -1.0),)), NonPositiveValue,
         "row 1: loss must be > 0, got -1.0"),
        (lambda: runs.RunSeries(()), MalformedRecord, "row 0: series has no records"),
        (lambda: density.EmbeddingSet(np.array([[np.nan, 1.0]])), ValueError,
         "vectors must be finite"),
        (lambda: density.EmbeddingSet(np.ones((6, 2)), ids=("a",)), ValueError,
         "ids length must match number of rows"),
        (lambda: density.EmbeddingSet(np.arange(3.0)), ValueError,
         "vectors must be a non-empty 2D array"),
        (lambda: density.Clustering(np.zeros(6, int), np.zeros((2, 2))), ValueError,
         "every cluster must have at least one member"),
        (lambda: density.Clustering(np.full(6, 5), np.zeros((2, 2))), ValueError,
         "assignment indices out of range"),
    ],
    ids=["negative-model-size", "negative-loss", "empty-series", "nan-vector",
         "short-ids", "one-dimensional-vectors", "empty-cluster", "cluster-out-of-range"],
)
def test_data_type_rejects_what_it_is_built_from(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def test_data_types_take_sequences_and_derive_their_fields():
    records = [runs.TrainingRun("a", 5, 10, 2.0), runs.TrainingRun("a", 5, 20, 1.5)]
    assert runs.RunSeries(records).records == tuple(records)
    emb = density.EmbeddingSet([[0.0, 1.0], [2.0, 3.0]])
    assert emb.ids == ("0", "1") and emb.vectors.dtype == float
    clustering = density.Clustering([1, 0, 1], [[0.0, 0.0], [2.0, 4.0]])
    assert clustering.k == 2
    assert clustering.grand_centroid.tolist() == [1.0, 2.0]
    # derived from the centroids, so a caller cannot contradict them
    with pytest.raises(TypeError):
        density.Clustering([0], [[0.0]], k=3)
    with pytest.raises(TypeError):
        density.Clustering([0], [[0.0]], grand_centroid=np.zeros(1))


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "seed must be in [0, 2^64), got -1"),
        (2**64, "seed must be in [0, 2^64), got 18446744073709551616"),
        (np.int64(-3), "seed must be in [0, 2^64), got np.int64(-3)"),
        (1.5, "seed must be an integer, got 1.5"),
        (2.0, "seed must be an integer, got 2.0"),
        (True, "seed must be an integer, got True"),
        ("7", "seed must be an integer, got '7'"),
        (None, "seed must be an integer, got None"),
    ],
    ids=["negative", "2^64", "negative-numpy", "fractional", "integral-float", "bool",
         "string", "none"],
)
def test_seed_outside_the_generators_range_is_rejected(seed, message):
    with pytest.raises(ValueError) as err:
        rng.SplitMix64(seed)
    assert str(err.value) == message
    emb = density.EmbeddingSet(np.arange(6.0).reshape(3, 2))
    for k in (2, 3):  # k == n returns the points themselves, and checks the seed too
        with pytest.raises(ValueError, match="^seed must be"):
            density.kmeans(emb, k, seed=seed)


@pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(7), np.uint8(0)],
                         ids=repr)
def test_numpy_integer_seed_gives_the_plain_integers_stream(seed):
    numpy_stream, plain_stream = rng.SplitMix64(seed), rng.SplitMix64(int(seed))
    assert [numpy_stream.next_uint64() for _ in range(3)] == [
        plain_stream.next_uint64() for _ in range(3)
    ]
