"""The JSON document checks, and the four readers built on them.

Law files, fit configs, synth specs and manifests all go through
``subscale.jsondoc``.  The property tests start from a valid document of each
kind and replace one key (or the whole document) with an arbitrary JSON value,
or delete it: each reader must then return a value or raise a named error,
``ValueError`` or ``SubscaleError``, and never a ``TypeError``, ``KeyError``,
``OverflowError`` or ``AttributeError``.  At CLI level such a document must
never end in a traceback.
"""

import contextlib
import copy
import io
import json
import math
import re
import warnings

import pytest

from subscale import fit, jsondoc, laws, runs, synth
from subscale.cli import main
from subscale.errors import SubscaleError

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# ---------------------------------------------------------------------------
# One wording per fault
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "check, value, message",
    [
        (jsondoc.obj, [1], "doc 'x' must be a JSON object, not a list"),
        (jsondoc.obj, None, "doc 'x' must be a JSON object, not a NoneType"),
        (jsondoc.array, {}, "doc 'x' must be a list, not a dict"),
        (jsondoc.array, "ab", "doc 'x' must be a list, not a str"),
        (jsondoc.number, True, "doc 'x' must be a finite number, got True"),
        (jsondoc.number, math.nan, "doc 'x' must be a finite number, got nan"),
        (jsondoc.number, -math.inf, "doc 'x' must be a finite number, got -inf"),
        (jsondoc.number, "1", "doc 'x' must be a finite number, got '1'"),
        (jsondoc.integer, 2.5, "doc 'x' must be an integer, got 2.5"),
        (jsondoc.integer, False, "doc 'x' must be an integer, got False"),
        (jsondoc.integer, math.inf, "doc 'x' must be an integer, got inf"),
        (jsondoc.integer, None, "doc 'x' must be an integer, got None"),
    ],
    ids=["obj-list", "obj-null", "array-object", "array-string", "number-bool", "number-nan",
         "number-inf", "number-string", "integer-fraction", "integer-bool", "integer-inf",
         "integer-null"],
)
def test_each_fault_has_one_wording(check, value, message):
    with pytest.raises(ValueError) as err:
        check(value, "doc 'x'")
    assert str(err.value) == message


def test_number_beyond_the_float_range_is_not_finite():
    with pytest.raises(ValueError, match="must be a finite number"):
        jsondoc.number(10**400, "doc 'x'")
    assert jsondoc.number(3, "doc 'x'") == 3.0
    assert type(jsondoc.number(3, "doc 'x'")) is float


def test_integer_takes_integral_floats_and_keeps_big_integers_exact():
    assert jsondoc.integer(1000.0, "doc 'x'") == 1000
    assert type(jsondoc.integer(1000.0, "doc 'x'")) is int
    assert jsondoc.integer(10**400, "doc 'x'") == 10**400


@pytest.mark.parametrize(
    "value", [2**53, -(2**53), 2.0**53, 1e300, 10**300],
    ids=["2^53", "-2^53", "2.0^53", "1e300", "301-digit"],
)
def test_integer_limit_rejects_magnitudes_from_the_limit_on(value):
    with pytest.raises(ValueError) as err:
        jsondoc.integer(value, "doc 'x'", runs._MAX_COUNT)
    assert str(err.value) == (
        f"doc 'x' must be an integer below 9007199254740992 in magnitude, got {value!r}"
    )


def test_integer_limit_keeps_counts_below_it():
    limit = runs._MAX_COUNT
    assert jsondoc.integer(2**53 - 1, "doc 'x'", limit) == 2**53 - 1
    assert jsondoc.integer(-(2.0**52), "doc 'x'", limit) == -(2**52)


def test_get_names_the_document_and_the_missing_key():
    assert jsondoc.get({"a": None}, "a", "doc") is None
    with pytest.raises(ValueError, match="^doc: missing field 'b'$"):
        jsondoc.get({"a": 1}, "b", "doc")
    with pytest.raises(ValueError, match="^doc must be a JSON object, not a int$"):
        jsondoc.get(3, "b", "doc")


def test_load_reads_utf8_json(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(json.dumps({"tag": "模"}, ensure_ascii=False).encode("utf-8"))
    assert jsondoc.load(path, "doc") == {"tag": "模"}
    path.write_text("{")
    with pytest.raises(ValueError, match=f"^doc {re.escape(str(path))} is not valid JSON: "):
        jsondoc.load(path, "doc")


# ---------------------------------------------------------------------------
# Property: a fuzzed document is read or rejected by name
# ---------------------------------------------------------------------------

_LAW = laws.params_to_dict(
    laws.SubOptimalParams(1.372, 61.929, 0.272, 455.345, 0.289, 0.00810, 0.00114)
)
_POWER = {"family": "power", "lambda": 3.0, "alpha": 0.3}
_CONFIG = {
    "residual_space": "log",
    "robust_delta": 0.001,
    "multistart_grid": {"alpha": [0.1, 0.3]},
    "bounds": {"alpha": [0.01, 1.0]},
    "max_iters": 50,
    "tolerance": 1e-12,
}
_CURVES = {
    "kind": "curves",
    "law": _POWER,
    "model_sizes": [1000, 3000],
    "token_checkpoints": [[10, 20, 30], [10, 40, 90]],
    "noise_sigma": 0.01,
    "seed": 4,
}
_BLOBS = {
    "kind": "blobs",
    "k": 2,
    "dim": 2,
    "per_cluster": [
        {"n_samples": 5, "centroid": [0.0, 1.0], "spread": 0.5},
        {"n_samples": 3, "centroid": [4.0, 1.0], "spread": 0.2},
    ],
    "seed": 1,
}
# the names a manifest argv is drawn from: commands and options, never a path
_ARGV_NAMES = [
    "ingest", "fit", "predict", "compare", "alloc", "sweep", "density", "select", "synth",
    "report", "--family", "--config", "--split-fraction", "--params", "--law", "--budget",
    "--sweep", "--otr-points", "--k", "--seed", "--max-iters", "--keep-fraction",
    "--normalize", "--spec", "--format", "--smooth-window", "-o", "--out",
]
_MANIFEST = {
    "tool": "subscale",
    "version": "0",
    "command": "fit",
    "argv": ["fit", "--family", "power"],
    "inputs": {},
    "tables": [],
    "plots": [],
    "seed": None,
}
_DELETE = object()

# values that have broken a reader: each is tried at every key of a document
_HOSTILE = [
    None, True, False, 0, -1, 2.5, 1000.0, 2**53, 2**60, 10**300, 10**400, -(10**400),
    math.nan, math.inf, -math.inf, 1e300, "", "x", [], [1], {}, {"a": 1}, _DELETE,
]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abkz_", max_size=4), inner, max_size=3),
    max_leaves=8,
)
_values = st.sampled_from(_HOSTILE) | _json_values


def _paths(doc, prefix=()):
    """The path of the document itself and of every key and item inside it."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    """``doc`` with the key at ``path`` set to ``value``, or deleted for _DELETE."""
    if not path:
        return {} if value is _DELETE else value
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


# file -> value, as the CLI reads each kind of document
_READERS = {
    "law": lambda path: laws.params_from_dict(jsondoc.load(path, "law file")),
    "config": lambda path: fit.FitConfig.from_dict(jsondoc.load(path, "fit config")),
    "spec": synth.load_spec,
}


def _read(kind, path, doc):
    """The value read from ``doc`` written as JSON, or the named error raised."""
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        return _READERS[kind](path)
    except (ValueError, SubscaleError) as exc:
        return exc


_SETTINGS = hypothesis.settings(max_examples=100, deadline=None, derandomize=True)


@pytest.mark.parametrize(
    "kind, doc",
    [("law", _LAW), ("law", _POWER), ("config", _CONFIG), ("spec", _BLOBS)],
    ids=["law", "power-law", "config", "blobs"],
)
def test_fuzzed_document_is_read_or_rejected_by_name(tmp_path, kind, doc):
    # a blobs spec is only read: a fuzzed n_samples must not allocate
    assert not isinstance(_read(kind, tmp_path / "doc.json", doc), Exception)

    @_SETTINGS
    @hypothesis.given(_values)
    def check(value):
        for path in _paths(doc):
            _read(kind, tmp_path / "doc.json", _replaced(doc, path, value))

    check()


def test_fuzzed_curves_spec_is_rejected_or_round_trips(tmp_path):
    @_SETTINGS
    @hypothesis.given(_values)
    def check(value):
        for path in _paths(_CURVES):
            spec = _read("spec", tmp_path / "doc.json", _replaced(_CURVES, path, value))
            if isinstance(spec, Exception):
                continue
            try:
                series = synth.gen_curves(spec)
            except SubscaleError as exc:
                # counts are bounded when read, but a huge noise or law value
                # can still drive a loss to 0 or infinity: the validator names it
                assert path[:1] in (("noise_sigma",), ("law",)), (path, exc)
                assert "loss" in str(exc)
                continue
            runs.write_csv(series, tmp_path / "runs.csv")
            assert runs.ingest(tmp_path / "runs.csv").records == series.records

    check()


# ---------------------------------------------------------------------------
# Property: at CLI level a fuzzed document exits 1, never with a traceback
# ---------------------------------------------------------------------------


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``; warnings are errors."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
    return code, err.getvalue()


@st.composite
def _fuzzed(draw, doc):
    """``doc`` with one key, drawn at random, replaced or deleted."""
    return _replaced(doc, draw(st.sampled_from(list(_paths(doc)))), draw(_values))


@pytest.mark.parametrize("command", ["fit", "alloc", "report"])
def test_fuzzed_document_on_the_cli_never_ends_in_a_traceback(
    tmp_path, monkeypatch, command
):
    monkeypatch.chdir(tmp_path)  # a replayed relative path names nothing here
    runs_csv = tmp_path / "runs.csv"
    runs.write_csv(synth.gen_curves(synth.CurveSpec(
        law=laws.PowerLawParams(lam=3.0, alpha=0.3),
        model_sizes=(10**7,),
        token_checkpoints=(tuple(int(2e8 * 1.5**i) for i in range(16)),),
    )), runs_csv)
    doc_path = tmp_path / "doc.json"
    out = str(tmp_path / "out")
    if command == "fit":
        base, kind = _CONFIG, "config"
        argv = ["fit", str(runs_csv), "--family", "power", "--config", str(doc_path)]
        documents = _fuzzed(base)
    elif command == "alloc":
        base, kind = _LAW, "law"
        argv = ["alloc", "--law", str(doc_path), "--budget", "1e20", "--sweep"]
        documents = _fuzzed(base)
    else:
        base, kind = _MANIFEST, None
        argv = ["report", str(doc_path)]
        argvs = st.lists(st.sampled_from(_ARGV_NAMES), min_size=1, max_size=5)
        documents = _fuzzed(base) | argvs.map(lambda a: dict(_MANIFEST, argv=a))

    doc_path.write_text(json.dumps(base))
    code, err = _run(argv + ["-o", out])
    assert code == (1 if command == "report" else 0), err  # no input file is replayed

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(documents)
    def check(doc):
        doc_path.write_text(json.dumps(doc))
        code, err = _run(argv + ["-o", out])
        assert "Traceback" not in err
        if kind is None or isinstance(_read(kind, tmp_path / "read.json", doc), Exception):
            assert code == 1, err
        else:
            assert code in (0, 1, 2), err

    check()
