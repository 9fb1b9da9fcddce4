"""Fuzzed runs files, embedding files and argv on the CLI: exit 0, 1 or 2, never a traceback.

Each draw starts from a valid file and breaks it a little: a cell or a JSON
value replaced by a hostile one, a line deleted or repeated, the bytes cut
short, a header count changed.  ``cli.main`` runs in process with warnings
as errors, so a numpy warning or an uncaught exception fails the test where
a user would have seen it on stderr.
"""

import contextlib
import io
import itertools
import json
import shutil
import struct
import warnings

import numpy as np
import pytest

from subscale import cli, density, laws, runs, synth
from subscale.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

REF = laws.SubOptimalParams(1.372, 61.929, 0.272, 455.345, 0.289, 0.00810, 0.00114)

_SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True)


def _assert_handled(argv) -> int:
    """``main(argv)`` exits 0, 1 or 2 with no traceback; warnings are errors."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue(), err.getvalue()
    return code


# text that a cell of a CSV file may hold instead of a number or an id
_CELLS = st.sampled_from([
    "", " ", "0", "-1", "1.5", "nan", "-inf", "inf", "1e400", "1e-400", "1e308",
    "9007199254740993", "1" * 5000, "0x10", "1_000", "١٢", "abc", '"', "a,b",
    "\x00", "\x7f", "\r", "\n", "\t", "é", "9" * 200_000,
]) | st.text(max_size=8)

# a JSON value that a JSONL record may hold instead of a number or an id
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _edited_lines(draw, lines):
    """``lines`` with a line deleted, repeated or swapped with the next, or as is."""
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["none", "delete", "repeat", "swap"]))
    if edit == "delete":
        del lines[i]
    elif edit == "repeat":
        lines.insert(i, lines[i])
    elif edit == "swap" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return lines


@st.composite
def _broken_bytes(draw, data: bytes) -> bytes:
    """``data`` cut short, with bytes spliced in, or as is."""
    cut = len(data) if draw(st.booleans()) else draw(st.integers(0, len(data)))
    at = draw(st.integers(0, cut))
    splice = draw(st.sampled_from([b"", b"\xff", b"\xc3", b"\x00", b"\r", b"\n", b"[" * 5000]))
    return data[:at] + splice + data[at:cut]


def _runs_series() -> runs.RunSeries:
    # two runs of 12 records: 24 records, so that a suboptimal fit can run
    sizes = synth.LADDER_MODEL_SIZES[:2]
    return synth.gen_curves(synth.CurveSpec(
        law=REF,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, np.geomspace(2.0, 1700.0, 12)),
        noise_sigma=0.01,
        seed=3,
    ))


@st.composite
def _csv_file(draw, text: str) -> bytes:
    """The bytes of ``text``, a CSV file with a header, with its rows and cells fuzzed."""
    header, *rows = text.splitlines()
    rows = draw(_edited_lines(rows))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        cells = rows[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_CELLS)
        rows[i] = ",".join(cells)
    return draw(_broken_bytes(("\n".join([header, *rows]) + "\n").encode("utf-8")))


@st.composite
def _runs_file(draw, csv_text: str, jsonl_text: str) -> tuple[str, bytes]:
    """A suffix and the bytes of a fuzzed runs file."""
    if draw(st.booleans()):
        return "csv", draw(_csv_file(csv_text))
    lines = draw(_edited_lines(jsonl_text.splitlines()))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[i])
        record[draw(st.sampled_from(sorted(record) + ["extra"]))] = draw(_JSON_VALUES)
        lines[i] = json.dumps(record)
    return "jsonl", draw(_broken_bytes(("\n".join(lines) + "\n").encode("utf-8")))


def test_fuzzed_runs_file_ingests_and_fits_or_is_rejected(tmp_path):
    series = _runs_series()
    runs.write_csv(series, tmp_path / "base.csv")
    runs.write_jsonl(series, tmp_path / "base.jsonl")
    csv_text = (tmp_path / "base.csv").read_text(encoding="utf-8")
    jsonl_text = (tmp_path / "base.jsonl").read_text(encoding="utf-8")
    out = str(tmp_path / "out")

    @_SETTINGS
    @hypothesis.given(
        _runs_file(csv_text, jsonl_text),
        st.integers(1, 13),
        st.sampled_from(["power", "suboptimal"]),
    )
    def check(file, window, family):
        suffix, data = file
        path = tmp_path / f"runs.{suffix}"
        path.write_bytes(data)
        _assert_handled(["ingest", str(path), "--smooth-window", str(window), "-o", out])
        # the whole file is fitted: its leading quarter is too short for suboptimal
        _assert_handled(
            ["fit", str(path), "--family", family, "--split-fraction", "1.0", "-o", out]
        )

    check()


def _embeddings() -> density.EmbeddingSet:
    rng = np.random.default_rng(5)
    return density.EmbeddingSet(
        np.vstack([rng.normal(0.0, 0.1, (6, 3)), rng.normal(2.0, 0.1, (6, 3))])
    )


# a float32 component that an EMB1 file may hold
_COMPONENTS = st.sampled_from([
    0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, 3.4e38, -3.4e38, 1e-45, 1e-38,
])


@st.composite
def _emb_file(draw, vectors: np.ndarray) -> bytes:
    """The bytes of a fuzzed EMB1 file: a component, a header count or the length changed."""
    vectors = vectors.astype("<f4")
    if draw(st.booleans()):
        row = draw(st.integers(0, vectors.shape[0] - 1))
        col = draw(st.integers(0, vectors.shape[1] - 1))
        vectors[row, col] = draw(_COMPONENTS)
    if draw(st.booleans()):
        vectors = vectors[: draw(st.integers(0, vectors.shape[0]))]
    count, dim = vectors.shape
    counts = st.sampled_from([0, 1, 2, 2**31, 2**32, 2**63, 2**64 - 1])
    dim = draw(st.sampled_from([dim]) | counts)
    count = draw(st.sampled_from([count]) | counts)
    data = struct.pack("<4sQQ", b"EMB1", dim, count) + vectors.tobytes()
    return draw(_broken_bytes(data))


def test_fuzzed_embedding_file_is_measured_or_rejected(tmp_path):
    embeddings = _embeddings()
    density.save_embeddings(tmp_path / "base.csv", embeddings)
    csv_text = (tmp_path / "base.csv").read_text(encoding="utf-8")
    out = str(tmp_path / "out")

    @_SETTINGS
    @hypothesis.given(
        st.one_of(
            _emb_file(embeddings.vectors).map(lambda data: ("emb", data)),
            _csv_file(csv_text).map(lambda data: ("csv", data)),
        ),
        st.booleans(),
    )
    def check(file, normalize):
        suffix, data = file
        path = tmp_path / f"embeddings.{suffix}"
        path.write_bytes(data)
        _assert_handled(
            ["density", str(path), "--k", "2", "-o", out] + (["--normalize"] if normalize else [])
        )

    check()


# ---------------------------------------------------------------------------
# Fuzzed argv: every command, with options set to edge values
# ---------------------------------------------------------------------------

_FLOATS = [
    "0", "-0.0", "0.25", "0.5", "1", "1.0", "2", "-1", "5e-324", "1e-300", "1e20", "1e300",
    "1e308", "inf", "-inf", "nan", "x", "",
]
# counts come only from fixed edges: one between 10**4 and 2**60 could make
# numpy really allocate terabytes on a host that overcommits memory
_COUNTS = [
    str(-(2**63)), "-1", "0", "1", "2", "3", "10", "10000", str(2**60), str(2**62), str(2**63),
    str(2**64), "1.5", "x",
]
_SEEDS = ["0", "1", str(2**64 - 1), str(2**64), "-1", str(-(2**64)), "x"]


def _commands(tmp_path) -> dict:
    """Command name -> (a valid argv without -o, option -> values; None for a flag)."""
    runs_csv = tmp_path / "runs.csv"
    runs.write_csv(_runs_series(), runs_csv)
    emb = tmp_path / "embeddings.emb"
    density.save_embeddings(emb, _embeddings())
    law = tmp_path / "law.json"
    law.write_text(json.dumps(laws.params_to_dict(REF)))
    power_law = tmp_path / "power_law.json"
    power_law.write_text(json.dumps(laws.params_to_dict(laws.PowerLawParams(3.0, 0.3))))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_iters": 20}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(synth.CurveSpec(
        law=REF, model_sizes=(10**7,), token_checkpoints=((10**8, 2 * 10**8, 4 * 10**8),)
    ).to_dict()))
    assert main(["ingest", str(runs_csv), "-o", str(tmp_path / "recorded")]) == 0
    missing = str(tmp_path / "missing.json")
    families = [*cli._FAMILY_CHOICES, "nope"]
    fit_options = {
        "--family": families, "--config": [str(config), missing], "--split-fraction": _FLOATS,
        "--seed": _SEEDS, "--threads": _COUNTS,
    }
    grid = {"--budget": _FLOATS, "--otr-min": _FLOATS, "--otr-max": _FLOATS,
            "--otr-points": _COUNTS}
    clusters = {"--k": _COUNTS, "--seed": _SEEDS, "--max-iters": _COUNTS, "--normalize": None}
    return {
        "ingest": (["ingest", str(runs_csv)], {
            "--format": ["csv", "jsonl", "xml"], "--smooth-window": _COUNTS,
            "--smooth-sigma": _FLOATS,
        }),
        "fit": (["fit", str(runs_csv), "--family", "power"], fit_options),
        "compare": (["compare", str(runs_csv)], fit_options),
        "predict": (["predict", str(runs_csv), "--params", str(law)], {
            "--family": families, "--params": [str(law), str(power_law), missing],
        }),
        "alloc": (["alloc", "--law", str(law), "--budget", "1e20"], {
            **grid, "--n-min": _FLOATS, "--n-max": _FLOATS, "--sweep": None,
        }),
        "sweep": (["sweep", "--law", str(law), "--budget", "1e20"], grid),
        "density": (["density", str(emb), "--k", "2"], clusters),
        "select": (["select", str(emb), "--k", "2", "--keep-fraction", "0.5"], {
            **clusters, "--keep-fraction": _FLOATS, "--target-log-density": _FLOATS,
        }),
        "synth": (["synth", "--spec", str(spec)], {
            "--seed": _SEEDS, "--runs-format": ["csv", "jsonl", "x"],
            "--emb-format": ["emb", "csv", "x"],
        }),
        "report": (["report", str(tmp_path / "recorded" / "manifest.json")], {}),
    }


def _token(option, value) -> str:
    """One argv token: a flag bare, any other value after ``=``, so "-1" stays a value."""
    return option if value is None else f"{option}={value}"


@st.composite
def _argv(draw, base, options) -> list:
    """``base`` with up to three options set."""
    argv = list(base)
    for option in draw(st.lists(st.sampled_from(sorted(options)), max_size=3)):
        argv.append(_token(option, draw(st.sampled_from(options[option] or [None]))))
    return argv


_COMMANDS = ["alloc", "compare", "density", "fit", "ingest", "predict", "report", "select",
             "sweep", "synth"]


def test_every_command_is_fuzzed():
    assert set(_COMMANDS) == set(cli.build_parser()._actions[-1].choices)


@pytest.mark.parametrize("command", _COMMANDS)
def test_fuzzed_argv_exits_0_1_or_2_and_leaves_no_output_on_exit_1(
    tmp_path, monkeypatch, command
):
    # each option alone at each of its values, then up to three drawn together
    monkeypatch.chdir(tmp_path)
    base, options = _commands(tmp_path)[command]
    names = (tmp_path / f"out{i}" for i in itertools.count())

    def run(argv):
        out = next(names)
        if _assert_handled(argv + ["-o", str(out)]) == 1:
            assert not out.exists(), argv
        shutil.rmtree(out, ignore_errors=True)

    for option, values in options.items():
        for value in values or [None]:
            run(base + [_token(option, value)])

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(_argv(base, options) if options else st.just(base))
    def check(argv):
        run(argv)

    check()
