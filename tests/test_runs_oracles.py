"""The schema-driven runs reader and writers against the code they replaced.

``runs`` used to spell the eight record fields out by hand in its reader,
its validator and both writers.  Frozen copies of that code are kept below
only as oracles: on valid series the new writers must give the same bytes,
and on rows with several faults at once ``ingest`` must raise the same error
first.  The one intended difference, numpy scalars, which the old writers
wrote as ``np.float64(2.5)`` or could not write at all, is covered by the
round-trip property test here and by ``test_runs.py``.

``gaussian_smooth`` used to build an index array and a mask for every
record's window; a frozen copy of that loop is the oracle for the sliced
windows, which must give every smoothed loss bit for bit.
"""

import csv
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from subscale import laws, runs, synth
from subscale.errors import (
    CONTROL_CHARACTER,
    MalformedRecord,
    MissingColumn,
    NonMonotoneTokens,
    NonPositiveValue,
)

REF = laws.SubOptimalParams(1.372, 61.929, 0.272, 455.345, 0.289, 0.00810, 0.00114)

# ---------------------------------------------------------------------------
# Reference: the hand-written reader, validator and writers
# ---------------------------------------------------------------------------

_REF_COLUMNS = (
    "run_id",
    "model_size",
    "tokens",
    "loss",
    "step",
    "batch_size",
    "learning_rate",
    "dataset_tag",
)
_REF_REQUIRED = ("run_id", "model_size", "tokens", "loss")
_REF_MAX_COUNT = 2**53


def _ref_validate_records(records) -> None:
    if not records:
        raise MalformedRecord(0, "series has no records")
    last_tokens = {}
    for row, rec in enumerate(records, start=1):
        for field in ("model_size", "tokens", "loss"):
            value = getattr(rec, field)
            if not value > 0:
                raise NonPositiveValue(row, field, value)
        if rec.batch_size is not None and not rec.batch_size > 0:
            raise NonPositiveValue(row, "batch_size", rec.batch_size)
        if rec.learning_rate is not None and not rec.learning_rate > 0:
            raise NonPositiveValue(row, "learning_rate", rec.learning_rate)
        if not math.isfinite(rec.loss):
            raise MalformedRecord(row, f"loss is not finite: {rec.loss!r}")
        prev = last_tokens.get(rec.run_id)
        if prev is not None and rec.tokens <= prev:
            raise NonMonotoneTokens(rec.run_id, row)
        last_tokens[rec.run_id] = rec.tokens


def _ref_parse_count(text, row, field):
    if text is None or text == "":
        return None
    if isinstance(text, bool):
        raise MalformedRecord(row, f"{field}={text!r} is not an integer count")
    value = text if isinstance(text, int) else None
    if isinstance(text, str):
        try:
            value = int(text)
        except ValueError:
            pass
    if value is None:
        try:
            number = float(text)
        except (TypeError, ValueError):
            raise MalformedRecord(row, f"{field}={text!r} is not numeric") from None
        if not math.isfinite(number) or number != int(number):
            raise MalformedRecord(row, f"{field}={text!r} is not an integer count")
        if abs(number) >= _REF_MAX_COUNT:
            raise MalformedRecord(
                row, f"{field}={text!r} is a decimal at or above 2^53; write an integer"
            )
        value = int(number)
    if abs(value) > _REF_MAX_COUNT:
        raise MalformedRecord(row, f"{field}={text!r} exceeds 2^53")
    return value


def _ref_parse_float(text, row, field):
    if text is None or text == "":
        return None
    try:
        return float(text)
    except (TypeError, ValueError):
        raise MalformedRecord(row, f"{field}={text!r} is not numeric") from None


def _ref_record_from_mapping(raw, row):
    for key in _REF_REQUIRED:
        if key not in raw or raw[key] in (None, ""):
            raise MissingColumn(key)
    tag = raw.get("dataset_tag")
    run_id = str(raw["run_id"])
    control = CONTROL_CHARACTER.search(run_id)
    if control:
        raise MalformedRecord(
            row, f"run_id {run_id!r} holds the control character {control.group()!r}"
        )
    return runs.TrainingRun(
        run_id=run_id,
        model_size=_ref_parse_count(raw["model_size"], row, "model_size"),
        tokens=_ref_parse_count(raw["tokens"], row, "tokens"),
        loss=_ref_parse_float(raw["loss"], row, "loss"),
        step=_ref_parse_count(raw.get("step"), row, "step"),
        batch_size=_ref_parse_count(raw.get("batch_size"), row, "batch_size"),
        learning_rate=_ref_parse_float(raw.get("learning_rate"), row, "learning_rate"),
        dataset_tag=str(tag) if tag not in (None, "") else None,
    )


def _ref_write_csv(series, path):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REF_COLUMNS)
        for rec in series.records:
            writer.writerow(
                [
                    rec.run_id,
                    rec.model_size,
                    rec.tokens,
                    repr(rec.loss),
                    "" if rec.step is None else rec.step,
                    "" if rec.batch_size is None else rec.batch_size,
                    "" if rec.learning_rate is None else repr(rec.learning_rate),
                    "" if rec.dataset_tag is None else rec.dataset_tag,
                ]
            )


def _ref_write_jsonl(series, path):
    with path.open("w", encoding="utf-8") as fh:
        for rec in series.records:
            obj = {
                "run_id": rec.run_id,
                "model_size": rec.model_size,
                "tokens": rec.tokens,
                "loss": rec.loss,
                "step": rec.step,
                "batch_size": rec.batch_size,
                "learning_rate": rec.learning_rate,
                "dataset_tag": rec.dataset_tag,
            }
            fh.write(json.dumps(obj) + "\n")


def test_schema_is_the_record_fields():
    assert runs.CSV_COLUMNS == _REF_COLUMNS
    assert runs._REQUIRED_COLUMNS == _REF_REQUIRED


# ---------------------------------------------------------------------------
# Bytes: noisy 11-size ladders with odd run ids and sparse optional fields
# ---------------------------------------------------------------------------

_ODD_IDS = ('run,{i}', 'say "{i}"', "größe-{i} 模型", '{i}, "both" ü', " {i} ")


def _ladder(seed):
    sizes = synth.LADDER_MODEL_SIZES
    spec = synth.CurveSpec(
        law=REF,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, np.geomspace(2.0, 1700.0, 20)),
        noise_sigma=0.01,
        seed=seed,
    )
    ids = {}
    records = []
    for i, rec in enumerate(synth.gen_curves(spec).records):
        run_id = ids.setdefault(
            rec.run_id, _ODD_IDS[len(ids) % len(_ODD_IDS)].format(i=len(ids))
        )
        records.append(
            dataclasses.replace(
                rec,
                run_id=run_id,
                step=rec.step if i % 3 else None,
                batch_size=2 ** (5 + i % 7) if i % 4 else None,
                learning_rate=3e-4 * 1.3 ** (i % 9) if i % 5 else None,
                dataset_tag=("synthetic", None, "c4, \"en\"")[i % 3],
            )
        )
    return runs.RunSeries(records)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "write, ref_write, suffix",
    [(runs.write_csv, _ref_write_csv, "csv"), (runs.write_jsonl, _ref_write_jsonl, "jsonl")],
    ids=["csv", "jsonl"],
)
def test_written_bytes_match_reference(tmp_path, seed, write, ref_write, suffix):
    series = _ladder(seed)
    new, ref = tmp_path / f"new.{suffix}", tmp_path / f"ref.{suffix}"
    write(series, new)
    ref_write(series, ref)
    assert new.read_bytes() == ref.read_bytes()
    assert runs.ingest(new).records == series.records


# ---------------------------------------------------------------------------
# First error: rows with one, two or three faults
# ---------------------------------------------------------------------------

_VALID = {
    "run_id": "a",
    "model_size": 10,
    "tokens": 200,
    "loss": 2.9,
    "step": 2,
    "batch_size": 64,
    "learning_rate": 1e-3,
    "dataset_tag": "web",
}
# (name, field, value); a value of None deletes the key (JSONL) or empties
# the cell (CSV)
_FAULTS = [
    ("no_model_size", "model_size", None),
    ("no_loss", "loss", None),
    ("control_id", "run_id", "a\rb"),
    ("control_id_tab", "run_id", "a\tb"),
    ("decimal_count", "model_size", "12.5"),
    ("text_count", "step", "two"),
    ("bad_float", "loss", "low"),
    ("bad_lr", "learning_rate", "1e-3x"),
    ("huge_tokens", "tokens", 2**53 + 1),
    ("huge_decimal", "batch_size", "9007199254740992.0"),
    ("true_batch", "batch_size", True),
    ("true_step", "step", True),
    ("zero_batch", "batch_size", 0),
    ("negative_loss", "loss", -1.0),
    ("infinite_loss", "loss", "inf"),
    ("zero_lr", "learning_rate", 0.0),
    ("old_tokens", "tokens", 100),
]


def _faulty_rows():
    cases = []
    for r in (1, 2, 3):
        for combo in itertools.combinations(_FAULTS, r):
            fields = [field for _, field, _ in combo]
            if len(set(fields)) == len(fields):
                cases.append(combo)
    return cases


def _write_rows(path, suffix, rows):
    if suffix == "jsonl":
        lines = [
            json.dumps({k: v for k, v in row.items() if v is not None}) for row in rows
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REF_COLUMNS)
        # JSON true has no CSV spelling; the cell reads "true"
        writer.writerows([str(row[k]).lower() if row[k] is True else row[k]
                          for k in _REF_COLUMNS] for row in rows)


def _error(path):
    try:
        runs.ingest(path)
    except Exception as exc:  # the exception is the result
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_first_error_matches_reference(tmp_path, monkeypatch, suffix):
    path = tmp_path / f"runs.{suffix}"
    first = dict(_VALID, tokens=100, step=1)
    cases = _faulty_rows()
    assert len(cases) > 500
    seen = set()
    for combo in cases:
        row = dict(_VALID)
        row.update({field: value for _, field, value in combo})
        _write_rows(path, suffix, [first, row])
        got = _error(path)
        with monkeypatch.context() as m:
            m.setattr(runs, "_record_from_mapping", _ref_record_from_mapping)
            m.setattr(runs, "_validate_records", _ref_validate_records)
            want = _error(path)
        assert want is not None, [name for name, _, _ in combo]
        assert got == want, [name for name, _, _ in combo]
        seen.add(want[0])
    assert seen == {MissingColumn, MalformedRecord, NonPositiveValue, NonMonotoneTokens}


# ---------------------------------------------------------------------------
# Property: write -> ingest gives equal records
# ---------------------------------------------------------------------------


def test_write_ingest_round_trip_property(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # no surrogates (not UTF-8) and no control characters (not an id)
    text = st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters=[
            chr(c) for c in (*range(0x20), 0x7F)
        ]) | st.sampled_from([",", '"', "ü", "模"]),
        min_size=1,
        max_size=8,
    )
    counts = st.integers(1, 2**53)
    floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

    def optional(strategy):
        return st.none() | strategy

    @st.composite
    def series(draw):
        ids = draw(st.lists(text, min_size=1, max_size=4, unique=True))
        records = []
        for run_id in ids:
            tokens = draw(st.lists(counts, min_size=1, max_size=4, unique=True))
            for t in sorted(tokens):
                records.append(runs.TrainingRun(
                    run_id,
                    draw(counts),
                    t,
                    draw(floats),
                    step=draw(optional(st.integers(-(2**53), 2**53))),
                    batch_size=draw(optional(counts)),
                    learning_rate=draw(optional(floats)),
                    dataset_tag=draw(optional(text)),
                ))
        if draw(st.booleans()):  # the same values as numpy scalars
            records = [
                dataclasses.replace(
                    r,
                    **{f: (np.float64 if isinstance(v, float) else np.int64)(v)
                       for f, v in dataclasses.asdict(r).items()
                       if isinstance(v, (int, float))},
                )
                for r in records
            ]
        return runs.RunSeries(records)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(series())
    def check(s):
        for write, name in ((runs.write_csv, "x.csv"), (runs.write_jsonl, "x.jsonl")):
            with np.printoptions(legacy="1.13"):  # a numpy float's str has 12 digits
                write(s, tmp_path / name)
            again = runs.ingest(tmp_path / name)
            assert again.records == s.records
            assert all(type(v) in (str, int, float, type(None))
                       for r in again.records for v in dataclasses.astuple(r))

    check()


def test_built_series_is_rejected_by_name_or_round_trips(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from subscale.errors import SubscaleError

    # values a runs file can hold, and values of every other kind
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
    big = st.integers(-(2**60), 2**60)
    wild = st.one_of(
        st.none(), st.booleans(), st.just(""), text, big, st.floats(),
        big.map(np.int64), st.floats(allow_nan=False).map(np.float64),
        st.sampled_from([2**53, -(2**53), 2**53 + 1, "1.0", np.True_]),
    )
    counts = st.integers(1, 2**53) | st.integers(1, 2**53).map(np.int64)
    floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

    def field(valid):
        return st.one_of(valid, valid, valid, wild)

    @st.composite
    def records(draw):
        out = []
        for tokens in range(1, draw(st.integers(1, 4)) + 1):
            out.append(runs.TrainingRun(
                draw(field(st.sampled_from(["a", "b"]))),
                draw(field(counts)),
                draw(field(st.just(tokens * 10))),
                draw(field(floats)),
                step=draw(field(st.none() | st.integers(-(2**53), 2**53))),
                batch_size=draw(field(st.none() | counts)),
                learning_rate=draw(field(st.none() | floats)),
                dataset_tag=draw(field(st.none() | text.filter(bool))),
            ))
        return out

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(records())
    def check(recs):
        try:
            series = runs.RunSeries(recs)
        except SubscaleError:
            return
        # a count beyond 2^53 is valid in Python, and only a runs file's rule
        beyond = any(
            not isinstance(getattr(r, f), (float, type(None))) and abs(getattr(r, f)) > 2**53
            for r in series.records for f in ("model_size", "tokens", "step", "batch_size")
        )
        for write, name in ((runs.write_csv, "x.csv"), (runs.write_jsonl, "x.jsonl")):
            write(series, tmp_path / name)
            if beyond:
                with pytest.raises(MalformedRecord, match=r"exceeds 2\^53"):
                    runs.ingest(tmp_path / name)
            else:
                assert runs.ingest(tmp_path / name).records == series.records

    check()


# ---------------------------------------------------------------------------
# Smoothing: the sliced windows against the masked loop they replaced
# ---------------------------------------------------------------------------


def _ref_smoothed_losses(series, window, sigma):
    if sigma is None:
        sigma = window / 4.0
    two_var = 2.0 * sigma * sigma
    offsets = np.arange(-(window // 2), (window - 1) // 2 + 1)
    with np.errstate(over="ignore"):
        kernel = np.exp(-(offsets.astype(float) ** 2) / two_var)
    out = [rec.loss for rec in series.records]
    for idx in runs.indices_by_run(series).values():
        losses = np.array([series.records[i].loss for i in idx], dtype=float)
        n = len(losses)
        for pos in range(n):
            j = pos + offsets
            valid = (j >= 0) & (j < n)
            w = kernel[valid]
            out[idx[pos]] = float(np.dot(w, losses[j[valid]]) / w.sum())
    return out


# 16, 17, 32 and 33 sit on either side of the block sizes of BLAS ddot kernels
@pytest.mark.parametrize("window", [1, 2, 3, 10, 16, 17, 32, 33])
@pytest.mark.parametrize("sigma", [None, 0.3], ids=["default-sigma", "small-sigma"])
def test_smoothed_losses_match_reference_loop(window, sigma):
    rng = np.random.default_rng(window)
    records = []
    # runs as long as the window, one longer, and several windows long
    for run, length in enumerate((window, window + 1, 3 * window + 7, 100)):
        # losses over six decades, so that a change of summation order shows
        losses = np.exp(rng.normal(0.0, 3.0, length))
        records += [
            runs.TrainingRun(f"r{run}", 10**6 * (run + 1), 1000 * (i + 1), float(loss))
            for i, loss in enumerate(losses)
        ]
    series = runs.RunSeries(records)
    got = [rec.loss for rec in runs.gaussian_smooth(series, window, sigma).records]
    assert got == _ref_smoothed_losses(series, window, sigma)
