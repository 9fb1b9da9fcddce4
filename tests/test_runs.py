import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subscale import runs, synth
from subscale.errors import (
    MalformedRecord,
    MissingColumn,
    MissingField,
    NonMonotoneTokens,
    NonPositiveValue,
    TooFewRecords,
    WindowLargerThanRun,
)
from subscale.laws import PowerLawParams


def _series(rows):
    return runs.RunSeries(
        [runs.TrainingRun(run_id=r[0], model_size=r[1], tokens=r[2], loss=r[3]) for r in rows]
    )


# ---------------------------------------------------------------------------
# ingest / serialize
# ---------------------------------------------------------------------------


def test_ingest_csv_basic(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(
        "run_id,model_size,tokens,loss,step,batch_size,learning_rate,dataset_tag\n"
        "a,100000000,1000000000,3.2,1,,,\n"
        "a,100000000,2000000000,3.0,2,,,\n"
    )
    series = runs.ingest(path)
    assert len(series) == 2
    assert series.records[0].model_size == 10**8
    assert series.records[0].tokens == 10**9
    assert series.records[0].loss == 3.2
    assert series.records[1].loss == 3.0
    assert series.records[0].batch_size is None


def test_ingest_rejects_negative_loss(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(
        "run_id,model_size,tokens,loss,step,batch_size,learning_rate,dataset_tag\n"
        "a,10,100,3.0,,,,\n"
        "a,10,200,-1.0,,,,\n"
    )
    with pytest.raises(NonPositiveValue) as err:
        runs.ingest(path)
    assert err.value.row == 2
    assert err.value.field == "loss"


def test_ingest_missing_column(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("run_id,model_size,tokens\na,10,100\n")
    with pytest.raises(MissingColumn) as err:
        runs.ingest(path)
    assert err.value.column == "loss"


def test_ingest_non_monotone_tokens(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(
        "run_id,model_size,tokens,loss,step,batch_size,learning_rate,dataset_tag\n"
        "a,10,200,3.0,,,,\n"
        "a,10,100,2.9,,,,\n"
    )
    with pytest.raises(NonMonotoneTokens) as err:
        runs.ingest(path)
    assert err.value.run_id == "a"


@pytest.mark.parametrize(
    "value, message",
    [
        ("true", "model_size=True is not an integer count"),
        ("false", "model_size=False is not an integer count"),
        ("9007199254740993", "model_size=9007199254740993 exceeds 2^53"),
        ('"9007199254740993"', "model_size='9007199254740993' exceeds 2^53"),
        ("-9007199254740993", "exceeds 2^53"),
        ("9007199254740993.0", "model_size=9007199254740992.0 is a decimal at or above 2^53"),
        ("-9007199254740992.0", "is a decimal at or above 2^53"),
        ("12.5", "model_size=12.5 is not an integer count"),
    ],
)
def test_jsonl_count_rejected_with_row(tmp_path, value, message):
    path = tmp_path / "runs.jsonl"
    path.write_text(
        '{"run_id": "a", "model_size": 10, "tokens": 100, "loss": 3.0}\n'
        f'{{"run_id": "a", "model_size": {value}, "tokens": 200, "loss": 2.9}}\n'
    )
    with pytest.raises(MalformedRecord) as err:
        runs.ingest(path)
    assert err.value.row == 2 and message in str(err.value)


def test_csv_count_above_2_53_rejected_exactly(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(
        "run_id,model_size,tokens,loss\n"
        "a,10,9007199254740992,3.0\n"
        "b,10,9007199254740993,3.0\n"
    )
    with pytest.raises(MalformedRecord, match="tokens='9007199254740993' exceeds 2\\^53"):
        runs.ingest(path)

    # a decimal goes through a float, which holds 9007199254740993 as ...992
    path.write_text("run_id,model_size,tokens,loss\na,10,9007199254740993.0,3.0\n")
    with pytest.raises(MalformedRecord, match="tokens='9007199254740993.0' is a decimal"):
        runs.ingest(path)


def test_csv_field_beyond_the_csv_size_limit_is_named(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("run_id,model_size,tokens,loss\na,10,100,3.0\nb,10,100," + "9" * 200_000 + "\n")
    with pytest.raises(ValueError) as err:
        runs.ingest(path)
    assert str(err.value) == f"{path}: CSV line 3: field larger than field limit (131072)"


@pytest.mark.parametrize(
    "line, message",
    [("[" * 100_000, "row 2: invalid JSON: nested too deeply"),
     ('{"model_size": ' + "1" * 5000 + "}", "row 2: invalid JSON: Exceeds the limit (4300 digits)"),
     ('["a", 10, 100, 3.0]', "row 2: record is not a JSON object")],
    ids=["deep", "long-integer", "not-an-object"],
)
def test_jsonl_line_the_decoder_cannot_read_is_named(tmp_path, line, message):
    path = tmp_path / "runs.jsonl"
    path.write_text('{"run_id": "a", "model_size": 10, "tokens": 100, "loss": 3.0}\n' + line + "\n")
    with pytest.raises(MalformedRecord) as err:
        runs.ingest(path)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("suffix, infinity", [("csv", "inf"), ("jsonl", "Infinity")])
def test_ingest_rejects_non_finite_learning_rate(tmp_path, suffix, infinity):
    # inf > 0, so only the finiteness check stops it
    rows = [(100, "0.001"), (200, infinity)]
    if suffix == "csv":
        text = "run_id,model_size,tokens,loss,learning_rate\n" + "".join(
            f"a,10,{tokens},3.0,{lr}\n" for tokens, lr in rows
        )
    else:
        text = "".join(
            f'{{"run_id": "a", "model_size": 10, "tokens": {tokens}, "loss": 3.0, '
            f'"learning_rate": {lr}}}\n'
            for tokens, lr in rows
        )
    path = tmp_path / f"runs.{suffix}"
    path.write_text(text)
    with pytest.raises(MalformedRecord) as err:
        runs.ingest(path)
    assert str(err.value) == "row 2: learning_rate is not finite: inf"


@pytest.mark.parametrize(
    "field, cell",
    [("model_size", "\u0661\u0662"), ("tokens", "1_000"), ("loss", "\u0663.0"),
     ("loss", "3_0.5"), ("tokens", "\uff11\uff10\uff10")],
    ids=["arabic-indic-count", "underscore-count", "arabic-indic-float", "underscore-float",
         "fullwidth-count"],
)
@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_number_cell_must_be_ascii_without_underscores(tmp_path, suffix, field, cell):
    # int() and float() read these as 12, 1000, 3.0, 30.5 and 100
    record = {"run_id": "\u6a21", "model_size": "10", "tokens": "200", "loss": "2.9", field: cell}
    path = tmp_path / f"runs.{suffix}"
    if suffix == "csv":
        path.write_text(
            "run_id,model_size,tokens,loss\n\u6a21,10,100,3.0\n" + ",".join(record.values()) + "\n",
            encoding="utf-8",
        )
    else:
        first = {"run_id": "\u6a21", "model_size": 10, "tokens": 100, "loss": 3.0}
        path.write_text(
            "\n".join(json.dumps(r, ensure_ascii=False) for r in (first, record)) + "\n",
            encoding="utf-8",
        )
    with pytest.raises(MalformedRecord) as err:
        runs.ingest(path)
    assert str(err.value) == f"row 2: {field}={cell!r} is not an ASCII number"


def test_ascii_number_cells_and_unicode_run_ids_still_read(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(
        "run_id,model_size,tokens,loss,learning_rate\n\u6a21\u578b,10, 100 ,3e0,1E-3\n",
        encoding="utf-8",
    )
    (rec,) = runs.ingest(path).records
    assert (rec.run_id, rec.tokens, rec.loss, rec.learning_rate) == ("\u6a21\u578b", 100, 3.0, 1e-3)


def test_jsonl_rows_are_numbered_by_record_past_blank_lines(tmp_path):
    path = tmp_path / "runs.jsonl"
    good = '{"run_id": "a", "model_size": 10, "tokens": 100, "loss": 3.0}'
    # the second record sits on line 4: a parse fault and a validation fault
    # in it both name row 2, as in a CSV file
    for bad, message in [
        ('{"run_id": "a", "model_size": 10, "tokens": 200, "loss": "x"}',
         "row 2: loss='x' is not numeric"),
        ('{"run_id": "a", "model_size": 10, "tokens": 200, "loss": -1.0}',
         "row 2: loss must be > 0, got -1.0"),
    ]:
        path.write_text(f"\n{good}\n  \n{bad}\n\n")
        with pytest.raises(MalformedRecord if "numeric" in message else NonPositiveValue) as err:
            runs.ingest(path)
        assert str(err.value) == message


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_runs_file_that_is_not_utf8_names_the_file_and_line(tmp_path, suffix):
    path = tmp_path / f"runs.{suffix}"
    if suffix == "csv":
        data = b"run_id,model_size,tokens,loss\na,10,100,3.0\na,10,200,2.\xff\n"
    else:
        data = b'{"run_id": "a", "model_size": 10, "tokens": 100}\n{"run_id": "\xff"}\n'
    path.write_bytes(data)
    offset = data.index(b"\xff")
    line = data.count(b"\n", 0, offset) + 1
    with pytest.raises(ValueError) as err:
        runs.ingest(path)
    assert str(err.value) == (
        f"runs file {path} is not UTF-8 text: line {line}: 'utf-8' codec can't decode byte "
        f"0xff in position {offset}: invalid start byte"
    )


@pytest.mark.parametrize(
    "text, count",
    [("9007199254740992", 2**53), (" 7 ", 7), ("1e3", 1000), ("40.0", 40), ("-3", -3)],
)
def test_count_literals_parse_exactly(text, count):
    value = runs._parse_count(text, 1, "tokens")
    assert type(value) is int and value == count


def test_csv_and_jsonl_encode_identically(tmp_path):
    law = PowerLawParams(lam=4.0, alpha=0.1)
    spec = synth.CurveSpec(
        law=law,
        model_sizes=(10**7, 10**8),
        token_checkpoints=((10**8, 2 * 10**8, 3 * 10**8, 4 * 10**8, 5 * 10**8),) * 2,
        noise_sigma=0.02,
        seed=99,
    )
    series = synth.gen_curves(spec)
    csv_path, jsonl_path = tmp_path / "r.csv", tmp_path / "r.jsonl"
    runs.write_csv(series, csv_path)
    runs.write_jsonl(series, jsonl_path)
    from_csv = runs.ingest(csv_path)
    from_jsonl = runs.ingest(jsonl_path)
    assert from_csv.records == from_jsonl.records


def test_roundtrip_identity(tmp_path):
    rows = [
        runs.TrainingRun("a", 10**8, 10**9, 3.2, step=1, batch_size=256,
                         learning_rate=2e-4, dataset_tag="pile"),
        runs.TrainingRun("a", 10**8, 2 * 10**9, 3.0123456789012345, step=2),
        runs.TrainingRun("b", 2 * 10**8, 10**9, 2.8),
    ]
    series = runs.RunSeries(rows)
    for writer, path in ((runs.write_csv, tmp_path / "x.csv"),
                         (runs.write_jsonl, tmp_path / "x.jsonl")):
        writer(series, path)
        again = runs.ingest(path)
        assert again.records == series.records


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_numpy_scalars_round_trip_as_plain_numbers(tmp_path, suffix):
    rows = [
        runs.TrainingRun("a", np.int64(10**8), np.int64(10**9), np.float64(2.5),
                         step=np.int64(1), batch_size=np.int64(256),
                         learning_rate=np.float64(1 / 3)),
        runs.TrainingRun("a", 10**8, np.int64(2**53), np.float64(2.25)),
        runs.TrainingRun("b", np.int32(7), np.uint64(10), np.float32(0.1),
                         learning_rate=np.float16(0.5)),
    ]
    series = runs.RunSeries(rows)
    path = tmp_path / f"x.{suffix}"
    writer = runs.write_csv if suffix == "csv" else runs.write_jsonl
    writer(series, path)
    text = path.read_text()
    assert "np." not in text and "0.3333333333333333" in text
    with np.printoptions(legacy="1.13"):  # str(np.float64(1/3)) is then "0.333333333333"
        writer(series, path)
    assert path.read_text() == text
    again = runs.ingest(path)
    assert again.records == series.records
    first = again.records[0]
    assert [type(first.tokens), type(first.loss), type(first.learning_rate)] == [int, float, float]


def test_column_names_the_first_record_without_the_field():
    rows = [
        runs.TrainingRun("a", 10, 100, 3.0, learning_rate=1e-3),
        runs.TrainingRun("b", 20, 100, 2.9),
        runs.TrainingRun("c", 30, 100, 2.8),
    ]
    series = runs.RunSeries(rows)
    assert runs.column(series, "model_size").tolist() == [10.0, 20.0, 30.0]
    with pytest.raises(MissingField) as err:
        runs.column(series, "learning_rate")
    assert (err.value.field, err.value.run_id) == ("learning_rate", "b")


# ---------------------------------------------------------------------------
# built records: what a runs file cannot hold, named by its first row
# ---------------------------------------------------------------------------


def test_schema_rows_are_the_record_fields_in_field_order():
    # _record_from_mapping passes the parsed values to TrainingRun by position
    assert tuple(runs._SCHEMA) == runs.CSV_COLUMNS


# row 1 holds the largest integers a loss and a learning rate may be
_WITHIN = runs.TrainingRun("a", 5, 10, 2**53, learning_rate=2**53)


@pytest.mark.parametrize(
    "records, message",
    [
        ([_WITHIN, runs.TrainingRun("b\tc", 5, 10, 2.0)],
         "row 2: run_id 'b\\tc' holds the control character '\\t'"),
        ([_WITHIN, dataclasses.replace(_WITHIN, tokens=20, loss=2**53 + 1)],
         "row 2: loss=9007199254740993 exceeds 2^53"),
        ([_WITHIN, dataclasses.replace(_WITHIN, tokens=20, learning_rate=-(2**53) - 1)],
         "row 2: learning_rate=-9007199254740993 exceeds 2^53"),
        ([_WITHIN, dataclasses.replace(_WITHIN, tokens=20, loss=np.uint64(2**63))],
         "row 2: loss=np.uint64(9223372036854775808) exceeds 2^53"),
        ([runs.TrainingRun(run_id, 5, 10, 2.0) for run_id in ("", "a", 7)],
         "row 1: run_id='' is not a non-empty string"),
        ([runs.TrainingRun("a", 5, 10, 2**60), runs.TrainingRun("a", 5, 20, True)],
         "row 1: loss=1152921504606846976 exceeds 2^53"),
        ([runs.TrainingRun("a", 5, 10, 2.0, dataset_tag=""),
          runs.TrainingRun("a", 2.5, 20, 2.0)],
         "row 1: dataset_tag='' is not a non-empty string"),
        ([runs.TrainingRun("a", 5, 10, 2.0), runs.TrainingRun("a", 2.5, 20, 2.0, step="x")],
         "row 2: model_size=2.5 is not an integer count"),
    ],
    ids=["control-character", "loss-beyond-2^53", "learning-rate-beyond-2^53",
         "numpy-loss-beyond-2^53", "faults-in-one-column", "integer-before-bool",
         "later-field-earlier-row", "earlier-field-same-row"],
)
def test_built_series_names_its_first_faulty_row_then_field(records, message):
    # as ingest does for a file: the first row, and in it the first field
    with pytest.raises(MalformedRecord) as err:
        runs.RunSeries(records)
    assert str(err.value) == message


def test_built_fault_is_the_same_under_every_hash_seed():
    code = (
        "from subscale import runs\n"
        "try:\n"
        "    runs.RunSeries([runs.TrainingRun(f'a{chr(c)}', 5, 10, 2.0) for c in (1, 2, 3)])\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(runs.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout == "row 1: run_id 'a\\x01' holds the control character '\\x01'\n"


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------


def _run_of_losses(losses, run_id="a"):
    return [
        runs.TrainingRun(run_id, 10**6, (i + 1) * 10**6, float(loss), step=i + 1)
        for i, loss in enumerate(losses)
    ]


def test_smooth_preserves_constants():
    series = runs.RunSeries(_run_of_losses([2.5] * 15))
    smoothed = runs.gaussian_smooth(series, window=10)
    assert [r.loss for r in smoothed.records] == pytest.approx([2.5] * 15, abs=1e-15)


def test_smooth_window_one_is_identity():
    losses = [3.1, 2.9, 3.3, 2.7, 3.0]
    series = runs.RunSeries(_run_of_losses(losses))
    smoothed = runs.gaussian_smooth(series, window=1)
    assert [r.loss for r in smoothed.records] == losses


def _oracle_smooth(losses, window, sigma):
    # independent discrete convolution: centered truncated Gaussian,
    # renormalized at the boundaries
    n = len(losses)
    out = []
    offsets = list(range(-(window // 2), (window - 1) // 2 + 1))
    for i in range(n):
        num = den = 0.0
        for o in offsets:
            j = i + o
            if 0 <= j < n:
                w = math.exp(-(o * o) / (2 * sigma * sigma))
                num += w * losses[j]
                den += w
        out.append(num / den)
    return out


def test_smooth_matches_convolution_oracle():
    rng = np.random.default_rng(11)
    losses = list(3.0 + 0.1 * rng.normal(size=40))
    series = runs.RunSeries(_run_of_losses(losses))
    for window in (3, 4, 10):
        smoothed = runs.gaussian_smooth(series, window=window)
        expected = _oracle_smooth(losses, window, window / 4.0)
        got = [r.loss for r in smoothed.records]
        assert got == pytest.approx(expected, abs=1e-12)


def test_smooth_keeps_other_fields_and_length():
    series = runs.RunSeries(
        _run_of_losses([3.0, 2.9, 2.8, 2.7, 2.6], "x") + _run_of_losses([4.0] * 6, "y")
    )
    smoothed = runs.gaussian_smooth(series, window=3)
    assert len(smoothed) == len(series)
    for before, after in zip(series.records, smoothed.records):
        assert (before.run_id, before.model_size, before.tokens, before.step) == (
            after.run_id, after.model_size, after.tokens, after.step,
        )


def test_smooth_sigma_whose_kernel_underflows_rejected():
    series = _series([("a", 10**8, 10**9 * (i + 1), 3.0 - 0.1 * i) for i in range(5)])
    with pytest.raises(ValueError, match="sigma 1e-170 is too small"):
        runs.gaussian_smooth(series, window=3, sigma=1e-170)


def test_smooth_window_larger_than_run():
    series = runs.RunSeries(_run_of_losses([3.0, 2.9, 2.8]))
    with pytest.raises(WindowLargerThanRun) as err:
        runs.gaussian_smooth(series, window=10)
    assert err.value.run_id == "a"


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def test_split_counts():
    series = runs.RunSeries(_run_of_losses([3.0 - 0.1 * i for i in range(8)]))
    fit_split, holdout = runs.split_fit_holdout(series, 0.25)
    assert (len(fit_split), len(holdout)) == (2, 6)

    series4 = runs.RunSeries(_run_of_losses([3.0, 2.9, 2.8, 2.7]))
    fit_split, holdout = runs.split_fit_holdout(series4, 0.5)
    assert (len(fit_split), len(holdout)) == (2, 2)


def test_split_matches_per_run_slicing_oracle():
    series = runs.RunSeries(
        _run_of_losses([3.0 - 0.05 * i for i in range(12)], "a")
        + _run_of_losses([4.0 - 0.05 * i for i in range(8)], "b")
    )
    fit_split, holdout = runs.split_fit_holdout(series, 0.25)
    for run_id, n_total in (("a", 12), ("b", 8)):
        members = sorted(
            (r for r in series.records if r.run_id == run_id), key=lambda r: r.tokens
        )
        n_fit = math.ceil(0.25 * n_total)
        assert [r for r in fit_split.records if r.run_id == run_id] == members[:n_fit]
        assert [r for r in holdout.records if r.run_id == run_id] == members[n_fit:]


def test_split_partitions():
    series = runs.RunSeries(
        _run_of_losses([3.0 - 0.05 * i for i in range(9)], "a")
        + _run_of_losses([4.0 - 0.05 * i for i in range(5)], "b")
    )
    fit_split, holdout = runs.split_fit_holdout(series, 0.4)
    combined = sorted(fit_split.records + holdout.records, key=lambda r: (r.run_id, r.tokens))
    assert combined == sorted(series.records, key=lambda r: (r.run_id, r.tokens))
    assert not set(fit_split.records) & set(holdout.records)


def test_split_too_few_records():
    series = runs.RunSeries(_run_of_losses([3.0, 2.9, 2.8]))
    with pytest.raises(TooFewRecords):
        runs.split_fit_holdout(series, 0.25)
