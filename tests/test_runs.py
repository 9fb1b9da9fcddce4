import math

import numpy as np
import pytest

from subscale import runs, synth
from subscale.errors import (
    MalformedRecord,
    MissingColumn,
    NonMonotoneTokens,
    NonPositiveValue,
    TooFewRecords,
    WindowLargerThanRun,
)
from subscale.laws import PowerLawParams


def _series(rows):
    return runs.RunSeries.from_records(
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
    series = runs.RunSeries.from_records(rows)
    for writer, path in ((runs.write_csv, tmp_path / "x.csv"),
                         (runs.write_jsonl, tmp_path / "x.jsonl")):
        writer(series, path)
        again = runs.ingest(path)
        assert again.records == series.records


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------


def _run_of_losses(losses, run_id="a"):
    return [
        runs.TrainingRun(run_id, 10**6, (i + 1) * 10**6, float(loss), step=i + 1)
        for i, loss in enumerate(losses)
    ]


def test_smooth_preserves_constants():
    series = runs.RunSeries.from_records(_run_of_losses([2.5] * 15))
    smoothed = runs.gaussian_smooth(series, window=10)
    assert [r.loss for r in smoothed.records] == pytest.approx([2.5] * 15, abs=1e-15)


def test_smooth_window_one_is_identity():
    losses = [3.1, 2.9, 3.3, 2.7, 3.0]
    series = runs.RunSeries.from_records(_run_of_losses(losses))
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
    series = runs.RunSeries.from_records(_run_of_losses(losses))
    for window in (3, 4, 10):
        smoothed = runs.gaussian_smooth(series, window=window)
        expected = _oracle_smooth(losses, window, window / 4.0)
        got = [r.loss for r in smoothed.records]
        assert got == pytest.approx(expected, abs=1e-12)


def test_smooth_keeps_other_fields_and_length():
    series = runs.RunSeries.from_records(
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
    series = runs.RunSeries.from_records(_run_of_losses([3.0, 2.9, 2.8]))
    with pytest.raises(WindowLargerThanRun) as err:
        runs.gaussian_smooth(series, window=10)
    assert err.value.run_id == "a"


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def test_split_counts():
    series = runs.RunSeries.from_records(_run_of_losses([3.0 - 0.1 * i for i in range(8)]))
    fit_split, holdout = runs.split_fit_holdout(series, 0.25)
    assert (len(fit_split), len(holdout)) == (2, 6)

    series4 = runs.RunSeries.from_records(_run_of_losses([3.0, 2.9, 2.8, 2.7]))
    fit_split, holdout = runs.split_fit_holdout(series4, 0.5)
    assert (len(fit_split), len(holdout)) == (2, 2)


def test_split_matches_per_run_slicing_oracle():
    series = runs.RunSeries.from_records(
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
    series = runs.RunSeries.from_records(
        _run_of_losses([3.0 - 0.05 * i for i in range(9)], "a")
        + _run_of_losses([4.0 - 0.05 * i for i in range(5)], "b")
    )
    fit_split, holdout = runs.split_fit_holdout(series, 0.4)
    combined = sorted(fit_split.records + holdout.records, key=lambda r: (r.run_id, r.tokens))
    assert combined == sorted(series.records, key=lambda r: (r.run_id, r.tokens))
    assert not set(fit_split.records) & set(holdout.records)


def test_split_too_few_records():
    series = runs.RunSeries.from_records(_run_of_losses([3.0, 2.9, 2.8]))
    with pytest.raises(TooFewRecords):
        runs.split_fit_holdout(series, 0.25)
