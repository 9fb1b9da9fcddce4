"""Training-run records: ingestion, validation, smoothing, and splitting.

A record is one point of a training trajectory: model size N (non-embedding
parameters), cumulative tokens D, cross-entropy loss, and optional step /
batch-size / learning-rate fields.  The file schema is fixed:

CSV header (required)::

    run_id,model_size,tokens,loss,step,batch_size,learning_rate,dataset_tag

JSONL carries one object per record with the same keys.  Counts are parsed
as integers up to 2**53; everything else as 64-bit floats.  Optional fields
may be empty (CSV) or null (JSONL).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    MalformedRecord,
    MissingColumn,
    MissingField,
    NonMonotoneTokens,
    NonPositiveValue,
    TooFewRecords,
    WindowLargerThanRun,
)

CSV_COLUMNS = (
    "run_id",
    "model_size",
    "tokens",
    "loss",
    "step",
    "batch_size",
    "learning_rate",
    "dataset_tag",
)
_REQUIRED_COLUMNS = ("run_id", "model_size", "tokens", "loss")
_COUNT_FIELDS = ("model_size", "tokens", "step", "batch_size")
_MAX_COUNT = 2**53


@dataclass(frozen=True)
class TrainingRun:
    """One record of a training trajectory."""

    run_id: str
    model_size: int
    tokens: int
    loss: float
    step: int | None = None
    batch_size: int | None = None
    learning_rate: float | None = None
    dataset_tag: str | None = None


@dataclass(frozen=True)
class RunSeries:
    """Ordered, validated collection of training records."""

    records: tuple[TrainingRun, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TrainingRun]:
        return iter(self.records)

    @staticmethod
    def from_records(records) -> "RunSeries":
        records = tuple(records)
        _validate_records(records)
        return RunSeries(records=records)


def _validate_records(records: tuple[TrainingRun, ...]) -> None:
    if not records:
        raise MalformedRecord(0, "series has no records")
    last_tokens: dict[str, int] = {}
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


def _parse_count(text, row: int, field: str) -> int | None:
    if text is None or text == "":
        return None
    if isinstance(text, bool):  # JSON true/false
        raise MalformedRecord(row, f"{field}={text!r} is not an integer count")
    value = text if isinstance(text, int) else None
    if isinstance(text, str):
        try:
            value = int(text)  # integer literals stay exact
        except ValueError:
            pass
    if value is None:
        try:
            number = float(text)
        except (TypeError, ValueError):
            raise MalformedRecord(row, f"{field}={text!r} is not numeric") from None
        if not math.isfinite(number) or number != int(number):
            raise MalformedRecord(row, f"{field}={text!r} is not an integer count")
        if abs(number) >= _MAX_COUNT:  # from 2^53 on, a float may be rounded
            raise MalformedRecord(
                row, f"{field}={text!r} is a decimal at or above 2^53; write an integer"
            )
        value = int(number)
    if abs(value) > _MAX_COUNT:
        raise MalformedRecord(row, f"{field}={text!r} exceeds 2^53")
    return value


def _parse_float(text, row: int, field: str) -> float | None:
    if text is None or text == "":
        return None
    try:
        return float(text)
    except (TypeError, ValueError):
        raise MalformedRecord(row, f"{field}={text!r} is not numeric") from None


def _record_from_mapping(raw: dict, row: int) -> TrainingRun:
    for key in _REQUIRED_COLUMNS:
        if key not in raw or raw[key] in (None, ""):
            raise MissingColumn(key)
    tag = raw.get("dataset_tag")
    return TrainingRun(
        run_id=str(raw["run_id"]),
        model_size=_parse_count(raw["model_size"], row, "model_size"),
        tokens=_parse_count(raw["tokens"], row, "tokens"),
        loss=_parse_float(raw["loss"], row, "loss"),
        step=_parse_count(raw.get("step"), row, "step"),
        batch_size=_parse_count(raw.get("batch_size"), row, "batch_size"),
        learning_rate=_parse_float(raw.get("learning_rate"), row, "learning_rate"),
        dataset_tag=str(tag) if tag not in (None, "") else None,
    )


def ingest(path, format: str | None = None) -> RunSeries:
    """Read and validate a runs file.

    Args:
        path: CSV or JSONL file following the fixed schema.
        format: "csv" or "jsonl"; inferred from the suffix when omitted.

    Returns:
        A validated RunSeries with row order preserved.
    """
    path = Path(path)
    if format is None:
        format = "jsonl" if path.suffix.lower() in (".jsonl", ".json") else "csv"
    if format not in ("csv", "jsonl"):
        raise ValueError(f"format must be 'csv' or 'jsonl', got {format!r}")

    records: list[TrainingRun] = []
    if format == "csv":
        with path.open("r", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            for col in _REQUIRED_COLUMNS:
                if col not in header:
                    raise MissingColumn(col)
            for row, raw in enumerate(reader, start=1):
                records.append(_record_from_mapping(raw, row))
    else:
        with path.open("r", encoding="utf-8") as fh:
            for row, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(row, f"invalid JSON: {exc}") from None
                if not isinstance(raw, dict):
                    raise MalformedRecord(row, "record is not a JSON object")
                records.append(_record_from_mapping(raw, row))

    return RunSeries.from_records(records)


def write_csv(series: RunSeries, path) -> None:
    """Serialize to the canonical CSV schema (round-trips through ingest)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
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


def write_jsonl(series: RunSeries, path) -> None:
    """Serialize to JSONL, one object per record with all schema keys."""
    path = Path(path)
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


def run_ids(series: RunSeries) -> list[str]:
    """Distinct run ids in first-appearance order."""
    seen: dict[str, None] = {}
    for rec in series.records:
        seen.setdefault(rec.run_id, None)
    return list(seen)


def _indices_by_run(series: RunSeries) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {}
    for i, rec in enumerate(series.records):
        groups.setdefault(rec.run_id, []).append(i)
    return groups


def gaussian_smooth(
    series: RunSeries, window: int = 10, sigma: float | None = None
) -> RunSeries:
    """Replace losses with Gaussian-weighted window averages, per run.

    The kernel is a truncated Gaussian over a centered window of ``window``
    records (offsets -window//2 .. +(window-1)//2), sigma = window/4 by
    default, with weights renormalized where the window is clipped at run
    boundaries.  N, D, and step fields are untouched; length is preserved.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if sigma is None:
        sigma = window / 4.0
    if not sigma > 0:
        raise ValueError("sigma must be > 0")
    two_var = 2.0 * sigma * sigma
    if two_var == 0.0:  # the centre weight would be 0/0
        raise ValueError(f"sigma {sigma!r} is too small: 2*sigma**2 underflows to 0")

    offsets = np.arange(-(window // 2), (window - 1) // 2 + 1)
    with np.errstate(over="ignore"):  # a far offset of a tiny sigma weighs exp(-inf) = 0
        kernel = np.exp(-(offsets.astype(float) ** 2) / two_var)

    new_records = list(series.records)
    for run_id, idx in _indices_by_run(series).items():
        if len(idx) < window:
            raise WindowLargerThanRun(run_id, len(idx), window)
        losses = np.array([series.records[i].loss for i in idx], dtype=float)
        n = len(losses)
        for pos in range(n):
            j = pos + offsets
            valid = (j >= 0) & (j < n)
            w = kernel[valid]
            smoothed = float(np.dot(w, losses[j[valid]]) / w.sum())
            new_records[idx[pos]] = replace(new_records[idx[pos]], loss=smoothed)

    return RunSeries(records=tuple(new_records))


def split_fit_holdout(
    series: RunSeries, fraction: float = 0.25
) -> tuple[RunSeries, RunSeries]:
    """Split each run into a leading fit slice and a trailing holdout.

    Per run id the first ceil(fraction * len) records by token order go to
    the fit split and the rest to the holdout; the union is the input.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")

    take_fit: set[int] = set()
    for run_id, idx in _indices_by_run(series).items():
        length = len(idx)
        n_fit = math.ceil(fraction * length)
        if length < math.ceil(1.0 / fraction) or n_fit >= length:
            raise TooFewRecords(run_id, length, max(math.ceil(1.0 / fraction), n_fit + 1))
        order = sorted(idx, key=lambda i: series.records[i].tokens)
        take_fit.update(order[:n_fit])

    fit_records = tuple(r for i, r in enumerate(series.records) if i in take_fit)
    holdout_records = tuple(
        r for i, r in enumerate(series.records) if i not in take_fit
    )
    return RunSeries(records=fit_records), RunSeries(records=holdout_records)


def require_field(series: RunSeries, field: str) -> None:
    """Raise MissingField unless every record carries ``field``."""
    for rec in series.records:
        if getattr(rec, field) is None:
            raise MissingField(field, rec.run_id)
