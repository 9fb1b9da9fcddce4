"""Training-run records: ingestion, validation, smoothing, and splitting.

A record is one point of a training trajectory: model size N (non-embedding
parameters), cumulative tokens D, cross-entropy loss, and optional step /
batch-size / learning-rate fields.  ``TrainingRun``'s fields are the file
schema.  The CSV header (required) is their names in field order::

    run_id,model_size,tokens,loss,step,batch_size,learning_rate,dataset_tag

JSONL carries one object per record with the same keys.  The fields without
a default are required; ``_SCHEMA`` holds each field's rules: its parser,
the types a value built in Python may have, the wording of its fault, and
whether it must be > 0.  Counts are parsed as integers up to 2**53, the
other numbers as finite 64-bit floats.  Optional fields may be empty (CSV)
or null (JSONL).  The writers write a numpy scalar as a plain Python
number, so that what they write reads back into equal records.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from itertools import count
from operator import attrgetter, index
from pathlib import Path

import numpy as np

from .errors import (
    CONTROL_CHARACTER,
    MalformedRecord,
    MissingColumn,
    MissingField,
    NonMonotoneTokens,
    NonPositiveValue,
    TooFewRecords,
    WindowLargerThanRun,
    utf8_fault,
)

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
    """Ordered collection of training records, validated when built."""

    records: tuple[TrainingRun, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        _validate_records(self.records)

    def __len__(self) -> int:
        return len(self.records)


def _validate_records(records: tuple[TrainingRun, ...]) -> None:
    if not records:
        raise MalformedRecord(0, "series has no records")
    faults = [fault for name, rule in _SCHEMA.items()
              if (fault := _column_fault(name, rule, list(map(attrgetter(name), records))))]
    if faults:  # the first row's, and in it the first field's, as in a runs file
        raise min(faults, key=attrgetter("row"))
    last_tokens: dict[str, int] = {}
    for row, rec in enumerate(records, start=1):
        for field in _POSITIVE:
            value = getattr(rec, field)
            # only an optional field may be None
            if (value is not None or field in _REQUIRED_COLUMNS) and not value > 0:
                raise NonPositiveValue(row, field, value)
        for field in _FLOATS:
            value = getattr(rec, field)
            if value is not None and not math.isfinite(value):
                raise MalformedRecord(row, f"{field} is not finite: {value!r}")
        prev = last_tokens.get(rec.run_id)
        if prev is not None and rec.tokens <= prev:
            raise NonMonotoneTokens(rec.run_id, row)
        last_tokens[rec.run_id] = rec.tokens


def _column_fault(name: str, rule: tuple, values: list) -> MalformedRecord | None:
    """The fault of the first value of field ``name`` that a runs file cannot hold.

    A file's parsers give only valid values, but a caller may build records
    of any type.  Each distinct type is judged once, and each distinct
    string once; the rows are scanned only when the column holds a fault or
    an integer in a float field.  A count beyond 2^53 stays valid, as in a
    spec built in Python (``synth`` grids reach such token counts); an
    integer loss or learning rate must be within 2^53, where a float holds
    it exactly.
    """
    parse, types, wants, _ = rule
    optional = name not in _REQUIRED_COLUMNS

    def valid_type(kind) -> bool:
        return optional if kind is type(None) else kind is not bool and issubclass(kind, types)

    def fault(value, row: int) -> MalformedRecord | None:
        if not valid_type(type(value)) or value == "":
            return MalformedRecord(row, f"{name}={value!r} is not {wants}")
        if isinstance(value, str):
            try:
                parse(value, row, name)  # names a control character in a run id
            except MalformedRecord as exc:
                return exc
        elif (float in types and isinstance(value, _INTEGERS)
              and not -_MAX_COUNT <= value <= _MAX_COUNT):
            return MalformedRecord(row, f"{name}={value!r} exceeds 2^53")
        return None

    kinds = set(map(type, values))
    # row 0: here only whether a distinct string is faulty counts
    if all(map(valid_type, kinds)) and not (
        any(fault(text, 0) for text in set(values) - {None}) if str in types
        else float in types and any(issubclass(kind, _INTEGERS) for kind in kinds)
    ):
        return None
    return next(filter(None, map(fault, values, count(1))), None)


def _parse_id(text, row: int, field: str) -> str:
    value = str(text)
    control = CONTROL_CHARACTER.search(value)
    if control:
        raise MalformedRecord(
            row, f"{field} {value!r} holds the control character {control.group()!r}"
        )
    return value


def _parse_text(text, row: int, field: str) -> str | None:
    return None if text is None or text == "" else str(text)


def _ascii_number(text, row: int, field: str) -> None:
    """Python's int() and float() also read non-ASCII digits and '_' separators;
    a file's number must be plain ASCII."""
    if isinstance(text, str) and not (text.isascii() and "_" not in text):
        raise MalformedRecord(row, f"{field}={text!r} is not an ASCII number")


def _parse_count(text, row: int, field: str) -> int | None:
    if text is None or text == "":
        return None
    _ascii_number(text, row, field)
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
    _ascii_number(text, row, field)
    try:
        return float(text)
    except (TypeError, ValueError):
        raise MalformedRecord(row, f"{field}={text!r} is not numeric") from None


_INTEGERS = (int, np.integer)
_REALS = (*_INTEGERS, float, np.floating)
# per field of TrainingRun, in field order: its parser, the types a built
# value may have, what its fault says it is not, and whether it must be > 0
_SCHEMA = {
    "run_id": (_parse_id, (str,), "a non-empty string", False),
    "model_size": (_parse_count, _INTEGERS, "an integer count", True),
    "tokens": (_parse_count, _INTEGERS, "an integer count", True),
    "loss": (_parse_float, _REALS, "numeric", True),
    "step": (_parse_count, _INTEGERS, "an integer count", False),
    "batch_size": (_parse_count, _INTEGERS, "an integer count", True),
    "learning_rate": (_parse_float, _REALS, "numeric", True),
    "dataset_tag": (_parse_text, (str,), "a non-empty string", False),
}
CSV_COLUMNS = tuple(f.name for f in fields(TrainingRun))
_REQUIRED_COLUMNS = tuple(f.name for f in fields(TrainingRun) if f.default is MISSING)
_POSITIVE = tuple(name for name, (_, _, _, positive) in _SCHEMA.items() if positive)
_FLOATS = tuple(name for name, (_, types, _, _) in _SCHEMA.items() if float in types)


def _record_from_mapping(raw: dict, row: int) -> TrainingRun:
    get = raw.get
    for key in _REQUIRED_COLUMNS:
        if get(key) in (None, ""):
            raise MissingColumn(key)
    return TrainingRun(*[parse(get(key), row, key) for key, (parse, _, _, _) in _SCHEMA.items()])


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
    try:
        if format == "csv":
            with path.open("r", newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                try:
                    header = reader.fieldnames or []
                    for col in _REQUIRED_COLUMNS:
                        if col not in header:
                            raise MissingColumn(col)
                    for row, raw in enumerate(reader, start=1):
                        records.append(_record_from_mapping(raw, row))
                except csv.Error as exc:  # such as a field beyond csv's size limit
                    # DictReader counts only the lines of the rows it returned
                    line = reader.reader.line_num
                    raise ValueError(f"{path}: CSV line {line}: {exc}") from None
        else:
            with path.open("r", encoding="utf-8") as fh:
                # rows are numbered by record, as in a CSV file: blank lines are skipped
                lines = (line.strip() for line in fh)
                for row, line in enumerate(filter(None, lines), start=1):
                    try:
                        raw = json.loads(line)
                    except ValueError as exc:  # the decoder's error, or an integer too long
                        raise MalformedRecord(row, f"invalid JSON: {exc}") from None
                    except RecursionError:  # the decoder recurses once per level of nesting
                        raise MalformedRecord(row, "invalid JSON: nested too deeply") from None
                    if not isinstance(raw, dict):
                        raise MalformedRecord(row, "record is not a JSON object")
                    records.append(_record_from_mapping(raw, row))
    except UnicodeDecodeError as exc:
        raise ValueError(f"runs file {path} is not UTF-8 text: {utf8_fault(path, exc)}") from None
    return RunSeries(records)


def _plain_rows(series: RunSeries):
    """Each record's values, with a numpy float as a float: csv writes
    str(value), and a numpy float's str follows numpy's print options."""
    columns = []
    for name, (_, types, _, _) in _SCHEMA.items():
        values = list(map(attrgetter(name), series.records))
        if float in types and any(issubclass(kind, np.floating)
                                  for kind in set(map(type, values))):
            values = [float(v) if isinstance(v, np.floating) else v for v in values]
        columns.append(values)
    return zip(*columns)


# json refuses a numpy integer, which index() turns into an int
_encode_jsonl = json.JSONEncoder(default=index).encode


def write_csv(series: RunSeries, path) -> None:
    """Serialize to the canonical CSV schema (round-trips through ingest)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_plain_rows(series))


def write_jsonl(series: RunSeries, path) -> None:
    """Serialize to JSONL, one object per record with all schema keys."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in _plain_rows(series):
            fh.write(_encode_jsonl(dict(zip(CSV_COLUMNS, row))) + "\n")


def indices_by_run(series: RunSeries) -> dict[str, list[int]]:
    """Record indices of each run id, both in first-appearance order."""
    groups: dict[str, list[int]] = {}
    for i, rec in enumerate(series.records):
        groups.setdefault(rec.run_id, []).append(i)
    return groups


def column(series: RunSeries, name: str) -> np.ndarray:
    """Field ``name`` of every record as floats.

    Raises:
        MissingField: a record lacks the field; names the first such run.
    """
    values = list(map(attrgetter(name), series.records))
    array = np.array(values, dtype=float)  # a None becomes nan
    if np.isnan(array).any() and None in values:
        raise MissingField(name, series.records[values.index(None)].run_id)
    return array


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
    by_run = indices_by_run(series)
    for run_id, idx in by_run.items():  # before the kernel, which has `window` weights
        if len(idx) < window:
            raise WindowLargerThanRun(run_id, len(idx), window)

    left = window // 2
    offsets = np.arange(-left, window - left)
    with np.errstate(over="ignore"):  # a far offset of a tiny sigma weighs exp(-inf) = 0
        kernel = np.exp(-(offsets.astype(float) ** 2) / two_var)

    new_records = list(series.records)
    for idx in by_run.values():
        losses = np.array([series.records[i].loss for i in idx], dtype=float)
        n = len(losses)
        for pos in range(n):
            # the window's records lo..hi-1, clipped at the run's ends
            lo, hi = max(pos - left, 0), min(pos - left + window, n)
            w = kernel[lo - pos + left : hi - pos + left]
            smoothed = float(np.dot(w, losses[lo:hi]) / w.sum())
            new_records[idx[pos]] = replace(new_records[idx[pos]], loss=smoothed)

    return RunSeries(new_records)


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
    for run_id, idx in indices_by_run(series).items():
        length = len(idx)
        n_fit = math.ceil(fraction * length)
        # no run holds 2**53 records, so that bound on 1/fraction changes no
        # split and keeps the count finite and short
        min_length = math.ceil(min(1.0 / fraction, 2.0**53))
        if length < min_length or n_fit >= length:
            raise TooFewRecords(run_id, length, max(min_length, n_fit + 1))
        take_fit.update(idx[:n_fit])  # a run's records are in token order

    fit_records = tuple(r for i, r in enumerate(series.records) if i in take_fit)
    holdout_records = tuple(
        r for i, r in enumerate(series.records) if i not in take_fit
    )
    return RunSeries(fit_records), RunSeries(holdout_records)
