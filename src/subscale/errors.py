"""Exception hierarchy shared across the toolkit.

Every error carries enough context to name the offending row, run, or bin.
``exit_code`` distinguishes input/usage problems (1) from analytic failures
(2) so the CLI can map exceptions to exit codes without a big lookup table.
"""

from __future__ import annotations

import re
from pathlib import Path

# C0 controls and DEL, rejected in run ids and embedding ids: a text cell or
# line of ids holding one (a bare carriage return, say) splits its row for a
# CSV reader
CONTROL_CHARACTER = re.compile(r"[\x00-\x1f\x7f]")


def utf8_fault(path, exc: UnicodeDecodeError) -> str:
    """'line N: <codec message>' for the first byte of the file at ``path`` that is
    not UTF-8, read whole: ``exc``, from a reader, counts bytes within one chunk."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as whole:
        line = raw.count(b"\n", 0, whole.start) + 1
        return f"line {line}: {whole}"
    return str(exc)  # the file has changed since


class SubscaleError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


# ---------------------------------------------------------------------------
# runs: ingestion / validation
# ---------------------------------------------------------------------------


class MissingColumn(SubscaleError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"required column {column!r} is missing")


class NonPositiveValue(SubscaleError):
    def __init__(self, row: int, field: str, value: float):
        self.row = row
        self.field = field
        self.value = value
        super().__init__(f"row {row}: {field} must be > 0, got {value!r}")


class NonMonotoneTokens(SubscaleError):
    def __init__(self, run_id: str, row: int):
        self.run_id = run_id
        self.row = row
        super().__init__(
            f"run {run_id!r}: tokens do not strictly increase at row {row}"
        )


class MalformedRecord(SubscaleError):
    def __init__(self, row: int, detail: str):
        self.row = row
        super().__init__(f"row {row}: {detail}")


class MissingField(SubscaleError):
    def __init__(self, field: str, run_id: str | None = None):
        self.field = field
        self.run_id = run_id
        where = f" in run {run_id!r}" if run_id is not None else ""
        super().__init__(f"field {field!r} is required{where} but absent")


class WindowLargerThanRun(SubscaleError):
    def __init__(self, run_id: str, length: int, window: int):
        self.run_id = run_id
        self.length = length
        self.window = window
        super().__init__(
            f"run {run_id!r} has {length} records, fewer than window {window}; "
            "reduce the window"
        )


class TooFewRecords(SubscaleError):
    def __init__(self, run_id: str, length: int, needed: int):
        self.run_id = run_id
        self.length = length
        self.needed = needed
        super().__init__(
            f"run {run_id!r} has {length} records; splitting needs at least {needed}"
        )


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


class KTooLarge(SubscaleError):
    def __init__(self, k: int, n_samples: int):
        self.k = k
        self.n_samples = n_samples
        super().__init__(f"k={k} is outside [1, {n_samples}] for {n_samples} samples")


class UnfilledClusters(SubscaleError):
    def __init__(self, k: int, n_distinct: int, n_empty: int):
        self.k = k
        self.n_distinct = n_distinct
        self.n_empty = n_empty
        super().__init__(
            f"k={k} clusters cannot all be filled: k-means left {n_empty} empty, "
            f"and the data has {n_distinct} distinct rows"
        )


class DegenerateGeometry(SubscaleError):
    exit_code = 2

    def __init__(self, detail: str = "all cluster centroids coincide (R = 0)"):
        super().__init__(detail)


class TargetUnreachable(SubscaleError):
    exit_code = 2


class EmbeddingFormatError(SubscaleError):
    def __init__(self, path: str, detail: str):
        self.path = path
        super().__init__(f"{path}: {detail}")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


class LengthMismatch(SubscaleError):
    def __init__(self, n_predicted: int, n_actual: int):
        super().__init__(
            f"predicted has {n_predicted} entries but actual has {n_actual}"
        )


class NonPositiveActual(SubscaleError):
    def __init__(self, index: int, value: float):
        self.index = index
        super().__init__(f"actual[{index}] must be > 0, got {value!r}")


class InsufficientData(SubscaleError):
    pass


class NoConvergence(SubscaleError):
    exit_code = 2

    def __init__(self, family: str, n_starts: int):
        self.family = family
        self.n_starts = n_starts
        super().__init__(
            f"fitting family {family!r} failed from all {n_starts} start points"
        )


class UnknownFamily(SubscaleError):
    def __init__(self, family: str):
        self.family = family
        super().__init__(f"unknown law family {family!r}")


class NonFiniteLoss(SubscaleError):
    def __init__(self, family: str):
        self.family = family
        super().__init__(
            f"the {family} law's loss overflows the float range; "
            "its parameters are out of range"
        )


class FamilyMismatch(SubscaleError):
    def __init__(self, params_family: str, family: str):
        self.params_family = params_family
        self.family = family
        super().__init__(
            f"{params_family} law params cannot be evaluated as family {family!r}"
        )


# ---------------------------------------------------------------------------
# alloc
# ---------------------------------------------------------------------------


class NoInteriorMinimum(SubscaleError):
    exit_code = 2


class BinTooSmall(SubscaleError):
    def __init__(self, bin_range: tuple[float, float], count: int, needed: int = 3):
        self.bin_range = bin_range
        self.count = count
        super().__init__(
            f"OTR bin [{bin_range[0]:g}, {bin_range[1]:g}) has {count} records, "
            f"needs at least {needed}"
        )
