"""The one reader of the CLI's JSON documents: law files, fit configs, synth
specs and manifests.

Each check takes a value and ``where``, the document and key it came from
(such as ``"spec 'seed'"``), and returns the value or raises ValueError
naming ``where``.  The document types' constructors run these checks on
their fields, so a value built in Python meets the rules of a file; the
readers only pick keys.  Only the standard library and ``errors`` are used.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path

from .errors import utf8_fault


def load(path, kind: str):
    """The JSON value of the UTF-8 file at ``path``; errors name ``kind`` and the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{kind} {path} is not UTF-8 text: {utf8_fault(path, exc)}") from None
    except ValueError as exc:  # the decoder's error, or an integer too long to convert
        raise ValueError(f"{kind} {path} is not valid JSON: {exc}") from None
    except RecursionError:  # the decoder recurses once per level of nesting
        raise ValueError(f"{kind} {path} is nested too deeply to read") from None


def obj(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, not a {type(value).__name__}")
    return value


def get(data, key: str, where: str):
    """``data[key]``, where ``data`` must be a JSON object that holds ``key``."""
    if key not in obj(data, where):
        raise ValueError(f"{where}: missing field {key!r}")
    return data[key]


def store(instance, **values) -> None:
    """Set checked field values on a frozen dataclass, from its ``__post_init__``."""
    for name, value in values.items():
        object.__setattr__(instance, name, value)


def array(value, where: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where} must be a list, not a {type(value).__name__}")
    return value


def number(value, where: str) -> float:
    """A finite number (not a boolean), numpy scalars included, as a float."""
    # float and int first: they pass without the slower ABC check
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{where} must be a finite number, got {value!r}")


def integer(value, where: str, limit: int | None = None) -> int:
    """An integer, or an integral float such as 50.0, below ``limit`` in magnitude."""
    # int first, as in number()
    if (isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)) or (
        isinstance(value, float) and value.is_integer()
    ):
        if limit is None or abs(value) < limit:
            return int(value)
        raise ValueError(f"{where} must be an integer below {limit} in magnitude, got {value!r}")
    raise ValueError(f"{where} must be an integer, got {value!r}")
