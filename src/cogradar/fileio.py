"""Every file format the program reads or writes: atomic text writes, CSV
and JSON writers, the JSON reader, and the field checks that every loaded
value passes."""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import tempfile
from typing import Iterable, Sequence


def require_int(name: str, value) -> None:
    """Reject all but Python and numpy integers (bools too), naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def require_float(name: str, value) -> None:
    """Reject all but finite real numbers (bools and strings too), naming the
    field.  Integers pass unconverted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def require_point(name: str, value) -> None:
    """Reject all but three finite coordinates, naming the field."""
    if len(value) != 3:
        raise ValueError(f"{name} must have 3 coordinates, got {len(value)}")
    for i, coordinate in enumerate(value):
        require_float(f"{name}[{i}]", coordinate)


def require_list(name: str, value) -> None:
    """Reject all but lists and tuples (a JSON array), naming the field."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{name} must be a list, got {value!r}")


def require_object(name: str, value) -> None:
    """Reject all but dicts (a JSON object), naming the field."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be an object, got {value!r}")


def atomic_write_text(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a partial file.

    The text is written untranslated (newline="") and the file gets the
    usual 0o666 & ~umask mode rather than mkstemp's 0600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(
    path: str,
    header: Sequence[str],
    rows: Iterable[Sequence],
    lineterminator: str = "\n",
) -> None:
    """Atomic CSV write.  Float cells (numpy float64 too) get 17 significant
    digits, which round-trip exactly; other cells are written as they are."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows(
        [f"{cell:.17g}" if isinstance(cell, float) else cell for cell in row]
        for row in rows
    )
    atomic_write_text(path, buffer.getvalue())


def write_json(path: str, doc) -> None:
    """Atomic JSON write: two-space indent and a trailing newline."""
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def read_json(path: str, keys: Sequence[str], what: str):
    """Parse a JSON file and check that it is an object with every one of
    ``keys``; the error names ``what`` kind of file it is."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{what} file {path} is not valid JSON: {exc}") from exc
    require_object(f"{what} file", doc)
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{what} file missing keys: {missing}")
    return doc
