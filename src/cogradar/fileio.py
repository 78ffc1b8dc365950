"""Atomic text writes shared by every module that saves a file, and the
field checks that every loaded value passes."""

from __future__ import annotations

import math
import numbers
import os
import tempfile


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
