"""Atomic text writes shared by every module that saves a file."""

from __future__ import annotations

import os
import tempfile


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
