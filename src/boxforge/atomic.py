"""Artifact writes that a reader never sees half done."""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO, Callable


def write_atomic(path: str | Path, write: Callable[[IO], None], binary: bool = False) -> None:
    """Run ``write`` on a temp file beside ``path``, then rename it into place.

    The temp file is opened in text mode, or in binary mode with ``binary``.
    A reader never sees a half-written file: on any error the temp file is
    removed and whatever ``path`` held before is left untouched.  The temp
    file is not fsynced, so this holds when the process dies, not after a
    power loss or OS crash.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if binary else "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
