"""Artifact writes that never leave a half-written file behind."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open a temp file beside ``path`` for writing text.

    When the block ends normally the temp file replaces ``path`` in one
    rename; when it raises, the temp file is removed and ``path`` keeps its
    previous content.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
