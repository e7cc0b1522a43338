"""Artifact files that are either whole or untouched."""

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path: str, encoding: str, newline: str | None = None):
    """Write a text file beside path, then move it into place.

    The temp file lives in path's directory, so os.replace is atomic.
    If the body raises, the temp file is removed and path keeps its old
    bytes (or stays absent).
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding=encoding, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
