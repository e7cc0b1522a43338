"""Artifact files that are either whole or untouched."""

import csv
import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path: str, encoding: str, newline: str | None = None):
    """Write a text file beside path, then move it into place.

    The temp file lives in path's directory, so os.replace is atomic.
    If the body raises, the temp file is removed and path keeps its old
    bytes (or stays absent).  A temp file that cannot be created raises
    an OSError naming path, the file the caller asked for.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        fh = open(tmp, "w", encoding=encoding, newline=newline)
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path: str, header: list, rows) -> None:
    """Write an ASCII CSV atomically: ints and strings as they are, any
    other value as repr(float(v)), so floats round-trip bitwise."""
    with atomic_open(path, encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, (int, str))
                             else repr(float(v)) for v in row])
