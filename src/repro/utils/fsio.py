"""Crash-safe file publication."""

import os
import tempfile

__all__ = ["atomic_write"]


def atomic_write(path, data):
    """Publish ``data`` (bytes) at ``path`` all at once.

    The bytes go to a tempfile in the same directory, are fsync'd, and
    replace ``path`` with ``os.replace``, so a reader (or a process
    restarted after ``kill -9``) sees either the old file or the new
    one, never a torn one. On any failure the tempfile is removed and
    the previous ``path`` is left untouched.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
