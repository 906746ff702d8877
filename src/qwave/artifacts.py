"""Atomic artifact writes.

Every file a CLI stage writes goes through atomic_text: the text goes to
a temp file beside the target and is moved into place with os.replace
only once it is complete.  A stage that fails or is killed mid-write
leaves the previous artifact, or none, never a truncated one for the
next stage to read.
"""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_text(path):
    """Open a text file that replaces path when the with block ends cleanly.

    The temp file sits in path's directory, so os.replace is a rename on
    one file system.  If the block raises, the temp file is deleted and
    path is left as it was.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "w", encoding="utf-8", newline="\n")  # the pid keeps concurrent writers apart
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
