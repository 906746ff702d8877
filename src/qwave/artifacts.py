"""Atomic artifact writes and the one CSV writer.

Every file a CLI stage writes goes through atomic_text: the text goes to
a temp file beside the target and is moved into place with os.replace
only once it is complete.  A stage that fails or is killed mid-write
leaves the previous artifact, or none, never a truncated one for the
next stage to read.  Every CSV artifact goes through write_csv.
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


def write_csv(path, header, rows) -> None:
    """Atomically write a CSV: the header's names, then one line per row.

    Every value is one %.17g format, byte for byte the per-value
    f"{v:.17g}" join, so every float round-trips bitwise; an int prints as
    itself up to 2**53.  A row whose first field is a str, such as a
    report's `mean` footer, prints that field as is.
    """
    header = list(header)
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    labelled = ",".join(["%s"] + ["%.17g"] * (len(header) - 1)) + "\n"
    with atomic_text(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write((labelled if isinstance(row[0], str) else fmt) % tuple(row))
