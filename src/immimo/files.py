"""Whole-file writes: a file the package writes is complete or absent."""

from __future__ import annotations

import os
from collections.abc import Iterable


def replace_file(path, chunks: Iterable[bytes]) -> None:
    """Write `chunks` to a new file beside `path`, then rename it to `path`.

    On any failure, including one raised while `chunks` is being produced,
    the partial file is removed and `path` is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    f = open(tmp, "wb")
    try:
        with f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
