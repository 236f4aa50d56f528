"""All-or-nothing file writes shared by the model, store, feature and
manifest writers."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, *, overwrite: bool = False):
    """Yield a binary file handle whose content replaces ``path`` on success.

    The data goes to a temporary file in the target directory, which is
    renamed over ``path`` when the block finishes and deleted when it
    raises, so a failed write leaves no file behind and an existing
    target unchanged. Refuses to replace an existing file unless
    ``overwrite`` is set.
    """
    path = Path(path)
    if path.exists() and not overwrite:
        raise FileExistsError(f"{path} exists; pass overwrite=True to replace")
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
