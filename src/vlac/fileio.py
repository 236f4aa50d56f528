"""The on-disk primitives shared by every file the library writes.

The three binary formats (``VLACFEAT`` feature files, ``VLACMODL`` models,
``VLACSTOR`` descriptor stores) are an 8-byte magic followed by
little-endian struct fields and float32 payloads. Their modules describe
only the layout; the rules live here, once:

* :func:`atomic_write` makes every write all-or-nothing, the text outputs
  (CSV through :func:`write_csv`, SVG) included;
* :func:`f32_into` is the one float32 encoder: it casts into a caller's
  float32 array, such as a view of a preallocated file buffer, and reports
  which rows are not finite in float32; :func:`f32_bytes` encodes through
  it and refuses such a value;
* :class:`Reader` is the one decoder: a wrong magic raises ``BadMagic``, a
  read past the end ``TruncatedFile``, a non-finite payload value or a
  trailing byte ``DataError``. ``Reader.f32_view`` leaves the finiteness
  check to its caller, which casts the payload once and checks it there.
  Every cast of a payload to float64 runs under
  ``np.errstate(invalid="ignore")``: a signaling NaN makes numpy report an
  invalid cast, and the finiteness check after the cast refuses it.
"""

from __future__ import annotations

import csv
import io
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import BadMagic, DataError, TruncatedFile


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


def write_csv(path, header, rows) -> None:
    """Replace ``path`` with a UTF-8 CSV file of ``header`` and then
    ``rows``, all-or-nothing."""
    with atomic_write(path, overwrite=True) as fh:
        text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        writer = csv.writer(text)
        writer.writerow(header)
        writer.writerows(rows)
        text.detach()  # flushes into fh, which atomic_write closes


def f32_into(out: np.ndarray, arr) -> np.ndarray:
    """Cast ``arr`` into ``out``, a little-endian float32 array of its shape
    (it may be a strided view of a file buffer), and return whether each
    row of ``out``, each entry along its first axis, is finite.

    The cast runs under ``np.errstate(over="ignore")``: a float64 value
    beyond float32's range turns inf without numpy's overflow warning and
    fails the check like NaN and inf.
    """
    with np.errstate(over="ignore"):
        np.copyto(out, arr)
    return np.isfinite(out).all(axis=tuple(range(1, out.ndim)))


def f32_bytes(arr, what: str) -> bytes:
    """``arr`` as C-order little-endian float32 bytes; DataError naming
    ``what`` if a value is not finite after the cast (:func:`f32_into`)."""
    mat = np.empty(np.shape(arr), dtype="<f4")
    if not f32_into(mat, arr).all():
        raise DataError(f"{what} holds a non-finite value")
    return mat.tobytes()


class Reader:
    """A binary file read once into memory and decoded front to back."""

    def __init__(self, path, magic: bytes):
        self.path = Path(path)
        self._data = self.path.read_bytes()
        if self._data[: len(magic)] != magic:
            raise BadMagic(f"{self.path} is not a {magic.decode()} file")
        self._pos = len(magic)

    def _advance(self, n: int, what: str) -> int:
        """Consume ``n`` bytes and return the offset they start at."""
        start = self._pos
        if n > len(self._data) - start:
            raise TruncatedFile(f"{self.path} ended inside {what}")
        self._pos = start + n
        return start

    def bytes(self, n: int, what: str) -> bytes:
        start = self._advance(n, what)
        return self._data[start : self._pos]

    def unpack(self, layout: struct.Struct, what: str) -> tuple:
        return layout.unpack_from(self._data, self._advance(layout.size, what))

    def f32_view(self, rows: int, cols: int, what: str) -> np.ndarray:
        """A (rows, cols) float32 payload as a read-only view of the file's
        bytes, not checked for finiteness."""
        start = self._advance(rows * cols * 4, what)
        return np.frombuffer(
            self._data, dtype="<f4", count=rows * cols, offset=start
        ).reshape(rows, cols)

    def f32(self, rows: int, cols: int, what: str) -> np.ndarray:
        """A (rows, cols) float32 payload as float64; DataError if any value
        is not finite."""
        with np.errstate(invalid="ignore"):
            mat = self.f32_view(rows, cols, what).astype(np.float64)
        if not np.isfinite(mat).all():
            raise DataError(f"{self.path} {what} holds a non-finite value")
        return mat

    def at_end(self) -> bool:
        return self._pos == len(self._data)

    def end(self) -> None:
        """Raise DataError unless every byte of the file has been read."""
        if not self.at_end():
            raise DataError(f"{self.path} has trailing bytes")
