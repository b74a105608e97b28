"""Small shared helpers: seed derivation, text input and file hashing."""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

from .errors import DataError


def derive_seed(master: int, name: str) -> int:
    """A named seed derived from ``master``, so one CLI seed drives
    independent RNG streams: the first draw below 2**31 of a generator
    seeded with (master mod 2**32, crc32 of the name)."""
    rng = np.random.default_rng([int(master) & 0xFFFFFFFF,
                                 zlib.crc32(name.encode("utf-8"))])
    return int(rng.integers(2**31))


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file ``path``, newlines as written.  A file
    that cannot be read or decoded is a ``DataError`` naming it as
    ``what``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {what} {path}: {e}") from e


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
