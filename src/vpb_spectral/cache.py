"""Binary on-disk cache for assembled operator matrices.

Layout: 8-byte magic, little-endian uint64 header length, JSON header,
raw float64 payload.  The header repeats every parameter that went into the
assembly so a stale file can be rejected instead of silently reused.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .config import sha256_hex
from .errors import ConfigError, VPBError

_MAGIC = b"VPBSPEC1"


def cache_dir() -> Path | None:
    """Cache root from VPB_SPECTRAL_CACHE, made if missing; None disables
    caching.  ConfigError when the directory cannot be made."""
    root = os.environ.get("VPB_SPECTRAL_CACHE", "").strip()
    if not root:
        return None
    path = Path(root)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"VPB_SPECTRAL_CACHE={root!r} is not a usable cache "
                          f"directory: {exc.strerror}") from None
    return path


def key_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True).encode()
    return sha256_hex(blob)[:16]


def write_matrix(path: Path, header: dict, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    head = dict(header)
    head["shape"] = list(matrix.shape)
    head["dtype"] = "float64"
    blob = json.dumps(head, sort_keys=True).encode()
    tmp = Path(f"{path}.{os.getpid()}.tmp")  # concurrent writers never share a file
    with open(tmp, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(matrix.tobytes())
    os.replace(tmp, path)


def read_matrix(path: Path) -> tuple[dict, np.ndarray]:
    """Header and matrix of one cache file; VPBError if it is malformed or
    its payload is not finite."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MAGIC:
        raise VPBError(f"{path}: not an operator cache file")
    try:
        (hlen,) = struct.unpack_from("<Q", blob, 8)
        header = json.loads(blob[16:16 + hlen].decode())
        shape = tuple(header.get("shape", ()))
        data = np.frombuffer(blob, dtype=np.float64, offset=16 + hlen)
        if data.size != int(np.prod(shape)):
            raise VPBError(f"{path}: truncated payload")
        if not np.isfinite(data).all():
            raise VPBError(f"{path}: payload has non-finite entries")
        return header, data.reshape(shape).copy()
    except (struct.error, ValueError, AttributeError, TypeError) as exc:
        raise VPBError(f"{path}: unreadable cache file: {exc}") from exc
