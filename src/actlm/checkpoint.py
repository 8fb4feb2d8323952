"""Binary checkpoint container: little-endian, length-prefixed named-tensor
records with a whole-file checksum. Round trips are bitwise exact."""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict

import numpy as np

from .autodiff import Tensor
from .config import ArchConfig
from .model import ModelState, param_shapes

MAGIC = b"ALMC"
FORMAT_VERSION = 1
_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class CheckpointError(Exception):
    pass


def save_checkpoint(state: ModelState, path, stage: str = "", step: int = 0,
                    rng_state=None) -> None:
    """Atomic write (temp file + rename) of every parameter group."""
    header = {
        "arch": asdict(state.cfg),
        "stage": stage,
        "step": int(step),
        "rng_state": rng_state,
        "groups": sorted(state.groups),
    }
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    hbytes = json.dumps(header, sort_keys=True).encode()
    chunks.append(struct.pack("<I", len(hbytes)))
    chunks.append(hbytes)
    records = []
    for group in sorted(state.groups):
        for name in sorted(state.groups[group]):
            records.append((f"{group}/{name}", state.groups[group][name].data))
    chunks.append(struct.pack("<I", len(records)))
    for name, data in records:
        nb = name.encode()
        le_dtype = np.dtype("<f4") if data.dtype == np.float32 else np.dtype("<f8")
        arr = np.ascontiguousarray(data).astype(le_dtype, copy=False)
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", _DTYPE_CODES[le_dtype]))
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    body = b"".join(chunks)
    digest = hashlib.sha256(body).digest()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(body + digest)
    os.replace(tmp, path)


def load_checkpoint(path):
    """Returns (ModelState, meta dict with stage/step/rng_state). Raises
    CheckpointError on a failed checksum, magic or version check, on any
    parse failure, on trailing bytes, and on groups, tensor names or shapes
    other than init_model builds for the header's architecture (compared
    without building it)."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 32 + 12:
        raise CheckpointError("truncated checkpoint file")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError("checksum mismatch: corrupt or truncated checkpoint")
    if body[:4] != MAGIC:
        raise CheckpointError("not a checkpoint file")
    (version,) = struct.unpack_from("<I", body, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} != supported {FORMAT_VERSION}")
    try:
        header, groups, end = _parse_body(body)
        cfg = ArchConfig(**header["arch"])
        if any(type(v) is not int for v in asdict(cfg).values()):
            raise ValueError(f"non-integer architecture field in {header['arch']}")
        expected = param_shapes(cfg)
        meta = {"stage": header["stage"], "step": header["step"],
                "rng_state": header["rng_state"]}
    except (struct.error, ValueError, TypeError, KeyError, RecursionError) as e:
        raise CheckpointError(f"malformed checkpoint: {e!r}") from None
    if end != len(body):
        raise CheckpointError(f"{len(body) - end} trailing bytes after the last record")
    shapes = {g: {k: t.data.shape for k, t in ts.items()} for g, ts in groups.items()}
    if shapes != expected:
        raise CheckpointError("checkpoint groups, tensor names or shapes do not "
                              "match its architecture")
    return ModelState(cfg, groups), meta


def _parse_body(body: bytes):
    """(header, groups, end offset); struct, JSON and numpy errors propagate."""
    (hlen,) = struct.unpack_from("<I", body, 8)
    off = 12 + hlen
    header = json.loads(body[12:off])
    (n_records,) = struct.unpack_from("<I", body, off)
    off += 4
    groups: dict[str, dict[str, Tensor]] = {g: {} for g in header["groups"]}
    for _ in range(n_records):
        (nlen,) = struct.unpack_from("<H", body, off)
        name = body[off + 2:off + 2 + nlen].decode()
        off += 2 + nlen
        code, ndim = struct.unpack_from("<BB", body, off)
        shape = struct.unpack_from(f"<{ndim}I", body, off + 2)
        off += 2 + 4 * ndim
        dtype = _CODE_DTYPES[code]
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        group, _, tname = name.partition("/")
        if tname in groups[group]:
            raise ValueError(f"repeated tensor {name!r}")
        t = Tensor.__new__(Tensor)
        t.data = np.frombuffer(body[off:off + nbytes], dtype=dtype).reshape(shape).copy()
        t.parents, t._backward = (), None
        groups[group][tname] = t
        off += nbytes
    return header, groups, off
