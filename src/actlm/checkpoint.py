"""Binary checkpoint container: little-endian, a JSON header and then each
parameter group as one flat array in param_specs order, with a whole-file
checksum. Round trips are bitwise exact."""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from .config import ArchConfig
from .model import GROUP_NAMES, ModelState, group_layout

MAGIC = b"ALMC"
FORMAT_VERSION = 2
_DTYPES = ("<f4", "<f8")


class CheckpointError(Exception):
    pass


def save_checkpoint(state: ModelState, path, stage: str = "", step: int = 0) -> None:
    """Atomic write (temp file + rename) of every parameter group's buffer,
    in GROUP_NAMES order and the state's dtype, little-endian. On a
    little-endian host each buffer is written as it is, with no copy."""
    flats = [state.flat(g) for g in GROUP_NAMES]
    dtype = state.dtype.newbyteorder("<")
    header = json.dumps({"arch": asdict(state.cfg), "dtype": dtype.str,
                         "stage": stage, "step": int(step)}, sort_keys=True).encode()
    chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(header)), header,
              *(f.astype(dtype, copy=False) for f in flats)]
    digest = hashlib.sha256()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        for chunk in chunks:
            digest.update(chunk)
            f.write(chunk)
        f.write(digest.digest())
    os.replace(tmp, path)


def load_checkpoint(path):
    """Returns (ModelState, meta dict with stage/step). Raises
    CheckpointError on a failed checksum, magic or version check, on a
    malformed header or an unsupported dtype, on an architecture field
    larger than the number of parameters the body holds, and on a body
    whose size is not what the header's architecture and dtype give.

    Each group's buffer is a copy of its array in the file, so it keeps
    the file's dtype."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 32 + 12:
        raise CheckpointError("truncated checkpoint file")
    body, digest = memoryview(blob)[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError("checksum mismatch: corrupt or truncated checkpoint")
    if body[:4] != MAGIC:
        raise CheckpointError("not a checkpoint file")
    (version,) = struct.unpack_from("<I", body, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} != supported {FORMAT_VERSION}")
    try:
        (hlen,) = struct.unpack_from("<I", body, 8)
        start = 12 + hlen
        header = json.loads(bytes(body[12:start]))
        cfg = ArchConfig(**header["arch"])
        if any(type(v) is not int for v in asdict(cfg).values()):
            raise ValueError(f"non-integer architecture field in {header['arch']}")
        dtype = header["dtype"]
        meta = {"stage": header["stage"], "step": header["step"]}
    except (struct.error, ValueError, TypeError, KeyError, RecursionError) as e:
        raise CheckpointError(f"malformed checkpoint: {e!r}") from None
    if dtype not in _DTYPES:
        raise CheckpointError(f"unsupported checkpoint dtype {dtype!r}")
    # no architecture field exceeds the parameter count, so a field the body
    # cannot hold is refused before its layout is built
    held = (len(body) - start) // np.dtype(dtype).itemsize
    for name, value in asdict(cfg).items():
        if value > held:
            raise CheckpointError(
                f"checkpoint holds {len(body) - start} bytes of parameters, too "
                f"few for its architecture field {name} = {value}")
    layout = group_layout(cfg)
    sizes = [sum(math.prod(shape) for _, shape in layout[g]) for g in GROUP_NAMES]
    expected = sum(sizes) * np.dtype(dtype).itemsize
    if len(body) - start != expected:
        raise CheckpointError(
            f"checkpoint holds {len(body) - start} bytes of parameters; its "
            f"architecture and dtype {dtype} give {expected}")
    parts = np.split(np.frombuffer(body, dtype, offset=start), np.cumsum(sizes)[:-1])
    return ModelState(cfg, {g: part.copy() for g, part in zip(GROUP_NAMES, parts)}), meta
