"""Checkpoint container: bitwise round trips, corruption detection,
version gating, and refusal of forged bodies that carry a valid digest."""

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actlm.checkpoint import (CheckpointError, FORMAT_VERSION, MAGIC,
                              load_checkpoint, save_checkpoint)
from actlm.actions import Decoder
from actlm.autodiff import Tape
from actlm.config import ArchConfig, TrainConfig
from actlm.model import GROUP_NAMES, ModelState, base_forward, init_model
from actlm.training import loss_pre1

from conftest import assert_one_storage, group_tensors, v1_checkpoint_body


CFG = ArchConfig(vocab_size=9, d_model=8, n_heads=2, max_seq_len=12,
                 intermediate_dim=16, codebook_size=4)


def test_round_trip_is_bitwise(tmp_path):
    """In float32 and float64 alike: the file's dtype is kept on load."""
    for dtype in (np.float32, np.float64):
        init = init_model(CFG, 7)
        state = ModelState(CFG, {g: init.flat(g).astype(dtype) for g in GROUP_NAMES})
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path, stage="stage1", step=42)
        loaded, meta = load_checkpoint(path)
        assert meta == {"stage": "stage1", "step": 42}
        assert loaded.cfg == CFG
        assert list(loaded.groups) == list(GROUP_NAMES)
        assert_one_storage(loaded)
        for g in state.groups:
            assert list(loaded.groups[g]) == list(state.groups[g])
            for k in state.groups[g]:
                a, b = state.groups[g][k].data, loaded.groups[g][k].data
                assert a.dtype == b.dtype == dtype
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("code", ["<f4", "<f8"])
def test_a_loaded_state_computes_in_its_file_dtype(tmp_path, code):
    """A checkpoint's dtype is the precision of all the loaded state
    computes: base_forward's embeddings, the loss and every gradient of a
    stage-1 step, and a Decoder's held embeddings, policy probabilities
    and next-token logits."""
    init = init_model(CFG, 7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(ModelState(CFG, {g: init.flat(g).astype(code) for g in GROUP_NAMES}),
                    path)
    state, _ = load_checkpoint(path)
    assert state.dtype == np.dtype(code)
    tokens = np.random.default_rng(0).integers(0, CFG.vocab_size, size=(2, 6))
    e_l = base_forward(state.groups["base"], CFG, tokens)
    with Tape(group_tensors(state, "inverse", "codebook", "merge")) as tape:
        loss, _, _ = loss_pre1(state, tokens, e_l, TrainConfig(),
                               np.random.default_rng(0), "direct")
    grads = tape.gradients(loss)
    dec = Decoder(state)
    dec.sync(tokens)
    got = [e_l.data, loss.data, *grads, dec.e_l, dec.probs, dec.next_logits([0, 1])]
    assert any(g.any() for g in grads) and {a.dtype for a in got} == {state.dtype}


def test_body_is_header_then_each_flat_group(tmp_path):
    """The body after the header is flat(g) for g in GROUP_NAMES, and
    nothing else."""
    state = init_model(CFG, 5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path, stage="s", step=3)
    body = path.read_bytes()[:-32]
    assert body[:4] == MAGIC
    version, hlen = struct.unpack_from("<II", body, 4)
    assert version == FORMAT_VERSION == 2
    header = json.loads(body[12:12 + hlen])
    assert header == {"arch": asdict(CFG), "dtype": "<f4", "stage": "s", "step": 3}
    assert body[12 + hlen:] == b"".join(state.flat(g).tobytes() for g in GROUP_NAMES)


def test_save_is_deterministic(tmp_path):
    state = init_model(CFG, 1)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(state, p1, stage="x", step=1)
    save_checkpoint(state, p2, stage="x", step=1)
    assert p1.read_bytes() == p2.read_bytes()


def test_corruption_detected(tmp_path):
    state = init_model(CFG, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_truncation_detected(tmp_path):
    state = init_model(CFG, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "not.ckpt"
    body = b"XXXX" + b"\x00" * 16
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


def test_version_mismatch_refused(tmp_path):
    state = init_model(CFG, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    blob = bytearray(path.read_bytes()[:-32])
    struct.pack_into("<I", blob, len(MAGIC), FORMAT_VERSION + 1)
    blob += hashlib.sha256(bytes(blob)).digest()
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_no_temp_file_left_behind(tmp_path):
    state = init_model(CFG, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    assert os.listdir(tmp_path) == ["model.ckpt"]


def _sealed(body: bytes) -> bytes:
    return body + hashlib.sha256(body).digest()


def _forge(header, params=b"") -> bytes:
    """A body with the given JSON header and raw parameter bytes."""
    h = json.dumps(header).encode()
    return MAGIC + struct.pack("<II", FORMAT_VERSION, len(h)) + h + params


def _valid_body() -> bytes:
    state = init_model(CFG, 3)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ckpt")
        save_checkpoint(state, path, stage="s", step=1)
        with open(path, "rb") as f:
            return f.read()[:-32]


VALID = _valid_body()
HEADER = {"arch": asdict(CFG), "dtype": "<f4", "stage": "", "step": 0}
PARAMS = VALID[12 + struct.unpack_from("<I", VALID, 8)[0]:]


# A header without its parameters, or parameters cut, extended or sized for
# another architecture, fails the size check, or, with an architecture field
# larger than the parameter count, the field check before it.
FORGED = {
    "empty-header": (_forge({}), "KeyError"),
    "unknown-arch-field": (
        _forge({**HEADER, "arch": {**asdict(CFG), "future_context": 1}}, PARAMS),
        "future_context"),
    "truncated-record": (VALID[:-5], "bytes of parameters"),
    "no-groups": (_forge(HEADER), "bytes of parameters"),
    "no-records": (_forge(HEADER, PARAMS[:4]), "bytes of parameters"),
    "trailing-bytes": (VALID + b"\x00", "bytes of parameters"),
    "zero-heads": (_forge({**HEADER, "arch": {**asdict(CFG), "n_heads": 0}}, PARAMS),
                   "n_heads"),
    "list-header": (_forge([1, 2]), "malformed"),
    "float-width": (_forge({**HEADER, "arch": {**asdict(CFG), "d_model": 8.0}},
                           PARAMS), "non-integer"),
    "huge-vocab": (_forge({**HEADER, "arch": {**asdict(CFG), "vocab_size": 10**6}},
                          PARAMS), "bytes of parameters"),
    "undecodable-header": (
        MAGIC + struct.pack("<II", FORMAT_VERSION, 2) + b"\xff\xfe", "malformed"),
    "unsupported-dtype": (_forge({**HEADER, "dtype": "<f2"}, PARAMS),
                          "unsupported checkpoint dtype"),
    "wide-dtype-narrow-body": (_forge({**HEADER, "dtype": "<f8"}, PARAMS),
                               "bytes of parameters"),
}


@pytest.mark.parametrize("case", sorted(FORGED))
def test_forged_bodies_with_valid_digest_rejected(tmp_path, case):
    body, match = FORGED[case]
    path = tmp_path / "forged.ckpt"
    path.write_bytes(_sealed(body))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_oversized_architecture_refused_before_any_layout(tmp_path, monkeypatch):
    """A sealed header naming 10^6 base layers over a small body is refused
    by the field's name without building a parameter layout."""
    from actlm import checkpoint

    def no_layout(*args):
        raise AssertionError("group_layout called")

    monkeypatch.setattr(checkpoint, "group_layout", no_layout)
    path = tmp_path / "forged.ckpt"
    path.write_bytes(_sealed(_forge(
        {**HEADER, "arch": {**asdict(CFG), "n_layers_base": 10**6}}, PARAMS)))
    with pytest.raises(CheckpointError,
                       match="architecture field n_layers_base = 1000000"):
        load_checkpoint(path)


def test_wrong_tensor_shape_rejected(tmp_path):
    """A checkpoint of one architecture under the header of another."""
    other = init_model(ArchConfig(vocab_size=9, d_model=8, n_heads=2,
                                  max_seq_len=12, intermediate_dim=8,
                                  codebook_size=4), 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(other, path)
    body = path.read_bytes()[:-32]
    (hlen,) = struct.unpack_from("<I", body, 8)
    path.write_bytes(_sealed(_forge(HEADER, body[12 + hlen:])))
    with pytest.raises(CheckpointError, match="bytes of parameters"):
        load_checkpoint(path)


def test_v1_checkpoint_refused_by_version(tmp_path):
    path = tmp_path / "v1.ckpt"
    path.write_bytes(_sealed(v1_checkpoint_body(init_model(CFG, 3))))
    with pytest.raises(CheckpointError, match="version 1 != supported 2"):
        load_checkpoint(path)


def _load_or_refuse(tmp_path_factory, body: bytes) -> None:
    path = tmp_path_factory.mktemp("fuzz") / "x.ckpt"
    path.write_bytes(_sealed(body))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=200))
def test_any_sealed_bytes_load_or_raise_checkpoint_error(tmp_path_factory, data):
    _load_or_refuse(tmp_path_factory, data)
    _load_or_refuse(tmp_path_factory, MAGIC + struct.pack("<I", FORMAT_VERSION) + data)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(VALID) - 1), st.integers(0, 255)),
                min_size=1, max_size=4),
       st.integers(0, len(VALID)))
def test_edited_checkpoints_load_or_raise_checkpoint_error(tmp_path_factory,
                                                           edits, cut):
    """Byte edits and truncations of a real checkpoint, resealed with a valid
    digest, anywhere in the header, record framing or tensor data."""
    body = bytearray(VALID)
    for pos, value in edits:
        body[pos] = value
    _load_or_refuse(tmp_path_factory, bytes(body[:max(cut, 8)]))
    _load_or_refuse(tmp_path_factory, bytes(body))
