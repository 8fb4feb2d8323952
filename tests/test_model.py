"""Model structure tests: shapes, causality, deterministic init, group
hashing, and key/value-cached forwards against the full-prefix forward."""

import numpy as np
import pytest

from actlm import autodiff as ad
from actlm.config import ArchConfig
from actlm.model import (GROUP_NAMES, KVCache, base_forward, base_logits,
                         init_model, param_shapes)
from conftest import accumulation_length, matmul_error_bound


CFG = ArchConfig(vocab_size=11, d_model=8, n_heads=2, max_seq_len=12,
                 intermediate_dim=16, codebook_size=4)


def test_base_forward_shapes():
    state = init_model(CFG, 0)
    tokens = np.random.default_rng(0).integers(0, 11, size=(3, 7))
    e_l = base_forward(state.groups["base"], CFG, tokens)
    logits = base_logits(state.groups["base"], e_l)
    assert e_l.shape == (3, 7, 8)
    assert logits.shape == (3, 7, 11)


def test_base_forward_is_causal():
    state = init_model(CFG, 0)
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, 11, size=(1, 8))
    p = state.groups["base"]
    logits = base_logits(p, base_forward(p, CFG, tokens))
    for t in range(1, 8):
        mutated = tokens.copy()
        mutated[0, t] = (mutated[0, t] + 1 + rng.integers(0, 9)) % 11
        logits2 = base_logits(p, base_forward(p, CFG, mutated))
        np.testing.assert_array_equal(logits.data[:, :t], logits2.data[:, :t])
        assert not np.array_equal(logits.data[:, t], logits2.data[:, t])


@pytest.mark.parametrize("mode", ["verify", "train"])
@pytest.mark.parametrize("seed", range(6))
def test_cached_base_forward_matches_full_prefix(mode, seed):
    """One token at a time, then a truncation and a re-extension with other
    tokens in chunks: every logit stays within the rounding-error bound of
    the full-prefix forward (a few ulp of the operands in verify mode)."""
    ad.set_precision(mode)
    cfg = ArchConfig(max_seq_len=24)
    p = init_model(cfg, seed).groups["base"]
    rng = np.random.default_rng(seed)
    t = cfg.max_seq_len
    n = accumulation_length(cfg, t, cfg.n_layers_base)

    def check(tokens, logits, start):
        e_full = base_forward(p, cfg, tokens)
        full = base_logits(p, e_full)
        bound = 2 * matmul_error_bound(e_full.data, p["lm_head"].data,
                                       full.data.dtype, n=n)
        err = np.abs(logits - full.data[:, start:])
        assert (err <= bound[:, start:]).all(), (err / bound[:, start:]).max()

    tokens = rng.integers(0, cfg.vocab_size, size=(2, t))
    cache = [KVCache(t) for _ in range(cfg.n_layers_base)]
    steps = [base_logits(p, base_forward(p, cfg, tokens[:, i:i + 1], cache)).data
             for i in range(t)]
    check(tokens, np.concatenate(steps, axis=1), 0)

    keep = int(rng.integers(1, t - 2))
    branch = tokens.copy()
    branch[:, keep:] = rng.integers(0, cfg.vocab_size, size=(2, t - keep))
    for c in cache:
        c.length = keep
    cuts = [keep, *sorted(rng.choice(np.arange(keep + 1, t), 2, replace=False)), t]
    chunks = [base_logits(p, base_forward(p, cfg, branch[:, a:b], cache)).data
              for a, b in zip(cuts, cuts[1:])]
    check(branch, np.concatenate(chunks, axis=1), keep)
    with pytest.raises(ValueError):
        base_forward(p, cfg, branch[:, :1], cache)  # past max_seq_len


def test_init_is_deterministic():
    a, b = init_model(CFG, 3), init_model(CFG, 3)
    assert a.hashes() == b.hashes()
    c = init_model(CFG, 4)
    assert a.hashes() != c.hashes()


def test_all_groups_present():
    state = init_model(CFG, 0)
    assert set(state.groups) == set(GROUP_NAMES)
    assert state.groups["q_target"].keys() == state.groups["q_online"].keys()
    for k in state.groups["q_online"]:
        np.testing.assert_array_equal(state.groups["q_online"][k].data,
                                      state.groups["q_target"][k].data)


@pytest.mark.parametrize("cfg", [CFG, ArchConfig(
    vocab_size=5, d_model=6, n_heads=3, n_layers_base=3, n_layers_inverse=2,
    n_merge_mlps=1, n_layers_policy=2, codebook_size=3, max_seq_len=7,
    intermediate_dim=4)])
def test_param_shapes_match_init_model(cfg):
    """The checkpoint loader checks shapes against param_shapes, so it must
    describe exactly what init_model builds, in the same order."""
    built = {g: {k: t.data.shape for k, t in ts.items()}
             for g, ts in init_model(cfg, 0).groups.items()}
    shapes = param_shapes(cfg)
    assert shapes == built
    assert [list(g) for g in shapes.values()] == [list(g) for g in built.values()]


def test_group_hash_tracks_content():
    state = init_model(CFG, 0)
    before = state.group_hash("policy")
    first = next(iter(state.groups["policy"].values()))
    first.data[...] += 1.0
    assert state.group_hash("policy") != before


def test_params_flattening_and_group_selection():
    state = init_model(CFG, 0)
    sub = state.params("policy", "codebook")
    assert all(k.startswith(("policy/", "codebook/")) for k in sub)
    assert "codebook/codes" in sub


def test_rejects_bad_inputs():
    state = init_model(CFG, 0)
    with pytest.raises(ValueError):
        base_forward(state.groups["base"], CFG, np.zeros(5, dtype=int))
    with pytest.raises(ValueError):
        base_forward(state.groups["base"], CFG,
                     np.zeros((1, CFG.max_seq_len + 1), dtype=int))
    with pytest.raises(ValueError):
        base_forward(state.groups["base"], CFG, np.full((1, 3), 11))


def test_arch_config_validation():
    with pytest.raises(ValueError):
        ArchConfig(d_model=9, n_heads=2)
    with pytest.raises(ValueError):
        ArchConfig(codebook_size=1)
    with pytest.raises(ValueError):
        ArchConfig(eos_token_id=99)
    with pytest.raises(ValueError, match="n_heads"):
        ArchConfig(n_heads=0)
    with pytest.raises(ValueError, match="max_seq_len"):
        ArchConfig(max_seq_len=0)
