"""Latent-action machinery: straight-through contract, Gumbel-max sampling
statistics, nearest-code assignment, and the action-conditioned world head."""

import numpy as np
import pytest

from actlm import autodiff as ad
from actlm.autodiff import Tape, Tensor
from actlm.actions import (action_logits, assign_direct, assign_vq,
                           inverse_encode, one_hot, policy_forward, world_logits)
from actlm.config import ArchConfig
from actlm.model import init_model
from actlm.training import inverse_labels

from conftest import frequency_tolerance


CFG = ArchConfig(vocab_size=9, d_model=8, n_heads=2, max_seq_len=12,
                 intermediate_dim=16, codebook_size=4)


def make_inputs(seed=0, b=2, t=5):
    state = init_model(CFG, seed)
    tokens = np.random.default_rng(seed).integers(0, 9, size=(b, t))
    from actlm.model import base_forward
    e_l = base_forward(state.groups["base"], CFG, tokens)
    return state, e_l


def test_straight_through_forwards_exact_one_hot():
    state, e_l = make_inputs()
    e_i = inverse_encode(state.groups["inverse"], CFG, e_l)
    a = assign_direct(state.groups["inverse"], state.groups["codebook"], e_i,
                      1.0, np.random.default_rng(0))
    np.testing.assert_array_equal(a.straight.data,
                                  one_hot(a.index, CFG.codebook_size, np.float32))
    np.testing.assert_allclose(a.soft.data.sum(axis=-1), 1.0, atol=1e-6)
    assert (a.soft.data > 0).all()


def test_straight_through_gradient_equals_soft_gradient():
    """d(w . straight)/d logits must equal d(w . soft)/d logits."""
    rng = np.random.default_rng(2)
    logits = Tensor(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(3, 4)))
    noise = rng.gumbel(size=(3, 4))

    def straight_readout():
        soft = ad.softmax(ad.add(logits, noise))
        hard = np.zeros_like(soft.data)
        np.put_along_axis(hard, soft.data.argmax(-1)[..., None], 1.0, axis=-1)
        st = ad.add(ad.stop_grad(ad.sub(Tensor(hard), soft)), soft)
        return ad.sum_(ad.mul(w, st))

    def soft_readout():
        soft = ad.softmax(ad.add(logits, noise))
        return ad.sum_(ad.mul(w, soft))

    grads = []
    for build in (straight_readout, soft_readout):
        with Tape([logits]) as tape:
            out = build()
            grads += tape.gradients(out)
    np.testing.assert_allclose(grads[0], grads[1], atol=1e-12)


def test_gumbel_max_frequencies_match_softmax():
    """assign_direct's indices, argmaxes over logits plus
    actions.sample_gumbel noise (1e-12 terms included), follow
    softmax(logits) (the Gumbel-max property): each of the 4 cells within
    conftest.frequency_tolerance at n = 20,000."""
    logits_row = np.array([1.0, 0.0, -1.0, 0.5])
    target = np.exp(logits_row) / np.exp(logits_row).sum()
    n = 20000
    # a one-hot encoder output picks the test row out of the action head
    e_i = Tensor(np.zeros((n, 1, 8)))
    e_i.data[..., 0] = 1.0
    head = np.zeros((8, 4))
    head[0] = logits_row
    inverse = {"action_head": Tensor(head)}
    codebook = {"codes": Tensor(np.zeros((4, 8)))}
    index = assign_direct(inverse, codebook, e_i, 1.0,
                          np.random.default_rng(7)).index
    freq = np.bincount(index.reshape(-1), minlength=4) / n
    tol = frequency_tolerance(target, n, cells=4)
    assert np.all(np.abs(freq - target) <= tol), (freq, target, tol)


def test_inverse_labels_are_the_deterministic_argmax_of_the_logits():
    state, e_l = make_inputs()
    e_i = inverse_encode(state.groups["inverse"], CFG, e_l)
    logits = action_logits(state.groups["inverse"], e_i).data
    np.testing.assert_array_equal(
        logits, e_i.data @ state.groups["inverse"]["action_head"].data)
    labels = inverse_labels(state, e_l)
    np.testing.assert_array_equal(labels, logits.argmax(-1))
    np.testing.assert_array_equal(labels, inverse_labels(state, e_l))


def test_a_nan_action_head_raises_by_name():
    """A non-finite action logit fails labeling and the stage-1 assignment
    alike, naming the logits."""
    state, e_l = make_inputs()
    e_i = inverse_encode(state.groups["inverse"], CFG, e_l)
    state.groups["inverse"]["action_head"].data[0, 1] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite action logits"):
            inverse_labels(state, e_l)
        with pytest.raises(FloatingPointError, match="non-finite action logits"):
            assign_direct(state.groups["inverse"], state.groups["codebook"], e_i,
                          1.0, np.random.default_rng(0))


def test_assign_vq_picks_nearest_with_lowest_index_ties():
    codes = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], np.float32))
    e = Tensor(np.array([[[0.9, 0.1], [0.0, 0.9], [1.0, 0.0]]], np.float32))
    index, action, commit, cb = assign_vq({"codes": codes}, e)
    np.testing.assert_array_equal(index, [[0, 1, 0]])  # tie row 2 -> index 0
    np.testing.assert_array_equal(action.data, codes.data[index])
    # hand oracle: mean squared distance between e and its selected code
    sel = codes.data[index]
    np.testing.assert_allclose(commit.item(), ((e.data - sel) ** 2).mean(),
                               rtol=1e-6)
    np.testing.assert_allclose(cb.item(), commit.item(), rtol=1e-6)


def test_assign_vq_gradient_passes_through_to_encoder():
    codes = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
    e = Tensor(np.random.default_rng(1).normal(size=(1, 2, 2)))
    with Tape([e]) as tape:
        _, action, _, _ = assign_vq({"codes": codes}, e)
        loss = ad.sum_(action)
        g, = tape.gradients(loss)
    np.testing.assert_array_equal(g, np.ones((1, 2, 2)))


def test_world_logits_zero_input_zero_output():
    state = init_model(CFG, 0)
    e = Tensor(np.zeros((1, 3, 8), np.float32))
    a = Tensor(np.zeros((1, 3, 8), np.float32))
    out = world_logits(state.groups["merge"], CFG, e, a)
    np.testing.assert_array_equal(out.data, np.zeros((1, 3, 9)))


def test_world_logits_depends_on_action():
    state, e_l = make_inputs()
    codes = state.groups["codebook"]["codes"].data
    a0 = Tensor(np.broadcast_to(codes[0], (2, 5, 8)).copy())
    a1 = Tensor(np.broadcast_to(codes[1], (2, 5, 8)).copy())
    l0 = world_logits(state.groups["merge"], CFG, e_l, a0)
    l1 = world_logits(state.groups["merge"], CFG, e_l, a1)
    assert not np.allclose(l0.data, l1.data)


def test_policy_forward_rows_normalized():
    state, e_l = make_inputs()
    probs = policy_forward(state.groups["policy"], CFG, e_l)
    assert probs.shape == (2, 5, 4)
    np.testing.assert_allclose(probs.data.sum(-1), 1.0, atol=1e-5)


def test_inverse_encode_needs_two_positions():
    state, _ = make_inputs()
    with pytest.raises(ValueError):
        inverse_encode(state.groups["inverse"], CFG, Tensor(np.zeros((1, 1, 8), np.float32)))


def test_inverse_encode_sees_one_step_of_future():
    """The assignment at position t must react to token x_{t+1} but not to
    tokens after it."""
    state, _ = make_inputs()
    from actlm.model import base_forward
    rng = np.random.default_rng(3)
    tokens = rng.integers(0, 9, size=(1, 6))

    def labels(tok):
        e_l = base_forward(state.groups["base"], CFG, tok)
        e_i = inverse_encode(state.groups["inverse"], CFG, e_l)
        return action_logits(state.groups["inverse"], e_i).data

    base = labels(tokens)
    mutated = tokens.copy()
    mutated[0, 5] = (mutated[0, 5] + 3) % 9
    # logits row j covers context x_{1:j+2}; mutating x at position 5 (0-based)
    # must leave rows 0..3 (contexts ending at positions 1..4) untouched
    np.testing.assert_array_equal(labels(mutated)[:, :4], base[:, :4])
