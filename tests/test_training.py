"""Training mechanics: optimizer arithmetic, the stage loop (freezing,
non-finite guard, per-step records), loss wiring, leave-one-out policy
gradients, and the Double-DQN update."""

import ast
import ctypes
import gc
import os
import pathlib
import subprocess
import sys
import threading
import weakref
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import actlm
from actlm import autodiff as ad
from actlm import cli, diagnostics, training
from actlm.autodiff import Tape, Tensor
from actlm.actions import policy_forward, policy_log_probs, world_logits
from actlm.config import ArchConfig, TrainConfig
from actlm.data import make_sft_split
from actlm.model import (GROUP_NAMES, ModelState, base_forward, base_logits,
                         block_forward, init_model)
from actlm.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamW,
                            Transition, chunk_map, decision_mask,
                            dqn_batch, dqn_target, inverse_action_labels,
                            inverse_labels, loss_base_ar, loss_dqn,
                            loss_fta, loss_pre1, loss_pre2, loss_rl,
                            pretrain_base_ar, q_values_fn, rl_batch,
                            rollout_batch, run_stage, sweep_rows, sync_target,
                            train_bc, train_fta, train_q, train_rl,
                            train_stage1, val_sweep)
from conftest import BOTH_DTYPES, accumulation_length, assert_one_storage, gamma, \
    group_tensors, matmul_error_bound


CFG = ArchConfig(vocab_size=9, d_model=8, n_heads=2, max_seq_len=16,
                 intermediate_dim=16, codebook_size=4)


def small_state(seed=0, dtype=np.float32):
    return init_model(CFG, seed, dtype)


def small_tokens(seed=0, b=3, t=7):
    return np.random.default_rng(seed).integers(0, 9, size=(b, t))


def frozen_e_l(state, tokens):
    """The base embeddings a frozen-base stage's batches hand its loss."""
    return base_forward(state.groups["base"], state.cfg, tokens)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def codes_state(values):
    """A state whose codebook buffer holds `values`, (codebook_size, 1)
    codes of one dimension, the one param of an AdamW over the codebook."""
    state = init_model(ArchConfig(d_model=1, n_heads=1, codebook_size=len(values)))
    state.flat("codebook")[...] = np.ravel(values)
    return state


def test_adamw_first_step_matches_manual_update():
    state = codes_state([1.0, -2.0])
    cfg = TrainConfig(learning_rate=0.1, grad_clip_norm=1e9)
    opt = AdamW(state, ("codebook",), cfg)
    g = np.array([[0.5], [-0.25]])
    opt.step([g.copy()])
    # bias-corrected first Adam step: update = g / (|g| + eps)
    expected = np.array([[1.0], [-2.0]]) - 0.1 * g / (np.abs(g) + ADAM_EPS)
    np.testing.assert_allclose(state.groups["codebook"]["codes"].data, expected, rtol=1e-5)


def test_adamw_clips_by_global_norm():
    state = codes_state(np.zeros(4))
    cfg = TrainConfig(learning_rate=1.0, grad_clip_norm=1.0)
    opt = AdamW(state, ("codebook",), cfg)
    g = np.full((4, 1), 5.0)  # norm 10 -> scaled by 0.1
    report = opt.step([g.copy()])
    np.testing.assert_allclose(report["grad_norm"], 10.0, rtol=1e-6)
    # effective gradient 0.5 per coordinate; direction must be preserved
    assert (state.groups["codebook"]["codes"].data < 0).all()


def test_adamw_skips_nonfinite_gradients():
    state = codes_state(np.ones(2))
    opt = AdamW(state, ("codebook",), TrainConfig())
    report = opt.step([np.array([[1.0], [np.nan]])])
    assert report == {"skipped_nonfinite": 1.0}
    np.testing.assert_array_equal(state.flat("codebook"), np.ones(2))
    assert opt.t == 0


def test_adamw_decoupled_weight_decay():
    state = codes_state([2.0, 2.0])
    cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5, grad_clip_norm=1e9)
    opt = AdamW(state, ("codebook",), cfg)
    opt.step([np.zeros((2, 1))])
    # zero gradient: only the decay term moves the weight
    np.testing.assert_allclose(state.flat("codebook"), [2.0 * (1 - 0.1 * 0.5)] * 2, rtol=1e-6)


class ReferenceAdamW:
    """The per-parameter AdamW that the flat-moment AdamW replaced: one
    moment array per param. Kept as the reference it is checked against
    bit for bit."""

    def __init__(self, params, cfg):
        self.params, self.cfg, self.t = params, cfg, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self, grads):
        c = self.cfg
        total_sq = 0.0
        for g in grads:
            if not np.all(np.isfinite(g)):
                return {"skipped_nonfinite": 1.0}
            total_sq += float((g.astype(np.float64) ** 2).sum())
        norm = float(np.sqrt(total_sq))
        scale = min(1.0, c.grad_clip_norm / (norm + 1e-12))
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for k, p in enumerate(self.params):
            g = grads[k] * scale
            self.m[k] = ADAM_BETA1 * self.m[k] + (1 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1 - ADAM_BETA2) * g * g
            update = (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + ADAM_EPS)
            if c.weight_decay:
                p.data -= c.learning_rate * c.weight_decay * p.data
            p.data -= (c.learning_rate * update).astype(p.data.dtype)
        return {"grad_norm": norm, "skipped_nonfinite": 0.0}


@BOTH_DTYPES
def test_adamw_flat_moments_match_per_parameter_reference(dtype):
    """Params, moments and grad norms equal the per-parameter optimizer's
    bit for bit over steps with and without clipping, a zero gradient, a
    skipped non-finite step and weight decay, with three group buffers of
    vectors and matrices trained at once."""
    groups = ("inverse", "codebook", "merge")
    rng = np.random.default_rng(0)
    state = init_model(CFG, 0, dtype)
    for g in groups:
        state.flat(g)[...] = rng.normal(size=state.flat(g).size)
    ref_state = ModelState(CFG, {g: state.flat(g).copy() for g in GROUP_NAMES})
    cfg = TrainConfig(learning_rate=3e-3, weight_decay=0.01, grad_clip_norm=5.0)
    opts = [AdamW(state, groups, cfg),
            ReferenceAdamW(group_tensors(ref_state, *groups), cfg)]
    for step in range(6):
        grads = [(rng.normal(size=p.shape) * 10.0 ** (step - 2)).astype(dtype)
                 for p in opts[0].params]
        grads[1][...] = 0.0
        if step == 4:
            grads[3].flat[0] = np.inf
        reports = [opt.step([g.copy() for g in grads]) for opt in opts]
        assert reports[0] == reports[1]
    assert reports[0]["skipped_nonfinite"] == 0.0 and opts[0].t == 5
    for k, (a, r) in enumerate(zip(opts[0].params, opts[1].params)):
        assert a.data.dtype == r.data.dtype and np.array_equal(a.data, r.data), k
    assert_one_storage(state)


def test_a_tensor_detached_from_its_buffer_fails_by_name(tmp_path):
    """Hashing, saving and AdamW read a group's buffer, so a tensor whose
    .data was rebound, or a group dict replaced by fresh tensors, would be
    left out of all three. flat, run_stage (through AdamW's constructor or
    the frozen groups' hashes) and save_checkpoint raise ValueError naming
    the group and tensor instead, and nothing is written."""
    from actlm.checkpoint import save_checkpoint

    def never(*args):
        raise AssertionError("a step ran on a detached tensor")

    def calls(group):
        return (lambda: state.flat(group),
                lambda: run_stage(state, "bc", ("policy",), TrainConfig(), never, never),
                lambda: save_checkpoint(state, tmp_path / "x.ckpt"))

    state = small_state()
    head = state.groups["policy"]["head"]
    head.data = head.data.copy()
    for call in calls("policy"):
        with pytest.raises(ValueError, match="policy/head no longer lives in the policy buffer"):
            call()
    # the frozen base is hashed, and saved, before the policy is reached
    state.groups["base"] = {k: Tensor(t.data.copy()) for k, t in state.groups["base"].items()}
    for call in calls("base"):
        with pytest.raises(ValueError, match="base/tok_emb no longer lives in the base buffer"):
            call()
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# Losses and freezing
# ---------------------------------------------------------------------------

def test_transition_rejects_nonterminal_reward():
    with pytest.raises(ValueError):
        Transition(np.array([1]), 0, np.array([1, 2]), 1.0, False)


@pytest.mark.parametrize("context, next_context, message", [
    ([], [1], "context must not be empty"),
    ([1, 2], [1, 2], "next_context must be context plus one token"),
    ([1, 2], [1, 2, 3, 4], "next_context must be context plus one token"),
    ([1, 2], [1, 5, 3], "next_context must be context plus one token"),
], ids=["empty-context", "no-step", "two-steps", "other-prefix"])
def test_transition_rejects_anything_but_one_token_step(context, next_context,
                                                         message):
    """A transition appends exactly one token to a non-empty context, the
    step the batched Double-DQN read positions rely on."""
    with pytest.raises(ValueError, match=message):
        Transition(np.array(context, dtype=np.int64), 0,
                   np.array(next_context, dtype=np.int64), 0.0, False)


def test_loss_pre1_freezes_base():
    state = small_state()
    tokens = small_tokens()
    e_l = frozen_e_l(state, tokens)
    with Tape() as tape:
        total, _, _ = loss_pre1(state, tokens, e_l, TrainConfig(),
                                np.random.default_rng(0), "direct")
        frozen = tape.gradients(total, group_tensors(state, "base"))
        moving = tape.gradients(total, group_tensors(state, "inverse", "merge",
                                                     "codebook"))
    assert not any(g.any() for g in frozen)
    assert any(g.any() for g in moving)


def test_loss_pre1_regularizer_bounds():
    """mean sum g log g lies in [-ln N, 0]."""
    for seed in range(5):
        state, tokens = small_state(seed), small_tokens(seed)
        with Tape():
            _, parts, _ = loss_pre1(state, tokens, frozen_e_l(state, tokens),
                                    TrainConfig(), np.random.default_rng(seed),
                                    "direct")
        assert -np.log(CFG.codebook_size) - 1e-5 <= parts["L_reg"] <= 1e-6


def test_loss_pre1_vq_parts():
    state, tokens = small_state(), small_tokens()
    with Tape():
        total, parts, index = loss_pre1(state, tokens, frozen_e_l(state, tokens),
                                        TrainConfig(), None, "vq")
    assert set(parts) == {"L_predict", "L_commit", "L_codebook", "total"}
    assert index.shape == (3, 6)
    np.testing.assert_allclose(
        parts["total"],
        parts["L_predict"] + parts["L_codebook"] + 0.25 * parts["L_commit"],
        rtol=1e-5)


def test_inverse_action_labels_shape_and_range():
    state = small_state()
    labels = inverse_action_labels(state, small_tokens(), 1.0)
    assert labels.shape == (3, 6)
    assert labels.min() >= 0 and labels.max() < CFG.codebook_size


def test_gradients_keep_only_leaf_gradients():
    """A leaf's gradient that was not asked for is dropped as soon as a
    backward hands it out, never accumulated. Asked for the lm-head alone
    after a pretrain-base loss, no other parameter's gradient outlives the
    backward after the one that made it (the pass's loop still holds that
    backward's last pair), and only the lm-head's outlives the pass."""
    state = small_state()
    base = state.groups["base"]
    unasked = {id(p) for name, p in base.items() if name != "lm_head"}
    handed, stale_alive = [], []

    def watched(backward):
        def run(g):
            stale_alive.append(sum(r() is not None for refs in handed[:-1] for r in refs))
            pairs = backward(g)
            handed.append([weakref.ref(pg) for parent, pg in pairs
                           if id(parent) in unasked])
            return pairs
        return run

    with Tape() as tape:
        loss, _ = loss_base_ar(state, small_tokens())
    for node in tape.nodes:
        node._backward = watched(node._backward)
    grad, = tape.gradients(loss, [base["lm_head"]])
    assert sum(map(len, handed)) == len(unasked) and not any(stale_alive)
    assert all(r() is None for refs in handed for r in refs)
    assert grad.shape == base["lm_head"].shape and grad.any()


def test_grad_of_an_op_output_raises():
    """Asking for a node's gradient, which `gradients` drops once the
    node's backward has run, fails loudly rather than reading zeros."""
    x = Tensor(np.ones(3, np.float32))
    with Tape() as tape:
        y = ad.mul(x, 2.0)
        loss = ad.sum_(y)
    np.testing.assert_array_equal(tape.gradients(loss, [x])[0], [2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="leaf"):
        tape.gradients(loss, [x, y])


def test_inverse_encoder_gets_the_embeddings_as_a_leaf(monkeypatch):
    """Inverse labels are indices and carry no gradient, so where the base
    is frozen its forward's graph is not kept alive while the inverse
    encoder runs, and nothing is recorded even inside an open tape."""
    from actlm import diagnostics, training
    real, backwards = training.inverse_encode, []

    def recording(inverse, cfg, e_l):
        backwards.append(e_l._backward)
        return real(inverse, cfg, e_l)

    monkeypatch.setattr(training, "inverse_encode", recording)
    state, tokens = small_state(), small_tokens()
    with Tape() as tape:
        inverse_action_labels(state, tokens, 1.0)
    assert tape.nodes == []
    diagnostics.val_loss(state, tokens, "with_actions")
    train_bc(state, tokens, TrainConfig(steps=2, batch_size=2))
    # the first labeling fills the sweep, val_loss reads the warm sweep,
    # and BC's two steps share one window, labelled from the embeddings
    # its one encode made
    assert backwards == [None] * 2


def test_chunked_labels_match_one_batch_labels_beyond_rounding():
    """inverse_action_labels runs the corpus in sweep_rows(T)-row chunks; the
    labels equal those of one batch over all rows wherever the top-two
    action-logit margin exceeds what rounding can move. Each action logit
    of either evaluation errs by at most the accumulated dot-product bound
    through the base and inverse blocks; two evaluations of two logits can
    therefore swap an argmax only within 4 times that bound."""
    state = small_state(4)
    corpus = small_tokens(seed=4, b=2 * sweep_rows(12) + 22, t=12)
    e_l = base_forward(state.groups["base"], CFG, corpus)
    h = e_l
    for i in range(CFG.n_layers_inverse):
        h = block_forward(state.groups["inverse"], f"blk{i}", h, CFG)
    h = h.data[:, 1:]
    head = state.groups["inverse"]["action_head"].data
    logits = h @ head
    one_batch = inverse_labels(state, e_l)
    assert np.array_equal(one_batch, logits.argmax(axis=-1))
    top2 = np.sort(logits, axis=-1)[..., -2:]
    n = accumulation_length(CFG, corpus.shape[1],
                            CFG.n_layers_base + CFG.n_layers_inverse)
    bound = matmul_error_bound(h, head, np.float32, n=n).max(axis=-1)
    decided = top2[..., 1] - top2[..., 0] > 4 * bound
    chunked = inverse_action_labels(state, corpus, 1.0)
    assert decided.mean() > 0.9  # so the comparison below is not vacuous
    assert np.array_equal(chunked[decided], one_batch[decided])


def _mutate_base(state, corpus):
    p = state.groups["base"]["tok_emb"]
    p.data -= 0.5 * p.data
    return corpus


def _mutate_inverse(state, corpus):
    # negating the action head turns every eval-mode argmax into an argmin
    p = state.groups["inverse"]["action_head"]
    p.data -= 2 * p.data
    return corpus


def _other_corpus(state, corpus):
    return (corpus + 1) % CFG.vocab_size


def _verify_precision(state, corpus):
    """The same weights in float64 buffers, the warm sweep carried over."""
    state.__init__(state.cfg, {g: buf.astype(np.float64)
                               for g, buf in state.buffers.items()}, state.sweep)
    return corpus


@pytest.mark.parametrize("mutate", [_mutate_base, _mutate_inverse,
                                    _other_corpus, _verify_precision])
def test_sweep_recomputes_when_its_key_changes(mutate, monkeypatch):
    """A warm sweep is reused as long as the corpus, the precision and the
    base and inverse weights are what it was computed from; changing any of
    them (in place, as AdamW does) recomputes it, and the figures change."""
    from actlm import diagnostics, training
    encoded, real = [], training.base_forward

    def counting(*args, **kwargs):
        encoded.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "base_forward", counting)
    state, corpus = small_state(), small_tokens(b=sweep_rows(7) + 6)

    def report(corpus):
        return (diagnostics.val_loss(state, corpus, "with_actions"),
                diagnostics.val_loss(state, corpus, "base_ar"),
                inverse_action_labels(state, corpus, 1.0))

    before = report(corpus)
    assert len(encoded) == 2  # one base forward per chunk
    assert all(np.array_equal(a, b) for a, b in zip(report(corpus), before))
    assert len(encoded) == 2  # served warm
    corpus = mutate(state, corpus)
    after = report(corpus)
    assert len(encoded) == 4
    assert after[0] != before[0]
    if mutate is _mutate_inverse:
        assert after[1] == before[1]
        assert not np.array_equal(after[2], before[2])
    else:
        assert after[1] != before[1]


def test_held_sweep_is_read_only_and_checks_gumbel_temp():
    """The labels the slot holds cannot be written through what the
    readers get, and a non-positive temperature is still refused on a warm
    slot."""
    from actlm import diagnostics
    state, corpus = small_state(), small_tokens(b=sweep_rows(7) + 6)
    held = inverse_action_labels(state, corpus, 1.0)
    assert held is val_sweep(state, corpus, 1.0).labels
    with pytest.raises(ValueError, match="read-only"):
        held[0] = 0
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="gumbel_temp"):
            inverse_action_labels(state, corpus, bad)
        with pytest.raises(ValueError, match="gumbel_temp"):
            diagnostics.val_loss(state, corpus, "with_actions", gumbel_temp=bad)
        with pytest.raises(ValueError, match="gumbel_temp"):
            diagnostics.action_token_table(state, corpus, gumbel_temp=bad)


SWEEP_CHURN = """
import resource
from actlm import model, training
from actlm.config import ArchConfig, HmmCorpusConfig
from actlm.data import gen_hmm_corpus

state = model.init_model(ArchConfig(), 0)
corpus, _ = gen_hmm_corpus(HmmCorpusConfig(n_sequences=256, seq_len=64))
for fill in range(5):
    if fill == 2:  # after two warm-up fills
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    state.sweep = None
    training.val_sweep(state, corpus, 1.0)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 3)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="no glibc mallopt: malloc thresholds are not pinned")
def test_warm_val_sweep_refills_without_page_faults():
    """Importing actlm pins glibc's malloc thresholds, so a warm process
    refills a 256x64 validation sweep from pages it already holds. With
    glibc's dynamic thresholds each fill re-faulted about 17,800 pages.
    The fills run in a fresh interpreter: in this one, whatever earlier
    tests freed would decide the dynamic thresholds."""
    src = os.path.dirname(os.path.dirname(actlm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", SWEEP_CHURN], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert float(out) < 200


def test_one_chunked_corpus_loop():
    """Exactly two functions in the package loop over rows in chunks (a loop
    over a stepped `range`). One is `val_sweep`; the one task it hands
    `chunk_map` runs the base forward on those chunks. The other is
    `_encode_window`, which runs one base forward over a window of steps
    and only slices it per step in its loop. So a second per-chunk encoding
    of a corpus cannot come back unnoticed."""
    def called(node):
        return {n.func.id for n in ast.walk(node)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}

    found, trees = set(), {}
    for path in sorted(pathlib.Path(actlm.__file__).parent.glob("*.py")):
        trees[path.name] = ast.parse(path.read_text())
        for fn in ast.walk(trees[path.name]):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters = [node.iter]
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                       ast.GeneratorExp)):
                    iters = [g.iter for g in node.generators]
                else:
                    continue
                if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == "range" and len(n.args) == 3
                       for it in iters for n in ast.walk(it)):
                    found.add((path.name, fn.name))
    assert found == {("training.py", "val_sweep"),
                     ("training.py", "_encode_window")}, found
    defs = {f.name: f for f in trees["training.py"].body
            if isinstance(f, ast.FunctionDef)}
    window = defs["_encode_window"]
    assert [n.func.id for n in ast.walk(window) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)].count("base_forward") == 1
    loops = [n for n in ast.walk(window) if isinstance(n, ast.ListComp)]
    assert loops and not any(called(loop) & {"base_forward", "inverse_labels"}
                             for loop in loops)
    tasks = [c.args[0] for c in ast.walk(defs["val_sweep"])
             if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
             and c.func.id == "chunk_map"]
    assert len(tasks) == 1
    assert any("base_forward" in called(defs[name])
               for name in called(tasks[0]) & set(defs))


STAGE_DRIVERS = ("pretrain_base_ar", "train_stage1", "train_bc", "train_fta",
                 "train_rl", "train_q")


def test_one_stage_loop():
    """Exactly one function in the package opens a `Tape(`, builds an
    `AdamW(` and asks a tape for `gradients(`: `run_stage`. Each of the six
    stage drivers calls it, so a second training loop cannot come back
    unnoticed."""
    def called(node):
        return {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, (ast.Name, ast.Attribute))}

    builders, drivers = {"Tape": set(), "AdamW": set(), "gradients": set()}, {}
    for path in sorted(pathlib.Path(actlm.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for built in called(fn) & set(builders):
                builders[built].add((path.name, fn.name))
            if fn.name in STAGE_DRIVERS:
                drivers[(path.name, fn.name)] = "run_stage" in called(fn)
    assert builders == dict.fromkeys(builders, {("training.py", "run_stage")}), builders
    assert drivers == {("training.py", name): True for name in STAGE_DRIVERS}


@pytest.fixture(params=[1, 4], ids=["1cpu", "4cpus"])
def cpus(request, monkeypatch):
    """The CPU count that chunk_map and frozen_batches read from the
    affinity set, forced."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(request.param)))
    return request.param


def per_chunk_ces(state, chunk):
    """A chunk's inverse labels and its per-position base and with-actions
    CE arrays, from a base forward of its own, computed sequentially."""
    base = state.groups["base"]
    e_l = base_forward(base, state.cfg, chunk)
    labels = inverse_labels(state, e_l)
    plain = ad.cross_entropy(ad.slice_time(base_logits(base, e_l), 0, -1),
                             chunk[:, 1:]).data
    action = ad.embedding(state.groups["codebook"]["codes"], labels)
    logits = world_logits(state.groups["merge"], state.cfg,
                          ad.slice_time(e_l, 0, -1), action)
    return labels, plain, ad.cross_entropy(logits, chunk[:, 1:]).data


def test_sweep_and_ce_readers_equal_a_sequential_per_chunk_reference(
        cpus, monkeypatch):
    """On a ragged corpus, the sweep's labels and both CEs, and the readers
    that return them, equal a sequential per-chunk loop bit for bit at any
    CPU count; inside an open tape they record nothing and leave that tape
    recording; at most min(chunks, CPUs) threads run the tasks, the
    one fill's chunk_map starts exactly one worker fewer, the readers on
    the warm slot start none, and none is alive afterwards."""
    state, rows = small_state(), sweep_rows(7)
    corpus = small_tokens(seed=6, b=3 * rows + 5)
    chunks = [corpus[i:i + rows] for i in range(0, len(corpus), rows)]
    want_labels, sums = [], np.zeros(2)
    for chunk in chunks:
        labels, *ces = per_chunk_ces(state, chunk)
        want_labels.append(labels)
        sums += [float(ce.sum()) for ce in ces]
    count = len(corpus) * (corpus.shape[1] - 1)

    ran, started, real = set(), [], training.base_forward

    def recording(*args, **kwargs):
        ran.add(threading.get_ident())
        return real(*args, **kwargs)

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(training, "base_forward", recording)
    monkeypatch.setattr(threading, "Thread", Counted)
    alive = set(threading.enumerate())
    with Tape() as tape:
        act_ce = diagnostics.val_loss(state, corpus, "with_actions")
        base_ce = diagnostics.val_loss(state, corpus, "base_ar")
        labels = inverse_action_labels(state, corpus, 1.0)
        assert tape.nodes == [] and ad.recording()
        after = ad.mul(Tensor(np.float32(1.0)), 2.0)
        assert tape.nodes == [after]
    assert not ad.recording()
    assert set(threading.enumerate()) == alive
    n = min(len(chunks), cpus)
    assert len(ran) <= n and (n > 1 or ran == {threading.get_ident()})
    # one chunk_map call filled the slot for all three readers
    assert len(started) == n - 1
    assert [len(c) for c in chunks] == [rows, rows, rows, 5]
    assert np.array_equal(labels, np.concatenate(want_labels))
    sweep = val_sweep(state, corpus, 1.0)
    assert sweep.labels is labels
    assert (sweep.base_ce, sweep.world_ce) == (base_ce, act_ce)
    assert base_ce == sums[0] / count
    assert act_ce == sums[1] / count


def test_chunk_map_reraises_a_worker_error_on_the_caller(monkeypatch):
    """A task that raises on a worker thread reaches the caller as itself
    once every worker has ended; the calling thread's own tasks succeed."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    caller, raised = threading.current_thread(), threading.Event()

    def task(i):
        if threading.current_thread() is caller:
            raised.wait(timeout=10)
            return i
        raised.set()
        raise FloatingPointError("non-finite action logits")

    alive = set(threading.enumerate())
    with pytest.raises(FloatingPointError, match="non-finite action logits"):
        chunk_map(task, list(range(8)))
    assert raised.is_set()
    assert set(threading.enumerate()) == alive


def test_chunk_map_stress_hands_out_each_chunk_once(monkeypatch):
    """More workers than cores, switching threads as often as the
    interpreter allows: every chunk runs exactly once and its result lands
    at its own index."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    calls, interval = [], sys.getswitchinterval()

    def task(i):
        calls.append(i)
        return np.full(3, i) * 2

    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls.clear()
            out = chunk_map(task, list(range(50)))
            assert sorted(calls) == list(range(50))
            assert [int(o[0]) for o in out] == [2 * i for i in range(50)]
    finally:
        sys.setswitchinterval(interval)


def test_cmd_eval_names_a_sweep_error_and_exits_1(tmp_path, monkeypatch,
                                                  capsys):
    """NaN action logits raise in the sweep's tasks, on workers and the
    calling thread alike; the eval subcommand exits 1 naming the error."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    argv = ["--hmm_train_count", "16", "--hmm_seq_len", "12",
            "--hmm_val_count", str(3 * sweep_rows(12)), "--max_seq_len", "16",
            "--search_max_len", "16", "--eval_contexts", "4",
            "--prompt_len", "5", "--prefix_len", "5", "--rl_max_len", "8",
            "--n_samples", "2", "--out_dir", str(tmp_path)]
    state = init_model(cli.load_run_config(None, argv).arch(), 0)
    state.groups["inverse"]["action_head"].data[:] = np.nan
    monkeypatch.setattr(cli, "_load_input", lambda cfg: state)
    alive = set(threading.enumerate())
    assert cli.main(["eval"] + argv) == 1
    assert capsys.readouterr().err.startswith("error: non-finite action logits")
    assert not (tmp_path / "eval.json").exists()
    assert set(threading.enumerate()) == alive


def pairwise_sum_depth(n: int) -> int:
    """The most roundings any term takes in numpy's float pairwise sum of
    n contiguous values (`pairwise_sum` in numpy's loops_utils.h.src), plus
    one for adding the result into the reduction's output: below 8 terms a
    running sum; up to 128, eight running sums of n // 8 terms, a
    three-level tree over them and a running sum of the n % 8 left over;
    beyond that, one more level per halving."""
    if n < 8:
        return max(n - 1, 0) + 1
    if n <= 128:
        return n // 8 - 1 + 3 + n % 8 + 1
    half = n // 2 - (n // 2) % 8
    return 1 + max(pairwise_sum_depth(half), pairwise_sum_depth(n - half))


def in_order(ces) -> float:
    """The chunks' float32 CE sums added up left to right in float64, as
    the CE readers add them (Python's sum() may compensate)."""
    total = 0.0
    for ce in ces:
        total += float(ce.sum())
    return total


def test_val_ces_move_within_the_pairwise_summation_bound_at_t64():
    """At T=64 a sweep chunk holds 16 rows (64 before, and still 64 at
    T=16). Every position's CE is the same bit for bit as with 64-row
    chunks; only the float32 chunk sums regroup. CE is nonnegative, so a
    float32 pairwise sum of n terms errs by at most gamma_d(n) of the exact
    sum, d(n) its rounding depth (Higham, 2nd ed., section 4.2), and the
    float64 total of k chunk sums by gamma_k more; two groupings of the
    same terms therefore differ by at most the sum of their bounds."""
    assert sweep_rows(16) == 64 and sweep_rows(64) == 16
    cfg = ArchConfig(vocab_size=9, d_model=8, n_heads=2, max_seq_len=64,
                     intermediate_dim=16, codebook_size=4)
    state = init_model(cfg, 7)
    corpus = np.random.default_rng(7).integers(0, 9, size=(150, 64))
    figures = {"base_ar": diagnostics.val_loss(state, corpus, "base_ar"),
               "with_actions": diagnostics.val_loss(state, corpus, "with_actions")}
    rows = sweep_rows(64)
    new = [per_chunk_ces(state, corpus[i:i + rows])[1:]
           for i in range(0, len(corpus), rows)]
    old = [per_chunk_ces(state, corpus[i:i + 64])[1:]
           for i in range(0, len(corpus), 64)]
    count = corpus.shape[0] * 63
    for k, mode in enumerate(figures):
        assert np.array_equal(np.concatenate([ces[k] for ces in new]),
                              np.concatenate([ces[k] for ces in old]))
        assert figures[mode] == in_order([ces[k] for ces in new]) / count
        before = in_order([ces[k] for ces in old]) / count
        g_new = gamma(pairwise_sum_depth(16 * 63), np.float32) \
            + gamma(len(new), np.float64)
        g_old = gamma(pairwise_sum_depth(64 * 63), np.float32) \
            + gamma(len(old), np.float64)
        assert abs(figures[mode] - before) <= (g_new + g_old) / (1 - g_old) * before


def policy_argmax(state, e_l):
    """FTA-P's actions: the frozen policy's argmax."""
    probs = policy_forward(state.groups["policy"], state.cfg, e_l)
    return probs.data[:, :-1].argmax(axis=-1)


def test_shared_base_forward_gives_the_same_losses_and_gradients():
    """FTA reads its actions (FTA-I the inverse labels, FTA-P the frozen
    policy's argmax) from its loss's own taped base forward. Its steps move
    the base exactly as steps whose batches are labelled from a separate
    untaped forward, bit for bit."""
    split = make_sft_split(small_tokens(b=8), 3)
    cfg = TrainConfig(steps=3, batch_size=4)
    for mode, label in (("FTA-I", inverse_labels), ("FTA-P", policy_argmax)):
        shared, separate = small_state(), small_state()
        train_fta(shared, split, cfg, mode)

        def batches(rng):
            for _ in range(cfg.steps):
                rows = rng.integers(0, len(split.tokens), size=cfg.batch_size)
                tokens = split.tokens[rows]
                yield tokens, label(separate, frozen_e_l(separate, tokens))

        run_stage(separate, "separate", ("base",), cfg, batches,
                  lambda batch: loss_fta(separate, batch[0], 3,
                                         lambda e_l: batch[1]))
        assert shared.group_hash("base") == separate.group_hash("base")
        assert shared.group_hash("base") != small_state().group_hash("base")


def test_loss_pre2_only_moves_policy():
    state, tokens = small_state(), small_tokens()
    e_l = frozen_e_l(state, tokens)
    with Tape() as tape:
        loss, _ = loss_pre2(state, e_l, inverse_labels(state, e_l), 0)
        frozen = tape.gradients(loss, group_tensors(state, "base", "inverse",
                                                    "merge", "codebook"))
        moving = tape.gradients(loss, group_tensors(state, "policy"))
    assert not any(g.any() for g in frozen)
    assert any(g.any() for g in moving)


def test_loss_fta_only_moves_base():
    state = small_state()
    tokens = small_tokens()
    aidx = inverse_labels(state, frozen_e_l(state, tokens))
    with Tape() as tape:
        loss, _ = loss_fta(state, tokens, 3, lambda e_l: aidx)
        # actions are held fixed: no gradient into the selector or the codes
        # (the merge still receives gradients; its freeze is optimizer
        # exclusion)
        frozen = tape.gradients(loss, group_tensors(state, "inverse", "codebook",
                                                    "policy"))
        moving = tape.gradients(loss, group_tensors(state, "base"))
    assert not any(g.any() for g in frozen)
    assert any(g.any() for g in moving)


def test_loss_fta_rejects_empty_response():
    state = small_state()
    tokens = small_tokens(t=4)
    with pytest.raises(ValueError):
        loss_fta(state, tokens, 4, lambda e_l: inverse_labels(state, e_l))


def test_train_fta_rejects_unknown_mode_before_any_step():
    state = small_state()
    before = state.hashes()
    split = make_sft_split(small_tokens(b=8), 3)
    records = []
    with pytest.raises(ValueError, match="unknown FTA mode: 'FTA-X'"):
        train_fta(state, split, TrainConfig(steps=2, batch_size=4), "FTA-X",
                  records.append)
    assert records == [] and state.hashes() == before


def test_train_stage1_rejects_unknown_assignment_before_any_step():
    state = small_state()
    before = state.hashes()
    records = []
    with pytest.raises(ValueError, match="unknown assignment mode: 'kmeans'"):
        train_stage1(state, small_tokens(b=8), TrainConfig(steps=2, batch_size=4),
                     assignment="kmeans", metrics_cb=records.append)
    assert records == [] and state.hashes() == before


# Every stage driver on a tiny corpus: (run(state, metrics_cb, steps), a
# group the stage freezes, a trainable (group, tensor) whose NaN the stage
# must reject). FTA-I is not poisoned: its labels come from the same base
# embeddings, and the inverse rejects non-finite action logits first.
def _drivers():
    corpus = small_tokens(b=8)
    split = make_sft_split(corpus, 3)
    transitions = [
        Transition(np.array([1, 2]), 2, np.array([1, 2, 3]), 0.0, False),
        Transition(np.array([1, 2, 3]), 1, np.array([1, 2, 3, 4]), 1.0, True)]

    def cfg(steps):
        return TrainConfig(steps=steps, batch_size=4, rl_group_size=2)

    return {
        "pretrain-base": (lambda s, cb, n: pretrain_base_ar(s, corpus, corpus, cfg(n), cb),
                          "policy", ("base", "lm_head")),
        "stage1": (lambda s, cb, n: train_stage1(s, corpus, cfg(n), metrics_cb=cb),
                   "base", ("merge", "lm_head")),
        "bc-policy": (lambda s, cb, n: train_bc(s, corpus, cfg(n), metrics_cb=cb),
                      "base", ("policy", "head")),
        "fta-FTA-I": (lambda s, cb, n: train_fta(s, split, cfg(n), "FTA-I", cb),
                      "merge", None),
        "fta-FTA-P": (lambda s, cb, n: train_fta(s, split, cfg(n), "FTA-P", cb),
                      "codebook", ("base", "tok_emb")),
        "rl": (lambda s, cb, n: train_rl(s, corpus[:2, :3], lambda r: float(len(r) % 2),
                                         cfg(n), max_len=8, updates=n, metrics_cb=cb),
               "base", ("policy", "head")),
        "train-q": (lambda s, cb, n: train_q(s, transitions, cfg(n), cb),
                    "policy", ("q_online", "head")),
    }


DRIVERS = sorted(_drivers())

# Each stage with a group it freezes: the one its _drivers() entry names,
# plus FTA-P's policy (which it reads) and stage-1's online Q head.
FROZEN_CASES = [pytest.param(stage, frozen, id=stage)
                for stage, (_, frozen, _) in sorted(_drivers().items())] + [
    pytest.param("fta-FTA-P", "policy", id="fta-FTA-P-policy"),
    pytest.param("stage1", "q_online", id="stage1-q_online")]


@pytest.mark.parametrize("stage, frozen", FROZEN_CASES)
def test_stage_drivers_enforce_freezing(stage, frozen):
    run = _drivers()[stage][0]
    state = small_state()
    calls = {"n": 0}

    def sabotage(record):
        if calls["n"] == 0:
            next(iter(state.groups[frozen].values())).data.flat[0] += 1.0
        calls["n"] += 1

    with pytest.raises(RuntimeError, match=f"frozen groups drifted during {stage}"):
        run(state, sabotage, 2)


@pytest.mark.parametrize("stage", [s for s in DRIVERS if _drivers()[s][2]])
def test_stage_drivers_reject_nonfinite_loss(stage):
    run, _, (group, name) = _drivers()[stage]
    state = small_state()
    state.groups[group][name].data[...] = np.nan
    # rl's rollout reads the NaN policy before its loss does
    message = ("non-finite policy probabilities at position 0" if stage == "rl"
               else f"non-finite {stage} loss at step 0")
    with np.errstate(invalid="ignore"), \
            pytest.raises(FloatingPointError, match=message):
        run(state, None, 2)


@pytest.mark.parametrize("stage", DRIVERS)
def test_stage_drivers_record_every_step(stage):
    records = []
    _drivers()[stage][0](small_state(), records.append, 3)
    by_stage = {}
    for r in records:
        assert {"stage", "step", "grad_norm", "skipped_nonfinite"} <= set(r), r
        by_stage.setdefault(r["stage"], []).append(r["step"])
    # FTA-I runs its policy refresh as a second stage of its own
    expected = {stage, "fta-policy-refresh"} if stage == "fta-FTA-I" else {stage}
    assert set(by_stage) == expected
    assert all(steps == [0, 1, 2] for steps in by_stage.values())


@pytest.mark.parametrize("stage", DRIVERS)
def test_stage_drivers_keep_each_group_in_one_buffer(stage):
    """After a stage, every group's tensors are still views into its
    buffer, and flat hands out that buffer, not a copy."""
    state = small_state()
    _drivers()[stage][0](state, None, 2)
    assert_one_storage(state)


@BOTH_DTYPES
@pytest.mark.parametrize("stage", DRIVERS)
def test_stage_drivers_keep_the_state_dtype(stage, dtype, monkeypatch):
    """Every node a stage's tapes record, every gradient they give and
    every buffer the stage leaves has the state's dtype, float32 and
    float64 alike, so a constant that upcasts a float32 loss fails here
    by name."""
    state, steps = small_state(dtype=dtype), []

    class CheckedTape(Tape):
        def gradients(self, output, leaves):
            grads = super().gradients(output, leaves)
            bad = [f"node {i}: {n.data.dtype}" for i, n in enumerate(self.nodes)
                   if n.data.dtype != dtype]
            bad += [f"a gradient: {g.dtype}" for g in grads if g.dtype != dtype]
            assert not bad, f"{stage} step {len(steps)} left {np.dtype(dtype)} at {bad}"
            steps.append(len(self.nodes))
            return grads

    monkeypatch.setattr(training, "Tape", CheckedTape)
    _drivers()[stage][0](state, None, 2)
    assert len(steps) == (4 if stage == "fta-FTA-I" else 2) and all(steps)
    assert all(buf.dtype == dtype for buf in state.buffers.values())


def test_constant_factors_get_no_gradient(monkeypatch):
    """loss_rl and loss_dqn hand ad.mul their constant factors as arrays,
    so no gradient is computed or held for them: the backward of each
    recorded ad.mul node with an array factor, RL's one-hot, advantages
    and valid mask and DQN's action mask, returns a pair for its Tensor
    operand alone. Against the same losses with every array factor of
    ad.mul wrapped in a Tensor, the loss and every parameter's gradient
    are bitwise equal."""
    state = small_state()
    cfg = TrainConfig(rl_group_size=2)
    rl = rl_batch(state, small_tokens(b=2, t=3), lambda r: float(len(r) % 2), cfg,
                  np.random.default_rng(0), 8, state.groups["policy"])
    dqn = dqn_batch(state, [
        Transition(np.array([1, 2]), 2, np.array([1, 2, 3]), 0.0, False),
        Transition(np.array([4]), 1, np.array([4, 5]), 0.5, True)])
    real, params, products = ad.mul, group_tensors(state, *GROUP_NAMES), []

    def spying(a, b):
        out = real(a, b)
        if isinstance(b, np.ndarray):
            products.append((a, out))
        return out

    def wrapping(a, b):
        return real(a, Tensor(b.astype(a.data.dtype)) if isinstance(b, np.ndarray) else b)

    for build, constants in ((lambda: loss_rl(state, rl, cfg)[0], 3),
                             (lambda: loss_dqn(state, dqn, 0.9)[0], 1)):
        runs, products[:] = [], []
        for mul in (spying, wrapping):
            monkeypatch.setattr(ad, "mul", mul)
            with Tape() as tape:
                loss = build()
            runs.append([loss.data, *tape.gradients(loss, params)])
        assert len(products) == constants
        for a, out in products:
            pairs = out._backward(np.ones_like(out.data))
            assert len(pairs) == 1 and pairs[0][0] is a
        assert all(g.tobytes() == r.tobytes() for g, r in zip(*runs))


# Tape nodes of one step of each stage at the _drivers() shapes: the graph
# each loss records, which dropping closures outside a tape must not change.
# A transformer block is one node; the world head is 13, six per merge MLP
# and its lm-head; rl runs its reference policy untaped.
STAGE_TAPE_NODES = {
    "bc-policy": {"bc-policy": 6},
    "fta-FTA-I": {"fta-FTA-I": 23, "fta-policy-refresh": 6},
    "fta-FTA-P": {"fta-FTA-P": 23},
    "pretrain-base": {"pretrain-base": 11},
    "rl": {"rl": 19},
    "stage1": {"stage1": 32},
    "train-q": {"train-q": 7},
}


@pytest.mark.parametrize("stage", DRIVERS)
def test_stage_losses_record_only_under_a_tape(stage, monkeypatch):
    """Each stage's loss records its pinned graph on a tape, every node with
    its closure; built without a tape it keeps no graph."""
    from actlm import training
    nodes = {}

    def one_step(state, name, trainable, cfg, batches, loss_fn, metrics_cb=None):
        with closing(batches(np.random.default_rng(cfg.seed))) as source:
            batch = next(source)
        with Tape() as tape:
            loss_fn(batch)
        assert all(node._backward is not None for node in tape.nodes)
        assert loss_fn(batch)[0]._backward is None
        nodes[name] = len(tape.nodes)
        return []

    monkeypatch.setattr(training, "run_stage", one_step)
    _drivers()[stage][0](small_state(), None, 1)
    assert nodes == STAGE_TAPE_NODES[stage]


# The stage parts that take a frozen base's embeddings from frozen_batches.
WINDOWED = {"stage1", "bc-policy", "fta-policy-refresh"}


@pytest.mark.parametrize("stage", DRIVERS)
def test_each_stage_step_runs_one_base_forward(stage, monkeypatch):
    """Every step of a stage part that encodes per step calls
    `training.base_forward` exactly once: a trained base's loss runs the
    forward its actions are read from, rl encodes its rollouts once for the
    policy and the reference policy, and train-q encodes the next contexts
    of its whole batch, of mixed lengths, in one forward. (rl's decoding
    runs its own cached forwards through `actions`.) A part that freezes
    the base (stage-1, BC, FTA-I's policy refresh) encodes windows of whole
    steps, inline on one CPU and on a worker thread on more: every row it
    draws is encoded exactly once, in step order, by one forward for labels
    and loss alike, and no row past its last step is drawn. Two-step
    windows make the third step a window of its own. An empty source (0
    steps) records nothing, draws no row, leaves no thread and moves no
    group."""
    from actlm import training
    real, real_draw = training.base_forward, training._drawn_rows
    monkeypatch.setattr(training, "SWEEP_TOKENS", 2 * 4 * 7)

    def encoding(*args, **kwargs):
        encoded.append(args[2])
        return real(*args, **kwargs)

    def drawing(*args):
        for rows in real_draw(*args):
            drawn.append(rows)
            yield rows

    def record(r):
        parts.append((r["stage"], len(encoded), len(drawn)))

    monkeypatch.setattr(training, "base_forward", encoding)
    monkeypatch.setattr(training, "_drawn_rows", drawing)
    for n_cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=n_cpus: set(range(n)))
        encoded, drawn, parts = [], [], []
        state, alive = small_state(), threading.active_count()
        before = state.hashes()
        _drivers()[stage][0](state, record, 0)
        assert parts == [] and drawn == [] and state.hashes() == before
        assert threading.active_count() == alive
        encoded = []
        _drivers()[stage][0](small_state(), record, 3)
        # FTA-I's policy refresh runs three steps of a stage of its own
        assert len(parts) == (6 if stage == "fta-FTA-I" else 3)
        per_step = [(part, n - m) for (part, n, _), (_, m, _)
                    in zip(parts, [(None, 0, 0)] + parts)]
        assert all(n == 1 for part, n in per_step if part not in WINDOWED)
        windowed = [i for i, (part, _, _) in enumerate(parts) if part in WINDOWED]
        if windowed:
            # the windowed part comes last; count from where the one before
            # it ended
            assert windowed == list(range(len(parts) - 3, len(parts)))
            _, encodes, draws = parts[windowed[0] - 1] if windowed[0] else (None, 0, 0)
            assert len(drawn) - draws == 3
            assert [len(e) for e in encoded[encodes:]] == [8, 4]
            assert np.array_equal(np.concatenate(encoded[encodes:]),
                                  np.concatenate(drawn[draws:]))


def frozen_stage_inputs():
    """A corpus and config whose 6 steps of 32 rows at T=8 make a 4-step
    window and a 2-step one."""
    cfg = TrainConfig(steps=6, batch_size=32)
    assert sweep_rows(8) // cfg.batch_size == 4
    return small_tokens(seed=3, b=40, t=8), cfg


@BOTH_DTYPES
def test_prefetched_windows_train_as_per_step_encodes(dtype, cpus, monkeypatch):
    """Stage-1 and BC give the same records and weights, bit for bit,
    whether their windows are encoded inline (1 CPU) or on a worker (4
    CPUs), and the same as one-step windows encoded inline, which is the
    per-step encode. Under prefetch, each stage's windows are encoded by
    one worker thread of its own, which is gone when the stage returns."""
    from actlm import training
    corpus, cfg = frozen_stage_inputs()

    def run():
        state, records = small_state(dtype=dtype), []
        train_stage1(state, corpus, cfg, metrics_cb=records.append)
        train_bc(state, corpus, cfg, metrics_cb=records.append)
        return records, state.hashes()

    threads, real = set(), training.base_forward

    def tracking(*args, **kwargs):
        threads.add(threading.current_thread())
        return real(*args, **kwargs)

    alive = threading.active_count()
    with monkeypatch.context() as m:
        m.setattr(training, "base_forward", tracking)
        got = run()
    assert threading.active_count() == alive
    main = threading.current_thread()
    assert threads == {main} if cpus == 1 else \
        (len(threads) == 2 and main not in threads)
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        m.setattr(training, "SWEEP_TOKENS", 1)
        want = run()
    assert len(got[0]) == 12 and got == want


def test_a_non_finite_window_raises_from_train_bc(cpus, monkeypatch):
    """An action logit made non-finite in BC's second window, which the
    worker encodes under 4 CPUs while the first window's steps train,
    raises FloatingPointError from train_bc when that window is wanted,
    after the first window's four steps; no thread outlives the stage."""
    from actlm import training
    real, threads = training.inverse_encode, []

    def poisoned(inverse, cfg, e_l):
        threads.append(threading.current_thread())
        e_i = real(inverse, cfg, e_l)
        if len(threads) == 2:
            e_i.data[0, 0, 0] = np.nan
        return e_i

    monkeypatch.setattr(training, "inverse_encode", poisoned)
    records, alive = [], threading.active_count()
    with pytest.raises(FloatingPointError, match="non-finite action logits"):
        train_bc(small_state(), *frozen_stage_inputs(), metrics_cb=records.append)
    assert threading.active_count() == alive
    assert [r["step"] for r in records] == [0, 1, 2, 3]
    assert (threads[1] is threading.current_thread()) == (cpus == 1)


@pytest.mark.parametrize("train", [train_stage1, train_bc])
def test_a_raising_metrics_cb_aborts_a_prefetching_stage(train, cpus):
    """A metrics_cb that raises at the first step, while the next window
    may be encoding, ends the stage: the exception reaches the caller, no
    later step runs, and no thread outlives the stage."""
    class Stop(Exception):
        pass

    records = []

    def stop(record):
        records.append(record)
        raise Stop

    alive = threading.active_count()
    with pytest.raises(Stop):
        train(small_state(), *frozen_stage_inputs(), metrics_cb=stop)
    assert len(records) == 1 and threading.active_count() == alive


def test_run_stage_closes_its_batches():
    """run_stage closes the generator that batches(rng) gives when the
    stage drains it, and when a step raises before it is drained, already
    while the exception is held (not only once the frames are freed)."""
    class Stop(Exception):
        pass

    def stop(record):
        raise Stop

    closed = []

    def batches(rng):
        try:
            for _ in range(3):
                yield small_tokens()
        finally:
            closed.append(True)

    def run(metrics_cb):
        state = small_state()
        return run_stage(state, "pretrain-base", ("base",), TrainConfig(),
                         batches, lambda tokens: loss_base_ar(state, tokens),
                         metrics_cb)

    assert len(run(None)) == 3 and closed == [True]
    with pytest.raises(Stop) as raised:
        run(stop)
    # raised holds the traceback, and with it run_stage's frame
    assert closed == [True, True] and raised.tb is not None


def test_train_q_runs_one_base_forward_per_step(monkeypatch):
    """A train-q step encodes the next contexts of its whole batch, of mixed
    lengths, in one base forward, and computes all its targets in one
    dqn_target call; the loss reuses those embeddings. It runs two Q-head
    forwards: the target net's, untaped, and the online net's, taped, which
    also gives the online half of the targets."""
    from actlm import training
    calls = dict.fromkeys(("base_forward", "dqn_target", "q_forward"), 0)
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(training, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(training, name, counting)
    transitions = [
        Transition(np.array([4]), 1, np.array([4, 5]), 0.0, False),
        Transition(np.array([1, 2]), 2, np.array([1, 2, 3]), 0.0, False),
        Transition(np.array([1, 2, 3]), 1, np.array([1, 2, 3, 4]), 1.0, True)]
    train_q(small_state(), transitions, TrainConfig(steps=3, batch_size=4))
    assert calls == {"base_forward": 3, "dqn_target": 3, "q_forward": 6}


def test_train_stage1_returns_usage_counts():
    state = small_state()
    corpus = small_tokens(b=8)
    cfg = TrainConfig(steps=3, batch_size=4)
    usage = train_stage1(state, corpus, cfg)
    assert usage.sum() == 3 * 4 * (corpus.shape[1] - 1)


# ---------------------------------------------------------------------------
# Rollouts and RL
# ---------------------------------------------------------------------------

def test_rollout_batch_stops_at_eos_and_pads():
    state = small_state()
    # force the world head to always emit eos: zero merge -> uniform? instead
    # bias the lm_head column of the eos token hugely via tok route is
    # indirect; just check invariants on a plain run
    prompts = small_tokens(b=4, t=3)
    tokens, actions = rollout_batch(state, prompts, "greedy", 8)
    assert tokens.shape[1] <= 8
    assert actions.shape == (4, tokens.shape[1] - 3)
    # after a generated eos, every later token must be eos
    for row in tokens:
        gen = row[3:]
        hits = np.where(gen == CFG.eos_token_id)[0]
        if hits.size:
            assert (gen[hits[0]:] == CFG.eos_token_id).all()


def test_rollout_batch_sample_requires_rng():
    state = small_state()
    with pytest.raises(ValueError):
        rollout_batch(state, small_tokens(b=2, t=3), "sample", 8)


def test_decision_mask_excludes_steps_after_eos():
    """Steps decided from a context that ends in eos, or passed one after
    the prompt, are padding; a prompt ending in eos has no decisions."""
    tokens = np.array([[5, 0, 0, 0, 0],    # prompt ends in eos
                       [5, 6, 7, 0, 0],    # eos generated at step 1
                       [5, 6, 7, 8, 1]])   # no eos
    mask = decision_mask(tokens, prompt_len=2, eos=0)
    np.testing.assert_array_equal(mask, [[False, False, False],
                                         [True, True, False],
                                         [True, True, True]])


def test_rl_update_constant_reward_has_vanishing_gradient():
    """With identical rewards the leave-one-out advantages vanish, and the KL
    against an identical reference sits at its minimum: both loss terms and
    the gradient norm of one update are (numerically) zero."""
    state = small_state()
    cfg = TrainConfig(rl_group_size=4, kl_coef=0.01, learning_rate=0.1)
    ref = {k: Tensor(t.data.copy()) for k, t in state.groups["policy"].items()}
    [record] = run_stage(
        state, "rl", ("policy",), cfg,
        lambda rng: (rl_batch(state, small_tokens(b=2, t=3), lambda r: 0.7, cfg,
                              rng, 8, ref) for _ in range(1)),
        lambda batch: loss_rl(state, batch, cfg))
    assert record["rl_reward_mean"] == pytest.approx(0.7)
    assert abs(record["pg_loss"]) < 1e-6
    assert abs(record["rl_kl"]) < 1e-6
    assert record["grad_norm"] < 1e-4


def test_rl_batch_holds_the_reference_policy_log_probs():
    """rl_batch encodes its rollouts once, and reads the reference
    policy's log-probs, not the trained policy's, from those embeddings at
    the context each generation step decided from."""
    state, ref = small_state(), small_state(1).groups["policy"]
    batch = rl_batch(state, small_tokens(b=2, t=3), lambda r: 0.0,
                     TrainConfig(rl_group_size=2), np.random.default_rng(0), 8, ref)
    e_l = frozen_e_l(state, batch["tokens"])
    assert np.array_equal(batch["e_l"].data, e_l.data)
    want = policy_log_probs(ref, CFG, e_l).data[:, 2:-1]
    assert want.shape == batch["actions"].shape + (CFG.codebook_size,)
    assert np.array_equal(batch["ref_logp"], want)
    assert not np.array_equal(
        want, policy_log_probs(state.groups["policy"], CFG, e_l).data[:, 2:-1])


def test_rl_update_rejects_tiny_groups():
    """A leave-one-out baseline needs a sibling: the config refuses a group
    of one, so no RL update is built from it."""
    with pytest.raises(ValueError, match="rl_group_size must be >= 2"):
        TrainConfig(rl_group_size=1)


def test_rl_counts_scorer_failures():
    """A throwing scorer scores its rollout 0 and is counted per update."""
    calls = {"n": 0}

    def flaky(response):
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            raise RuntimeError("scorer down")
        return 1.0

    records = []
    trace = train_rl(small_state(), small_tokens(b=2, t=3), flaky,
                     TrainConfig(rl_group_size=4), max_len=8, updates=2,
                     metrics_cb=records.append)
    assert [r["scorer_failures"] for r in records] == [4, 4]
    assert trace == [0.5, 0.5]


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf],
                         ids=["nan", "-inf", "+inf"])
def test_rl_counts_non_finite_rewards_as_scorer_failures(bad):
    """A reward_fn that returns NaN or an infinity fails as if it had
    raised: the rollout scores 0 and is counted, and the loss stays
    finite."""
    calls = {"n": 0}

    def flaky(response):
        calls["n"] += 1
        return bad if calls["n"] % 2 == 0 else 1.0

    records = []
    trace = train_rl(small_state(), small_tokens(b=2, t=3), flaky,
                     TrainConfig(rl_group_size=4), max_len=8, updates=2,
                     metrics_cb=records.append)
    assert [r["scorer_failures"] for r in records] == [4, 4]
    assert trace == [0.5, 0.5]


def test_train_rl_freezes_everything_but_policy():
    state = small_state()
    hashes = state.hashes(("base", "merge", "inverse", "codebook"))
    train_rl(state, small_tokens(b=2, t=3), lambda r: float(len(r) % 2),
             TrainConfig(steps=0, rl_group_size=4, batch_size=4), max_len=8,
             updates=2)
    assert state.hashes(("base", "merge", "inverse", "codebook")) == hashes


def test_rl_updates_leave_no_reference_cycles():
    """Each RL update's graph is freed by reference counting alone: with the
    cyclic collector off, two updates leave nothing for it to collect."""
    state = small_state()
    gc.collect()
    gc.disable()
    try:
        train_rl(state, small_tokens(b=2, t=3), lambda r: float(len(r) % 2),
                 TrainConfig(rl_group_size=4), max_len=8, updates=2)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Double-DQN
# ---------------------------------------------------------------------------

def reference_target(tr, q_online, q_target, gamma):
    """The per-transition Double-DQN target, one call per net on the next
    context: the rule the batched dqn_target replaces."""
    if tr.terminal:
        return tr.reward
    online = q_online(tr.next_context)[-1]
    return gamma * q_target(tr.next_context)[-1][int(np.argmax(online))]


def test_dqn_target_oracle():
    q_online = np.array([[0.1, 0.9, 0.3]] * 2)
    q_target = np.array([[10.0, 20.0, 30.0]] * 2)
    y = dqn_target(np.array([0.5, 0.0]), np.array([True, False]),
                   q_online, q_target, 0.9)
    # the terminal row is its reward; in the other the online argmax is
    # action 1 and the target evaluates it: 0.9 * 20
    assert y[0] == 0.5
    assert y[1] == pytest.approx(18.0)


def _q_value_bound(state, group, context, n):
    """matmul_error_bound of the Q head's values at the context's last
    position, over an accumulation of length n."""
    h = base_forward(state.groups["base"], CFG, np.asarray(context)[None])
    for i in range(CFG.n_layers_policy):
        h = block_forward(state.groups[group], f"blk{i}", h, CFG)
    return matmul_error_bound(h.data[0, -1], state.groups[group]["head"].data,
                              np.float32, n=n)


def test_batched_dqn_targets_match_per_transition_reference(monkeypatch):
    """In float32 the targets of one padded batch match the per-transition
    rule, one single-row forward per net, within rounding. Each Q value of
    either evaluation errs by at most the accumulated dot-product bound
    through the base and Q blocks at the padded length, so the two
    evaluations differ by at most twice it, and an online argmax can swap
    only within 4 times it; where the margin is wider the argmax agrees.
    Terminal rows are their rewards exactly."""
    from actlm import training
    state = small_state(2)
    state.flat("q_target")[...] = init_model(CFG, 3).flat("q_online")
    rng = np.random.default_rng(5)
    transitions = []
    for i in range(32):
        n = int(rng.integers(1, 12))
        tokens = rng.integers(0, CFG.vocab_size, size=n + 1)
        terminal = i % 4 == 0
        transitions.append(Transition(tokens[:n], int(rng.integers(CFG.codebook_size)),
                                      tokens, float(rng.random()) if terminal else 0.0,
                                      terminal))
    seen = []

    def recording(*args):
        seen.append((args, dqn_target(*args)))
        return seen[-1][1]

    monkeypatch.setattr(training, "dqn_target", recording)
    gamma = 0.9
    with Tape():
        loss_dqn(state, dqn_batch(state, transitions), gamma)
    ((_, _, q_online_next, q_target_next, _), targets), = seen
    assert targets.dtype == np.float32
    n = accumulation_length(CFG, max(len(tr.next_context) for tr in transitions),
                            CFG.n_layers_base + CFG.n_layers_policy)
    u = np.finfo(np.float32).eps / 2
    q_on, q_t = q_values_fn(state, "q_online"), q_values_fn(state, "q_target")
    decided = 0
    for tr, y, online_b, target_b in zip(transitions, targets, q_online_next,
                                         q_target_next):
        if tr.terminal:
            assert y == np.float32(tr.reward)
            continue
        online, target = q_on(tr.next_context)[-1], q_t(tr.next_context)[-1]
        bound_on = _q_value_bound(state, "q_online", tr.next_context, n)
        bound_t = _q_value_bound(state, "q_target", tr.next_context, n)
        assert (np.abs(online_b - online) <= 2 * bound_on).all()
        assert (np.abs(target_b - target) <= 2 * bound_t).all()
        top2 = np.sort(online)[-2:]
        if top2[1] - top2[0] <= 4 * bound_on.max():
            continue
        decided += 1
        best = int(np.argmax(online))
        assert int(np.argmax(online_b)) == best
        y_ref = reference_target(tr, q_on, q_t, gamma)
        assert abs(float(y) - float(y_ref)) <= \
            gamma * 2 * bound_t[best] + 2 * u * abs(float(y_ref))
    assert decided >= 20  # of the 24 non-terminal rows: the check is not vacuous


def test_sync_target_mixes_with_tau():
    state = small_state()
    for t in state.groups["q_online"].values():
        t.data[...] = 1.0
    for t in state.groups["q_target"].values():
        t.data[...] = 0.0
    sync_target(state, 0.25)
    for t in state.groups["q_target"].values():
        np.testing.assert_allclose(t.data, 0.25)
    sync_target(state, 1.0)  # hard copy
    for k, t in state.groups["q_target"].items():
        np.testing.assert_array_equal(t.data, state.groups["q_online"][k].data)
    assert_one_storage(state)


def test_dqn_step_reduces_error_on_single_transition():
    state = small_state()
    cfg = TrainConfig(learning_rate=3e-3, sync_interval=10**9, gamma=0.9,
                      steps=79)
    tr = Transition(np.array([1, 2]), 2, np.array([1, 2, 3]), 1.0, True)
    records = []
    train_q(state, [tr], cfg, metrics_cb=records.append)
    assert records[-1]["q_loss"] < records[0]["q_loss"] * 0.1


def test_train_q_syncs_target_after_every_interval_step(monkeypatch):
    """The target is synced after every sync_interval-th step (1-based),
    before the next batch is drawn: the first draw (q_target starts as a
    copy) and the draw after each sync read a target equal to the online
    network, the others read it differ. The sync after a stage's last step
    still runs, so a 4-step stage ends synced and a 5-step one does not."""
    from actlm import training
    real = training.dqn_batch
    tr = Transition(np.array([1, 2]), 2, np.array([1, 2, 3]), 0.0, False)

    def run(steps):
        state, synced = small_state(), []

        def drawing(*args):
            synced.append(state.group_hash("q_target") == state.group_hash("q_online"))
            return real(*args)

        monkeypatch.setattr(training, "dqn_batch", drawing)
        train_q(state, [tr], TrainConfig(steps=steps, sync_interval=2, tau=1.0,
                                         learning_rate=1e-2))
        return synced, state.group_hash("q_target") == state.group_hash("q_online")

    assert run(5) == ([True, False, True, False, True], False)
    assert run(4) == ([True, False, True, False], True)


def test_dqn_step_rejects_empty_batch():
    with pytest.raises(ValueError):
        dqn_batch(small_state(), [])


def test_loss_dqn_matches_squared_residual():
    """The loss is the mean squared gap between Q(context)[action] and the
    Double-DQN target, over transitions of mixed context lengths. In float64
    the batched and per-context forwards differ only in reduction order,
    well below 1e-10 relative at these sizes."""
    state = small_state(dtype=np.float64)
    batch = [Transition(np.array([1, 2]), 2, np.array([1, 2, 3]), 0.0, False),
             Transition(np.array([4]), 1, np.array([4, 5]), 0.5, True),
             Transition(np.array([3, 1]), 0, np.array([3, 1, 6]), 1.0, True)]
    q = q_values_fn(state, "q_online")
    q_t = q_values_fn(state, "q_target")
    manual = np.mean([(q(tr.context)[-1, tr.action]
                       - reference_target(tr, q, q_t, 0.9)) ** 2 for tr in batch])
    dqn = dqn_batch(state, batch)
    with Tape():
        loss, parts = loss_dqn(state, dqn, 0.9)
    assert parts["q_loss"] == pytest.approx(manual, rel=1e-10)


def test_q_values_fn_shape():
    """One call gives the values at every position of the context; row t
    is that of the prefix ending there. Each of the two evaluations errs
    by at most the accumulated dot-product bound through the base and Q
    blocks, so they differ by at most twice it."""
    state = small_state()
    q = q_values_fn(state, "q_online")
    context = [1, 2, 3]
    values = q(context)
    assert values.shape == (3, CFG.codebook_size)
    n = accumulation_length(CFG, len(context), CFG.n_layers_base + CFG.n_layers_policy)
    for t in range(3):
        bound = _q_value_bound(state, "q_online", context[:t + 1], n)
        assert (np.abs(values[t] - q(context[:t + 1])[-1]) <= 2 * bound).all()


# ---------------------------------------------------------------------------
# Base pretraining utilities
# ---------------------------------------------------------------------------

def test_base_ce_matches_manual():
    state = small_state()
    corpus = small_tokens(b=4)
    ce = val_sweep(state, corpus).base_ce
    logits = base_logits(state.groups["base"],
                         base_forward(state.groups["base"], CFG, corpus))
    z = logits.data[:, :-1] - logits.data[:, :-1].max(axis=-1, keepdims=True)
    lsm = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    manual = -np.take_along_axis(lsm, corpus[:, 1:, None], axis=-1).mean()
    assert ce == pytest.approx(manual, rel=1e-5)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_loss_base_ar_positive(seed):
    state = small_state(0)
    tokens = np.random.default_rng(seed).integers(0, 9, size=(2, 5))
    with Tape():
        loss, parts = loss_base_ar(state, tokens)
    assert loss.item() > 0 and parts["loss"] == loss.item()
