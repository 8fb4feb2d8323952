"""Optimization: base AR pretraining, joint inverse/world training, policy
behavior cloning, action-guided fine-tuning, policy-gradient RL, and
Double-DQN for the search value function.

Every stage runs the one loop in `run_stage`. Loss builders construct
graphs inside its tape, so the same code serves training steps and
finite-difference verification. Stage freezing is enforced twice: only
the groups a stage trains reach the optimizer, and every other group
(but q_target, which moves with q_online) is hashed before and after.
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .actions import (Decoder, action_logits, assign_direct, assign_vq,
                      generate, inverse_encode, one_hot, policy_forward,
                      policy_log_probs, q_forward, row_ends, world_logits)
from .config import TrainConfig
from .data import Scorer, SftSplit
from .model import ModelState, base_forward, base_logits, group_layout, unflatten


@dataclass
class Transition:
    """One step of the latent-action MDP: the action appends one token to a
    non-empty context; reward only at terminal."""
    context: np.ndarray
    action: int
    next_context: np.ndarray
    reward: float
    terminal: bool

    def __post_init__(self):
        if len(self.context) == 0:
            raise ValueError("context must not be empty")
        if len(self.next_context) != len(self.context) + 1 or \
                not np.array_equal(self.next_context[:-1], self.context):
            raise ValueError("next_context must be context plus one token")
        if not self.terminal and self.reward != 0.0:
            raise ValueError("reward must be zero on non-terminal transitions")


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer with global-norm
    clipping. Only the groups handed to the constructor are ever updated.

    The moments of all params live in one flat buffer each, in the order of
    `state.params(*groups)`, which is that of the groups' buffers laid end
    to end. Each step applies the elementwise update and the weight decay
    once per group buffer, in place, so every tensor view moves with it.
    The constructor reads each buffer through `ModelState.flat`, so it
    raises ValueError on a tensor that no longer lives in its buffer."""

    def __init__(self, state: ModelState, groups: tuple[str, ...], cfg: TrainConfig):
        self.buffers = [state.flat(g) for g in groups]
        self.params = state.params(*groups)
        self.cfg = cfg
        self.t = 0
        ends = np.cumsum([p.data.size for p in self.params.values()])
        self._slices = [slice(end - p.data.size, end)
                        for end, p in zip(ends, self.params.values())]
        self.m = np.zeros(int(ends[-1]), state.dtype)
        self.v = np.zeros_like(self.m)

    def step(self, grads: dict[str, np.ndarray]) -> dict[str, float]:
        """Apply one update from a gradient for every param; skips (and
        reports) non-finite gradients."""
        c = self.cfg
        g = np.concatenate([grads[k].reshape(-1) for k in self.params])
        if not np.isfinite(g).all():
            return {"skipped_nonfinite": 1.0}
        sq = g.astype(np.float64) ** 2
        total_sq = 0.0
        for sl in self._slices:
            # each param's own contiguous pairwise sum, as its .sum() was
            total_sq += float(np.add.reduce(sq[sl]))
        norm = float(np.sqrt(total_sq))
        scale = min(1.0, c.grad_clip_norm / (norm + 1e-12))
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        g = g * scale
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * g
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * g * g
        update = c.learning_rate * ((self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS))
        start = 0
        for buf in self.buffers:
            if c.weight_decay:
                buf -= c.learning_rate * c.weight_decay * buf
            buf -= update[start:start + buf.size].astype(buf.dtype, copy=False)
            start += buf.size
        return {"grad_norm": norm, "skipped_nonfinite": 0.0}


# ---------------------------------------------------------------------------
# Loss builders (graph constructors; no tape management here). A loss whose
# stage freezes the base takes e_l, the base embeddings of its tokens, from
# the stage's batches, which run outside the tape: e_l is a constant.
# ---------------------------------------------------------------------------

def loss_base_ar(state: ModelState, tokens):
    """Mean next-token cross-entropy of the base lm-head; (loss, parts)."""
    base = state.groups["base"]
    logits = base_logits(base, base_forward(base, state.cfg, tokens))
    loss = ad.mean_(ad.cross_entropy(ad.slice_time(logits, 0, -1), tokens[:, 1:]))
    return loss, {"loss": loss.item()}


def loss_pre1(state: ModelState, tokens, e_l: Tensor, cfg: TrainConfig, rng,
              assignment: str):
    """Joint inverse/world objective: action-conditioned prediction CE plus
    beta times the per-position sum of g*log(g) under direct assignment,
    whose Gumbel noise rng draws, or the pull terms under nearest-code
    ("vq") assignment. Base is frozen.

    Returns (total, parts, assignment_indices)."""
    e_i = inverse_encode(state.groups["inverse"], state.cfg, e_l)
    e_ctx = ad.slice_time(e_l, 0, -1)
    targets = tokens[:, 1:]
    if assignment == "direct":
        assign = assign_direct(state.groups["inverse"], state.groups["codebook"],
                               e_i, cfg.gumbel_temp, rng)
        logits = world_logits(state.groups["merge"], state.cfg, e_ctx, assign.action)
        predict = ad.mean_(ad.cross_entropy(logits, targets))
        # sum_k g log g per position, averaged; 0*log(0) -> 0 via clamping
        g = assign.soft
        reg = ad.mean_(ad.sum_(ad.mul(g, ad.log(ad.add(g, 1e-12))), axis=2))
        total = ad.add(predict, ad.mul(reg, cfg.beta))
        parts = {"L_predict": predict.item(), "L_reg": reg.item(),
                 "total": total.item()}
        return total, parts, assign.index
    elif assignment == "vq":
        index, action, commitment, codebook_loss = assign_vq(state.groups["codebook"], e_i)
        logits = world_logits(state.groups["merge"], state.cfg, e_ctx, action)
        predict = ad.mean_(ad.cross_entropy(logits, targets))
        total = ad.add(ad.add(predict, codebook_loss), ad.mul(commitment, 0.25))
        parts = {"L_predict": predict.item(), "L_commit": commitment.item(),
                 "L_codebook": codebook_loss.item(), "total": total.item()}
        return total, parts, index
    raise ValueError(f"unknown assignment mode: {assignment!r}")


def inverse_labels(state: ModelState, e_l: Tensor) -> np.ndarray:
    """Inverse action labels (B, T-1) from the base embeddings of the
    tokens: the argmax of the inverse's action logits."""
    e_i = inverse_encode(state.groups["inverse"], state.cfg, e_l)
    return action_logits(state.groups["inverse"], e_i).data.argmax(axis=-1)


# ---------------------------------------------------------------------------
# The validation sweep: one frozen base forward per eval report
# ---------------------------------------------------------------------------

SWEEP_TOKENS = 1024


def sweep_rows(seq_len: int) -> int:
    """Rows per validation-sweep chunk: SWEEP_TOKENS tokens, at least one
    row. At the CLI defaults (T=64, 2 heads) one block's float32 attention
    scores then take 512 KB; 64-row chunks made them 2 MB, a whole per-core
    L2 on common x86-64 parts."""
    return max(1, SWEEP_TOKENS // seq_len)


def chunk_map(fn, chunks: list) -> list:
    """[fn(chunk) for chunk in chunks], in chunk order, computed by the
    calling thread plus up to n - 1 worker threads, where n is the number of
    CPUs in this process's affinity set, capped at the number of chunks.
    Numpy releases the GIL inside its kernels, so the chunks' forwards run
    side by side. Every worker has ended when this returns. A task that
    raises stops the threads from taking further chunks, and the first
    exception is re-raised here.

    No op the tasks run is recorded, whatever tape the caller has open: the
    calling thread runs its share under `ad.untaped()`, and a worker starts
    with an empty tape stack, so its ops record nowhere."""
    n = min(len(chunks), len(os.sched_getaffinity(0)))
    results = [None] * len(chunks)
    errors = []
    jobs, lock = iter(enumerate(chunks)), threading.Lock()

    def work():
        while not errors:
            with lock:
                job = next(jobs, None)
            if job is None:
                return
            try:
                results[job[0]] = fn(job[1])
            except BaseException as e:  # re-raised on the calling thread
                errors.append(e)

    workers = [threading.Thread(target=work) for _ in range(n - 1)]
    for w in workers:
        w.start()
    try:
        with ad.untaped():
            work()
    finally:
        for w in workers:
            w.join()
    if errors:
        raise errors[0]
    return results


@dataclass(frozen=True)
class ValSweep:
    """What the eval readers read of one corpus: the base lm-head's mean
    next-token CE and, once labels were asked for, the inverse labels
    (n, T-1), read-only, and the world model's mean CE under them (else
    None for both)."""
    key: tuple
    base_ce: float
    labels: np.ndarray | None = None
    world_ce: float | None = None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _sweep_chunk(state: ModelState, chunk, with_labels: bool):
    """One sweep task: the chunk's base CE sum and, with_labels, its
    inverse labels and the world model's CE sum under them, else None for
    both; the sums are in the state's dtype."""
    base = state.groups["base"]
    e_l = base_forward(base, state.cfg, chunk)
    targets = chunk[:, 1:]
    base_sum = float(ad.cross_entropy(
        ad.slice_time(base_logits(base, e_l), 0, -1), targets).data.sum())
    if not with_labels:
        return base_sum, None, None
    chunk_labels = inverse_labels(state, e_l)
    logits = world_logits(state.groups["merge"], state.cfg, ad.slice_time(e_l, 0, -1),
                          ad.embedding(state.groups["codebook"]["codes"], chunk_labels))
    return base_sum, chunk_labels, float(ad.cross_entropy(logits, targets).data.sum())


def _in_order_mean(sums, count: int) -> float:
    """The chunks' CE sums added up in float64 in chunk order (Python's
    sum() may compensate), over count positions."""
    total = 0.0
    for chunk_sum in sums:
        total += chunk_sum
    return total / count


def val_sweep(state: ModelState, corpus, gumbel_temp: float | None = None) -> ValSweep:
    """The corpus's `ValSweep`: its base CE and, when gumbel_temp is given,
    its inverse labels and world CE. Nothing is taped.

    A fill is one `chunk_map` pass over the corpus in chunks of
    `sweep_rows(T)` rows, one `_sweep_chunk` task per chunk, and the
    chunks' float32 CE sums are added up in float64 in chunk order. So the
    CEs depend on how the corpus is chunked, by float32 rounding only; a
    row's labels do not depend on the rows it shares a chunk with, and
    nothing depends on the thread that ran it or on the CPU count.

    The sweep is memoised in `state.sweep`, which holds one corpus. It is
    keyed by the corpus's shape, dtype and sha256, the state's dtype, and
    the base and inverse group hashes, so another corpus, buffers of
    another dtype or a changed base or inverse weight refills it, and so
    does a labels request on a sweep filled without them. The labels, an
    argmax of the action logits, do not depend on gumbel_temp, which is
    only checked."""
    corpus = np.asarray(corpus)
    if gumbel_temp is not None and gumbel_temp <= 0:
        raise ValueError("gumbel_temp must be > 0")
    with_labels = gumbel_temp is not None
    key = (corpus.shape, corpus.dtype.str,
           hashlib.sha256(corpus.tobytes()).hexdigest(), state.dtype,
           state.group_hash("base"), state.group_hash("inverse"))
    sweep = state.sweep
    if sweep is None or sweep.key != key or (with_labels and sweep.labels is None):
        rows = sweep_rows(corpus.shape[1])
        base_sums, chunk_labels, world_sums = zip(*chunk_map(
            lambda chunk: _sweep_chunk(state, chunk, with_labels),
            [corpus[i:i + rows] for i in range(0, len(corpus), rows)]))
        count = corpus.shape[0] * (corpus.shape[1] - 1)
        sweep = state.sweep = ValSweep(
            key, _in_order_mean(base_sums, count),
            _read_only(np.concatenate(chunk_labels)) if with_labels else None,
            _in_order_mean(world_sums, count) if with_labels else None)
    return sweep


def inverse_action_labels(state: ModelState, tokens, gumbel_temp: float) -> np.ndarray:
    """Inverse action labels (B, T-1) of a corpus, read-only, as its
    memoised `val_sweep` holds them (see there for the key; the slot holds
    one corpus). Nothing is recorded even inside a tape."""
    return val_sweep(state, tokens, gumbel_temp).labels


def loss_pre2(state: ModelState, e_l: Tensor, labels: np.ndarray, start: int):
    """Behavior cloning: CE of the policy against inverse action labels over
    positions t in [1+start, T-1]. Inverse and base are frozen.

    Returns (loss, parts)."""
    logp = policy_log_probs(state.groups["policy"], state.cfg, e_l)
    # label row j is a_{j+1}, chosen from context e_l[:, j]
    logp_ctx = ad.slice_time(logp, start, -1)
    ce = ad.cross_entropy(logp_ctx, labels[:, start:])
    # logp is already log-probabilities; cross_entropy re-normalizes, which is
    # a no-op on a normalized row.
    loss = ad.mean_(ce)
    return loss, {"bc": loss.item()}


def loss_fta(state: ModelState, tokens, prompt_len: int, actions_fn):
    """World-model CE restricted to response positions t in [p, T-1], with
    actions held fixed; only the base receives the update. The base trains,
    so the loss runs its forward on the tape; actions_fn(e_l) reads the
    action indices (B, T-1) from those embeddings, and their codebook rows
    are looked up untaped, so they enter as constants."""
    if prompt_len >= tokens.shape[1]:
        raise ValueError("empty response: prompt_len >= sequence length")
    e_l = base_forward(state.groups["base"], state.cfg, tokens)
    with ad.untaped():
        action = ad.embedding(state.groups["codebook"]["codes"],
                              actions_fn(e_l)[:, prompt_len - 1:])
    e_ctx = ad.slice_time(e_l, prompt_len - 1, -1)
    logits = world_logits(state.groups["merge"], state.cfg, e_ctx, action)
    ce = ad.cross_entropy(logits, tokens[:, prompt_len:])
    loss = ad.mean_(ce)
    return loss, {"fta": loss.item()}


# ---------------------------------------------------------------------------
# Rollout + policy-gradient RL
# ---------------------------------------------------------------------------

def rollout_batch(state: ModelState, prompts: np.ndarray, mode: str,
                  max_len: int, rng=None):
    """Generate continuations for a batch of equal-length prompts through
    `actions.generate`: policy actions (argmax in greedy mode, sampled
    otherwise), world-model argmax tokens, rows padded with eos and action
    0 once done. Returns (tokens (B, <=max_len), actions (B, steps))."""
    return generate(Decoder(state), prompts, mode, max_len, rng)


def decision_mask(tokens: np.ndarray, prompt_len: int, eos: int) -> np.ndarray:
    """(B, T - prompt_len) bool for a `generate` output tokens (B, T): True
    where generation step s was a real decision.

    Step s decides from the context ending at position prompt_len-1+s; once
    that context ends in eos, or passed one after the prompt, the step is
    padding. So a row whose prompt ends in eos has no decisions at all."""
    ends = row_ends(tokens, prompt_len, eos)
    return np.arange(tokens.shape[1] - prompt_len) < (ends - prompt_len)[:, None]


def rl_batch(state: ModelState, prompts: np.ndarray, reward_fn,
             cfg: TrainConfig, rng, max_len: int,
             ref_policy: dict[str, Tensor]) -> dict:
    """Rollouts and advantages for one leave-one-out update; forward-only.

    For each prompt, rl_group_size rollouts are drawn (sampled actions,
    greedy tokens); each rollout's advantage is its reward minus the mean of
    its group siblings. A reward_fn that raises or returns a non-finite
    value scores its rollout 0 and is counted in scorer_failures. The
    batch also holds the frozen base's embeddings e_l of the rollouts and
    the reference policy's log-probs ref_logp (B, steps, N) at the context
    each step decided from."""
    n_prompts, p_len = np.shape(prompts)
    g = cfg.rl_group_size
    tokens, actions = rollout_batch(state, np.repeat(prompts, g, axis=0),
                                    "sample", max_len, rng)
    score = Scorer(reward_fn)
    rewards = np.array([score(row[p_len:]) for row in tokens])
    groups = rewards.reshape(n_prompts, g)
    adv = (groups - (groups.sum(axis=1, keepdims=True) - groups) / (g - 1)).reshape(-1)
    valid = decision_mask(tokens, p_len, state.cfg.eos_token_id)
    e_l = base_forward(state.groups["base"], state.cfg, tokens)
    ref_logp = policy_log_probs(ref_policy, state.cfg, e_l).data[:, p_len - 1:-1]
    return {"tokens": tokens, "actions": actions, "advantages": adv,
            "valid": valid.astype(state.dtype), "rewards": rewards,
            "scorer_failures": score.failures, "e_l": e_l, "ref_logp": ref_logp}


def loss_rl(state: ModelState, batch: dict, cfg: TrainConfig):
    """Policy-gradient loss on an rl_batch, plus kl_coef times the KL of the
    latent-action distributions from the frozen reference policy. Steps
    after eos count in neither term. Returns (total, parts)."""
    tokens, actions, valid = batch["tokens"], batch["actions"], batch["valid"]
    n_steps = actions.shape[1]
    p_len = tokens.shape[1] - n_steps
    logp = policy_log_probs(state.groups["policy"], state.cfg, batch["e_l"])
    # action at generation step s was chosen from context position p_len-1+s
    logp_steps = ad.slice_time(logp, p_len - 1, p_len - 1 + n_steps)
    onehot = one_hot(actions, state.cfg.codebook_size, state.dtype) * valid[..., None]
    picked = ad.mul(logp_steps, onehot)
    logp_taken = ad.sum_(ad.sum_(picked, axis=2), axis=1)  # (B,)
    # the float64 advantages are cast to logp's dtype as constants
    pg = ad.mul(ad.sum_(ad.mul(logp_taken, batch["advantages"])), -1.0 / len(tokens))

    probs = ad.exp(logp_steps)
    kl_pos = ad.sum_(ad.mul(probs, ad.sub(logp_steps, batch["ref_logp"])), axis=2)
    kl = ad.mul(ad.sum_(ad.mul(kl_pos, valid)), 1.0 / len(tokens))

    total = ad.add(pg, ad.mul(kl, cfg.kl_coef)) if cfg.kl_coef else pg
    return total, {"rl_reward_mean": float(batch["rewards"].mean()),
                   "scorer_failures": batch["scorer_failures"],
                   "rl_kl": kl.item(), "pg_loss": pg.item(), "total": total.item()}


# ---------------------------------------------------------------------------
# Double-DQN
# ---------------------------------------------------------------------------

def q_values_fn(state: ModelState, group: str):
    """A callable mapping a 1-d token context x (T tokens) to the action
    values at each of its positions, (T, N): row t is Q(x_{1:t+1}, .),
    since the base and the Q head are causal. One untaped base and Q
    forward over the whole context gives every row."""
    def q(context) -> np.ndarray:
        tokens = np.asarray(context).reshape(1, -1)
        with ad.untaped():
            e_l = base_forward(state.groups["base"], state.cfg, tokens)
            vals = q_forward(state.groups[group], state.cfg, e_l)
        return vals.data[0]
    return q


def dqn_target(rewards, terminal, q_online_next, q_target_next,
               gamma: float) -> np.ndarray:
    """Double-DQN targets (b,) from the rewards (b,), terminal flags (b,)
    and both networks' action values (b, N) at the next contexts: r at a
    terminal row, else gamma * Q_target(s', argmax_a Q_online(s', a))."""
    best = np.argmax(q_online_next, axis=-1)
    bootstrap = np.take_along_axis(np.asarray(q_target_next), best[:, None], axis=-1)[:, 0]
    return np.where(terminal, rewards, gamma * bootstrap)


def dqn_batch(state: ModelState, transitions: list[Transition]):
    """One Double-DQN batch, forward-only: (e_l, mask, last, rewards,
    terminal, q_target_next). e_l (b, L) embeds the next contexts,
    right-padded with eos, in one base forward; last (b,) is each next
    context's last position, where the target net's values q_target_next
    (b, N) are read. mask (b, L, N) is one at each row's action at position
    last - 1, under causal attention the context's last."""
    if not transitions:
        raise ValueError("empty transition batch")
    arch, dtype = state.cfg, state.dtype
    rows = np.arange(len(transitions))
    last = np.array([len(tr.next_context) for tr in transitions]) - 1
    tokens = np.full((len(transitions), last.max() + 1), arch.eos_token_id)
    for row, tr in zip(tokens, transitions):
        row[:len(tr.next_context)] = tr.next_context
    e_l = base_forward(state.groups["base"], arch, tokens)
    q_target = q_forward(state.groups["q_target"], arch, e_l).data[rows, last]
    mask = np.zeros(tokens.shape + (arch.codebook_size,), dtype)
    mask[rows, last - 1, [tr.action for tr in transitions]] = 1.0
    return (e_l, mask, last, np.array([tr.reward for tr in transitions], dtype),
            np.array([tr.terminal for tr in transitions]), q_target)


def loss_dqn(state: ModelState, batch, gamma: float):
    """Mean squared Bellman residual of the online Q at the context's last
    position of each row of a dqn_batch; its e_l is used as a constant.
    The same online forward, read at each next context's last position as
    a constant, gives the online half of the Double-DQN targets. Returns
    (loss, parts)."""
    e_l, mask, last, rewards, terminal, q_target_next = batch
    vals = q_forward(state.groups["q_online"], state.cfg, e_l)
    targets = dqn_target(rewards, terminal, vals.data[np.arange(len(last)), last],
                         q_target_next, gamma)
    resid = ad.sub(ad.sum_(ad.mul(vals, mask), axis=(1, 2)), targets)
    loss = ad.mean_(ad.mul(resid, resid))
    return loss, {"q_loss": loss.item()}


def sync_target(state: ModelState, tau: float) -> None:
    """theta- <- tau * theta + (1 - tau) * theta-, written into the q_target
    buffer in place."""
    target = state.flat("q_target")
    target[...] = tau * state.flat("q_online") + (1.0 - tau) * target


# ---------------------------------------------------------------------------
# The stage loop and the stage drivers
# ---------------------------------------------------------------------------

def run_stage(state: ModelState, stage: str, trainable: tuple[str, ...],
              cfg: TrainConfig, batches, loss_fn, metrics_cb=None) -> list[dict]:
    """The training loop of every stage; returns the per-step records.

    batches(rng) is called once, with the stage rng, and gives the stage's
    batches as a generator; each batch it yields is one step. The generator
    runs outside the tape (forward-only work: sampling, a frozen base's
    embeddings, labels, rollouts, targets), and its code after a yield runs
    once that step's record has gone to metrics_cb. Each step builds (loss,
    parts) = loss_fn(batch) inside the tape, aborts on a non-finite loss,
    steps AdamW on the trainable groups and hands the record {stage, step,
    **parts, grad_norm, skipped_nonfinite} to metrics_cb. The generator is
    closed when the stage returns or raises, so one that encodes ahead on a
    worker thread, as `frozen_batches` does, ends its worker with the stage.

    Every group that trainable does not name is frozen, except that
    q_target moves with q_online (`sync_target` writes it): the frozen
    groups are hashed before and after, and drift raises RuntimeError."""
    rng = np.random.default_rng(cfg.seed)
    frozen = [g for g in state.groups if g not in trainable]
    if "q_online" in trainable:
        frozen.remove("q_target")
    before = state.hashes(frozen)
    opt = AdamW(state, trainable, cfg)
    records = []
    with closing(batches(rng)) as source:
        for step, batch in enumerate(source):
            with Tape() as tape:
                loss, parts = loss_fn(batch)
                if not np.isfinite(loss.data):
                    raise FloatingPointError(f"non-finite {stage} loss at step {step}")
                grads_by_id = tape.gradients(loss)
            norms = opt.step({k: tape.grad(grads_by_id, p) for k, p in opt.params.items()})
            # free this step's graph before the next batch is drawn
            del batch, loss, tape, grads_by_id
            records.append({"stage": stage, "step": step, **parts, **norms})
            if metrics_cb:
                metrics_cb(records[-1])
    _check_frozen(state, before, stage)
    return records


def _check_frozen(state: ModelState, before: dict[str, str], stage: str) -> None:
    after = state.hashes(tuple(before))
    drifted = [g for g in before if before[g] != after[g]]
    if drifted:
        raise RuntimeError(f"frozen groups drifted during {stage}: {drifted}")


def _drawn_rows(corpus, cfg: TrainConfig, rng):
    """cfg.steps batches of cfg.batch_size corpus rows, drawn uniformly
    with replacement from rng, one step's draw at a time."""
    for _ in range(cfg.steps):
        yield corpus[rng.integers(0, len(corpus), size=cfg.batch_size)]


def _encode_window(state: ModelState, tokens, batch_size: int, labels: bool):
    """The batches of a window of steps whose rows `tokens` holds, in step
    order: one (tokens, e_l, labels) per batch_size rows, from one base
    forward over the window and, when labels is set, the inverse labels of
    its embeddings (else None). A row's results do not depend on the rows it
    shares the forward with, so each batch is bitwise that of its own
    step's forward."""
    e_l = base_forward(state.groups["base"], state.cfg, tokens)
    y = inverse_labels(state, e_l) if labels else None
    return [(tokens[i:i + batch_size], Tensor(e_l.data[i:i + batch_size]),
             None if y is None else y[i:i + batch_size])
            for i in range(0, len(tokens), batch_size)]


def frozen_batches(state: ModelState, corpus, cfg: TrainConfig, rng,
                   labels: bool = False):
    """The batches of a stage that freezes the base (stage-1, BC and FTA-I's
    policy refresh): cfg.steps of (tokens, e_l, labels), with labels the
    inverse labels if asked for, else None.

    The steps come in windows of whole steps, about `sweep_rows(T)` rows
    together (at least one step, never past cfg.steps), each encoded by
    `_encode_window`. The rows are `_drawn_rows`, drawn on the calling
    thread in step order, so the batches equal those of a per-step encode
    bit for bit. Where the affinity set holds more than one CPU, one worker
    thread encodes the next window while the steps of the current one
    train; else each window is encoded when its first step is asked for. A
    worker's exception is raised where its window is wanted. Closing the
    generator, as `run_stage` does whether the stage returns or raises,
    cancels a window not yet started and waits for one being encoded, so no
    thread outlives the stage."""
    rows = _drawn_rows(corpus, cfg, rng)
    per_window = max(1, sweep_rows(corpus.shape[1]) // cfg.batch_size)
    # the rows of the next per_window steps, until the steps run out
    windows = map(np.concatenate, iter(lambda: list(islice(rows, per_window)), []))

    def encode(tokens):
        return _encode_window(state, tokens, cfg.batch_size, labels)

    if len(os.sched_getaffinity(0)) == 1:
        for ready in map(encode, windows):
            while ready:
                yield ready.pop(0)
        return
    pool = ThreadPoolExecutor(1)
    try:
        encodes = (pool.submit(encode, tokens) for tokens in windows)
        # the current window's encode and, submitted before that one is
        # waited for, the next window's
        pending = list(islice(encodes, 1))
        while pending:
            pending += islice(encodes, 1)
            ready = pending.pop(0).result()
            while ready:
                yield ready.pop(0)
    finally:
        pool.shutdown(cancel_futures=True)


def pretrain_base_ar(state: ModelState, corpus, val_corpus, cfg: TrainConfig,
                     metrics_cb=None) -> float:
    """AR-pretrain the base on `_drawn_rows`; returns final held-out CE."""
    run_stage(state, "pretrain-base", ("base",), cfg,
              lambda rng: _drawn_rows(corpus, cfg, rng),
              lambda tokens: loss_base_ar(state, tokens), metrics_cb)
    return val_sweep(state, val_corpus).base_ce


def train_stage1(state: ModelState, corpus, cfg: TrainConfig,
                 assignment: str = "direct", metrics_cb=None) -> np.ndarray:
    """Joint inverse/world training; returns cumulative action-usage counts.

    Only inverse, codebook, and merge parameters move; the base stays
    frozen, so `frozen_batches` encodes the steps' rows, a window ahead
    where a second CPU is free.
    """
    noise_rng = np.random.default_rng(cfg.seed + 1)
    usage = np.zeros(state.cfg.codebook_size, dtype=np.int64)

    def loss_fn(batch):
        tokens, e_l, _ = batch
        total, parts, index = loss_pre1(state, tokens, e_l, cfg, noise_rng, assignment)
        usage[:] += np.bincount(index.reshape(-1), minlength=len(usage))
        return total, {**parts, "alive_actions": int((usage > 0).sum())}

    run_stage(state, "stage1", ("inverse", "codebook", "merge"), cfg,
              lambda rng: frozen_batches(state, corpus, cfg, rng), loss_fn, metrics_cb)
    return usage


def train_bc(state: ModelState, corpus, cfg: TrainConfig, start: int = 0,
             stage: str = "bc-policy", metrics_cb=None) -> None:
    """Behavior-clone the policy onto the inverse labels. Base and inverse
    are frozen, so `frozen_batches` encodes the steps' rows and labels them,
    a window ahead where a second CPU is free; one base forward serves the
    labels and the loss."""
    run_stage(state, stage, ("policy",), cfg,
              lambda rng: frozen_batches(state, corpus, cfg, rng, labels=True),
              lambda batch: loss_pre2(state, *batch[1:], start), metrics_cb)


def train_fta(state: ModelState, split: SftSplit, cfg: TrainConfig, mode: str,
              metrics_cb=None) -> None:
    """Fine-tune the base under fixed actions (FTA-I or FTA-P) on an SFT
    split's `_drawn_rows`; the merge module stays frozen. FTA-I is followed
    by a policy refresh restricted to response positions. The actions are
    read from the loss's own base forward: the inverse labels for FTA-I,
    the frozen policy's argmax for FTA-P."""
    def policy_argmax(e_l):
        probs = policy_forward(state.groups["policy"], state.cfg, e_l)
        return probs.data[:, :-1].argmax(axis=-1)

    actions_fn = {"FTA-I": lambda e_l: inverse_labels(state, e_l),
                  "FTA-P": policy_argmax}.get(mode)
    if actions_fn is None:
        raise ValueError(f"unknown FTA mode: {mode!r}")
    corpus, prompt_len = split.tokens, split.prompt_len
    run_stage(state, f"fta-{mode}", ("base",), cfg,
              lambda rng: _drawn_rows(corpus, cfg, rng),
              lambda tokens: loss_fta(state, tokens, prompt_len, actions_fn),
              metrics_cb)
    if mode == "FTA-I":
        train_bc(state, corpus, cfg, start=prompt_len - 1,
                 stage="fta-policy-refresh", metrics_cb=metrics_cb)


def train_rl(state: ModelState, prompts, reward_fn, cfg: TrainConfig,
             max_len: int, updates: int, metrics_cb=None) -> list[float]:
    """Latent-action RL loop of `updates` steps, one `rl_batch` each;
    everything but the policy stays frozen. Returns the mean-reward trace."""
    ref_policy = unflatten(group_layout(state.cfg)["policy"], state.flat("policy").copy())

    def batches(rng):
        for _ in range(updates):
            yield rl_batch(state, prompts, reward_fn, cfg, rng, max_len, ref_policy)

    records = run_stage(state, "rl", ("policy",), cfg, batches,
                        lambda batch: loss_rl(state, batch, cfg), metrics_cb)
    return [r["rl_reward_mean"] for r in records]


def train_q(state: ModelState, transitions: list[Transition], cfg: TrainConfig,
            metrics_cb=None) -> None:
    """Double-DQN over an in-memory replay set with uniform sampling. After
    every sync_interval-th step's record, before the next draw, the target
    network is synced via theta- <- tau*theta + (1-tau)*theta-."""
    def batches(rng):
        for step in range(1, cfg.steps + 1):
            idx = rng.integers(0, len(transitions),
                               size=min(cfg.batch_size, len(transitions)))
            yield dqn_batch(state, [transitions[i] for i in idx])
            if step % cfg.sync_interval == 0:
                sync_target(state, cfg.tau)

    run_stage(state, "train-q", ("q_online",), cfg, batches,
              lambda batch: loss_dqn(state, batch, cfg.gamma), metrics_cb)
