"""Optimization: base AR pretraining, joint inverse/world training, policy
behavior cloning, action-guided fine-tuning, policy-gradient RL, and
Double-DQN for the search value function.

Every stage runs the one loop in `run_stage`. Loss builders construct
graphs inside its tape, so the same code serves training steps and
finite-difference verification. Stage freezing is enforced twice: frozen
groups are excluded from the optimizer, and hashed before/after.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .actions import (Decoder, assign_direct, assign_vq, inverse_encode,
                      one_hot, policy_forward, policy_log_probs, q_forward,
                      world_logits)
from .config import TrainConfig
from .model import ModelState, base_forward, base_logits


@dataclass
class Transition:
    """One step of the latent-action MDP; reward only at terminal."""
    context: np.ndarray
    action: int
    next_context: np.ndarray
    reward: float
    terminal: bool

    def __post_init__(self):
        if not self.terminal and self.reward != 0.0:
            raise ValueError("reward must be zero on non-terminal transitions")


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer with global-norm
    clipping. Only the params handed to the constructor are ever updated."""

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> dict[str, float]:
        """Apply one update; skips (and reports) non-finite gradients."""
        c = self.cfg
        total_sq = 0.0
        for k in self.params:
            g = grads.get(k)
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                return {"skipped_nonfinite": 1.0}
            total_sq += float((g.astype(np.float64) ** 2).sum())
        norm = float(np.sqrt(total_sq))
        scale = min(1.0, c.grad_clip_norm / (norm + 1e-12))
        self.t += 1
        bc1 = 1.0 - c.adam_beta1 ** self.t
        bc2 = 1.0 - c.adam_beta2 ** self.t
        for k, p in self.params.items():
            g = grads.get(k)
            if g is None:
                continue
            g = g * scale
            self.m[k] = c.adam_beta1 * self.m[k] + (1 - c.adam_beta1) * g
            self.v[k] = c.adam_beta2 * self.v[k] + (1 - c.adam_beta2) * g * g
            update = (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + c.adam_eps)
            if c.weight_decay:
                p.data -= c.learning_rate * c.weight_decay * p.data
            p.data -= (c.learning_rate * update).astype(p.data.dtype)
        return {"grad_norm": norm, "skipped_nonfinite": 0.0}


def _frozen_base_embeddings(state: ModelState, tokens):
    """Base embeddings with the gradient path into the base severed. The
    base forward stays off the tape: no gradient reaches it, and its graph
    would otherwise live through the step's backward pass."""
    with ad.untaped():
        e_l = base_forward(state.groups["base"], state.cfg, tokens)
    return ad.stop_grad(e_l)


# ---------------------------------------------------------------------------
# Loss builders (graph constructors; no tape management here)
# ---------------------------------------------------------------------------

def loss_base_ar(state: ModelState, tokens):
    """Mean next-token cross-entropy of the base lm-head; (loss, parts)."""
    base = state.groups["base"]
    logits = base_logits(base, base_forward(base, state.cfg, tokens))
    loss = ad.mean_(ad.cross_entropy(ad.slice_time(logits, 0, -1), tokens[:, 1:]))
    return loss, {"loss": loss.item()}


def loss_pre1(state: ModelState, tokens, cfg: TrainConfig, rng=None,
              mode: str = "train", assignment: str = "direct"):
    """Joint inverse/world objective: action-conditioned prediction CE plus
    beta times the per-position sum of g*log(g). Base is frozen.

    Returns (total, parts, assignment_indices)."""
    tokens = np.asarray(tokens)
    e_l = _frozen_base_embeddings(state, tokens)
    e_i = inverse_encode(state.groups["inverse"], state.cfg, e_l)
    e_ctx = ad.slice_time(e_l, 0, -1)
    targets = tokens[:, 1:]
    if assignment == "direct":
        assign = assign_direct(state.groups["inverse"], state.groups["codebook"],
                               e_i, cfg.gumbel_temp, rng=rng, mode=mode)
        logits = world_logits(state.groups["merge"], state.cfg, e_ctx, assign.action)
        predict = ad.mean_(ad.cross_entropy(logits, targets))
        # sum_k g log g per position, averaged; 0*log(0) -> 0 via clamping
        g = assign.soft
        reg = ad.mean_(ad.sum_(ad.mul(g, ad.log(ad.add(g, 1e-12))), axis=2))
        total = ad.add(predict, ad.scale(reg, cfg.beta))
        parts = {"L_predict": predict.item(), "L_reg": reg.item(),
                 "total": total.item()}
        return total, parts, assign.index
    elif assignment == "vq":
        index, action, commitment, codebook_loss = assign_vq(state.groups["codebook"], e_i)
        logits = world_logits(state.groups["merge"], state.cfg, e_ctx, action)
        predict = ad.mean_(ad.cross_entropy(logits, targets))
        total = ad.add(ad.add(predict, codebook_loss), ad.scale(commitment, 0.25))
        parts = {"L_predict": predict.item(), "L_commit": commitment.item(),
                 "L_codebook": codebook_loss.item(), "total": total.item()}
        return total, parts, index
    raise ValueError(f"unknown assignment mode: {assignment!r}")


def inverse_action_labels(state: ModelState, tokens, gumbel_temp: float) -> np.ndarray:
    """Eval-mode inverse assignment indices (B, T-1); no gradients, so
    nothing is recorded even inside a tape."""
    with ad.untaped():
        e_l = base_forward(state.groups["base"], state.cfg, np.asarray(tokens))
        return inverse_labels(state, e_l, gumbel_temp)


def inverse_labels(state: ModelState, e_l: Tensor, gumbel_temp: float) -> np.ndarray:
    """inverse_action_labels from the base embeddings of the tokens."""
    e_i = inverse_encode(state.groups["inverse"], state.cfg, e_l)
    assign = assign_direct(state.groups["inverse"], state.groups["codebook"],
                           e_i, gumbel_temp, mode="eval")
    return assign.index


def loss_pre2(state: ModelState, tokens, labels=None, start: int = 0,
              gumbel_temp: float = 1.0):
    """Behavior cloning: CE of the policy against inverse action labels over
    positions t in [1+start, T-1]. Inverse and base are frozen.

    Returns (loss, parts)."""
    tokens = np.asarray(tokens)
    if labels is None:
        labels = inverse_action_labels(state, tokens, gumbel_temp)
    e_l = _frozen_base_embeddings(state, tokens)
    logp = policy_log_probs(state.groups["policy"], state.cfg, e_l)
    # label row j is a_{j+1}, chosen from context e_l[:, j]
    logp_ctx = ad.slice_time(logp, start, -1)
    ce = ad.cross_entropy(logp_ctx, labels[:, start:])
    # logp is already log-probabilities; cross_entropy re-normalizes, which is
    # a no-op on a normalized row.
    loss = ad.mean_(ce)
    return loss, {"bc": loss.item()}


def fta_actions(state: ModelState, tokens, mode: str, gumbel_temp: float) -> np.ndarray:
    """Action indices for fine-tuning: frozen inverse (FTA-I) or greedy
    frozen policy (FTA-P). Forward-only."""
    tokens = np.asarray(tokens)
    if mode == "FTA-I":
        return inverse_action_labels(state, tokens, gumbel_temp)
    if mode == "FTA-P":
        e_l = base_forward(state.groups["base"], state.cfg, tokens)
        probs = policy_forward(state.groups["policy"], state.cfg, e_l)
        return probs.data[:, :-1, :].argmax(axis=-1)
    raise ValueError(f"unknown FTA mode: {mode!r}")


def loss_fta(state: ModelState, tokens, prompt_len: int, action_indices):
    """World-model CE restricted to response positions t in [p, T-1], with
    actions held fixed; only the base receives the update."""
    tokens = np.asarray(tokens)
    t_total = tokens.shape[1]
    if prompt_len >= t_total:
        raise ValueError("empty response: prompt_len >= sequence length")
    e_l = base_forward(state.groups["base"], state.cfg, tokens)
    action = ad.stop_grad(ad.embedding(state.groups["codebook"]["codes"],
                                       action_indices[:, prompt_len - 1:]))
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
    """Generate continuations for a batch of equal-length prompts.

    Actions come from the policy (argmax in greedy mode, sampled otherwise);
    tokens are always the argmax of the world-model logits. A row stops at
    eos, including an eos that ends its prompt, and is padded with eos and
    action 0 while others run on; all stop at max_len. Returns (tokens
    (B, <=max_len), actions (B, steps))."""
    cfg = state.cfg
    tokens = np.asarray(prompts).copy()
    if tokens.ndim != 2 or tokens.shape[1] < 1:
        raise ValueError("prompts must be a non-empty (B, p) array")
    if mode == "sample" and rng is None:
        raise ValueError("sample mode needs an rng")
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown rollout mode: {mode!r}")
    b = tokens.shape[0]
    actions = np.zeros((b, 0), dtype=np.int64)
    done = tokens[:, -1] == cfg.eos_token_id
    decoder = Decoder(state, b)
    while tokens.shape[1] < max_len and not done.all():
        decoder.sync(tokens)
        probs = decoder.policy_probs()
        if mode == "greedy":
            act = probs.argmax(axis=-1)
        else:
            cum = probs.cumsum(axis=-1)
            cum /= cum[:, -1:]
            act = (rng.random((b, 1)) < cum).argmax(axis=-1)
        nxt = decoder.next_tokens(act)
        nxt = np.where(done, cfg.eos_token_id, nxt)
        act = np.where(done, 0, act)
        tokens = np.concatenate([tokens, nxt[:, None]], axis=1)
        actions = np.concatenate([actions, act[:, None]], axis=1)
        done |= nxt == cfg.eos_token_id
    return tokens, actions


def decision_mask(tokens: np.ndarray, prompt_len: int, n_steps: int,
                  eos: int) -> np.ndarray:
    """(B, n_steps) bool: True where generation step s was a real decision.

    Step s decides from the context ending at position prompt_len-1+s; once
    that context ends in eos, or passed one after the prompt, the step is
    padding. So a row whose prompt ends in eos has no decisions at all."""
    contexts = tokens[:, prompt_len - 1:prompt_len - 1 + n_steps]
    return ~(np.cumsum(contexts == eos, axis=1) > 0)


def rl_batch(state: ModelState, prompts: np.ndarray, reward_fn,
             cfg: TrainConfig, rng, max_len: int) -> dict:
    """Rollouts and advantages for one leave-one-out update; forward-only.

    For each prompt, rl_group_size rollouts are drawn (sampled actions,
    greedy tokens); each rollout's advantage is its reward minus the mean of
    its group siblings. A reward_fn that raises scores its rollout 0 and is
    counted in scorer_failures."""
    if cfg.rl_group_size < 2:
        raise ValueError("rl_group_size must be >= 2")
    n_prompts, p_len = np.shape(prompts)
    g = cfg.rl_group_size
    tokens, actions = rollout_batch(state, np.repeat(prompts, g, axis=0),
                                    "sample", max_len, rng)
    rewards = np.zeros(len(tokens))
    failures = 0
    for i, row in enumerate(tokens):
        try:
            rewards[i] = float(reward_fn(row[p_len:]))
        except Exception:
            failures += 1
    groups = rewards.reshape(n_prompts, g)
    adv = (groups - (groups.sum(axis=1, keepdims=True) - groups) / (g - 1)).reshape(-1)
    valid = decision_mask(tokens, p_len, actions.shape[1], state.cfg.eos_token_id)
    return {"tokens": tokens, "actions": actions, "advantages": adv,
            "valid": valid.astype(ad.active_dtype()), "rewards": rewards,
            "scorer_failures": failures}


def loss_rl(state: ModelState, batch: dict, ref_policy: dict[str, Tensor],
            cfg: TrainConfig):
    """Policy-gradient loss on an rl_batch, plus kl_coef times the KL of the
    latent-action distributions from the frozen reference policy. Steps
    after eos count in neither term. Returns (total, parts)."""
    tokens, actions, valid = batch["tokens"], batch["actions"], batch["valid"]
    n_steps = actions.shape[1]
    p_len = tokens.shape[1] - n_steps
    e_l = _frozen_base_embeddings(state, tokens)
    logp = policy_log_probs(state.groups["policy"], state.cfg, e_l)
    # action at generation step s was chosen from context position p_len-1+s
    logp_steps = ad.slice_time(logp, p_len - 1, p_len - 1 + n_steps)
    onehot = one_hot(actions, state.cfg.codebook_size) * valid[..., None]
    picked = ad.mul(logp_steps, Tensor(onehot))
    logp_taken = ad.sum_(ad.sum_(picked, axis=2), axis=1)  # (B,)
    pg = ad.scale(ad.sum_(ad.mul(logp_taken, Tensor(batch["advantages"]))),
                  -1.0 / len(tokens))

    probs = ad.exp(logp_steps)
    ref_logp = policy_log_probs(ref_policy, state.cfg, e_l)
    ref_logp = ad.stop_grad(ad.slice_time(ref_logp, p_len - 1, p_len - 1 + n_steps))
    kl_pos = ad.sum_(ad.mul(probs, ad.sub(logp_steps, ref_logp)), axis=2)
    kl = ad.scale(ad.sum_(ad.mul(kl_pos, Tensor(valid))), 1.0 / len(tokens))

    total = ad.add(pg, ad.scale(kl, cfg.kl_coef)) if cfg.kl_coef else pg
    return total, {"rl_reward_mean": float(batch["rewards"].mean()),
                   "scorer_failures": batch["scorer_failures"],
                   "rl_kl": kl.item(), "pg_loss": pg.item(), "total": total.item()}


# ---------------------------------------------------------------------------
# Double-DQN
# ---------------------------------------------------------------------------

def q_values_fn(state: ModelState, group: str):
    """Q(x_{1:t}, .) as a callable on a 1-d token context."""
    def q(context) -> np.ndarray:
        tokens = np.asarray(context).reshape(1, -1)
        e_l = base_forward(state.groups["base"], state.cfg, tokens)
        vals = q_forward(state.groups[group], state.cfg, e_l)
        return vals.data[0, -1, :]
    return q


def dqn_target(transition: Transition, q_online, q_target, gamma: float) -> float:
    """Double-DQN target: r at terminal, else gamma * Q_target(s', argmax_a
    Q_online(s', a))."""
    if transition.terminal:
        return float(transition.reward)
    if gamma == 0.0:
        return 0.0
    best = int(np.argmax(q_online(transition.next_context)))
    return float(gamma * q_target(transition.next_context)[best])


def dqn_batch(state: ModelState, transitions: list[Transition],
              cfg: TrainConfig) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Double-DQN targets from the current online and target networks;
    forward-only. One (contexts (b, L), actions (b, 1), targets (b,)) per
    context length L, shortest first, so each length is one forward."""
    if not transitions:
        raise ValueError("empty transition batch")
    q_online = q_values_fn(state, "q_online")
    q_target = q_values_fn(state, "q_target")
    targets = [dqn_target(tr, q_online, q_target, cfg.gamma) for tr in transitions]
    by_len: dict[int, list[int]] = {}
    for i, tr in enumerate(transitions):
        by_len.setdefault(len(tr.context), []).append(i)
    return [(np.stack([np.asarray(transitions[i].context) for i in idxs]),
             np.asarray([[transitions[i].action] for i in idxs]),
             np.asarray([targets[i] for i in idxs], dtype=ad.active_dtype()))
            for _, idxs in sorted(by_len.items())]


def loss_dqn(state: ModelState, batch):
    """Mean squared Bellman residual of the online Q at the last position
    of each context in a dqn_batch. Returns (loss, parts)."""
    sq_terms = []
    for contexts, actions, targets in batch:
        e_l = _frozen_base_embeddings(state, contexts)
        vals = q_forward(state.groups["q_online"], state.cfg, e_l)
        last = ad.slice_time(vals, contexts.shape[1] - 1, None)  # (b, 1, N)
        onehot = one_hot(actions, state.cfg.codebook_size)
        picked = ad.sum_(ad.sum_(ad.mul(last, Tensor(onehot)), axis=2), axis=1)
        resid = ad.sub(picked, targets)
        sq_terms.append(ad.sum_(ad.mul(resid, resid)))
    total_sq = sq_terms[0]
    for term in sq_terms[1:]:
        total_sq = ad.add(total_sq, term)
    loss = ad.scale(total_sq, 1.0 / sum(len(targets) for _, _, targets in batch))
    return loss, {"q_loss": loss.item()}


def sync_target(state: ModelState, tau: float) -> None:
    online, target = state.groups["q_online"], state.groups["q_target"]
    for k in online:
        target[k].data = tau * online[k].data + (1.0 - tau) * target[k].data


# ---------------------------------------------------------------------------
# The stage loop and the stage drivers
# ---------------------------------------------------------------------------

def run_stage(state: ModelState, stage: str, trainable: tuple[str, ...],
              frozen: tuple[str, ...], steps: int, cfg: TrainConfig,
              batch_fn, loss_fn, metrics_cb=None, after_step=None) -> list[dict]:
    """The training loop of every stage; returns the per-step records.

    Each step draws batch = batch_fn(rng) outside the tape (forward-only
    work: sampling, labels, rollouts, targets), builds (loss, parts) =
    loss_fn(batch) inside it, aborts on a non-finite loss, steps AdamW on
    the trainable groups, runs after_step(step) and hands the record
    {stage, step, **parts, grad_norm, skipped_nonfinite} to metrics_cb.
    Frozen groups are hashed before and after; drift raises RuntimeError."""
    rng = np.random.default_rng(cfg.seed)
    before = state.hashes(frozen)
    opt = AdamW(state.params(*trainable), cfg)
    records = []
    for step in range(steps):
        batch = batch_fn(rng)
        with Tape() as tape:
            loss, parts = loss_fn(batch)
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"non-finite {stage} loss at step {step}")
            grads_by_id = tape.gradients(loss)
        norms = opt.step({k: tape.grad(grads_by_id, p) for k, p in opt.params.items()})
        # free this step's graph before the next batch_fn runs
        del batch, loss, tape, grads_by_id
        if after_step:
            after_step(step)
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


def pretrain_base_ar(state: ModelState, corpus, val_corpus, cfg: TrainConfig,
                     metrics_cb=None) -> float:
    """AR-pretrain the base; returns final held-out CE."""
    run_stage(state, "pretrain-base", ("base",),
              ("merge", "inverse", "policy", "codebook", "q_online", "q_target"),
              cfg.steps, cfg,
              lambda rng: corpus[rng.integers(0, len(corpus), size=cfg.batch_size)],
              lambda tokens: loss_base_ar(state, tokens), metrics_cb)
    return eval_base_ce(state, val_corpus)


def eval_base_ce(state: ModelState, corpus, batch_size: int = 64) -> float:
    base = state.groups["base"]
    total, count = 0.0, 0
    for i in range(0, len(corpus), batch_size):
        chunk = corpus[i:i + batch_size]
        logits = base_logits(base, base_forward(base, state.cfg, chunk))
        ce = ad.cross_entropy(ad.slice_time(logits, 0, -1), chunk[:, 1:])
        total += float(ce.data.sum())
        count += ce.data.size
    return total / count


def train_stage1(state: ModelState, corpus, cfg: TrainConfig,
                 assignment: str = "direct", metrics_cb=None) -> np.ndarray:
    """Joint inverse/world training; returns cumulative action-usage counts.

    Only inverse, codebook, and merge parameters move; the base stays frozen.
    """
    noise_rng = np.random.default_rng(cfg.seed + 1)
    usage = np.zeros(state.cfg.codebook_size, dtype=np.int64)

    def loss_fn(tokens):
        total, parts, index = loss_pre1(state, tokens, cfg, rng=noise_rng,
                                        mode="train", assignment=assignment)
        usage[:] += np.bincount(index.reshape(-1), minlength=len(usage))
        return total, {**parts, "alive_actions": int((usage > 0).sum())}

    run_stage(state, "stage1", ("inverse", "codebook", "merge"), ("base", "policy"),
              cfg.steps, cfg,
              lambda rng: corpus[rng.integers(0, len(corpus), size=cfg.batch_size)],
              loss_fn, metrics_cb)
    return usage


def train_bc(state: ModelState, corpus, cfg: TrainConfig, start: int = 0,
             stage: str = "bc-policy", metrics_cb=None) -> None:
    """Behavior-clone the policy onto eval-mode inverse labels."""
    def batch_fn(rng):
        tokens = corpus[rng.integers(0, len(corpus), size=cfg.batch_size)]
        return tokens, inverse_action_labels(state, tokens, cfg.gumbel_temp)

    run_stage(state, stage, ("policy",), ("base", "merge", "inverse", "codebook"),
              cfg.steps, cfg, batch_fn,
              lambda batch: loss_pre2(state, *batch, start=start), metrics_cb)


def train_fta(state: ModelState, examples, cfg: TrainConfig, mode: str,
              metrics_cb=None) -> None:
    """Fine-tune the base under fixed actions (FTA-I or FTA-P); the merge
    module stays frozen. FTA-I is followed by a policy refresh restricted to
    response positions."""
    prompt_len = len(examples[0].prompt)
    corpus = np.stack([np.concatenate([ex.prompt, ex.response]) for ex in examples])

    def batch_fn(rng):
        tokens = corpus[rng.integers(0, len(corpus), size=cfg.batch_size)]
        return tokens, fta_actions(state, tokens, mode, cfg.gumbel_temp)

    run_stage(state, f"fta-{mode}", ("base",), ("merge", "inverse", "codebook"),
              cfg.steps, cfg, batch_fn,
              lambda batch: loss_fta(state, batch[0], prompt_len, batch[1]),
              metrics_cb)
    if mode == "FTA-I":
        train_bc(state, corpus, cfg, start=prompt_len - 1,
                 stage="fta-policy-refresh", metrics_cb=metrics_cb)


def train_rl(state: ModelState, prompts, reward_fn, cfg: TrainConfig,
             max_len: int, updates: int, metrics_cb=None) -> list[float]:
    """Latent-action RL loop; everything but the policy stays frozen.
    Returns the mean-reward trace."""
    ref_policy = {k: Tensor(t.data.copy()) for k, t in state.groups["policy"].items()}
    records = run_stage(
        state, "rl", ("policy",), ("base", "merge", "inverse", "codebook"),
        updates, cfg,
        lambda rng: rl_batch(state, prompts, reward_fn, cfg, rng, max_len),
        lambda batch: loss_rl(state, batch, ref_policy, cfg), metrics_cb)
    return [r["rl_reward_mean"] for r in records]


def train_q(state: ModelState, transitions: list[Transition], cfg: TrainConfig,
            metrics_cb=None) -> None:
    """Double-DQN over an in-memory replay set with uniform sampling. After
    every sync_interval-th step the target network is synced via
    theta- <- tau*theta + (1-tau)*theta-."""
    def batch_fn(rng):
        idx = rng.integers(0, len(transitions),
                           size=min(cfg.batch_size, len(transitions)))
        return dqn_batch(state, [transitions[i] for i in idx], cfg)

    def sync(step):
        if (step + 1) % cfg.sync_interval == 0:
            sync_target(state, cfg.tau)

    run_stage(state, "train-q", ("q_online",),
              ("base", "merge", "inverse", "codebook", "policy"), cfg.steps, cfg,
              batch_fn, lambda batch: loss_dqn(state, batch), metrics_cb,
              after_step=sync)
