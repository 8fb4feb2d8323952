"""End-to-end acceptance suite.

Each test is one externally checkable property of the system: gradient
fidelity of the tape engine, the straight-through estimator contract, the
efficacy of the latent-action training stages on a hidden-Markov corpus,
RL and Q-learning correctness on small oracles, search soundness, and
bitwise reproducibility of the command-line driver.

Expensive training pipelines are shared through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from actlm import autodiff as ad
from actlm.actions import assign_direct, inverse_encode, sample_gumbel
from actlm.autodiff import Tape, Tensor
from actlm.cli import main as cli_main
from actlm.config import ArchConfig, SearchConfig, TrainConfig
from actlm.data import HmmCorpusConfig, gen_hmm_corpus, hmm_matrices, \
    open_prefixes
from actlm.diagnostics import alive_actions, marginal_kl, val_loss
from actlm.model import ModelState, base_forward, base_logits, block_forward, \
    group_layout, init_model
from actlm.search import LatentActionLM, audit_tree, mcts_search, uct_score
from actlm.training import Transition, inverse_action_labels, inverse_labels, \
    loss_fta, loss_pre1, loss_pre2, pretrain_base_ar, q_values_fn, \
    sync_target, train_bc, train_q, train_rl, train_stage1
from actlm.actions import policy_forward
from conftest import ChainLM, chain_reward, finite_diff_check, \
    finite_diff_report, group_tensors, per_prefix, tree_snapshot


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def clone_state(state):
    return ModelState(state.cfg, {g: state.flat(g).copy() for g in state.buffers})


HMM_ARCH = ArchConfig(vocab_size=16, d_model=32, n_heads=2, codebook_size=8,
                      max_seq_len=16)


def _hmm_split(concentration: float):
    cfg = HmmCorpusConfig(n_states=4, vocab_size=16,
                          transition_concentration=concentration,
                          emission_concentration=concentration,
                          seq_len=16, n_sequences=1024 + 128, seed=0)
    tokens, _ = gen_hmm_corpus(cfg)
    return cfg, tokens[:1024], tokens[1024:]


def _forward_algorithm_ce(cfg: HmmCorpusConfig, corpus: np.ndarray) -> float:
    """Exact mean next-token cross-entropy of the generating chain, via the
    forward algorithm. Independent oracle for corpus difficulty."""
    trans, emit, init = hmm_matrices(cfg)
    total, count = 0.0, 0
    for row in corpus:
        alpha = init * emit[:, row[0]]
        alpha /= alpha.sum()
        for t in range(1, len(row)):
            pred_state = alpha @ trans
            p_next = pred_state @ emit
            total += -math.log(p_next[row[t]])
            count += 1
            alpha = pred_state * emit[:, row[t]]
            alpha /= alpha.sum()
    return total / count


@pytest.fixture(scope="module")
def hmm_run():
    """Base pretraining then latent-action stage 1 on a mid-entropy corpus."""
    cfg, train, val = _hmm_split(0.3)
    state = init_model(HMM_ARCH, 0)
    pretrain_base_ar(state, train, val,
                     TrainConfig(steps=400, batch_size=16, learning_rate=3e-3))
    base_state = clone_state(state)
    usage = train_stage1(state, train,
                         TrainConfig(steps=2000, batch_size=16,
                                     learning_rate=3e-3, beta=0.001))
    return {"cfg": cfg, "train": train, "val": val, "state": state,
            "base_state": base_state, "usage": usage}


@pytest.fixture(scope="module")
def bc_run():
    """Full pipeline through behavior cloning on a low-entropy corpus, where
    the inverse labels are highly predictable from context."""
    _, train, val = _hmm_split(0.01)
    state = init_model(HMM_ARCH, 0)
    pretrain_base_ar(state, train, val,
                     TrainConfig(steps=400, batch_size=16, learning_rate=3e-3))
    train_stage1(state, train, TrainConfig(steps=1500, batch_size=16,
                                           learning_rate=3e-3))
    train_bc(state, train, TrainConfig(steps=1500, batch_size=16,
                                       learning_rate=3e-3))
    return {"train": train, "val": val, "state": state}


# ---------------------------------------------------------------------------
# Gradient fidelity of every primitive and of the full losses
# ---------------------------------------------------------------------------

def _primitive_cases(seed):
    """(name, build, params) for every differentiable primitive; all probe
    weights are fixed up front so repeated forward evaluations are identical."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 3)))
    y = Tensor(rng.normal(size=(2, 3)))
    m = Tensor(rng.normal(size=(3, 4)))
    pos = Tensor(rng.uniform(0.5, 2.0, size=(2, 3)))
    gain = Tensor(rng.uniform(0.5, 2.0, size=(3,)))
    table = Tensor(rng.normal(size=(5, 3)))
    ids = rng.integers(0, 5, size=(2, 4))
    z = Tensor(rng.normal(size=(2, 4, 3)))
    logits = Tensor(rng.normal(size=(2, 4, 5)))
    targets = rng.integers(0, 5, size=(2, 4))
    w23 = rng.normal(size=(2, 3))
    w24 = rng.normal(size=(2, 4))
    w26 = rng.normal(size=(2, 6))
    w32 = rng.normal(size=(3, 2))
    w243 = rng.normal(size=(2, 4, 3))
    w223 = rng.normal(size=(2, 2, 3))

    def probe(t, w):
        return ad.sum_(ad.mul(t, Tensor(w)))

    return [
        ("add", lambda: probe(ad.add(x, y), w23), [x, y]),
        ("sub", lambda: probe(ad.sub(x, y), w23), [x, y]),
        ("mul", lambda: probe(ad.mul(x, y), w23), [x, y]),
        ("mul_const", lambda: probe(ad.mul(x, 1.7), w23), [x]),
        ("matmul", lambda: probe(ad.matmul(x, m), w24), [x, m]),
        ("embedding", lambda: probe(ad.embedding(table, ids), w243), [table]),
        ("concat_last", lambda: probe(ad.concat_last(x, y), w26), [x, y]),
        ("softmax", lambda: probe(ad.softmax(x), w23), [x]),
        ("log_softmax", lambda: probe(ad.log_softmax(x), w23), [x]),
        ("silu", lambda: probe(ad.silu(x), w23), [x]),
        ("rms_norm", lambda: probe(ad.rms_norm(x, gain), w23), [x, gain]),
        ("cross_entropy", lambda: ad.mean_(ad.cross_entropy(logits, targets)),
         [logits]),
        ("log", lambda: probe(ad.log(pos), w23), [pos]),
        ("exp", lambda: probe(ad.exp(x), w23), [x]),
        ("sum", lambda: ad.sum_(x), [x]),
        ("mean", lambda: ad.mean_(ad.mul(x, Tensor(w23))), [x]),
        ("reshape", lambda: probe(ad.reshape(x, (3, 2)), w32), [x]),
        ("swapaxes", lambda: probe(ad.swapaxes(x, 0, 1), w32), [x]),
        ("slice_time", lambda: probe(ad.slice_time(z, 1, 3), w223), [z]),
    ]


def _well_conditioned_toy():
    """Tiny model with unit-scale parameters, so that most loss gradient
    coordinates sit well above the finite-difference error bound b of
    `conftest.finite_diff_report`.

    Built at seeds 0-11, the same toy fails that check in 6 of 36 (seed,
    loss) pairs: stage-1 at seeds 0, 2, 3 and 5 (worst ratio 2.20) and
    action-conditioned tuning at seeds 7 and 10. Each failing coordinate
    is a weak one (|g| <= 2e-4) whose central difference at h = 1e-3 or
    1e-2 agrees with the analytic gradient; at h = 1e-5 its rounding
    noise runs up to 2.2 times the u |f| / h that b allows. At seed 248
    the worst ratios are 0.23, 0.02 and 0.42."""
    arch = ArchConfig(vocab_size=5, d_model=2, n_heads=1, n_layers_base=1,
                      codebook_size=3, max_seq_len=4, intermediate_dim=4)
    state = init_model(arch, 248, np.float64)
    prng = np.random.default_rng(10_000 + 248)
    for group in state.groups.values():
        for t in group.values():
            t.data[...] = prng.normal(0.0, 1.0, size=t.data.shape)
    tokens = np.random.default_rng(248).integers(0, 5, size=(2, 3))
    return state, tokens


BLOCK_ARCH = ArchConfig(d_model=4, n_heads=2, intermediate_dim=3, max_seq_len=3)


def _block_case(seed):
    """(build, params) of a probe on one whole transformer block: its
    input (two rows of three positions) and every weight, at half unit
    scale."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    blk = {name: Tensor(rng.normal(0.0, 0.5, size=shape))
           for name, shape in group_layout(BLOCK_ARCH)["base"]
           if name.startswith("blk0.")}
    w = Tensor(rng.normal(size=(2, 3, 4)))
    return (lambda: ad.sum_(ad.mul(block_forward(blk, "blk0", x, BLOCK_ARCH), w)),
            [x, *blk.values()])


def test_gradient_fidelity_of_primitives():
    """Every primitive's gradient passes the elementwise check of
    `conftest.finite_diff_report`, and every gradient of one whole block is
    within 1e-6 of central differences relative to that gradient's largest
    coordinate: the block's probe is a sum whose terms cancel, so its
    rounding noise exceeds the u |f| / h that the elementwise bound allows
    (by up to 1.8 times, at seed 9)."""
    for seed in range(100):
        for name, build, params in _primitive_cases(seed):
            worst = finite_diff_check(build, params)
            assert worst <= 1, f"{name} (seed {seed}): {worst:.3f}"
        _, analytic, numeric = finite_diff_report(*_block_case(seed))
        for i, (a, n) in enumerate(zip(analytic, numeric)):
            err = np.abs(a - n).max() / np.abs(a).max()
            assert err < 1e-6, f"block param {i} (seed {seed}): {err:.3e}"


def test_gradient_fidelity_of_full_losses():
    state, tokens = _well_conditioned_toy()
    tcfg = TrainConfig()
    e_l = base_forward(state.groups["base"], state.cfg, tokens)

    def build_pre1():
        # fresh rng per evaluation: identical noise at every probe point
        return loss_pre1(state, tokens, e_l, tcfg, np.random.default_rng(7),
                         "direct")[0]

    err1 = finite_diff_check(
        build_pre1, group_tensors(state, "inverse", "codebook", "merge"))
    assert err1 <= 1, f"stage-1 loss: {err1:.3f}"

    labels = inverse_labels(state, e_l)
    err2 = finite_diff_check(
        lambda: loss_pre2(state, e_l, labels, 0)[0],
        group_tensors(state, "policy"))
    assert err2 <= 1, f"cloning loss: {err2:.3f}"

    # actions held fixed while the base is perturbed
    err3 = finite_diff_check(
        lambda: loss_fta(state, tokens, 2, lambda _: labels)[0],
        group_tensors(state, "base"))
    assert err3 <= 1, f"action-conditioned tuning loss: {err3:.3f}"


# ---------------------------------------------------------------------------
# Straight-through estimator contract
# ---------------------------------------------------------------------------

def test_straight_through_forward_is_exact_one_hot():
    arch = ArchConfig(vocab_size=7, d_model=8, n_heads=2, codebook_size=4,
                      max_seq_len=8)
    for seed in range(100):
        state = init_model(arch, seed)
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, 7, size=(2, 5))
        e_l = base_forward(state.groups["base"], arch, tokens)
        e_i = inverse_encode(state.groups["inverse"], arch, e_l)
        assign = assign_direct(state.groups["inverse"],
                               state.groups["codebook"], e_i, 1.0, rng)
        expected = np.zeros_like(assign.soft.data)
        np.put_along_axis(expected, assign.soft.data.argmax(-1)[..., None],
                          1.0, -1)
        assert np.array_equal(assign.straight.data, expected)
        # selected codebook rows are forwarded bit-exactly
        codes = state.groups["codebook"]["codes"].data
        assert np.array_equal(assign.action.data, codes[assign.index])


def test_straight_through_gradient_matches_soft_path():
    """d(w . hard)/dlogits from the tape equals the central-difference
    gradient of the smooth readout w . soft, on 100 seeds."""
    eps = 1e-5
    for seed in range(100):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(3, 5)))
        w = rng.normal(size=(3, 5))
        noise = sample_gumbel(rng, (3, 5))

        def soft_of():
            return ad.softmax(ad.add(logits, noise))

        with Tape() as tape:
            soft = soft_of()
            hard = np.zeros_like(soft.data)
            np.put_along_axis(hard, soft.data.argmax(-1)[..., None], 1.0, -1)
            straight = ad.add(ad.stop_grad(ad.sub(Tensor(hard), soft)), soft)
            out = ad.sum_(ad.mul(straight, Tensor(w)))
            analytic, = tape.gradients(out, [logits])

        numeric = np.zeros_like(logits.data)
        flat = logits.data.reshape(-1)
        base = flat.copy()
        for i in range(flat.size):
            flat[i] = base[i] + eps
            up = float((soft_of().data * w).sum())
            flat[i] = base[i] - eps
            down = float((soft_of().data * w).sum())
            flat[i] = base[i]
            numeric.reshape(-1)[i] = (up - down) / (2 * eps)
        assert np.abs(analytic - numeric).max() < 1e-6


# ---------------------------------------------------------------------------
# Latent-action training efficacy on the hidden-Markov corpus
# ---------------------------------------------------------------------------

def test_action_conditioning_beats_base_prediction(hmm_run):
    state, val = hmm_run["state"], hmm_run["val"]
    with_actions = val_loss(state, val, "with_actions")
    base_ar = val_loss(state, val, "base_ar")
    oracle = _forward_algorithm_ce(hmm_run["cfg"], val)
    # the base should sit near the generating chain's exact entropy rate
    assert abs(base_ar - oracle) < 0.3, (base_ar, oracle)
    assert with_actions <= 0.8 * base_ar, (with_actions, base_ar)


def test_codebook_stays_alive(hmm_run, capsys):
    assert alive_actions(hmm_run["usage"]) >= 4

    # companion run with nearest-code assignment: liveness reported only
    vq_state = clone_state(hmm_run["base_state"])
    trace = []
    train_stage1(vq_state, hmm_run["train"],
                 TrainConfig(steps=200, batch_size=16, learning_rate=3e-3),
                 assignment="vq",
                 metrics_cb=lambda r: trace.append(r["alive_actions"]))
    with capsys.disabled():
        print(f"\n[nearest-code companion] alive-action trace "
              f"(every 20 steps): {trace[::20]}, final {trace[-1]}/8")


def test_policy_clones_inverse_labels(bc_run):
    state, val = bc_run["state"], bc_run["val"]
    labels = inverse_action_labels(state, val, 1.0)
    e_l = base_forward(state.groups["base"], state.cfg, val)
    probs = policy_forward(state.groups["policy"], state.cfg, e_l)
    predicted = probs.data[:, :-1, :].argmax(axis=-1)
    agreement = float((predicted == labels).mean())
    assert agreement >= 0.85, agreement


# ---------------------------------------------------------------------------
# Marginal decomposition identity
# ---------------------------------------------------------------------------

def test_marginal_kl_matches_brute_force_oracle():
    arch = ArchConfig(vocab_size=9, d_model=8, n_heads=2, codebook_size=4,
                      max_seq_len=16)
    state = init_model(arch, 5)
    contexts = np.random.default_rng(2).integers(0, 9, size=(100, 6))
    got = marginal_kl(state, contexts)

    from actlm.actions import world_logits

    def soft(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    total = 0.0
    for ctx in contexts:
        e_l = base_forward(state.groups["base"], arch, ctx[None])
        logits = base_logits(state.groups["base"], e_l)
        p = soft(logits.data[0, -1])
        pi = policy_forward(state.groups["policy"], arch, e_l).data[0, -1]
        mix = np.zeros_like(p)
        for a in range(arch.codebook_size):
            code = state.groups["codebook"]["codes"].data[a][None, None]
            wl = world_logits(state.groups["merge"], arch,
                              ad.slice_time(e_l, len(ctx) - 1, None),
                              Tensor(code))
            mix += pi[a] * soft(wl.data[0, -1])
        total += float((p * (np.log(p) - np.log(mix))).sum())
    assert got == pytest.approx(total / len(contexts), abs=1e-9)


def test_marginal_kl_constructed_identity_is_zero():
    """Uniform base head, zero merge stack, and a delta policy make both
    sides of the decomposition uniform: the divergence is zero to 64-bit
    roundoff."""
    arch = ArchConfig(vocab_size=9, d_model=8, n_heads=2, codebook_size=4,
                      max_seq_len=16)
    state = init_model(arch, 0, np.float64)
    state.groups["base"]["lm_head"].data[...] = 0.0
    for t in state.groups["merge"].values():
        t.data[...] = 0.0
    state.groups["policy"]["head"].data[...] = 0.0
    state.groups["policy"]["head"].data[:, 1] = 60.0
    contexts = np.random.default_rng(0).integers(0, 9, size=(16, 5))
    assert marginal_kl(state, contexts) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Latent-action RL on the marker reward
# ---------------------------------------------------------------------------

def _pick_marker(state, prompt):
    model = LatentActionLM(state)
    for action in range(model.n_actions):
        token = model.next_token(prompt, action)
        if token != model.eos_token_id:
            return token
    raise AssertionError("no non-eos token reachable from the prompt")


def test_rl_reaches_marker_reward_with_frozen_world(bc_run):
    state = clone_state(bc_run["state"])
    val = bc_run["val"]
    prompts = open_prefixes(val, 4, 4, HMM_ARCH.eos_token_id)
    marker = _pick_marker(state, prompts[0])
    reward_fn = lambda response: 1.0 if marker in response else 0.0
    frozen_before = state.hashes(("base", "merge", "inverse", "codebook"))
    trace = train_rl(state, prompts, reward_fn,
                     TrainConfig(kl_coef=0.01, rl_group_size=8,
                                 learning_rate=3e-3, seed=0),
                     max_len=10, updates=60)
    assert max(trace) >= 0.9, trace
    assert state.hashes(("base", "merge", "inverse", "codebook")) == frozen_before

    # the unregularized run must complete without numeric failure
    free = clone_state(bc_run["state"])
    trace0 = train_rl(free, prompts, reward_fn,
                      TrainConfig(kl_coef=0.0, rl_group_size=8,
                                  learning_rate=3e-3, seed=0),
                      max_len=10, updates=3)
    assert all(np.isfinite(trace0))


# ---------------------------------------------------------------------------
# Double-DQN on a three-state chain
# ---------------------------------------------------------------------------

def test_double_dqn_recovers_chain_values():
    arch = ArchConfig(vocab_size=16, d_model=16, n_heads=2, codebook_size=8,
                      max_seq_len=8, intermediate_dim=32)
    state = init_model(arch, 0)
    contexts = [np.array([5]), np.array([5, 6]), np.array([5, 6, 7])]
    nxt = [np.array([5, 6]), np.array([5, 6, 7]), np.array([5, 6, 7, 0])]
    transitions = []
    for i, ctx in enumerate(contexts):
        terminal = i == len(contexts) - 1
        for action in range(arch.codebook_size):
            transitions.append(Transition(
                context=ctx, action=action, next_context=nxt[i],
                reward=1.0 if terminal else 0.0, terminal=terminal))
    cfg = TrainConfig(steps=600, batch_size=24, learning_rate=3e-3,
                      gamma=0.99, tau=1.0, sync_interval=50, seed=0)
    train_q(state, transitions, cfg)

    q = q_values_fn(state, "q_online")
    optimal = [0.99 ** 2, 0.99, 1.0]  # value iteration on the chain
    worst = max(float(np.abs(q(ctx)[-1] - v).max())
                for ctx, v in zip(contexts, optimal))
    assert worst < 0.05, worst

    # full-rate sync must be a hard copy
    sync_target(state, 1.0)
    for k, online in state.groups["q_online"].items():
        assert online.data.tobytes() == state.groups["q_target"][k].data.tobytes()


# ---------------------------------------------------------------------------
# Tree search
# ---------------------------------------------------------------------------

def test_uct_matches_high_precision_reference():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        child_visits = int(rng.integers(1, 100))
        parent_visits = child_visits + int(rng.integers(0, 100))
        q_sum = float(rng.uniform(0, child_visits))
        c = float(rng.uniform(0, 3))
        from actlm.search import MctsNode
        parent = MctsNode(state=np.array([1]), visits=parent_visits)
        child = MctsNode(state=np.array([1, 2]), visits=child_visits,
                         q_sum=q_sum)
        got = uct_score(child, parent, c)
        ld = np.longdouble
        want = ld(q_sum) / ld(child_visits) + ld(c) * np.sqrt(
            np.log(ld(parent_visits)) / ld(child_visits))
        assert abs(got - float(want)) < 1e-9
    from actlm.search import MctsNode
    assert uct_score(MctsNode(state=np.array([1, 3])),
                     MctsNode(state=np.array([1]), visits=4), 0.7) == math.inf


def test_mcts_finds_optimal_branch_across_seeds():
    wins = 0
    for seed in range(20):
        cfg = SearchConfig(action_steps=2, iterations=12, expand_width=8,
                           max_len=10, seed=seed)
        result = mcts_search(ChainLM(episode_len=10), [1], cfg, chain_reward)
        audit_tree(result.root)
        wins += chain_reward(result.tokens) == 1.0
    assert wins >= 19, wins


def test_q_pruning_boundary_behavior():
    toy = ChainLM(episode_len=12)

    # zero threshold: node-for-node identical to the plain search
    cfg0 = SearchConfig(action_steps=2, iterations=10, expand_width=2,
                        max_len=12, seed=7, bellman_threshold=0.0)
    plain = mcts_search(toy, [1], cfg0, chain_reward)
    pruned = mcts_search(toy, [1], cfg0, chain_reward,
                         q_fn=per_prefix(lambda ctx: np.zeros(2)),
                         gamma=0.9)
    assert tree_snapshot(plain.root) == tree_snapshot(pruned.root)
    np.testing.assert_array_equal(plain.tokens, pruned.tokens)

    # infinite threshold: the first expansion extends straight to terminal
    cfg_inf = SearchConfig(action_steps=2, iterations=10, expand_width=2,
                           max_len=12, seed=1,
                           bellman_threshold=math.inf)
    result = mcts_search(toy, [1], cfg_inf, chain_reward,
                         q_fn=per_prefix(lambda ctx: np.zeros(2)),
                         gamma=0.9)
    assert result.iterations == 1
    child = next(iter(result.root.children.values()))
    assert child.state[-1] == toy.eos_token_id
    assert child.extension_passes >= 1


def test_q_pruning_extends_only_the_consistent_branch():
    """A value function with zero Bellman residual on the rewarded branch and
    a large residual elsewhere: only rewarded-branch nodes get extended."""
    episode_len, gamma = 12, 0.9

    @per_prefix
    def q_fn(ctx):
        if 2 in ctx:  # exact discounted-return values: residual is zero
            return np.full(2, gamma ** (episode_len - 1 - len(ctx)))
        return np.full(2, 0.5)  # residual (0.45 - 0.5)^2 >> threshold

    cfg = SearchConfig(action_steps=2, iterations=10, expand_width=2,
                       max_len=episode_len, seed=0, bellman_threshold=1e-4)
    result = mcts_search(ChainLM(episode_len=episode_len), [1], cfg,
                         chain_reward, q_fn=q_fn, gamma=gamma)
    audit_tree(result.root)
    good_tokens, bad_tokens, good_passes, bad_passes = [], [], [], []
    stack = list(result.root.children.values())
    while stack:
        node = stack.pop()
        if 2 in node.state:
            good_tokens.append(node.expansion_tokens)
            good_passes.append(node.extension_passes)
        else:
            bad_tokens.append(node.expansion_tokens)
            bad_passes.append(node.extension_passes)
        stack.extend(node.children.values())
    assert good_tokens and bad_tokens
    assert max(good_tokens) > max(bad_tokens)
    assert max(good_passes) >= 1
    assert max(bad_passes) == 0


# ---------------------------------------------------------------------------
# Command-line reproducibility
# ---------------------------------------------------------------------------

def _run_all_subcommands(root):
    tiny = ["--steps", "3", "--batch_size", "4", "--hmm_train_count", "16",
            "--hmm_val_count", "4", "--hmm_seq_len", "10",
            "--max_seq_len", "16", "--prompt_len", "4",
            "--search_max_len", "12", "--iterations", "4",
            "--rl_updates", "2", "--rl_max_len", "8",
            "--q_responses_per_prompt", "2", "--eval_contexts", "2",
            "--n_samples", "2", "--seed", "0"]

    def run(cmd, out, *extra):
        assert cli_main([cmd, "--out_dir", str(root / out), *extra,
                         *tiny]) == 0

    run("pretrain-base", "base")
    base = str(root / "base" / "base.ckpt")
    run("pretrain-actions", "stage1", "--init_checkpoint", base)
    stage1 = str(root / "stage1" / "stage1.ckpt")
    run("bc-policy", "bc", "--init_checkpoint", stage1)
    bc = str(root / "bc" / "bc.ckpt")
    run("fta", "fta", "--init_checkpoint", bc)
    run("rl", "rl", "--init_checkpoint", bc)
    run("train-q", "q", "--init_checkpoint", bc)
    q = str(root / "q" / "q.ckpt")
    run("rollout", "rollout", "--init_checkpoint", bc,
        "--rollout_mode", "sample")
    run("search", "search", "--init_checkpoint", bc)
    run("search-q", "searchq", "--init_checkpoint", q)
    run("eval", "eval", "--init_checkpoint", stage1)


def test_cli_reruns_are_bitwise_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run_all_subcommands(a)
    _run_all_subcommands(b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    assert any(p.suffix == ".ckpt" for p in files_a)
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
