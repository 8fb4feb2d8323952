"""Search: rollout semantics, UCT arithmetic, tree invariants, and the
Q-pruned variant's boundary behavior against hand-built deterministic
generator stubs; the cached decoder against full-prefix forwards."""

import ast
import itertools
import json
import math
import pathlib

import numpy as np
import pytest

import actlm
from actlm import autodiff as ad
from actlm.actions import (Decoder, generate, policy_forward, row_ends,
                           world_logits)
from actlm.autodiff import Tensor
from actlm.config import ArchConfig, SearchConfig
from actlm.data import cdf, inverse_cdf
from actlm.model import base_forward, block_forward, init_model
from actlm.search import (LatentActionLM, MctsNode, _select_child, audit_tree,
                          bellman_error, mcts_search, rollout, uct_score)
from actlm.training import (Transition, q_values_fn,
                            rollout_batch)
from conftest import (ChainLM, StickyLM, accumulation_length, chain_reward,
                      gamma, matmul_error_bound, tree_snapshot)


def test_rollout_greedy_runs_to_eos():
    model = ChainLM()
    tokens, actions = rollout(model, [1], "greedy", 20)
    assert tokens[-1] == 0 and len(tokens) == model.episode_len
    assert len(actions) == len(tokens) - 1
    assert tokens[1] == 2  # greedy picks action 0


def test_rollout_respects_max_len():
    tokens, _ = rollout(ChainLM(episode_len=50), [1], "greedy", 6)
    assert len(tokens) == 6 and tokens[-1] != 0


def test_rollout_rejects_bad_args():
    with pytest.raises(ValueError):
        rollout(ChainLM(), [], "greedy", 5)
    with pytest.raises(ValueError):
        rollout(ChainLM(), [1], "sample", 5)  # no rng
    with pytest.raises(ValueError):
        rollout(ChainLM(), [1], "beam", 5)


def test_uct_score_oracle():
    parent = MctsNode(state=np.array([1]), visits=10)
    child = MctsNode(state=np.array([1, 2]), visits=4, q_sum=3.0)
    expected = 3.0 / 4 + 0.7 * math.sqrt(math.log(10) / 4)
    assert uct_score(child, parent, 0.7) == pytest.approx(expected, abs=1e-12)
    fresh = MctsNode(state=np.array([1, 3]))
    assert uct_score(fresh, parent, 0.7) == math.inf
    with pytest.raises(ValueError):
        uct_score(child, MctsNode(state=np.array([1])), 0.7)


def test_bellman_error_oracle():
    q = lambda ctx: np.array([0.2, 0.8])
    terminal = Transition(np.array([1]), 0, np.array([1, 2]), 1.0, True)
    # residual = 1.0 - 0.2
    assert bellman_error(terminal, q, 0.9) == pytest.approx(0.64)
    step = Transition(np.array([1]), 1, np.array([1, 2]), 0.0, False)
    # target = 0.9 * 0.8 (argmax is action 1); residual = 0.72 - 0.8
    assert bellman_error(step, q, 0.9) == pytest.approx(0.08 ** 2)


def test_bellman_check_runs_one_next_context_forward():
    """With the target net equal to the online net, a Bellman check asks
    q_fn once per context, not once more for the target net, and its value
    is bitwise that of the per-transition Double-DQN rule on q_fn's values."""
    state = init_model(DCFG, 0)
    q, calls = q_values_fn(state, "q_online"), []

    def counting(context):
        calls.append(len(context))
        return q(context)

    tr = Transition(np.array([3, 5, 7]), 2, np.array([3, 5, 7, 4]), 0.0, False)
    error = bellman_error(tr, counting, 0.9)
    assert sorted(calls) == [3, 4]
    q_next = q(tr.next_context)
    y = float(0.9 * q_next[int(np.argmax(q_next))])
    assert error == float((y - q(tr.context)[tr.action]) ** 2)


def test_mcts_finds_good_branch_and_audits():
    cfg = SearchConfig(action_steps=2, iterations=12, expand_width=2,
                       max_len=10, seed=3)
    result = mcts_search(ChainLM(), [1], cfg, chain_reward)
    audit_tree(result.root)
    assert chain_reward(result.tokens) == 1.0
    assert result.root.visits == result.iterations


def test_mcts_writes_trace(tmp_path, monkeypatch):
    """One record per iteration. expand_rows is the row count of the
    segment call that expanded the iteration's leaf, or 0 for a leaf
    scored without one, so a call on r rows shows in r / expand_width
    records, and a batch of several leaves shows as more rows than
    expand_width."""
    flushes = record_flushes(monkeypatch)
    cfg = SearchConfig(action_steps=1, iterations=16, expand_width=2,
                       max_len=8, seed=0)
    trace = tmp_path / "trace.jsonl"
    result = mcts_search(StickyLM(), [4], cfg, junction_switch,
                         trace_path=trace)
    records = [json.loads(l) for l in trace.read_text().splitlines()]
    assert len(records) == result.iterations
    assert all({"iteration", "selected_path", "sim_value", "expand_rows",
                "scorer_failures"} <= set(r) for r in records)
    rows = sorted(r["expand_rows"] for r in records if r["expand_rows"])
    assert rows == sorted(len(rows) for _, calls in flushes
                          for _, rows, _ in calls[:-1]
                          for _ in range(len(rows) // cfg.expand_width))
    assert records[0]["expand_rows"] == cfg.expand_width  # the root alone
    assert any(r["expand_rows"] == 0 for r in records)
    assert max(rows) >= 2 * cfg.expand_width


def test_mcts_failing_reward_fn_scores_zero():
    def bad_reward(tokens):
        raise RuntimeError("scorer crashed")
    cfg = SearchConfig(action_steps=2, iterations=4, max_len=10, seed=0)
    result = mcts_search(ChainLM(), [1], cfg, bad_reward)
    audit_tree(result.root)
    assert result.scorer_failures == result.iterations


def test_mcts_counts_scorer_failures(tmp_path):
    """A scorer that raises on every other call: those simulations score 0
    as if it had returned 0, so tree and tokens are unchanged, and each
    failure is counted in the result and in its iteration's trace record."""
    def scorer(fail):
        calls = {"n": 0}

        def score(tokens):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                if fail:
                    raise RuntimeError("scorer down")
                return 0.0
            return chain_reward(tokens)
        return score, calls

    cfg = SearchConfig(action_steps=1, iterations=9, expand_width=2,
                       max_len=10, seed=1)
    flaky, calls = scorer(fail=True)
    trace = tmp_path / "trace.jsonl"
    result = mcts_search(ChainLM(), [1], cfg, flaky, trace_path=trace)
    zeroed, _ = scorer(fail=False)
    reference = mcts_search(ChainLM(), [1], cfg, zeroed)
    assert result.scorer_failures == calls["n"] // 2 >= 4
    assert reference.scorer_failures == 0
    assert tree_snapshot(result.root) == tree_snapshot(reference.root)
    assert result.tokens.tobytes() == reference.tokens.tobytes()
    records = [json.loads(l) for l in trace.read_text().splitlines()]
    assert [r["scorer_failures"] for r in records] == \
        [int(i % 2 == 1) for i in range(result.iterations)]


def test_mcts_q_zero_threshold_reproduces_plain_search():
    cfg = SearchConfig(action_steps=2, iterations=10, expand_width=2,
                       max_len=12, seed=7, bellman_threshold=0.0)
    plain = mcts_search(ChainLM(episode_len=12), [1], cfg, chain_reward)
    pruned = mcts_search(ChainLM(episode_len=12), [1], cfg, chain_reward,
                         q_fn=lambda ctx: np.zeros(2), gamma=0.9)
    assert tree_snapshot(plain.root) == tree_snapshot(pruned.root)
    np.testing.assert_array_equal(plain.tokens, pruned.tokens)


def test_mcts_q_infinite_threshold_extends_to_terminal_in_one_pass():
    cfg = SearchConfig(action_steps=2, iterations=10, expand_width=2,
                       max_len=12, seed=1, bellman_threshold=math.inf)
    result = mcts_search(ChainLM(episode_len=12), [1], cfg, chain_reward,
                         q_fn=lambda ctx: np.zeros(2), gamma=0.9)
    assert result.iterations == 1
    child = next(iter(result.root.children.values()))
    assert child.state[-1] == 0  # extended all the way to eos
    assert child.extension_passes >= 1


def record_flushes(monkeypatch) -> list:
    """Per `_expand` call, the states of the leaves it expands and, for each
    `generate` call it makes, its mode, its rows and the tokens it returns."""
    from actlm import search
    real_expand, real_generate, flushes = search._expand, search.generate, []

    def expanding(model, nodes, *args):
        flushes.append(([node.state.copy() for node in nodes], []))
        return real_expand(model, nodes, *args)

    def generating(model, rows, mode, *args):
        rows = [np.array(row) for row in rows]
        tokens, actions = real_generate(model, rows, mode, *args)
        flushes[-1][1].append((mode, rows, tokens))
        return tokens, actions

    monkeypatch.setattr(search, "_expand", expanding)
    monkeypatch.setattr(search, "generate", generating)
    return flushes


def check_flush(states, calls, cfg):
    """A flush makes one sampled segment call per state length among its
    leaves, in order of each length's first leaf, on expand_width rows of
    each leaf of that length; greedy B=1 extension calls; and one sampled
    playout call last, whose rows continue the segment rows in order, each
    either as it is or extended by greedy steps. Returns the segment calls'
    rows."""
    lengths = list(dict.fromkeys(len(s) for s in states))
    modes = [mode for mode, _, _ in calls]
    assert modes[:len(lengths)] == ["sample"] * len(lengths)
    assert modes[len(lengths):] == ["greedy"] * (len(modes) - len(lengths) - 1) \
        + ["sample"]
    segments = calls[:len(lengths)]
    for (_, rows, _), p in zip(segments, lengths):
        group = [s for s in states if len(s) == p]
        np.testing.assert_array_equal(rows, np.repeat(group, cfg.expand_width,
                                                      axis=0))
    ends = [row for _, _, tokens in segments for row in tokens]
    _, playout, _ = calls[-1]
    assert len(playout) == len(ends)
    for row, end in zip(playout, ends):
        np.testing.assert_array_equal(row[:len(end)], end)
    assert all(len(rows) == 1 for mode, rows, _ in calls if mode == "greedy")
    return [rows for _, rows, _ in segments]


def test_mcts_decodes_once_per_expansion(monkeypatch):
    """Plain MCTS expands the leaves waiting in a batch with one generate
    call per state length among them for the new children's segments, and
    one more call that continues every segment row unchanged to the end for
    the playouts. Every expanded node is expanded once, and across these
    searches a batch holds two leaves of one length and a batch holds two
    lengths."""
    flushes = record_flushes(monkeypatch)
    expanded = []
    for seed in range(10):
        cfg = SearchConfig(action_steps=1, iterations=16, expand_width=2,
                           max_len=8, seed=seed)
        result = mcts_search(StickyLM(), [4], cfg, junction_switch)
        stack = [result.root]
        while stack:
            node = stack.pop()
            if node.children:
                expanded.append(tuple(node.state.tolist()))
            stack.extend(node.children.values())
    segments = []
    for states, calls in flushes:
        segments.append(check_flush(states, calls, cfg))
        ends = [row for _, _, tokens in calls[:-1] for row in tokens]
        for row, end in zip(calls[-1][1], ends):
            np.testing.assert_array_equal(row, end)
    assert sorted(tuple(s.tolist()) for states, _ in flushes
                  for s in states) == sorted(expanded)
    assert max(len(rows) for calls in segments for rows in calls) \
        >= 2 * cfg.expand_width
    assert max(len(calls) for calls in segments) >= 2


def test_mcts_decodes_only_in_expand(monkeypatch):
    """No node draws a playout of its own: with search.rollout raising,
    plain and Q-pruned searches run, on a terminal root too, which scores
    its empty playout. Every flush is one segment call per state length,
    greedy extension calls, and one playout call; across these Q-pruned
    searches some flush extends a child and some flush holds two
    lengths, and every extended child is scored: extension stops at the
    first terminal first child, where the search stops."""
    from actlm import search

    def refuse(*args, **kwargs):
        raise AssertionError("search.rollout called")

    monkeypatch.setattr(search, "rollout", refuse)
    flushes = record_flushes(monkeypatch)
    # Bellman error (0.9 c(L+1) - c(L))^2 for c(L) = L % 2: 0.81 from an
    # even context length, 1 from an odd one, so some children extend
    q_fn = lambda ctx: np.full(StickyLM.n_actions, float(len(ctx) % 2))
    extended = two_lengths = 0
    for seed, max_len, q in itertools.product(range(10), (6, 8), (None, q_fn)):
        cfg = SearchConfig(action_steps=1, iterations=16, expand_width=2,
                           max_len=max_len, seed=seed, bellman_threshold=0.9)
        flushes.clear()
        result = mcts_search(StickyLM(), [4], cfg, junction_switch,
                             q_fn=q, gamma=0.9)
        audit_tree(result.root)
        stack = [result.root]
        while stack:
            node = stack.pop()
            assert node.sim_value is not None or not node.extension_passes
            stack.extend(node.children.values())
        for states, calls in flushes:
            segments = check_flush(states, calls, cfg)
            greedy = sum(mode == "greedy" for mode, _, _ in calls)
            assert q is not None or not greedy
            extended += bool(greedy)
            two_lengths += q is not None and len(segments) >= 2
    assert extended and two_lengths
    for prompt in ([4, 0], [4, 1, 1]):
        cfg = SearchConfig(action_steps=1, iterations=4, max_len=3, seed=0)
        for q in (None, q_fn):
            result = mcts_search(StickyLM(), prompt, cfg, lambda tokens: 0.5,
                                 q_fn=q, gamma=0.9)
            assert result.tokens.tolist() == prompt and result.iterations == 1
            assert result.root.sim_value == 0.5


def test_mcts_runs_its_whole_iteration_budget_without_a_terminal():
    """Leaves scored at once while others wait count against the budget
    too: with no terminal node in reach, a search runs exactly its
    iterations, and the root is visited once per iteration."""
    for iterations in range(1, 25):
        cfg = SearchConfig(action_steps=1, iterations=iterations,
                           expand_width=3, max_len=40, seed=iterations)
        result = mcts_search(ChainLM(episode_len=50), [1], cfg, chain_reward)
        audit_tree(result.root)
        assert result.iterations == result.root.visits == iterations


def test_terminal_leaf_flushes_the_waiting_leaves(monkeypatch):
    """When selection reaches a terminal leaf while leaves wait, the batch
    is flushed before the search goes on: every leaf that waited is
    expanded, and finished too unless the search stopped at a terminal
    node, and no pending count is left behind."""
    from actlm import search
    real, waiting = search._select, []

    def selecting(root, c_uct):
        path, keys = real(root, c_uct)
        leaf = path[-1]
        if root.pending and (leaf.state[-1] == StickyLM.eos_token_id
                             or len(leaf.state) >= cfg.max_len):
            stack, leaves = [root], []
            while stack:
                node = stack.pop()
                if node.pending and not node.children:
                    leaves.append(node)
                stack.extend(node.children.values())
            waiting.append(leaves)
        return path, keys

    monkeypatch.setattr(search, "_select", selecting)
    hits = 0
    for seed in range(10):
        cfg = SearchConfig(action_steps=1, iterations=16, expand_width=2,
                           max_len=8, seed=seed)
        waiting.clear()
        result = mcts_search(StickyLM(), [4], cfg, junction_switch)
        audit_tree(result.root)
        stopped = result.iterations < cfg.iterations
        for leaves in waiting:
            assert leaves and all(leaf.children for leaf in leaves)
            assert stopped or all(leaf.visits >= 2 for leaf in leaves)
        hits += bool(waiting)
    assert hits >= 1


def test_extension_pass_adds_k_tokens_up_to_max_len(monkeypatch):
    """Each Q-pruned extension pass decodes greedily to
    min(max_len, len + k), so it adds exactly min(k, max_len - len)
    tokens; the flush's one playout call then continues the extended child
    from its new state, here already at max_len, so its playout is
    empty."""
    flushes = record_flushes(monkeypatch)
    cfg = SearchConfig(action_steps=3, iterations=4, expand_width=2,
                       max_len=9, seed=0, bellman_threshold=math.inf)
    result = mcts_search(ChainLM(episode_len=50), [1], cfg, chain_reward,
                         q_fn=lambda ctx: np.zeros(2), gamma=0.9)
    (_, calls), = flushes
    passes = [(rows[0].size, tokens.shape[1] - rows[0].size)
              for mode, rows, tokens in calls if mode == "greedy"]
    assert passes == [(4, 3), (7, 2)]
    assert all(added == min(cfg.action_steps, cfg.max_len - length)
               for length, added in passes)
    child = next(iter(result.root.children.values()))
    assert child.extension_passes == 2 and len(child.state) == cfg.max_len
    assert child.expansion_tokens == cfg.max_len - 1
    mode, playout, _ = calls[-1]
    assert mode == "sample" and playout[0].tolist() == child.state.tolist()
    assert child.sim_tokens.size == 0 and result.iterations == 1


def segment_probability(key) -> float:
    """Probability that one k-step segment drawn from StickyLM's prompt [4]
    has this key."""
    prob, last = 1.0, 4
    for action in key:
        prob *= StickyLM.POLICY[last][action]
        last = action + 1
    return prob


def reference_mcts_search(model, prompt, cfg: SearchConfig, reward_fn):
    """The sequential MCTS loop batched search replaced: each expansion
    draws its segments one row at a time, and a child's playout is drawn
    and scored when selection first reaches it. Kept as the reference the
    batched search's distribution is checked against. Returns the root and
    the best reward."""
    rng = np.random.default_rng(cfg.seed)
    eos = model.eos_token_id
    root = MctsNode(state=np.asarray(prompt))

    def terminal(state):
        return len(state) >= cfg.max_len or state[-1] == eos

    def simulate(node):
        full, _ = generate(model, node.state[None], "sample", cfg.max_len, rng)
        node.sim_value = reward_fn(full[0])
        return node.sim_value

    for _ in range(cfg.iterations):
        node, path = root, [root]
        while node.children:
            node = node.children[_select_child(node, cfg.c_uct)]
            path.append(node)
        if node.visits == 0 and node is not root or terminal(node.state):
            done = terminal(node.state)
        else:
            for _ in range(cfg.expand_width):
                states, actions = generate(
                    model, node.state[None], "sample",
                    min(cfg.max_len, len(node.state) + cfg.action_steps), rng)
                key = tuple(actions[0].tolist())
                if key not in node.children:
                    node.children[key] = MctsNode(state=states[0])
            node = next(iter(node.children.values()))
            path.append(node)
            done = terminal(node.state)
        value = simulate(node)
        for n in path:
            n.visits += 1
            n.q_sum += value
        if done:
            break
    best, stack = -math.inf, [root]
    while stack:
        n = stack.pop()
        if n.sim_value is not None:
            best = max(best, n.sim_value)
        stack.extend(n.children.values())
    return root, best


def junction_switch(tokens) -> float:
    """1 iff the token after a root child's state (prompt [4] plus a full
    2-step segment) differs from the state's last token."""
    return float(len(tokens) > 3 and tokens[3] != tokens[2])


def test_batched_search_matches_sequential_reference_in_distribution(
        monkeypatch):
    """Over 600 seeds at each of three search shapes, batched MCTS and the
    sequential reference agree in distribution on StickyLM: the frequency
    of every possible root-child key matches its exact probability
    1 - (1 - q)^W under both, q the segment's probability and W the expand
    width, and the frequencies of each best reward agree between the two.
    The short search leaves most root children unvisited; the longer ones
    expand below them, and at (8, 2) at least a quarter of the seeds
    expand two or more waiting leaves in one batch (318 of the 600 do).

    Per cell the bound is Bernstein's inequality, as in the HMM sampler
    test: for a key, a mean of N Bernoulli draws of known p; for a best
    reward, the difference of two such means, a mean of N independent
    differences in [-1, 1] with variance at most 1/2. z comes from a
    false-failure probability of 1e-3 for the whole test, split evenly
    (Bonferroni) over all cells."""
    n_seeds, shapes = 600, ((2, 8), (6, 4), (8, 2))  # (iterations, expand_width)
    keys = [(3,)] + [(a, b) for a in range(3) for b in range(4)]
    flushes, runs, batched_seeds = record_flushes(monkeypatch), {}, 0
    for iterations, width in shapes:
        for seed in range(n_seeds):
            cfg = SearchConfig(action_steps=2, iterations=iterations,
                               expand_width=width, max_len=8, seed=seed)
            flushes.clear()
            result = mcts_search(StickyLM(), [4], cfg, junction_switch)
            if (iterations, width) == shapes[-1]:
                batched_seeds += max(len(states) for states, _ in flushes) >= 2
            runs.setdefault((width, "batched"), []).append(
                (set(result.root.children), junction_switch(result.tokens)))
            root, best = reference_mcts_search(StickyLM(), [4], cfg,
                                               junction_switch)
            runs.setdefault((width, "sequential"), []).append(
                (set(root.children), best))
    rewards = sorted({best for run in runs.values() for _, best in run})
    n_cells = len(runs) * len(keys) + len(shapes) * len(rewards)
    z = math.sqrt(2 * math.log(2 * n_cells / 1e-3))
    for (width, name), run in runs.items():
        assert all(children <= set(keys) for children, _ in run), name
        for key in keys:
            p = 1 - (1 - segment_probability(key)) ** width
            freq = np.mean([key in children for children, _ in run])
            assert abs(freq - p) <= z * math.sqrt(p * (1 - p) / n_seeds) \
                + z * z / (3 * n_seeds), (name, width, key, freq, p)
    for _, width in shapes:
        for value in rewards:
            freqs = [np.mean([best == value for _, best in runs[width, name]])
                     for name in ("batched", "sequential")]
            assert abs(freqs[0] - freqs[1]) <= z * math.sqrt(0.5 / n_seeds) \
                + z * z / (3 * n_seeds), (width, value, freqs)
    assert batched_seeds >= n_seeds / 4, batched_seeds


def test_audit_tree_catches_violations():
    root = MctsNode(state=np.array([1]), visits=1, q_sum=5.0)  # mean 5 > 1
    with pytest.raises(AssertionError):
        audit_tree(root)
    parent = MctsNode(state=np.array([1]), visits=1)
    parent.children[(0,)] = MctsNode(state=np.array([1, 2]), visits=3)
    with pytest.raises(AssertionError):
        audit_tree(parent)
    waiting = MctsNode(state=np.array([1]), visits=1, pending=1)
    with pytest.raises(AssertionError, match="pending"):
        audit_tree(waiting)


def test_latent_action_lm_adapter_contract():
    arch = ArchConfig(vocab_size=9, d_model=8, n_heads=2, max_seq_len=12,
                      intermediate_dim=16, codebook_size=4)
    model = LatentActionLM(init_model(arch, 0))
    assert (model.n_actions, model.eos_token_id) == (4, 0)
    model.sync([[1, 2, 3]])
    probs = model.policy_probs()
    assert probs.shape == (1, 4)
    assert probs.sum() == pytest.approx(1.0, abs=1e-5)
    nxt = model.next_token([1, 2, 3], 2)
    assert 0 <= nxt < 9
    assert model.next_tokens([2]).tolist() == [nxt]
    assert model.next_token([1, 2, 3], 2) == nxt  # deterministic


# ---------------------------------------------------------------------------
# Cached decoder against full-prefix forwards
# ---------------------------------------------------------------------------

DCFG = ArchConfig(max_seq_len=24)


def full_prefix_policy(state, tokens):
    """Uncached reference: the policy head's input and the probabilities at
    every position from one full-prefix forward."""
    cfg, policy = state.cfg, state.groups["policy"]
    h = base_forward(state.groups["base"], cfg, tokens)
    for i in range(cfg.n_layers_policy):
        h = block_forward(policy, f"blk{i}", h, cfg)
    logits = ad.matmul(h, policy["head"])
    return h.data, ad.softmax(logits).data


def probs_bound(state, tokens):
    """Bound on the gap between two float evaluations of the policy
    probabilities: each head logit errs by at most the accumulated
    dot-product bound, softmax's Jacobian has infinity-norm <= 1/2, and
    evaluating the softmax itself (exp, an N-term sum, a division) adds
    gamma_{N+3} relative error. Each side errs, hence the factors of 2."""
    cfg = state.cfg
    h, probs = full_prefix_policy(state, tokens)
    n = accumulation_length(cfg, tokens.shape[1],
                            cfg.n_layers_base + cfg.n_layers_policy)
    logit_err = matmul_error_bound(h, state.groups["policy"]["head"].data,
                                   probs.dtype, n=n)
    return probs, (2 * 0.5 * logit_err.max(axis=-1, keepdims=True)
                   + 2 * gamma(cfg.codebook_size + 3, probs.dtype) * probs)


@pytest.mark.parametrize("mode", ["verify", "train"])
@pytest.mark.parametrize("seed", range(6))
def test_decoder_matches_full_prefix(mode, seed):
    """Policy probabilities from token-by-token syncs, and after a branch
    switch (truncate to a prefix, then re-extend with other tokens in
    chunks), stay within the rounding-error bound of full-prefix forwards;
    the switched decoder agrees with a fresh one on every greedy token.
    Both decoders start from one empty row, which their first sync forks
    into two."""
    ad.set_precision(mode)
    state = init_model(DCFG, seed)
    rng = np.random.default_rng(seed)
    t = DCFG.max_seq_len
    tokens = rng.integers(0, DCFG.vocab_size, size=(2, t))
    dec = Decoder(state)
    steps = []
    for i in range(1, t + 1):
        dec.sync(tokens[:, :i])
        steps.append(dec.policy_probs())
    probs, bound = probs_bound(state, tokens)
    assert (np.abs(np.stack(steps, axis=1) - probs) <= bound).all()

    keep = int(rng.integers(1, t - 2))
    branch = tokens.copy()
    branch[:, keep:] = rng.integers(0, DCFG.vocab_size, size=(2, t - keep))
    dec.sync(branch[:, :keep])
    for end in sorted(rng.choice(np.arange(keep + 1, t), 2, replace=False)):
        dec.sync(branch[:, :end])
    dec.sync(branch)
    fresh = Decoder(state)
    fresh.sync(branch)
    probs, bound = probs_bound(state, branch)
    for d in (dec, fresh):
        assert (np.abs(d.probs[:, :t] - probs) <= bound).all()
    for action in range(DCFG.codebook_size):
        np.testing.assert_array_equal(dec.next_tokens([action] * 2),
                                      fresh.next_tokens([action] * 2))


def test_latent_action_lm_encodes_each_token_once(monkeypatch):
    """next_token after a sync to the same tokens, or to a prefix of them,
    runs no forward; a new token costs one forward over it alone."""
    from actlm import actions
    real, widths = actions.base_forward, []

    def counting(p, cfg, tokens, cache=None):
        widths.append(np.asarray(tokens).shape[1])
        return real(p, cfg, tokens, cache)

    monkeypatch.setattr(actions, "base_forward", counting)
    lm = LatentActionLM(init_model(DCFG, 0))
    lm.sync([[1, 2, 3]])
    lm.next_token([1, 2, 3], 0)
    assert widths == [3]
    lm.sync([[1, 2, 3, 4]])
    lm.next_token([1, 2], 1)
    assert widths == [3, 1]
    lm.sync([[1, 2, 5, 6]])
    assert widths == [3, 1, 2]


def test_generation_syncs_once_per_token(monkeypatch):
    """search.rollout and rollout_batch sync the decoder once per decode
    step, and a decode step generates one token per row."""
    from actlm import actions
    real, syncs = actions.Decoder.sync, []

    def counting(self, tokens):
        syncs.append(np.shape(tokens))
        return real(self, tokens)

    monkeypatch.setattr(actions.Decoder, "sync", counting)
    state = init_model(DCFG, 0)
    state.groups["merge"]["lm_head"].data[:, DCFG.eos_token_id] = 0.0  # no eos
    rng = np.random.default_rng(0)
    for mode in ("greedy", "sample"):
        syncs.clear()
        tokens, actions_ = rollout(LatentActionLM(state), [3, 5], mode, 12, rng)
        assert len(tokens) == 12 and len(syncs) == len(actions_) == 10
        syncs.clear()
        batch, actions_ = rollout_batch(state, np.array([[3, 5], [4, 6]]),
                                        mode, 12, rng)
        assert batch.shape == (2, 12)
        assert syncs == [(2, t) for t in range(2, 12)]
        assert actions_.shape == (2, 10)


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def test_one_decode_loop():
    """Exactly one loop in the package steps a generator through
    `.next_tokens(`, so a second generation path cannot come back
    unnoticed."""
    loops = []
    for path in sorted(pathlib.Path(actlm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, LOOPS) and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "next_tokens" for n in ast.walk(node)):
                loops.append(path.name)
    assert loops == ["actions.py"], loops


def test_decoder_rejects_bad_shapes():
    dec = Decoder(init_model(DCFG, 0))
    for bad in (np.zeros((2, 0), int), np.zeros(3, int)):
        with pytest.raises(ValueError):
            dec.sync(bad)


@pytest.mark.parametrize("mode", ["greedy", "sample"])
def test_nan_policy_fails_by_name_in_both_rollout_paths(mode):
    """A NaN policy head raises where the decoder stores the policy's
    output, in rollout_batch and in search.rollout alike, instead of
    decoding as action 0."""
    state = init_model(DCFG, 0)
    state.groups["policy"]["head"].data[...] = np.nan
    prompts = np.array([[3, 5, 7], [4, 6, 8]])
    rng = np.random.default_rng(0)
    match = "non-finite policy probabilities at position 0"
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError, match=match):
            rollout_batch(state, prompts, mode, 10, rng)
        with pytest.raises(FloatingPointError, match=match):
            rollout(LatentActionLM(state), prompts[0], mode, 10, rng)


def test_decoder_names_first_nonfinite_position_and_recovers():
    """NaN from one token's embedding names its position; the decoder then
    holds only the prefix before it, so syncing to other tokens matches a
    fresh decoder."""
    state = init_model(DCFG, 0)
    state.groups["base"]["tok_emb"].data[9] = np.nan
    dec = Decoder(state)
    dec.sync([[3, 5, 7]])
    with np.errstate(invalid="ignore"), \
            pytest.raises(FloatingPointError, match="at position 2"):
        dec.sync([[3, 5, 9, 7]])
    dec.sync([[3, 5, 7, 4]])
    fresh = Decoder(state)
    fresh.sync([[3, 5, 7, 4]])
    np.testing.assert_array_equal(dec.policy_probs(), fresh.policy_probs())


def reference_greedy(state, prompts, max_len):
    """The uncached greedy loop: a full-prefix forward at every step."""
    cfg, groups = state.cfg, state.groups
    codes = groups["codebook"]["codes"].data
    tokens = np.asarray(prompts).copy()
    done = tokens[:, -1] == cfg.eos_token_id
    while tokens.shape[1] < max_len and not done.all():
        e_l = base_forward(groups["base"], cfg, tokens)
        act = policy_forward(groups["policy"], cfg, e_l).data[:, -1].argmax(-1)
        logits = world_logits(groups["merge"], cfg, Tensor(e_l.data[:, -1:]),
                              Tensor(codes[act][:, None, :]))
        nxt = np.where(done, cfg.eos_token_id, logits.data[:, -1].argmax(-1))
        tokens = np.concatenate([tokens, nxt[:, None]], axis=1)
        done |= nxt == cfg.eos_token_id
    return tokens


@pytest.mark.parametrize("seed", range(8))
def test_greedy_decoding_matches_uncached_reference(seed):
    """Greedy tokens of search.rollout (one adapter switching between
    prompts) and rollout_batch equal the full-prefix loop's."""
    state = init_model(DCFG, seed)
    rng = np.random.default_rng(seed)
    prompts = rng.integers(1, DCFG.vocab_size, size=(3, int(rng.integers(1, 8))))
    prompts[1, :-1] = prompts[0, :-1]  # shares all but the last token
    expected = reference_greedy(state, prompts, DCFG.max_seq_len)
    batch, _ = rollout_batch(state, prompts, "greedy", DCFG.max_seq_len)
    np.testing.assert_array_equal(batch, expected)
    lm = LatentActionLM(state)
    for prompt, row in zip(prompts, expected):
        tokens, _ = rollout(lm, prompt, "greedy", DCFG.max_seq_len)
        ends = np.flatnonzero(row[len(prompt):] == DCFG.eos_token_id)
        length = len(row) if not ends.size else len(prompt) + ends[0] + 1
        np.testing.assert_array_equal(tokens, row[:length])


def count_base_tokens(monkeypatch) -> list[int]:
    """Record the batch size times width of every cached base forward."""
    from actlm import actions
    real, counts = actions.base_forward, []

    def counting(p, cfg, tokens, cache=None):
        counts.append(np.asarray(tokens).size)
        return real(p, cfg, tokens, cache)

    monkeypatch.setattr(actions, "base_forward", counting)
    return counts


def test_decoder_fork_encodes_only_the_unshared_suffix(monkeypatch):
    """Going from 1 row to n and back, a sync encodes only the positions
    after the longest prefix all new rows share with one held row, and the
    forked caches give what a fresh decoder gives within the rounding-error
    bound."""
    counts = count_base_tokens(monkeypatch)
    state = init_model(DCFG, 0)
    dec = Decoder(state)
    dec.sync([[1, 2, 3, 4, 5]])
    assert counts == [5]
    fork = np.array([[1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 8, 9],
                     [1, 2, 3, 4, 5, 6, 2]])
    dec.sync(fork)  # one held row, 5 shared tokens: 3 rows x 2 new ones
    assert counts == [5, 6]
    dec.sync(fork[2:])  # back to one row: held row 2 is it, nothing to encode
    assert counts == [5, 6]
    dec.sync([[1, 2, 3, 4, 5, 6, 2, 7]])
    assert counts == [5, 6, 1]
    pair = np.array([[1, 2, 3, 4, 5, 8, 1], [1, 2, 3, 9, 9, 9, 9]])
    dec.sync(pair)  # the rows share [1, 2, 3] with the held row
    assert counts == [5, 6, 1, 8]
    for rows in (fork, pair):
        dec.sync(rows)
        probs, bound = probs_bound(state, rows)
        assert (np.abs(dec.probs[:, :rows.shape[1]] - probs) <= bound).all()


@pytest.mark.parametrize("seed", range(8))
def test_forked_greedy_decoding_matches_uncached_reference(seed):
    """One LatentActionLM that holds a prefix, forks into rows continuing it
    and then goes back to each row alone decodes the full-prefix loop's
    greedy tokens throughout."""
    state = init_model(DCFG, seed)
    rng = np.random.default_rng(seed)
    prefix = rng.integers(1, DCFG.vocab_size, size=int(rng.integers(1, 8)))
    prompts = np.concatenate([np.repeat(prefix[None], 3, 0),
                              rng.integers(1, DCFG.vocab_size, size=(3, 2))], 1)
    expected = reference_greedy(state, prompts, DCFG.max_seq_len)
    lm = LatentActionLM(state)
    rollout(lm, prefix, "greedy", len(prefix) + 2)
    batch, _ = generate(lm, prompts, "greedy", DCFG.max_seq_len)
    np.testing.assert_array_equal(batch, expected)
    for prompt, row in zip(prompts, expected):
        tokens, _ = rollout(lm, prompt, "greedy", DCFG.max_seq_len)
        ends = np.flatnonzero(row[len(prompt):] == DCFG.eos_token_id)
        length = len(row) if not ends.size else len(prompt) + ends[0] + 1
        np.testing.assert_array_equal(tokens, row[:length])


def test_row_ends():
    """A row ends after its first eos at or after the prompt's last column:
    at p when the prompt ends in eos, at j + 1 for an eos generated at
    column j, and at the last column without one."""
    tokens = np.array([[3, 0, 0, 0, 0],    # prompt ends in eos
                       [3, 5, 7, 0, 0],    # eos generated at column 3
                       [0, 5, 7, 8, 6]])   # an eos before p - 1 does not count
    np.testing.assert_array_equal(row_ends(tokens, 2, 0), [2, 4, 5])


def test_rollout_returns_eos_terminated_prompt_unchanged():
    """A prompt ending in eos is finished: greedy rollout returns it as is,
    and rollout_batch starts its row done, padding it with eos and action
    0 while the other rows generate."""
    tokens, actions = rollout(ChainLM(), [1, 0], "greedy", 20)
    assert tokens.tolist() == [1, 0] and actions.size == 0
    state = init_model(DCFG, 0)
    lm = LatentActionLM(state)
    prompts = np.array([[3, 5, 0], [3, 5, 7]])
    tokens, actions = rollout(lm, prompts[0], "greedy", 10)
    assert tokens.tolist() == prompts[0].tolist() and actions.size == 0
    batch, batch_actions = rollout_batch(state, prompts, "greedy", 10)
    assert (batch[0, 3:] == DCFG.eos_token_id).all()
    assert (batch_actions[0] == 0).all()
    expected, _ = rollout(lm, prompts[1], "greedy", 10)
    np.testing.assert_array_equal(batch[1, :len(expected)], expected)
    both_done, none = rollout_batch(state, prompts[:1].repeat(2, 0), "greedy", 10)
    np.testing.assert_array_equal(both_done, prompts[:1].repeat(2, 0))
    assert none.shape == (2, 0)


# ---------------------------------------------------------------------------
# The decode loop on rows of different lengths
# ---------------------------------------------------------------------------

def reference_generate(dec, tokens, mode, max_len, rng=None):
    """The decode loop as it was before rows of different lengths could
    join: every row of tokens (B, p) starts at once, and each step appends
    one column. Kept as the reference equal-length calls are checked
    against."""
    eos = dec.eos_token_id
    b = tokens.shape[0]
    actions = np.zeros((b, 0), dtype=np.int64)
    done = tokens[:, -1] == eos
    while tokens.shape[1] < max_len and not done.all():
        dec.sync(tokens)
        probs = dec.policy_probs()
        if mode == "greedy":
            act = probs.argmax(axis=-1)
        else:
            act = inverse_cdf(cdf(probs), rng.random(b))
        nxt = np.where(done, eos, dec.next_tokens(act))
        act = np.where(done, 0, act)
        tokens = np.concatenate([tokens, nxt[:, None]], axis=1)
        actions = np.concatenate([actions, act[:, None]], axis=1)
        done |= nxt == eos
    return tokens, actions


@pytest.mark.parametrize("seed", range(6))
def test_equal_length_generate_matches_the_reference_loop(seed):
    """On rows of one length, generate returns bitwise the tokens and
    actions of the reference loop and leaves the rng in the same state,
    greedy and sampled, for the cached Decoder and for StickyLM, with one
    row ending in eos."""
    r = np.random.default_rng(seed)
    prompts = r.integers(1, 5, size=(int(r.integers(1, 6)), int(r.integers(1, 6))))
    prompts[0, -1] = 0
    state = init_model(DCFG, seed)
    max_len = int(r.integers(prompts.shape[1], DCFG.max_seq_len + 1))
    for mode in ("greedy", "sample"):
        for make in (lambda: Decoder(state), StickyLM):
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            got = generate(make(), prompts, mode, max_len, rngs[0])
            want = reference_generate(make(), prompts.copy(), mode, max_len,
                                      rngs[1])
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert rngs[0].random() == rngs[1].random()


class HistoryLM:
    """Deterministic generator speaking the Decoder contract whose greedy
    action depends on each row's whole history: the policy favours action
    (sum of the row's tokens) % 3, and action a after token t emits
    (t + a + 1) % 6, 0 being eos."""

    eos_token_id, n_actions = 0, 3

    def sync(self, tokens):
        self.tokens = np.asarray(tokens)

    def policy_probs(self):
        probs = np.full((len(self.tokens), self.n_actions), 0.2)
        probs[np.arange(len(self.tokens)), self.tokens.sum(axis=1) % 3] = 0.6
        return probs

    def next_tokens(self, actions):
        return (self.tokens[:, -1] + np.asarray(actions) + 1) % 6


def test_mixed_length_greedy_rows_decode_as_if_alone():
    """Rows of different lengths decoded in one greedy call get what each
    gets alone, in the order given, with eos and action 0 after their end;
    a row ending in eos or already at max_len joins as done and comes back
    unchanged."""
    max_len = 9
    rows = [[1, 2, 3], [4], [2, 2], [5, 1, 1, 1], [3, 0], [1] * max_len,
            [4, 4, 4, 4, 4, 4, 4, 4]]
    tokens, actions = generate(HistoryLM(), rows, "greedy", max_len)
    assert tokens.shape == (len(rows), max_len)
    assert actions.shape == (len(rows), max_len - 1)
    p = min(map(len, rows))
    for row, got, acts in zip(rows, tokens, actions):
        alone, alone_actions = generate(HistoryLM(), [row], "greedy", max_len)
        end = alone.shape[1]
        np.testing.assert_array_equal(got[:end], alone[0])
        assert (got[end:] == 0).all()
        start = len(row) - p
        np.testing.assert_array_equal(acts[start:end - p], alone_actions[0])
        assert not acts[:start].any() and not acts[end - p:].any()
    for i in (4, 5):
        assert tokens[i, :len(rows[i])].tolist() == rows[i]
        assert not actions[i].any()
    assert row_ends(tokens, [len(row) for row in rows], 0)[4:6].tolist() \
        == [2, max_len]


class CountingRng:
    """A numpy Generator's `random` that records the size of each draw."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


def test_generate_draws_once_per_step_and_jumps_past_finished_rows(
        monkeypatch):
    """Each step syncs the rows in the batch once and draws one
    rng.random(b) over them; a longer row joins when the batch reaches its
    length, and once every row in the batch is done the batch jumps to the
    next waiting length without a step."""
    syncs, real = [], ChainLM.sync

    def recording(self, tokens):
        syncs.append(np.shape(tokens))
        return real(self, tokens)

    monkeypatch.setattr(ChainLM, "sync", recording)
    cases = [  # rows, episode_len, max_len, syncs
        ([[1, 2], [1, 3], [1, 2, 4, 4]], 50, 6, [(2, 2), (2, 3), (3, 4), (3, 5)]),
        ([[1, 0], [1, 2, 4, 4, 4]], 50, 8, [(2, 5), (2, 6), (2, 7)]),
        ([[1], [1, 2, 4, 4, 4, 4, 4]], 4, 10, [(1, 1), (1, 2), (1, 3), (2, 7)]),
        ([[1, 0], [2, 0, 0]], 50, 8, []),
    ]
    for rows, episode_len, max_len, expected in cases:
        syncs.clear()
        rng = CountingRng(0)
        tokens, _ = generate(ChainLM(episode_len=episode_len), rows, "sample",
                             max_len, rng)
        assert syncs == expected
        assert rng.sizes == [b for b, _ in expected]
        for row, got in zip(rows, tokens):
            assert got[:len(row)].tolist() == row
