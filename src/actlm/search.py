"""Inference-time generation: greedy/stochastic rollout, latent-action MCTS
with multi-step action nodes, and Q-pruned MCTS.

Every path decodes through `actions.generate`, the one decode loop, and so
talks to the generator only through the Decoder contract: `sync(tokens)`,
`policy_probs()`, `next_tokens(actions)`, `eos_token_id` and `n_actions`.
A trained model (`LatentActionLM`) and hand-built test generators plug in
alike. MCTS decodes only where it expands the leaves that wait in one
batch: one `generate` call per state length for the new children's k-step
segments, Q-pruned extension of each leaf's first child, and one call for
all the children's playouts, in which rows of other lengths join the
running batch. A decoder's `sync` re-batches: each row continues the
held row it shares the longest prefix with.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .actions import Decoder, generate, row_ends
from .config import SearchConfig
from .data import Scorer
from .training import Transition, dqn_target


class LatentActionLM(Decoder):
    """Decoder over a trained model state whose cache persists across
    calls, so consecutive searches and rollouts on growing, branching,
    joining or reordered rows encode only past the prefixes they share
    with the held rows."""

    def next_token(self, tokens, action: int) -> int:
        """World-model argmax token after tokens (p,) under one action."""
        self.sync(np.asarray(tokens)[None])
        return int(self.next_tokens([action])[0])


def _is_terminal(model, tokens, max_len: int) -> bool:
    return len(tokens) >= max_len or (len(tokens) > 0 and tokens[-1] == model.eos_token_id)


def rollout(model, prompt, mode: str, max_len: int, rng=None):
    """Generate until eos or max_len; returns (tokens, actions) aligned so
    actions[s] produced tokens[len(prompt)+s]. A prompt that already ends
    in eos is returned unchanged."""
    tokens, actions = generate(model, np.asarray(prompt)[None], mode,
                               max_len, rng)
    return tokens[0], actions[0]


# ---------------------------------------------------------------------------
# Tree search
# ---------------------------------------------------------------------------

@dataclass
class MctsNode:
    """A search node. `pending` counts the leaves at or below this node that
    wait in the current expansion batch, WU-UCT's unobserved samples (Liu
    et al., "Watch the Unobserved", ICLR 2020): selection reads
    visits + pending, and every flush of the batch returns it to 0."""
    state: np.ndarray
    children: dict[tuple, "MctsNode"] = field(default_factory=dict)
    q_sum: float = 0.0
    visits: int = 0
    pending: int = 0
    sim_tokens: np.ndarray | None = None
    sim_value: float | None = None
    # incoming action (for Q pruning) and instrumentation
    last_action: int | None = None
    expansion_tokens: int = 0
    extension_passes: int = 0


def uct_score(child: MctsNode, parent: MctsNode, c_uct: float) -> float:
    """Q/N + c*sqrt(ln N_parent / N), each N counting visits plus pending
    leaves and Q/N the mean of the observed values; unvisited children
    score +inf."""
    parent_n = parent.visits + parent.pending
    if parent_n < 1:
        raise ValueError("parent must have been visited")
    if child.visits == 0:
        return math.inf
    return child.q_sum / child.visits + c_uct * math.sqrt(
        math.log(parent_n) / (child.visits + child.pending))


def _select_child(node: MctsNode, c_uct: float) -> tuple:
    """The key of the child with the highest UCT score."""
    best_key, best_score = None, -math.inf
    for key in sorted(node.children):  # sorted keys: ties go to lowest actions
        score = uct_score(node.children[key], node, c_uct)
        if score > best_score:
            best_key, best_score = key, score
    return best_key


def _select(root: MctsNode, c_uct: float) -> tuple[list, list]:
    """The path from root down to a leaf by UCT, and its keys."""
    node, path, path_keys = root, [root], []
    while node.children:
        key = _select_child(node, c_uct)
        node = node.children[key]
        path.append(node)
        path_keys.append(list(key))
    return path, path_keys


def bellman_error(transition: Transition, q_fn, gamma: float) -> float:
    """Squared residual against the Double-DQN target with the target network
    equal to the online network. q_fn maps a context to its action values
    at every position, (T, N); one call on the next context, which a
    Transition holds to be the context plus one token, gives the next
    context's values at position -1 and, the Q head being causal, the
    context's at -2."""
    q = q_fn(transition.next_context)
    y = dqn_target([transition.reward], [transition.terminal], q[-1:], q[-1:], gamma)
    return float((float(y[0]) - q[-2][transition.action]) ** 2)


@dataclass
class SearchResult:
    tokens: np.ndarray
    root: MctsNode
    iterations: int
    n_nodes: int
    scorer_failures: int


def _score(node: MctsNode, score: Scorer) -> float:
    """Score the node's stored playout, as sequential MCTS would simulate
    it, when selection first reaches the node."""
    node.sim_value = score(np.concatenate([node.state, node.sim_tokens]))
    return node.sim_value


def _expand(model, nodes: list[MctsNode], cfg: SearchConfig, rng,
            q_fn, gamma: float) -> list[int]:
    """Give every node up to expand_width children, each with a playout;
    the only place MCTS decodes. Returns each node's segment call's row
    count.

    1. Nodes of one state length share one sampled `generate` call of up
       to k steps on expand_width rows per node, in order of their first
       node.
       A row's actions, cut at its first eos, are a child's key and its
       tokens the child's state. Keys are deduplicated in row order. A
       non-terminal node gets at least one child.
    2. With q_fn not None, Q-pruned extension runs on each node's first
       child in order, up to the first child that is then terminal: the
       search stops once it scores that child, so no later one is scored.
    3. One sampled call decodes every row to the end, the longer rows
       joining as the batch reaches them: a row continues its segment, or
       the new state of its child if extension changed it, and the rest up
       to its first eos is that child's playout. A row whose key repeats an
       earlier one decodes too, and its playout is dropped."""
    w, groups, rows, children = cfg.expand_width, {}, [], []
    for node in nodes:
        groups.setdefault(len(node.state), []).append(node)
    for p, group in groups.items():
        states = np.repeat(np.stack([node.state for node in group]), w, axis=0)
        segments, actions = generate(model, states, "sample",
                                     min(cfg.max_len, p + cfg.action_steps), rng)
        ends = row_ends(segments, p, model.eos_token_id)
        for i, (row, acts, end) in enumerate(zip(segments, actions, ends)):
            node, child = group[i // w], None
            key = tuple(acts[:end - p].tolist())  # Python ints: keys go into the trace
            if key not in node.children:
                child = node.children[key] = MctsNode(
                    state=row[:end], last_action=key[-1], expansion_tokens=len(key))
            rows.append(row)
            children.append(child)
    if q_fn is not None:
        for node in nodes:
            child = next(iter(node.children.values()))
            _extend_low_uncertainty(model, child, cfg, q_fn, gamma)
            if _is_terminal(model, child.state, cfg.max_len):
                break  # the search stops once it scores this child
    rows = [child.state if child is not None and child.extension_passes else row
            for row, child in zip(rows, children)]
    full, _ = generate(model, rows, "sample", cfg.max_len, rng)
    starts = np.array([len(row) for row in rows])
    for child, row, start, end in zip(children, full, starts,
                                      row_ends(full, starts, model.eos_token_id)):
        if child is not None:
            child.sim_tokens = row[start:end]
    return [len(groups[len(node.state)]) * w for node in nodes]


def _extend_low_uncertainty(model, node: MctsNode, cfg: SearchConfig,
                            q_fn, gamma: float) -> None:
    """Q-pruned extension: while the node's incoming transition has Bellman
    error below the threshold, append k more greedy steps to the node (one
    merged node per search, growing in passes)."""
    while not _is_terminal(model, node.state, cfg.max_len):
        tr = Transition(context=node.state[:-1], action=int(node.last_action),
                        next_context=node.state, reward=0.0, terminal=False)
        if not bellman_error(tr, q_fn, gamma) < cfg.bellman_threshold:
            break
        states, actions = generate(
            model, node.state[None], "greedy",
            min(cfg.max_len, len(node.state) + cfg.action_steps))
        node.state = states[0]
        node.last_action = int(actions[0, -1])
        node.expansion_tokens += actions.shape[1]
        node.extension_passes += 1


def mcts_search(model, prompt, cfg: SearchConfig, reward_fn,
                q_fn=None, gamma: float = 0.99, trace_path=None) -> SearchResult:
    """Latent-action MCTS; with q_fn supplied, expansion applies Bellman-error
    pruning (the Q-pruned variant).

    Returns the state of the best-simulation node concatenated with its
    stored simulation. A reward_fn that raises or returns a non-finite value
    scores the simulation 0; the result and each trace record count such
    failures.

    Leaves that need an expansion are expanded in batches. A selected leaf
    that needs none (an unvisited child with its stored playout, or a
    terminal leaf while no leaf waits) is scored and backed up at once. A
    leaf that needs one waits in the batch and adds 1 to `pending` along
    its path, which steers later selections elsewhere. The batch is flushed
    when selection reaches a waiting leaf or a terminal leaf (that
    selection is then made again on the updated tree), or when the waiting
    leaves take up every remaining iteration. A flush expands all waiting
    leaves (`_expand`), returns every `pending` to 0 and finishes the
    leaves in selection order: take the first child, score its playout,
    back up. The search stops after it scores a terminal node; leaves
    expanded but not yet finished then keep their children unscored.

    Only `_expand` decodes: per flush one segment call per state length,
    the Q-pruned extension of each expanded leaf's first child, and one
    playout call for all new children, so no node draws a playout of its
    own; a terminal root gets an empty one. Each playout is scored when
    selection first reaches its child; a child never reached keeps
    sim_tokens and sim_value None. Each trace record's expand_rows is the
    row count of the segment call that expanded its leaf, or 0."""
    rng = np.random.default_rng(cfg.seed)
    root = MctsNode(state=np.asarray(prompt), sim_tokens=np.asarray(prompt)[:0])
    score = Scorer(reward_fn)
    trace = []

    def finish(path, path_keys, rows: int) -> bool:
        """Score and back up one selected leaf, or the first child of an
        expanded one; True if the scored node is terminal."""
        failures_before = score.failures
        node = path[-1]
        if rows:
            key, node = next(iter(node.children.items()))
            path.append(node)
            path_keys.append(list(key))
        value = _score(node, score)
        for n in path:
            n.visits += 1
            n.q_sum += value
        trace.append({"iteration": len(trace), "selected_path": path_keys,
                      "sim_value": value, "expand_rows": rows,
                      "scorer_failures": score.failures - failures_before})
        return _is_terminal(model, node.state, cfg.max_len)

    batch, done = [], False  # batch: (path, path_keys) of each waiting leaf
    while not done and len(trace) < cfg.iterations:
        path, path_keys = _select(root, cfg.c_uct)
        leaf = path[-1]
        terminal = _is_terminal(model, leaf.state, cfg.max_len)
        if not (leaf.pending or terminal and batch):
            if terminal or not (leaf.visits or leaf is root):  # no decode
                done = finish(path, path_keys, 0)
            else:
                batch.append((path, path_keys))
                for n in path:
                    n.pending += 1
            if not batch or len(batch) < cfg.iterations - len(trace):
                continue
        # flush; a selection that reached a waiting or terminal leaf is
        # made again afterwards
        rows = _expand(model, [path[-1] for path, _ in batch], cfg, rng,
                       q_fn, gamma)
        for path, _ in batch:
            for n in path:
                n.pending = 0
        for (path, path_keys), n_rows in zip(batch, rows):
            done = finish(path, path_keys, n_rows)
            if done:
                break
        batch = []
    if trace_path is not None:
        with open(trace_path, "w") as f:
            for record in trace:
                f.write(json.dumps(record) + "\n")

    best, best_value = None, -math.inf
    stack = [root]
    n_nodes = 0
    while stack:
        n = stack.pop()
        n_nodes += 1
        if n.sim_value is None:
            n.sim_tokens = None  # a playout no sequential search would draw
        elif n.sim_value > best_value:
            best, best_value = n, n.sim_value
        stack.extend(n.children[k] for k in sorted(n.children, reverse=True))
    tokens = np.concatenate([best.state, best.sim_tokens])
    return SearchResult(tokens=tokens, root=root, iterations=len(trace),
                        n_nodes=n_nodes, scorer_failures=score.failures)


def audit_tree(root: MctsNode) -> None:
    """Raise if any structural invariant is violated anywhere in the tree,
    whose rewards lie in [0, 1]."""
    stack = [root]
    while stack:
        node = stack.pop()
        child_visits = sum(c.visits for c in node.children.values())
        if node.visits < child_visits:
            raise AssertionError("parent visit count below children's sum")
        if node.visits > 0:
            mean = node.q_sum / node.visits
            if not -1e-9 <= mean <= 1.0 + 1e-9:
                raise AssertionError("mean node value outside reward range")
        if node.q_sum > node.visits + 1e-9:
            raise AssertionError("value sum exceeds visits * max reward")
        if node.sim_value is not None and not -1e-9 <= node.sim_value <= 1.0 + 1e-9:
            raise AssertionError("simulation value outside reward range")
        if node.pending:
            raise AssertionError("pending leaf count left after the search")
        stack.extend(node.children.values())
