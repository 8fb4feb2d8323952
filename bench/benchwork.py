"""The three benchmark workloads, driven through actlm's public functions.

Each workload has a set-up (the preamble every `actlm` subcommand pays) and
a pass (one closed-loop unit of work). No two set-ups, passes or search ops
of a run get the same inputs (see `Workload`), yet the same seed always
gives the same inputs. Config comes from `runconfig.load_run_config` with CLI-style
overrides, so CLI defaults reach the benchmark from one source. Every call
goes through a module attribute (`training.train_bc`, not `train_bc`) so the
tracer can wrap it.

A pass never raises: each operation runs inside `Ledger.op`, which counts an
exception or a failed correctness check as a failed op and carries on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import time
import traceback

import numpy as np

from actlm import checkpoint, data, diagnostics, model, runconfig, search, \
    training

# Prompt lengths of the search64 prompt set, spread over 4-32.
SEARCH_PROMPT_LENS = (4, 13, 22, 31)

TRAIN16_BASE = ("--hmm_seq_len", "16", "--max_seq_len", "16",
                "--learning_rate", "3e-3")
# README chain with fewer steps; each stage gets its own config, as each
# subcommand does.
TRAIN16_STAGES = {
    "pretrain": ("--steps", "24"),
    "stage1": ("--steps", "24"),
    "bc": ("--steps", "24"),
    "fta": ("--steps", "12"),
    "rl": ("--rl_updates", "6"),
    "dqn": ("--steps", "12", "--q_responses_per_prompt", "2"),
}

# The k-th seed a workload draws is seed + SEED_STRIDE * k.
SEED_STRIDE = 1000003

# Appended last (so they win) by the benchmark's own smoke test.
TINY = ("--hmm_train_count", "32", "--hmm_val_count", "16", "--steps", "2",
        "--rl_updates", "1", "--q_responses_per_prompt", "1",
        "--iterations", "2", "--eval_contexts", "4")


class Op:
    def __init__(self):
        self.problems: list[str] = []

    def check(self, ok, what: str) -> None:
        if not ok:
            self.problems.append(what)


class Ledger:
    """Attempted and failed operation counts of one run. `between` runs
    before every op, outside the op's own timing."""

    def __init__(self, between=lambda: None):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.between = between

    @contextlib.contextmanager
    def op(self, name: str):
        self.between()
        op = Op()
        self.attempted += 1
        try:
            yield op
        except Exception as e:  # a failed op is counted, not fatal
            last = traceback.extract_tb(e.__traceback__)[-1]
            op.problems.append(f"{type(e).__name__}: {e} "
                               f"({os.path.basename(last.filename)}:"
                               f"{last.lineno})")
        if op.problems:
            self.failed += 1
            self.errors.append(f"{name}: {'; '.join(op.problems)}")


class PassRecord:
    """Work and timings of one pass. Every pass of a run does the same
    amount of work on its own inputs, so a timing key holds the same number
    of samples in every pass and a phase's time can be estimated from
    per-key medians over many passes.

    A phase that reports no tokens is left out of tokens_per_s: the RL and
    DQN stages, whose work depends on where the trained weights emit eos
    and so differs between seeds by up to 15x."""

    def __init__(self):
        self.work: dict[str, list[float]] = {}   # phase -> [units, tokens]
        # (phase, part) -> [(seconds, perf_counter at the end), ...]
        self.times: dict[tuple, list[tuple[float, float]]] = {}
        self.fingerprint = ""

    def add(self, phase: str, units: float, tokens: float | None = None):
        acc = self.work.setdefault(phase, [0.0, 0.0])
        acc[0] += units
        acc[1] += units if tokens is None else tokens

    def time(self, phase: str, part, seconds: float, end=None) -> None:
        self.times.setdefault((phase, part), []).append(
            (seconds, time.perf_counter() if end is None else end))


class StepLog:
    """metrics_cb for the training stages. It times every step from the
    previous callback of the same part (the record's stage name) and checks
    that every logged number is finite. The time from the stage's start to
    its first callback, from one part to the next and after the last
    callback is the stage's `rest`: set-up such as hashing frozen groups,
    the first step of each part, evaluation and checks. The steps and the
    rest add up to the stage's wall time."""

    def __init__(self, op: Op, start: float):
        self.op = op
        self.steps: dict[str, list[tuple[float, float]]] = {}
        self.rest = 0.0
        self._last = start
        self._part = None

    def __call__(self, record: dict) -> None:
        now = time.perf_counter()
        part = record.get("stage", "")
        if part == self._part:
            self.steps.setdefault(part, []).append((now - self._last, now))
        else:
            self.rest += now - self._last
            self._part = part
        self._last = now
        bad = [k for k, v in record.items()
               if isinstance(v, float) and not np.isfinite(v)]
        self.op.check(not bad, f"non-finite {bad} at step {record.get('step')}")

    def close(self, end: float) -> None:
        self.rest += end - self._last


def config(workload_args, seed: int, extra=()) -> runconfig.RunConfig:
    overrides = [*workload_args, "--seed", str(seed), "--hmm_seed", str(seed),
                 *extra]
    return runconfig.load_run_config(None, overrides)


def corpora(cfg: runconfig.RunConfig):
    """Train/val hidden-Markov corpora and val oracle states, as the CLI
    builds them."""
    hc = data.HmmCorpusConfig(
        n_states=cfg.hmm_states, vocab_size=cfg.vocab_size,
        transition_concentration=cfg.hmm_transition_conc,
        emission_concentration=cfg.hmm_emission_conc,
        seq_len=cfg.hmm_seq_len,
        n_sequences=cfg.hmm_train_count + cfg.hmm_val_count,
        seed=cfg.hmm_seed)
    tokens, states = data.gen_hmm_corpus(hc)
    n = cfg.hmm_train_count
    return tokens[:n], tokens[n:], states[n:]


def untrained(cfg: runconfig.RunConfig, seed: int) -> model.ModelState:
    """init_model(seed) with the eos column of the world model's output head
    set to zero.

    Untrained weights often emit eos within a few tokens, so decode work
    would differ between seeds by orders of magnitude. With the column at
    zero the eos logit is 0, and eos wins only where every other logit is
    negative, which almost never happens; so rollouts and simulations run
    to max_len on every seed. The compute per token does not depend on the
    weight values."""
    state = model.init_model(cfg.arch(), seed)
    state.groups["merge"]["lm_head"].data[:, cfg.eos_token_id] = 0.0
    return state


def marker_for(cfg, lm, prompt) -> int:
    """The CLI's reward token: configured, or the first non-eos token some
    action greedily produces from the prompt."""
    if cfg.rl_marker_token >= 0:
        return cfg.rl_marker_token
    for action in range(lm.n_actions):
        token = lm.next_token(prompt, action)
        if token != lm.eos_token_id:
            return token
    return lm.next_token(prompt, 0)


def roundtrip(op: Op, state, path: str, stage: str, step: int):
    """save_checkpoint then load_checkpoint; every group hash must survive."""
    before = state.hashes()
    checkpoint.save_checkpoint(state, path, stage, step)
    loaded, _ = checkpoint.load_checkpoint(path)
    op.check(loaded.hashes() == before, "checkpoint round trip changed a hash")
    return loaded


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes)
                 else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def check_tokens(op: Op, tokens, prompt, cfg) -> None:
    tokens = np.asarray(tokens)
    op.check(len(tokens) <= cfg.search_max_len, "output longer than max_len")
    op.check(tokens.size == 0 or (tokens.min() >= 0
                                  and tokens.max() < cfg.vocab_size),
             "output token outside the vocabulary")
    op.check(np.array_equal(tokens[:len(prompt)], prompt),
             "output does not start with its prompt")


# ---------------------------------------------------------------------------
# train16
# ---------------------------------------------------------------------------

class Workload:
    """Every set-up and every pass draws fresh seeds for its corpus and
    weights, so no two set-ups, passes or search ops of a run repeat their
    inputs. A cache that outlives a call, which one CLI invocation would
    never hit again, gets no hits here either. The draws come in a fixed
    order, so the same seed gives the same inputs."""

    def __init__(self, seed: int, work_dir: str, extra=()):
        self.seed, self.work_dir, self.extra = seed, work_dir, tuple(extra)
        self._draws = 0

    def next_seed(self) -> int:
        self._draws += 1
        return self.seed + SEED_STRIDE * (self._draws - 1)


class Train16(Workload):
    name = "train16"
    calibration = (16, 16, 32, 4)  # a training batch, B16xT16

    def setup(self, ledger: Ledger):
        seed = self.next_seed()
        cfgs = {stage: config(TRAIN16_BASE + args, seed, self.extra)
                for stage, args in TRAIN16_STAGES.items()}
        base = cfgs["pretrain"]
        train, val, _ = corpora(base)
        # the preamble's init_model; every pass starts from its own
        model.init_model(base.arch(), seed)
        return {"cfgs": cfgs, "train": train, "val": val,
                "examples": data.make_sft_split(train, base.prompt_len)}

    def _ckpt(self, ledger, state, stage, step):
        with ledger.op(f"checkpoint:{stage}") as op:
            state = roundtrip(op, state,
                              os.path.join(self.work_dir, f"{stage}.ckpt"),
                              stage, step)
        return state

    def _stage(self, ledger, rec, stage, units, run, tokens=None,
               check=None):
        """Time one training stage; `run(cb)` calls it with a StepLog and
        `check(op, result)` checks what it returned."""
        with ledger.op(stage) as op:
            log = StepLog(op, time.perf_counter())
            out = run(log)
            log.close(time.perf_counter())
            rec.add(stage, units, tokens)
            for part, steps in log.steps.items():
                for seconds, end in steps:
                    rec.time(stage, part, seconds, end)
            rec.time(stage, "rest", log.rest)
            if check is not None:
                check(op, out)

    def run_pass(self, ctx, ledger: Ledger) -> PassRecord:
        """The stage chain from weights and batch order of its own."""
        seed = self.next_seed()
        cfgs = {stage: dataclasses.replace(c, seed=seed)
                for stage, c in ctx["cfgs"].items()}
        train, val = ctx["train"], ctx["val"]
        rec = PassRecord()
        c = cfgs["pretrain"]
        bt = c.batch_size * c.hmm_seq_len
        state = model.init_model(c.arch(), c.seed)

        self._stage(ledger, rec, "pretrain", c.steps * bt,
                    lambda cb: training.pretrain_base_ar(
                        state, train, val, c.train(), cb),
                    check=lambda op, ce: op.check(np.isfinite(ce),
                                                  f"val CE {ce}"))
        state = self._ckpt(ledger, state, "pretrain-base", c.steps)

        c = cfgs["stage1"]
        self._stage(ledger, rec, "stage1", c.steps * bt,
                    lambda cb: training.train_stage1(
                        state, train, c.train(), c.assignment, cb))
        state = self._ckpt(ledger, state, "stage1", c.steps)

        c = cfgs["bc"]
        self._stage(ledger, rec, "bc", c.steps * bt,
                    lambda cb: training.train_bc(state, train, c.train(),
                                                 metrics_cb=cb))
        state = self._ckpt(ledger, state, "bc-policy", c.steps)

        c = cfgs["fta"]
        # FTA-I runs `steps` fine-tuning steps and `steps` refresh steps
        self._stage(ledger, rec, "fta", 2 * c.steps * bt,
                    lambda cb: training.train_fta(
                        state, ctx["examples"], c.train(), c.sft_type, cb))
        state = self._ckpt(ledger, state, f"fta-{c.sft_type}", c.steps)

        c = cfgs["rl"]
        prompts = val[:c.rl_prompt_count, :c.prompt_len]
        marker = marker_for(c, search.LatentActionLM(state), prompts[0])
        self._stage(ledger, rec, "rl", c.rl_updates,
                    lambda cb: training.train_rl(
                        state, prompts,
                        lambda r: data.marker_reward(r, marker), c.train(),
                        c.rl_max_len, c.rl_updates, cb),
                    tokens=0,
                    check=lambda op, trace: op.check(
                        np.all(np.isfinite(trace)), "non-finite RL reward"))
        state = self._ckpt(ledger, state, "rl", c.rl_updates)

        c = cfgs["dqn"]
        transitions = None
        with ledger.op("dqn:collect"):
            transitions = self._transitions(c, state, val)
        if transitions is not None:
            self._stage(ledger, rec, "dqn", c.steps,
                        lambda cb: training.train_q(state, transitions,
                                                    c.train(), cb),
                        tokens=0)
        state = self._ckpt(ledger, state, "train-q", c.steps)
        rec.fingerprint = digest(state.hashes())
        return rec

    @staticmethod
    def _transitions(c, state, val):
        """Replay set for train-q, collected as the CLI collects it."""
        prompts = val[:c.rl_prompt_count, :c.prompt_len]
        lm = search.LatentActionLM(state)
        marker = marker_for(c, lm, prompts[0])
        rng = np.random.default_rng(c.seed)
        transitions = []
        for prompt in prompts:
            for _ in range(c.q_responses_per_prompt):
                tokens, actions = search.rollout(lm, prompt, "sample",
                                                 c.rl_max_len, rng)
                reward = data.marker_reward(tokens[len(prompt):], marker)
                for s, action in enumerate(actions):
                    last = s == len(actions) - 1
                    transitions.append(training.Transition(
                        context=tokens[:len(prompt) + s].copy(),
                        action=int(action),
                        next_context=tokens[:len(prompt) + s + 1].copy(),
                        reward=reward if last else 0.0, terminal=last))
        if not transitions:
            raise RuntimeError("no transitions collected")
        return transitions


# ---------------------------------------------------------------------------
# search64 and eval64
# ---------------------------------------------------------------------------

def choose_prompts(val: np.ndarray, lengths, eos: int) -> list[np.ndarray]:
    """One val-split prefix per length, each from its own row. A prefix
    ending in eos is a finished sequence with nothing to generate, so rows
    whose prefix ends there are skipped."""
    prompts, row = [], 0
    for length in lengths:
        while val[row, length - 1] == eos:
            row += 1
        prompts.append(val[row, :length].copy())
        row += 1
    return prompts


class DecodeWorkload(Workload):
    """Shared set-up of search64 and eval64: CLI-default corpus, the val
    prompt set, and untrained weights round-tripped through a checkpoint.
    Untrained weights keep the timing independent of training numerics."""

    def _weights(self, ledger: Ledger, cfg) -> model.ModelState:
        """Fresh untrained weights, loaded from a checkpoint as every CLI
        command loads its input."""
        state = untrained(cfg, self.next_seed())
        with ledger.op("checkpoint:init") as op:
            state = roundtrip(op, state,
                              os.path.join(self.work_dir, "init.ckpt"),
                              "init", 0)
        return state

    def _preamble(self, ledger: Ledger):
        cfg = config((), self.next_seed(), self.extra)
        _, val, states = corpora(cfg)
        prompts = choose_prompts(val, SEARCH_PROMPT_LENS, cfg.eos_token_id)
        return cfg, val, states, self._weights(ledger, cfg), prompts


def tree_tokens(root) -> int:
    """Tokens decoded by a search: expansion and simulation, every node."""
    tokens, stack = 0, [root]
    while stack:
        node = stack.pop()
        tokens += node.expansion_tokens + (0 if node.sim_tokens is None
                                           else len(node.sim_tokens))
        stack.extend(node.children.values())
    return tokens


class Search64(DecodeWorkload):
    name = "search64"
    calibration = (1, 32, 32, 16)  # B=1 decode: tiny, dispatch-bound arrays

    def setup(self, ledger: Ledger):
        cfg, _, _, state, prompts = self._preamble(ledger)
        # the preamble's marker choice; each search op chooses again on the
        # weights of its own
        lm = search.LatentActionLM(state)
        for prompt in prompts:
            marker_for(cfg, lm, prompt)
        return {"cfg": cfg, "prompts": prompts}

    def run_pass(self, ctx, ledger: Ledger) -> PassRecord:
        """Each op gets its own weights and LatentActionLM, as each CLI
        command loads its own."""
        cfg = ctx["cfg"]
        scfg = cfg.search()
        trace_path = os.path.join(self.work_dir, "search_trace.jsonl")
        rec = PassRecord()
        outputs = []
        for i, prompt in enumerate(ctx["prompts"]):
            state = self._weights(ledger, cfg)
            with ledger.op("rollout") as op:
                t0 = time.perf_counter()
                tokens, _ = search.rollout(search.LatentActionLM(state),
                                           prompt, cfg.rollout_mode,
                                           cfg.search_max_len)
                rec.time("decode", i, time.perf_counter() - t0)
                rec.add("decode", len(tokens) - len(prompt))
                check_tokens(op, tokens, prompt, cfg)
                outputs.append(tokens.tolist())
            if i == 0:
                with ledger.op("rollout_batch-agreement") as op:
                    batch, _ = training.rollout_batch(
                        state, prompt[None, :], "greedy", cfg.search_max_len)
                    op.check(np.array_equal(batch[0], tokens),
                             "greedy rollout_batch differs from rollout")
            for phase in ("mcts", "mcts_q"):
                state = self._weights(ledger, cfg)
                with ledger.op(phase) as op:
                    lm = search.LatentActionLM(state)
                    marker = marker_for(cfg, lm, prompt)

                    def reward_fn(response, marker=marker):
                        return data.marker_reward(response, marker)

                    q_fn = training.q_values_fn(state, "q_online") \
                        if phase == "mcts_q" else None
                    t0 = time.perf_counter()
                    result = search.mcts_search(lm, prompt, scfg, reward_fn,
                                                q_fn=q_fn, gamma=cfg.gamma,
                                                trace_path=trace_path)
                    rec.time(phase, i, time.perf_counter() - t0)
                    rec.add(phase, result.iterations, tree_tokens(result.root))
                    search.audit_tree(result.root)
                    check_tokens(op, result.tokens, prompt, cfg)
                    op.check(result.iterations >= 1, "no search iteration")
                    outputs.append(result.tokens.tolist())
        rec.fingerprint = digest(outputs)
        return rec


class Eval64(DecodeWorkload):
    name = "eval64"
    calibration = (16, 16, 32, 4)

    def setup(self, ledger: Ledger):
        cfg, val, states, _, _ = self._preamble(ledger)
        return {"cfg": cfg, "val": val, "states": states,
                "contexts": val[:cfg.eval_contexts, :cfg.prompt_len]}

    def run_pass(self, ctx, ledger: Ledger) -> PassRecord:
        """cmd_eval's report on fresh weights, artifacts included, one
        timing per part."""
        cfg, val = ctx["cfg"], ctx["val"]
        state = self._weights(ledger, cfg)
        rec = PassRecord()

        def timed(part, fn, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            rec.time("eval", part, time.perf_counter() - t0)
            return out

        with ledger.op("eval") as op:
            rng = np.random.default_rng(cfg.seed)
            table = timed("table", diagnostics.action_token_table, state,
                          val, gumbel_temp=cfg.gumbel_temp)
            timed("tsv", diagnostics.write_action_token_tsv,
                  os.path.join(self.work_dir, "action_tokens.tsv"), table)
            labels = timed("labels", training.inverse_action_labels, state,
                           val, cfg.gumbel_temp)
            joint = np.zeros((cfg.codebook_size, cfg.hmm_states),
                             dtype=np.int64)
            np.add.at(joint, (labels.reshape(-1),
                              ctx["states"][:, 1:].reshape(-1)), 1)
            report = {
                "val_ce_with_actions": timed(
                    "val_with_actions", diagnostics.val_loss, state, val,
                    "with_actions", gumbel_temp=cfg.gumbel_temp),
                "val_ce_base_ar": timed("val_base_ar", diagnostics.val_loss,
                                        state, val, "base_ar"),
                "marginal_kl": timed("marginal_kl", diagnostics.marginal_kl,
                                     state, ctx["contexts"]),
                "semantic_diversity": timed(
                    "diversity", diagnostics.semantic_diversity, state,
                    val[:4, :cfg.prefix_len], cfg.diversity(), rng,
                    max_len=cfg.search_max_len),
                "alive_actions": diagnostics.alive_actions(table.sum(axis=1)),
                "action_state_nmi":
                    diagnostics.normalized_mutual_information(joint),
            }
            with open(os.path.join(self.work_dir, "eval.json"), "w") as f:
                timed("json", json.dump, report, f, indent=2, sort_keys=True)
            rec.add("eval", val.size)
            positions = val.shape[0] * (val.shape[1] - 1)
            op.check(int(table.sum()) == positions,
                     f"action/token table holds {table.sum()} of "
                     f"{positions} positions")
            op.check(report["marginal_kl"] >= 0, "marginal_kl < 0")
            op.check(0.0 <= report["action_state_nmi"] <= 1.0,
                     "NMI outside [0, 1]")
            op.check(all(np.isfinite(v) for v in report.values()),
                     "non-finite eval figure")
            rec.fingerprint = digest(report, table.tobytes())
        return rec


WORKLOADS = {w.name: w for w in (Train16, Search64, Eval64)}


PROBE_REPS = 15


def probes(seed: int, extra=()) -> dict[str, float]:
    """Fixed-shape, forward-only probes at the CLI-default architecture, the
    same on every workload: base_forward at three shapes and greedy decode
    ms/token to three lengths."""
    cfg = config((), seed, extra)
    state = untrained(cfg, seed)
    rng = np.random.default_rng(seed)
    out = {}
    for b, t in ((16, 16), (16, 64), (1, 64)):
        tokens = rng.integers(0, cfg.vocab_size, size=(b, t))
        times = []
        for _ in range(PROBE_REPS + 1):
            t0 = time.perf_counter()
            model.base_forward(state.groups["base"], state.cfg, tokens)
            times.append(time.perf_counter() - t0)
        out[f"model.base_forward_ms.B{b}xT{t}"] = \
            float(np.median(times[1:])) * 1e3
    lm = search.LatentActionLM(state)
    prompt = rng.integers(1, cfg.vocab_size, size=4)
    for t in (16, 32, 64):
        per_token = []
        for _ in range(3):
            t0 = time.perf_counter()
            tokens, _ = search.rollout(lm, prompt, "greedy", t)
            dt = time.perf_counter() - t0
            per_token.append(dt / max(len(tokens) - len(prompt), 1))
        out[f"search.decode_ms_per_token.T{t}"] = \
            float(np.median(per_token)) * 1e3
    return out
