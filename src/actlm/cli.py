"""Command-line driver: one subcommand per training stage plus rollout,
search, and evaluation.

Usage: actlm <subcommand> [--config FILE] [--key value ...]

Every run is a pure function of (config, seed): metrics and checkpoints are
byte-identical across reruns on one platform. Input checkpoints are never
mutated; each stage writes a fresh file under out_dir."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ArchConfig
from .data import gen_hmm_corpus, make_sft_split, marker_reward, open_prefixes
from .diagnostics import (action_token_table, alive_actions, marginal_kl,
                          normalized_mutual_information, semantic_diversity,
                          val_loss, write_action_token_tsv)
from .metrics import MetricsWriter
from .model import init_model
from .runconfig import ConfigError, RunConfig, load_run_config
from .search import LatentActionLM, mcts_search, rollout
from .training import Transition, inverse_action_labels, q_values_fn, \
    train_bc, train_fta, train_q, train_rl, train_stage1, pretrain_base_ar

SUBCOMMANDS = ("pretrain-base", "pretrain-actions", "bc-policy", "fta", "rl",
               "train-q", "rollout", "search", "search-q", "eval")


def _out_dir(cfg: RunConfig) -> str:
    root = os.environ.get("ACTLM_OUT_ROOT", "")
    path = os.path.join(root, cfg.out_dir) if root and not os.path.isabs(cfg.out_dir) \
        else cfg.out_dir
    os.makedirs(path, exist_ok=True)
    return path


def _corpora(cfg: RunConfig):
    """Deterministic train/val hidden-Markov corpora (and oracle states)."""
    tokens, states = gen_hmm_corpus(cfg.corpus())
    n = cfg.hmm_train_count
    return tokens[:n], tokens[n:], states[n:]


def _load_input(cfg: RunConfig):
    """The input checkpoint. Commands read codebook_size and eos_token_id
    from its architecture (state.cfg), not from the run config."""
    if not cfg.init_checkpoint:
        raise ConfigError("this subcommand needs --init_checkpoint")
    state, _ = load_checkpoint(cfg.init_checkpoint)
    if cfg.vocab_size > state.cfg.vocab_size:
        raise ConfigError(f"corpus vocab_size {cfg.vocab_size} exceeds the "
                          f"checkpoint's vocab_size {state.cfg.vocab_size}")
    return state


def _check_max_len(cfg: RunConfig, state, key: str) -> None:
    """Refuse, by name, a generation or corpus length `key` beyond the
    positions the checkpoint's model holds."""
    value = getattr(cfg, key)
    if value > state.cfg.max_seq_len:
        raise ConfigError(f"{key} {value} exceeds the checkpoint's "
                          f"max_seq_len {state.cfg.max_seq_len}")


def _prompts(cfg: RunConfig, val: np.ndarray, eos: int) -> np.ndarray:
    return open_prefixes(val, cfg.rl_prompt_count, cfg.prompt_len, eos)


def _prompt_tokens(cfg: RunConfig, val: np.ndarray, arch: ArchConfig) -> np.ndarray:
    """The --prompt token ids, checked against the loaded checkpoint's
    architecture `arch`, or else the first open prefix of val. Either must
    leave room to generate within search_max_len, and a --prompt must not
    end in eos."""
    if not cfg.prompt:
        if cfg.prompt_len >= cfg.search_max_len:
            raise ConfigError(f"prompt_len {cfg.prompt_len} leaves nothing to "
                              f"generate within search_max_len {cfg.search_max_len}")
        return open_prefixes(val, 1, cfg.prompt_len, arch.eos_token_id)[0]
    try:
        ids = [int(x) for x in cfg.prompt.split(",")]
    except ValueError:
        raise ConfigError(f"prompt {cfg.prompt!r} is not comma-separated "
                          "integer token ids") from None
    out = [i for i in ids if not 0 <= i < arch.vocab_size]
    if out:
        raise ConfigError(f"prompt token {out[0]} is outside the checkpoint's "
                          f"vocabulary [0, {arch.vocab_size})")
    if len(ids) > arch.max_seq_len:
        raise ConfigError(f"prompt length {len(ids)} exceeds the checkpoint's "
                          f"max_seq_len {arch.max_seq_len}")
    if len(ids) >= cfg.search_max_len:
        raise ConfigError(f"prompt length {len(ids)} leaves nothing to generate "
                          f"within search_max_len {cfg.search_max_len}")
    if ids[-1] == arch.eos_token_id:
        raise ConfigError(f"prompt ends in the eos token {arch.eos_token_id}, "
                          "so nothing would be generated")
    return np.asarray(ids, dtype=np.int64)


def _marker(cfg: RunConfig, model: LatentActionLM, prompt) -> int:
    """Reward token: configured, or the first non-eos token some action
    greedily produces from the prompt (guaranteed reachable, so the reward
    signal is live)."""
    if cfg.rl_marker_token >= 0:
        return cfg.rl_marker_token
    for action in range(model.n_actions):
        token = model.next_token(prompt, action)
        if token != model.eos_token_id:
            return token
    return model.next_token(prompt, 0)


def cmd_pretrain_base(cfg: RunConfig, out: str, metrics: MetricsWriter) -> int:
    if cfg.hmm_seq_len > cfg.max_seq_len:
        raise ConfigError(f"hmm_seq_len {cfg.hmm_seq_len} exceeds "
                          f"max_seq_len {cfg.max_seq_len}")
    state = init_model(cfg.arch(), cfg.seed)
    train, val, _ = _corpora(cfg)
    ce = pretrain_base_ar(state, train, val, cfg.train(), metrics.append)
    metrics.append({"stage": "pretrain-base", "event": "final", "val_ce": ce})
    save_checkpoint(state, os.path.join(out, "base.ckpt"), "pretrain-base",
                    cfg.steps)
    print(f"base val CE {ce:.4f}; wrote {out}/base.ckpt")
    return 0


def cmd_pretrain_actions(cfg: RunConfig, out: str, metrics: MetricsWriter) -> int:
    state = _load_input(cfg)
    _check_max_len(cfg, state, "hmm_seq_len")
    train, val, _ = _corpora(cfg)
    usage = train_stage1(state, train, cfg.train(), cfg.assignment, metrics.append)
    ce_act = val_loss(state, val, "with_actions", gumbel_temp=cfg.gumbel_temp)
    ce_base = val_loss(state, val, "base_ar")
    metrics.append({"stage": "stage1", "event": "final",
                    "val_ce_with_actions": ce_act, "val_ce_base_ar": ce_base,
                    "alive_actions": alive_actions(usage),
                    "usage": usage.tolist()})
    save_checkpoint(state, os.path.join(out, "stage1.ckpt"), "stage1", cfg.steps)
    print(f"with_actions CE {ce_act:.4f} vs base {ce_base:.4f}; "
          f"alive {alive_actions(usage)}/{state.cfg.codebook_size}")
    return 0


def cmd_bc_policy(cfg: RunConfig, out: str, metrics: MetricsWriter) -> int:
    state = _load_input(cfg)
    _check_max_len(cfg, state, "hmm_seq_len")
    train, _, _ = _corpora(cfg)
    train_bc(state, train, cfg.train(), metrics_cb=metrics.append)
    save_checkpoint(state, os.path.join(out, "bc.ckpt"), "bc-policy", cfg.steps)
    print(f"wrote {out}/bc.ckpt")
    return 0


def cmd_fta(cfg: RunConfig, out: str, metrics: MetricsWriter) -> int:
    state = _load_input(cfg)
    _check_max_len(cfg, state, "hmm_seq_len")
    train, _, _ = _corpora(cfg)
    split = make_sft_split(train, cfg.prompt_len)
    train_fta(state, split, cfg.train(), cfg.sft_type, metrics.append)
    save_checkpoint(state, os.path.join(out, "fta.ckpt"),
                    f"fta-{cfg.sft_type}", cfg.steps)
    print(f"wrote {out}/fta.ckpt")
    return 0


def cmd_rl(cfg: RunConfig, out: str, metrics: MetricsWriter) -> int:
    state = _load_input(cfg)
    _check_max_len(cfg, state, "rl_max_len")
    _, val, _ = _corpora(cfg)
    prompts = _prompts(cfg, val, state.cfg.eos_token_id)
    marker = _marker(cfg, LatentActionLM(state), prompts[0])
    trace = train_rl(state, prompts, lambda response: marker_reward(response, marker),
                     cfg.train(), cfg.rl_max_len, cfg.rl_updates, metrics.append)
    metrics.append({"stage": "rl", "event": "final", "marker_token": marker,
                    "final_reward": trace[-1]})
    save_checkpoint(state, os.path.join(out, "rl.ckpt"), "rl", cfg.rl_updates)
    print(f"marker {marker}; final mean reward {trace[-1]:.3f}")
    return 0


def cmd_train_q(cfg: RunConfig, out: str, metrics: MetricsWriter) -> int:
    state = _load_input(cfg)
    _check_max_len(cfg, state, "rl_max_len")
    _, val, _ = _corpora(cfg)
    prompts = _prompts(cfg, val, state.cfg.eos_token_id)
    model = LatentActionLM(state)
    marker = _marker(cfg, model, prompts[0])
    rng = np.random.default_rng(cfg.seed)
    transitions = []
    for prompt in prompts:
        for _ in range(cfg.q_responses_per_prompt):
            tokens, actions = rollout(model, prompt, "sample", cfg.rl_max_len, rng)
            reward = marker_reward(tokens[len(prompt):], marker)
            for s, action in enumerate(actions):
                last = s == len(actions) - 1
                transitions.append(Transition(
                    context=tokens[:len(prompt) + s].copy(), action=int(action),
                    next_context=tokens[:len(prompt) + s + 1].copy(),
                    reward=reward if last else 0.0, terminal=last))
    train_q(state, transitions, cfg.train(), metrics.append)
    save_checkpoint(state, os.path.join(out, "q.ckpt"), "train-q", cfg.steps)
    print(f"trained Q on {len(transitions)} transitions; wrote {out}/q.ckpt")
    return 0


def cmd_rollout(cfg: RunConfig, out: str, metrics: MetricsWriter) -> int:
    state = _load_input(cfg)
    _check_max_len(cfg, state, "search_max_len")
    _, val, _ = _corpora(cfg)
    prompt = _prompt_tokens(cfg, val, state.cfg)
    rng = np.random.default_rng(cfg.seed)
    tokens, actions = rollout(LatentActionLM(state), prompt, cfg.rollout_mode,
                              cfg.search_max_len, rng)
    metrics.append({"stage": "rollout", "tokens": tokens.tolist(),
                    "actions": actions.tolist()})
    print("tokens:", " ".join(map(str, tokens)))
    print("actions:", " ".join(map(str, actions)))
    return 0


def _run_search(cfg: RunConfig, out: str, metrics: MetricsWriter,
                use_q: bool) -> int:
    state = _load_input(cfg)
    _check_max_len(cfg, state, "search_max_len")
    _, val, _ = _corpora(cfg)
    prompt = _prompt_tokens(cfg, val, state.cfg)
    model = LatentActionLM(state)
    marker = _marker(cfg, model, prompt)

    def reward_fn(seq):  # the response only, as rl and train-q score it
        return marker_reward(seq[len(prompt):], marker)

    trace = os.path.join(out, "search_trace.jsonl")
    q_fn = q_values_fn(state, "q_online") if use_q else None
    result = mcts_search(model, prompt, cfg.search(), reward_fn, q_fn=q_fn,
                         gamma=cfg.gamma, trace_path=trace)
    metrics.append({"stage": "search-q" if use_q else "search",
                    "tokens": result.tokens.tolist(),
                    "iterations": result.iterations, "n_nodes": result.n_nodes,
                    "scorer_failures": result.scorer_failures,
                    "marker_token": marker})
    print("answer:", " ".join(map(str, result.tokens)))
    print(f"iterations {result.iterations}, nodes {result.n_nodes}")
    return 0


def cmd_eval(cfg: RunConfig, out: str, metrics: MetricsWriter) -> int:
    state = _load_input(cfg)
    _check_max_len(cfg, state, "search_max_len")
    _check_max_len(cfg, state, "hmm_seq_len")
    _, val, states = _corpora(cfg)
    rng = np.random.default_rng(cfg.seed)
    contexts = val[:cfg.eval_contexts, :cfg.prompt_len]
    table = action_token_table(state, val, gumbel_temp=cfg.gumbel_temp)
    write_action_token_tsv(os.path.join(out, "action_tokens.tsv"), table)
    # joint (action, oracle-state) counts for the same positions
    joint = np.zeros((state.cfg.codebook_size, cfg.hmm_states), dtype=np.int64)
    labels = inverse_action_labels(state, val, cfg.gumbel_temp)
    np.add.at(joint, (labels.reshape(-1), states[:, 1:].reshape(-1)), 1)
    report = {
        "val_ce_with_actions": val_loss(state, val, "with_actions",
                                        gumbel_temp=cfg.gumbel_temp),
        "val_ce_base_ar": val_loss(state, val, "base_ar"),
        "marginal_kl": marginal_kl(state, contexts),
        "semantic_diversity": semantic_diversity(
            state, open_prefixes(val, 4, cfg.prefix_len, state.cfg.eos_token_id),
            cfg.diversity(), rng,
            max_len=cfg.search_max_len),
        "alive_actions": alive_actions(table.sum(axis=1)),
        "action_state_nmi": normalized_mutual_information(joint),
    }
    metrics.append({"stage": "eval", **report})
    with open(os.path.join(out, "eval.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


_HANDLERS = {
    "pretrain-base": cmd_pretrain_base,
    "pretrain-actions": cmd_pretrain_actions,
    "bc-policy": cmd_bc_policy,
    "fta": cmd_fta,
    "rl": cmd_rl,
    "train-q": cmd_train_q,
    "rollout": cmd_rollout,
    "search": lambda cfg, out, m: _run_search(cfg, out, m, use_q=False),
    "search-q": lambda cfg, out, m: _run_search(cfg, out, m, use_q=True),
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="actlm",
        description="Latent-action language model training and search.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None,
                        help="key=value config file (all keys optional)")
    args, overrides = parser.parse_known_args(argv)
    try:
        cfg = load_run_config(args.config, overrides)
        out = _out_dir(cfg)
        with MetricsWriter(os.path.join(out, "metrics.jsonl")) as metrics:
            return _HANDLERS[args.subcommand](cfg, out, metrics)
    except (ConfigError, CheckpointError, OSError,
            FloatingPointError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
