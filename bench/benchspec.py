"""What the actlm benchmark measures.

This module is the single source for the workloads, the metric names, their
units and directions, and the interaction map: for every per-layer metric,
the end-to-end metric and workload it should move. BENCHMARK.json is
generated from it (`python3 bench/benchspec.py > BENCHMARK.json`) and
test_bench.py checks that the two agree. BENCHMARK.json has a fixed key set,
so the closed-loop descriptions and the interaction map live here.
"""

from __future__ import annotations

import json

RUN_SECONDS = 10

# name -> (why, closed-loop description)
WORKLOADS = {
    "train16": (
        "README stage chain at T=16: tape forward+backward dominates; search "
        "is never reached, so a decode-engine change should not move it",
        "one caller runs pretrain-base -> pretrain-actions -> bc-policy -> "
        "fta (FTA-I) -> rl -> train-q with a checkpoint save+load between "
        "stages; passes repeat until the window closes, each from "
        "init_model and batch order of its own seed"),
    "search64": (
        "forward-only decode and MCTS at CLI defaults (T=64): base_forward "
        "reruns on the whole prefix per token; the 4352x64 corpus dominates "
        "setup",
        "one caller runs greedy rollout, search and search-q on each prompt "
        "of a fixed val-split prompt set (lengths 4-32), each op on untrained "
        "weights of its own seed loaded from a checkpoint; passes repeat "
        "until the window closes"),
    "eval64": (
        "eval at CLI defaults: batched full-sequence forward without a tape "
        "plus batched sampled decode; shows a B=1 or training speed-up that "
        "costs batched scoring",
        "one caller builds one full eval report (val_loss both modes, "
        "action/token and action/state tables, marginal_kl, "
        "semantic_diversity) per pass on untrained weights of its own seed; "
        "passes repeat until the window closes"),
}

# name -> (unit, better, bound, definition); emitted by every workload.
# Times are at the reference host speed (see Calibration in run.py).
# setup_s keeps the largest bound: its spread is not gated, only its median.
END_TO_END = {
    "setup_s": (
        "s", "lower", 0.25,
        "median over repeated set-ups in one process, each on a seed of "
        "its own, of config parse + gen_hmm_corpus + init_model "
        "(+ checkpoint save/load) + prompt and marker choice"),
    "peak_rss_mb": ("MB", "lower", 0.1, "ru_maxrss of the run's process"),
    "tokens_per_s": (
        "tok/s", "higher", 0.24,
        "model tokens of one pass over its time, each timed op taken at its "
        "median over the run's passes: "
        "train16 B*T of every optimizer step of pretrain, stage1, bc and "
        "fta over their time; "
        "search64 tokens decoded by rollout and both searches over their "
        "time; eval64 validation tokens over the eval report time"),
}

# Workload-specific end-to-end figures. They are printed with unit and
# sample count by every run of their workload, but cannot be gated: a gated
# metric must exist on every workload and never be 0.
# name -> (workload, unit, better, definition)
REPORTED = {
    "failed_op_share": ("all", "fraction", "lower",
                        "failed ops / attempted ops"),
    "pretrain_tokens_per_s": ("train16", "tok/s", "higher",
                              "B*T per second inside pretrain_base_ar"),
    "stage1_tokens_per_s": ("train16", "tok/s", "higher",
                            "B*T per second inside train_stage1"),
    "bc_tokens_per_s": ("train16", "tok/s", "higher",
                        "B*T per second inside train_bc"),
    "fta_tokens_per_s": ("train16", "tok/s", "higher",
                         "B*T per second inside train_fta, FTA-I policy "
                         "refresh steps included"),
    "rl_updates_per_s": ("train16", "1/s", "higher",
                         "train_rl updates per second, rollouts included"),
    "dqn_steps_per_s": ("train16", "1/s", "higher",
                        "train_q steps per second; transition collection "
                        "excluded"),
    "decode_tokens_per_s": ("search64", "tok/s", "higher",
                            "greedy search.rollout tokens per second"),
    "mcts_iters_per_s": ("search64", "1/s", "higher",
                         "SearchResult.iterations per second of mcts_search"),
    "mcts_q_iters_per_s": ("search64", "1/s", "higher",
                           "the same for mcts_search with q_fn"),
    "eval_s": ("eval64", "s", "lower", "time for one full eval report"),
}

PRIMITIVES = ("matmul", "causal_attention_scores", "softmax", "log_softmax",
              "rms_norm", "silu", "cross_entropy", "embedding", "slice_time",
              "concat_last", "add", "mul", "reshape", "swapaxes")
STAGES = ("pretrain", "stage1", "bc", "fta", "rl", "dqn")
ACTION_FNS = ("world_logits", "policy_forward", "policy_log_probs",
              "inverse_encode", "assign_direct", "q_forward")
STAGE_RATE = {"pretrain": "pretrain_tokens_per_s",
              "stage1": "stage1_tokens_per_s", "bc": "bc_tokens_per_s",
              "fta": "fta_tokens_per_s", "rl": "rl_updates_per_s",
              "dqn": "dqn_steps_per_s"}
# pass phase -> the workload figure it reports
PHASE_RATE = {**STAGE_RATE, "decode": "decode_tokens_per_s",
              "mcts": "mcts_iters_per_s", "mcts_q": "mcts_q_iters_per_s",
              "eval": "eval_s"}
TRAIN_RATES = "train16 rates"


def _per_layer():
    """name -> (unit, better, what it should move). The workload figures
    named there roll up into their workload's tokens_per_s. A metric a
    workload does not reach reads 0 on that workload."""
    m = {}

    def add(name, unit, better, moves):
        m[name] = (unit, better, moves)

    add("data.gen_hmm_corpus_ms", "ms", "lower",
        "setup_s, mainly on search64 and eval64")
    add("data.corpus_tokens", "count", "higher",
        "setup_s, mainly on search64 and eval64")
    ck = "setup_s on all workloads; train16 stage rates"
    add("checkpoint.save_ms", "ms", "lower", ck)
    add("checkpoint.load_ms", "ms", "lower", ck)
    add("checkpoint.bytes", "bytes", "lower", ck)
    mo = "every throughput metric and eval_s"
    add("model.base_forward.calls", "count", "lower", mo)
    add("model.base_forward.ms", "ms", "lower", mo)
    add("model.base_forward.tokens", "count", "lower", mo)
    add("model.block_forward.calls", "count", "lower", mo)
    add("model.block_forward.ms", "ms", "lower", mo)
    add("model.hashes_ms", "ms", "lower", mo)
    for shape in ("B16xT16", "B16xT64", "B1xT64"):
        add(f"model.base_forward_ms.{shape}", "ms", "lower", mo)
    for prim in PRIMITIVES:
        add(f"autodiff.{prim}.calls", "count", "lower", TRAIN_RATES)
        add(f"autodiff.{prim}.fwd_ms", "ms", "lower", TRAIN_RATES)
        add(f"autodiff.{prim}.bwd_ms", "ms", "lower", TRAIN_RATES)
    add("autodiff.backward_ms", "ms", "lower", TRAIN_RATES)
    for stage in STAGES:
        add(f"autodiff.tape_nodes_per_step.{stage}", "count", "lower",
            f"{STAGE_RATE[stage]} on train16")
        add(f"autodiff.tape_bytes_per_step.{stage}", "bytes", "lower",
            f"{STAGE_RATE[stage]} on train16")
    ac = ("stage1, bc, fta, rl and dqn rates, decode_tokens_per_s and "
          "eval_s")
    for fn in ACTION_FNS:
        add(f"actions.{fn}.calls", "count", "lower", ac)
        add(f"actions.{fn}.ms", "ms", "lower", ac)
    for stage in STAGES:
        for q in ("p50", "p90"):
            add(f"training.{stage}.step_ms_{q}", "ms", "lower",
                f"{STAGE_RATE[stage]} on train16")
    add("training.adamw_step_ms", "ms", "lower", TRAIN_RATES)
    add("training.inverse_action_labels.calls", "count", "lower",
        "bc and fta rates; eval_s")
    add("training.inverse_action_labels.ms", "ms", "lower",
        "bc and fta rates; eval_s")
    add("training.rollout_batch.ms_per_token", "ms/tok", "lower",
        "rl_updates_per_s on train16; eval_s on eval64")
    add("training.dqn_target.calls", "count", "lower",
        "dqn_steps_per_s on train16")
    add("training.dqn_target.ms", "ms", "lower",
        "dqn_steps_per_s on train16")
    for t in ("T16", "T32", "T64"):
        add(f"search.decode_ms_per_token.{t}", "ms/tok", "lower",
            "decode_tokens_per_s on search64")
    add("search.mcts.ms_per_iter", "ms/iter", "lower",
        "mcts_iters_per_s on search64")
    add("search.mcts.base_forward_per_iter", "calls/iter", "lower",
        "mcts_iters_per_s on search64")
    add("search.mcts.nodes", "count", "higher", "mcts_iters_per_s on search64")
    add("search.mcts.iterations", "count", "higher",
        "mcts_iters_per_s on search64")
    add("search.mcts.sim_tokens", "count", "higher",
        "mcts_iters_per_s on search64")
    add("search.mcts_q.ms_per_iter", "ms/iter", "lower",
        "mcts_q_iters_per_s on search64")
    add("search.mcts_q.base_forward_per_iter", "calls/iter", "lower",
        "mcts_q_iters_per_s on search64")
    add("search.mcts_q.extension_passes", "count", "higher",
        "mcts_q_iters_per_s on search64")
    add("search.mcts_q.bellman_evals", "count", "lower",
        "mcts_q_iters_per_s on search64")
    for fn in ("val_loss", "action_token_table", "marginal_kl",
               "semantic_diversity"):
        add(f"diagnostics.{fn}_ms", "ms", "lower", "eval_s on eval64")
    add("trace.overhead_pct", "%", "lower",
        "none: traced over untraced time per token, minus 100%")
    return m


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why}
                      for n, (why, _) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound, _) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b, _) in PER_LAYER.items()],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
