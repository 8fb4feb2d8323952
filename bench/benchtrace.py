"""Tracer for the benchmark's traced run.

It wraps actlm's public callables in place: module attributes, the copies
other modules imported by name (`actlm.search.base_forward`), and the
methods `Tape.gradients`, `AdamW.step` and `ModelState.hashes`. Tape
primitives get counters only (calls, forward time, and backward time taken
by wrapping the returned tensor's `_backward`). Every boundary above the
primitives gets a span: name, start, end, parent and run id. Spans stay in
memory until the run writes them out. A target a later refactor removed is
reported as missing, with the metrics that depend on it.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

import numpy as np

from benchspec import ACTION_FNS, PRIMITIVES, STAGES

# span name -> "module:attribute" or "module:Class.method"
SPANS = {
    "data.gen_hmm_corpus": "actlm.data:gen_hmm_corpus",
    "checkpoint.save": "actlm.checkpoint:save_checkpoint",
    "checkpoint.load": "actlm.checkpoint:load_checkpoint",
    "model.base_forward": "actlm.model:base_forward",
    "model.block_forward": "actlm.model:block_forward",
    "model.hashes": "actlm.model:ModelState.hashes",
    "autodiff.backward": "actlm.autodiff:Tape.gradients",
    "training.adamw_step": "actlm.training:AdamW.step",
    "training.pretrain": "actlm.training:pretrain_base_ar",
    "training.stage1": "actlm.training:train_stage1",
    "training.bc": "actlm.training:train_bc",
    "training.fta": "actlm.training:train_fta",
    "training.rl": "actlm.training:train_rl",
    "training.dqn": "actlm.training:train_q",
    "training.inverse_action_labels": "actlm.training:inverse_action_labels",
    "training.rollout_batch": "actlm.training:rollout_batch",
    "training.dqn_target": "actlm.training:dqn_target",
    "search.rollout": "actlm.search:rollout",
    "search.mcts_search": "actlm.search:mcts_search",
    "search.bellman_error": "actlm.search:bellman_error",
    **{f"diagnostics.{fn}": f"actlm.diagnostics:{fn}"
       for fn in ("val_loss", "action_token_table", "marginal_kl",
                  "semantic_diversity")},
    **{f"actions.{fn}": f"actlm.actions:{fn}" for fn in ACTION_FNS},
}
STAGE_SPANS = tuple(f"training.{stage}" for stage in STAGES)

NAME, START, END, PARENT, RUN, ATTR = range(6)


def _mcts_attrs(args, kwargs, result) -> dict:
    q_fn = kwargs.get("q_fn", args[4] if len(args) > 4 else None)
    sim = ext = 0
    stack = [result.root]
    while stack:
        node = stack.pop()
        sim += 0 if node.sim_tokens is None else len(node.sim_tokens)
        ext += node.extension_passes
        stack.extend(node.children.values())
    return {"variant": "mcts" if q_fn is None else "mcts_q",
            "iterations": result.iterations, "nodes": result.n_nodes,
            "sim_tokens": sim, "extension_passes": ext}


def _tape_attrs(args, kwargs, result) -> dict:
    nodes = args[0].nodes
    return {"nodes": len(nodes), "bytes": sum(n.data.nbytes for n in nodes)}


# span name -> f(args, kwargs, result) -> attributes kept on the span
ATTRS = {
    "data.gen_hmm_corpus": lambda a, k, r: {"tokens": r[0].size},
    "checkpoint.save": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "model.base_forward": lambda a, k, r: {"tokens": np.asarray(a[2]).size},
    "training.rollout_batch": lambda a, k, r: {
        "tokens": r[0].shape[0] * (r[0].shape[1] - np.asarray(a[1]).shape[1])},
    "search.mcts_search": _mcts_attrs,
    "autodiff.backward": _tape_attrs,
}


def _resolve(target: str):
    """(owner, attribute, original) or None when the name is gone."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    """Install with `with Tracer(run_id):`; originals are restored on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.prims = {p: [0, 0.0, 0.0] for p in PRIMITIVES}  # calls, fwd, bwd
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self):
        for prim in PRIMITIVES:
            self._patch(f"actlm.autodiff:{prim}", prim, self._prim_wrapper)
        for name, target in SPANS.items():
            self._patch(target, name, self._span_wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _patch(self, target, name, make) -> None:
        found = _resolve(target)
        if found is None:
            self.missing.append(name)
            return
        owner, attr, original = found
        wrapper = make(name, original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # the defining module and every actlm module that imported the name
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "actlm" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _prim_wrapper(self, name, fn):
        counter = self.prims[name]
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            counter[1] += clock() - t0
            counter[0] += 1
            backward = out._backward
            if backward is not None:
                def timed(g):
                    t = clock()
                    pairs = backward(g)
                    counter[2] += clock() - t
                    return pairs
                out._backward = timed
            return out
        return wrapped

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = ATTRS.get(name)

        def wrapped(*args, **kwargs):
            sid = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1,
                    self.run_id, None]
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTR] = attrs(args, kwargs, out)
            return out
        return wrapped

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """name -> [calls, total s, self s]; self time is a span's duration
        minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, list[float]] = {}
        for i, s in enumerate(self.spans):
            acc = out.setdefault(s[NAME], [0, 0.0, 0.0])
            dur = s[END] - s[START]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child[i]
        return out

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics from the spans and counters, and the names of
        metrics whose wrapped callable no longer exists."""
        spans = self.spans
        tot = self.self_times()
        gone = set(self.missing)
        m: dict[str, float] = {}
        missing: list[str] = []

        def calls(name):
            return tot.get(name, [0, 0.0, 0.0])[0]

        def ms(name):
            return tot.get(name, [0, 0.0, 0.0])[1] * 1e3

        def attr_sum(name, key):
            # a span whose call raised has no attributes
            return sum(s[ATTR][key] for s in spans
                       if s[NAME] == name and s[ATTR])

        def group(needs, compute):
            values = compute()
            if gone.intersection(needs):
                missing.extend(values)
            else:
                m.update(values)

        def per_call(total, n):
            return total / n if n else 0.0

        n = calls("data.gen_hmm_corpus")
        group(["data.gen_hmm_corpus"], lambda: {
            "data.gen_hmm_corpus_ms": per_call(ms("data.gen_hmm_corpus"), n),
            "data.corpus_tokens": per_call(
                attr_sum("data.gen_hmm_corpus", "tokens"), n)})
        group(["checkpoint.save"], lambda: {
            "checkpoint.save_ms": per_call(ms("checkpoint.save"),
                                           calls("checkpoint.save")),
            "checkpoint.bytes": per_call(attr_sum("checkpoint.save", "bytes"),
                                         calls("checkpoint.save"))})
        group(["checkpoint.load"], lambda: {
            "checkpoint.load_ms": per_call(ms("checkpoint.load"),
                                           calls("checkpoint.load"))})
        group(["model.base_forward"], lambda: {
            "model.base_forward.calls": calls("model.base_forward"),
            "model.base_forward.ms": ms("model.base_forward"),
            "model.base_forward.tokens": attr_sum("model.base_forward",
                                                  "tokens")})
        group(["model.block_forward"], lambda: {
            "model.block_forward.calls": calls("model.block_forward"),
            "model.block_forward.ms": ms("model.block_forward")})
        group(["model.hashes"], lambda: {"model.hashes_ms": ms("model.hashes")})
        for prim in PRIMITIVES:
            c, fwd, bwd = self.prims[prim]
            group([prim], lambda: {f"autodiff.{prim}.calls": c,
                                   f"autodiff.{prim}.fwd_ms": fwd * 1e3,
                                   f"autodiff.{prim}.bwd_ms": bwd * 1e3})
        group(["autodiff.backward"], lambda: {
            "autodiff.backward_ms": ms("autodiff.backward")})
        stage_of = self._outermost(STAGE_SPANS)
        for stage_span in STAGE_SPANS:
            stage = stage_span.split(".")[1]
            tapes = [s[ATTR] for i, s in enumerate(spans)
                     if s[NAME] == "autodiff.backward" and s[ATTR]
                     and stage_of[i] == stage_span]
            group(["autodiff.backward", stage_span], lambda: {
                f"autodiff.tape_nodes_per_step.{stage}":
                    per_call(sum(t["nodes"] for t in tapes), len(tapes)),
                f"autodiff.tape_bytes_per_step.{stage}":
                    per_call(sum(t["bytes"] for t in tapes), len(tapes))})
        for fn in ACTION_FNS:
            name = f"actions.{fn}"
            group([name], lambda: {f"{name}.calls": calls(name),
                                   f"{name}.ms": ms(name)})
        group(["training.adamw_step"], lambda: {
            "training.adamw_step_ms": per_call(ms("training.adamw_step"),
                                               calls("training.adamw_step"))})
        name = "training.inverse_action_labels"
        group([name], lambda: {f"{name}.calls": calls(name),
                               f"{name}.ms": ms(name)})
        group(["training.rollout_batch"], lambda: {
            "training.rollout_batch.ms_per_token": per_call(
                ms("training.rollout_batch"),
                attr_sum("training.rollout_batch", "tokens"))})
        name = "training.dqn_target"
        group([name], lambda: {f"{name}.calls": calls(name),
                               f"{name}.ms": ms(name)})
        group(["search.mcts_search", "model.base_forward",
               "search.bellman_error"], self._search_metrics)
        for fn in ("val_loss", "action_token_table", "marginal_kl",
                   "semantic_diversity"):
            name = f"diagnostics.{fn}"
            group([name], lambda: {f"{name}_ms": ms(name)})
        return m, missing

    def _outermost(self, names) -> list:
        """Per span, the outermost enclosing span (itself included) whose
        name is in `names`, else None. Parents precede children."""
        out: list = [None] * len(self.spans)
        for i, s in enumerate(self.spans):
            up = out[s[PARENT]] if s[PARENT] >= 0 else None
            out[i] = up if up is not None else (s[NAME] if s[NAME] in names
                                                else None)
        return out

    def _search_metrics(self) -> dict[str, float]:
        spans = self.spans
        # innermost mcts_search span id above each span
        owner = [-1] * len(spans)
        for i, s in enumerate(spans):
            if s[NAME] == "search.mcts_search" and s[ATTR]:
                owner[i] = i
            elif s[PARENT] >= 0:
                owner[i] = owner[s[PARENT]]
        per = {v: {"ms": 0.0, "iterations": 0, "nodes": 0, "sim_tokens": 0,
                   "extension_passes": 0, "base_forward": 0, "bellman": 0}
               for v in ("mcts", "mcts_q")}
        for i, s in enumerate(spans):
            if owner[i] == i:
                acc = per[s[ATTR]["variant"]]
                acc["ms"] += (s[END] - s[START]) * 1e3
                for key in ("iterations", "nodes", "sim_tokens",
                            "extension_passes"):
                    acc[key] += s[ATTR][key]
            elif owner[i] >= 0:
                acc = per[spans[owner[i]][ATTR]["variant"]]
                if s[NAME] == "model.base_forward":
                    acc["base_forward"] += 1
                elif s[NAME] == "search.bellman_error":
                    acc["bellman"] += 1
        m = {}
        for v, acc in per.items():
            it = acc["iterations"]
            m[f"search.{v}.ms_per_iter"] = acc["ms"] / it if it else 0.0
            m[f"search.{v}.base_forward_per_iter"] = \
                acc["base_forward"] / it if it else 0.0
        m["search.mcts.nodes"] = per["mcts"]["nodes"]
        m["search.mcts.iterations"] = per["mcts"]["iterations"]
        m["search.mcts.sim_tokens"] = per["mcts"]["sim_tokens"]
        m["search.mcts_q.extension_passes"] = per["mcts_q"]["extension_passes"]
        m["search.mcts_q.bellman_evals"] = per["mcts_q"]["bellman"]
        return m

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, run id,
        attributes; times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s[NAME],
                                    "start": s[START] - t0,
                                    "end": s[END] - t0, "parent": s[PARENT],
                                    "run": s[RUN], "attrs": s[ATTR]}) + "\n")
