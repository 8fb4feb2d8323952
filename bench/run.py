"""actlm benchmark runner.

    python3 bench/run.py --workload {train16,search64,eval64,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; actlm is imported from its `src/`.
One run is one fresh process and one closed loop with a single caller:

1. set-up, repeated SETUP_REPEATS times (`setup_s` is their median);
2. whole passes of the workload until `--seconds` have elapsed (at least
   one); every pass does the same amount of work, so each timed op (a
   training step, a search, an eval part) is taken at its median over the
   passes;
3. with `--trace 1`, one more set-up and one pass under the tracer, plus
   the fixed-shape probes; the per-layer metrics come from those, and the
   tracing overhead is the traced figures against the untraced ones.

Every set-up, pass and search op draws inputs of its own from the seed
(see benchwork.Workload), so nothing a call leaves behind can speed up a
later one; and times are scaled to a reference host speed measured in a
separate process (see Calibration).

Every correctness check runs on every run; an exception or a failed check
counts as a failed op. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json untraced, the per-layer ones traced). A human-readable
report, the environment stamp and the output fingerprint come before it,
and the same report plus the spans are written under `.bench_out/`.
`--workload all` runs the three workloads one after another, each in its
own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
CALIBRATION_CALLS = 20
SETUP_CALIBRATION_CALLS = 100
CALIBRATION_INTERVAL_S = 0.5
CALIBRATION_SPAN_S = 2.5
CALIBRATION_REF_S = 1e-3
# calibrate.py's kernel for set-ups, which do the same kind of work (corpus
# generation, init_model, checkpoints) on every workload
SETUP_CALIBRATION = (16, 16, 32, 4)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# the environment before actlm is imported, for the calibration process
START_ENV = dict(os.environ)


def import_actlm():
    """Import actlm from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "actlm", "__init__.py")):
        raise SystemExit(f"error: no actlm sources under {SRC}")
    sys.path.insert(0, SRC)
    import actlm
    if not os.path.abspath(actlm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: actlm imported from {actlm.__file__}")


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def phase_seconds(records, factor=None) -> tuple[dict, dict]:
    """Per phase, the estimated seconds of one pass and the number of
    timing samples behind it. Each sample is first scaled to the reference
    speed by `factor(start, end)`, if given; then each timing key
    contributes its samples per pass times the median of its samples over
    all passes, so a stall in one pass moves the estimate little."""
    seconds, samples = {}, {}
    for key, first in records[0].times.items():
        pooled = [s * (factor(end - s, end) if factor else 1.0)
                  for r in records for s, end in r.times.get(key, [])]
        seconds[key[0]] = seconds.get(key[0], 0.0) + len(first) * median(pooled)
        samples[key[0]] = samples.get(key[0], 0) + len(pooled)
    return seconds, samples


def token_rate(work: dict, seconds: dict) -> float:
    """Tokens per second of one pass over the phases that report tokens."""
    phases = [p for p, (_, tokens) in work.items() if tokens > 0]
    return sum(work[p][1] for p in phases) / sum(seconds[p] for p in phases)


class Calibration:
    """Speed of this host over time, from the fixed numpy kernel of
    calibrate.py, which runs in a child process (see there) and never
    overlaps actlm: the caller waits for every burst.

    The host's speed drifts by +-20% within seconds to minutes, and the
    drift moves the kernel and actlm alike. Bursts of the kernel run around
    every set-up (on SETUP_CALIBRATION's kernel) and, while `active`, at
    most every CALIBRATION_INTERVAL_S between the ops of a pass. A timing is scaled to the reference speed,
    at which one kernel call takes CALIBRATION_REF_S, by the bursts within
    CALIBRATION_SPAN_S of it. Use as a context manager; leaving it ends the
    child process and waits for it."""

    def __init__(self, shape):
        self.shape = shape  # calibrate.py's BATCH TIME WIDTH LAYERS
        self.marks: list[tuple[float, float]] = []  # (time, s per call)
        self.active = False
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py"),
             *map(str, self.shape)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=START_ENV)
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        return False

    def burst(self, calls: int = CALIBRATION_CALLS) -> None:
        # on the CPU this process runs on: hosts slow down CPU by CPU
        os.sched_setaffinity(self._proc.pid, {current_cpu()})
        self._proc.stdin.write(f"{calls}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended")
        self.marks.append((time.perf_counter(), float(line)))

    def tick(self) -> None:
        if self.active and (not self.marks or time.perf_counter()
                            - self.marks[-1][0] >= CALIBRATION_INTERVAL_S):
            self.burst()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per second of this host over [start, end]."""
        near = [v for t, v in self.marks
                if start - CALIBRATION_SPAN_S <= t <= end + CALIBRATION_SPAN_S]
        if not near:
            mid = (start + end) / 2
            near = [min(self.marks, key=lambda m: abs(m[0] - mid))[1]]
        return CALIBRATION_REF_S / median(near)


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as f:
        stat = f.read()
    return int(stat[stat.rindex(")") + 2:].split()[36])


def percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def environment(seed: int, trace: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "actlm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + f.read())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "thread_env": {k: os.environ[k] for k in THREAD_VARS
                           if k in os.environ},
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "src_sha256": src.hexdigest(),
            "seed": seed, "traced": bool(trace)}


def git_commit() -> str:
    """HEAD of the checkout's .git, read without running git; 'unknown'
    outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False) -> dict:
    """One benchmark run in this process; returns the full report."""
    import benchtrace
    import benchwork
    from benchspec import END_TO_END, PER_LAYER, PHASE_RATE, REPORTED, STAGES

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    extra = benchwork.TINY if tiny else ()
    workload = benchwork.WORKLOADS[name](seed, work_dir, extra)
    try:
        with Calibration(SETUP_CALIBRATION) as setup_cal, \
                Calibration(workload.calibration) as cal:
            ledger = benchwork.Ledger(between=cal.tick)

            def timed_setup():
                """(context, seconds, seconds at the reference speed)"""
                t0 = time.perf_counter()
                ctx = workload.setup(ledger)
                t1 = time.perf_counter()
                setup_cal.burst(SETUP_CALIBRATION_CALLS)
                return ctx, t1 - t0, (t1 - t0) * setup_cal.factor(t0, t1)

            setup_times, setup_ref, ctx = [], [], None
            setup_cal.burst(SETUP_CALIBRATION_CALLS)
            for _ in range(1 if tiny else SETUP_REPEATS):
                ctx = None  # let the previous set-up go before the next
                ctx, dt, dt_ref = timed_setup()
                setup_times.append(dt)
                setup_ref.append(dt_ref)

            records = []
            cal.active = True
            start = time.perf_counter()
            while not records or time.perf_counter() - start < seconds:
                records.append(workload.run_pass(ctx, ledger))
            cal.burst()
            cal.active = False
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024

            seconds_ref, samples_n = phase_seconds(records, cal.factor)
            work = records[0].work
            raw = {"setup_s": median(setup_times),
                   "tokens_per_s": token_rate(work,
                                              phase_seconds(records)[0])}
            e2e = {"setup_s": median(setup_ref), "peak_rss_mb": peak_rss_mb,
                   "tokens_per_s": token_rate(work, seconds_ref)}
            samples = {"setup_s": len(setup_times), "peak_rss_mb": 1,
                       "tokens_per_s": sum(samples_n.values())}
            reported, reported_n = {}, {}
            for phase, (units, _) in work.items():
                key = PHASE_RATE[phase]
                reported[key] = seconds_ref[phase] if phase == "eval" \
                    else units / seconds_ref[phase]
                reported_n[key] = samples_n[phase]

            layer, missing, overhead, tracer = {}, [], {}, None
            if trace:
                # a set-up and a pass of their own, on fresh inputs
                tracer = benchtrace.Tracer(f"{name}-s{seed}-setup")
                with tracer:
                    traced_ctx, _, traced_setup = timed_setup()
                    tracer.run_id = f"{name}-s{seed}-pass"
                    cal.active = True
                    traced = workload.run_pass(traced_ctx, ledger)
                    cal.active = False
                cal.burst()
                layer, missing = tracer.layer_metrics()
                layer.update(benchwork.probes(workload.next_seed(), extra))
                for stage in STAGES:
                    # the stage's own steps: its first timing key
                    key = next((k for k in records[0].times
                                if k[0] == stage and k[1] != "rest"), None)
                    steps = [1e3 * s for r in records
                             for s, _ in r.times.get(key, [])]
                    layer[f"training.{stage}.step_ms_p50"] = \
                        percentile(steps, 50)
                    layer[f"training.{stage}.step_ms_p90"] = \
                        percentile(steps, 90)
                traced_rate = token_rate(
                    traced.work, phase_seconds([traced], cal.factor)[0])
                layer["trace.overhead_pct"] = \
                    100.0 * (e2e["tokens_per_s"] / traced_rate - 1.0)
                overhead = {"setup_s": traced_setup - e2e["setup_s"]}
                unexpected = set(layer) - set(PER_LAYER)
                absent = set(PER_LAYER) - set(layer) - set(missing)
                if unexpected or absent:
                    raise RuntimeError(
                        f"per-layer metrics out of step with benchspec: "
                        f"{sorted(unexpected | absent)}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reported["failed_op_share"] = ledger.failed / max(ledger.attempted, 1)
    reported_n["failed_op_share"] = ledger.attempted
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": {**environment(seed, trace),
                        "calibration_ms": 1e3 * median(
                            [v for _, v in cal.marks])},
        "raw": raw,
        "fingerprint": records[0].fingerprint,
        "passes": len(records), "work": work,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "errors": ledger.errors[:20],
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k][0],
                           "samples": samples[k]} for k, v in e2e.items()},
        "reported": {k: {"value": v, "unit": REPORTED[k][1],
                         "samples": reported_n[k]}
                     for k, v in reported.items()},
        "per_layer": {k: {"value": v, "unit": PER_LAYER[k][0]}
                      for k, v in layer.items()},
        "missing": missing,
        "trace_overhead": overhead,
    }
    tag = f"{name}-s{seed}-t{trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"spans-{tag}.jsonl"))
        report["self_time"] = sorted(
            ((v[2] * 1e3, k, v[0]) for k, v in tracer.self_times().items()),
            reverse=True)[:12]
    return report


def print_report(r: dict) -> None:
    env = r["environment"]
    print(f"== actlm bench: workload={r['workload']} seed={r['seed']} "
          f"seconds={r['seconds']} trace={r['trace']} passes={r['passes']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"fingerprint: {r['fingerprint']}")
    print(f"ops: attempted={r['attempted']} failed={r['failed']}")
    print("at this host's own speed: " + ", ".join(
        f"{k} {v:.6g}" for k, v in r["raw"].items()))
    for err in r["errors"]:
        print(f"  failed op: {err}")
    for title, key in (("end-to-end", "end_to_end"),
                       ("workload figures", "reported")):
        print(f"{title}:")
        for k, m in r[key].items():
            print(f"  {k:<24} {m['value']:>14.6g} {m['unit']:<8} "
                  f"n={m['samples']}")
    if r["trace"]:
        print("tracing overhead (traced - untraced): " + ", ".join(
            f"{k} {v:+.6g}" for k, v in r["trace_overhead"].items()))
        print("self time, top spans (ms, calls):")
        for ms, name, calls in r["self_time"]:
            print(f"  {name:<34} {ms:>10.1f} {calls:>8}")
        print("per-layer:")
        for k, m in r["per_layer"].items():
            print(f"  {k:<44} {m['value']:>14.6g} {m['unit']}")
        if r["missing"]:
            print("missing (wrapped name no longer exists): "
                  + " ".join(r["missing"]))


def result_line(r: dict) -> dict:
    metrics = r["per_layer"] if r["trace"] else r["end_to_end"]
    return {"correct": r["failed"] == 0, "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from benchspec import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for k, m in one["metrics"].items():
            total["metrics"][f"{name}.{k}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train16", "search64", "eval64", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_actlm()
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(report)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
