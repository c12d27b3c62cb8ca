"""The tauadic benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload {recode,verify,enumerate} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root.  It imports tauadic from ``src/`` and runs
whole rounds of seeded ops until the timed op time reaches S seconds and at
least MIN_OPS ops have run.  Each op's output is checked outside the timed
region; a failed check counts as a failed op and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
ops with every public tauadic function wrapped in a span, replays them
untraced to measure the tracing overhead and to compare output digests, and
reports the per-layer metrics.  Spans are written to ``bench/out/``.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from reference import calibration_kernel
from tracer import Tracer

MIN_OPS = 100
SETUP_PROBES = 7
# Time of reference.calibration_kernel on an uncontended core of the 2.1 GHz
# Xeon VM the benchmark was tuned on.  Reported times are scaled to it.
KERNEL_REF_S = 0.00075
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_UNIT = {"recode": "digits/s", "verify": "ops/s", "enumerate": "elements/s"}


class Run:
    """Timings, checks and digests of the ops of one measured loop."""

    def __init__(self) -> None:
        self.ops: list = []
        self.seconds: list = []     # CPU time of each op
        self.kernel: list = []      # kernel times just before and just after each op
        self.ok: list = []
        self.work: list = []
        self.digests: list = []
        self.stdout_bytes = 0
        self.rounds = 0
        self.first_failure = ""

    @property
    def total(self) -> float:
        return sum(self.seconds)

    @property
    def scaled(self) -> list:
        """Op times at the reference speed.

        Each op's time is multiplied by KERNEL_REF_S over the mean kernel
        time around it: the kernel runs just before and after a short op,
        and for a long op also those of its neighbours until they add up to
        its own length, since the machine's speed changes while it runs.
        """
        t, k, out = self.seconds, self.kernel, []
        for i, ti in enumerate(t):
            lo, hi, before, after = i, i, 0.0, 0.0
            while lo > 0 and before + t[lo - 1] <= ti:
                lo -= 1
                before += t[lo]
            while hi + 1 < len(t) and after + t[hi + 1] <= ti:
                hi += 1
                after += t[hi]
            out.append(ti * KERNEL_REF_S / statistics.fmean(k[2 * lo:2 * hi + 2]))
        return out

    @property
    def units(self) -> int:
        return sum(w for w, ok in zip(self.work, self.ok) if ok)

    def record(self, reference, op, elapsed: float, out) -> None:
        ok, units, detail = False, 0, repr(out)
        if not isinstance(out, Exception):
            try:
                ok, units = workloads.check(reference, op, out)
                detail = "output check failed"
            except Exception as exc:  # a malformed output is a failed op
                detail = f"output check raised {exc!r}"
            if isinstance(out, tuple):
                self.stdout_bytes += len(out[1])
        canon = repr(out).encode() if isinstance(out, Exception) else workloads.canonical(op, out)
        self.ops.append(op)
        self.seconds.append(elapsed)
        self.ok.append(ok)
        self.work.append(units)
        self.digests.append(hashlib.sha256(canon).digest())
        if not ok and not self.first_failure:
            self.first_failure = f"{op.kind}{op.args}: {detail}"


def time_kernel() -> float:
    start = time.thread_time()
    calibration_kernel()
    return time.thread_time() - start


def measure(program, reference, op_rounds, seconds: float, min_ops: int,
            tracer: Tracer | None = None) -> Run:
    """Run whole rounds until the ops' CPU time reaches ``seconds`` and at
    least ``min_ops`` ops have run.

    Outside the timed region: a full garbage collection before each op, so
    that the collector's work inside an op depends only on the op's own
    allocations and not on what ran before it; the reference kernel just
    before and after each op; and the output check.
    """
    run = Run()
    for ops in op_rounds:
        for op in ops:
            fn = workloads.prepare(program, reference, op)
            if tracer is not None:
                tracer.op_id = len(run.ops)
            gc.collect()
            run.kernel.append(time_kernel())
            start = time.thread_time()
            try:
                out = fn()
            except Exception as exc:  # a failing op is counted, not fatal
                out = exc
            elapsed = time.thread_time() - start
            run.kernel.append(time_kernel())
            run.record(reference, op, elapsed, out)
        run.rounds += 1
        if run.total >= seconds and len(run.ops) >= min_ops:
            break
    return run


def measure_setup(workload: str) -> list:
    """Set-up times of fresh interpreters, as (CPU seconds, kernel seconds)."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                               workload, str(SRC)],
                              capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.splitlines()[-1])
        times.append((probe["setup_s"], probe["kernel_s"]))
    return times


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def percentiles(seconds: list) -> tuple:
    p90 = statistics.quantiles(seconds, n=10, method="inclusive")[8]
    return statistics.median(seconds), p90


def end_to_end(run: Run, seconds: list, setup_times: list) -> dict:
    p50, p90 = percentiles(seconds)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (run.units / sum(seconds), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def trace_accounting(traced: Run, replay: Run, layers: dict, spans: int) -> dict:
    """How the traced op time splits into span self time and the rest.
    Times are CPU times as measured; the two work rates are scaled."""
    self_s = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    return {
        "trace.ops": len(traced.ops),
        "trace.spans": spans,
        "trace.op_s": traced.total,
        "trace.self_s": self_s,
        "trace.unspanned_s": traced.total - self_s,
        "trace.untraced_op_s": replay.total,
        "trace.overhead_s": traced.total - replay.total,
        "trace.work_per_s": traced.units / sum(traced.scaled),
        "trace.untraced_work_per_s": replay.units / sum(replay.scaled),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "tauadic" / "__init__.py").is_file():
        print(f"error: no tauadic sources under {SRC}", file=sys.stderr)
        return 2

    probes = [] if args.trace else measure_setup(args.workload)
    program = workloads.load_program(SRC)
    reference = workloads.Reference()
    workloads.warm_up(program, reference, args.workload)
    op_rounds = workloads.rounds(args.workload, args.seed)

    if args.trace:
        tracer = Tracer()
        with tracer.installed(program):
            run = measure(program, reference, op_rounds, args.seconds, MIN_OPS,
                          tracer=tracer)
        replay = measure(program, reference, [run.ops], 0, 0)
        mismatched = sum(a != b for a, b in zip(run.digests, replay.digests))
        failed = sum(not ok or a != b
                     for ok, a, b in zip(run.ok, run.digests, replay.digests))
        layers = tracer.metrics(run.stdout_bytes)
        layers.update(trace_accounting(run, replay, layers, len(tracer)))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        extra = {"digest_mismatches": mismatched}
    else:
        run = measure(program, reference, op_rounds, args.seconds, MIN_OPS)
        failed = run.ok.count(False)
        setup = [t * KERNEL_REF_S / k for t, k in probes]
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in end_to_end(run, run.scaled, setup).items()}
        extra = {"unscaled": {k: v for k, (v, _) in end_to_end(
            run, run.seconds, [t for t, _ in probes]).items()}}

    scaled = run.scaled
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
        "rounds": run.rounds, "ops": len(run.ops),
        "ops_by_kind": dict(Counter(op.kind for op in run.ops)),
        "p50_ms_by_kind": {
            kind: statistics.median(t for op, t in zip(run.ops, scaled) if op.kind == kind) * 1e3
            for kind in sorted({op.kind for op in run.ops})},
        "percentile_samples": len(run.seconds),
        "setup_samples": len(probes),
        "work_unit": WORK_UNIT[args.workload],
        "error_rate": failed / len(run.ops),
        "first_failure": run.first_failure,
        "timed_cpu_s": run.total,
        "kernel_ms_mean": statistics.fmean(run.kernel) * 1e3,
        **extra,
    }
    if args.trace:
        path = BENCH / "out" / f"{args.workload}.spans"
        tracer.write(path, info)
        info["spans_file"] = str(path.relative_to(ROOT))
    print_report(info, metrics)
    print("record " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": len(run.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("work_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("hit_ratio", ".yield")):
        return "ratio"
    return "count"


def print_report(info: dict, metrics: dict) -> None:
    print(f"workload {info['workload']}  seed {info['seed']}  trace {info['trace']}  "
          f"python {info['python']}  git {info['git_sha'][:12]}  nproc {info['nproc']}")
    kinds = ", ".join(f"{k} {n}" for k, n in sorted(info["ops_by_kind"].items()))
    print(f"ops {info['ops']} in {info['rounds']} rounds ({kinds}); "
          f"{info['percentile_samples']} samples per percentile")
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items() if m["value"]]
    for name, value, unit in rows + [("error_rate", info["error_rate"], "ratio")]:
        print(f"  {name:<52} {value:>16.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
