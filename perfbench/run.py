"""Benchmark of crossflow: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload saturated|light|tradeoff|all \
        --seed N --seconds T --trace 0|1

Run from the repository root; the package is imported from ./src.
`all` runs the three workloads one after another, each in a fresh
process, and prints each one's report and result lines.

--trace 0 runs rounds of the workload for about T seconds with tracing
off, timing every operation and checking every output.  The last stdout
line is the result, {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics of BENCHMARK.json:

  setup_s           median over 7 fresh processes, spread over the run, of
                    the seconds to import crossflow, build the workload's
                    inputs and make one warm-up call
  round_ref.p50     median over rounds of the round's CPU time in units
                    of the reference kernel (see reference.py)
  peak_rss_mb       peak resident memory of the benchmark process

The line before it is a report with every figure by name and unit: raw
round times (CPU and wall), per-request latency percentiles with their
sample counts, vehicles per second at the stated fleet size, failed over
attempted operations, the simulated mean delay and gate hold, a
fingerprint of the simulated outcomes, and the machine.

--trace 1 runs the workload's fixed prefix rounds twice, untraced and
with tracing wrappers installed, and reports the per-layer metrics plus
the tracing overhead of the same rounds: traced minus untraced wall
seconds, and traced over untraced CPU time in reference units, less 1.
The two passes must give the same fingerprint.  Spans go to
perfbench/out/spans-<workload>-seed<N>.csv.gz.

Exit codes: 0 with a result line (which may say correct: false), 2 when
the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 7
SETUP_TIMEOUT_S = 60
# longest gap between two samples of the reference kernel
REFERENCE_PERIOD_S = 0.25
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Seconds a fresh process takes to import crossflow, build the
    workload's inputs and make one warm-up call."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("setup probe failed:\n" + proc.stderr)
    return float(proc.stdout.split()[-1])


class ReferenceClock:
    """Samples of the reference kernel's CPU time, taken between operations."""

    def __init__(self) -> None:
        self.samples = []
        self.sample()

    def sample(self) -> None:
        self.samples.append(reference.cpu_s())
        self.last = time.perf_counter()

    def tick(self) -> int:
        """Sample if the last sample is REFERENCE_PERIOD_S old; return the
        index of the latest sample."""
        if time.perf_counter() - self.last >= REFERENCE_PERIOD_S:
            self.sample()
        return len(self.samples) - 1

    def around(self, index: int) -> float:
        """Mean of sample `index` and the one after it."""
        return 0.5 * (self.samples[index] + self.samples[index + 1])


def timed(kind: str, fn, args, op_type):
    """Run fn(*args) and time it; an exception fails the operation."""
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        value, error = fn(*args), None
    except Exception:
        value, error = None, traceback.format_exc(limit=3)
    return op_type(kind, time.process_time() - cpu, time.perf_counter() - wall, value, error)


def run_rounds(w, tally, first: int, count: int, seconds: float, tracer=None,
               clock: ReferenceClock = None, after_round=None) -> list:
    """Run rounds first, first+1, ... and return each round's operations.

    Runs `count` rounds, then, while `seconds` is positive, keeps going as
    long as another round is expected to finish inside that many seconds
    from the start.  With a tracer, the operations and the audit run with
    its wrappers installed; the checks never do.  With a clock, each
    operation's reference_s is the reference time around it.
    after_round(elapsed) is called after every round.
    """
    from workloads import Op

    start = time.perf_counter()
    rounds, pending = [], []
    index = first
    while True:
        inputs = w.inputs(index)
        ops = []
        with tracer if tracer is not None else nullcontext():
            for kind, fn, args in w.operations(inputs):
                before = clock.tick() if clock is not None else None
                ops.append(timed(kind, fn, args, Op))
                if clock is not None:
                    clock.tick()
                    pending.append((ops[-1], before))
            audits = w.audit(inputs, ops)
        w.verify(inputs, ops, audits, tally, in_prefix=index < w.prefix_rounds)
        for op in ops:
            op.value = None  # keep only the timings, so memory does not grow per round
        rounds.append(ops)
        index += 1
        if after_round is not None:
            after_round(time.perf_counter() - start)
        elapsed = time.perf_counter() - start
        if len(rounds) >= count and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    if clock is not None:
        clock.sample()
        for op, before in pending:
            op.reference_s = clock.around(before)
    return rounds


def percentiles(values: list, scale: float = 1e3) -> dict:
    """Median and the highest of p99/p95/p90/p75 with ten samples beyond it."""
    scaled = sorted(v * scale for v in values)
    out = {"count": len(scaled), "p50": statistics.median(scaled)}
    for pct in (99, 95, 90, 75):
        if len(scaled) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(scaled, n=100)[pct - 1]
            break
    return out


def op_times(rounds: list, kind: str = None, field: str = "wall_s") -> list:
    return [getattr(op, field) for ops in rounds for op in ops if kind in (None, op.kind)]


def round_sums(rounds: list, value) -> list:
    return [sum(value(op) for op in ops) for ops in rounds]


def mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def measure_traced(w, args, workloads, report: dict):
    import tracing

    # the untraced and traced passes alternate round by round and swap
    # order every round, so slow spells of a shared machine and first-pass
    # effects hit both alike
    tally, traced_tally = workloads.Tally(), workloads.Tally()
    tracer = tracing.Tracer()
    clock = ReferenceClock()
    untraced, traced = [], []
    for index in range(w.prefix_rounds):
        passes = [(untraced, tally, None), (traced, traced_tally, tracer)]
        for rounds, pass_tally, pass_tracer in passes[::1 if index % 2 == 0 else -1]:
            rounds += run_rounds(w, pass_tally, index, 1, 0.0, pass_tracer, clock)
    plain_s = sum(op_times(untraced))
    traced_s = sum(op_times(traced))
    # the share is taken in reference units, which a change of host speed
    # between the two passes does not move
    plain_ref, traced_ref = (sum(round_sums(rounds, lambda op: op.cpu_s / op.reference_s))
                             for rounds in (untraced, traced))
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in tracer.per_layer().items()}
    metrics.update({
        "cli.output_bytes": {"value": traced_tally.output_bytes, "unit": "bytes"},
        "sim.mean_hold_s": {"value": mean(traced_tally.holds), "unit": "sim_s"},
        "sim.mean_delay_s": {"value": mean(traced_tally.delays), "unit": "sim_s"},
        "trace.overhead_s": {"value": traced_s - plain_s, "unit": "s"},
        "trace.overhead_frac": {"value": traced_ref / plain_ref - 1.0, "unit": "ratio"},
    })
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{w.name}-seed{args.seed}.csv.gz")
    tracer.write_spans(spans_path)
    same = traced_tally.fingerprint() == tally.fingerprint()
    failed = tally.failed + traced_tally.failed
    report.update({
        "rounds": len(traced),
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "untraced_cpu_s": sum(op_times(untraced, field="cpu_s")),
        "traced_cpu_s": sum(op_times(traced, field="cpu_s")),
        "fingerprint": traced_tally.fingerprint(),
        "fingerprint_untraced": tally.fingerprint(),
        "fingerprints_match": same,
        "failures": tally.failures + traced_tally.failures,
    })
    return {"correct": failed == 0 and same, "attempted": tally.attempted + traced_tally.attempted,
            "failed": failed, "metrics": metrics}


def measure_untraced(w, args, workloads, report: dict):
    tally = workloads.Tally()
    clock = ReferenceClock()
    setup = []

    def after_round(elapsed: float) -> None:
        # spread the set-up probes over the run, like the rounds
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(setup_probe(w.name, args.seed))

    phase_start = time.perf_counter()
    rounds = run_rounds(w, tally, 0, w.prefix_rounds, args.seconds, clock=clock,
                        after_round=after_round)
    phase_s = time.perf_counter() - phase_start
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(w.name, args.seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    round_ref = round_sums(rounds, lambda op: op.cpu_s / op.reference_s)

    report.update({
        "setup_s": {"value": statistics.median(setup), "unit": "s", "samples": setup},
        "wall_s": {"value": phase_s, "unit": "s"},
        "round_ref": {"unit": "ref", **percentiles(round_ref, 1.0)},
        "round_ms": {"unit": "ms",
                     "cpu": percentiles(round_sums(rounds, lambda op: op.cpu_s)),
                     "wall": percentiles(round_sums(rounds, lambda op: op.wall_s))},
        "reference_ms": {"unit": "ms", **percentiles(clock.samples)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "failed_frac": {"value": tally.failed / tally.attempted, "unit": "ratio",
                        "failed": tally.failed, "attempted": tally.attempted},
        "failures": tally.failures,
        "fingerprint": {"sha256": tally.fingerprint(), "rounds": w.prefix_rounds},
    })
    if w.name == "tradeoff":
        for kind in ("plan", "sweep"):
            report[f"{kind}_ms"] = {"unit": "ms", **percentiles(op_times(rounds, kind))}
    else:
        report["vehicles_per_s"] = {"value": tally.vehicles / sum(op_times(rounds)),
                                    "unit": "1/s", "fleet_size": w.vehicles}
        report["mean_delay_s"] = {"value": mean(tally.delays), "unit": "s (simulated)"}
        report["mean_hold_s"] = {"value": mean(tally.holds), "unit": "s (simulated)"}
        report["fingerprint"]["sample_rows"] = tally.prefix_sample_rows
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "round_ref.p50": {"value": statistics.median(round_ref), "unit": "ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crossflow", "__init__.py")):
        print(f"error: no crossflow package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2
    # one thread: keep numpy's BLAS from starting workers, here and in probes
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import workloads

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, scratch)
        w.warm_up()
        report = {"workload": w.name, "seed": args.seed, "machine": machine()}
        measure = measure_traced if args.trace else measure_untraced
        result = measure(w, args, workloads, report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
