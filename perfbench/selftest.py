"""Check that tracing changes no result.

    python3 perfbench/selftest.py

For each workload, runs one small round untraced and then traced, and
fails unless both give the same fingerprint with no failed operation,
the tracer recorded spans, and every wrapped name is restored afterwards.
Exits 0 when every workload passes.
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_FLEET = 12


def check(name: str, scratch: str) -> list:
    cls = workloads.WORKLOADS[name]
    w = cls(3, scratch) if name == "tradeoff" else cls(3, scratch, vehicles=SMALL_FLEET)
    originals = {
        (module, attr): getattr(sys.modules[module], attr) for module, attr, _ in tracing.TARGETS
    }
    plain, traced = workloads.Tally(), workloads.Tally()
    tracer = tracing.Tracer()
    run.run_rounds(w, plain, 0, 1, 0.0)
    run.run_rounds(w, traced, 0, 1, 0.0, tracer)
    problems = plain.failures + traced.failures
    if plain.fingerprint() != traced.fingerprint():
        problems.append("traced and untraced fingerprints differ")
    if not tracer.spans:
        problems.append("the tracer recorded no span")
    for (module, attr), original in originals.items():
        if getattr(sys.modules[module], attr) is not original:
            problems.append(f"{module}.{attr} was not restored")
    return problems


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    failed = False
    try:
        for name in workloads.WORKLOADS:
            problems = check(name, scratch)
            print(f"{name}: {'ok' if not problems else '; '.join(problems)}")
            failed = failed or bool(problems)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
