"""Benchmark for surfclass: one workload, one closed-loop caller, one result line.

    python3 bench/run.py --workload surface2d --seed 1 --seconds 20 --trace 0

A single caller sends the next generated input only after the previous
verdict returns, with no threads.  A run does a fixed number of whole
cycles, set by the workload and --seconds (CYCLES_PER_SECOND), so that
attempted and failed repeat exactly.  Every verdict is checked against the
generator's closed-form answer.  The last line of standard output is a
JSON object with keys correct, attempted, failed and metrics: with
--trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics, computed from spans that are written to
bench/out/spans-<workload>-seed<seed>.jsonl.gz.  The lines before it
summarise the run for a reader.  The exit code is 1 when a verdict is
wrong, 2 when surfclass cannot be imported from src/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_INPUTS = 100  # so that at least 10 timed inputs lie beyond p90
POOL_SHARE = 0.5  # share of a run's verdicts pooled from its fastest cycles
HASHED_INPUTS = 100
IMPORTS = 7  # fresh processes timed for setup_s
# Whole cycles a run does per second of --seconds, untraced and traced,
# set so that the cycles' busy time is about 85% of --seconds on a 2-core
# x86-64 VM at the seed commit.  The amount of work is fixed by workload
# and --seconds, never by the clock, so attempted and failed repeat exactly
# from run to run; a faster or slower surfclass makes the run shorter or
# longer instead.
CYCLES_PER_SECOND = {
    "surface2d": (0.71, 0.35),
    "manifold3d": (1.05, 0.52),
    "search": (0.94, 0.47),
    "cli_small": (3.3, 2.7),
}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import surfclass\n"
    "print(time.perf_counter() - t)\n"
)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_surfclass():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "surfclass" / "__init__.py").is_file():
        fail(f"no surfclass package under {SRC}")
    sys.path.insert(0, str(SRC))
    import surfclass

    if Path(surfclass.__file__).resolve().parent != SRC / "surfclass":
        fail(f"surfclass imported from {surfclass.__file__}, not {SRC}")
    return surfclass


def setup_seconds() -> float:
    """Median time to import surfclass (which builds the catalog) in a
    fresh interpreter, over several processes."""
    times = []
    for _ in range(IMPORTS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


class Tally:
    """Outcome counts and input hash shared by the traced and untraced loops."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: dict[str, int] = {}
        self.digest = hashlib.sha256()

    def record(self, op, outcome, verdict: str) -> None:
        if self.attempted < HASHED_INPUTS:
            self.digest.update(op.text.encode())
            self.digest.update(b"\x00")
        self.attempted += 1
        if verdict == "failed":
            self.failed += 1
            key = f"{op.family}:{type(outcome).__name__}"
            self.errors[key] = self.errors.get(key, 0) + 1
        elif verdict == "wrong":
            self.wrong += 1
            print(f"wrong verdict on {op.family}: {outcome!r}", file=sys.stderr)


def cycle_count(workload: str, seconds: float, traced: bool) -> int:
    return max(1, round(seconds * CYCLES_PER_SECOND[workload][traced]))


def run_untraced(cycles, count: int, tally: Tally) -> dict:
    """Time count whole cycles, and more if they hold fewer than
    MIN_INPUTS verdicts; report the fastest ones.

    Every cycle does the same mix of work, so a cycle's busy time differs
    from another's only by the seeded content and by how much the
    machine's other tenants slowed it.  The metrics pool the fastest
    cycles that together hold POOL_SHARE of the run's verdicts, and at
    least MIN_INPUTS: rates over their busy time, latency percentiles
    over their verdicts.
    """
    runs = []
    samples = 0
    for done, cycle in enumerate(cycles, 1):
        cycle_busy = 0.0
        cells = 0
        latencies: list[float] = []
        for op in cycle:
            start = perf_counter()
            try:
                outcome = op.run()
            except Exception as exc:  # the benchmark keeps going; the failure is counted
                outcome = exc
            elapsed = perf_counter() - start
            verdict = op.check(outcome)
            tally.record(op, outcome, verdict)
            cycle_busy += elapsed
            if verdict != "failed":
                latencies.append(elapsed)
                cells += op.cells
        runs.append((cycle_busy, cells, latencies))
        samples += len(latencies)
        if done >= count and samples >= MIN_INPUTS:
            break
    wanted = max(MIN_INPUTS, POOL_SHARE * samples)
    pool_busy, pool_cells, pool, used = 0.0, 0, [], 0
    for cycle_busy, cells, latencies in sorted(runs, key=lambda r: r[0]):
        used += 1
        pool_busy += cycle_busy
        pool_cells += cells
        pool += latencies
        if len(pool) >= wanted:
            break
    deciles = statistics.quantiles(pool, n=10, method="inclusive")
    return {
        "inputs_per_s": len(pool) / pool_busy,
        "cells_per_s": pool_cells / pool_busy,
        "latency_ms_p50": statistics.median(pool) * 1e3,
        "latency_ms_p90": deciles[8] * 1e3,
        "samples": len(pool),
        "cycles": f"{used} fastest of {len(runs)}",
        "busy_s": sum(r[0] for r in runs),
    }


def run_traced(cycles, count: int, tally: Tally, tr) -> tuple[list[dict], float]:
    busy = 0.0
    inputs = []
    for cycle in itertools.islice(cycles, count):
        for op in cycle:
            tr.input_id = tally.attempted
            start = perf_counter()
            with tr.span("input"):
                with tr.span("call"):
                    try:
                        outcome = op.run()
                    except Exception as exc:  # counted below, as in the untraced loop
                        outcome = exc
                with tr.span("stages"):
                    try:
                        op.stages(tr)
                    except Exception:  # the replay of a failing call fails the same way
                        tr.add("trace.stage_errors", 1)
            busy += perf_counter() - start
            verdict = op.check(outcome)
            inputs.append({"id": tr.input_id, "family": op.family, "cells": op.cells,
                           "fit": op.fit, "repeat": op.repeat, "verdict": verdict})
            tally.record(op, outcome, verdict)
    return inputs, busy


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sc = import_surfclass()
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    count = cycle_count(args.workload, args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    tally = Tally()
    try:
        stream = workloads.WORKLOADS[args.workload](sc, args.seed, scratch)
        if args.trace:
            tr = spans.Tracer()
            gc.collect()
            inputs, busy = run_traced(stream, count, tally, tr)
            values = spans.layer_metrics(tr, inputs)
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tr.write(span_file)
            notes = {"traced_inputs": len(inputs), "spans": len(tr.spans),
                     "span_file": str(span_file.relative_to(ROOT)),
                     "stage_errors": tr.counts.get("trace.stage_errors", 0),
                     "cycles": count, "busy_s": busy}
        else:
            values = {"setup_s": setup_seconds()}
            gc.collect()
            values.update(run_untraced(stream, count, tally))
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            notes = {key: values.pop(key) for key in ("samples", "cycles", "busy_s")}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"inputs_sha256 (first {min(tally.attempted, HASHED_INPUTS)} inputs) "
          f"{tally.digest.hexdigest()}")
    print(f"attempted {tally.attempted}  failed {tally.failed}  "
          f"error_rate {tally.failed / tally.attempted:.6f}  wrong_verdicts {tally.wrong}")
    for kind, k in sorted(tally.errors.items()):
        print(f"  failure {kind} x{k}")
    for key, val in notes.items():
        print(f"{key} {val}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
