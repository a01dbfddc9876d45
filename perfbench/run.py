"""oddcycle benchmark: run one workload on one seed and print its metrics.

    python3 perfbench/run.py --workload experiment --seed 42 --seconds 20 --trace 0

With ``--trace 0`` the workload's fixed job runs with tracing off, again
while the last job's time still fits in ``--seconds``, and the end-to-end
metrics are the medians over those jobs; set-up time is the median of
several fresh-interpreter probes.  With ``--trace 1`` the job runs once
untraced and once traced, and the per-layer metrics come from the traced
job's spans (written to ``.bench_runs/``).  Every job's outputs are
checked, and repeated jobs on the seed must give identical digests.

Run from the root of a checkout; the last line of standard output is the
JSON result.  Exits with code 2, printing no result, when the checkout has
no ``src/oddcycle``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 7

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".calls", ".starts", ".tables", ".iterations", ".nodes", ".attempts", ".spans")):
        return "count"
    if name.endswith(("share", ".acceptance")):
        return "ratio"
    if name.endswith(".ms_per_start"):
        return "ms"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    raise ValueError(f"no unit for {name}")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_job(workload, inp) -> dict:
    gc.collect()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    ops = workload.run(inp, RUNS)
    end = time.perf_counter()
    return {"ops": ops, "wall": end - start, "cpu": cpu_seconds() - cpu0, "start": start, "end": end}


def setup_seconds(name: str, seed: int, size: str) -> float:
    """Median of fresh-interpreter probes, after one that warms the file
    and bytecode caches."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed), size]
    times = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


class Tally:
    """Operations attempted and failed over a run's jobs, and the first
    job's digest, which every later job on the seed must repeat."""

    def __init__(self, workload, inp):
        self.workload = workload
        self.inp = inp
        self.attempted = 0
        self.failures = []
        self.digest = None

    def add(self, ops: list, label: str):
        """An operation fails when it raised, was refused, or failed a check."""
        self.attempted += len(ops)
        for op in ops:
            if "error" in op:
                msgs = [op["error"]]
            else:
                try:
                    msgs = self.workload.check_op(self.inp, op)
                except Exception as exc:  # a malformed output fails its check
                    msgs = [f"check raised {type(exc).__name__}: {exc}"]
            if msgs:
                self.failures.append(f"{label} op {op['name']}: {'; '.join(msgs)}")
        digest = self.workload.digest(ops)
        if self.digest is None:
            self.digest = digest
            return
        self.attempted += 1
        if digest != self.digest:
            self.failures.append(f"{label}: digest {digest} differs from the first job's {self.digest}")


def timed_run(tally, args) -> tuple:
    setup = setup_seconds(args.workload, args.seed, args.size)
    walls, cpus = [], []
    while True:
        job = run_job(tally.workload, tally.inp)
        if args.inject_fault and not walls:
            tally.workload.corrupt(job["ops"])
        # outputs are checked and dropped job by job, so repeats do not
        # raise the peak memory
        tally.add(job.pop("ops"), f"job {len(walls)}")
        walls.append(job["wall"])
        cpus.append(job["cpu"])
        if sum(walls) + walls[-1] > args.seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"jobs {len(walls)}: wall " + " ".join(f"{w:.3f}" for w in walls)]
    return metrics, E2E_UNITS, notes


def traced_run(tally, args) -> tuple:
    import spans

    plain = run_job(tally.workload, tally.inp)
    tally.add(plain.pop("ops"), "untraced job")
    with spans.Tracer() as tracer:
        traced = run_job(tally.workload, tally.inp)
    if args.inject_fault:
        tally.workload.corrupt(traced["ops"])
    tally.add(traced["ops"], "traced job")
    metrics = spans.span_metrics(tracer.spans, tracer.counts, traced["start"], traced["end"])
    metrics["cli.report_bytes"] = sum(len(op["report"].encode()) for op in traced["ops"] if op.get("report"))
    metrics["trace.wall_s"] = traced["wall"]
    metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
    path = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(path, traced["start"])
    units = {name: layer_unit(name) for name in metrics}
    notes = [f"untraced wall {plain['wall']:.3f} s, traced wall {traced['wall']:.3f} s", f"spans written to {path}"]
    return metrics, units, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("experiment", "values", "topology"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    parser.add_argument("--inject-fault", action="store_true", help="plant a wrong output (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "oddcycle" / "__init__.py").is_file():
        print(f"error: no oddcycle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    RUNS.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally(workload, workload.inputs(args.seed, args.size))
    run = traced_run if args.trace else timed_run
    metrics, units, notes = run(tally, args)
    attempted, failures = tally.attempted, tally.failures
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    for line in notes:
        print(line)
    print(f"digest {tally.digest}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    print(f"{'error_rate':48s} {len(failures) / attempted:>16.6g} ratio ({len(failures)} of {attempted} failed)")
    for line in failures[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
