"""Self-test of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py                    # run the checks below
    python3 perfbench/selftest.py --write-reference  # regenerate the stored
                                                     # experiment reference

Checks, for every workload:
- with tracing off and on, the result names exactly the metrics that
  BENCHMARK.json lists, each with its unit, and every output check passes
  on two seeds;
- a planted wrong output raises error_rate above 0;
- two traced runs of one seed give identical digests and counts;
and that in a directory holding only BENCHMARK.json and perfbench/, the
benchmark exits with a non-zero code without printing a result.  Prints the
end-to-end metrics and error_rate of every workload.  Exits 1 on a failure.

The reference is the full-size experiment at the reference seed; regenerate
it only for a deliberate numerics change, and record old and new numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (42, 7)


def bench(workload: str, seed: int, trace: int, *extra, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> tuple:
    """(result, digest) parsed from a run's standard output."""
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def main() -> int:
    problems = []
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench_json["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench_json["per_layer"]}
    table = []
    for w in (x["name"] for x in bench_json["workloads"]):
        for trace, named in ((0, e2e), (1, layer)):
            for seed in SEEDS:
                proc = bench(w, seed, trace)
                if proc.returncode:
                    problems.append(f"{w} trace {trace} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    continue
                result, digest = result_of(proc)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != named:
                    problems.append(f"{w} trace {trace}: metrics/units differ from BENCHMARK.json: "
                                    f"{sorted(set(got.items()) ^ set(named.items()))}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{w} trace {trace} seed {seed}: output checks failed\n{proc.stdout}")
                if trace == 0 and seed == SEEDS[0]:
                    table.append((w, result))
                if trace == 1 and seed == SEEDS[0]:
                    first = (digest, {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
                    again, again_digest = result_of(bench(w, seed, 1))
                    counts = {k: v["value"] for k, v in again["metrics"].items() if v["unit"] == "count"}
                    if (again_digest, counts) != first:
                        problems.append(f"{w}: traced reruns of seed {seed} differ in digest or counts")
        faulty, _ = result_of(bench(w, SEEDS[0], 0, "--inject-fault"))
        if faulty["correct"] or faulty["failed"] == 0:
            problems.append(f"{w}: planted wrong output not detected")
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_runs") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("values", 1, 0, cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("benchmark without the program did not fail cleanly")
    print(f"{'workload':12s}" + "".join(f"{name:>16s}" for name in e2e) + f"{'error_rate':>16s}")
    print(f"{'':12s}" + "".join(f"{unit:>16s}" for unit in e2e.values()) + f"{'ratio':>16s}")
    for w, result in table:
        values = [result["metrics"][name]["value"] for name in e2e]
        rate = result["failed"] / result["attempted"]
        print(f"{w:12s}" + "".join(f"{v:16.4f}" for v in values) + f"{rate:16.4f}")
    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


def write_reference():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    wl = workloads.WORKLOADS["experiment"]
    inp = wl.inputs(workloads.REFERENCE_SEED, "full")
    (ROOT / ".bench_runs").mkdir(exist_ok=True)
    op = wl.run(inp, ROOT / ".bench_runs")[0]
    report = json.loads(op["report"])
    ref = {key: workloads.reference_numbers(agg) for key, agg in sorted(report["per_n"].items())}
    workloads.EXPERIMENT_REFERENCE.parent.mkdir(exist_ok=True)
    workloads.EXPERIMENT_REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPERIMENT_REFERENCE}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-reference"]:
        write_reference()
    else:
        sys.exit(main())
