"""The three benchmark workloads: seeded inputs, the timed job, and the
output checks.

Every workload is a fixed list of operations (a CLI call or a library
call).  ``inputs`` builds what the operations need from the seed; it is
what the set-up probe times.  ``run`` is the timed job and records, per
operation, its outputs or the exception it raised.  ``check_op`` returns
one message per failed check of one operation and runs outside the timed
region.  ``corrupt`` plants a wrong output, for the harness self-test.
``digest`` hashes the deterministic outputs, so repeated jobs on one seed
can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from oddcycle import cli, experiments, games, regions, torus

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 42
EXPERIMENT_REFERENCE = HERE / "reference" / "experiment-seed42.json"

SIZES = {
    "full": {
        "experiment": {"n_values": (3, 5), "samples": 60},
        "values": {"chsh_d": 3, "search_iterations": 100_000, "qvalue_n": tuple(range(3, 16, 2))},
        "topology": {
            "tiny_accepts": 300,
            "law_n": (9, 15),
            "law_accepts": 800,
            "heuristic": ((21, 2), (31, 2), (7, 3)),
        },
    },
    "tiny": {
        "experiment": {"n_values": (3,), "samples": 2},
        "values": {"chsh_d": 2, "search_iterations": 2_000, "qvalue_n": (3, 5)},
        "topology": {
            "tiny_accepts": 3,
            "law_n": (9,),
            "law_accepts": 3,
            "heuristic": ((5, 2),),
        },
    },
}

# classical CHSH^d values the exhaustive engine must reproduce
CHSH_VALUES = {2: Fraction(5, 8), 3: Fraction(31, 64)}
TINY_LAW = {"kind": "uniform-size", "size": 7}
MODES = ("all-nontrivial", "odd-only")
PROBABILITY_KEYS = ("P_E1", "P_E2", "P_E3_difference", "P_E3_quotient", "P_foam")


def program_seed(seed: int) -> int:
    """The CLI and the samplers take non-negative 31-bit seeds."""
    return seed % (2**31)


def cos2(n: int) -> float:
    """Depth-1 quantum value cos^2(pi/4n) of the odd-cycle game."""
    return math.cos(math.pi / (4 * n)) ** 2


def _cli(argv: list, out_dir: str) -> dict:
    """One in-process CLI call; returns the exit code and the report text."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--out", out_dir])
    report = Path(out_dir) / f"{argv[0]}-report.json"
    return {"rc": rc, "report": report.read_text() if rc == 0 else None}


def _report(op: dict) -> dict:
    if op["rc"] != 0:
        raise ValueError(f"exit code {op['rc']}")
    return json.loads(op["report"])


def _run_ops(calls, scratch: Path) -> list:
    """Run (name, thunk) operations in order; an exception is recorded as
    that operation's outcome, not raised."""
    ops = []
    with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
        for name, thunk in calls:
            try:
                ops.append({"name": name, **thunk(out_dir)})
            except Exception as exc:  # counted as a failed operation
                ops.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
    return ops


def _digest(parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:16]


class Experiment:
    """The paper's estimator through ``oddcycle experiment``."""

    name = "experiment"

    def inputs(self, seed: int, size: str) -> dict:
        cfg = SIZES[size]["experiment"]
        s = program_seed(seed)
        argv = [
            "experiment",
            "--n-values", ",".join(str(n) for n in cfg["n_values"]),
            "--samples", str(cfg["samples"]),
            # one thread: the two-thread pool is GIL-bound, 5-11% slower, and
            # its wall time follows how a shared machine schedules the threads
            "--threads", "1",
            "--seed", str(s),
        ]
        # the games the CLI builds for this job, so construction cost that
        # moves into GameSpec shows in set-up time
        built = [games.make_odd_cycle_game(n, 2) for n in cfg["n_values"]]
        check_reference = size == "full" and seed == REFERENCE_SEED
        return {"argv": argv, "samples": cfg["samples"], "games": built, "check_reference": check_reference}

    def run(self, inp: dict, scratch: Path) -> list:
        return _run_ops([("experiment", lambda out: _cli(inp["argv"], out))], scratch)

    def check_op(self, inp: dict, op: dict) -> list:
        msgs = []
        reference = json.loads(EXPERIMENT_REFERENCE.read_text()) if inp["check_reference"] else None
        for key, agg in sorted(_report(op)["per_n"].items()):
            n = int(key)
            if agg["used"] + agg["excluded"] != inp["samples"]:
                msgs.append(f"n={n}: used + excluded != samples")
            probs = [agg[k] for k in PROBABILITY_KEYS] + agg["sweep_phat"]
            probs += list(agg["event_frequencies"].values())
            probs += list(agg["possibility_frequencies"].values())
            if not all(0.0 <= p <= 1.0 for p in probs):
                msgs.append(f"n={n}: probability outside [0, 1]")
            if not 0.0 < agg["acceptance_rate"] <= 1.0:
                msgs.append(f"n={n}: acceptance rate outside (0, 1]")
            ordered = sorted(zip(agg["theta_grid"], agg["sweep_phat"]))
            if any(b[1] > a[1] + 1e-12 for a, b in zip(ordered, ordered[1:])):
                msgs.append(f"n={n}: sweep not monotone")
            if agg["q_full"] < cos2(n) ** 2 - 1e-9:
                msgs.append(f"n={n}: q_full {agg['q_full']} below cos^4(pi/4n)")
            if reference is not None:
                msgs += _against_reference(n, reference_numbers(agg), reference[key])
        return msgs

    def corrupt(self, ops: list):
        report = json.loads(ops[0]["report"])
        next(iter(report["per_n"].values()))["P_E1"] = 1.5
        ops[0]["report"] = json.dumps(report)

    def digest(self, ops: list) -> str:
        return _digest([op.get("report") for op in ops])


def reference_numbers(agg: dict) -> dict:
    """The per-n numbers the stored reference keeps: every probability with
    its binomial half-width, and the angle-optimised full value."""
    out = {k: [agg[k], agg[k + "_halfwidth"]] for k in PROBABILITY_KEYS}
    out["sweep"] = [list(p) for p in zip(agg["sweep_phat"], agg["sweep_halfwidth"])]
    out["q_full"] = agg["q_full"]
    return out


def _against_reference(n: int, got: dict, ref: dict) -> list:
    """Fixture protocol: each probability within its binomial half-width
    (the wider of the two runs'), no optimised value lower by over 1e-9."""
    msgs = []
    pairs = [(k, got[k], ref[k]) for k in PROBABILITY_KEYS]
    pairs += [(f"sweep[{j}]", g, r) for j, (g, r) in enumerate(zip(got["sweep"], ref["sweep"]))]
    for key, (p, hw), (p_ref, hw_ref) in pairs:
        if abs(p - p_ref) > max(hw, hw_ref) + 1e-12:
            msgs.append(f"n={n}: {key} {p} vs reference {p_ref} +- {max(hw, hw_ref)}")
    if got["q_full"] < ref["q_full"] - 1e-9:
        msgs.append(f"n={n}: q_full {got['q_full']} below reference {ref['q_full']}")
    return msgs


class Values:
    """Exact, search and quantum values through ``oddcycle value``/``qvalue``."""

    name = "values"

    def inputs(self, seed: int, size: str) -> dict:
        cfg = SIZES[size]["values"]
        s = str(program_seed(seed))
        calls = [
            ("chsh", ["value", "--game", "chsh", "--d", str(cfg["chsh_d"]), "--method", "best-response"]),
            ("odd-cycle n=3 d=2", ["value", "--game", "odd-cycle", "--n", "3", "--d", "2", "--method", "best-response"]),
            ("search n=5 d=2", ["value", "--game", "odd-cycle", "--n", "5", "--d", "2", "--method", "search",
                                "--iterations", str(cfg["search_iterations"]), "--seed", s]),
        ]
        calls += [(f"qvalue n={n}", ["qvalue", "--n", str(n), "--seed", s]) for n in cfg["qvalue_n"]]
        built = [games.make_chsh_game(cfg["chsh_d"]), games.make_odd_cycle_game(3, 2), games.make_odd_cycle_game(5, 2)]
        built += [games.make_odd_cycle_game(n, 1) for n in cfg["qvalue_n"]]
        return {"calls": calls, "chsh_d": cfg["chsh_d"], "games": built}

    def run(self, inp: dict, scratch: Path) -> list:
        return _run_ops([(name, lambda out, a=argv: _cli(a, out)) for name, argv in inp["calls"]], scratch)

    def check_op(self, inp: dict, op: dict) -> list:
        report = _report(op)
        name = op["name"]
        if name == "chsh":
            got = Fraction(report["report"]["value"]["fraction"])
            want = CHSH_VALUES[inp["chsh_d"]]
            return [] if got == want else [f"CHSH^{inp['chsh_d']} = {got}, expected {want}"]
        if name.startswith("odd-cycle"):
            got = Fraction(report["report"]["value"]["fraction"])
            return [] if got == Fraction(3, 4) else [f"odd-cycle n=3 d=2 = {got}, expected 3/4"]
        msgs = []
        if name.startswith("search"):
            exact = Fraction(report["report"]["value"]["fraction"])
            table = {tuple(q): a for q, a in report["report"]["witness"]["alice"]}
            oracle = regions.value_via_regions(table, 5, 2)
            if oracle != exact:
                msgs.append(f"witness value {oracle} by regions != reported {exact}")
            if exact < Fraction(81, 100):
                msgs.append(f"search value {exact} below (9/10)^2")
            return msgs
        n = report["n"]
        canonical = report["canonical_value"]
        optimized = report["optimized_value"]
        if canonical - (1 - 1 / (2 * n)) < 1e-4:
            msgs.append(f"n={n}: canonical {canonical} within 1e-4 of classical")
        if not canonical - 1e-9 <= optimized <= cos2(n) + 1e-9:
            msgs.append(f"n={n}: optimized {optimized} outside [canonical, cos^2(pi/4n)]")
        return msgs

    def corrupt(self, ops: list):
        report = json.loads(ops[0]["report"])
        report["report"]["value"]["fraction"] = "1/2"
        ops[0]["report"] = json.dumps(report)

    def digest(self, ops: list) -> str:
        return _digest([op.get("report") for op in ops])


class Topology:
    """Torical-graph rejection sampling and blocker search, as library calls."""

    name = "topology"

    def inputs(self, seed: int, size: str) -> dict:
        cfg = SIZES[size]["topology"]
        law = experiments.ExperimentConfig().removal_law
        heuristic = [torus.TorusGraph(n, d) for n, d in cfg["heuristic"]]
        return {
            "seed": program_seed(seed),
            "cfg": cfg,
            "law": law,
            "heuristic": heuristic,
            "exact": torus.TorusGraph(4, 2),
        }

    def run(self, inp: dict, scratch: Path) -> list:
        cfg = inp["cfg"]
        rng = np.random.default_rng(inp["seed"])
        blocker_seed = int(rng.integers(0, 2**31))

        def sample(n, law):
            r = experiments.sample_torical_graph(n, 2, law, rng)
            return {"graph": r["graph"], "attempts": r["attempts"]}

        def blocker(g, mode, method):
            r = torus.min_blocker(g, mode, method=method, seed=blocker_seed)
            return {"graph": g, "mode": mode, "size": r["size"], "edges": r["edges"], "nodes": r.get("nodes")}

        calls = [("sample n=3 size=7", lambda out: sample(3, TINY_LAW))] * cfg["tiny_accepts"]
        for n in cfg["law_n"]:
            calls += [(f"sample n={n}", lambda out, n=n: sample(n, inp["law"]))] * cfg["law_accepts"]
        for g in inp["heuristic"]:
            for mode in MODES:
                calls.append((f"heuristic n={g.n} d={g.d} {mode}", lambda out, g=g, m=mode: blocker(g, m, "heuristic")))
        calls.append(("exact n=4 d=2", lambda out: blocker(inp["exact"], "all-nontrivial", "exact")))
        return _run_ops(calls, scratch)

    def check_op(self, inp: dict, op: dict) -> list:
        g = op["graph"]
        if "attempts" in op:
            res = torus.verify_blocker(g, "odd-only")
            if not res["blocked"]:
                return ["accepted graph has a surviving odd cycle"]
            return [] if parity_certificate(g, res["labeling"]) else ["labelling is not a parity certificate"]
        msgs = []
        bound = g.d * g.n ** (g.d - 1)
        if op["size"] != bound or len(op["edges"]) != bound:
            msgs.append(f"size {op['size']} != d n^(d-1) = {bound}")
        blocked = torus.TorusGraph(g.n, g.d, frozenset(op["edges"]))
        if not torus.verify_blocker(blocked, op["mode"])["blocked"]:
            msgs.append("returned edges do not block")
        return msgs

    def corrupt(self, ops: list):
        ops[-1]["size"] += 1

    def digest(self, ops: list) -> str:
        parts = []
        for op in ops:
            if "error" in op:
                parts.append(op["error"])
            elif "attempts" in op:
                parts.append([op["attempts"], sorted(op["graph"].removed)])
            else:
                parts.append([op["size"], sorted(op["edges"]), op["nodes"]])
        return _digest(parts)


def parity_certificate(g, labeling: dict) -> bool:
    """The Z^d lift labelling certifies that no odd cycle survives when
    every surviving edge changes the label by the unit step up to an even
    vector: then every closed walk has an even displacement."""
    if set(labeling) != set(g.vertices()):
        return False
    for v in g.vertices():
        for axis in range(g.d):
            if (v, axis) in g.removed:
                continue
            u = g.step(v, axis, 1)
            for c in range(g.d):
                if (labeling[v][c] + (c == axis) - labeling[u][c]) % 2:
                    return False
    return True


WORKLOADS = {w.name: w for w in (Experiment(), Values(), Topology())}
