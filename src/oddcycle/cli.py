"""Command-line front end.

One binary with subcommands {value, qvalue, repeat, pearls, blocker, foam,
norms, experiment}.  Configuration precedence is flags > config file >
defaults; the config file is a JSON object with optional global keys
(seed, out, threads) and per-command sections over the same keys, and
anything else in it is a usage error.  Reports are emitted as
deterministic JSON (and CSV for sweeps) into the output directory and
echoed to stdout; wall-clock timings go into a separate manifest file so
that fixed-seed reports stay byte-identical.

Exit codes: 0 success, 1 computation refusal (budget or sampling abort),
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .games import (
    BudgetExceeded,
    GameError,
    StrategyError,
    classical_value_exact,
    classical_value_search,
    make_chsh_game,
    make_odd_cycle_game,
    random_strategy,
    repetition_decay_check,
    strategy_from_coordinate_rule,
)
from .quantum import (
    QuantumError,
    optimize_angles,  # unused here; perfbench/spans.py traces this binding
    quantum_advantage_report,
    win_probability,  # unused here; perfbench/spans.py traces this binding
)
from .regions import (
    RegionError,
    blocker_integral_bound,
    build_pearl,
    diamond_norm,
    grow_consistent_cycle,
    l2_sandwich,
    lambda_measure,
    value_via_regions,
)
from .serialize import digest, dumps
from .torus import (
    TorusError,
    TorusGraph,
    min_blocker,
    transverse_cut_blocker,
    verify_blocker,
)
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    SamplingError,
    classical_reference,
    estimate_events,
    foam_probes,
)

USAGE_ERRORS = (GameError, TorusError, QuantumError, RegionError, ExperimentError, StrategyError, ValueError)
REFUSALS = (BudgetExceeded, SamplingError)


def emit_report(text: str, out_dir: Path, name: str, sweep_rows=()) -> list:
    """Write the encoded report and one sweep-n<k>.csv per n of the sweep
    rows; returns the written paths.  CSV rows use the fixed sweep schema
    theta,ratio,phat,halfwidth, with floats in the report's format."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ValueError(f"--out {out_dir}: {exc.strerror or exc}") from None
    report_path = out_dir / f"{name}.json"
    report_path.write_text(text)
    paths = [report_path]
    by_n: dict = {}
    for row in sweep_rows:
        by_n.setdefault(row["n"], []).append(row)
    for n_key, group in sorted(by_n.items()):
        lines = ["theta,ratio,phat,halfwidth"]
        for row in group:
            lines.append(",".join(str(row[k]) for k in ("theta", "ratio", "phat", "halfwidth")))
        csv_path = out_dir / f"sweep-n{n_key}.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        paths.append(csv_path)
    return paths


def _write_manifest(out_dir: Path, command: str, params: dict, seed, timings: dict, outputs: list, manifest_id: str):
    manifest = {
        "schema": "oddcycle.manifest/1",
        "command": command,
        "params": params,
        "seed": seed,
        "version": __version__,
        "timings_seconds": timings,
        "outputs": [str(p) for p in outputs],
        "manifest_id": manifest_id,
    }
    (out_dir / f"{command}-manifest.json").write_text(dumps(manifest, indent=2) + "\n")


def _parse_vector(text: str) -> list:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _parse_steps(text: str) -> list:
    steps = []
    for part in text.split(";"):
        if part.strip():
            steps.append(tuple(int(x) for x in part.split(",")))
    return steps


def _read_json(path: str):
    """The JSON value in a file named on the command line; a file that
    cannot be read or is not JSON is a usage error."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None


def _load_graph(args) -> TorusGraph:
    if getattr(args, "graph", None):
        return TorusGraph.from_json(_read_json(args.graph))
    removed = frozenset()
    if getattr(args, "removed", "none") == "transverse":
        removed = transverse_cut_blocker(args.n, args.d)
    return TorusGraph(args.n, args.d, removed)


# -- subcommand handlers ---------------------------------------------------------


def _cmd_value(args) -> dict:
    if args.method != "search":
        search_only = {"--iterations": args.iterations, "--target": args.target}
        stray = [flag for flag, v in search_only.items() if v is not None]
        if stray:
            raise GameError(f"{' and '.join(stray)} apply only to --method search")
    elif args.iterations is None:
        args.iterations = 100_000  # set on args so the manifest records it
    if args.game == "odd-cycle":
        if args.delta is not None:
            raise GameError("--delta applies only to --game chsh")
        game = make_odd_cycle_game(args.n, args.d)
    else:
        delta = None
        if args.delta:
            bits = [int(b) for b in args.delta.split(",")]
            if len(bits) != 4:
                raise GameError("delta expects 4 bits for (0,0),(0,1),(1,0),(1,1)")
            delta = {(0, 0): bits[0], (0, 1): bits[1], (1, 0): bits[2], (1, 1): bits[3]}
        game = make_chsh_game(args.d, delta)
    if args.method == "exhaustive":
        report = classical_value_exact(game, mode="full")
    elif args.method == "best-response":
        report = classical_value_exact(game)
    else:
        report = classical_value_search(game, seed=args.seed, iterations=args.iterations, target=args.target)
    return {
        "schema": "oddcycle.value/1",
        "game": game.to_json(),
        "report": report.to_json(),
    }


def _cmd_qvalue(args) -> dict:
    rep = quantum_advantage_report(args.n, theta=args.theta, oracle_seed=args.seed, epsilon=args.epsilon)
    rep["schema"] = "oddcycle.qvalue/1"
    return rep


def _cmd_repeat(args) -> dict:
    game = make_odd_cycle_game(args.n, args.d)  # rejects a bad n or d also when --value is given
    # the single round first: where it is over budget, no depth-d search runs
    single = classical_value_exact(make_odd_cycle_game(args.n, 1)).exact
    if args.value is not None:
        value, source = args.value, "supplied"
    else:
        ref = classical_reference(game, seed=args.seed, iterations=args.iterations)
        value = float(ref["value"])
        source = "exact" if ref["exact"] else "search-lower-bound"
        if ref["method"] == "wedge-witness":
            source = "wedge-witness"
    diag = repetition_decay_check(args.n, args.d, value)
    diag["value_source"] = source
    diag["product_bound"] = float(single) ** args.d
    diag["schema"] = "oddcycle.repeat/1"
    return diag


def _cmd_pearls(args) -> dict:
    import numpy as np

    if args.graph is not None and not args.grow:
        raise RegionError("--graph applies only to --grow")
    if args.max_points < 0:
        raise RegionError(f"--max-points must be at least 0, got {args.max_points}")
    n, d = args.n, args.d
    game = make_odd_cycle_game(n, d)
    if args.strategy == "xmod2":
        table = strategy_from_coordinate_rule(game, lambda x: x % 2).alice_table
    else:
        table = random_strategy(game, np.random.default_rng(args.seed)).alice_table
    pearl = build_pearl(table, n, d)
    value = value_via_regions(table, n, d)
    out = {
        "schema": "oddcycle.pearls/1",
        "n": n,
        "d": d,
        "strategy": args.strategy,
        "value": {"fraction": str(value), "float": float(value)},
        "pearl": pearl.to_json(),
    }
    if args.grow:
        g = _load_graph(args)
        growth = grow_consistent_cycle(g, table, seed=args.seed, max_points=args.max_points)
        keys = ("center", "points", "completed", "even", "homotopy_zero", "consistent", "trace", "diagnostic")
        out["growth"] = {k: growth[k] for k in keys}
    return out


def _cmd_blocker(args) -> dict:
    g = _load_graph(args)
    out = {"schema": "oddcycle.blocker/1", "graph": g.to_json(), "mode": args.mode}
    if args.action == "verify":
        res = verify_blocker(g, args.mode)
        out["blocked"] = res["blocked"]
        out["witness"] = res["witness"].to_json() if res["witness"] else None
        if res["blocked"]:
            out["labeling"] = {
                ",".join(str(c) for c in v): list(lift)
                for v, lift in sorted(res["labeling"].items())
            }
    elif args.action in ("min", "min-heuristic"):
        method = "exact" if args.action == "min" else "heuristic"
        res = min_blocker(g, args.mode, method=method)
        out["size"] = res["size"]
        out["edges"] = sorted([list(v), a] for v, a in res["edges"])
        out["method"] = res["method"]
        if res.get("upper_bound_only"):
            out["upper_bound_only"] = True
    else:
        raise TorusError(f"unknown action {args.action!r}")
    return out


def _cmd_foam(args) -> dict:
    out = foam_probes(d=args.d, samples=args.samples, seed=args.seed, lesssim_c=args.lesssim_c)
    out["schema"] = "oddcycle.foam/1"
    return out


def _cmd_norms(args) -> dict:
    out = {"schema": "oddcycle.norms/1"}
    if args.vector:
        vec = _parse_vector(args.vector)
        method = "monte-carlo" if args.monte_carlo else "exact-enumeration"
        res = diamond_norm(vec, method=method, seed=args.seed, samples=args.mc_samples)
        res.update(sandwich=l2_sandwich(vec))
        out["diamond"] = res
    if args.segments:
        segs = [_parse_vector(p) for p in args.segments.split(";") if p.strip()]
        out["lambda"] = lambda_measure(segs)
    if args.curve:
        steps = _parse_steps(args.curve)
        out["integral_bound"] = blocker_integral_bound(steps, args.n, args.epsilon)
    if len(out) == 1:
        raise RegionError("norms: nothing to compute (pass --vector, --segments, or --curve)")
    return out


def _cmd_experiment(args) -> tuple:
    grid = {"theta_grid": tuple(float(x) for x in args.theta_grid.split(","))} if args.theta_grid else {}
    config = ExperimentConfig(
        n_values=tuple(int(x) for x in args.n_values.split(",")),
        d=args.d,
        samples=args.samples,
        epsilon1=args.epsilon,
        epsilon2=args.epsilon,
        epsilon3=args.epsilon,
        seed=args.seed,
        keep_per_sample=args.per_sample,
        **grid,
    )
    report = estimate_events(config)
    return report.to_json(), report.sweep_rows()


@functools.lru_cache(maxsize=1)  # built on the first call, shared after
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oddcycle", description=__doc__)
    parser.add_argument("--config", help="JSON config file (flags win over it)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None, help="accepted; every command runs on one thread")

    p = sub.add_parser("value", help="classical game values")
    common(p)
    p.add_argument("--game", choices=("odd-cycle", "chsh"), required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--method", choices=("exhaustive", "best-response", "search"), default="exhaustive")
    p.add_argument("--iterations", type=int, default=None, help="search only (default 100000)")
    p.add_argument("--target", type=float, default=None, help="search only")
    p.add_argument("--delta", default=None, help="CHSH twist bits for (0,0),(0,1),(1,0),(1,1)")

    p = sub.add_parser("qvalue", help="quantum strategy values")
    common(p)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.01)

    p = sub.add_parser("repeat", help="parallel repetition diagnostics")
    common(p)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--value", type=float, default=None)
    p.add_argument("--iterations", type=int, default=200_000, help="search budget, used only at d >= 3")

    p = sub.add_parser("pearls", help="consistent regions and growth")
    common(p)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--strategy", choices=("xmod2", "random"), default="xmod2")
    p.add_argument("--grow", action="store_true")
    p.add_argument("--max-points", type=int, default=6)
    p.add_argument("--graph", default=None, help="torus graph JSON file")
    p.add_argument("--removed", choices=("none", "transverse"), default="transverse")

    p = sub.add_parser("blocker", help="verify a blocker or give the minimum one")
    common(p)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--graph", default=None)
    p.add_argument("--removed", choices=("none", "transverse"), default="none")
    p.add_argument("--mode", choices=("all-nontrivial", "odd-only"), default="all-nontrivial")
    p.add_argument("--action", choices=("verify", "min", "min-heuristic"), default="verify")

    p = sub.add_parser("foam", help="foam probability probes (n = 2)")
    common(p)
    p.add_argument("--d", type=int, choices=(2, 3), default=2)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--lesssim-c", type=float, default=2.0)

    p = sub.add_parser("norms", help="diamond norm, lambda measure, integral bound")
    common(p)
    p.add_argument("--vector", default=None)
    p.add_argument("--monte-carlo", action="store_true")
    p.add_argument("--mc-samples", type=int, default=4096)
    p.add_argument("--segments", default=None)
    p.add_argument("--curve", default=None)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=0.01)

    p = sub.add_parser("experiment", help="seeded Monte Carlo estimators")
    common(p)
    p.add_argument("--n-values", default="3,5")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--theta-grid", default=None)
    p.add_argument("--per-sample", action="store_true", help="include per-sample ratios in the report")
    return parser


CONFIG_KEYS = {"seed": int, "threads": int, "out": Path}


def _check_config(conf, where: str, sections=()):
    if not isinstance(conf, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key, value in conf.items():
        if key in sections:
            _check_config(value, f"config section {key!r}")
        elif key not in CONFIG_KEYS:
            raise ValueError(f"{where}: unknown key {key!r} (allowed: {', '.join([*CONFIG_KEYS, *sections])})")


def _apply_config(args):
    """Fill unset options from the config file, then builtin defaults.  The
    file holds a JSON object over the keys seed, threads and out and the
    command names; each command's section is an object over the same three
    keys and wins over the global ones."""
    file_conf = _read_json(args.config) if args.config else {}
    _check_config(file_conf, "config", sections=(*HANDLERS, "experiment"))
    section = file_conf.get(args.command, {})
    defaults = {"seed": 0, "threads": 1, "out": os.environ.get("ODDCYCLE_OUT", "reports")}
    for name, kind in CONFIG_KEYS.items():
        value = getattr(args, name)
        if value is None:
            value = section.get(name, file_conf.get(name, defaults[name]))
        try:
            setattr(args, name, kind(value))
        except (TypeError, ValueError):
            raise ValueError(f"config: {name} = {value!r} is not a valid {name}") from None
    return args


HANDLERS = {
    "value": _cmd_value,
    "qvalue": _cmd_qvalue,
    "repeat": _cmd_repeat,
    "pearls": _cmd_pearls,
    "blocker": _cmd_blocker,
    "foam": _cmd_foam,
    "norms": _cmd_norms,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args)
        timings = {}
        t0 = time.perf_counter()
        sweep_rows = ()
        if args.command == "experiment":
            result, sweep_rows = _cmd_experiment(args)
        else:
            result = HANDLERS[args.command](args)
        timings["compute"] = time.perf_counter() - t0
        params = {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in sorted(vars(args).items())
            if k not in ("command", "config") and v is not None
        }
        # the identity covers result-determining parameters only: where the
        # report lands and how many workers ran never change the computed bytes
        identity = {k: v for k, v in params.items() if k not in ("out", "threads")}
        result["manifest_id"] = digest(
            {"command": args.command, "params": identity, "seed": args.seed, "version": __version__}
        )
        t1 = time.perf_counter()
        text = dumps(result, indent=2) + "\n"
        outputs = emit_report(text, args.out, f"{args.command}-report", sweep_rows)
        timings["emit"] = time.perf_counter() - t1
        _write_manifest(args.out, args.command, params, args.seed, timings, outputs, result["manifest_id"])
        sys.stdout.write(text)
        return 0
    except REFUSALS as exc:
        sys.stdout.write(dumps({"refusal": str(exc), "exit": 1}, indent=2) + "\n")
        return 1
    except USAGE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
