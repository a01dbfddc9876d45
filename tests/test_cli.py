import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oddcycle
from oddcycle import cli, games
from oddcycle.cli import main
from oddcycle.experiments import estimate_events
from oddcycle.serialize import dumps


def run_cli(args, tmp_path, monkeypatch=None, capsys=None):
    argv = list(args) + ["--out", str(tmp_path)]
    return main(argv)


def test_value_subcommand_emits_fraction(tmp_path, capsys):
    code = main(["value", "--game", "odd-cycle", "--n", "3", "--method", "exhaustive", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert '"5/6"' in out
    report = json.loads((tmp_path / "value-report.json").read_text())
    assert report["report"]["value"]["fraction"] == "5/6"


def test_value_rejects_even_n(tmp_path, capsys):
    code = main(["value", "--game", "odd-cycle", "--n", "4", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "odd" in err


def test_value_search_rejects_nan_target(tmp_path, capsys):
    argv = ["value", "--game", "odd-cycle", "--n", "3", "--method", "search", "--target", "nan"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "NaN" in capsys.readouterr().err
    assert not (tmp_path / "value-report.json").exists()


@pytest.mark.parametrize("method", ["exhaustive", "best-response"])
@pytest.mark.parametrize("flags", [["--target", "0.1"], ["--iterations", "5"]])
def test_value_search_flags_rejected_for_exact_methods(tmp_path, capsys, monkeypatch, method, flags):
    def no_work(*args, **kwargs):
        raise AssertionError("the game was built")

    monkeypatch.setattr(cli, "make_odd_cycle_game", no_work)
    argv = ["value", "--game", "odd-cycle", "--n", "3", "--method", method, *flags]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert f"{flags[0]} apply only to --method search" in capsys.readouterr().err
    assert not (tmp_path / "value-report.json").exists()


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["norms", "--vector", "1", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {taken}") and err.count("\n") == 1
    assert taken.read_text() == "not a directory\n"


def test_value_iterations_default_applies_to_search_only(tmp_path):
    base = ["value", "--game", "odd-cycle", "--n", "3", "--out", str(tmp_path)]
    assert main(base + ["--method", "search"]) == 0
    manifest = json.loads((tmp_path / "value-manifest.json").read_text())
    assert manifest["params"]["iterations"] == 100_000
    assert main(base + ["--method", "exhaustive"]) == 0
    manifest = json.loads((tmp_path / "value-manifest.json").read_text())
    assert "iterations" not in manifest["params"]


def test_unknown_flag_exits_2(tmp_path):
    # the child imports the same package as this process, also when only
    # pytest's own `pythonpath` setting put it on the path
    src = str(Path(oddcycle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "oddcycle.cli", "value", "--game", "odd-cycle", "--bogus"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2


def test_one_parser_serves_every_call(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    runs = {
        "value": ["value", "--game", "odd-cycle", "--n", "3"],
        "qvalue": ["qvalue", "--n", "3"],
    }

    def report(command: str, out: Path) -> bytes:
        assert main([*runs[command], "--out", str(out)]) == 0
        capsys.readouterr()
        return (out / f"{command}-report.json").read_bytes()

    lone = {}
    for command in runs:
        cli.build_parser.cache_clear()
        lone[command] = report(command, tmp_path / f"lone-{command}")
    for i, command in enumerate(("value", "qvalue", "value")):
        assert report(command, tmp_path / f"run-{i}") == lone[command]


def test_budget_refusal_exits_1(tmp_path, capsys):
    # the refusal names the count that tripped the budget and the budget
    for n, d, tables in ((5, 2, 4**25), (3, 3, 8**27)):
        argv = ["value", "--game", "odd-cycle", "--n", str(n), "--d", str(d), "--method", "best-response"]
        code = main(argv + ["--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        refusal = json.loads(out)["refusal"]
        assert refusal.startswith(f"{tables} alice tables exceed the budget of {1 << 26};")


def test_norms_diamond_vector(tmp_path, capsys):
    code = main(["norms", "--vector", "3,4", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["diamond"]["value"] == 4.0
    assert abs(data["diamond"]["sandwich"]["lower"] - 3.5355339059327373) < 1e-12
    assert data["diamond"]["sandwich"]["upper"] == 5.0


def test_norms_requires_some_input(tmp_path, capsys):
    code = main(["norms", "--out", str(tmp_path)])
    assert code == 2


def test_qvalue_report(tmp_path, capsys):
    code = main(["qvalue", "--n", "3", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["canonical_value"] > data["classical_value"]
    assert data["bias"]["within"] is True
    # the report bytes, pinned where the CLI still rebuilt the strategy
    pins = {
        "3": "d22ffb5423daf21e19d7c9ba13e42da4cf33fde5bc3c0a8909fad6c371e0df5c",
        "7": "f4534f4150e46add49b03d4915b370a7f2df79a1cbe7032409a2a6f0c0d577f4",
    }
    for n, pin in pins.items():
        assert main(["qvalue", "--n", n, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pin
        assert hashlib.sha256((tmp_path / "qvalue-report.json").read_bytes()).hexdigest() == pin


def test_qvalue_computes_the_canonical_value_once(tmp_path, capsys, monkeypatch):
    from oddcycle import quantum

    quantum.canonical_odd_cycle_strategy(5)  # warms the cached outcome maps
    calls = []
    honest = quantum.win_probability
    monkeypatch.setattr(quantum, "win_probability", lambda *a: calls.append(a) or honest(*a))
    assert main(["qvalue", "--n", "5", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_main_encodes_the_report_once(tmp_path, capsys, monkeypatch):
    # one encode for the report file and stdout, one for the manifest
    calls = []
    monkeypatch.setattr(cli, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
    assert main(["norms", "--vector", "1,1", "--out", str(tmp_path)]) == 0
    assert len(calls) == 2
    assert capsys.readouterr().out == (tmp_path / "norms-report.json").read_text()


def test_search_report_bytes_and_step_count(tmp_path, capsys, monkeypatch):
    # the bench's n=5, d=2 search: the report bytes do not depend on how
    # the restarts are batched
    steps = []
    real = games._SearchBatch.step
    monkeypatch.setattr(games._SearchBatch, "step", lambda batch, x: steps.append(x) or real(batch, x))
    argv = ["value", "--game", "odd-cycle", "--n", "5", "--d", "2", "--method", "search"]
    assert main(argv + ["--iterations", "100000", "--seed", "42", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)["report"]
    assert report["value"]["fraction"] == "17/20" and report["evaluations"] == 100000
    assert [a for _, a in report["witness"]["alice"]] == [1, 3, 1, 3, 3, 0, 2, 0, 2, 0, 3, 3, 1, 3, 1, 1, 3, 0, 2, 0, 0, 2, 0, 3, 2]
    assert hashlib.sha256(out.encode()).hexdigest() == "3a03073f14f6d5a40de3e998e3c04dbd94415bc4317738fa2a3093098ec53d73"
    # one batch of every restart the budget can hold: 225 lockstep steps,
    # then 99 for the restart the budget cuts, rerun alone
    assert len(steps) < 400


def test_blocker_verify_and_min(tmp_path, capsys):
    code = main(["blocker", "--n", "3", "--action", "min", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["size"] == 6
    code = main(
        ["blocker", "--n", "3", "--removed", "transverse", "--action", "verify", "--out", str(tmp_path)]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["blocked"] is True


@pytest.mark.parametrize(
    "action, pin",
    [
        ("min", "2017ede8e4f4aa93064f14a7ff58738e4f631a077555abbfb5c8e192c8215dfb"),
        ("min-heuristic", "ef66250e5aa1917fa866bfcf90261cb29565c4a487f71b1bfa1424af30e3a513"),
    ],
)
def test_blocker_min_report_bytes_on_the_empty_graph(action, pin, tmp_path, capsys):
    assert main(["blocker", "--n", "3", "--action", action, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "blocker-report.json").read_bytes()).hexdigest() == pin


@pytest.mark.parametrize(
    "args, pin",
    [
        ("--n 3 --removed transverse", "be58f658d9e63257cc54f3d3d77d5d0457dedfe2487ef8cfcb8a050babcfd507"),
        ("--n 3", "7cf61867f6f60a39073e42eb86cfeba65f0d45d5f54525b23ab2571a86f86e67"),
        ("--n 4 --mode odd-only", "07551f599b800a54d26ebd0e1a7b199e4e9b483d4b6c3ffe6a1c913d17db8686"),
        ("--n 3 --d 3 --mode odd-only", "891d8c9709800632b8dfda764189a89e4b8cb63d8b6e5999050774617f9bafbc"),
        (
            "--n 5 --removed transverse --mode odd-only",
            "c61985fdf10ded976f999e6c90627a1b44ab40d62d16da732139491bac97f3d9",
        ),
        ("--n 2 --d 3", "125cf1a3760150f195bfe5bf2ef54cf77a3a5ca046c8132cf1508849cf08fe8b"),
    ],
)
def test_blocker_verify_report_bytes(args, pin, tmp_path, capsys):
    # labellings (blocked) and witness cycles (not blocked), including the
    # parallel edges of n = 2 and an even torus in odd-only mode
    assert main(["blocker", "--action", "verify", *args.split(), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pin
    assert hashlib.sha256((tmp_path / "blocker-report.json").read_bytes()).hexdigest() == pin


@pytest.mark.parametrize(
    "args, size",
    [(["--n", "5"], 10),(["--n", "3", "--d", "3"], 27), (["--n", "6", "--mode", "odd-only"], 0)],
)
def test_blocker_min_answers_large_tori(args, size, tmp_path, capsys):
    # the minimum is the transverse cut (empty in odd-only mode at even n),
    # so no torus size is refused
    assert main(["blocker", *args, "--action", "min", "--out", str(tmp_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["size"], len(data["edges"]), data["method"]) == (size, size, "exact")


def test_blocker_graph_file_round_trip(tmp_path, capsys):
    from oddcycle.torus import TorusGraph

    g = TorusGraph(3, 2, frozenset({((0, 0), 0)}))
    path = tmp_path / "graph.json"
    path.write_text(dumps(g.to_json()) + "\n")
    code = main(["blocker", "--graph", str(path), "--action", "verify", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["blocked"] is False
    assert TorusGraph.from_json(data["graph"]) == g


def test_pearls_with_growth(tmp_path, capsys):
    code = main(
        ["pearls", "--n", "5", "--d", "2", "--strategy", "xmod2", "--grow", "--out", str(tmp_path)]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"]["fraction"] == "81/100"
    assert data["growth"]["completed"] is True
    assert data["growth"]["even"] is True


def test_repeat_subcommand(tmp_path, capsys):
    code = main(["repeat", "--n", "3", "--d", "2", "--value", "0.75", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["gap"] == 0.25
    assert data["value_source"] == "supplied"


def test_repeat_computes_exact_value(tmp_path, capsys):
    assert main(["repeat", "--n", "3", "--d", "2", "--out", str(tmp_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 0.75 and data["value_source"] == "exact"
    assert data["product_bound"] == (5 / 6) ** 2


def test_repeat_value_never_below_product_witness(tmp_path, capsys):
    # the single round goes through the best-response engine (2^15 tables);
    # the full mode would refuse its 2^30 strategy pairs
    t0 = time.perf_counter()
    assert main(["repeat", "--n", "15", "--d", "2", "--out", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - t0
    data = json.loads(capsys.readouterr().out)
    assert data["value_source"] == "wedge-witness"
    assert data["value"] == float(Fraction(19, 20)) > data["product_bound"] == float(Fraction(29, 30) ** 2)
    assert elapsed < 10.0


def test_repeat_keeps_the_search_at_depth_three(tmp_path, capsys):
    # at d >= 3 the seeded search beats the wedge witness's 135/216
    assert main(["repeat", "--n", "3", "--d", "3", "--out", str(tmp_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == float(Fraction(137, 216)) and data["value_source"] == "search-lower-bound"


def test_repeat_refuses_before_the_depth_d_search(tmp_path, capsys, monkeypatch):
    # at n = 27 the single round's 2^27 Alice tables exceed the budget
    calls = []
    monkeypatch.setattr(cli, "classical_reference", lambda *a, **k: calls.append(a))
    assert main(["repeat", "--n", "27", "--d", "2", "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out)["refusal"].startswith(f"{1 << 27} alice tables exceed the budget")
    assert calls == []


REPEAT_N11_D2 = """{
  "bound_quantity": 0.15442214550691258,
  "d": 2,
  "gap": 0.06818181818181823,
  "in_regime": true,
  "manifest_id": "402bff1b0336893b",
  "n": 11,
  "product_bound": 0.9111570247933886,
  "schema": "oddcycle.repeat/1",
  "value": 0.9318181818181818,
  "value_source": "wedge-witness"
}
"""


def test_repeat_search_report_bytes(tmp_path, capsys):
    # the 451/484 wedge witness; the seed-0 local search reaches only 447/484
    assert main(["repeat", "--n", "11", "--d", "2", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == REPEAT_N11_D2
    assert (tmp_path / "repeat-report.json").read_text() == REPEAT_N11_D2


@pytest.mark.parametrize("flags", [["--d", "0"], ["--n", "4"]])
def test_repeat_validates_game_with_supplied_value(flags, tmp_path, capsys):
    assert main(["repeat", *flags, "--value", "0.5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "repeat-report.json").exists()


def test_pearls_random_table(tmp_path, capsys, monkeypatch):
    tables = []
    real = cli.build_pearl
    monkeypatch.setattr(cli, "build_pearl", lambda table, n, d: tables.append(table) or real(table, n, d))
    argv = ["pearls", "--n", "3", "--d", "2", "--strategy", "random", "--seed", "9", "--out", str(tmp_path)]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    (table,) = tables
    assert list(table) == sorted(table) and len(table) == 9
    assert list(table.values()) == [1, 3, 3, 1, 0, 2, 2, 3, 2]
    assert data["value"]["fraction"] == "5/9"


def test_foam_subcommand(tmp_path, capsys):
    code = main(["foam", "--d", "2", "--samples", "20", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["surface_inf"] == 4
    assert data["frequencies"]["P1"] == 1.0


def test_experiment_csv_and_byte_identical_reruns(tmp_path, capsys, monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "estimate_events", lambda config: reports.append(estimate_events(config)) or reports[-1])
    args = [
        "experiment", "--n-values", "3", "--samples", "6", "--seed", "7", "--threads", "2",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    capsys.readouterr()
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    report_a = (out_a / "experiment-report.json").read_bytes()
    report_b = (out_b / "experiment-report.json").read_bytes()
    assert report_a == report_b
    csv_text = (out_a / "sweep-n3.csv").read_text().splitlines()
    assert csv_text[0] == "theta,ratio,phat,halfwidth"
    assert len(csv_text) == 7  # six grid points
    # every CSV float parses back to exactly the value the report computed
    rows = reports[0].sweep_rows()
    assert len(rows) == 6
    for line, row in zip(csv_text[1:], rows):
        for cell, key in zip(line.split(","), ("theta", "ratio", "phat", "halfwidth")):
            assert isinstance(row[key], float)
            assert float(cell) == row[key], (key, cell, row[key])


def test_format_flag_is_gone(tmp_path, capsys):
    argv = ["experiment", "--n-values", "3", "--samples", "4", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not tmp_path.joinpath("experiment-report.json").exists()
    assert main(argv) == 0
    capsys.readouterr()
    assert (tmp_path / "sweep-n3.csv").exists()


def test_diamond_flag_is_gone(tmp_path, capsys):
    argv = ["norms", "--vector", "3,4", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--diamond"])
    assert exc.value.code == 2
    assert "--diamond" in capsys.readouterr().err
    assert not tmp_path.joinpath("norms-report.json").exists()
    assert main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "norms-manifest.json").read_text())
    assert "diamond" not in manifest["params"]


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("oddcycle ")]
    assert len(lines) >= len(cli.HANDLERS)
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_experiment_report_bytes_do_not_depend_on_threads(tmp_path, capsys):
    args = ["experiment", "--n-values", "3", "--samples", "8", "--seed", "4", "--per-sample"]
    reports = []
    for threads in ("1", "3"):
        out = tmp_path / threads
        assert main(args + ["--threads", threads, "--out", str(out)]) == 0
        capsys.readouterr()
        reports.append((out / "experiment-report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "flags",
    [["--samples", "0"], ["--samples", "-1"], ["--epsilon", "1.5"], ["--theta-grid", "0,-1"], ["--n-values", "3,4"]],
    ids=["samples-0", "samples-negative", "epsilon-above-1", "theta-grid-nonpositive", "n-values-even"],
)
def test_experiment_rejects_bad_config_before_any_work(flags, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "estimate_events", lambda *a, **k: pytest.fail("estimate_events ran"))
    assert main(["experiment", "--n-values", "3", *flags, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


NORMS = ["norms", "--vector", "1"]
BAD_INPUTS = {
    "config-missing": ({}, ["--config", "{tmp}/absent.json", *NORMS]),
    "config-list": ({"conf.json": "[1, 2]"}, ["--config", "{tmp}/conf.json", *NORMS]),
    "config-seed-null": ({"conf.json": '{"seed": null}'}, ["--config", "{tmp}/conf.json", *NORMS]),
    "config-unknown-key": ({"conf.json": '{"sede": 5}'}, ["--config", "{tmp}/conf.json", *NORMS]),
    "config-unknown-section-key": ({"conf.json": '{"value": {"format": "csv"}}'}, ["--config", "{tmp}/conf.json", *NORMS]),
    "config-section-not-object": ({"conf.json": '{"norms": 5}'}, ["--config", "{tmp}/conf.json", *NORMS]),
    "graph-missing": ({}, ["blocker", "--graph", "{tmp}/absent.json"]),
    "graph-without-n": ({"graph.json": '{"d": 2, "removed": []}'}, ["blocker", "--graph", "{tmp}/graph.json"]),
    "foam-samples-0": ({}, ["foam", "--samples", "0"]),
    "mc-samples-0": ({}, [*NORMS, "--monte-carlo", "--mc-samples", "0"]),
    # a minimum blocker is searched on the empty torus only, not beside a removal
    "min-blocker-transverse": ({}, ["blocker", "--n", "3", "--removed", "transverse", "--action", "min-heuristic"]),
    "min-blocker-graph-removal": (
        {"graph.json": '{"d": 2, "n": 3, "removed": [[[0, 0], 0]]}'},
        ["blocker", "--graph", "{tmp}/graph.json", "--action", "min"],
    ),
    "curve-mixed-dimensions": ({}, ["norms", "--curve", "1;1,1"]),
    "curve-n-0": ({}, ["norms", "--curve", "1,0;0,1;-1,0;0,-1", "--n", "0"]),
    # flags the command would never read
    "delta-on-odd-cycle": ({}, ["value", "--game", "odd-cycle", "--delta", "1,1,1,1"]),
    "pearls-graph-without-grow": ({}, ["pearls", "--graph", "{tmp}/absent.json"]),
    # values that are no probability or not finite, rather than NaN (not JSON) in a report
    "repeat-value-nan": ({}, ["repeat", "--n", "3", "--d", "2", "--value", "nan"]),
    "repeat-value-inf": ({}, ["repeat", "--n", "3", "--d", "2", "--value", "inf"]),
    "repeat-value-above-1": ({}, ["repeat", "--n", "3", "--d", "2", "--value", "1.5"]),
    "repeat-value-negative": ({}, ["repeat", "--n", "3", "--d", "2", "--value=-0.25"]),
    "norms-vector-nan": ({}, ["norms", "--vector", "1,nan"]),
    "norms-vector-inf": ({}, ["norms", "--vector", "inf"]),
    "curve-epsilon-nan": ({}, ["norms", "--curve", "1,0;1,0;1,0", "--n", "3", "--epsilon", "nan"]),
    "curve-epsilon-inf": ({}, ["norms", "--curve", "1,0;1,0;1,0", "--n", "3", "--epsilon", "inf"]),
    "experiment-theta-grid-inf": ({}, ["experiment", "--samples", "2", "--n-values", "3", "--theta-grid", "inf"]),
    "qvalue-theta-inf": ({}, ["qvalue", "--n", "3", "--theta", "inf"]),
    "foam-lesssim-c-nan": ({}, ["foam", "--lesssim-c", "nan"]),
    "foam-lesssim-c-0": ({}, ["foam", "--lesssim-c", "0"]),
    "pearls-max-points-negative": ({}, ["pearls", "--grow", "--max-points=-1"]),
    "pearls-max-points-negative-without-grow": ({}, ["pearls", "--max-points=-1"]),
    # a torus graph holds integers only, rather than a phantom edge or a truncated n
    "graph-coordinate-half": (
        {"graph.json": '{"n": 3, "d": 2, "removed": [[[0.5, 0], 0]]}'},
        ["blocker", "--graph", "{tmp}/graph.json"],
    ),
    "graph-axis-half": (
        {"graph.json": '{"n": 3, "d": 2, "removed": [[[0, 0], 0.5]]}'},
        ["blocker", "--graph", "{tmp}/graph.json"],
    ),
    "graph-coordinate-float-zero": (
        {"graph.json": '{"n": 3, "d": 2, "removed": [[[0.0, 0], 0]]}'},
        ["blocker", "--graph", "{tmp}/graph.json"],
    ),
    "graph-n-float": ({"graph.json": '{"n": 3.7, "d": 2}'}, ["blocker", "--graph", "{tmp}/graph.json"]),
    "graph-d-string": ({"graph.json": '{"n": 3, "d": "2"}'}, ["blocker", "--graph", "{tmp}/graph.json"]),
    "graph-edge-not-a-pair": (
        {"graph.json": '{"n": 3, "d": 2, "removed": [[5, 0]]}'},
        ["blocker", "--graph", "{tmp}/graph.json"],
    ),
    "graph-axis-list": (
        {"graph.json": '{"n": 3, "d": 2, "removed": [[[0, 0], [1]]]}'},
        ["blocker", "--graph", "{tmp}/graph.json"],
    ),
}


@pytest.mark.parametrize("files, argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2(files, argv, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    assert main([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--config", "{path}", *NORMS], ["blocker", "--graph", "{path}"]], ids=["config", "graph"])
def test_a_file_that_is_not_json_is_named(argv, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "d": 2,}')
    assert main([a.format(path=path) for a in argv] + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path} is not JSON: Expecting property name")


def test_report_round_trips_through_json(tmp_path, capsys):
    assert main(["value", "--game", "chsh", "--d", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "value-report.json").read_text()
    parsed = json.loads(text)
    assert dumps(parsed, indent=2) + "\n" == text


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


def identical(a, b) -> bool:
    """a == b with equal types at every level, equal signs of zero, and NaN
    matching NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))
    return a == b


@given(JSON_VALUES)
@example(1.0)
@example(-0.0)
@example(1e16)
@example(2.0**53)
@example(0.1)
@example({"x": [1.0, -0.0, 2], "y": 0.0})
@example([math.nan, math.inf, -math.inf])
def test_dumps_round_trips_through_json_loads(value):
    # strings keep every escape; floats come back exactly, as floats, with
    # the sign of a zero
    assert identical(json.loads(dumps(value)), value)
    assert identical(json.loads(dumps(value, indent=2)), value)


def test_dumps_float_tokens():
    assert dumps([1.0, -0.0, 1e16, 2.0**53, 0.1]) == "[1.0, -0.0, 1e+16, 9007199254740992.0, 0.1]"
    assert dumps([math.nan, math.inf, -math.inf]) == "[NaN, Infinity, -Infinity]"


def test_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"seed": 5, "out": str(tmp_path / "from_config")}))
    code = main(["--config", str(config), "value", "--game", "odd-cycle", "--n", "3"])
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "from_config" / "value-manifest.json").read_text())
    assert manifest["seed"] == 5
    # explicit flag beats the config file
    code = main(
        ["--config", str(config), "value", "--game", "odd-cycle", "--n", "3", "--seed", "9", "--out", str(tmp_path / "flag")]
    )
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "flag" / "value-manifest.json").read_text())
    assert manifest["seed"] == 9


def test_env_var_default_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ODDCYCLE_OUT", str(tmp_path / "env_out"))
    monkeypatch.chdir(tmp_path)
    code = main(["norms", "--vector", "1"])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "env_out" / "norms-report.json").exists()


def test_manifest_references_report(tmp_path, capsys):
    assert main(["norms", "--vector", "1,1", "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    manifest = json.loads((tmp_path / "norms-manifest.json").read_text())
    assert manifest["manifest_id"] == report["manifest_id"]
    assert "norms-report.json" in manifest["outputs"][0]
    assert "timings_seconds" in manifest
