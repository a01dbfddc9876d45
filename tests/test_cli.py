import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oddcycle
from oddcycle import cli
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


def test_budget_refusal_exits_1(tmp_path, capsys):
    code = main(
        ["value", "--game", "odd-cycle", "--n", "5", "--d", "2", "--method", "best-response", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "refusal" in out


def test_norms_diamond_vector(tmp_path, capsys):
    code = main(["norms", "--diamond", "--vector", "3,4", "--out", str(tmp_path)])
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


NORMS = ["norms", "--diamond", "--vector", "1"]
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
}


@pytest.mark.parametrize("files, argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2(files, argv, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    assert main([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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
    code = main(["norms", "--diamond", "--vector", "1"])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "env_out" / "norms-report.json").exists()


def test_manifest_references_report(tmp_path, capsys):
    assert main(["norms", "--diamond", "--vector", "1,1", "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    manifest = json.loads((tmp_path / "norms-manifest.json").read_text())
    assert manifest["manifest_id"] == report["manifest_id"]
    assert "norms-report.json" in manifest["outputs"][0]
    assert "timings_seconds" in manifest
