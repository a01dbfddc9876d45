"""Rewrite the two archived estimator fixtures through their own code
paths, then print the fixture-protocol comparison against the files they
replace.

    python tests/regen_fixtures.py

- tests/data/experiment_default.json: the default seeded run
  (ExperimentConfig()), emitted as test_criterion_8 emits it.
- tests/data/ratio_distribution_n3.json: the first R_theorem values at
  n = 3, seed 42, as test_archived_ratio_distribution reads them.

The protocol (ROADMAP, "Correctness and robustness"): each per-n
probability moves by at most its binomial half-width, the wider of the
two runs', and no angle-optimised value drops by more than 1e-9.  The
optimised values the fixtures hold are the default run's per-n q_full
and, through R_theorem = (q_restricted - q_full) / classical_ref, the
ratio run's restricted values.  The exit status is 1 when the comparison
fails.  This file is a script, not a test module: pytest does not
collect it.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from oddcycle.experiments import ExperimentConfig, estimate_events  # noqa: E402
from oddcycle.serialize import dumps  # noqa: E402

DATA = ROOT / "tests" / "data"
DEFAULT, RATIOS = DATA / "experiment_default.json", DATA / "ratio_distribution_n3.json"
MAX_DROP = 1e-9


def emit(obj) -> str:
    return dumps(obj, indent=2) + "\n"


def ratio_fixture(samples: int, seed: int) -> tuple:
    """The ratio fixture, and the run's n = 3 (q_full, classical_ref_float)."""
    report = estimate_events(ExperimentConfig(n_values=(3,), samples=samples, seed=seed, keep_per_sample=True))
    agg = report.per_n["3"]
    fixture = {"R_theorem": [rec["R_theorem"] for rec in report.samples], "samples": samples, "seed": seed}
    return fixture, (agg["q_full"], agg["classical_ref_float"])


def leaves(obj, path: str = ""):
    """(path, value) for every scalar of a JSON tree."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def probabilities(agg: dict):
    """(name, estimate, half-width) for every per-n probability."""
    for key, halfwidth in agg.items():
        name = key.removesuffix("_halfwidth")
        if name != key and name in agg:
            yield name, agg[name], halfwidth
    for j, (p, hw) in enumerate(zip(agg["sweep_phat"], agg["sweep_halfwidth"])):
        yield f"sweep_phat[{j}]", p, hw


def compare(old: dict, new: dict, old_ratios: dict, new_ratios: dict, ratio_full: tuple) -> bool:
    ok = True
    print(f"== {DEFAULT.name}: changed fields")
    old_leaves, new_leaves = dict(leaves(old)), dict(leaves(new))
    changed = [(k, old_leaves.get(k), new_leaves.get(k)) for k in {**old_leaves, **new_leaves}]
    changed = [(k, was, now) for k, was, now in changed if was != now]
    for key, was, now in changed:
        print(f"  {key}: {was!r} -> {now!r}")
    if not changed:
        print("  none")

    print("== per-n probabilities against their half-widths")
    for n, agg in new["per_n"].items():
        before = {name: (p, hw) for name, p, hw in probabilities(old["per_n"][n])}
        for name, p, hw in probabilities(agg):
            p_old, hw_old = before[name]
            moved, allowed = abs(p - p_old), max(hw, hw_old)
            if moved > allowed + 1e-12:
                ok = False
                print(f"  FAIL n={n} {name}: {p_old!r} -> {p!r}, moved {moved:.3g} > half-width {allowed:.3g}")
        print(f"  n={n}: largest move {max(abs(p - before[name][0]) for name, p, _ in probabilities(agg)):.3g}")

    print("== optimised values (a drop is old - new)")
    drops = []
    for n, agg in new["per_n"].items():
        was = old["per_n"][n]["q_full"]
        drops.append((was - agg["q_full"], f"q_full n={n}: {was!r} -> {agg['q_full']!r}"))
    # q_full depends on n alone, so the archived default run's n = 3
    # value is the ratio run's too; q_restricted is recovered
    # as q_full + classical_ref * R_theorem, exact up to rounding
    (q_new, cref), q_old = ratio_full, old["per_n"]["3"]["q_full"]
    pairs = list(zip(old_ratios["R_theorem"], new_ratios["R_theorem"]))
    restricted = [
        (q_old + cref * was - (q_new + cref * now), f"q_restricted n=3 sample {i}: R_theorem {was!r} -> {now!r}")
        for i, (was, now) in enumerate(pairs)
    ]
    moved = [line for (was, now), (_, line) in zip(pairs, restricted) if was != now]
    print(f"  {RATIOS.name}: R_theorem moved in {len(moved)} of {len(pairs)} samples")
    for line in moved:
        print(f"    {line}")
    drop, line = max(drops + restricted)
    print(f"  largest drop {drop:.3g} ({line})")
    if not drop <= MAX_DROP:
        ok = False
        print(f"  FAIL: an optimised value dropped by more than {MAX_DROP:g}")
    return ok


def main() -> int:
    old, old_ratios = json.loads(DEFAULT.read_text()), json.loads(RATIOS.read_text())
    text = emit(estimate_events(ExperimentConfig()).to_json())
    new_ratios, ratio_full = ratio_fixture(old_ratios["samples"], old_ratios["seed"])
    DEFAULT.write_text(text)
    RATIOS.write_text(emit(new_ratios))
    new = json.loads(text)
    ok = compare(old, new, old_ratios, new_ratios, ratio_full)
    print("fixture protocol:", "holds" if ok else "FAILS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
