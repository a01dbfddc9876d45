"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime.  Tolerances are pinned here, not configured."""

import json
import math
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np

from oddcycle.experiments import ExperimentConfig, estimate_events
from oddcycle.games import (
    classical_value_exact,
    classical_value_search,
    make_chsh_game,
    make_odd_cycle_game,
)
from oddcycle.quantum import canonical_odd_cycle_strategy, win_probability
from oddcycle.regions import grow_consistent_cycle, value_via_regions
from oddcycle.serialize import dumps
from oddcycle.torus import (
    TorusGraph,
    is_blocker,
    min_blocker,
    torus_edges,
    verify_blocker,
    winding_and_parity,
)

from oracles import (
    blocked_by_enumeration,
    born_win_probability,
    enumerate_simple_cycles,
)

DATA = Path(__file__).parent / "data"


def announce(criterion, detail, elapsed):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail}; {elapsed:.1f}s)")


def test_criterion_1_single_shot_exact_values():
    expected = {3: Fraction(5, 6), 5: Fraction(9, 10), 7: Fraction(13, 14)}
    t_total = time.perf_counter()
    for n, value in expected.items():
        t0 = time.perf_counter()
        report = classical_value_exact(make_odd_cycle_game(n, 1), mode="full")
        elapsed = time.perf_counter() - t0
        assert report.exact == value, f"n={n}: {report.exact} != {value}"
        assert elapsed < 1.0, f"n={n} exhaustive took {elapsed:.2f}s"
    announce("1", "exhaustive 5/6, 9/10, 13/14 exact", time.perf_counter() - t_total)


def test_criterion_2_parallel_repetition():
    t0 = time.perf_counter()
    report = classical_value_exact(make_odd_cycle_game(3, 2))
    exact_elapsed = time.perf_counter() - t0
    assert report.exact == Fraction(3, 4)
    assert report.evaluations == 4**9
    assert exact_elapsed < 60.0

    t1 = time.perf_counter()
    search = classical_value_search(
        make_odd_cycle_game(5, 2), seed=42, iterations=10**6, target=0.8499
    )
    search_elapsed = time.perf_counter() - t1
    assert float(search.exact) >= 0.8499
    assert search.evaluations == 338  # the seeded trajectory, pinned
    assert search_elapsed < 600.0
    announce(
        "2",
        f"n=3 d=2 exact 3/4 in {exact_elapsed:.1f}s; n=5 d=2 search reached "
        f"{float(search.exact):.4f} in {search.evaluations} iterations",
        time.perf_counter() - t0,
    )


def _oracle_best_angle_value(n, starts=4, seed=0):
    """Independent optimizer: scipy L-BFGS over the closed-form objective,
    seeded with the canonical tables plus random restarts."""
    from scipy.optimize import minimize

    game = make_odd_cycle_game(n, 1)
    pairs = [(qa[0], qb[0], t) for (qa, qb, _), t in zip(game.pairs, game.targets)]

    def value(angles):
        alpha = angles[:n]
        beta = angles[n:]
        total = 0.0
        for x, y, t in pairs:
            total += born_win_probability(0.0, alpha[x], beta[y], t)
        return total / len(pairs)

    canonical = canonical_odd_cycle_strategy(n)
    starts_list = [
        np.concatenate(
            [[canonical.alice_angles[x] for x in range(n)], [canonical.bob_angles[y] for y in range(n)]]
        )
    ]
    rng = np.random.default_rng(seed)
    for _ in range(starts):
        starts_list.append(rng.uniform(0, 2 * math.pi, size=2 * n))
    best = -1.0
    for x0 in starts_list:
        res = minimize(lambda a: -value(a), x0, method="L-BFGS-B")
        best = max(best, -res.fun)
    return best


def test_criterion_3_quantum_advantage_band():
    t_total = time.perf_counter()
    for n in range(3, 28, 2):
        game = make_odd_cycle_game(n, 1)
        qs = canonical_odd_cycle_strategy(n)
        t0 = time.perf_counter()
        value = win_probability(game, qs)
        eval_elapsed = time.perf_counter() - t0
        classical = 1 - 1 / (2 * n)
        assert value - classical >= 1e-4, f"n={n}: margin {value - classical}"
        assert eval_elapsed < 1.0
        oracle = _oracle_best_angle_value(n)
        assert abs(value - oracle) < 1e-6, f"n={n}: canonical {value} vs oracle {oracle}"
    announce("3", "canonical beats 1 - 1/(2n) by >= 1e-4 and matches the oracle for odd n in [3, 27]", time.perf_counter() - t_total)


def test_criterion_4_chsh_ladder():
    t_total = time.perf_counter()
    assert classical_value_exact(make_chsh_game(1), mode="full").exact == Fraction(3, 4)
    assert classical_value_exact(make_chsh_game(2)).exact == Fraction(10, 16)
    t0 = time.perf_counter()
    triple = classical_value_exact(make_chsh_game(3))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    reference = Fraction(31, 64)
    comparison = "matches" if triple.exact == reference else "DIFFERS-ERRATUM"
    # the reference labels 31/64 as a quantum value; the computed number is
    # the classical (deterministic-strategy) value, so the flag documents
    # agreement of the number alongside the label discrepancy
    flag = {
        "computed": str(triple.exact),
        "reference": str(reference),
        "comparison": comparison,
        "label_note": "reference calls this a quantum value; computed here as the classical value",
    }
    assert triple.exact == reference, flag
    announce(
        "4",
        f"CHSH 3/4, CHSH^2 10/16, CHSH^3 {triple.exact} in {elapsed:.3f}s; "
        f"31/64 comparison: {comparison} (label erratum documented)",
        time.perf_counter() - t_total,
    )


def test_criterion_5_diamond_sandwich():
    from oddcycle.regions import diamond_norm, l2_sandwich

    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        d = int(rng.integers(1, 13))
        vec = rng.standard_normal(d) * float(rng.uniform(0.1, 10))
        value = diamond_norm(vec, method="exact-enumeration")["value"]
        sand = l2_sandwich(vec)
        assert sand["lower"] - 1e-12 <= value <= sand["upper"] + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce("5", "1000 seeded vectors, d <= 12, sandwich within 1e-12", elapsed)


def test_criterion_6_consistent_region_formula():
    from oddcycle.games import _best_response_bob

    t0 = time.perf_counter()

    def best_response_value(n, d, table):
        game = make_odd_cycle_game(n, d)
        _, won = _best_response_bob(game, table)
        return won * game.uniform_support_weight()

    for bits in product((0, 1), repeat=3):
        table = {(x,): bits[x] for x in range(3)}
        assert value_via_regions(table, 3, 1) == best_response_value(3, 1, table)
    canonical = {(x,): x % 2 for x in range(3)}
    assert value_via_regions(canonical, 3, 1) == Fraction(5, 6)
    rng = np.random.default_rng(99)
    for _ in range(100):
        table = {q: int(rng.integers(0, 4)) for q in product(range(3), repeat=2)}
        assert value_via_regions(table, 3, 2) == best_response_value(3, 2, table)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce("6", "regions formula == best-response value on all 8 d=1 and 100 seeded d=2 strategies", elapsed)


def test_criterion_7_blocker_machinery():
    t0 = time.perf_counter()
    for n in (3, 4):
        cycles = enumerate_simple_cycles(n, 2, max_len=12)
        flagged = {
            "all-nontrivial": [e for e, w in cycles if any(w)],
            "odd-only": [e for e, w in cycles if any(x % 2 for x in w)],
        }
        edges = sorted(TorusGraph(n, 2).all_edges())
        assert torus_edges(n, 2) == tuple(edges)  # edge id = position here
        id_sets = [()] + [c for r in (1, 2, 3) for c in combinations(range(len(edges)), r)]
        for ids in id_sets:
            removed = frozenset(edges[i] for i in ids)
            g = TorusGraph(n, 2, removed)
            for mode in ("all-nontrivial", "odd-only"):
                labeled = verify_blocker(g, mode)["blocked"]
                enumerated = all(es & removed for es in flagged[mode])
                assert labeled == enumerated, (n, mode, sorted(removed))
                assert is_blocker(n, 2, ids, mode) == enumerated, (n, mode, ids)
        assert min_blocker(TorusGraph(n, 2))["size"] == 2 * n
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    announce(
        "7",
        "verify_blocker == is_blocker == enumeration on all removal sets of size <= 3 "
        "over T3/T4, both modes; min blocker = 2n",
        elapsed,
    )


def test_criterion_8_main_theorem_estimators():
    t0 = time.perf_counter()
    config = ExperimentConfig()  # n in (3, 5), 500 samples, eps 0.05, seed 42
    report = estimate_events(config)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0

    emitted = dumps(report.to_json(), indent=2) + "\n"
    archived = (DATA / "experiment_default.json").read_text()
    assert emitted == archived, "default run no longer matches the archived bytes"

    for n_key, agg in report.per_n.items():
        assert agg["used"] + agg["excluded"] == config.samples
        for key in ("P_E1", "P_E2", "P_E3_difference", "P_E3_quotient", "P_foam"):
            assert 0.0 <= agg[key] <= 1.0
        assert agg["P_E1_halfwidth"] <= 0.05
        assert agg["P_E2_halfwidth"] <= 0.05
        sweep = list(zip(agg["theta_grid"], agg["sweep_phat"]))
        assert all(a[1] >= b[1] for a, b in zip(sweep, sweep[1:]))
        assert not agg["possibility_4_observed"]
        assert agg["P_E3_quotient_over_P_foam"] is not None
    announce(
        "8",
        "default experiment bitwise-stable; probabilities in range, halfwidths <= 0.05, "
        "sweep monotone, sample conservation, possibility (4) never",
        elapsed,
    )


def test_criterion_9_growth_procedure():
    from oddcycle.experiments import sample_torical_graph

    t0 = time.perf_counter()
    s_a = {q: sum((x % 2) << i for i, x in enumerate(q)) for q in product(range(5), repeat=2)}
    completed = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g = sample_torical_graph(
            5, 2, {"kind": "uniform-edge-fraction", "low": 0.45, "high": 0.56}, rng
        )["graph"]
        out = grow_consistent_cycle(g, s_a, seed=seed, max_points=6)
        if out["completed"]:
            completed += 1
            assert out["even"], f"seed {seed}: completed cycle is odd"
            check = winding_and_parity(g, out["cycle"].vertices)
            assert check["winding"] == out["cycle"].winding
            assert (not check["odd"]) == out["even"]
            assert (not check["nontrivial"]) == out["homotopy_zero"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert completed >= 30, f"only {completed}/100 runs completed"
    announce("9", f"{completed}/100 seeded growth runs completed, all topologically even", elapsed)
