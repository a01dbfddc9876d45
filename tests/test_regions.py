import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from oddcycle.games import (
    classical_value_exact,
    evaluate_strategy,
    make_odd_cycle_game,
    DeterministicStrategy,
)
from oddcycle.regions import (
    RegionError,
    blocker_integral_bound,
    build_pearl,
    diamond_norm,
    gap_overlap,
    grow_consistent_cycle,
    l2_sandwich,
    lambda_measure,
    max_consistent_region,
    pair_consistent,
    q_neighborhood,
    region_is_consistent,
    value_via_regions,
)
from oddcycle.torus import TorusGraph, transverse_cut_blocker, winding_and_parity

from oracles import oracle_max_consistent_subsets


def xmod2_table(n, d):
    return {
        q: sum((x % 2) << i for i, x in enumerate(q))
        for q in product(range(n), repeat=d)
    }


def random_table(n, d, rng):
    return {q: int(rng.integers(0, 2**d)) for q in product(range(n), repeat=d)}


def best_response_value(n, d, table):
    """Classical value of a fixed Alice table under Bob's best response,
    computed through the game module."""
    game = make_odd_cycle_game(n, d)
    from oddcycle.games import _best_response_bob

    bob, won = _best_response_bob(game, table)
    return won * game.uniform_support_weight()


def test_q_neighborhood():
    assert set(q_neighborhood((0,), 3, 1)) == {(0,), (2,)}
    assert set(q_neighborhood((1,), 3, 1)) == {(1,), (0,)}
    assert len(q_neighborhood((0, 0), 5, 2)) == 4


def test_max_region_hand_examples():
    s = xmod2_table(3, 1)
    r0 = max_consistent_region(s, (0,), 3, 1)
    # pair (0, 2): answers differ by 0 but the wrapped difference is odd
    assert len(r0) == 1
    r1 = max_consistent_region(s, (1,), 3, 1)
    assert len(r1) == 2 and set(r1.members) == {(0,), (1,)}
    r2 = max_consistent_region(s, (2,), 3, 1)
    assert len(r2) == 2


def test_max_region_matches_subset_enumeration_oracle():
    rng = np.random.default_rng(4)
    for n, d, trials in ((3, 1, 20), (3, 2, 20), (5, 2, 10)):
        for _ in range(trials):
            s = random_table(n, d, rng)
            y = tuple(int(rng.integers(0, n)) for _ in range(d))
            region = max_consistent_region(s, y, n, d)
            oracle_best = oracle_max_consistent_subsets(s, y, n, d)
            assert len(region) == len(oracle_best[0])
            assert tuple(sorted(region.members)) in {tuple(b) for b in oracle_best}
            # lexicographically smallest maximum subset wins ties
            assert tuple(sorted(region.members)) == min(tuple(b) for b in oracle_best)


def test_region_passes_pairwise_predicate():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = random_table(3, 2, rng)
        y = tuple(int(rng.integers(0, 3)) for _ in range(2))
        region = max_consistent_region(s, y, 3, 2)
        assert region_is_consistent(s, region.members, 3, 2)


def test_depth_cap():
    with pytest.raises(RegionError):
        max_consistent_region({}, tuple([0] * 9), 3, 9)


def test_value_via_regions_base_example():
    assert value_via_regions(xmod2_table(3, 1), 3, 1) == Fraction(5, 6)


def test_value_via_regions_fully_consistent_even_cycle():
    # on an even cycle the parity strategy is globally consistent
    assert value_via_regions(xmod2_table(4, 1), 4, 1) == 1


def test_value_equals_best_response_all_strategies_d1():
    for bits in product((0, 1), repeat=3):
        table = {(x,): bits[x] for x in range(3)}
        assert value_via_regions(table, 3, 1) == best_response_value(3, 1, table)


def test_value_equals_best_response_seeded_d2():
    rng = np.random.default_rng(7)
    for _ in range(20):
        table = random_table(3, 2, rng)
        assert value_via_regions(table, 3, 2) == best_response_value(3, 2, table)


def test_pearl_structure():
    table = xmod2_table(3, 1)
    pearl = build_pearl(table, 3, 1)
    assert set(pearl.regions) == {(0,), (1,), (2,)}
    data = pearl.to_json()
    assert data["1"] == [[0], [1]]
    # maximum regions are consistent by construction
    assert pearl.is_consistent(table)


def test_ordinary_pearl_can_be_inconsistent():
    from oddcycle.regions import ConsistentRegion, Pearl

    table = xmod2_table(3, 1)
    hood = tuple(sorted(q_neighborhood((0,), 3, 1)))
    bad = Pearl(3, 1, {(0,): ConsistentRegion((0,), hood, hood)})
    # R_0 = Q_0 = {0, 2} is an ordinary region but breaks the predicate
    assert not bad.is_consistent(table)


def test_diamond_examples():
    assert diamond_norm([1])["value"] == 1.0
    assert diamond_norm([1, 1])["value"] == 1.0
    rec = diamond_norm([3, 4])
    assert rec["value"] == 4.0
    sand = l2_sandwich([3, 4])
    assert abs(sand["lower"] - 5 / math.sqrt(2)) < 1e-12
    assert sand["upper"] == 5.0
    assert sand["lower"] <= rec["value"] <= sand["upper"]


def test_diamond_homogeneity_power_of_two_exact():
    rng = np.random.default_rng(2)
    for _ in range(20):
        vec = rng.standard_normal(6)
        base = diamond_norm(vec)["value"]
        scaled = diamond_norm(4.0 * vec)["value"]
        assert scaled == 4.0 * base


def test_diamond_caps_and_errors():
    with pytest.raises(RegionError):
        diamond_norm(list(range(30)))
    with pytest.raises(RegionError):
        diamond_norm([])
    with pytest.raises(RegionError):
        diamond_norm([1], method="bogus")
    with pytest.raises(RegionError):
        from oddcycle.regions import DiamondVector

        DiamondVector((float("nan"),))


@pytest.mark.parametrize("method", ["exact-enumeration", "monte-carlo"])
def test_diamond_norm_rejects_non_finite_entries_of_a_plain_list(method):
    # the DiamondVector rule, also where no DiamondVector is passed
    for bad in ([1, float("nan")], [float("inf")]):
        with pytest.raises(RegionError, match="finite"):
            diamond_norm(bad, method=method)


def test_diamond_monte_carlo_converges():
    rng = np.random.default_rng(0)
    hits = 0
    trials = 200
    for trial in range(trials):
        vec = rng.standard_normal(6)
        exact = diamond_norm(vec)["value"]
        est = diamond_norm(vec, method="monte-carlo", seed=trial, samples=4096)
        if abs(est["value"] - exact) <= 4 * est["stderr"]:
            hits += 1
    assert hits >= 0.95 * trials


def test_lambda_measure():
    rec = lambda_measure([[1, 1]])
    assert rec["per_segment"] == [0.5]
    two = lambda_measure([[1, 1], [3, 4]])
    assert abs(two["total"] - (0.5 + 2.0)) < 1e-12
    zero = lambda_measure([[0, 0, 0]])
    assert zero["total"] == 0.0
    with pytest.raises(RegionError):
        lambda_measure([])


def test_integral_bound_axis_loop_clamps():
    rec = blocker_integral_bound([(1, 0)] * 9, 9, 0.01)
    assert rec["clamped"] and rec["bound"] == 0.0
    assert rec["raw"] < 0


def test_integral_bound_triangle():
    rec = blocker_integral_bound([(1, 0), (0, 1), (-1, -1)], 9, 0.01)
    assert abs(rec["bound"] - (1 - 1.01 / 9 * 3)) < 1e-12
    assert not rec["clamped"]


def test_integral_bound_open_curve_rejected():
    with pytest.raises(RegionError):
        blocker_integral_bound([(1, 0), (0, 1)], 9, 0.01)
    with pytest.raises(RegionError):
        blocker_integral_bound([(2, 0)], 9, 0.01)
    with pytest.raises(RegionError):
        blocker_integral_bound([(1, 0)], 9, 0.0)
    with pytest.raises(RegionError):
        blocker_integral_bound([(1,), (1, 1)], 9, 0.01)
    for n in (0, 1):
        with pytest.raises(RegionError):
            blocker_integral_bound([(1, 0), (0, 1), (-1, 0), (0, -1)], n, 0.01)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -0.5])
def test_integral_bound_rejects_epsilon_not_finite_and_positive(epsilon):
    with pytest.raises(RegionError, match="epsilon"):
        blocker_integral_bound([(1, 0)] * 3, 3, epsilon)


def test_integral_bound_below_pearl_value():
    # the bound from a short contractible curve never exceeds the measured
    # value of the parity strategy on the same torus size
    rec = blocker_integral_bound([(1, 0), (0, 1), (-1, -1)], 9, 0.01)
    value = float(value_via_regions(xmod2_table(9, 2), 9, 2))
    assert rec["bound"] <= value


def test_gap_overlap_examples():
    rec = gap_overlap({1, 3, 5}, {1, 4, 5}, range(1, 7))
    assert rec["overlap_count"] == 2
    assert rec["gaps"] == [[3, 4]]
    assert rec["max_gap_magnitude"] == 2
    same = gap_overlap({1, 2}, {1, 2}, range(1, 4))
    assert same["overlap_count"] == 0 and same["gaps"] == []
    single = gap_overlap({1}, set(), range(1, 3))
    assert single["gaps"] == [[1]] and single["max_gap_magnitude"] == 1


def test_gap_overlap_mismatched_universe():
    with pytest.raises(RegionError):
        gap_overlap({9}, {1}, range(1, 3))


def test_gap_overlap_multiple_runs():
    rec = gap_overlap({1, 2, 5}, set(), range(0, 8))
    assert rec["gaps"] == [[1, 2], [5]]
    assert rec["max_gap_magnitude"] == 2


def torical_graph(n=5):
    return TorusGraph(n, 2, transverse_cut_blocker(n, 2))


def test_grow_zero_points():
    out = grow_consistent_cycle(torical_graph(), xmod2_table(5, 2), seed=0, max_points=0)
    assert out["completed"]
    assert out["even"] and out["homotopy_zero"]
    assert out["cycle"].vertices == []


def test_grow_rejects_negative_max_points():
    with pytest.raises(RegionError, match="max_points"):
        grow_consistent_cycle(torical_graph(), xmod2_table(5, 2), seed=0, max_points=-1)


def test_grow_no_extension():
    g = TorusGraph(3, 2).with_vertices_removed(
        [v for v in product(range(3), repeat=2) if v not in {(0, 0), (2, 0), (0, 2), (2, 2)}]
    )
    out = grow_consistent_cycle(g, xmod2_table(3, 2), seed=0, max_points=3, center=(0, 0))
    assert not out["completed"]
    assert out["reason"] == "no consistent extension"
    assert out["points"] == []


def test_grow_completed_cycles_are_even():
    s = xmod2_table(5, 2)
    g = torical_graph()
    completed = 0
    for seed in range(20):
        out = grow_consistent_cycle(g, s, seed=seed, max_points=6)
        if out["completed"]:
            completed += 1
            assert out["even"]
            assert out["consistent"]
            check = winding_and_parity(g, out["cycle"].vertices)
            assert check["winding"] == out["cycle"].winding
            assert (not check["odd"]) == out["even"]
    assert completed > 0


def test_grow_strict_requires_torical():
    with pytest.raises(RegionError):
        grow_consistent_cycle(TorusGraph(5, 2), xmod2_table(5, 2), strict=True)


def test_grow_trace_and_diagnostic():
    out = grow_consistent_cycle(torical_graph(), xmod2_table(5, 2), seed=1, max_points=4)
    added = [ev for ev in out["trace"] if ev["event"] == "point added"]
    assert len(added) == 4
    assert out["diagnostic"]["lhs"] == 1.5 * 5
    assert out["diagnostic"]["rhs"] >= 0


def test_pair_consistent_wrap_parity():
    # wrapping across an odd cycle flips the required parity
    s = {(0,): 0, (4,): 0}
    assert not pair_consistent(s, (0,), (4,), 5, 1)
    s2 = {(0,): 0, (4,): 1}
    assert pair_consistent(s2, (0,), (4,), 5, 1)
