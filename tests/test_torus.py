from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcycle import torus
from oddcycle.torus import (
    TorusError,
    TorusGraph,
    edge_id,
    geodesic,
    giant_detect,
    is_blocker,
    make_cube,
    make_section,
    make_tube,
    min_blocker,
    region_stats,
    torus_edges,
    touches_every_axis_loop,
    transverse_cut_blocker,
    verify_blocker,
    winding_and_parity,
)

from oracles import blocked_by_enumeration, blocked_by_potentials, enumerate_simple_cycles


def row_loop(n, row=0):
    return [(x, row) for x in range(n)] + [(0, row)]


def test_winding_row_loop_odd_n():
    g = TorusGraph(5, 2)
    rec = winding_and_parity(g, row_loop(5))
    assert rec["winding"] == (5, 0)
    assert rec["nontrivial"] and rec["odd"]


def test_winding_row_loop_even_n():
    g = TorusGraph(4, 2)
    rec = winding_and_parity(g, row_loop(4))
    assert rec["winding"] == (4, 0)
    assert rec["nontrivial"] and not rec["odd"]


def test_winding_unit_square_trivial():
    g = TorusGraph(5, 2)
    rec = winding_and_parity(g, [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    assert rec["winding"] == (0, 0)
    assert not rec["nontrivial"] and not rec["odd"]


def test_winding_additivity_at_shared_vertex():
    g = TorusGraph(5, 2)
    col = [(0, y) for y in range(5)] + [(0, 0)]
    combined = row_loop(5) + col[1:]
    w_row = winding_and_parity(g, row_loop(5))["winding"]
    w_col = winding_and_parity(g, col)["winding"]
    w_both = winding_and_parity(g, combined)["winding"]
    assert w_both == tuple(a + b for a, b in zip(w_row, w_col))


def test_winding_rejects_bad_walks():
    g = TorusGraph(5, 2)
    with pytest.raises(TorusError):
        winding_and_parity(g, [(0, 0), (1, 0)])  # open
    with pytest.raises(TorusError):
        winding_and_parity(g, [(0, 0), (2, 0), (0, 0)])  # non-unit step
    cut = TorusGraph(5, 2, frozenset({((0, 0), 0)}))
    with pytest.raises(TorusError):
        winding_and_parity(cut, [(0, 0), (1, 0), (0, 0)])  # removed edge


def test_verify_blocker_empty_removal():
    rec = verify_blocker(TorusGraph(3, 2))
    assert not rec["blocked"]
    assert rec["witness"].odd


def test_verify_blocker_transverse_cut():
    g = TorusGraph(3, 2, transverse_cut_blocker(3, 2))
    assert verify_blocker(g, "all-nontrivial")["blocked"]
    assert verify_blocker(g, "odd-only")["blocked"]


def test_verify_blocker_single_axis_cut_leaves_column():
    cut = frozenset(e for e in transverse_cut_blocker(3, 2) if e[1] == 0)
    rec = verify_blocker(TorusGraph(3, 2, cut), "all-nontrivial")
    assert not rec["blocked"]
    w = rec["witness"].winding
    assert w[0] == 0 and w[1] != 0  # a column loop survives


def test_verify_blocker_odd_only_even_torus_trivially_blocked():
    # every cycle winding is a multiple of n, hence even for n = 4
    assert verify_blocker(TorusGraph(4, 2), "odd-only")["blocked"]


def test_witness_is_a_valid_walk():
    rec = verify_blocker(TorusGraph(3, 2))
    cycle = rec["witness"]
    check = winding_and_parity(TorusGraph(3, 2), cycle.vertices)
    assert check["winding"] == cycle.winding


def test_labeling_agrees_with_enumeration_spot_check():
    # acceptance runs the full size <= 3 sweep; here spot-check size <= 2
    n = 3
    cycles = enumerate_simple_cycles(n, 2, max_len=12)
    g0 = TorusGraph(n, 2)
    edges = sorted(g0.all_edges())
    sets = [frozenset()] + [frozenset({e}) for e in edges]
    sets += [frozenset(pair) for pair in combinations(edges[:8], 2)]
    for removed in sets:
        g = TorusGraph(n, 2, removed)
        for mode in ("all-nontrivial", "odd-only"):
            assert verify_blocker(g, mode)["blocked"] == blocked_by_enumeration(
                cycles, removed, mode
            )


def test_edge_ids_follow_sorted_edge_order():
    for n, d in ((2, 1), (3, 2), (4, 3)):
        edges = sorted(TorusGraph(n, d).all_edges())
        assert list(torus_edges(n, d)) == edges
        assert [edge_id(e, n) for e in edges] == list(range(len(edges)))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 6),
    d=st.integers(1, 3),
    density=st.floats(0, 1),
    rnd=st.randoms(use_true_random=False),
)
def test_blockers_match_the_potential_oracle(n, d, density, rnd):
    # n = 2 has parallel edges; d = 1 is a plain cycle
    edges = torus_edges(n, d)
    removed = [e for e in range(len(edges)) if rnd.random() < density]
    g = TorusGraph(n, d, frozenset(edges[e] for e in removed))
    for mode in ("all-nontrivial", "odd-only"):
        res = verify_blocker(g, mode)
        assert is_blocker(n, d, removed, mode) == res["blocked"] == blocked_by_potentials(n, d, removed, mode)
        if res["blocked"]:
            # a lift certificate: each surviving edge moves the label by
            # its unit step (odd-only: mod 2)
            labels = res["labeling"]
            assert set(labels) == set(g.vertices())
            for v, axis in set(edges) - g.removed:
                u = g.step(v, axis, 1)
                moved = [b - a - (c == axis) for c, (a, b) in enumerate(zip(labels[v], labels[u]))]
                assert all(m % 2 == 0 if mode == "odd-only" else m == 0 for m in moved)
            continue
        cycle = res["witness"]
        assert cycle.odd if mode == "odd-only" else cycle.nontrivial
        if n >= 3:
            assert winding_and_parity(g, cycle.vertices)["winding"] == cycle.winding
        else:  # the vertex sequence does not say which parallel edge a step takes
            assert cycle.vertices[0] == cycle.vertices[-1]
            for (v, axis, sign), u in zip(cycle.steps, cycle.vertices[1:], strict=True):
                assert g.step(v, axis, sign) == u and g.edge_of_step(v, axis, sign) not in g.removed
            assert cycle.winding == tuple(sum(s for _, a, s in cycle.steps if a == c) for c in range(d))


X, Y, Z = (0, 1), (1, 1), (2, 1)


@pytest.mark.parametrize(
    "n, d, moves, winding, odd_blocked",
    [
        # slope (4, -1) curve through all of T5^2: catches lift fields too
        # narrow for its winding, which would pack to zero
        (5, 2, ([X] * 4 + [(1, -1)]) * 5, (20, -5), False),
        # simple cycle winding twice around axis 0 of T3^3: nontrivial but
        # even, the one shape on which the two modes differ at odd n
        (3, 3, [X, X, Y, X, X, Z, (1, -1), X, X, (2, -1)], (6, 0, 0), True),
    ],
)
def test_is_blocker_single_surviving_cycle(n, d, moves, winding, odd_blocked):
    g0 = TorusGraph(n, d)
    v = tuple([0] * d)
    kept, total = set(), [0] * d
    for axis, sign in moves:
        kept.add(g0.edge_of_step(v, axis, sign))
        v = g0.step(v, axis, sign)
        total[axis] += sign
    assert v == tuple([0] * d) and len(kept) == len(moves) and tuple(total) == winding
    removed = [i for i, e in enumerate(torus_edges(n, d)) if e not in kept]
    g = TorusGraph(n, d, frozenset(torus_edges(n, d)[i] for i in removed))
    for mode, blocked in (("all-nontrivial", False), ("odd-only", odd_blocked)):
        assert verify_blocker(g, mode)["blocked"] == blocked
        assert is_blocker(n, d, removed, mode) == blocked


def test_is_blocker_unknown_mode():
    with pytest.raises(TorusError):
        is_blocker(3, 2, (), "even-only")


def _untouched_loops(n, d, removed):
    """Axis loops of the n^d torus that hold no removed edge; edge ids sit
    in the rows of _loop_major_edges, one row per loop."""
    loop = np.empty(d * n**d, dtype=int)
    loop[torus._loop_major_edges(n, d)] = np.arange(d * n**d) // n
    return d * n ** (d - 1) - len({loop[edge_id(e, n)] for e in removed})


@pytest.mark.parametrize(
    "n, d, mode, spared",
    [
        (2, 2, "all-nontrivial", ((1, 1), 1)),  # parallel edges
        (4, 1, "all-nontrivial", ((3,), 0)),  # the single loop of a cycle
        (4, 3, "all-nontrivial", ((1, 3, 2), 1)),
        (3, 2, "odd-only", ((2, 1), 0)),
        (5, 3, "odd-only", ((0, 2, 4), 2)),
    ],
)
def test_is_blocker_rejects_untouched_axis_loop_early(n, d, mode, spared):
    # the transverse cut hits every axis loop once; sparing one cut edge
    # leaves exactly that edge's loop untouched, which the sampler's
    # batched loop test rejects before is_blocker and the lift search
    # finds as a surviving nontrivial (at odd n, odd) cycle
    assert spared in transverse_cut_blocker(n, d)
    cut = transverse_cut_blocker(n, d) - {spared}
    ids = [edge_id(e, n) for e in cut]
    mask = np.zeros((1, d * n ** d), dtype=bool)
    mask[0, ids] = True
    assert _untouched_loops(n, d, cut) == 1
    assert not touches_every_axis_loop(n, d, mask)[0]
    assert not verify_blocker(TorusGraph(n, d, cut), mode)["blocked"]
    assert not is_blocker(n, d, ids, mode)


def test_is_blocker_runs_the_lift_search_when_every_loop_is_hit(monkeypatch):
    # one edge off each axis loop of T3^2, staggered so that a staircase
    # cycle of winding (1, 1) survives
    removed = {((k, k), axis) for k in range(3) for axis in range(2)}
    g = TorusGraph(3, 2, frozenset(removed))
    assert _untouched_loops(3, 2, removed) == 0
    for mode in ("all-nontrivial", "odd-only"):
        assert not verify_blocker(g, mode)["blocked"]
    calls = []
    search = torus._lift_search
    monkeypatch.setattr(torus, "_lift_search", lambda *args: calls.append(args) or search(*args))
    for mode in ("all-nontrivial", "odd-only"):
        assert not is_blocker(3, 2, [edge_id(e, 3) for e in removed], mode)
    assert [args[3] for args in calls] == ["all-nontrivial", "odd-only"]


@pytest.mark.parametrize("n, d", [(3, 2), (4, 2), (2, 3)])
def test_is_blocker_reads_a_generator_once(n, d):
    ids = [edge_id(e, n) for e in transverse_cut_blocker(n, d)]
    for mode in ("all-nontrivial", "odd-only"):
        assert is_blocker(n, d, (e for e in ids), mode) == is_blocker(n, d, ids, mode) is True
        assert is_blocker(n, d, (e for e in ids[1:]), mode) == is_blocker(n, d, ids[1:], mode)


def test_is_blocker_out_of_range_id_raises():
    cut = [edge_id(e, 3) for e in transverse_cut_blocker(3, 2)]
    for mode in ("all-nontrivial", "odd-only"):
        with pytest.raises(IndexError):
            is_blocker(3, 2, cut + [18], mode)
        with pytest.raises(IndexError):
            is_blocker(3, 2, [18], mode)


def test_min_blocker_matches_disjoint_loop_bound():
    assert min_blocker(TorusGraph(3, 2))["size"] == 6
    assert min_blocker(TorusGraph(4, 2))["size"] == 8
    assert min_blocker(TorusGraph(2, 2))["size"] == 4


def test_min_blocker_odd_mode():
    rec = min_blocker(TorusGraph(3, 2), mode="odd-only")
    assert rec["size"] <= 6
    # odd n: every axis loop is itself odd, so the bound is tight
    assert rec["size"] == 6
    assert min_blocker(TorusGraph(4, 2), mode="odd-only")["size"] == 0


def test_min_blocker_result_verifies():
    rec = min_blocker(TorusGraph(3, 2))
    g = TorusGraph(3, 2, frozenset(rec["edges"]))
    assert verify_blocker(g, "all-nontrivial")["blocked"]


@pytest.mark.parametrize(
    "n, d, mode, size",
    [(5, 2, "all-nontrivial", 10), (3, 3, "all-nontrivial", 27), (6, 2, "odd-only", 0)],
)
def test_min_blocker_answers_large_tori(n, d, mode, size):
    # no size is refused: the minimum is the transverse cut, or the empty
    # set in odd-only mode at even n, and the labelling BFS certifies it
    rec = min_blocker(TorusGraph(n, d), mode)
    assert (rec["size"], rec["method"], rec["nodes"]) == (size, "exact", 1)
    assert verify_blocker(TorusGraph(n, d, frozenset(rec["edges"])), mode)["blocked"]


def test_min_blocker_unknown_method_or_mode():
    with pytest.raises(TorusError, match="unknown method 'bogus'"):
        min_blocker(TorusGraph(3, 2), method="bogus")
    with pytest.raises(TorusError, match="unknown mode 'even-only'"):
        min_blocker(TorusGraph(3, 2), "even-only")


@pytest.mark.parametrize("mode", ["all-nontrivial", "odd-only"])
def test_min_blocker_no_smaller_set_blocks_by_enumeration(mode):
    # independent of the loop argument: every edge set of T3^2 smaller than
    # the minimum leaves some enumerated bad cycle whole (n = 2 is left out,
    # since the oracle skips the 2-cycles of parallel edges)
    cycles = enumerate_simple_cycles(3, 2, 6)
    rec = min_blocker(TorusGraph(3, 2), mode)
    assert blocked_by_enumeration(cycles, frozenset(rec["edges"]), mode)
    edges = sorted(TorusGraph(3, 2).all_edges())
    smaller = [frozenset(c) for k in range(rec["size"]) for c in combinations(edges, k)]
    assert len(smaller) == 12_616
    assert not any(blocked_by_enumeration(cycles, c, mode) for c in smaller)


def test_min_blocker_heuristic_upper_bound():
    rec = min_blocker(TorusGraph(4, 2), method="heuristic", seed=1)
    assert rec["upper_bound_only"]
    assert rec["size"] <= 2 * 4
    g = TorusGraph(4, 2, frozenset(rec["edges"]))
    assert verify_blocker(g, "all-nontrivial")["blocked"]


def test_min_blocker_requires_empty_removal():
    with pytest.raises(TorusError):
        min_blocker(TorusGraph(3, 2, frozenset({((0, 0), 0)})))


def test_geodesic_wraparound():
    g = TorusGraph(5, 2)
    assert geodesic(g, (0, 0), (4, 0)) == [(0, 0), (4, 0)]
    assert geodesic(g, (2, 2), (2, 2)) == [(2, 2)]
    assert len(geodesic(g, (0, 0), (2, 2))) - 1 == 4


def test_geodesic_symmetry_and_triangle():
    g = TorusGraph(5, 2, transverse_cut_blocker(5, 2))
    import random

    rnd = random.Random(0)
    vertices = list(g.vertices())
    for _ in range(25):
        a, b, c = (rnd.choice(vertices) for _ in range(3))
        dab = len(geodesic(g, a, b)) - 1
        dba = len(geodesic(g, b, a)) - 1
        dac = len(geodesic(g, a, c)) - 1
        dcb = len(geodesic(g, c, b)) - 1
        assert dab == dba
        assert dab <= dac + dcb


def test_geodesic_disconnected():
    g = TorusGraph(3, 2).with_vertices_removed([(1, 0), (0, 1), (2, 1), (1, 2)])
    with pytest.raises(TorusError):
        geodesic(g, (0, 0), (1, 1))


def test_geodesic_respects_removed_edges():
    g = TorusGraph(5, 2, frozenset({((4, 0), 0)}))
    path = geodesic(g, (0, 0), (4, 0))
    assert len(path) - 1 == 3  # detours around the removed wraparound edge
    assert ((4, 0), 0) not in {g.edge_of_step(v, *_step(v, u)) for v, u in zip(path, path[1:])}


def _step(v, u):
    from oddcycle.torus import wrapped_diff

    for axis in range(len(v)):
        d = wrapped_diff(u[axis], v[axis], 5)
        if d:
            return axis, d
    raise AssertionError("no step")


def test_tube_section_cube_shapes():
    g = TorusGraph(5, 2)
    tube = make_tube(g, axis=0, base=(0, 0), width=2)
    assert len(tube.members) == 10
    section = make_section(tube, position=0)
    assert len(section.members) == 2
    cube = make_cube(g, (0, 0), (2, 3))
    assert len(cube.members) == 6
    with pytest.raises(TorusError):
        make_tube(g, axis=0, base=(0, 0), width=9)


def test_region_stats_examples():
    g = TorusGraph(5, 2)
    tube = make_tube(g, axis=0, base=(0, 0), width=5)
    section = make_section(tube, position=0).mark([(0, 0), (0, 3)])
    stats = region_stats([section])
    assert stats[0]["degree"] == 5
    assert stats[0]["relative"] == Fraction(2, 5)
    empty_marking = make_tube(g, axis=0, base=(0, 0), width=2)
    stats2 = region_stats([empty_marking])
    assert stats2[0]["marked"] == 0 and stats2[0]["relative"] == 0
    from oddcycle.torus import RegionSet

    degenerate = RegionSet("section", frozenset())
    stats3 = region_stats([degenerate])
    assert stats3[0]["relative"] is None
    assert "empty region" in stats3[0]["error"]


def test_marked_must_be_inside_region():
    from oddcycle.torus import RegionSet

    with pytest.raises(TorusError):
        RegionSet("tube", frozenset({(0, 0)}), frozenset({(1, 1)}))


def test_giant_full_marking():
    g = TorusGraph(5, 2)
    tube = make_tube(g, axis=0, base=(0, 0), width=2)
    marked = tube.mark(tube.members)
    rec = giant_detect(marked, g)
    assert rec["is_giant"] and rec["ratio"] == 1
    assert rec["all_components_meet_giant"]


def test_giant_no_marking():
    g = TorusGraph(5, 2)
    tube = make_tube(g, axis=0, base=(0, 0), width=2)
    rec = giant_detect(tube, g)
    assert not rec["is_giant"] and rec["ratio"] == 0


def test_giant_boundary_ratio():
    g = TorusGraph(5, 2)
    tube = make_tube(g, axis=0, base=(0, 0), width=4)  # 20 vertices
    members = sorted(tube.members)
    marked = tube.mark(members[1:])  # 19 connected vertices
    rec = giant_detect(marked, g)
    assert rec["ratio"] == Fraction(19, 20)
    assert rec["is_giant"]  # 0.95 exactly meets the default threshold


def test_giant_empty_tube_rejected():
    from oddcycle.torus import RegionSet

    with pytest.raises(TorusError):
        giant_detect(RegionSet("tube", frozenset()), TorusGraph(3, 2))


def test_graph_json_round_trip():
    g = TorusGraph(4, 2, transverse_cut_blocker(4, 2))
    data = g.to_json()
    restored = TorusGraph.from_json(data)
    assert restored == g


def test_graph_validation():
    with pytest.raises(TorusError):
        TorusGraph(3, 2, frozenset({((0, 0), 5)}))
    with pytest.raises(TorusError):
        TorusGraph(3, 2, frozenset({((7, 0), 0)}))


@pytest.mark.parametrize("container", [frozenset, list])
@pytest.mark.parametrize(
    "bad, message",
    [
        (((0, 0), 2), "invalid axis"),
        (((0, -1), 1), "invalid vertex"),
        (((0, 3), 0), "invalid vertex"),
        (((0, 0, 0), 0), "invalid vertex"),
        (((0.5, 0), 0), "invalid vertex"),
        (((0, 0), 0.5), "invalid axis"),
    ],
)
def test_graph_validation_rejects_bad_edge(container, bad, message):
    # a valid edge alongside: every container is checked edge by edge
    with pytest.raises(TorusError, match=message):
        TorusGraph(3, 2, container([((1, 2), 0), bad]))


@pytest.mark.parametrize("bad, message", [(((0, 0), True), "invalid axis"), (((False, 0), 0), "invalid vertex")])
def test_graph_validation_rejects_bool_coordinates_and_axes(bad, message):
    # equal to the int edge, so only a per-edge check sees them, in a
    # frozenset as in a list
    for removed in ([bad], frozenset({bad})):
        with pytest.raises(TorusError, match=message):
            TorusGraph(3, 2, removed)
    with pytest.raises(TorusError):
        TorusGraph(3, 2, frozenset({((0.0, 0), 0), ((1, 1), True)}))


def test_graph_from_edge_ids_is_the_checked_graph():
    edges = torus_edges(5, 2)
    ids = [0, 7, 49, 12]
    assert TorusGraph._from_ids(5, 2, ids) == TorusGraph(5, 2, frozenset(edges[i] for i in ids))
    with pytest.raises(TorusError, match="side length"):
        TorusGraph._from_ids(1, 2, [])


@pytest.mark.parametrize("n, d", [(3.7, 2), (3.0, 2), (3, 2.0), (3, True), (True, 2)])
def test_graph_rejects_a_non_integer_shape(n, d):
    with pytest.raises(TorusError, match="must be integers"):
        TorusGraph(n, d)


def test_graph_from_json_merges_a_repeated_edge():
    g = TorusGraph.from_json({"n": 3, "d": 2, "removed": [[[1, 2], 0], [[1, 2], 0]]})
    assert g.removed == frozenset({((1, 2), 0)})


def test_graph_validation_rejects_duplicate_edge_in_list():
    with pytest.raises(TorusError, match="duplicate"):
        TorusGraph(3, 2, [((1, 2), 0), ((0, 0), 1), ((1, 2), 0)])


@pytest.mark.parametrize("container", [list, set])
def test_graph_stores_a_list_or_set_removal_as_frozenset(container):
    edges = [((0, 0), 0), ((1, 2), 1)]
    g = TorusGraph(3, 2, container(edges))
    same = TorusGraph(3, 2, frozenset(edges))
    assert isinstance(g.removed, frozenset)
    assert g == same and hash(g) == hash(same)
    assert g.remove([((2, 2), 0)]) == same.remove([((2, 2), 0)])
    assert g.remove([((2, 2), 0)]).edge_count() == 18 - 3


def test_graph_from_valid_frozenset_equals_graph_from_set():
    cut = transverse_cut_blocker(4, 3)
    fast = TorusGraph(4, 3, frozenset(cut))
    assert fast == TorusGraph(4, 3, set(cut))
    assert fast.edge_count() == 3 * 4**3 - 3 * 4**2


def test_vertex_removal_variant():
    g = TorusGraph(3, 2).with_vertices_removed([(1, 1)])
    assert len(g.removed) == 4
    assert g.is_isolated((1, 1))


def test_edge_count():
    g = TorusGraph(3, 2)
    assert g.vertex_count() == 9
    assert g.edge_count() == 18
    assert TorusGraph(3, 2, transverse_cut_blocker(3, 2)).edge_count() == 12
