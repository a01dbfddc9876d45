import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcycle.experiments import (
    ExperimentConfig,
    ExperimentError,
    SamplingError,
    channel_diamond,
    classify_count_ratio,
    classical_reference,
    contraction_map,
    elementary_path_edges,
    estimate_events,
    foam_probes,
    minimizing_pair_indicators,
    proposition_prefactors,
    ratio_variants,
    restricted_values,
    sample_torical_graph,
    untouched_vertices,
)
from oddcycle.serialize import dumps
from oddcycle.torus import (
    TorusGraph,
    edge_id,
    make_section,
    make_tube,
    torus_edges,
    transverse_cut_blocker,
    verify_blocker,
)

DATA = Path(__file__).parent / "data"


def small_config(**overrides) -> ExperimentConfig:
    defaults = dict(n_values=(3,), samples=8, keep_per_sample=True)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_elementary_path_edges():
    assert elementary_path_edges((0, 0), (0, 0), 3) == []
    assert elementary_path_edges((0, 0), (1, 0), 3) == [((0, 0), 0)]
    assert elementary_path_edges((0, 0), (0, 1), 3) == [((0, 0), 1)]
    # axis 0 before axis 1 for the diagonal offset
    assert elementary_path_edges((2, 1), (1, 1), 3) == [((2, 1), 0), ((0, 1), 1)]


def test_contraction_counts_against_direct_recount():
    g = TorusGraph(3, 2, transverse_cut_blocker(3, 2))
    cm = contraction_map(g)
    assert cm.preimage_count == 36
    # direct recount with explicit loops, written independently
    survivors = 0
    for u in product(range(3), repeat=2):
        for t in product((0, 1), repeat=2):
            edges = []
            cur = list(u)
            if t[0]:
                edges.append((tuple(cur), 0))
                cur[0] = (cur[0] + 1) % 3
            if t[1]:
                edges.append((tuple(cur), 1))
            if not any(e in g.removed for e in edges):
                survivors += 1
    assert cm.image_count == survivors == 25
    assert cm.image_count < cm.preimage_count  # strict, per the cut fixture


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), d=st.integers(1, 3), data=st.data())
def test_contraction_counts_against_recount_on_random_removals(n, d, data):
    removed = frozenset(data.draw(st.sets(st.sampled_from(torus_edges(n, d)))))
    cm = contraction_map(TorusGraph(n, d, removed))
    # recount: step along each axis whose offset bit is set, in axis order
    survivors = []
    for u in product(range(n), repeat=d):
        for t in product((0, 1), repeat=d):
            cur, blocked = list(u), False
            for axis in range(d):
                if t[axis]:
                    blocked = blocked or (tuple(cur), axis) in removed
                    cur[axis] = (cur[axis] + 1) % n
            if not blocked:
                survivors.append((u, tuple(cur)))
    assert cm.preimage_count == (2 * n) ** d
    assert cm.image_count == len(survivors)
    assert sorted(cm.surviving) == sorted(survivors)


def test_count_ratio_at_least_one():
    g = TorusGraph(3, 2)
    cm = contraction_map(g)
    assert cm.count_ratio == 1
    with pytest.raises(ExperimentError):
        classify_count_ratio(0.5, 1.5, 3.0)


def test_possibility_fixtures_cover_all_classes():
    fixtures = json.loads((DATA / "possibility_fixtures.json").read_text())
    seen = set()
    for fx in fixtures:
        g = TorusGraph.from_json(fx["graph"])
        assert verify_blocker(g, "odd-only")["blocked"]
        cm = contraction_map(g)
        cls = classify_count_ratio(float(cm.count_ratio), 1.5, 3.0)
        assert cls == fx["expected_class"]
        seen.add(cls)
    assert seen == {1, 2, 3}


def test_sample_transverse_always_accepted():
    rng = np.random.default_rng(0)
    rec = sample_torical_graph(3, 2, {"kind": "transverse"}, rng)
    assert rec["attempts"] == 1
    assert verify_blocker(rec["graph"], "odd-only")["blocked"]


def test_sample_size_zero_always_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(SamplingError):
        sample_torical_graph(3, 2, {"kind": "uniform-size", "size": 0}, rng)


def test_sample_unknown_law():
    rng = np.random.default_rng(0)
    with pytest.raises(ExperimentError):
        sample_torical_graph(3, 2, {"kind": "bogus"}, rng)


@pytest.mark.parametrize(
    "law",
    [
        {},
        {"kind": "uniform-size"},
        {"kind": "uniform-size-range", "low": 1},
        {"kind": "uniform-edge-fraction", "high": 0.5},
    ],
)
def test_sample_rejects_law_missing_kind_or_keys(law):
    rng = np.random.default_rng(0)
    with pytest.raises(ExperimentError, match="unknown removal law"):
        sample_torical_graph(3, 2, law, rng)


@pytest.mark.parametrize("size", [-1, 19])
def test_sample_size_outside_edge_count(size):
    rng = np.random.default_rng(0)
    with pytest.raises(ExperimentError):
        sample_torical_graph(3, 2, {"kind": "uniform-size", "size": size}, rng)


def test_sample_default_law_seeded_draw_pinned():
    # attempts and accepted removal (as positions in sorted edge order)
    # recorded from the labelling-BFS sampler; the rng stream and the
    # accept decisions must not move
    rec = sample_torical_graph(9, 2, ExperimentConfig().removal_law, np.random.default_rng(9))
    edges = sorted(TorusGraph(9, 2).all_edges())
    expected = [
        1, 4, 6, 8, 15, 16, 18, 20, 26, 27, 28, 30, 33, 34, 37, 38, 39, 40, 41, 42, 43,
        46, 47, 50, 51, 52, 53, 55, 56, 61, 62, 65, 66, 68, 69, 70, 72, 73, 76, 77, 79,
        80, 82, 86, 89, 91, 94, 96, 97, 100, 101, 102, 104, 108, 109, 118, 120, 122, 123,
        125, 127, 128, 129, 130, 132, 135, 137, 138, 142, 144, 145, 146, 147, 150, 151,
        153, 155, 156, 157, 159, 161,
    ]
    assert rec["attempts"] == 10
    assert sorted(rec["graph"].removed) == [edges[i] for i in expected]


def _seed0_draws(n, law):
    """Three consecutive draws from one seed-0 rng: (attempts, sorted
    removed edge ids) each."""
    rng = np.random.default_rng(0)
    for _ in range(3):
        rec = sample_torical_graph(n, 2, law, rng)
        yield rec["attempts"], sorted(edge_id(e, n) for e in rec["graph"].removed)


def test_sample_consecutive_draws_pinned():
    # recorded before the axis-loop rejection in is_blocker: the rng calls,
    # their order across rejected and accepted draws, and every accept
    # decision must not move
    tiny = list(_seed0_draws(3, {"kind": "uniform-size", "size": 7}))
    assert tiny == [
        (5, [5, 6, 11, 12, 14, 16, 17]),
        (393, [0, 2, 4, 5, 9, 10, 17]),
        (1, [5, 6, 8, 10, 11, 15, 16]),
    ]
    law = [
        (attempts, len(ids), hashlib.sha256(repr(ids).encode()).hexdigest()[:16])
        for attempts, ids in _seed0_draws(9, ExperimentConfig().removal_law)
    ]
    assert law == [
        (3, 86, "ab88e84e886b0375"),
        (3, 90, "3c12fb4857330164"),
        (11, 91, "5f30730e4c373f56"),
    ]


def test_sample_size_six_acceptance_matches_exhaustive_count():
    # oracle: count the blocking 6-subsets of the 18 edges outright
    edges = sorted(TorusGraph(3, 2).all_edges())
    blocking = 0
    total = 0
    for subset in combinations(edges, 6):
        total += 1
        if verify_blocker(TorusGraph(3, 2, frozenset(subset)), "odd-only")["blocked"]:
            blocking += 1
    expected = blocking / total
    assert 0 < expected < 1
    rng = np.random.default_rng(3)
    accepted = 0
    attempts = 0
    for _ in range(25):
        rec = sample_torical_graph(3, 2, {"kind": "uniform-size", "size": 6}, rng)
        accepted += 1
        attempts += rec["attempts"]
    empirical = accepted / attempts
    sigma = math.sqrt(expected * (1 - expected) / attempts)
    assert abs(empirical - expected) < 6 * sigma + 1e-9


def test_restricted_values_identity_contraction():
    g = TorusGraph(3, 2)  # empty removal: test-only bypass, not torical
    rec = restricted_values(g, 3, 2, seed=5)
    assert not rec["degenerate"]
    assert rec["q_restricted"] == rec["q_full"]
    ratios = ratio_variants(rec["q_restricted"], rec["q_full"], rec["classical_ref"])
    assert ratios["theorem"] == 0.0
    assert ratios["proof"] == 1.0


def test_restricted_values_transverse_cut():
    g = TorusGraph(3, 2, transverse_cut_blocker(3, 2))
    rec = restricted_values(g, 3, 2, seed=5)
    assert rec["contraction"].image_count < rec["contraction"].preimage_count
    assert rec["q_restricted"] >= rec["q_full"] - 1e-9
    assert rec["classical_ref"] == Fraction(3, 4)


def test_restricted_values_shape_mismatch():
    with pytest.raises(ExperimentError):
        restricted_values(TorusGraph(3, 2), 5, 2)


def test_ratio_variants():
    rec = ratio_variants(0.80, 0.75, 0.75)
    assert abs(rec["theorem"] - (0.05 / 0.75)) < 1e-15
    assert abs(rec["proof"] - 0.75 / 0.80) < 1e-15
    with pytest.raises(ExperimentError):
        ratio_variants(0.8, 0.75, 0.0)


def test_classical_reference_modes():
    exact = classical_reference(3, 2)
    assert exact["exact"] and exact["value"] == Fraction(3, 4)
    search = classical_reference(5, 2, seed=1, iterations=5000)
    assert not search["exact"]
    assert search["method"] == "local-search"
    assert search["value"] >= Fraction(8, 10)


@pytest.mark.parametrize("seed", [0, 42])
def test_classical_reference_never_below_product_witness(seed):
    for n in range(3, 16, 2):
        ref = classical_reference(n, 2, seed=seed)
        assert ref["value"] >= Fraction(2 * n - 1, 2 * n) ** 2
    # at n = 15 the 60k-iteration search stops below the x mod 2 witness
    assert ref == {"value": Fraction(29, 30) ** 2, "method": "product-witness", "exact": False}


def test_prefactors_on_fixture():
    config = ExperimentConfig()
    g = TorusGraph(3, 2, transverse_cut_blocker(3, 2))
    tube = make_tube(g, axis=0, base=(0, 0), width=3)  # the whole torus
    section = make_section(tube, position=0)
    rec = proposition_prefactors(g, tube, section, config)
    f1, f2, f3, f4, f5, f6 = rec["F"]
    assert f3 == 9  # vertex count of the 3x3 torus
    assert f2 == 9 and f6 == 3
    assert rec["events"]["e3_section_strict"]
    assert f1 == 25 and f4 == 36
    assert rec["product"] == Fraction(f1 * f2 * f4 * f5, f3 * f6)
    assert rec["events"]["e1_foam_nonempty"]


def test_prefactors_identity_contraction():
    config = ExperimentConfig()
    g = TorusGraph(3, 2)
    tube = make_tube(g, axis=0, base=(0, 0), width=2)
    section = make_section(tube, position=0)
    rec = proposition_prefactors(g, tube, section, config)
    assert rec["F"][0] == rec["F"][3]  # image equals preimage
    assert not rec["events"]["e1_foam_nonempty"]


def test_untouched_vertices():
    g = TorusGraph(3, 2, frozenset({((0, 0), 0)}))
    marked = untouched_vertices(g)
    assert (0, 0) not in marked and (1, 0) not in marked
    assert len(marked) == 7


def test_estimate_events_reproducible_and_conserved():
    cfg = small_config(seed=11)
    rep_a = estimate_events(cfg)
    rep_b = estimate_events(cfg)
    assert dumps(rep_a.to_json()) == dumps(rep_b.to_json())
    agg = rep_a.per_n["3"]
    assert agg["used"] + agg["excluded"] == cfg.samples
    for key in ("P_E1", "P_E2", "P_E3_difference", "P_E3_quotient", "P_foam"):
        assert 0.0 <= agg[key] <= 1.0
    sweep = agg["sweep_phat"]
    assert all(a >= b for a, b in zip(sweep, sweep[1:]))  # grid is sorted ascending


def test_estimate_events_possibility_four_never():
    cfg = small_config(seed=2)
    rep = estimate_events(cfg)
    assert not rep.per_n["3"]["possibility_4_observed"]
    for rec in rep.samples:
        assert rec["count_ratio"] >= 1.0


def test_epsilon_to_zero_limit():
    # as epsilon1 -> 0+ the sandwich degenerates to "ratio positive and
    # finite", so P[E1] equals that fraction
    cfg = small_config(seed=8, epsilon1=1e-12)
    rep = estimate_events(cfg)
    positive = sum(
        1 for r in rep.samples if math.isfinite(r["R_theorem"]) and r["R_theorem"] > 1e-12
    )
    assert rep.per_n["3"]["P_E1"] == positive / rep.per_n["3"]["used"]


def test_sweep_rows_schema():
    cfg = small_config(seed=1)
    rep = estimate_events(cfg)
    rows = rep.sweep_rows()
    assert len(rows) == len(cfg.theta_grid)
    assert set(rows[0]) == {"n", "theta", "ratio", "phat", "halfwidth"}


def test_sweep_two_regime_shape():
    # events nest, so relative to the baseline at epsilon1 the sweep ratio
    # sits at or above 1 for looser thresholds and at or below 1 for
    # tighter ones
    cfg = small_config(seed=6, samples=12)
    rep = estimate_events(cfg)
    for row in rep.sweep_rows():
        if row["theta"] <= cfg.epsilon1:
            assert row["ratio"] >= 1.0
        else:
            assert row["ratio"] <= 1.0


def test_report_surface_fields():
    cfg = small_config(seed=3)
    rep = estimate_events(cfg)
    agg = rep.per_n["3"]
    freqs = agg["event_frequencies"]
    assert set(freqs) == {
        "e1_foam_nonempty",
        "e2_vertex_bound",
        "e3_section_strict",
        "e4_diamond_bound",
    }
    assert all(0.0 <= v <= 1.0 for v in freqs.values())
    data = rep.to_json()
    assert data["foam_probes"]["surface_inf"] == 4
    assert any("scale" in note for note in data["scale_notes"])


@pytest.mark.parametrize(
    "bad",
    [
        {"samples": 0},
        {"epsilon2": 0.0},
        {"epsilon3": 1.0},
        {"theta_grid": ()},
        {"theta_grid": (0.1, 0.0)},
        {"removal_law": {"kind": "uniform"}},
        {"removal_law": {"kind": "uniform-size"}},
        {"removal_law": {"kind": "uniform-edge-fraction", "low": 0.4}},
        {"tube_width": 0},
        {"tube_width": 4},
        {"n_values": ()},
        {"d": 3},
        {"n_values": (3, 4)},
        {"n_values": (1,)},
        {"n_values": (3, 3)},
    ],
)
def test_experiment_config_rejects_bad_values(bad):
    with pytest.raises(ExperimentError):
        ExperimentConfig(**{"n_values": (3, 5), **bad})


def test_archived_ratio_distribution():
    # regression fixture: first per-sample ratios at n=3, seed 42
    fixture = json.loads((DATA / "ratio_distribution_n3.json").read_text())
    cfg = ExperimentConfig(
        n_values=(3,), samples=fixture["samples"], seed=42, keep_per_sample=True
    )
    rep = estimate_events(cfg)
    ratios = [rec["R_theorem"] for rec in rep.samples]
    assert all(math.isfinite(r) for r in ratios)
    assert ratios == fixture["R_theorem"]


def test_foam_probes_d2():
    rec = foam_probes(n=2, d=2, samples=50, seed=0)
    assert rec["surface_inf"] == 4
    assert rec["bound"] == 8.0
    assert rec["frequencies"]["P1"] == 1.0
    assert rec["frequencies"]["P2"] == 1.0
    assert "indicator_note" in rec


def test_foam_probes_d3_indicators():
    rec = foam_probes(n=2, d=3, samples=100, seed=1)
    freqs = rec["indicators"]
    assert abs(sum(freqs.values()) - 1.0) < 1e-12
    assert all(v > 0 for v in freqs.values())  # all three pairs minimize sometimes


def test_foam_probes_rejects_bad_quantifiers():
    with pytest.raises(ExperimentError):
        foam_probes(n=3, d=2)
    with pytest.raises(ExperimentError):
        foam_probes(n=2, d=4)


def test_minimizing_pair_indicators_fixture():
    per_pair = {(1, 2): 0.5, (1, 3): 0.2, (2, 3): 0.9}
    rec = minimizing_pair_indicators(per_pair)
    assert rec == {"1_1": 1, "1_2": 0, "1_3": 0}


def test_channel_diamond_identity_rank_one():
    x = np.zeros((4, 4), dtype=complex)
    x[0, 3] = 1.0  # rank-1, unit Frobenius norm
    assert abs(channel_diamond(x) - 1.0) < 1e-12


def test_channel_diamond_with_explicit_channel():
    x = np.eye(4, dtype=complex) / 2.0
    ident = channel_diamond(x)
    transposed = channel_diamond(x, phi=lambda m: m.T)
    assert abs(ident - 2.0) < 1e-12
    assert abs(transposed - 2.0) < 1e-12
