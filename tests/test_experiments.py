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

from oddcycle import cli, experiments, games
from oddcycle.experiments import (
    ExperimentConfig,
    ExperimentError,
    InvariantError,
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
from oddcycle.games import classical_value_search, make_odd_cycle_game
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

from oracles import torical_sample_reference

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
    # maps compare by value, though the kept mask is an array
    assert cm == contraction_map(TorusGraph(3, 2, transverse_cut_blocker(3, 2))) != contraction_map(TorusGraph(3, 2))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), d=st.integers(1, 3), data=st.data())
def test_contraction_counts_against_recount_on_random_removals(n, d, data):
    removed = frozenset(data.draw(st.sets(st.sampled_from(torus_edges(n, d)))))
    cm = contraction_map(TorusGraph(n, d, removed))
    # recount: step along each axis whose offset bit is set, in axis order
    pairs, survivors = [], []
    for u in product(range(n), repeat=d):
        for t in product((0, 1), repeat=d):
            cur, blocked = list(u), False
            for axis in range(d):
                if t[axis]:
                    blocked = blocked or (tuple(cur), axis) in removed
                    cur[axis] = (cur[axis] + 1) % n
            pairs.append((u, tuple(cur)))
            if not blocked:
                survivors.append(pairs[-1])
    assert cm.preimage_count == (2 * n) ** d
    assert cm.image_count == len(survivors)
    # the mask follows the pairs in u-then-t order, which is the order of
    # the game's pairs where the game exists (odd n)
    assert [pairs[p] for p in np.flatnonzero(cm.kept)] == survivors
    if n % 2:
        game = make_odd_cycle_game(n, d)
        assert [game.pairs[p][:2] for p in np.flatnonzero(cm.kept)] == survivors


@pytest.mark.parametrize("n, d", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_contraction_keeps_the_t0_pairs_with_every_edge_removed(n, d):
    cm = contraction_map(TorusGraph(n, d, frozenset(torus_edges(n, d))))
    game = make_odd_cycle_game(n, d)
    assert [game.pairs[p][:2] for p in np.flatnonzero(cm.kept)] == [(u, u) for u in product(range(n), repeat=d)]
    assert cm.image_count == n**d
    assert cm.count_ratio == 2**d


def test_contraction_raises_below_the_t0_pairs(monkeypatch):
    # a broken path table in which every pair crosses one removed edge
    edge = ((0, 0), 0)
    broken = ((edge,),) * len(experiments._elementary_paths(3, 2))
    monkeypatch.setattr(experiments, "_elementary_paths", lambda n, d: broken)
    with pytest.raises(InvariantError, match="fewer than the 9"):
        contraction_map(TorusGraph(3, 2, frozenset({edge})))


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
    state = rng.bit_generator.state
    rec = sample_torical_graph(3, 2, {"kind": "transverse"}, rng)
    assert rec["attempts"] == 1 and set(rec) == {"graph", "attempts"}
    assert verify_blocker(rec["graph"], "odd-only")["blocked"]
    # the law draws nothing
    assert rng.bit_generator.state == state
    assert rec["graph"].removed == transverse_cut_blocker(3, 2)


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
        {"kind": "uniform-size", "size": 7.9},
        {"kind": "uniform-size", "size": True},
        {"kind": "uniform-size-range", "low": 1, "high": "9"},
        {"kind": "uniform-edge-fraction", "low": float("nan"), "high": 0.5},
        {"kind": "uniform-edge-fraction", "low": 0.4, "high": float("inf")},
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
    # the rng calls, their order across rejected and accepted draws, and
    # every accept decision must not move with the blocker test
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


def _draw_outcomes(draw, seed):
    """(attempts and sorted edge ids, or None on a sampling abort; the
    generator state after it) for three consecutive draws from one rng."""
    rng = np.random.default_rng(seed)
    outcomes = []
    for _ in range(3):
        try:
            found = draw(rng)
        except SamplingError:
            found = None
        outcomes.append((found, rng.bit_generator.state))
    return outcomes


def _assert_sampler_matches_reference(n, d, law, seed):
    def sample(rng):
        rec = sample_torical_graph(n, d, law, rng)
        return rec["attempts"], sorted(edge_id(e, n) for e in rec["graph"].removed)

    def reference(rng):
        return torical_sample_reference(n, d, law, rng, experiments.MAX_SAMPLE_ATTEMPTS)

    assert _draw_outcomes(sample, seed) == _draw_outcomes(reference, seed)


def _spy_chunks(monkeypatch) -> list:
    """The sizes that the chunked fixed-size path is called with."""
    sizes = []
    chunked = experiments._first_blocker_in_chunks

    def spy(n, d, size, rng):
        sizes.append(size)
        return chunked(n, d, size, rng)

    monkeypatch.setattr(experiments, "_first_blocker_in_chunks", spy)
    return sizes


# per (n, d): a size whose draws need more than one chunk of attempts
SAMPLER_MIDDLE_SIZE = {(3, 2): 7, (5, 2): 20, (9, 2): 70, (3, 3): 50}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, d", list(SAMPLER_MIDDLE_SIZE))
def test_fixed_size_draws_match_reference_loop(n, d, seed, monkeypatch):
    sizes = _spy_chunks(monkeypatch)
    for size in (SAMPLER_MIDDLE_SIZE[n, d], d * n**d):
        _assert_sampler_matches_reference(n, d, {"kind": "uniform-size", "size": size}, seed)
    assert sizes  # the middle size reached the chunks
    # sizes that never block: every draw aborts, at a cap that is not a
    # power of two, so the last chunk is cut short
    monkeypatch.setattr(experiments, "MAX_SAMPLE_ATTEMPTS", 37)
    for size in (0, 1):
        _assert_sampler_matches_reference(n, d, {"kind": "uniform-size", "size": size}, seed)


@pytest.mark.parametrize(
    "law, chunked",
    [
        ({"kind": "uniform-size-range", "low": 7, "high": 7}, True),
        ({"kind": "uniform-edge-fraction", "low": 0.39, "high": 0.39}, True),  # 7 of 18 edges
        ({"kind": "uniform-size-range", "low": 6, "high": 8}, False),
    ],
)
def test_range_laws_match_reference_loop(law, chunked, monkeypatch):
    # a range law of one size draws no size and takes the chunks; a wider
    # one draws attempt by attempt
    sizes = _spy_chunks(monkeypatch)
    _assert_sampler_matches_reference(3, 2, law, 0)
    assert sizes == ([7, 7, 7] if chunked else [])


def test_chunked_laws_stay_in_numpys_floyd_regime():
    # numpy's choice(N, k, replace=False) is a tail shuffle only for
    # N > 10,000 and k > N // 50, so k x N >= 10,001 x 201 there: no law
    # that fits a chunk reaches it
    assert experiments.SAMPLE_CHUNK_CELLS < 10_001 * 201


@pytest.mark.parametrize("size, floyd", [(201, True), (202, False)])
def test_sampler_numpy_regime_edge(size, floyd, monkeypatch):
    # at N = 2 * 71^2 = 10,082 edges numpy's choice is Floyd's algorithm
    # only up to N // 50 = 201 edges: past it the chunks' draws leave the
    # per-attempt stream, which is why the cell bound stays below both
    # sizes (raised here so that both take the chunks)
    monkeypatch.setattr(experiments, "SAMPLE_CHUNK_CELLS", 1 << 21)
    monkeypatch.setattr(experiments, "MAX_SAMPLE_ATTEMPTS", 11)
    sizes = _spy_chunks(monkeypatch)
    law = {"kind": "uniform-size", "size": size}
    if floyd:
        _assert_sampler_matches_reference(71, 2, law, 0)
    else:
        with pytest.raises(AssertionError):
            _assert_sampler_matches_reference(71, 2, law, 0)
    assert sizes == [size] * 3


def test_sampled_graphs_skip_the_per_edge_checks(monkeypatch):
    # the sampler builds its graph from edge ids: only empty removals
    # reach TorusGraph's per-edge checks
    checked, post_init = [], TorusGraph.__post_init__
    monkeypatch.setattr(TorusGraph, "__post_init__", lambda g: checked.append(len(g.removed)) or post_init(g))
    graph = sample_torical_graph(15, 2, ExperimentConfig().removal_law, np.random.default_rng(42))["graph"]
    assert graph.removed and set(checked) == {0}
    assert graph == TorusGraph(15, 2, list(graph.removed))


def test_sampler_runs_is_blocker_only_on_rows_touching_every_loop(monkeypatch):
    # the chunks test the axis loops for all their rows at once, so few
    # of the tiny law's attempts reach is_blocker
    calls = []
    honest = experiments.is_blocker

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(experiments, "is_blocker", counted)
    attempts = [a for a, _ in _seed0_draws(3, {"kind": "uniform-size", "size": 7})]
    assert attempts == [5, 393, 1]
    assert len(calls) < sum(attempts) / 3


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
    rec = restricted_values(g, 3, 2)
    assert rec["q_restricted"] == rec["q_full"]
    ratios = ratio_variants(rec["q_restricted"], rec["q_full"], rec["classical_ref"])
    assert ratios["theorem"] == 0.0
    assert ratios["proof"] == 1.0


def record_calls(monkeypatch, built: list, module, name: str, key):
    """Wrap module.name so that each call appends (name, key(its args))."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        built.append((name, key(*args, **kwargs)))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_restricted_values_builds_its_game_once(monkeypatch):
    built = []
    for module in (experiments, games):
        record_calls(monkeypatch, built, module, "make_odd_cycle_game", lambda n, d=1: (n, d))
    restricted_values(TorusGraph(5, 2, transverse_cut_blocker(5, 2)), 5, 2)
    assert built == [("make_odd_cycle_game", (5, 2))]


def test_restricted_values_transverse_cut():
    g = TorusGraph(3, 2, transverse_cut_blocker(3, 2))
    rec = restricted_values(g, 3, 2)
    assert rec["contraction"].image_count < rec["contraction"].preimage_count
    assert rec["q_restricted"] >= rec["q_full"] - 1e-9
    assert rec["classical_ref"] == Fraction(3, 4)


def test_restricted_values_shape_mismatch():
    with pytest.raises(ExperimentError):
        restricted_values(TorusGraph(3, 2), 5, 2)


def _one_restricted_value_low(monkeypatch):
    # the canonical start begins every restriction at the full value, so
    # an optimiser that hands back one lower value is a broken invariant
    real = experiments.optimize_restrictions

    def one_low(*args, **kwargs):
        results = real(*args, **kwargs)
        results[2]["value"] = results[0]["value"] - 1e-9
        return results

    monkeypatch.setattr(experiments, "optimize_restrictions", one_low)


def test_a_restricted_value_below_the_full_value_raises(monkeypatch):
    _one_restricted_value_low(monkeypatch)
    with pytest.raises(InvariantError, match="sample 1 has q_restricted"):
        estimate_events(small_config())


def test_a_broken_invariant_is_not_a_usage_error(monkeypatch, tmp_path):
    # the CLI exits 2 on usage errors; a broken invariant propagates
    _one_restricted_value_low(monkeypatch)
    with pytest.raises(InvariantError, match="sample 1 has q_restricted"):
        cli.main(["experiment", "--n-values", "3", "--samples", "3", "--out", str(tmp_path)])


def test_ratio_variants():
    rec = ratio_variants(0.80, 0.75, 0.75)
    assert abs(rec["theorem"] - (0.05 / 0.75)) < 1e-15
    assert abs(rec["proof"] - 0.75 / 0.80) < 1e-15
    with pytest.raises(ExperimentError):
        ratio_variants(0.8, 0.75, 0.0)


def test_classical_reference_modes(monkeypatch):
    exact = classical_reference(make_odd_cycle_game(3, 2))
    assert exact == {"value": Fraction(3, 4), "method": "alice-exhaustive-best-response", "exact": True}

    def no_search(*args, **kwargs):
        raise AssertionError("the depth-2 reference ran the local search")

    monkeypatch.setattr(experiments, "classical_value_search", no_search)
    for n in range(5, 16, 2):
        ref = classical_reference(make_odd_cycle_game(n, 2))
        assert ref == {"value": 1 - Fraction(3, 4 * n), "method": "wedge-witness", "exact": False}


@pytest.mark.parametrize("seed", [0, 42])
def test_classical_reference_never_below_product_witness(seed):
    # the wedge witness took the place of the estimator's 60k-iteration
    # search, so it must not fall below that search at either seed
    for n in range(5, 16, 2):
        game = make_odd_cycle_game(n, 2)
        ref = classical_reference(game)["value"]
        assert ref >= Fraction(2 * n - 1, 2 * n) ** 2
        assert ref >= classical_value_search(game, seed=seed, iterations=60_000).exact


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


def test_estimate_events_builds_each_n_game_tube_and_section_once(monkeypatch):
    built = []
    for module in (experiments, games):
        record_calls(monkeypatch, built, module, "make_odd_cycle_game", lambda n, d=1: (n, d))
    record_calls(monkeypatch, built, experiments, "make_tube", lambda g, **kw: g.n)

    def tube_n(tube, **kw):
        # axis 0 runs the whole loop, so the tube's extent along it is n
        return 1 + max(v[0] for v in tube.members)

    record_calls(monkeypatch, built, experiments, "make_section", tube_n)
    estimate_events(ExperimentConfig(n_values=(3, 5), samples=4, foam_samples=1))
    assert sorted(key[0] for name, key in built if name == "make_odd_cycle_game" and key[1] == 2) == [3, 5]
    assert sorted(n for name, n in built if name == "make_tube") == [3, 5]
    assert sorted(n for name, n in built if name == "make_section") == [3, 5]


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
        {"theta_grid": (0.1, math.inf)},
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
        {"removal_law": {"kind": "uniform-size", "size": 7.9}},
        {"removal_law": {"kind": "uniform-size", "size": True}},
        {"removal_law": {"kind": "uniform-size-range", "low": 1, "high": "9"}},
        {"removal_law": {"kind": "uniform-edge-fraction", "low": float("nan"), "high": 0.5}},
        # at construction, not after every n has been sampled and optimised
        {"foam_d": 1},
        {"foam_d": 4},
        {"foam_samples": 0},
        # before sampling, not as a ZeroDivisionError, NaN bound or dead class
        {"m": 0},
        {"m": float("nan")},
        {"m": float("inf")},
        {"lesssim_c": float("nan")},
        {"lesssim_c": 0.0},
        {"lesssim_c": -1.0},
        {"lesssim_c": float("inf")},
        {"ratio_low": 3.0, "ratio_high": 1.5},
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
    rec = foam_probes(d=2, samples=50, seed=0)
    assert rec["surface_inf"] == 4
    assert rec["bound"] == 8.0
    assert rec["frequencies"]["P1"] == 1.0
    assert rec["frequencies"]["P2"] == 1.0
    assert "indicator_note" in rec


def test_foam_probes_d3_indicators():
    rec = foam_probes(d=3, samples=100, seed=1)
    freqs = rec["indicators"]
    assert abs(sum(freqs.values()) - 1.0) < 1e-12
    assert all(v > 0 for v in freqs.values())  # all three pairs minimize sometimes


@pytest.mark.parametrize(
    "d, seed, sha",
    [
        (2, 0, "e55702ce612dca2faba0d5a735d9f01880eb98c6e8c3618485e71ff9b4ba1123"),
        (3, 1, "ac89bf74d6472e51be4fbe0b5192a0bf498cfd224de43de0a7f7fa0fb75e8127"),
    ],
)
def test_foam_probes_record_is_pinned(d, seed, sha):
    # pinned from the per-sample random_unit_matrix / channel_diamond loop:
    # the batched draw is the same stream, so the record is byte-identical
    assert hashlib.sha256(dumps(foam_probes(d=d, samples=200, seed=seed)).encode()).hexdigest() == sha


def test_foam_probes_rejects_bad_quantifiers():
    with pytest.raises(ExperimentError):
        foam_probes(d=4)
    for lesssim_c in (float("nan"), float("inf"), 0.0, -2.0):
        with pytest.raises(ExperimentError, match="lesssim_c"):
            foam_probes(d=2, lesssim_c=lesssim_c)


@pytest.mark.parametrize("seed", [42, 3])
def test_q_full_does_not_depend_on_the_sample_count(seed):
    q_full = [
        [rep.per_n[n]["q_full"] for n in ("3", "5")]
        for rep in (
            estimate_events(ExperimentConfig(n_values=(3, 5), samples=samples, seed=seed, foam_samples=1))
            for samples in (1, 5, 60)
        )
    ]
    assert q_full[0] == q_full[1] == q_full[2]


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
