"""Seeded Monte Carlo estimators for the contraction-mapping events, the
prefactor product, and the foam probability probes.

The base game for the estimators is the torus-question odd-cycle game: the
referee draws a vertex of T_n^2 and an offset t in {0,1}^2 per coordinate,
which is exactly the depth-2 tensor game.  A removed edge set kills the
question pairs whose elementary axis path (axis 0 before axis 1) crosses a
removed edge; restricted values are heuristic angle-optimization suprema
over the kept pairs.  A pair with t = 0 has an empty path, so every
removal keeps at least n^d pairs and every sample is used.  "One round of
ordinary parallel repetition" squares the base values and the classical
reference (exact repeated values are beyond any exhaustive budget).  The
reference is exact within the Alice-table budget, else the value of the
closed-form wedge witness.

Every sample draws its own generator from the master seed by a counter
split, so a fixed config gives the same bytes on every rerun.  A sample's
restriction is optimised in one batch with the others of its n, and numpy
may round a contraction over one row differently from one over many, so
with another sample count a sample's values agree only within 1e-12.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

import numpy as np

from .games import (
    BudgetExceeded,
    GameSpec,
    classical_value_exact,
    classical_value_search,
    evaluate_strategy,
    make_odd_cycle_game,
    wedge_witness,
)
from .quantum import (
    canonical_odd_cycle_strategy,
    optimize_angles,  # unused here; perfbench/spans.py traces this binding
    optimize_restrictions,
)
from .torus import (
    RegionSet,
    TorusGraph,
    giant_detect,
    is_blocker,
    make_section,
    make_tube,
    min_blocker,
    torus_edges,
    touches_every_axis_loop,
    transverse_cut_blocker,
    verify_blocker,  # unused here; perfbench/spans.py traces this binding
)

Z_95 = 1.96


class ExperimentError(ValueError):
    pass


class SamplingError(RuntimeError):
    pass


class InvariantError(RuntimeError):
    """A broken internal invariant: a bug in the library, not a bad input."""


# -- tensor contraction -------------------------------------------------------


def elementary_path_edges(u: tuple, t_bits: tuple, n: int) -> list:
    """Grid edges on the elementary axis path from u to u+t, axes in
    increasing order."""
    edges = []
    current = list(u)
    for axis, bit in enumerate(t_bits):
        if bit:
            edges.append((tuple(current), axis))
            current[axis] = (current[axis] + 1) % n
    return edges


@dataclass
class ContractionMap:
    """The image of a removed edge set: kept[p] says whether the elementary
    path of pair p of make_odd_cycle_game(n, d).pairs avoids the removals."""

    graph: TorusGraph
    kept: np.ndarray = field(compare=False)  # follows from graph
    preimage_count: int

    @property
    def image_count(self) -> int:
        return int(self.kept.sum())

    @property
    def count_ratio(self) -> Fraction:
        return Fraction(self.preimage_count, self.image_count)


@functools.lru_cache(maxsize=64)
def _elementary_paths(n: int, d: int) -> tuple:
    """The path edges of every question pair (u, u+t), u in [n]^d and then
    t in {0,1}^d, which is the order of make_odd_cycle_game(n, d).pairs."""
    return tuple(
        tuple(elementary_path_edges(u, t_bits, n))
        for u in product(range(n), repeat=d)
        for t_bits in product((0, 1), repeat=d)
    )


def contraction_map(g: TorusGraph) -> ContractionMap:
    """The pairs whose elementary paths avoid the removals; the n^d pairs
    with t = 0 have empty paths, so fewer survivors mean a broken table."""
    paths = _elementary_paths(g.n, g.d)
    kept = np.array([g.removed.isdisjoint(edges) for edges in paths])
    if kept.sum() < g.n ** g.d:
        raise InvariantError(f"{kept.sum()} kept pairs, fewer than the {g.n ** g.d} with t = 0")
    return ContractionMap(g, kept, len(paths))


def classify_count_ratio(ratio: float, low: float, high: float) -> int:
    """Possibility classes for |preimage|/|image|: (1) near one, (2) much
    larger than one, (3) in between; (4), near zero, cannot occur, since
    the image lies in the preimage, and a ratio < 1 is an ExperimentError."""
    if ratio < 1:
        raise ExperimentError("count ratio below 1: image exceeds preimage")
    if ratio <= low:
        return 1
    if ratio >= high:
        return 2
    return 3


# -- torical graph sampling ----------------------------------------------------


MAX_SAMPLE_ATTEMPTS = 100_000
# bound on a chunk's rows x edges, which bounds each of its arrays; a law
# is chunked only if size x edges fits, so that a chunk holds size rows.
# numpy's choice(N, k, replace=False) is Floyd's algorithm unless
# N > 10,000 and k > N // 50, where it is a tail shuffle; there
# k x N >= 10,001 x 201, far above this bound, so every chunked law's
# draws are Floyd's
SAMPLE_CHUNK_CELLS = 1 << 16
# removal-law kind -> the keys it needs
REMOVAL_LAWS = {
    "transverse": (),
    "uniform-size": ("size",),
    "uniform-size-range": ("low", "high"),
    "uniform-edge-fraction": ("low", "high"),
}


def _check_removal_law(removal_law: dict):
    """ExperimentError unless the law has a REMOVAL_LAWS kind and its keys,
    sizes are integers (not bools) and fractions finite real numbers."""
    needs = REMOVAL_LAWS.get(removal_law.get("kind"))
    if needs is None or not all(key in removal_law for key in needs):
        raise ExperimentError(f"unknown removal law {removal_law!r}")
    fraction = removal_law["kind"] == "uniform-edge-fraction"
    for key in needs:
        value = removal_law[key]
        if fraction:
            good = isinstance(value, numbers.Real) and math.isfinite(value)
        else:
            good = isinstance(value, numbers.Integral)
        if isinstance(value, bool) or not good:
            what = "a finite number" if fraction else "an integer"
            raise ExperimentError(f"unknown removal law {removal_law!r}: {key!r} must be {what}")


def sample_torical_graph(n: int, d: int, removal_law: dict, rng) -> dict:
    """Rejection-sample removed edge sets until the odd-blocker property
    holds.  Supported laws:

    - {"kind": "transverse"}: the constructed one-cut-per-axis blocker
      (always accepted).
    - {"kind": "uniform-size", "size": k}: k distinct edges uniformly.
    - {"kind": "uniform-size-range", "low": a, "high": b}: size uniform in
      [a, b], then edges uniformly.
    - {"kind": "uniform-edge-fraction", "low": f, "high": g}: like the
      range law with bounds given as fractions of the edge count, so one
      law covers every n.

    The transverse law draws nothing.  Each attempt of the others draws
    ``rng.integers(a, b + 1)`` for the size (which consumes nothing when
    a == b) and then ``rng.choice(N, size, replace=False)`` (N edges).  A
    law whose size is fixed (a == b) and whose size x N is at most
    SAMPLE_CHUNK_CELLS draws in chunks from its first attempt
    (``_first_blocker_in_chunks``); the other laws draw attempt by
    attempt.  Both give the stream, the attempts and the accepted graph of
    the per-attempt loop.

    Returns the graph plus attempt statistics; aborts with diagnostics when
    the acceptance rate collapses.
    """
    TorusGraph(n, d)  # rejects a bad shape before any draw
    _check_removal_law(removal_law)
    kind = removal_law["kind"]
    if kind == "transverse":
        return {"graph": TorusGraph(n, d, transverse_cut_blocker(n, d)), "attempts": 1}
    edges = torus_edges(n, d)
    if kind == "uniform-size":
        low = high = int(removal_law["size"])
    elif kind == "uniform-size-range":
        low, high = int(removal_law["low"]), int(removal_law["high"])
    else:
        low = int(round(float(removal_law["low"]) * len(edges)))
        high = int(round(float(removal_law["high"]) * len(edges)))
    if not 0 <= low <= high <= len(edges):
        raise ExperimentError(
            f"removal size range [{low}, {high}] outside [0, {len(edges)}] edges"
        )

    if low == high and low * len(edges) <= SAMPLE_CHUNK_CELLS:
        found = _first_blocker_in_chunks(n, d, low, rng)
    else:
        found = _first_blocker_per_attempt(n, d, low, high, rng)
    if found is None:
        raise SamplingError(
            f"no torical sample accepted in {MAX_SAMPLE_ATTEMPTS} attempts "
            f"(n={n}, d={d}, law={removal_law}); acceptance below 1e-4"
        )
    attempts, ids = found
    return {"graph": TorusGraph._from_ids(n, d, ids), "attempts": attempts}


def _first_blocker_per_attempt(n: int, d: int, low: int, high: int, rng) -> Optional[tuple]:
    """(attempts, edge ids) of the first blocking attempt, drawing its size
    and then its edges, or None once MAX_SAMPLE_ATTEMPTS attempts fail."""
    count = d * n ** d
    for attempts in range(1, MAX_SAMPLE_ATTEMPTS + 1):
        size = int(rng.integers(low, high + 1))
        ids = rng.choice(count, size=size, replace=False).tolist()
        if is_blocker(n, d, ids, "odd-only"):
            return attempts, ids
    return None


def _first_blocker_in_chunks(n: int, d: int, size: int, rng) -> Optional[tuple]:
    """What ``_first_blocker_per_attempt`` returns for a fixed size, with
    the generator left in the same state.

    ``rng.choice(N, size, replace=False)`` is Floyd's algorithm: for
    j = N - size ... N - 1 it draws an integer in [0, j] and takes j
    instead when the draw is already taken; its shuffle then draws in
    [0, i] for i = size - 1 ... 1.  One ``rng.integers`` call with these
    bounds for every row of a chunk gives the same draws and leaves the
    same state.  The shuffle's draws go unused, as a sample is a set.
    Rows that miss an axis loop fail ``is_blocker`` at odd n, so only the
    others reach it, in row order; on the first blocking row the state is
    restored and the draws up to that row are made again.  A chunk holds
    max(attempts so far, ``size``, 128) rows, within SAMPLE_CHUNK_CELLS, so
    that its column steps and numpy calls cost little per row.
    """
    count = d * n ** d
    highs = np.concatenate((np.arange(count - size, count), np.arange(size - 1, 0, -1))) + 1
    cap = max(1, SAMPLE_CHUNK_CELLS // count)
    attempts = 0
    while attempts < MAX_SAMPLE_ATTEMPTS:
        rows = min(max(attempts, size, 128), cap, MAX_SAMPLE_ATTEMPTS - attempts)
        state = rng.bit_generator.state
        drawn = rng.integers(0, highs, size=(rows, len(highs)))
        removed = np.zeros((rows, count), dtype=bool)
        flat = removed.reshape(-1)
        starts = np.arange(0, rows * count, count)[:, None]
        # per column of Floyd's draws: each row's flat pick and its j
        picks = (drawn[:, :size] + starts).T.copy()
        tails = (np.arange(count - size, count) + starts).T.copy()
        for pick, tail in zip(picks, tails):
            flat[np.where(flat[pick], tail, pick)] = True
        # odd-only is_blocker accepts every removal at even n
        candidates = np.flatnonzero(touches_every_axis_loop(n, d, removed)) if n % 2 else np.arange(rows)
        # Floyd's sample has exactly size edges
        removals = np.nonzero(removed[candidates])[1].reshape(len(candidates), size).tolist()
        for r, ids in zip(candidates.tolist(), removals):
            if is_blocker(n, d, ids, "odd-only"):
                rng.bit_generator.state = state
                rng.integers(0, highs, size=(r + 1, len(highs)))
                return attempts + r + 1, ids
        attempts += rows
    return None


# -- restricted values ---------------------------------------------------------


def restricted_values(g: TorusGraph, base_n: int, d: int = 2) -> dict:
    """Quantum value of the full depth-d game vs the kept-question
    subgame (renormalized distribution), plus the classical reference.
    Suprema are angle optimizations from the canonical tables (lower bounds)."""
    if g.n != base_n or g.d != d:
        raise ExperimentError("graph shape does not match the requested game")
    contraction = contraction_map(g)
    game = make_odd_cycle_game(base_n, d)
    full_value, restricted = _optima(game, [None, contraction.kept])
    return {
        "q_full": full_value,
        "q_restricted": restricted,
        "classical_ref": classical_reference(game)["value"],
        "contraction": contraction,
    }


def _optima(game: GameSpec, restrictions: list) -> list:
    """Angle-optimised values of restrictions of an odd-cycle game (None,
    the full game, or a keep-mask over game.pairs), climbed from the
    canonical angle tables alone, with no seed, in one optimize_restrictions
    call; they win every pair with cos^4(pi/4n), the full value, so none
    starts below it."""
    canonical = canonical_odd_cycle_strategy(game.n)
    inits = [(dict(canonical.alice_angles), dict(canonical.bob_angles))]
    results = optimize_restrictions(game, restrictions, starts=1, inits=inits)
    return [float(r["value"]) for r in results]


def classical_reference(game: GameSpec, seed: int = 0, iterations: int = 60_000) -> dict:
    """Classical value of a depth-d odd-cycle game: exact when the
    Alice-table budget allows, else a labeled lower bound, the exact value
    of the wedge witness.  Only at d >= 3, where the seeded local search
    (``seed``, ``iterations``) was measured above the witness, is the bound
    the larger of the two; the estimator's d <= 2 never runs the search."""
    try:
        report = classical_value_exact(game)
        return {"value": report.exact, "method": report.method, "exact": True}
    except BudgetExceeded:
        pass
    witness = evaluate_strategy(game, wedge_witness(game))
    if game.depth >= 3:
        report = classical_value_search(game, seed=seed, iterations=iterations)
        if report.exact > witness:
            return {"value": report.exact, "method": report.method, "exact": False}
    return {"value": witness, "method": "wedge-witness", "exact": False}


def ratio_variants(q_restricted: float, q_full: float, classical_ref) -> dict:
    """Both ratio forms: the theorem form (value difference over the
    classical reference) and the proof form (full over restricted)."""
    cref = float(classical_ref)
    if cref <= 0:
        raise ExperimentError("classical reference must be positive")
    theorem = (q_restricted - q_full) / cref
    proof = q_full / q_restricted if q_restricted > 0 else float("inf")
    return {"theorem": theorem, "proof": proof}


def sandwich(value: float, eps: float) -> bool:
    return eps < value < 1.0 / eps


# -- prefactors and events ------------------------------------------------------


def untouched_vertices(g: TorusGraph) -> frozenset:
    """Vertices with no incident removed edge (the marking used for the
    giant bookkeeping)."""
    touched = set()
    for (v, axis) in g.removed:
        touched.add(v)
        touched.add(g.step(v, axis, 1))
    return frozenset(v for v in g.vertices() if v not in touched)


def proposition_prefactors(
    g: TorusGraph,
    tube: RegionSet,
    section: RegionSet,
    config: "ExperimentConfig",
    contraction: Optional[ContractionMap] = None,
) -> dict:
    """The six counting prefactors and the four simultaneous events.

    F1 = kept (image) pair count, F2 = |V(tube)|, F3 = |V(T^d)|,
    F4 = total (preimage) pair count, F5 = |V(giant)| for the untouched-
    vertex marking, F6 = |V(section)|; the reported product is
    F1 F2 F4 F5 / (F3 F6).  Events: (1) the removal set is nonempty,
    (2) removal-touched vertex count <= m^-d |V(tube)|, (3) the section is
    a strict subset of the tube, (4) the removal's unit-step diamond sum
    is <= C n^d.
    """
    if contraction is None:
        contraction = contraction_map(g)
    marked = untouched_vertices(g)
    tube_marked = tube.mark(marked)
    giant = giant_detect(tube_marked, g, config.giant_threshold)
    f1 = contraction.image_count
    f2 = len(tube.members)
    f3 = g.vertex_count()
    f4 = contraction.preimage_count
    f5 = len(giant["component"])
    f6 = len(section.members)
    product_value = Fraction(f1 * f2 * f4 * f5, f3 * f6) if f6 else None
    touched_count = f3 - len(marked)
    events = {
        "e1_foam_nonempty": len(g.removed) > 0,
        "e2_vertex_bound": touched_count <= (config.m ** -g.d) * f2,
        "e3_section_strict": section.members < tube.members,
        "e4_diamond_bound": len(g.removed) <= config.lesssim_c * g.n ** g.d,
    }
    return {
        "F": [f1, f2, f3, f4, f5, f6],
        "product": product_value,
        "events": events,
        "all_events": all(events.values()),
        "giant": {
            "ratio": giant["ratio"],
            "is_giant": giant["is_giant"],
            "component_count": giant["component_count"],
        },
        "touched_count": touched_count,
    }


# -- the experiment -------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Parameters for the seeded estimator run.  Every tolerance that the
    source statements leave as "approximately" or "up to constants" is an
    explicit field here and echoed in the report."""

    n_values: tuple = (3, 5)
    d: int = 2
    samples: int = 500
    removal_law: dict = field(
        default_factory=lambda: {"kind": "uniform-edge-fraction", "low": 0.45, "high": 0.56}
    )
    epsilon1: float = 0.05
    epsilon2: float = 0.05
    epsilon3: float = 0.05
    theta_grid: tuple = (0.01, 0.02, 0.05, 0.1, 0.2, 0.4)
    seed: int = 42
    giant_threshold: Fraction = Fraction(95, 100)
    m: float = 0.5
    lesssim_c: float = 2.0
    ratio_low: float = 1.5
    ratio_high: float = 3.0
    tube_width: int = 2
    keep_per_sample: bool = False
    foam_d: int = 2
    foam_samples: int = 200

    def __post_init__(self):
        if self.samples < 1:
            raise ExperimentError(f"samples must be at least 1, got {self.samples}")
        for name in ("epsilon1", "epsilon2", "epsilon3"):
            if not 0 < getattr(self, name) < 1:
                raise ExperimentError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if not self.theta_grid or not all(math.isfinite(theta) and theta > 0 for theta in self.theta_grid):
            raise ExperimentError(f"theta_grid must be nonempty, finite and positive, got {list(self.theta_grid)}")
        _check_removal_law(self.removal_law)
        if not self.n_values or len(set(self.n_values)) != len(self.n_values):
            raise ExperimentError(f"n_values must be nonempty and distinct, got {list(self.n_values)}")
        if not all(n >= 3 and n % 2 for n in self.n_values):
            raise ExperimentError(f"every n must be odd and at least 3, got {list(self.n_values)}")
        if not 1 <= self.tube_width <= min(self.n_values):
            raise ExperimentError(
                f"tube_width {self.tube_width} outside [1, min(n_values)] for n_values {list(self.n_values)}"
            )
        if self.d not in (1, 2):
            raise ExperimentError(f"d must be 1 or 2 (angle optimization supports depth <= 2), got {self.d}")
        _check_finite_positive("m", self.m)
        if not self.ratio_low <= self.ratio_high:
            raise ExperimentError(f"ratio_low {self.ratio_low} must not exceed ratio_high {self.ratio_high}")
        _check_foam_probes(self.foam_d, self.foam_samples, self.lesssim_c)

    def to_json(self) -> dict:
        data = asdict(self)
        data["giant_threshold"] = str(self.giant_threshold)
        data["n_values"] = list(self.n_values)
        data["theta_grid"] = list(self.theta_grid)
        return data


def binomial_halfwidth(p_hat: float, count: int) -> float:
    return Z_95 * math.sqrt(p_hat * (1.0 - p_hat) / count)


def _sample_rng(seed: int, n: int, index: int):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n, index)))


def _draw_sample(config: ExperimentConfig, n: int, index: int) -> dict:
    """A sample's torical graph, from its own generator, and its contraction."""
    rng = _sample_rng(config.seed, n, index)
    sample = sample_torical_graph(n, config.d, config.removal_law, rng)
    g = sample["graph"]
    contraction = contraction_map(g)
    record = {
        "n": n,
        "index": index,
        "attempts": sample["attempts"],
        "removal_size": len(g.removed),
        "image": contraction.image_count,
        "preimage": contraction.preimage_count,
        "count_ratio": float(contraction.count_ratio),
    }
    record["possibility"] = classify_count_ratio(record["count_ratio"], config.ratio_low, config.ratio_high)
    return {"record": record, "graph": g, "contraction": contraction}


def _finish_sample(
    config: ExperimentConfig, drawn: dict, q_r: float, q_f: float, cref: float, tube: RegionSet, section: RegionSet
) -> dict:
    """The ratios, events and prefactors of a sample whose restricted value
    is q_r, against the full value q_f and the classical reference cref,
    with the tube and section of its n."""
    record, g, contraction = drawn["record"], drawn["graph"], drawn["contraction"]
    ratios = ratio_variants(q_r, q_f, cref)
    record["q_full"] = q_f
    record["q_restricted"] = q_r
    record["R_theorem"] = ratios["theorem"]
    record["R_proof"] = ratios["proof"]
    # one round of ordinary parallel repetition: tensored (squared) values,
    # and the squared reference, the value of its strategy played twice
    r2 = ratio_variants(q_r**2, q_f**2, cref**2)
    record["R2_theorem"] = r2["theorem"]
    record["R2_proof"] = r2["proof"]
    # decay-theorem ratio: (sup - restricted)/restricted on tensored values
    record["R3_difference"] = (q_f**2 - q_r**2) / q_r**2 if q_r > 0 else float("-inf")
    record["R3_quotient"] = (q_f**2) / (q_r**2) if q_r > 0 else float("inf")
    record["E1"] = sandwich(ratios["theorem"], config.epsilon1)
    record["E2"] = sandwich(r2["theorem"], config.epsilon2)
    record["E3_difference"] = sandwich(record["R3_difference"], config.epsilon3)
    record["E3_quotient"] = sandwich(record["R3_quotient"], config.epsilon3)
    record["sweep"] = [sandwich(ratios["theorem"], theta) for theta in config.theta_grid]
    pf = proposition_prefactors(g, tube, section, config, contraction)
    record["prefactors"] = [int(f) for f in pf["F"]]
    record["prefactor_product"] = float(pf["product"]) if pf["product"] is not None else None
    record["foam_event"] = pf["all_events"]
    record["foam_events_detail"] = pf["events"]
    record["giant_ratio"] = float(pf["giant"]["ratio"])
    record["is_giant"] = pf["giant"]["is_giant"]
    return record


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    per_n: dict
    samples: list
    foam: Optional[dict] = None

    def to_json(self) -> dict:
        data = {
            "schema": "oddcycle.experiment/1",
            "config": self.config.to_json(),
            "per_n": self.per_n,
            "foam_probes": self.foam,
            "scale_notes": [
                "the sparse-deletion set-distance property (deleted sets below"
                " ~3e-6 of the edges lie at tube distance two) is a sanity"
                " check at scale only; desk-size graphs cannot exhibit it and"
                " nothing here asserts it"
            ],
        }
        if self.config.keep_per_sample:
            data["samples"] = self.samples
        return data

    def sweep_rows(self) -> list:
        """CSV rows (theta, ratio, phat, halfwidth) for the threshold sweep,
        per n; ratio is P[sweep event at theta] / P[E1]."""
        rows = []
        for n_key in sorted(self.per_n):
            agg = self.per_n[n_key]
            base = agg["P_E1"]
            for theta, p_hat, half in zip(
                agg["theta_grid"], agg["sweep_phat"], agg["sweep_halfwidth"]
            ):
                ratio = p_hat / base if base > 0 else float("inf")
                rows.append({"n": n_key, "theta": theta, "ratio": ratio, "phat": p_hat, "halfwidth": half})
        return rows


def estimate_events(config: ExperimentConfig) -> ExperimentReport:
    """Monte Carlo over sampled torical graphs: events E1/E2 (both ratio
    variants), the decay-theorem event, the threshold sweep, possibility
    frequencies, prefactors, and the foam-event probability.  Bitwise
    reproducible for a fixed config.

    Per n, the game, its classical reference, the tube and the section are
    built once; every sample is drawn, then the full game and the
    restrictions of all samples are optimised as one batch from the
    canonical tables, which no restricted value may end below (less
    1e-12: InvariantError), then each sample's ratios and events are
    computed.  Every sample is used, so ``excluded`` is always 0."""
    per_n = {}
    all_samples = []
    count = config.samples
    for n in config.n_values:
        game = make_odd_cycle_game(n, config.d)
        ref = classical_reference(game)
        tube = make_tube(TorusGraph(n, config.d), axis=0, base=tuple([0] * config.d), width=config.tube_width)
        section = make_section(tube, position=0)
        drawn = [_draw_sample(config, n, i) for i in range(count)]
        q_full, *optima = _optima(game, [None] + [s["contraction"].kept for s in drawn])
        if min(optima) < q_full - 1e-12:
            raise InvariantError(f"n={n}: sample {np.argmin(optima)} has q_restricted {min(optima)} < q_full {q_full}")
        records = [
            _finish_sample(config, s, q_r, q_full, float(ref["value"]), tube, section)
            for s, q_r in zip(drawn, optima)
        ]
        agg = {
            "n": n,
            "samples": count,
            "used": count,
            "excluded": 0,
            "classical_ref": str(ref["value"]),
            "classical_ref_float": float(ref["value"]),
            "classical_ref_method": ref["method"],
            "classical_ref_exact": ref["exact"],
            "q_full": q_full,
            "acceptance_rate": count / sum(r["attempts"] for r in records),
            "theta_grid": list(config.theta_grid),
        }

        def share(hit) -> float:
            return sum(1 for r in records if hit(r)) / count

        def mean(key):
            return float(np.mean([r[key] for r in records]))

        for name, key in (
            ("P_E1", "E1"),
            ("P_E2", "E2"),
            ("P_E3_difference", "E3_difference"),
            ("P_E3_quotient", "E3_quotient"),
            ("P_foam", "foam_event"),
        ):
            p_hat = share(lambda r: r[key])
            agg[name] = p_hat
            agg[name + "_halfwidth"] = binomial_halfwidth(p_hat, count)
        agg["event_frequencies"] = {
            key: share(lambda r: r["foam_events_detail"][key])
            for key in ("e1_foam_nonempty", "e2_vertex_bound", "e3_section_strict", "e4_diamond_bound")
        }
        sweep_phat = [share(lambda r: r["sweep"][pos]) for pos in range(len(config.theta_grid))]
        agg["sweep_phat"] = sweep_phat
        agg["sweep_halfwidth"] = [binomial_halfwidth(p_hat, count) for p_hat in sweep_phat]
        # larger theta tightens the sandwich, so the sweep must be
        # nonincreasing along the sorted grid
        ordered = sorted(zip(config.theta_grid, sweep_phat))
        if any(a[1] < b[1] - 1e-12 for a, b in zip(ordered, ordered[1:])):
            raise InvariantError(f"n={n}: threshold sweep not nonincreasing: {ordered}")
        agg["possibility_frequencies"] = {str(k): share(lambda r: r["possibility"] == k) for k in (1, 2, 3)}
        agg["possibility_4_observed"] = False  # a count ratio below 1 raises per sample
        for key in ("P_E3_difference", "P_E3_quotient"):
            foam = agg["P_foam"]
            agg[key + "_over_P_foam"] = (agg[key] / foam) if foam > 0 else None
        for key in ("R_theorem", "R_proof", "prefactor_product", "count_ratio", "giant_ratio"):
            agg["mean_" + key] = mean(key)
        per_n[str(n)] = agg
        all_samples.extend(records)
    foam = foam_probes(
        d=config.foam_d,
        samples=config.foam_samples,
        seed=config.seed,
        lesssim_c=config.lesssim_c,
    )
    return ExperimentReport(config, per_n, all_samples, foam)


# -- foam probes ----------------------------------------------------------------


def random_unit_matrix(rng, dim: int) -> np.ndarray:
    real = rng.standard_normal((dim, dim))
    imag = rng.standard_normal((dim, dim))
    x = real + 1j * imag
    return x / np.linalg.norm(x)


def channel_diamond(x: np.ndarray, phi=None, parties: tuple = (2, 2)) -> float:
    """Trace norm ||(Phi (x) I) X||_1 for a channel Phi acting on the first
    tensor leg; Phi defaults to the identity channel."""
    k, nb = parties
    x = np.asarray(x, dtype=complex).reshape(k, nb, k, nb)
    if phi is not None:
        out = np.empty_like(x)
        for b in range(nb):
            for dd in range(nb):
                out[:, b, :, dd] = phi(x[:, b, :, dd])
        x = out
    flat = x.reshape(k * nb, k * nb)
    return float(np.linalg.svd(flat, compute_uv=False).sum())


def minimizing_pair_indicators(per_pair: dict) -> dict:
    """The three indicators over basis pairs {e1,e2}, {e1,e3}, {e2,e3}:
    indicator k fires exactly when the minimizing pair differs from both
    pairs listed in its definition, i.e. equals the remaining one."""
    min_pair = min(sorted(per_pair), key=lambda k: per_pair[k])
    return {
        "1_1": int(min_pair == (1, 3)),
        "1_2": int(min_pair == (1, 2)),
        "1_3": int(min_pair == (2, 3)),
    }


def _check_finite_positive(name: str, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (math.isfinite(value) and value > 0):
        raise ExperimentError(f"{name} must be a finite number above 0, got {value!r}")


def _check_foam_probes(d: int, samples: int, lesssim_c: float):
    if d not in (2, 3):
        raise ExperimentError(f"foam probes are stated for d in {{2, 3}}, got {d}")
    if samples < 1:
        raise ExperimentError(f"foam probes need at least one sample, got {samples}")
    _check_finite_positive("lesssim_c", lesssim_c)


def foam_probes(
    d: int = 2,
    samples: int = 200,
    seed: int = 0,
    lesssim_c: float = 2.0,
) -> dict:
    """Empirical satisfaction frequencies for the five foam probes at the
    stated quantifiers (n = 2, d in {2, 3}) plus the three minimizing-pair
    indicators.  The surface-area infimum is the minimum all-nontrivial
    blocker of T_n^d, the transverse cut of d * 2^(d-1) edges at n = 2;
    the L-infinity and Rademacher measures of that blocker coincide with
    its cardinality for unit edge steps; the channel variant draws a random
    unit matrix per basis pair and takes the trace norm under the identity
    channel."""
    _check_foam_probes(d, samples, lesssim_c)
    n = 2
    rng = np.random.default_rng(seed)
    blocker = min_blocker(TorusGraph(n, d))
    surface_inf = blocker["size"]
    bound = lesssim_c * n ** d
    pair_keys = list(combinations(range(1, d + 1), 2))
    # random_unit_matrix(rng, n * n) for each sample and pair, drawn in one
    # batch from the same stream, and the trace norms channel_diamond gives
    x = rng.standard_normal((samples, len(pair_keys), 2, n * n, n * n))
    x = x[:, :, 0] + 1j * x[:, :, 1]
    x /= np.linalg.norm(x, axis=(-2, -1), keepdims=True)
    trace_norms = np.linalg.svd(x, compute_uv=False).sum(axis=-1)
    sat = dict.fromkeys(("P1", "P2", "P3"), samples * int(surface_inf <= bound))
    sat["P4"] = int((trace_norms.min(axis=1) <= bound).sum())
    sat["P5"] = int((trace_norms.max(axis=1) <= bound).sum())
    indicator_counts = {"1_1": 0, "1_2": 0, "1_3": 0}
    if d == 3:
        for per_pair in trace_norms:
            for key, hit in minimizing_pair_indicators(dict(zip(pair_keys, per_pair))).items():
                indicator_counts[key] += hit
    out = {
        "n": n,
        "d": d,
        "samples": samples,
        "seed": seed,
        "surface_inf": surface_inf,
        "bound": bound,
        "frequencies": {k: v / samples for k, v in sat.items()},
        "indicators": {k: v / samples for k, v in indicator_counts.items()},
    }
    if d == 2:
        out["indicator_note"] = "single basis pair at d = 2; indicators degenerate to 0"
    return out
