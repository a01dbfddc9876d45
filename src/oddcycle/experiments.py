"""Seeded Monte Carlo estimators for the contraction-mapping events, the
prefactor product, and the foam probability probes.

The base game for the estimators is the torus-question odd-cycle game: the
referee draws a vertex of T_n^2 and an offset t in {0,1}^2 per coordinate,
which is exactly the depth-2 tensor game.  A removed edge set kills the
question pairs whose elementary axis path (axis 0 before axis 1) crosses a
removed edge; restricted values are heuristic angle-optimization suprema
over the surviving pairs.  "One round of ordinary parallel repetition"
squares the base values; the repeated classical reference uses the product
witness bound (exact repeated values are beyond any exhaustive budget).

Every sample draws its own generator from the master seed by a counter
split, so results are bitwise reproducible for a fixed config and do not
depend on which other samples share an optimisation batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

import numpy as np

from .games import (
    classical_value_exact,
    classical_value_search,
    evaluate_strategy,
    make_odd_cycle_game,
    strategy_from_coordinate_rule,
)
from .quantum import canonical_odd_cycle_strategy, optimize_angles, optimize_restrictions
from .torus import (
    BudgetExceeded,
    RegionSet,
    TorusGraph,
    edge_id,
    giant_detect,
    is_blocker,
    make_section,
    make_tube,
    min_blocker,
    torus_edges,
    transverse_cut_blocker,
    verify_blocker,  # unused here; perfbench/spans.py traces this binding
)

Z_95 = 1.96


class ExperimentError(ValueError):
    pass


class SamplingError(RuntimeError):
    pass


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
    """Surviving question pairs induced by a removed edge set: a pair
    (u, u+t) is in the image iff its elementary path avoids the removals."""

    graph: TorusGraph
    surviving: tuple
    preimage_count: int

    @property
    def image_count(self) -> int:
        return len(self.surviving)

    @property
    def count_ratio(self) -> Fraction:
        if self.image_count == 0:
            raise ExperimentError("empty image: degenerate contraction")
        return Fraction(self.preimage_count, self.image_count)


@functools.lru_cache(maxsize=64)
def _elementary_paths(n: int, d: int) -> tuple:
    """(path edges, question pair (u, u+t)) for every u in [n]^d and t in
    {0,1}^d; samples of one shape share these pair tuples."""
    paths = []
    for u in product(range(n), repeat=d):
        for t_bits in product((0, 1), repeat=d):
            qb = tuple((c + b) % n for c, b in zip(u, t_bits))
            paths.append((tuple(elementary_path_edges(u, t_bits, n)), (u, qb)))
    return tuple(paths)


def contraction_map(g: TorusGraph) -> ContractionMap:
    paths = _elementary_paths(g.n, g.d)
    surviving = tuple(pair for edges, pair in paths if g.removed.isdisjoint(edges))
    return ContractionMap(g, surviving, len(paths))


def classify_count_ratio(ratio: float, low: float, high: float) -> int:
    """Possibility classes for |preimage|/|image|: (1) near one, (2) much
    larger than one, (3) in between.  (4), near zero, cannot occur since
    the image is a subset of the preimage; callers assert ratio >= 1."""
    if ratio < 1:
        raise ExperimentError("count ratio below 1: image exceeds preimage")
    if ratio <= low:
        return 1
    if ratio >= high:
        return 2
    return 3


# -- torical graph sampling ----------------------------------------------------


MAX_SAMPLE_ATTEMPTS = 100_000
# removal-law kind -> the keys it needs
REMOVAL_LAWS = {
    "transverse": (),
    "uniform-size": ("size",),
    "uniform-size-range": ("low", "high"),
    "uniform-edge-fraction": ("low", "high"),
}


def _check_removal_law(removal_law: dict):
    """ExperimentError unless the law has a REMOVAL_LAWS kind and its keys."""
    needs = REMOVAL_LAWS.get(removal_law.get("kind"))
    if needs is None or not all(key in removal_law for key in needs):
        raise ExperimentError(f"unknown removal law {removal_law!r}")


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

    Returns the graph plus attempt statistics; aborts with diagnostics when
    the acceptance rate collapses.
    """
    TorusGraph(n, d)  # rejects a bad shape before any draw
    _check_removal_law(removal_law)
    edges = torus_edges(n, d)
    kind = removal_law["kind"]
    if kind == "transverse":
        low = high = 0
    elif kind == "uniform-size":
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

    for attempts in range(1, MAX_SAMPLE_ATTEMPTS + 1):
        if kind == "transverse":
            ids = [edge_id(e, n) for e in transverse_cut_blocker(n, d)]
        else:
            size = low if kind == "uniform-size" else int(rng.integers(low, high + 1))
            ids = rng.choice(len(edges), size=size, replace=False).tolist()
        if is_blocker(n, d, ids, "odd-only"):
            g = TorusGraph(n, d, frozenset(edges[i] for i in ids))
            return {"graph": g, "attempts": attempts, "accepted": True}
    raise SamplingError(
        f"no torical sample accepted in {MAX_SAMPLE_ATTEMPTS} attempts "
        f"(n={n}, d={d}, law={removal_law}); acceptance below 1e-4"
    )


# -- restricted values ---------------------------------------------------------


def restricted_values(g: TorusGraph, base_n: int, d: int = 2, seed: int = 0, starts: int = 8, sweeps: int = 200) -> dict:
    """Quantum value of the full depth-d game vs the surviving-question
    subgame (renormalized distribution), plus the classical reference.
    Suprema are heuristic angle optimizations (lower bounds)."""
    if g.n != base_n or g.d != d:
        raise ExperimentError("graph shape does not match the requested game")
    contraction = contraction_map(g)
    if contraction.image_count == 0:
        return {"degenerate": True, "contraction": contraction}
    game, inits = _canonical_problem(base_n, d)
    full_value = optimize_angles(game, seed=seed, starts=starts, sweeps=sweeps, inits=inits)["value"]
    (restricted,) = _restricted_optima(base_n, d, [contraction], [seed], starts, sweeps)
    return {
        "degenerate": False,
        "q_full": float(full_value),
        "q_restricted": restricted,
        "classical_ref": classical_reference(base_n, d)["value"],
        "contraction": contraction,
    }


def _canonical_problem(n: int, d: int) -> tuple:
    """The depth-d odd-cycle game and the canonical angle tables as the one
    init of its optimisations."""
    canonical = canonical_odd_cycle_strategy(n)
    return make_odd_cycle_game(n, d), [(dict(canonical.alice_angles), dict(canonical.bob_angles))]


def _restricted_optima(n: int, d: int, contractions: list, seeds: list, starts: int, sweeps: int) -> list:
    """Angle-optimised values of the subgames surviving each contraction,
    restriction i seeded by seeds[i], all in one optimize_restrictions call."""
    game, inits = _canonical_problem(n, d)
    restrictions = [set(c.surviving) for c in contractions]
    results = optimize_restrictions(game, restrictions, seeds, starts=starts, sweeps=sweeps, inits=inits)
    return [float(r["value"]) for r in results]


def classical_reference(n: int, d: int, seed: int = 0, iterations: int = 60_000) -> dict:
    """Classical value of the depth-d game: exact when the Alice-table
    budget allows, else a labeled lower bound, the larger of the search
    value and the exact value of the x mod 2 product witness."""
    game = make_odd_cycle_game(n, d)
    try:
        report = classical_value_exact(game)
        return {"value": report.exact, "method": report.method, "exact": True}
    except BudgetExceeded:
        report = classical_value_search(game, seed=seed, iterations=iterations)
        witness = evaluate_strategy(game, strategy_from_coordinate_rule(game, lambda x: x % 2))
        if witness > report.exact:
            return {"value": witness, "method": "product-witness", "exact": False}
        return {"value": report.exact, "method": report.method, "exact": False}


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

    F1 = surviving (image) pair count, F2 = |V(tube)|, F3 = |V(T^d)|,
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
    approx_band: tuple = (0.9, 1.0)
    ratio_low: float = 1.5
    ratio_high: float = 3.0
    tube_width: int = 2
    opt_starts: int = 4
    opt_sweeps: int = 200
    classical_search_iterations: int = 60_000
    keep_per_sample: bool = False
    foam_d: int = 2
    foam_samples: int = 200

    def __post_init__(self):
        if self.samples < 1:
            raise ExperimentError(f"samples must be at least 1, got {self.samples}")
        for name in ("epsilon1", "epsilon2", "epsilon3"):
            if not 0 < getattr(self, name) < 1:
                raise ExperimentError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if not self.theta_grid or not all(theta > 0 for theta in self.theta_grid):
            raise ExperimentError(f"theta_grid must be nonempty and positive, got {list(self.theta_grid)}")
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

    def to_json(self) -> dict:
        data = asdict(self)
        data["giant_threshold"] = str(self.giant_threshold)
        data["n_values"] = list(self.n_values)
        data["theta_grid"] = list(self.theta_grid)
        data["approx_band"] = list(self.approx_band)
        return data


def binomial_halfwidth(p_hat: float, count: int) -> float:
    if count == 0:
        return float("inf")
    return Z_95 * math.sqrt(p_hat * (1.0 - p_hat) / count)


def _sample_rng(seed: int, n: int, index: int):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n, index)))


def _draw_sample(config: ExperimentConfig, n: int, index: int) -> dict:
    """A sample's torical graph, its contraction and the seed of its
    restricted optimisation, drawn in that order from its own generator."""
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
        "degenerate": contraction.image_count == 0,
    }
    drawn = {"record": record, "graph": g, "contraction": contraction}
    if not record["degenerate"]:
        ratio_counts = float(contraction.count_ratio)
        record["count_ratio"] = ratio_counts
        record["possibility"] = classify_count_ratio(ratio_counts, config.ratio_low, config.ratio_high)
        drawn["seed"] = int(rng.integers(0, 2**31))
    return drawn


def _finish_sample(config: ExperimentConfig, drawn: dict, q_r: float, cache: dict) -> dict:
    """The ratios, events and prefactors of a non-degenerate sample whose
    restricted value is q_r."""
    record, g, contraction = drawn["record"], drawn["graph"], drawn["contraction"]
    q_f = cache["q_full"]
    cref = float(cache["classical_ref"])
    ratios = ratio_variants(q_r, q_f, cref)
    record["q_full"] = q_f
    record["q_restricted"] = q_r
    record["R_theorem"] = ratios["theorem"]
    record["R_proof"] = ratios["proof"]
    # one round of ordinary parallel repetition: tensored (squared) values,
    # repeated classical reference via the product witness bound
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
    tube = make_tube(g, axis=0, base=tuple([0] * config.d), width=config.tube_width)
    section = make_section(tube, position=0)
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

    Per n, every sample is drawn first, then the restricted optimisations
    of the non-degenerate ones run as one batch, then each sample's ratios
    and events are computed."""
    per_n = {}
    all_samples = []
    for n in config.n_values:
        game_cache = _per_n_cache(config, n)
        drawn = [_draw_sample(config, n, i) for i in range(config.samples)]
        live = [s for s in drawn if not s["record"]["degenerate"]]
        optima = _restricted_optima(
            n,
            config.d,
            [s["contraction"] for s in live],
            [s["seed"] for s in live],
            config.opt_starts,
            config.opt_sweeps,
        )
        for s, q_r in zip(live, optima):
            _finish_sample(config, s, q_r, game_cache)
        records = [s["record"] for s in drawn]
        used = [r for r in records if not r["degenerate"]]
        excluded = [r for r in records if r["degenerate"]]
        if len(used) + len(excluded) != config.samples:
            raise ExperimentError(
                f"n={n}: {len(used)} used + {len(excluded)} excluded != {config.samples} samples"
            )
        count = len(used)
        agg = {
            "n": n,
            "samples": config.samples,
            "used": count,
            "excluded": len(excluded),
            "classical_ref": str(game_cache["classical_ref"]),
            "classical_ref_float": float(game_cache["classical_ref"]),
            "classical_ref_method": game_cache["classical_method"],
            "classical_ref_exact": game_cache["classical_exact"],
            "q_full": game_cache["q_full"],
            "acceptance_rate": count / max(1, sum(r["attempts"] for r in records)),
            "theta_grid": list(config.theta_grid),
        }

        def share(hit) -> float:
            return sum(1 for r in used if hit(r)) / count if count else 0.0

        def mean(key):
            return float(np.mean([r[key] for r in used])) if used else None

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
            raise ExperimentError(f"n={n}: threshold sweep not nonincreasing: {ordered}")
        agg["possibility_frequencies"] = {str(k): share(lambda r: r["possibility"] == k) for k in (1, 2, 3)}
        agg["possibility_4_observed"] = False  # count ratio >= 1 is asserted per sample
        for key in ("P_E3_difference", "P_E3_quotient"):
            foam = agg["P_foam"]
            agg[key + "_over_P_foam"] = (agg[key] / foam) if foam > 0 else None
        for key in ("R_theorem", "R_proof", "prefactor_product", "count_ratio", "giant_ratio"):
            agg["mean_" + key] = mean(key)
        per_n[str(n)] = agg
        all_samples.extend(records)
    foam = foam_probes(
        n=2,
        d=config.foam_d,
        samples=config.foam_samples,
        seed=config.seed,
        lesssim_c=config.lesssim_c,
    )
    return ExperimentReport(config, per_n, all_samples, foam)


def _per_n_cache(config: ExperimentConfig, n: int) -> dict:
    game, inits = _canonical_problem(n, config.d)
    q_full = optimize_angles(
        game, seed=config.seed, starts=config.opt_starts, sweeps=config.opt_sweeps, inits=inits
    )["value"]
    ref = classical_reference(
        n, config.d, seed=config.seed, iterations=config.classical_search_iterations
    )
    return {
        "q_full": float(q_full),
        "classical_ref": ref["value"],
        "classical_method": ref["method"],
        "classical_exact": ref["exact"],
    }


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


def foam_probes(
    n: int = 2,
    d: int = 2,
    samples: int = 200,
    seed: int = 0,
    lesssim_c: float = 2.0,
) -> dict:
    """Empirical satisfaction frequencies for the five foam probes at the
    stated quantifiers (n = 2, d in {2, 3}) plus the three minimizing-pair
    indicators.  The surface-area infimum is the minimum all-nontrivial
    blocker of T_n^d; the L-infinity and Rademacher measures of that
    blocker coincide with its cardinality for unit edge steps; the channel
    variant draws a random unit matrix per basis pair and takes the trace
    norm under the identity channel."""
    if n != 2:
        raise ExperimentError("foam probes are stated for n = 2")
    if d not in (2, 3):
        raise ExperimentError("foam probes are stated for d in {2, 3}")
    if samples < 1:
        raise ExperimentError("foam probes need at least one sample")
    rng = np.random.default_rng(seed)
    blocker = min_blocker(TorusGraph(n, d))
    surface_inf = blocker["size"]
    bound = lesssim_c * n ** d
    pair_keys = list(combinations(range(1, d + 1), 2))
    sat = {f"P{k}": 0 for k in range(1, 6)}
    indicator_counts = {"1_1": 0, "1_2": 0, "1_3": 0}
    for _ in range(samples):
        per_pair = {}
        for key in pair_keys:
            x = random_unit_matrix(rng, n * n)
            per_pair[key] = channel_diamond(x, parties=(n, n))
        sat["P1"] += surface_inf <= bound
        sat["P2"] += surface_inf <= bound  # L-infinity measure of unit steps
        sat["P3"] += surface_inf <= bound  # Rademacher diamond of unit steps
        sat["P4"] += min(per_pair.values()) <= bound
        sat["P5"] += max(per_pair.values()) <= bound
        if d == 3:
            for key, hit in minimizing_pair_indicators(per_pair).items():
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
