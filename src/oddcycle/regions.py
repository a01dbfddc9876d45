"""Consistent regions and pearls, the value-via-regions formula, the
Rademacher diamond norm with its lambda measure, the blocker integral
bound, gap bookkeeping between supporting sets, and the cycle-growing
procedure on torical graphs.

A region R inside Bob's neighborhood Q_y = {(y - t) mod n : t in {0,1}^d}
is consistent with Alice's table S_A when every pair x, x' in R satisfies
S_A(x) XOR S_A(x') == wrapped(x - x') mod 2 coordinatewise.  Within Q_y
that condition is equivalent to constancy of h(x) = S_A(x) XOR t_x (t_x
the offset with x = y - t_x), so the maximum consistent region is the
largest h-fiber; the honest pairwise predicate is kept for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

import numpy as np

from .torus import (
    CyclePath,
    TorusGraph,
    TorusError,
    edge_id,
    geodesic,
    is_blocker,
    torus_linf,
    winding_and_parity,
    wrapped_diff,
)

MAX_REGION_DEPTH = 8


class RegionError(ValueError):
    pass


def q_neighborhood(y: tuple, n: int, d: int) -> list:
    """Q_y: the questions Bob can answer around center y, ordered by offset."""
    out = []
    for t_bits in product((0, 1), repeat=d):
        out.append(tuple((c - t) % n for c, t in zip(y, t_bits)))
    return out


def pair_consistent(s_a: dict, x: tuple, x2: tuple, n: int, d: int) -> bool:
    """The pairwise consistency predicate, stated directly."""
    answers = s_a[x] ^ s_a[x2]
    for i in range(d):
        want = wrapped_diff(x[i], x2[i], n) % 2
        if ((answers >> i) & 1) != want:
            return False
    return True


def region_is_consistent(s_a: dict, region: Sequence[tuple], n: int, d: int) -> bool:
    return all(pair_consistent(s_a, x, x2, n, d) for x, x2 in combinations(region, 2))


@dataclass
class ConsistentRegion:
    """Maximum consistent subset of Q_y for one center y."""

    center: tuple
    members: tuple
    neighborhood: tuple

    def __post_init__(self):
        if not set(self.members) <= set(self.neighborhood):
            raise RegionError("region must lie inside its neighborhood")

    def __len__(self):
        return len(self.members)


def max_consistent_region(s_a: dict, y: tuple, n: int, d: int) -> ConsistentRegion:
    """Largest consistent subset of Q_y, ties broken by the
    lexicographically smallest member tuple list."""
    if d > MAX_REGION_DEPTH:
        raise RegionError(f"depth {d} beyond supported cap {MAX_REGION_DEPTH}")
    y = tuple(y)
    hood = q_neighborhood(y, n, d)
    fibers: dict = {}
    for t_bits in product((0, 1), repeat=d):
        x = tuple((c - t) % n for c, t in zip(y, t_bits))
        t_packed = sum(bit << i for i, bit in enumerate(t_bits))
        key = s_a[x] ^ t_packed
        fibers.setdefault(key, set()).add(x)
    best_size = max(len(f) for f in fibers.values())
    candidates = sorted(sorted(f) for f in fibers.values() if len(f) == best_size)
    return ConsistentRegion(y, tuple(candidates[0]), tuple(hood))


@dataclass
class Pearl:
    """Family {R_y : y in [n]^d} of regions, one per center.  Ordinary
    pearls only require R_y inside Q_y (enforced by the region type); a
    pearl is consistent for a strategy when every member region passes the
    pairwise predicate."""

    n: int
    d: int
    regions: dict = field(default_factory=dict)

    def is_consistent(self, s_a: dict) -> bool:
        return all(
            region_is_consistent(s_a, r.members, self.n, self.d)
            for r in self.regions.values()
        )

    def to_json(self) -> dict:
        return {
            ",".join(str(c) for c in y): [list(m) for m in region.members]
            for y, region in sorted(self.regions.items())
        }


def build_pearl(s_a: dict, n: int, d: int) -> Pearl:
    pearl = Pearl(n, d)
    for y in product(range(n), repeat=d):
        pearl.regions[y] = max_consistent_region(s_a, y, n, d)
    return pearl


def value_via_regions(s_a: dict, n: int, d: int) -> Fraction:
    """(1 / (n^d 2^d)) * sum_y |R_y| over maximum consistent regions;
    reproduces the classical value of S_A under Bob's best response."""
    total = 0
    for y in product(range(n), repeat=d):
        total += len(max_consistent_region(s_a, y, n, d))
    return Fraction(total, n ** d * 2 ** d)


# -- diamond norm ---------------------------------------------------------------


@dataclass
class DiamondVector:
    entries: tuple

    def __post_init__(self):
        entries = tuple(float(e) for e in self.entries)
        if any(not math.isfinite(e) for e in entries):
            raise RegionError("diamond vector entries must be finite")
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)


EXACT_DIAMOND_CAP = 24


def diamond_norm(
    vector,
    method: str = "exact-enumeration",
    seed: int = 0,
    samples: int = 4096,
) -> dict:
    """E|sum a_i chi_i| over uniform signs chi.

    Exact mode averages all 2^d sign vectors (d <= 24, via half-splitting);
    monte-carlo mode returns a seeded estimate with its standard error.
    """
    if isinstance(vector, DiamondVector):
        entries = np.array(vector.entries, dtype=float)
    else:
        entries = np.array([float(e) for e in vector], dtype=float)
    d = entries.size
    if d == 0:
        raise RegionError("empty vector")
    if method == "exact-enumeration":
        if d > EXACT_DIAMOND_CAP:
            raise RegionError(f"exact enumeration capped at d = {EXACT_DIAMOND_CAP}")
        half = d // 2
        left = _signed_sums(entries[:half])
        right = _signed_sums(entries[half:])
        total = np.abs(left[:, None] + right[None, :]).sum()
        return {"value": float(total / (left.size * right.size)), "method": method}
    if method == "monte-carlo":
        if samples < 1:
            raise RegionError("monte-carlo needs at least one sample")
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(samples, d)) * 2 - 1
        draws = np.abs(signs @ entries)
        value = float(draws.mean())
        stderr = float(draws.std(ddof=1) / math.sqrt(samples)) if samples > 1 else float("inf")
        return {"value": value, "stderr": stderr, "method": method, "samples": samples, "seed": seed}
    raise RegionError(f"unknown method {method!r}")


def _signed_sums(entries: np.ndarray) -> np.ndarray:
    sums = np.zeros(1)
    for e in entries:
        sums = np.concatenate([sums + e, sums - e])
    return sums


def l2_sandwich(vector) -> dict:
    """Lower/upper bracket |A|_2 / sqrt(2) <= |A|_diamond <= |A|_2."""
    entries = np.array([float(e) for e in vector], dtype=float)
    l2 = float(np.linalg.norm(entries))
    return {"lower": l2 / math.sqrt(2), "upper": l2}


def lambda_measure(segments: Sequence) -> dict:
    """Per-segment lambda = diamond/2, total by additivity."""
    if not segments:
        raise RegionError("need at least one segment")
    per = [diamond_norm(seg)["value"] / 2.0 for seg in segments]
    return {"per_segment": per, "total": float(sum(per))}


def blocker_integral_bound(steps: Sequence, n: int, epsilon: float) -> dict:
    """Lower bound 1 - ((1+eps)/n) * sum of per-step diamond norms for a
    closed curve on the torus, discretized into L-infinity unit steps
    (diagonal steps allowed).  The discrete Riemann sum stands in for the
    curve integral; clamping to [0,1] is flagged."""
    if epsilon <= 0:
        raise RegionError("epsilon must be positive")
    if not steps:
        raise RegionError("empty curve")
    total = [0] * len(steps[0])
    diamond_sum = 0.0
    for step in steps:
        if max(abs(c) for c in step) != 1:
            raise RegionError(f"step {step} is not an L-infinity unit step")
        for i, c in enumerate(step):
            total[i] += c
        diamond_sum += diamond_norm(step)["value"]
    if any(t % n != 0 for t in total):
        raise RegionError("curve is not closed on the torus")
    raw = 1.0 - (1.0 + epsilon) / n * diamond_sum
    clamped = min(1.0, max(0.0, raw))
    return {
        "bound": clamped,
        "raw": raw,
        "clamped": clamped != raw,
        "diamond_sum": diamond_sum,
        "label": "discrete",
    }


# -- gap overlap ----------------------------------------------------------------


def gap_overlap(q_a, q_b, universe: Optional[Sequence[int]] = None) -> dict:
    """Symmetric difference of the two supporting sets, grouped into maximal
    runs of consecutive universe positions; gap magnitude is the run length
    and the overlap count is |q_a symdiff q_b|."""
    set_a = set(q_a)
    set_b = set(q_b)
    if universe is None:
        if set_a | set_b:
            lo = min(set_a | set_b)
            hi = max(set_a | set_b)
            universe = range(lo, hi + 1)
        else:
            universe = range(0)
    uni = list(universe)
    uni_set = set(uni)
    if not (set_a <= uni_set and set_b <= uni_set):
        raise RegionError("supporting sets must lie inside the index universe")
    disagree = set_a ^ set_b
    gaps = []
    run = []
    for idx in uni:
        if idx in disagree:
            run.append(idx)
        elif run:
            gaps.append(run)
            run = []
    if run:
        gaps.append(run)
    return {
        "overlap_count": len(disagree),
        "gaps": gaps,
        "max_gap_magnitude": max((len(g) for g in gaps), default=0),
    }


# -- cycle growing -------------------------------------------------------------


def grow_consistent_cycle(
    g: TorusGraph,
    s_a: dict,
    seed: int = 0,
    max_points: int = 8,
    strict: bool = False,
    center: Optional[tuple] = None,
) -> dict:
    """Grow a consistent point set outward from a seeded center's
    neighborhood, then close it into a cycle with geodesics.

    Each step adds the point outside Q_y (and not yet chosen, with at least
    one surviving incident edge) that is L-infinity nearest to Q_y while
    keeping the set pairwise consistent; ties break lexicographically.  On
    a torical graph any closed walk on surviving edges has even winding, so
    completed cycles are expected topologically even; the winding report
    uses the same machinery as ``winding_and_parity``.  The isoperimetric
    diagnostic (1.5 n vs 2 n^2 (1 - v)) is reported, never asserted.
    """
    rng = np.random.default_rng(seed)
    if strict:
        if not is_blocker(g.n, g.d, [edge_id(e, g.n) for e in g.removed], "odd-only"):
            raise RegionError("strict mode requires a torical graph (odd cycles blocked)")
    n, d = g.n, g.d
    if center is None:
        center = tuple(int(rng.integers(0, n)) for _ in range(d))
    hood = set(q_neighborhood(center, n, d))
    trace = []
    chosen: list = []
    pool = [v for v in g.vertices() if v not in hood and not g.is_isolated(v)]
    value = value_via_regions(s_a, n, d)
    diagnostic = {
        "lhs": 1.5 * n,
        "rhs": 2.0 * n * n * (1.0 - float(value)),
        "note": "reported only; stated for large depth",
    }
    result = {
        "center": center,
        "trace": trace,
        "diagnostic": diagnostic,
        "consistent": True,
        "completed": False,
        "cycle": None,
        "even": None,
        "homotopy_zero": None,
    }
    while len(chosen) < max_points:
        candidates = []
        for v in pool:
            if v in chosen:
                continue
            if all(pair_consistent(s_a, v, c, n, d) for c in chosen):
                dist = min(torus_linf(v, q, n) for q in hood)
                candidates.append((dist, v))
        if not candidates:
            trace.append({"event": "no consistent extension", "at_size": len(chosen)})
            result["reason"] = "no consistent extension"
            break
        candidates.sort()
        dist, point = candidates[0]
        chosen.append(point)
        trace.append({"event": "point added", "point": point, "distance": dist, "consistent": True})
    result["points"] = list(chosen)
    if max_points == 0 or not chosen:
        result["completed"] = max_points == 0
        result["cycle"] = CyclePath([], [], tuple([0] * d))
        result["even"] = True
        result["homotopy_zero"] = True
        return result
    if len(chosen) == 1:
        result["reason"] = result.get("reason", "single point, no closure")
        return result
    walk = []
    try:
        legs = chosen + [chosen[0]]
        for a, b in zip(legs, legs[1:]):
            piece = geodesic(g, a, b)
            if walk:
                piece = piece[1:]
            walk.extend(piece)
    except TorusError:
        result["reason"] = "points disconnected in the residual graph"
        return result
    report = winding_and_parity(g, walk)
    result["completed"] = True
    result["cycle"] = report["cycle"]
    result["even"] = not report["odd"]
    result["homotopy_zero"] = not report["nontrivial"]
    result["consistent"] = region_is_consistent(s_a, chosen, n, d)
    trace.append(
        {
            "event": "closure",
            "winding": report["winding"],
            "even": not report["odd"],
            "homotopy_zero": not report["nontrivial"],
        }
    )
    return result
