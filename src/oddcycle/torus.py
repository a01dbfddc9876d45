"""Torus grid graphs: winding numbers, blocker verification and search,
tubes/sections/cubes, geodesics, and marked-component statistics.

Vertices are integer tuples in [0, n)^d.  An edge is identified by
``(vertex, axis)`` and connects ``vertex`` to ``vertex + e_axis (mod n)``.
For n == 2 the two edges ``(v, a)`` and ``(v + e_a, a)`` are parallel
(same endpoints); all machinery here is edge-based so that case stays
well defined.

The continuous foam surface-area problem enters only through its discrete
surrogate: the minimum cardinality of an edge set blocking the chosen
cycle class, normalized against n^(d-1) by callers.  Hexagonal-tiling
geometry is documentation only; nothing here computes with it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from typing import Iterator, Optional, Sequence

Vertex = tuple
Edge = tuple  # (vertex, axis)


class TorusError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """Raised when an exact computation would exceed its configured budget."""


def wrapped_diff(a: int, b: int, n: int) -> int:
    """Symmetric-range representative of a - b mod n, in (-n/2, n/2]."""
    half = (n - 1) // 2
    return (a - b + half) % n - half


def torus_linf(a: Vertex, b: Vertex, n: int) -> int:
    return max(abs(wrapped_diff(x, y, n)) for x, y in zip(a, b))


@dataclass(frozen=True)
class TorusGraph:
    """n^d wraparound grid with a set of removed edges."""

    n: int
    d: int = 2
    removed: frozenset = frozenset()

    def __post_init__(self):
        """Validate the shape and every removed edge.  A ``frozenset`` of
        edges of ``torus_edges(n, d)`` is valid as a whole (the set holds
        no duplicates), so it is accepted by one subset test; any other
        input is checked edge by edge and kept as a frozenset.  An empty
        removal needs no edge table, which takes O(n^d) memory to build."""
        if self.n < 2:
            raise TorusError("side length must be at least 2")
        if self.d < 1:
            raise TorusError("dimension must be at least 1")
        removed = self.removed
        if isinstance(removed, frozenset) and (not removed or removed <= _edge_set(self.n, self.d)):
            return
        seen = set()
        for edge in removed:
            vertex, axis = edge
            if not (0 <= axis < self.d):
                raise TorusError(f"invalid axis in removed edge {edge!r}")
            if len(vertex) != self.d or any(not (0 <= c < self.n) for c in vertex):
                raise TorusError(f"invalid vertex in removed edge {edge!r}")
            if edge in seen:
                raise TorusError(f"duplicate removed edge {edge!r}")
            seen.add(edge)
        object.__setattr__(self, "removed", frozenset(seen))

    # -- basic structure ---------------------------------------------------

    def vertices(self) -> Iterator[Vertex]:
        return product(range(self.n), repeat=self.d)

    def vertex_count(self) -> int:
        return self.n ** self.d

    def all_edges(self) -> Iterator[Edge]:
        for v in self.vertices():
            for a in range(self.d):
                yield (v, a)

    def edge_count(self) -> int:
        return self.d * self.n ** self.d - len(self.removed)

    def step(self, v: Vertex, axis: int, sign: int) -> Vertex:
        out = list(v)
        out[axis] = (out[axis] + sign) % self.n
        return tuple(out)

    def edge_of_step(self, v: Vertex, axis: int, sign: int) -> Edge:
        """Edge traversed when moving from v along axis with sign +/-1."""
        if sign == 1:
            return (v, axis)
        return (self.step(v, axis, -1), axis)

    def neighbors(self, v: Vertex) -> Iterator[tuple]:
        """Yield (u, axis, sign, edge) over surviving incident edges."""
        for axis in range(self.d):
            for sign in (1, -1):
                edge = self.edge_of_step(v, axis, sign)
                if edge not in self.removed:
                    yield self.step(v, axis, sign), axis, sign, edge

    def is_isolated(self, v: Vertex) -> bool:
        return next(iter(self.neighbors(v)), None) is None

    def remove(self, edges) -> "TorusGraph":
        return TorusGraph(self.n, self.d, self.removed | frozenset(edges))

    def with_vertices_removed(self, vertices) -> "TorusGraph":
        """Vertex-removal variant: drops every edge incident to the given
        vertices.  Kept behind this explicit constructor; the rest of the
        module removes edges."""
        doomed = set()
        vs = set(tuple(v) for v in vertices)
        for v in vs:
            for axis in range(self.d):
                doomed.add((v, axis))
                doomed.add((self.step(v, axis, -1), axis))
        return TorusGraph(self.n, self.d, self.removed | frozenset(doomed))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        removed = sorted((list(v), a) for v, a in self.removed)
        return {"n": self.n, "d": self.d, "removed": [[v, a] for v, a in removed]}

    @classmethod
    def from_json(cls, data: dict) -> "TorusGraph":
        if not isinstance(data, dict) or not {"n", "d"} <= data.keys():
            raise TorusError("a torus graph is a JSON object with keys n, d and optionally removed")
        removed = frozenset((tuple(v), a) for v, a in data.get("removed", []))
        return cls(int(data["n"]), int(data["d"]), removed)


def transverse_cut_blocker(n: int, d: int = 2) -> frozenset:
    """One transverse cut per axis: removes every axis-a edge leaving the
    x_a = n-1 hyperplane.  The residual graph lifts to a plain grid, so
    every topologically nontrivial cycle is blocked (d * n^(d-1) edges)."""
    edges = set()
    for axis in range(d):
        for v in product(range(n), repeat=d):
            if v[axis] == n - 1:
                edges.add((v, axis))
    return frozenset(edges)


@dataclass
class CyclePath:
    """Closed walk on a torus graph: vertex sequence plus the signed steps
    taken, with its winding vector (sum of wrapped step differences)."""

    vertices: list
    steps: list  # list of (vertex, axis, sign)
    winding: tuple

    @property
    def nontrivial(self) -> bool:
        return any(w != 0 for w in self.winding)

    @property
    def odd(self) -> bool:
        return any(w % 2 == 1 for w in self.winding)

    def to_json(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "winding": list(self.winding),
            "nontrivial": self.nontrivial,
            "odd": self.odd,
        }


def winding_and_parity(g: TorusGraph, path: Sequence[Vertex]) -> dict:
    """Winding vector of a closed walk given as a vertex sequence.

    Requires n >= 3 (for n == 2 a vertex sequence does not determine which
    of two parallel edges was used).
    """
    if g.n < 3:
        raise TorusError("vertex-sequence winding requires n >= 3")
    path = [tuple(v) for v in path]
    if len(path) == 0:
        return {"winding": tuple([0] * g.d), "nontrivial": False, "odd": False}
    if path[0] != path[-1]:
        raise TorusError("walk is not closed")
    winding = [0] * g.d
    steps = []
    for v, u in zip(path, path[1:]):
        diffs = [wrapped_diff(b, a, g.n) for a, b in zip(v, u)]
        moved = [i for i, dlt in enumerate(diffs) if dlt != 0]
        if len(moved) != 1 or abs(diffs[moved[0]]) != 1:
            raise TorusError(f"step {v} -> {u} is not a unit grid step")
        axis = moved[0]
        sign = diffs[axis]
        edge = g.edge_of_step(v, axis, sign)
        if edge in g.removed:
            raise TorusError(f"step {v} -> {u} crosses removed edge {edge!r}")
        winding[axis] += sign
        steps.append((v, axis, sign))
    winding = tuple(winding)
    return {
        "winding": winding,
        "nontrivial": any(w != 0 for w in winding),
        "odd": any(w % 2 == 1 for w in winding),
        "cycle": CyclePath(path, steps, winding),
    }


# -- blocker verification ---------------------------------------------------


def _component_labelings(g: TorusGraph):
    """BFS every component, assigning Z^d lift labels.  Yields, per
    component, the label map, parent pointers, BFS depths and the list of
    non-tree edges with their fundamental-cycle windings."""
    labels = {}
    seen = set()
    for root in g.vertices():
        if root in seen:
            continue
        parents = {root: None}
        depth = {root: 0}
        labels[root] = tuple([0] * g.d)
        seen.add(root)
        fundamentals = []
        queue = deque([root])
        comp_labels = {root: labels[root]}
        while queue:
            v = queue.popleft()
            for u, axis, sign, edge in g.neighbors(v):
                lift = list(comp_labels[v])
                lift[axis] += sign
                lift = tuple(lift)
                if u not in comp_labels:
                    comp_labels[u] = lift
                    parents[u] = (v, axis, sign)
                    depth[u] = depth[v] + 1
                    seen.add(u)
                    queue.append(u)
                else:
                    winding = tuple(a - b for a, b in zip(lift, comp_labels[u]))
                    if any(winding):
                        fundamentals.append((v, u, axis, sign, winding))
        yield comp_labels, parents, depth, fundamentals


def _tree_path(parents, v):
    """Steps from the component root down to v, as (vertex, axis, sign)."""
    steps = []
    while parents[v] is not None:
        p, axis, sign = parents[v]
        steps.append((p, axis, sign))
        v = p
    steps.reverse()
    return steps


def _witness_cycle(g, parents, v, u, axis, sign, winding) -> CyclePath:
    """Closed walk: root -> v, cross the violating edge, u -> root."""
    up = _tree_path(parents, v)
    down = _tree_path(parents, u)
    steps = list(up)
    steps.append((v, axis, sign))
    for p, ax, sg in reversed(down):
        steps.append((g.step(p, ax, sg), ax, -sg))
    vertices = []
    if steps:
        vertices.append(steps[0][0])
        for p, ax, sg in steps:
            vertices.append(g.step(p, ax, sg))
    total = [0] * g.d
    for _, ax, sg in steps:
        total[ax] += sg
    return CyclePath(vertices, steps, tuple(total))


def verify_blocker(g: TorusGraph, mode: str = "all-nontrivial") -> dict:
    """Decide whether the removed edge set blocks every topologically
    nontrivial (or, in odd-only mode, every topologically odd) cycle.

    Uses a consistent Z^d labeling per component; any fundamental cycle
    with nonzero (resp. odd) winding yields a witness.
    """
    if mode not in ("all-nontrivial", "odd-only"):
        raise TorusError(f"unknown mode {mode!r}")
    labeling = {}
    for comp_labels, parents, _, fundamentals in _component_labelings(g):
        for v, u, axis, sign, winding in fundamentals:
            bad = any(winding) if mode == "all-nontrivial" else any(
                w % 2 == 1 for w in winding
            )
            if bad:
                witness = _witness_cycle(g, parents, v, u, axis, sign, winding)
                return {"blocked": False, "witness": witness, "labeling": None}
        labeling.update(comp_labels)
    # the consistent lift labeling is the positive certificate
    return {"blocked": True, "witness": None, "labeling": labeling}


# -- blocker decision on edge ids ----------------------------------------------


@lru_cache(maxsize=32)
def torus_edges(n: int, d: int = 2) -> tuple:
    """Every edge of the n^d torus, indexed by edge id.  The id of
    ``(v, axis)`` is ``rank(v) * d + axis``, where rank(v) is v's position
    in lexicographic order, so the tuple equals sorted(all_edges())."""
    return tuple((v, axis) for v in product(range(n), repeat=d) for axis in range(d))


@lru_cache(maxsize=32)
def _edge_set(n: int, d: int) -> frozenset:
    return frozenset(torus_edges(n, d))


def edge_id(edge: Edge, n: int) -> int:
    vertex, axis = edge
    rank = 0
    for c in vertex:
        rank = rank * n + c
    return rank * len(vertex) + axis


@lru_cache(maxsize=32)
def _edge_ends(n: int, d: int) -> tuple:
    """Per edge id: (tail rank, head rank, packed unit lift step), then
    ``centre`` and ``low_bits``.  A lift vector w in Z^d is packed as
    sum w_a 2^(width a), with 2^(width-1) above 2 n^d, so that every
    winding the union-find forms (two forest paths of at most n^d - 1
    steps plus the closing edge) unpacks uniquely.  Adding ``centre`` moves
    each field into [0, 2^width) without carries; ``low_bits`` then reads
    the parity of every component at once."""
    width = (4 * n ** d).bit_length()
    ends = []
    for tail in range(n ** d):
        for axis in range(d):
            place = n ** (d - 1 - axis)
            wraps = (tail // place) % n == n - 1
            ends.append((tail, tail - (n - 1) * place if wraps else tail + place, 1 << (width * axis)))
    centre = sum(1 << (width * axis + width - 1) for axis in range(d))
    low_bits = sum(1 << (width * axis) for axis in range(d))
    return tuple(ends), centre, low_bits


@lru_cache(maxsize=32)
def _edge_loops(n: int, d: int) -> tuple:
    """Per edge id: the index of the axis loop holding that edge.  The loop
    along ``axis`` through the vertices that agree off ``axis`` with v has
    index ``axis * n^(d-1) + rank`` of v with coordinate ``axis`` dropped;
    the d * n^(d-1) loops partition the edges, n edges each."""
    loops = []
    for tail in range(n ** d):
        for axis in range(d):
            place = n ** (d - 1 - axis)
            loops.append(axis * n ** (d - 1) + tail // (place * n) * place + tail % place)
    return tuple(loops)


def is_blocker(n: int, d: int, removed, mode: str = "all-nontrivial") -> bool:
    """Whether removing the edges with the given ids (see ``torus_edges``)
    blocks every topologically nontrivial cycle of the n^d torus (odd-only:
    every cycle of odd winding).  Decides as ``verify_blocker(g,
    mode)["blocked"]`` does, without its witness or labelling.

    One pass over the surviving edges with a union-find, linked by size,
    whose links carry the Z^d lift offset of a vertex to its parent.  An
    edge closing a cycle inside one tree exposes that cycle's winding; the
    removal blocks iff every such winding is zero (odd-only: even), since
    these fundamental cycles generate every cycle of the residual graph.

    Before the union-find, a removal that leaves some axis loop untouched
    is rejected: that loop survives with winding e_axis, nontrivial for
    every n and odd whenever odd-only mode gets this far (odd n).
    """
    if mode not in ("all-nontrivial", "odd-only"):
        raise TorusError(f"unknown mode {mode!r}")
    if mode == "odd-only" and n % 2 == 0:
        # a closed walk moves each coordinate by a multiple of n: all even
        return True
    removed = list(removed)
    if len(set(map(_edge_loops(n, d).__getitem__, removed))) < d * n ** (d - 1):
        return False
    ends, centre, low_bits = _edge_ends(n, d)
    mask = low_bits if mode == "odd-only" else -1
    alive = bytearray(b"\x01") * len(ends)
    for e in removed:
        alive[e] = 0
    parent = list(range(n ** d))
    offset = [0] * n ** d  # packed lift(v) - lift(parent[v])
    size = [1] * n ** d
    for tail, head, step in compress(ends, alive):
        rt, ot = tail, 0
        while parent[rt] != rt:
            ot += offset[rt]
            rt = parent[rt]
        rh, oh = head, 0
        while parent[rh] != rh:
            oh += offset[rh]
            rh = parent[rh]
        drift = ot + step - oh  # lift(rh) - lift(rt) implied by this edge
        if rt == rh:
            if drift and (drift + centre) & mask:
                return False
        elif size[rt] < size[rh]:
            parent[rt], offset[rt] = rh, -drift
            size[rh] += size[rt]
        else:
            parent[rh], offset[rh] = rt, drift
            size[rt] += size[rh]
    return True


def _shortest_bad_cycle(g: TorusGraph, mode: str) -> Optional[CyclePath]:
    """A short surviving bad cycle, or None if the graph is blocked.
    Scans every component's fundamental cycles and keeps the shortest."""
    best = None
    for _, parents, depth, fundamentals in _component_labelings(g):
        for v, u, axis, sign, winding in fundamentals:
            bad = any(winding) if mode == "all-nontrivial" else any(
                wd % 2 == 1 for wd in winding
            )
            if not bad:
                continue
            length = depth[v] + depth[u] + 1
            if best is None or length < best[0]:
                best = (length, (parents, v, u, axis, sign, winding))
    if best is None:
        return None
    parents, v, u, axis, sign, winding = best[1]
    return _witness_cycle(g, parents, v, u, axis, sign, winding)


def _axis_loop_lower_bound(g: TorusGraph, removed: set, mode: str) -> int:
    """Count axis loops untouched by the removal set.  The n^(d-1) loops
    along one axis are pairwise edge-disjoint and disjoint across axes, and
    each is nontrivial (odd iff n is odd), so every blocker needs a private
    edge per untouched loop."""
    if mode == "odd-only" and g.n % 2 == 0:
        return 0
    loops = _edge_loops(g.n, g.d)
    return g.d * g.n ** (g.d - 1) - len({loops[edge_id(e, g.n)] for e in removed})


def min_blocker(
    g0: TorusGraph,
    mode: str = "all-nontrivial",
    method: str = "exact",
    budget: int = 2_000_000,
    seed: int = 0,
) -> dict:
    """Minimum edge set blocking the requested cycle class.

    Exact mode runs branch-and-bound over removal sets, branching on the
    edges of a short surviving bad cycle and pruning with the disjoint
    axis-loop bound; default budget confines it to n <= 4, d == 2 scale.
    Heuristic mode greedily thins the transverse-cut construction and
    returns a verified blocker (upper bound only).
    """
    if g0.removed:
        raise TorusError("min_blocker expects an empty-removal graph")
    if method == "exact":
        # Branching factor ~ witness length ~ n, depth ~ blocker size
        # d * n^(d-1); the default budget admits n <= 4 at d = 2.
        estimated = g0.n ** (g0.d * g0.n ** (g0.d - 1))
        if estimated > budget:
            raise BudgetExceeded(
                "exact min_blocker beyond node budget; use method='heuristic'"
            )
        return _min_blocker_exact(g0, mode, budget)
    if method == "heuristic":
        return _min_blocker_heuristic(g0, mode, seed)
    raise TorusError(f"unknown method {method!r}")


def _min_blocker_exact(g0: TorusGraph, mode: str, budget: int) -> dict:
    start = transverse_cut_blocker(g0.n, g0.d)
    best = {"size": len(start), "edges": set(start)}
    if is_blocker(g0.n, g0.d, (), mode):
        return {"size": 0, "edges": set(), "method": "exact", "nodes": 1}
    nodes = 0

    def recurse(removed: set):
        nonlocal nodes, best
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("branch-and-bound node budget exceeded")
        lower = len(removed) + _axis_loop_lower_bound(g0, removed, mode)
        if lower >= best["size"]:
            return
        g = TorusGraph(g0.n, g0.d, frozenset(removed))
        witness = _shortest_bad_cycle(g, mode)
        if witness is None:
            if len(removed) < best["size"]:
                best = {"size": len(removed), "edges": set(removed)}
            return
        edges = []
        seen = set()
        for v, axis, sign in witness.steps:
            e = g.edge_of_step(v, axis, sign)
            if e not in seen:
                seen.add(e)
                edges.append(e)
        for e in sorted(edges):
            removed.add(e)
            recurse(removed)
            removed.remove(e)

    recurse(set())
    return {
        "size": best["size"],
        "edges": set(best["edges"]),
        "method": "exact",
        "nodes": nodes,
    }


def _min_blocker_heuristic(g0: TorusGraph, mode: str, seed: int) -> dict:
    import random

    rng = random.Random(seed)
    n, d = g0.n, g0.d
    kept = {edge_id(e, n) for e in transverse_cut_blocker(n, d)}
    order = sorted(kept)  # id order is edge order: the shuffle is unchanged
    rng.shuffle(order)
    for e in order:
        kept.remove(e)
        if not is_blocker(n, d, kept, mode):
            kept.add(e)
    edges = torus_edges(n, d)
    current = {edges[e] for e in kept}
    # independent cross-check of the kernel by the labelling BFS
    if not verify_blocker(TorusGraph(n, d, frozenset(current)), mode)["blocked"]:
        raise TorusError(f"heuristic {mode} blocker of size {len(current)} does not block")
    return {
        "size": len(current),
        "edges": current,
        "method": "heuristic",
        "upper_bound_only": True,
    }


# -- geodesics ----------------------------------------------------------------


def geodesic(g: TorusGraph, a: Vertex, b: Vertex) -> list:
    """Minimum-hop path on surviving edges; ties broken by expanding
    neighbors in lexicographic vertex order."""
    a, b = tuple(a), tuple(b)
    if a == b:
        return [a]
    parents = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        nbrs = sorted(set(u for u, _, _, _ in g.neighbors(v)))
        for u in nbrs:
            if u not in parents:
                parents[u] = v
                if u == b:
                    path = [b]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                queue.append(u)
    raise TorusError(f"vertices {a} and {b} are disconnected")


# -- regions: tubes, sections, cubes ------------------------------------------


@dataclass
class RegionSet:
    """A vertex region of the torus with an optional marked subset."""

    kind: str  # section | tube | cube
    members: frozenset
    marked: frozenset = frozenset()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.marked <= self.members:
            raise TorusError("marked vertices must lie inside the region")

    def mark(self, vertices) -> "RegionSet":
        marked = frozenset(tuple(v) for v in vertices) & self.members
        return RegionSet(self.kind, self.members, marked, dict(self.meta))


def make_tube(g: TorusGraph, axis: int, base: Vertex, width: int = 2) -> RegionSet:
    """Width-w band around the axis loop through ``base``: full extent along
    ``axis``, a width-w window starting at base in every transverse axis."""
    if width < 1 or width > g.n:
        raise TorusError("tube width out of range")
    ranges = []
    for a in range(g.d):
        if a == axis:
            ranges.append(range(g.n))
        else:
            ranges.append([(base[a] + k) % g.n for k in range(width)])
    members = frozenset(product(*ranges))
    return RegionSet("tube", members, meta={"axis": axis, "base": tuple(base), "width": width})


def make_section(tube: RegionSet, position: int) -> RegionSet:
    """Transverse slice of a tube at the given coordinate along its axis."""
    axis = tube.meta.get("axis")
    if axis is None:
        raise TorusError("section requires a tube with a recorded axis")
    members = frozenset(v for v in tube.members if v[axis] == position)
    if not members:
        raise TorusError("empty section")
    return RegionSet("section", members, meta={"axis": axis, "position": position})


def make_cube(g: TorusGraph, corner: Vertex, sides: Sequence[int]) -> RegionSet:
    if len(sides) != g.d or any(s < 1 or s > g.n for s in sides):
        raise TorusError("cube sides out of range")
    ranges = [[(corner[a] + k) % g.n for k in range(sides[a])] for a in range(g.d)]
    return RegionSet("cube", frozenset(product(*ranges)), meta={"corner": tuple(corner), "sides": list(sides)})


def region_stats(regions: Sequence[RegionSet]) -> list:
    """Per-region degree (member count), marked-point count, and relative
    distribution |marked|/|members|.  Empty regions report an error entry."""
    out = []
    for region in regions:
        size = len(region.members)
        marked = len(region.marked)
        record = {"kind": region.kind, "degree": size, "marked": marked}
        if size == 0:
            record["relative"] = None
            record["error"] = "empty region: relative distribution undefined"
        else:
            record["relative"] = Fraction(marked, size)
        out.append(record)
    return out


def marked_components(g: TorusGraph, region: RegionSet) -> list:
    """Connected components of the marked vertices inside the region,
    using surviving edges with both endpoints marked."""
    marked = set(region.marked)
    comps = []
    while marked:
        root = marked.pop()
        comp = {root}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u, _, _, _ in g.neighbors(v):
                if u in marked:
                    marked.remove(u)
                    comp.add(u)
                    queue.append(u)
        comps.append(comp)
    comps.sort(key=lambda c: (-len(c), sorted(c)))
    return comps


def giant_detect(tube: RegionSet, g: TorusGraph, threshold: Fraction = Fraction(95, 100)) -> dict:
    """Largest marked connected component of the tube, compared against the
    tube's vertex count.  Also reports whether every marked component meets
    the giant (true exactly when there is at most one component)."""
    if not tube.members:
        raise TorusError("empty tube")
    comps = marked_components(g, tube)
    if not comps:
        return {
            "is_giant": False,
            "component": frozenset(),
            "ratio": Fraction(0),
            "component_count": 0,
            "all_components_meet_giant": True,
        }
    largest = comps[0]
    ratio = Fraction(len(largest), len(tube.members))
    return {
        "is_giant": ratio >= threshold,
        "component": frozenset(largest),
        "ratio": ratio,
        "component_count": len(comps),
        "all_components_meet_giant": len(comps) == 1,
    }
