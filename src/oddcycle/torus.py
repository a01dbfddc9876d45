"""Torus grid graphs: winding numbers, blocker verification, the minimum
blocker, tubes/sections/cubes, geodesics, and marked-component statistics.

Vertices are integer tuples in [0, n)^d.  An edge is identified by
``(vertex, axis)`` and connects ``vertex`` to ``vertex + e_axis (mod n)``.
For n == 2 the two edges ``(v, a)`` and ``(v + e_a, a)`` are parallel
(same endpoints); all machinery here is edge-based so that case stays
well defined.

The continuous foam surface-area problem enters only through its discrete
surrogate: the minimum cardinality of an edge set blocking the chosen
cycle class, normalized against n^(d-1) by callers.  That minimum is
d * n^(d-1), attained by the transverse cut (0 in odd-only mode at even n),
since the axis loops partition the edges and each is a nontrivial cycle.
Hexagonal-tiling geometry is documentation only; nothing here computes
with it.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

import numpy as np

Vertex = tuple
Edge = tuple  # (vertex, axis)


class TorusError(ValueError):
    pass


def wrapped_diff(a: int, b: int, n: int) -> int:
    """Symmetric-range representative of a - b mod n, in (-n/2, n/2]."""
    half = (n - 1) // 2
    return (a - b + half) % n - half


def torus_linf(a: Vertex, b: Vertex, n: int) -> int:
    return max(abs(wrapped_diff(x, y, n)) for x, y in zip(a, b))


def _is_int(value) -> bool:
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


@dataclass(frozen=True)
class TorusGraph:
    """n^d wraparound grid with a set of removed edges."""

    n: int
    d: int = 2
    removed: frozenset = frozenset()

    def __post_init__(self):
        """Validate the shape and every removed edge (integer coordinates
        and axis, not bools), kept as a frozenset.  Edges known to be
        valid, given by their ``torus_edges`` ids, skip the per-edge
        checks through ``_from_ids``."""
        if not (_is_int(self.n) and _is_int(self.d)):
            raise TorusError(f"n and d must be integers, got n={self.n!r}, d={self.d!r}")
        if self.n < 2:
            raise TorusError("side length must be at least 2")
        if self.d < 1:
            raise TorusError("dimension must be at least 1")
        seen = set()
        for edge in self.removed:
            vertex, axis = edge
            if not (_is_int(axis) and 0 <= axis < self.d):
                raise TorusError(f"invalid axis in removed edge {edge!r}")
            if len(vertex) != self.d or any(not (_is_int(c) and 0 <= c < self.n) for c in vertex):
                raise TorusError(f"invalid vertex in removed edge {edge!r}")
            if edge in seen:
                raise TorusError(f"duplicate removed edge {edge!r}")
            seen.add(edge)
        object.__setattr__(self, "removed", frozenset(seen))

    @classmethod
    def _from_ids(cls, n: int, d: int, ids) -> "TorusGraph":
        """The n^d graph without the edges ``torus_edges(n, d)[i]`` for i in
        ids: edges of the table by construction, so only the shape is
        checked."""
        g, edges = cls(n, d), torus_edges(n, d)
        object.__setattr__(g, "removed", frozenset(edges[i] for i in ids))
        return g

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
        """Yield (u, axis, sign, edge) over remaining incident edges."""
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
        # a set, not a frozenset: repeats merge, and every edge is checked
        try:
            removed = {(tuple(v), a) for v, a in data.get("removed", [])}
        except (TypeError, ValueError):
            raise TorusError("removed must be a list of [vertex, axis] pairs") from None
        return cls(data["n"], data["d"], removed)


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


# -- blocker decision ----------------------------------------------------------


@lru_cache(maxsize=32)
def torus_edges(n: int, d: int = 2) -> tuple:
    """Every edge of the n^d torus, indexed by edge id.  The id of
    ``(v, axis)`` is ``rank(v) * d + axis``, where rank(v) is v's position
    in lexicographic order, so the tuple equals sorted(all_edges())."""
    return tuple((v, axis) for v in product(range(n), repeat=d) for axis in range(d))


def edge_id(edge: Edge, n: int) -> int:
    vertex, axis = edge
    rank = 0
    for c in vertex:
        rank = rank * n + c
    return rank * len(vertex) + axis


@lru_cache(maxsize=32)
def _edge_ends(n: int, d: int) -> tuple:
    """Per vertex rank: its edges in ``TorusGraph.neighbors`` order (axis
    0..d-1, the + step before the - step), each as (edge id, rank of the
    other end, packed lift step from this end); then ``centre`` and
    ``low_bits``.  A lift vector w in Z^d is packed as sum w_a 2^(width a),
    with 2^(width-1) above 2 n^d, so that every winding a BFS forms (two
    lifts within n^d - 1 steps of the root plus the closing edge) unpacks
    uniquely.  Adding ``centre`` moves each field into [0, 2^width)
    without carries; ``low_bits`` then reads the parity of every component
    at once."""
    width = (4 * n ** d).bit_length()
    ends = []
    for v in range(n ** d):
        incident = []
        for axis in range(d):
            place, step = n ** (d - 1 - axis), 1 << (width * axis)
            x = (v // place) % n
            up = v - (n - 1) * place if x == n - 1 else v + place
            down = v + (n - 1) * place if x == 0 else v - place
            incident += [(v * d + axis, up, step), (down * d + axis, down, -step)]
        ends.append(tuple(incident))
    centre = sum(1 << (width * axis + width - 1) for axis in range(d))
    low_bits = sum(1 << (width * axis) for axis in range(d))
    return tuple(ends), centre, low_bits


def _lift_search(n: int, d: int, removed, mode: str) -> tuple:
    """Breadth-first Z^d lift labelling of the n^d torus without the edges
    with the given ids (see ``torus_edges``): the one traversal behind
    ``verify_blocker`` and ``is_blocker``.

    Roots go in rank order, neighbours in ``TorusGraph.neighbors`` order.
    Each vertex gets the packed lift of ``_edge_ends`` and the id of the
    tree edge that reached it (-1 at a root).  A remaining edge from v to u
    closes a cycle of winding lift(v) + step - lift(u), zero on tree edges;
    these fundamental cycles generate every cycle of the residual graph, so
    the removal blocks iff each such winding is zero (odd-only: even).
    Returns (lift, tree, bad), lift and tree per vertex rank, with bad the
    (vertex rank, edge id) of the first edge closing a bad cycle, or None;
    the search stops there.
    """
    ends, centre, low_bits = _edge_ends(n, d)
    mask = low_bits if mode == "odd-only" else -1
    alive = bytearray(b"\x01") * (d * n ** d)
    for e in removed:
        alive[e] = 0
    lift, tree = [None] * n ** d, [-1] * n ** d
    for root in range(n ** d):
        if lift[root] is not None:
            continue
        lift[root] = 0
        queue = [root]
        for v in queue:  # also visits what the loop appends
            here = lift[v]
            for e, u, step in ends[v]:
                if not alive[e]:
                    continue
                if lift[u] is None:
                    lift[u], tree[u] = here + step, e
                    queue.append(u)
                else:
                    drift = here + step - lift[u]
                    if drift and (drift + centre) & mask:
                        return lift, tree, (v, e)
    return lift, tree, None


@lru_cache(maxsize=32)
def _loop_major_edges(n: int, d: int) -> np.ndarray:
    """Edge ids grouped by axis loop: row axis * n^(d-1) + r of the
    (d * n^(d-1), n) reshape holds the n edges along ``axis`` whose tails
    have rank r with coordinate ``axis`` dropped.  Edge id d * rank(v) +
    axis is ids[v + (axis,)], so moving ``axis`` last lays its loops out
    as rows; the loops partition the edges."""
    ids = np.arange(d * n**d).reshape((n,) * d + (d,))
    order = np.concatenate([np.moveaxis(ids[..., axis], axis, -1).reshape(-1) for axis in range(d)])
    order.flags.writeable = False
    return order


def touches_every_axis_loop(n: int, d: int, removed: np.ndarray) -> np.ndarray:
    """Per row of the (rows, edges) boolean edge-id mask ``removed``:
    whether the removal holds an edge of every axis loop, for many
    removals at once.  A removal that misses a loop is no blocker: that
    loop survives with winding e_axis, nontrivial for every n and odd at
    odd n."""
    loops = removed[:, _loop_major_edges(n, d)].reshape(len(removed), d * n ** (d - 1), n)
    return loops.any(axis=2).all(axis=1)


def is_blocker(n: int, d: int, removed, mode: str = "all-nontrivial") -> bool:
    """Whether removing the edges with the given ids (see ``torus_edges``)
    blocks every topologically nontrivial cycle of the n^d torus (odd-only:
    every cycle of odd winding).  Runs ``verify_blocker``'s search on edge
    ids, without building its witness or labelling."""
    if mode not in ("all-nontrivial", "odd-only"):
        raise TorusError(f"unknown mode {mode!r}")
    if mode == "odd-only" and n % 2 == 0:
        # a closed walk moves each coordinate by a multiple of n: all even
        return True
    return _lift_search(n, d, removed, mode)[2] is None


def verify_blocker(g: TorusGraph, mode: str = "all-nontrivial") -> dict:
    """Decide whether the removed edge set blocks every topologically
    nontrivial (or, in odd-only mode, every topologically odd) cycle.

    Uses ``_lift_search``'s consistent Z^d labelling per component, which
    is the positive certificate; otherwise the first fundamental cycle
    with nonzero (resp. odd) winding, closed through the BFS tree, is the
    witness.
    """
    if mode not in ("all-nontrivial", "odd-only"):
        raise TorusError(f"unknown mode {mode!r}")
    n, d = g.n, g.d
    lift, tree, bad = _lift_search(n, d, [edge_id(e, n) for e in g.removed], mode)
    ends, centre, _ = _edge_ends(n, d)
    vertices = list(g.vertices())
    if bad is None:
        width = centre.bit_length() // d
        field, half = (1 << width) - 1, 1 << (width - 1)
        labeling = {
            v: tuple(((w + centre) >> (width * axis) & field) - half for axis in range(d))
            for v, w in zip(vertices, lift)
        }
        return {"blocked": True, "witness": None, "labeling": labeling}

    def cross(v, e):
        """(vertex rank, axis, sign, other end) of the step along edge e
        out of v; v is the edge's tail iff the step is +."""
        axis = e % d
        if e // d == v:
            return v, axis, 1, ends[v][2 * axis][1]
        return v, axis, -1, e // d

    def climb(v):
        """Steps from v up the BFS tree to its root."""
        hops = []
        while tree[v] >= 0:
            hops.append(cross(v, tree[v]))
            v = hops[-1][3]
        return hops

    # closed walk: root -> v down the tree, the violating edge, u -> root
    v, e = bad
    edge = cross(v, e)
    hops = [(p, axis, -sign, c) for c, axis, sign, p in reversed(climb(v))] + [edge] + climb(edge[3])
    steps = [(vertices[a], axis, sign) for a, axis, sign, _ in hops]
    total = [0] * d
    for _, axis, sign in steps:
        total[axis] += sign
    walk = [vertices[hops[0][0]]] + [vertices[b] for *_, b in hops]
    return {"blocked": False, "witness": CyclePath(walk, steps, tuple(total)), "labeling": None}


def min_blocker(
    g0: TorusGraph,
    mode: str = "all-nontrivial",
    method: str = "exact",
    seed: int = 0,
) -> dict:
    """Minimum edge set blocking the requested cycle class on the empty
    n^d torus, in closed form.

    The d * n^(d-1) axis loops partition the edges, and each is itself a
    nontrivial cycle (odd iff n is odd), so every blocker holds an edge of
    every loop; the transverse cut holds exactly one and is a minimum.  In
    odd-only mode at even n no cycle is odd and the empty set blocks.  The
    answer is checked once by ``verify_blocker``, which also rejects an
    unknown mode.  ``method`` sets only the record's label: "exact" reports
    ``nodes`` = 1, "heuristic" marks the size an upper bound; ``seed`` is
    unused and kept so that existing calls still work.
    """
    if g0.removed:
        raise TorusError("min_blocker expects an empty-removal graph")
    if method not in ("exact", "heuristic"):
        raise TorusError(f"unknown method {method!r}")
    n, d = g0.n, g0.d
    edges = frozenset() if mode == "odd-only" and n % 2 == 0 else transverse_cut_blocker(n, d)
    if not verify_blocker(TorusGraph(n, d, edges), mode)["blocked"]:
        raise TorusError(f"{mode} blocker of size {len(edges)} does not block")
    record = {"size": len(edges), "edges": set(edges), "method": method}
    record.update({"nodes": 1} if method == "exact" else {"upper_bound_only": True})
    return record


# -- geodesics ----------------------------------------------------------------


def geodesic(g: TorusGraph, a: Vertex, b: Vertex) -> list:
    """Minimum-hop path on remaining edges; ties broken by expanding
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
    using remaining edges with both endpoints marked."""
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
