"""Independent oracles for the test suite.

Everything here is written from first principles and kept separate from
the production code paths it checks: plain brute-force strategy search,
DFS simple-cycle enumeration, blocker decisions by linear algebra on the
incidence matrix, subset enumeration for consistent regions,
and the closed-form Born probability for equatorial measurements on the
phase Bell state.
"""

import math
from fractions import Fraction
from itertools import combinations, product


def brute_force_value(game):
    """Maximum over all deterministic strategy pairs, evaluated pair by
    pair with exact weights.  Only for tiny games."""
    k = game.answers_per_question
    aq = list(game.alice_questions)
    bq = list(game.bob_questions)
    best = Fraction(0)
    for alice in product(range(k), repeat=len(aq)):
        a_table = dict(zip(aq, alice))
        for bob in product(range(k), repeat=len(bq)):
            b_table = dict(zip(bq, bob))
            total = Fraction(0)
            for (qa, qb, w), t in zip(game.pairs, game.targets):
                if (a_table[qa] ^ b_table[qb]) == t:
                    total += w
            if total > best:
                best = total
    return best


def _answer_wins(game, a_table, qb):
    """Per Bob answer b at question qb, the draws b wins against Alice's
    table, counted pair by pair."""
    return [
        sum(1 for (qa, qb2, _), t in zip(game.pairs, game.targets) if qb2 == qb and (a_table[qa] ^ b) == t)
        for b in range(game.answers_per_question)
    ]


def best_response_won(game, a_table):
    """Draws won by Alice's table against Bob's best response, counted
    pair by pair for each Bob question and answer."""
    return sum(max(_answer_wins(game, a_table, qb)) for qb in game.bob_questions)


def best_response_table(game, a_table):
    """Bob's best response: per question the smallest answer winning the
    most draws."""
    table = {}
    for qb in game.bob_questions:
        wins = _answer_wins(game, a_table, qb)
        table[qb] = wins.index(max(wins))
    return table


def local_search_reference(game, seed, iterations, target=None, restart_after=4):
    """The seeded iterated local search over Alice tables as a plain loop.
    Iteration 1 scores a table of one seeded draw per Alice question; each
    later iteration rescores every answer of the next Alice question (in
    question order, cyclically) by a full recount and moves to the first
    best one if it wins more; after ``restart_after`` full passes in a row
    without a move, a fresh table is drawn.  The best table changes only
    on a strict gain, and the loop stops once its value reaches
    ``target``.  Returns a dict with the best win count and its Alice and
    Bob tables, the iterations run, the initial win count, the iterations
    that drew a fresh table, and the best win count after each
    iteration."""
    import numpy as np

    rng = np.random.default_rng(seed)
    k = game.answers_per_question
    questions = list(game.alice_questions)
    weight = game.pairs[0][2]

    def fresh():
        return {q: int(rng.integers(0, k)) for q in questions}

    table = fresh()
    won = best_response_won(game, table)
    best_won, best_table = won, dict(table)
    initial_won, restarts, history = won, [], [won]
    it, stale, moved = 1, 0, False
    while it < iterations:
        if target is not None and float(best_won * weight) >= target:
            break
        it += 1
        q = questions[(it - 2) % len(questions)]
        scores = [best_response_won(game, {**table, q: a}) for a in range(k)]
        if max(scores) > won:
            table[q] = scores.index(max(scores))
            won = max(scores)
            moved = True
        if (it - 1) % len(questions) == 0:
            stale = 0 if moved else stale + 1
            moved = False
            if stale >= restart_after:
                table = fresh()
                won = best_response_won(game, table)
                stale = 0
                restarts.append(it)
        if won > best_won:
            best_won, best_table = won, dict(table)
        history.append(best_won)
    return {
        "won": best_won,
        "alice": best_table,
        "bob": best_response_table(game, best_table),
        "evaluations": it,
        "initial_won": initial_won,
        "restarts": restarts,
        "history": history,
    }


def exhaustive_witness(game):
    """(value, alice_table) of the smallest-index maximising Alice table,
    where table index sum_i a_i k^i puts Alice question i at digit i.
    Assumes uniform support weights.  Only for tiny games."""
    k = game.answers_per_question
    aq = list(game.alice_questions)
    best_won, best_table = -1, None
    for digits in product(range(k), repeat=len(aq)):
        a_table = dict(zip(aq, reversed(digits)))  # last digit varies fastest: increasing index
        won = best_response_won(game, a_table)
        if won > best_won:
            best_won, best_table = won, a_table
    return best_won * game.pairs[0][2], best_table


def oracle_wrapped_diff(a, b, n):
    """Representative of a - b mod n closest to zero (ties to the positive
    side), written independently of the package helper."""
    candidates = [(a - b) % n, (a - b) % n - n]
    return min(candidates, key=lambda c: (abs(c), -c))


def torus_neighbors(v, n):
    for axis in range(len(v)):
        for sign in (1, -1):
            u = list(v)
            u[axis] = (u[axis] + sign) % n
            yield tuple(u), axis, sign


def edge_of(v, axis, sign, n):
    if sign == 1:
        return (v, axis)
    u = list(v)
    u[axis] = (u[axis] - 1) % n
    return (tuple(u), axis)


def enumerate_simple_cycles(n, d, max_len):
    """All simple cycles of the full torus grid up to the given length, as
    (frozenset of edges, winding tuple).  Cycles are enumerated once per
    orientation class: the root is the minimal vertex and the first step
    is lexicographically below the last."""
    vertices = sorted(product(range(n), repeat=d))
    cycles = []

    def dfs(root, path, edges, winding):
        v = path[-1]
        for u, axis, sign in torus_neighbors(v, n):
            e = edge_of(v, axis, sign, n)
            if u == root and len(path) >= 3 and e not in edges:
                if path[1] < v:  # orientation dedup
                    w = list(winding)
                    w[axis] += sign
                    cycles.append((frozenset(edges | {e}), tuple(w)))
                continue
            if u in path or u <= root or len(path) >= max_len:
                continue
            if e in edges:
                continue
            w = list(winding)
            w[axis] += sign
            dfs(root, path + [u], edges | {e}, tuple(w))

    for root in vertices:
        dfs(root, [root], frozenset(), tuple([0] * d))
    return cycles


def blocked_by_enumeration(cycles, removed, mode):
    """A removal set blocks iff every enumerated cycle of the offending
    class uses at least one removed edge."""
    for edges, winding in cycles:
        bad = any(winding) if mode == "all-nontrivial" else any(w % 2 for w in winding)
        if bad and not (edges & removed):
            return False
    return True


def _gf2_rank(rows):
    """Rank over GF(2) of a 0/1 matrix, by Gaussian elimination."""
    import numpy as np

    m = np.array(rows, dtype=bool)
    rank = 0
    for c in range(m.shape[1]):
        pivots = rank + np.flatnonzero(m[rank:, c])
        if len(pivots) == 0:
            continue
        m[[rank, pivots[0]]] = m[[pivots[0], rank]]
        hit = np.flatnonzero(m[:, c])
        m[hit[hit != rank]] ^= m[rank]
        rank += 1
        if rank == len(m):
            break
    return rank


def blocked_by_potentials(n, d, removed_ids, mode):
    """A removal blocks iff every axis a has a potential on the vertices
    whose difference across each surviving edge is that edge's step along
    a, that is, iff each axis-displacement row lies in the row span of the
    surviving (vertex x edge) incidence matrix: over Q for all nontrivial
    cycles, over GF(2) for the odd ones.  Edge (v, axis) has id
    rank(v) * d + axis, with vertices ranked in lexicographic order."""
    import numpy as np

    vertices = list(product(range(n), repeat=d))
    rank = {v: i for i, v in enumerate(vertices)}
    gone = set(removed_ids)
    kept = [(v, axis) for v in vertices for axis in range(d) if rank[v] * d + axis not in gone]
    incidence = np.zeros((len(vertices), len(kept)))
    displacement = np.zeros((d, len(kept)))
    for j, (v, axis) in enumerate(kept):
        u = list(v)
        u[axis] = (u[axis] + 1) % n
        incidence[rank[v], j] -= 1
        incidence[rank[tuple(u)], j] += 1
        displacement[axis, j] = 1
    if mode == "odd-only":
        span = incidence % 2
        return _gf2_rank(np.vstack([span, displacement])) == _gf2_rank(span)
    return np.linalg.matrix_rank(np.vstack([incidence, displacement])) == np.linalg.matrix_rank(incidence)


def oracle_max_consistent_subsets(s_a, y, n, d):
    """All maximum consistent subsets of Q_y by exhaustive subset
    enumeration against the pairwise predicate."""
    hood = sorted({tuple((c - t) % n for c, t in zip(y, bits)) for bits in product((0, 1), repeat=d)})

    def consistent(x, x2):
        for i in range(d):
            want = oracle_wrapped_diff(x[i], x2[i], n) % 2
            if (((s_a[x] ^ s_a[x2]) >> i) & 1) != want:
                return False
        return True

    best = []
    for r in range(len(hood), 0, -1):
        for subset in combinations(hood, r):
            if all(consistent(a, b) for a, b in combinations(subset, 2)):
                best.append(subset)
        if best:
            return best
    return [()]


def born_win_probability(theta, alpha, beta, target_bit, flip_a=0, flip_b=0, conjugate_bob=True):
    """Closed form for one coordinate: measuring the phase Bell state with
    equatorial angles gives P(outcomes s, r) = (1 + s r cos(theta - alpha
    + beta_eff))/4, so the win probability for target t is
    (1 + (-1)^(t xor flips) cos(theta - alpha + beta_eff))/2."""
    beta_eff = -beta if conjugate_bob else beta
    t_eff = target_bit ^ flip_a ^ flip_b
    return 0.5 * (1.0 + (-1) ** t_eff * math.cos(theta - alpha + beta_eff))


def angle_objective(game, alice, bob, restrict_pairs=None):
    """sum_t w_t prod_j (1 + e_tj cos(alpha + beta))/2 over the kept
    question pairs, renormalised by their total weight, with e_tj = +1 for
    target bit 0 and -1 otherwise; one pair and coordinate at a time."""
    keep = None if restrict_pairs is None else set(restrict_pairs)
    total = weight = 0.0
    for (qa, qb, w), t in zip(game.pairs, game.targets):
        if keep is not None and (qa, qb) not in keep:
            continue
        term = float(w)
        for j in range(game.depth):
            sign = -1.0 if (t >> j) & 1 else 1.0
            term *= (1.0 + sign * math.cos(alice[qa[j]] + bob[qb[j]])) / 2.0
        total += term
        weight += float(w)
    return total / weight


def torical_sample_reference(n, d, removal_law, rng, max_attempts):
    """The torical rejection sampler as a plain loop: each attempt draws
    its size (``rng.integers`` in [low, high], unless the law is
    ``uniform-size``) and then its edge ids with ``rng.choice``, and is
    kept when ``verify_blocker`` finds no odd cycle.  Returns (attempts,
    sorted edge ids) of the first kept attempt, or None after
    ``max_attempts``."""
    from oddcycle.torus import TorusGraph, verify_blocker

    edges = sorted(TorusGraph(n, d).all_edges())
    kind = removal_law["kind"]
    if kind == "uniform-size":
        low = high = removal_law["size"]
    elif kind == "uniform-size-range":
        low, high = removal_law["low"], removal_law["high"]
    else:
        low, high = (round(removal_law[key] * len(edges)) for key in ("low", "high"))
    for attempts in range(1, max_attempts + 1):
        size = low if kind == "uniform-size" else int(rng.integers(low, high + 1))
        ids = sorted(rng.choice(len(edges), size=size, replace=False).tolist())
        if verify_blocker(TorusGraph(n, d, frozenset(edges[i] for i in ids)), "odd-only")["blocked"]:
            return attempts, ids
    return None
