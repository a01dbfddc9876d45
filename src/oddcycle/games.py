"""Two-player games (odd-cycle and CHSH with tensor-power repetition),
deterministic strategies, and exact/heuristic classical value computation.

Questions are tuples in [n]^d; answers are d-bit vectors packed into ints
(bit i is coordinate i).  Both game families are XOR games with a unique
winning answer offset per question pair, which the exhaustive and search
paths exploit: for a fixed Alice table, Bob's best response at question y
is the mode of ``S_A(x) XOR target(x, y)`` over the draws that reach y.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

import numpy as np

from .torus import BudgetExceeded

DEFAULT_ALICE_TABLE_BUDGET = 1 << 26
DEFAULT_FULL_PAIR_BUDGET = 1 << 26
EXHAUSTIVE_BLOCK_CELLS = 1 << 18  # Alice tables scored per block


class GameError(ValueError):
    pass


class StrategyError(KeyError):
    pass


@dataclass(frozen=True)
class GameSpec:
    """A two-player game: question alphabets, referee distribution, and win
    predicate.  ``pairs`` lists the support as (alice_q, bob_q, weight);
    ``targets`` gives, per support pair, the packed XOR target t with
    win(a, b) iff a ^ b == t."""

    kind: str
    n: int
    depth: int
    alice_questions: tuple
    bob_questions: tuple
    pairs: tuple  # ((qa, qb, Fraction), ...)
    targets: tuple  # packed ints, aligned with pairs
    delta_table: Optional[dict] = None

    @property
    def answers_per_question(self) -> int:
        return 1 << self.depth

    def weight_total(self) -> Fraction:
        return sum((w for _, _, w in self.pairs), Fraction(0))

    def bob_fan_in(self) -> tuple:
        """Alice indices and XOR targets of the draws reaching each Bob
        question, as two (ny, fan_in) arrays in support order.  Valid
        because all support weights are equal for the families built here;
        the fan-in (2^d for both families) must be uniform and the support
        pairs distinct."""
        if not hasattr(self, "_fan_in"):
            a_index = {q: i for i, q in enumerate(self.alice_questions)}
            rows: dict = {q: [] for q in self.bob_questions}
            for (qa, qb, _), t in zip(self.pairs, self.targets):
                rows[qb].append((a_index[qa], t))
            sizes = sorted({len(row) for row in rows.values()})
            if len(sizes) != 1:
                raise GameError(f"Bob fan-in is not uniform: {sizes}")
            if len({(qa, qb) for qa, qb, _ in self.pairs}) < len(self.pairs):
                raise GameError("support pairs repeat")
            draws = np.array(list(rows.values()), dtype=np.int64).reshape(len(rows), sizes[0], 2)
            object.__setattr__(self, "_fan_in", (draws[..., 0], draws[..., 1]))
        return self._fan_in

    def alice_fan_out(self) -> tuple:
        """Per Alice question, the Bob indices and XOR targets of the draws
        it feeds, as two arrays read off ``bob_fan_in`` once per game.  A
        Bob question appears at most once per Alice question, because the
        support pairs are distinct."""
        if not hasattr(self, "_fan_out"):
            xs, ts = self.bob_fan_in()
            ys = np.arange(len(xs))[:, None].repeat(xs.shape[1], axis=1)
            fan_out = tuple((ys[xs == x], ts[xs == x]) for x in range(len(self.alice_questions)))
            object.__setattr__(self, "_fan_out", fan_out)
        return self._fan_out

    def uniform_support_weight(self) -> Fraction:
        weights = {w for _, _, w in self.pairs}
        if len(weights) != 1:
            raise GameError("support weights are not uniform")
        return next(iter(weights))

    def to_json(self) -> dict:
        data = {
            "kind": self.kind,
            "n": self.n,
            "depth": self.depth,
            "alice_questions": [list(q) for q in self.alice_questions],
            "bob_questions": [list(q) for q in self.bob_questions],
            "answers_per_question": self.answers_per_question,
            "weights": [
                [list(qa), list(qb), str(w)] for qa, qb, w in self.pairs
            ],
        }
        if self.delta_table is not None:
            data["delta"] = [[list(k), v] for k, v in sorted(self.delta_table.items())]
        return data


def _coords(n: int, d: int):
    return tuple(product(range(n), repeat=d))


def make_odd_cycle_game(n: int, d: int = 1) -> GameSpec:
    """Odd-cycle game at repetition depth d.  Per coordinate the referee
    draws x uniform in [n] and t uniform in {0,1}; Bob's coordinate is
    (x+t) mod n and the pair wins iff a XOR b == t in every coordinate."""
    if n < 3 or n % 2 == 0:
        raise GameError("n must be odd and at least 3")
    if d < 1:
        raise GameError("repetition depth must be at least 1")
    questions = _coords(n, d)
    weight = Fraction(1, (2 * n) ** d)
    pairs = []
    targets = []
    for qa in questions:
        for t_bits in product((0, 1), repeat=d):
            qb = tuple((x + t) % n for x, t in zip(qa, t_bits))
            packed = sum(bit << i for i, bit in enumerate(t_bits))
            pairs.append((qa, qb, weight))
            targets.append(packed)
    return GameSpec("odd-cycle", n, d, questions, questions, tuple(pairs), tuple(targets))


def make_chsh_game(d: int = 1, delta_twist: Optional[dict] = None) -> GameSpec:
    """CHSH game at repetition depth d: questions uniform over {0,1}^d on
    each side, win iff a XOR b == x AND y componentwise.  An optional
    delta table {(x, y) -> bit} twists the target to (x AND y) XOR delta
    per coordinate."""
    if d < 1:
        raise GameError("repetition depth must be at least 1")
    delta = None
    if delta_twist is not None:
        delta = {}
        for key, value in delta_twist.items():
            delta[tuple(key)] = int(value)
        wanted = set(product((0, 1), repeat=2))
        if set(delta) != wanted or any(v not in (0, 1) for v in delta.values()):
            raise GameError("delta table must map {0,1}x{0,1} to {0,1}")
    questions = _coords(2, d)
    weight = Fraction(1, 4 ** d)
    pairs = []
    targets = []
    for qa in questions:
        for qb in questions:
            bits = []
            for x, y in zip(qa, qb):
                t = x & y
                if delta is not None:
                    t ^= delta[(x, y)]
                bits.append(t)
            pairs.append((qa, qb, weight))
            targets.append(sum(bit << i for i, bit in enumerate(bits)))
    return GameSpec("chsh", 2, d, questions, questions, tuple(pairs), tuple(targets), delta)


@dataclass
class DeterministicStrategy:
    """Answer tables for both players: question tuple -> packed answer."""

    alice_table: dict
    bob_table: dict

    def validate(self, game: GameSpec):
        k = game.answers_per_question
        for side, questions, table in (
            ("alice", game.alice_questions, self.alice_table),
            ("bob", game.bob_questions, self.bob_table),
        ):
            for q in questions:
                if q not in table:
                    raise StrategyError(f"{side} table missing question {q}")
                if not (0 <= table[q] < k):
                    raise StrategyError(f"{side} answer out of range at {q}")

    def to_json(self) -> dict:
        return {
            "alice": [[list(q), a] for q, a in sorted(self.alice_table.items())],
            "bob": [[list(q), a] for q, a in sorted(self.bob_table.items())],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DeterministicStrategy":
        return cls(
            {tuple(q): a for q, a in data["alice"]},
            {tuple(q): a for q, a in data["bob"]},
        )


def strategy_from_coordinate_rule(game: GameSpec, rule: Callable[[int], int]) -> DeterministicStrategy:
    """Product strategy applying ``rule`` (coordinate question -> bit) to
    every coordinate; both players use the same table."""
    table = {}
    for q in game.alice_questions:
        table[q] = sum((rule(x) & 1) << i for i, x in enumerate(q))
    return DeterministicStrategy(dict(table), dict(table))


def strategy_power(single: DeterministicStrategy, d: int) -> DeterministicStrategy:
    """d-fold product of a depth-1 strategy."""

    def power(table: dict) -> dict:
        singles = {q[0]: a for q, a in table.items()}
        return {
            q: sum((singles[x] & 1) << i for i, x in enumerate(q))
            for q in product(sorted(singles), repeat=d)
        }

    return DeterministicStrategy(power(single.alice_table), power(single.bob_table))


def random_strategy(game: GameSpec, rng) -> DeterministicStrategy:
    k = game.answers_per_question
    alice = {q: int(rng.integers(0, k)) for q in game.alice_questions}
    bob = {q: int(rng.integers(0, k)) for q in game.bob_questions}
    return DeterministicStrategy(alice, bob)


def evaluate_strategy(game: GameSpec, s: DeterministicStrategy) -> Fraction:
    """Exact winning probability of a deterministic strategy pair."""
    s.validate(game)
    total = Fraction(0)
    for (qa, qb, w), t in zip(game.pairs, game.targets):
        if (s.alice_table[qa] ^ s.bob_table[qb]) == t:
            total += w
    return total


@dataclass
class ValueReport:
    """Result of a value computation.  ``exact`` is set whenever the value
    is an exact rational; search results carry only the float bound."""

    value: float
    method: str
    exact: Optional[Fraction] = None
    witness: Optional[DeterministicStrategy] = None
    evaluations: int = 0
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        data = {
            "method": self.method,
            "value": {
                "float": self.value,
                "fraction": str(self.exact) if self.exact is not None else None,
            },
            "evaluations": self.evaluations,
        }
        if self.witness is not None:
            data["witness"] = self.witness.to_json()
        if self.notes:
            data["notes"] = dict(self.notes)
        return data


def _bob_histograms(game: GameSpec, alice: np.ndarray) -> np.ndarray:
    """counts[..., y, b]: the draws reaching Bob question y that answer b
    wins against the Alice answers ``alice[..., x]`` (x indexed like
    alice_questions).  Leading axes of ``alice`` hold independent tables."""
    xs, ts = game.bob_fan_in()
    k = game.answers_per_question
    cells = np.arange(alice[..., 0].size * len(xs)).reshape(alice.shape[:-1] + (len(xs), 1))
    flat = (alice[..., xs] ^ ts) + k * cells
    return np.bincount(flat.ravel(), minlength=cells.size * k).reshape(cells.shape[:-1] + (k,))


def _best_response_bob(game: GameSpec, alice_table: dict) -> tuple:
    """Bob's optimal table against a fixed Alice table, plus the win count
    (number of uniform draws won).  Ties go to the smallest answer."""
    alice = np.array([alice_table[q] for q in game.alice_questions], dtype=np.int64)
    counts = _bob_histograms(game, alice)
    bob = {q: int(b) for q, b in zip(game.bob_questions, counts.argmax(axis=1))}
    return bob, int(counts.max(axis=1).sum())


def classical_value_exact(
    game: GameSpec,
    mode: str = "alice-exhaustive-best-response",
    alice_budget: int = DEFAULT_ALICE_TABLE_BUDGET,
    full_budget: int = DEFAULT_FULL_PAIR_BUDGET,
) -> ValueReport:
    """Exact maximum over deterministic strategies.

    ``full`` enumerates both tables outright; best-response mode enumerates
    Alice tables and optimizes each Bob answer independently per question,
    which is equivalent because the payoff decomposes over Bob questions.
    """
    k = game.answers_per_question
    nx = len(game.alice_questions)
    ny = len(game.bob_questions)
    if mode == "full":
        pair_count = k ** nx * k ** ny
        if pair_count > full_budget:
            raise BudgetExceeded(
                f"full search over {pair_count} strategy pairs exceeds budget; "
                "use alice-exhaustive-best-response or classical_value_search"
            )
        return _exact_full(game)
    if mode != "alice-exhaustive-best-response":
        raise GameError(f"unknown mode {mode!r}")
    table_count = k ** nx
    if table_count > alice_budget:
        raise BudgetExceeded(
            f"{table_count} alice tables exceed budget; use classical_value_search"
        )
    return _exact_alice_exhaustive(game)


def _exact_full(game: GameSpec) -> ValueReport:
    k = game.answers_per_question
    weight = game.uniform_support_weight()
    a_questions = game.alice_questions
    b_questions = game.bob_questions
    a_index = {q: i for i, q in enumerate(a_questions)}
    b_index = {q: i for i, q in enumerate(b_questions)}
    support = [
        (a_index[qa], b_index[qb], t)
        for (qa, qb, _), t in zip(game.pairs, game.targets)
    ]
    best_won = -1
    best_pair = None
    evaluations = 0
    for alice in product(range(k), repeat=len(a_questions)):
        for bob in product(range(k), repeat=len(b_questions)):
            evaluations += 1
            won = 0
            for ia, ib, t in support:
                if (alice[ia] ^ bob[ib]) == t:
                    won += 1
            if won > best_won:
                best_won = won
                best_pair = (alice, bob)
    exact = best_won * weight
    alice_table = {q: best_pair[0][i] for i, q in enumerate(a_questions)}
    bob_table = {q: best_pair[1][i] for i, q in enumerate(b_questions)}
    return ValueReport(
        value=float(exact),
        method="exhaustive",
        exact=exact,
        witness=DeterministicStrategy(alice_table, bob_table),
        evaluations=evaluations,
    )


def _digit_histograms(game: GameSpec, lo: int, hi: int) -> np.ndarray:
    """Per-Bob answer histograms over the Alice digits lo..hi-1 alone:
    H[y, b, i] counts the draws reaching Bob question y from an Alice
    question x in [lo, hi) that answer b wins when those digits spell
    i = sum_x a_x k^(x - lo)."""
    xs, ts = game.bob_fan_in()
    k = game.answers_per_question
    span = np.arange(k ** (hi - lo))
    hist = np.zeros((len(xs), k, len(span)), dtype=np.min_scalar_type(xs.shape[1]))
    for (y, j), x in np.ndenumerate(xs):
        if lo <= x < hi:
            hist[y, (span // k ** (x - lo)) % k ^ ts[y, j], span] += 1
    return hist


def _exact_alice_exhaustive(game: GameSpec) -> ValueReport:
    """Score every Alice table index = hi * k^half + lo as
    sum_y max_b (H_hi[y, b, hi] + H_lo[y, b, lo]), one block of high
    indices at a time; the witness is the smallest-index maximiser."""
    k = game.answers_per_question
    nx = len(game.alice_questions)
    weight = game.uniform_support_weight()
    half = nx // 2
    h_lo = _digit_histograms(game, 0, half)
    h_hi = _digit_histograms(game, half, nx)
    width = h_lo.shape[2]
    rows = max(1, EXHAUSTIVE_BLOCK_CELLS // width)
    best_won, best_table_idx = -1, -1
    for start in range(0, h_hi.shape[2], rows):
        hi = h_hi[:, :, start : start + rows, None]
        total = np.zeros((hi.shape[2], width), dtype=np.min_scalar_type(len(game.pairs)))
        best, other = np.empty((2,) + total.shape, dtype=h_lo.dtype)
        for y in range(len(h_lo)):
            np.add(hi[y, 0], h_lo[y, 0], out=best)
            for b in range(1, k):
                np.add(hi[y, b], h_lo[y, b], out=other)
                np.maximum(best, other, out=best)
            np.add(total, best, out=total)
        local_best = int(total.argmax())
        if int(total.flat[local_best]) > best_won:
            best_won = int(total.flat[local_best])
            best_table_idx = start * width + local_best
    digits = [(best_table_idx // k**i) % k for i in range(nx)]
    alice_table = {q: digits[i] for i, q in enumerate(game.alice_questions)}
    bob_table, won = _best_response_bob(game, alice_table)
    if won != best_won:
        raise GameError(f"best response wins {won} pairs, the exhaustive histogram {best_won}")
    exact = best_won * weight
    return ValueReport(
        value=float(exact),
        method="alice-exhaustive-best-response",
        exact=exact,
        witness=DeterministicStrategy(alice_table, bob_table),
        evaluations=k**nx,
    )


SEARCH_FIRST_CHUNK = 4  # restarts in the first lockstep batch; later batches double


class _SearchBatch:
    """Local search on many Alice tables in lockstep.  Rows run along the
    last axis: ``alice[x, r]`` is row r's answer at Alice question x and
    ``counts[y * k + b, r]`` its ``_bob_histograms`` count, so every
    update works on whole rows at once."""

    def __init__(self, game: GameSpec, alice: np.ndarray):
        k = game.answers_per_question
        counts = _bob_histograms(game, alice)
        self.total = counts.max(axis=2).sum(axis=1)
        self.counts = np.ascontiguousarray(counts.reshape(len(alice), -1).T)
        self.alice = np.ascontiguousarray(alice.T)
        self.answers = np.arange(k)[:, None]
        self.rows = np.arange(len(alice))
        # cells[x][a, e]: the count of x's e-th Bob question y_e at answer a ^ t_e
        self.cells = [ys * k + (self.answers ^ ts) for ys, ts in game.alice_fan_out()]

    def step(self, x: int) -> np.ndarray:
        """Change of ``total`` per row and answer at Alice question x; rows
        that can gain move to their first best answer.  With x's draw taken
        out, let rest_e be the largest count of Bob question e: the draw put
        back at answer a ^ t_e raises e's maximum exactly when that count
        equals rest_e, so answers differ by their numbers of such hits."""
        cells = self.cells[x]
        old = self.alice[x]
        counts = self.counts[cells] - (self.answers == old)[:, None, :]
        hits = (counts == counts.max(axis=0)).sum(axis=1)
        deltas = hits - hits[old, self.rows]
        new = deltas.argmax(axis=0)
        gain = deltas[new, self.rows]
        new = np.where(gain > 0, new, old)
        self.counts[cells] = counts + (self.answers == new)[:, None, :]
        self.alice[x] = new
        self.total += gain
        return deltas.T

    def keep(self, mask: np.ndarray):
        self.alice = self.alice[:, mask]
        self.counts = self.counts[:, mask]
        self.total = self.total[mask]
        self.rows = self.rows[: len(self.total)]


def _search_rows(game: GameSpec, alice: np.ndarray, restart_after: int, goal=None, steps=None) -> tuple:
    """Run the local search from every row of ``alice`` (rows, nx) at once,
    step s re-optimising Alice question s % nx, until the row's restart
    (``restart_after`` consecutive passes without a gain), until its total
    reaches ``goal``, or for ``steps`` steps.  Returns per row the initial
    total, the steps run, the final total and table, and whether the row
    stopped on reaching ``goal``.  Once a row reaches ``goal``, the rows
    after it are dropped."""
    nx = alice.shape[1]
    batch = _SearchBatch(game, alice)
    initial = batch.total.copy()
    length = np.zeros(len(alice), dtype=np.int64)
    final_total = initial.copy()
    final = alice.copy()
    reached = np.zeros(len(alice), dtype=bool) if goal is None else initial >= goal
    ids = np.flatnonzero(~reached)
    batch.keep(ids)
    stale = np.zeros(len(ids), dtype=np.int64)
    pass_start = batch.total.copy()
    s = 0
    while len(ids) and (steps is None or s < steps):
        batch.step(s % nx)
        s += 1
        done = np.zeros(len(ids), dtype=bool)
        if goal is not None:
            hit = batch.total >= goal
            if hit.any():
                reached[ids[hit]] = True
                done = hit | (ids > ids[hit].min())
        if s % nx == 0:
            stale = np.where(batch.total > pass_start, 0, stale + 1)
            pass_start = batch.total.copy()
            done |= stale >= restart_after
        if done.any():
            length[ids[done]] = s
            final_total[ids[done]] = batch.total[done]
            final[ids[done]] = batch.alice[:, done].T
            kept = ~done
            batch.keep(kept)
            ids, stale, pass_start = ids[kept], stale[kept], pass_start[kept]
    length[ids] = s
    final_total[ids] = batch.total
    final[ids] = batch.alice.T
    return initial, length, final_total, final, reached


def classical_value_search(
    game: GameSpec,
    seed: int = 0,
    iterations: int = 100_000,
    target: Optional[float] = None,
    restart_after: int = 4,
) -> ValueReport:
    """Seeded iterated local search over Alice tables with Bob playing the
    best response.  Iteration 1 evaluates the seeded initial table; each
    further iteration re-optimizes one Alice answer (cycling through the
    questions), moving to the first answer of largest gain when the gain is
    positive, and restarts from a fresh random table after
    ``restart_after`` consecutive full passes without improvement.  The
    best table is replaced only on a strict gain, and the search stops
    once its value reaches ``target``.  The returned value is a valid lower
    bound on the classical value.

    Restarts happen only at pass boundaries and the seeded generator draws
    nothing but the initial tables, so every restart's trajectory depends
    on its initial table alone and all restarts visit the same Alice
    question at the same step.  The restarts therefore run as lockstep
    batches (``_search_rows``), drawn in growing chunks, and are then
    scored in order; a restart stops at the step that reaches the target,
    and the restart cut by the budget is rerun alone up to the budget.
    """
    if iterations < 1:
        raise GameError("iterations must be at least 1")
    if restart_after < 1:
        raise GameError("restart_after must be at least 1")
    weight = game.uniform_support_weight()
    goal = None
    if target is not None:
        if math.isnan(target):
            raise GameError("target must be a number, not NaN")
        # smallest win count whose value reaches the target, compared as the floats are
        goal = bisect.bisect_left(range(len(game.pairs) + 1), True, key=lambda w: float(w * weight) >= target)
    rng = np.random.default_rng(seed)
    k = game.answers_per_question
    nx = len(game.alice_questions)
    best_won, best_alice, initial_won = -1, None, None
    it = 1  # the iteration that draws the next restart's table
    chunk = SEARCH_FIRST_CHUNK
    finished = False
    while not finished:
        # every restart lasts at least restart_after passes
        tables = rng.integers(0, k, size=(min(chunk, 1 + (iterations - it) // (restart_after * nx)), nx))
        initial, length, final_total, final, reached = (a.tolist() for a in _search_rows(game, tables, restart_after, goal))
        for r, table in enumerate(tables.tolist()):
            if initial_won is None:
                initial_won = initial[r]
            if initial[r] > best_won:
                best_won, best_alice = initial[r], table
            if it == iterations or (goal is not None and best_won >= goal):
                finished = True
            elif it + length[r] > iterations:
                _, _, total, cut, _ = _search_rows(game, tables[r : r + 1], restart_after, steps=iterations - it)
                if total[0] > best_won:
                    best_won, best_alice = total[0], cut[0].tolist()
                it, finished = iterations, True
            else:
                if final_total[r] > best_won:
                    best_won, best_alice = final_total[r], final[r]
                it += length[r]
                finished = reached[r]
            if finished:
                break
        chunk *= 2
    alice_table = {q: best_alice[i] for i, q in enumerate(game.alice_questions)}
    bob_table, won = _best_response_bob(game, alice_table)
    exact = won * weight
    return ValueReport(
        value=float(exact),
        method="local-search",
        exact=exact,
        witness=DeterministicStrategy(alice_table, bob_table),
        evaluations=it,
        notes={
            "lower_bound_only": True,
            "seed": seed,
            "initial_value": float(initial_won * weight),
        },
    )


def repetition_decay_check(n: int, d: int, value: float) -> dict:
    """Diagnostic record comparing 1 - value against sqrt(d)/(n sqrt(log d)).
    The constant in the decay statement is unknown, so nothing is asserted;
    d = 1 sits on the regime boundary (log d = 0)."""
    record = {
        "n": n,
        "d": d,
        "value": value,
        "gap": 1.0 - value,
        "in_regime": d <= n * n * math.log(n),
    }
    if d <= 1:
        record["bound_quantity"] = None
        record["note"] = "regime boundary: log d = 0 at d = 1"
    else:
        record["bound_quantity"] = math.sqrt(d) / (n * math.sqrt(math.log(d)))
    if not record["in_regime"]:
        record["note"] = "d outside stated regime d <= n^2 log n"
    return record
