"""Two-qubit quantum strategies: the phase-shifted Bell state, equatorial
projective measurements indexed by angles, Born-rule winning probabilities,
bias/approximality checks, and the two-player XOR error functional.

Measurement convention: Alice's projectors use her table angle directly;
Bob's projectors are built from the negated table angle (the complex-
conjugate frame).  With the shared state (|01> + e^{i theta}|10>)/sqrt(2)
this is the composition under which the canonical angle tables produce the
documented quantum advantage; the literal same-frame composition makes the
per-pair correlation depend on the question sum and averages to 1/2.

Repeated games (depth d >= 2) are played with product strategies: each
coordinate is measured with the per-coordinate angle tables and the
reported probability is the exact Born value of that product strategy.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .games import GameSpec, make_odd_cycle_game

HERMITIAN_TOL = 1e-10
PROJECTOR_TOL = 1e-12


class QuantumError(ValueError):
    pass


@dataclass
class SharedState:
    """Two-qubit state. Basis order |00>, |01>, |10>, |11>."""

    amplitudes: np.ndarray
    phase: float = 0.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (4,):
            raise QuantumError("state needs exactly 4 amplitudes")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise QuantumError(f"state not normalized: |psi|^2 = {norm}")


def bell_phase_state(theta: float = 0.0) -> SharedState:
    """(|01> + e^{i theta}|10>)/sqrt(2), for a finite theta."""
    if not math.isfinite(theta):
        raise QuantumError(f"theta must be finite, got {theta}")
    theta = theta % (2 * math.pi)
    amp = np.array([0, 1 / math.sqrt(2), cmath.exp(1j * theta) / math.sqrt(2), 0])
    return SharedState(amp, phase=theta)


@dataclass
class MeasurementBasis:
    """Two-outcome projective basis onto (|0> +/- e^{i angle}|1>)/sqrt(2)."""

    angle: float

    def vectors(self) -> tuple:
        e = cmath.exp(1j * self.angle)
        plus = np.array([1, e]) / math.sqrt(2)
        minus = np.array([1, -e]) / math.sqrt(2)
        return plus, minus

    def projectors(self) -> tuple:
        plus, minus = self.vectors()
        return np.outer(plus, plus.conj()), np.outer(minus, minus.conj())

    def validate(self):
        """Hermitian, idempotent, and complete within PROJECTOR_TOL."""
        eye = np.eye(2)
        plus, minus = self.projectors()
        for proj in (plus, minus):
            if np.max(np.abs(proj - proj.conj().T)) > PROJECTOR_TOL:
                raise QuantumError("projector not Hermitian")
            if np.max(np.abs(proj @ proj - proj)) > PROJECTOR_TOL:
                raise QuantumError("projector not idempotent")
        if np.max(np.abs(plus + minus - eye)) > PROJECTOR_TOL:
            raise QuantumError("projectors do not sum to the identity")


@dataclass
class QubitStrategy:
    """Shared state plus per-coordinate-question measurement angles.

    ``alice_flip``/``bob_flip`` encode the outcome-to-answer maps: outcome
    index s in {0 (+), 1 (-)} answers ``s XOR flip``.  ``conjugate_bob``
    selects the conjugate frame for Bob's projectors (see module note).
    """

    state: SharedState
    alice_angles: dict
    bob_angles: dict
    alice_flip: int = 0
    bob_flip: int = 0
    conjugate_bob: bool = True

    def to_json(self) -> dict:
        return {
            "theta": self.state.phase,
            "alice_angles": {str(k): v for k, v in sorted(self.alice_angles.items())},
            "bob_angles": {str(k): v for k, v in sorted(self.bob_angles.items())},
            "alice_flip": self.alice_flip,
            "bob_flip": self.bob_flip,
            "conjugate_bob": self.conjugate_bob,
        }


def _check_hermitian(op: np.ndarray, tol: float = HERMITIAN_TOL):
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise QuantumError("operators must be 2x2")
    if np.max(np.abs(op - op.conj().T)) > tol:
        raise QuantumError("operator is not Hermitian within tolerance")
    return op


def expectation(state: SharedState, op_a: np.ndarray, op_b: np.ndarray) -> float:
    """<psi| A (x) B |psi> by direct 4x4 contraction."""
    op_a = _check_hermitian(op_a)
    op_b = _check_hermitian(op_b)
    joint = np.kron(op_a, op_b)
    value = np.vdot(state.amplitudes, joint @ state.amplitudes)
    if abs(value.imag) > HERMITIAN_TOL:
        raise QuantumError(f"imaginary residue {value.imag} above tolerance")
    return float(value.real)


def _coordinate_win_probability(
    qs: QubitStrategy, x, y, target_bit: int
) -> float:
    """Born probability that one coordinate wins: sum over the outcome
    pairs whose mapped answers XOR to the target bit."""
    try:
        alpha = qs.alice_angles[x]
        beta = qs.bob_angles[y]
    except KeyError as missing:
        raise QuantumError(f"missing measurement angle for question {missing}") from None
    basis_a = MeasurementBasis(alpha).projectors()
    beta_eff = -beta if qs.conjugate_bob else beta
    basis_b = MeasurementBasis(beta_eff).projectors()
    psi = qs.state.amplitudes
    prob = 0.0
    for sa in (0, 1):
        for sb in (0, 1):
            a_bit = sa ^ qs.alice_flip
            b_bit = sb ^ qs.bob_flip
            if (a_bit ^ b_bit) != target_bit:
                continue
            joint = np.kron(basis_a[sa], basis_b[sb])
            prob += float(np.vdot(psi, joint @ psi).real)
    return prob


def win_probability(game: GameSpec, qs: QubitStrategy) -> float:
    """Born-rule average of the win predicate over the referee distribution.
    Depth d >= 2 games are played coordinate-wise (product strategy)."""
    cache: dict = {}
    total = 0.0
    for (qa, qb, w), t in zip(game.pairs, game.targets):
        prob = 1.0
        for i in range(game.depth):
            key = (qa[i], qb[i], (t >> i) & 1)
            if key not in cache:
                cache[key] = _coordinate_win_probability(qs, qa[i], qb[i], (t >> i) & 1)
            prob *= cache[key]
        total += float(w) * prob
    if not -1e-10 <= total <= 1 + 1e-10:
        raise QuantumError(f"win probability {total} outside [0,1] tolerance")
    return min(1.0, max(0.0, total))


def _canonical_angles(n: int) -> tuple:
    phi = math.pi * (n - 1) / n
    return {x: phi * x - math.pi / (2 * n) for x in range(n)}, {y: -phi * y for y in range(n)}


@functools.lru_cache(maxsize=256)
def _canonical_flips(n: int, theta: float) -> tuple:
    """The (alice_flip, bob_flip) outcome maps that maximize the depth-1
    winning probability of the canonical angle tables."""
    alice, bob = _canonical_angles(n)
    state = bell_phase_state(theta)
    game = make_odd_cycle_game(n, 1)
    best = None
    for flips in ((0, 0), (0, 1), (1, 0), (1, 1)):
        value = win_probability(game, QubitStrategy(state, alice, bob, *flips))
        if best is None or value > best[0] + 1e-15:
            best = (value, flips)
    return best[1]


def canonical_odd_cycle_strategy(n: int, theta: float = 0.0) -> QubitStrategy:
    """Angle tables alpha_x = pi*x*(n-1)/n - pi/(2n), beta_y = -pi*y*(n-1)/n
    over x, y in [n], with the outcome maps chosen (among the four flip
    conventions) to maximize the winning probability of the depth-1 game."""
    if n < 3 or n % 2 == 0:
        raise QuantumError("n must be odd and at least 3")
    alice, bob = _canonical_angles(n)
    return QubitStrategy(bell_phase_state(theta), alice, bob, *_canonical_flips(n, theta))


# -- angle optimization --------------------------------------------------------

_GRID = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
# on the grid with its circular neighbours, Re(z1 e^{ia}) + Re(z2 e^{2ia}) is
# (Re z1, Im z1, Re z2, Im z2) @ _RING_BASIS
_RING = np.r_[_GRID[-1], _GRID, _GRID[0]]
_RING_BASIS = np.stack([np.cos(_RING), -np.sin(_RING), np.cos(2 * _RING), -np.sin(2 * _RING)])
# Newton steps of one key's profile maximisation
NEWTON_STEPS = 8
# coordinate sweeps per round, each round ended by a joint Newton polish,
# and Newton steps per polish.  After two sweeps the polish already settles
# every row that decides a result; on the estimator, rounds of 1 or 3
# sweeps took about as long and rounds of 4 or 20 longer
POLISH_AFTER = 2
POLISH_STEPS = 12
# coordinate sweeps a row runs in all, over its rounds
MAX_SWEEPS = 200
# a row whose round gains less than this runs no further round
ROUND_GAIN_TOL = 1e-12


def _gauge_fixed(kept: np.ndarray, ends: tuple, n_keys: int) -> np.ndarray:
    """(keys, restrictions) mask of the keys outside restriction i's kept
    edges kept[i] and of the smallest key of each connected component of
    them, edge e joining keys ends[0][e] and ends[1][e].  Each key starts
    as its own label; each kept edge pulls both its ends to the smaller
    label, then each label takes its own label's label, until none moves."""
    edge, column = np.nonzero(kept.T)
    a, b = ends[0][edge], ends[1][edge]
    label = np.repeat(np.arange(n_keys)[:, None], len(kept), axis=1)
    while True:
        pulled = label.copy()
        low = np.minimum(label[a, column], label[b, column])
        np.minimum.at(pulled, (a, column), low)
        np.minimum.at(pulled, (b, column), low)
        pulled = np.take_along_axis(pulled, pulled, axis=0)
        if (pulled == label).all():
            return label == np.arange(n_keys)[:, None]
        label = pulled


class _AngleForms:
    """The angle objective sum_t W[t] prod_j (1 + E[t, j] cos(alpha + beta))/2
    (W normalised over a restriction's kept pairs, E[t, j] = +1 for target
    bit 0, else -1) of several restrictions of one game, as quadratic forms
    in the full game's edge layout.  Edge e is a distinct (Alice key index,
    Bob key index) leg pair, ends[side][e], with r[e] = cos(alpha + beta) =
    Re(pa pb) for the unit phasors of its two angles; for depth <= 2 the
    objective is c + b.r + r.Q.r, where each leg adds W E / 2^depth to b
    and a two-leg term adds W E0 E1 / 8 to Q at (e0, e1) and at (e1, e0).
    Column i of A = [[Q, b/2], [b/2, c]] is restriction i, with zero b and
    Q on the edges it lacks; present[side][k, i] says whether it asks key
    k of that side.  Over all keys, Alice's then Bob's, fixed[k, i] marks
    the keys restriction i's Newton polish holds still: those it lacks, and
    the first key of each connected component of its kept edges, where the
    gauge alpha + c, beta - c leaves the objective unchanged.  inc[side]
    lists each key's incident edges (keys x degree; every key of a side has
    one degree).  blocks lists the coordinate ascent's update blocks
    (_block), keys of one side that it maximises in one step, none of
    whose updates changes another's profile.  Arrays keep the restriction
    index last."""

    def __init__(self, game: GameSpec, restrictions: list):
        if game.depth > 2:
            raise QuantumError("angle optimization supports depth <= 2")
        depth, n_pairs = game.depth, len(game.pairs)
        names = [(qa, qb) for qa, qb, _ in game.pairs]
        self.keys = tuple(sorted({x for q in qs for x in q}) for qs in zip(*names))
        index = [{x: i for i, x in enumerate(ks)} for ks in self.keys]
        edges: dict = {}
        ends = ((index[0][qa[j]], index[1][qb[j]]) for qa, qb in names for j in range(depth))
        legs = np.array([edges.setdefault(ij, len(edges)) for ij in ends]).reshape(n_pairs, depth)
        self.ends = [np.array(end) for end in zip(*edges)]
        n_edges, pair = len(edges), np.arange(n_pairs)[:, None]
        signs = 1.0 - 2.0 * ((np.array(game.targets)[:, None] >> np.arange(depth)) & 1)
        # per pair, unnormalised: b with c as a last entry, and the keys it asks
        linear = np.zeros((n_pairs, n_edges + 1))
        np.add.at(linear, (pair, legs), 0.5**depth * signs)
        linear[:, -1] = 0.5**depth
        asks = [np.zeros((n_pairs, len(ks))) for ks in self.keys]
        for ask, end in zip(asks, self.ends):
            ask[pair, end[legs]] = 1.0
        kept = np.array([np.ones(n_pairs) if keep is None else keep for keep in restrictions], dtype=float)
        if kept.shape != (len(restrictions), n_pairs):
            raise QuantumError("a restriction is None or a keep-mask over the game's pairs")
        weight = kept * np.array([float(w) for _, _, w in game.pairs])
        total = weight.sum(axis=1, keepdims=True)
        if not total.all():
            raise QuantumError("no kept question pairs to optimize over")
        weight /= total
        b = (weight @ linear).T
        self.present = [(kept @ ask > 0).T for ask in asks]
        asked = np.zeros((n_pairs, n_edges))
        asked[pair, legs] = 1.0
        split = len(self.keys[0])
        self.fixed = _gauge_fixed(kept @ asked > 0, (self.ends[0], split + self.ends[1]), split + len(self.keys[1]))
        # objective = r1.(A r1) for r1 = (r, 1)
        self.A = np.zeros((n_edges + 1, n_edges + 1, len(restrictions)))
        Q = self.A[:-1, :-1]
        if depth == 2:  # a pair's legs identify it: at most two exact terms per entry
            term = 0.125 * signs.prod(axis=1)[:, None] * weight.T
            np.add.at(Q, (legs, legs[:, ::-1]), term[:, None])
        self.A[:-1, -1] = self.A[-1, :-1] = b[:-1] / 2
        self.A[-1, -1] = b[-1]
        self.inc = []
        for end in self.ends:
            degree = np.bincount(end)
            if (degree != degree[0]).any():
                raise QuantumError("angle optimization needs the keys of one side to share one degree")
            self.inc.append(np.argsort(end, kind="stable").reshape(len(degree), -1))
        # update blocks, Alice's then Bob's in key order: at depth 1, Q = 0
        # and each side is one block; at depth 2 each key is its own
        self.blocks = []
        for side, inc in enumerate(self.inc):
            width = len(inc) if depth == 1 else 1
            for k in range(0, len(inc), width):
                self.blocks.append(self._block(side, slice(k, k + width), inc[k : k + width], Q, b))

    def _block(self, side: int, keys: slice, inc: np.ndarray, Q: np.ndarray, b: np.ndarray) -> tuple:
        """A block's side, its keys, their incident edges and partner keys
        (keys x degree) and the pairs i <= j of a key's edges; then per
        restriction the rows [2Q off the key's incident columns | b] giving
        z1, the z2 coefficients of the pairs (Q/2 when i == j), and whether
        the restriction has the key."""
        rows = np.concatenate([2.0 * Q[inc], b[inc, None]], axis=2)
        for row, own in zip(rows, inc):
            row[:, own] = 0.0
        i, j = np.triu_indices(inc.shape[1])
        coef = (Q[inc[:, i], inc[:, j]] * np.where(i == j, 0.5, 1.0)[:, None]).astype(complex)
        return (side, keys, inc, self.ends[1 - side][inc], i, j), (rows, coef, self.present[side][keys])

    def starts(self, seeds: Optional[list], count: int, inits) -> list:
        """Per side, the start angles over all keys of every row (row index
        last): row i*count + j is start j of restriction i, 0 on the keys it
        lacks.  On its keys: the inits' angles (0 where a table lacks a
        key), then random starts drawn per side from default_rng(seeds[i]),
        up to `count` in all; with no random start, no generator is built
        and seeds may be None."""
        inits = inits or []
        angles = [np.zeros((len(ks), here.shape[1], count)) for ks, here in zip(self.keys, self.present)]
        for j, init in enumerate(inits):
            for side, table, ks, here in zip(angles, init, self.keys, self.present):
                side[..., j] = np.where(here, np.array([float(table.get(q, 0.0)) for q in ks])[:, None], 0.0)
        if len(inits) < count:
            for i, seed in enumerate(seeds):
                rng = np.random.default_rng(seed)
                for j in range(len(inits), count):
                    for side, here in zip(angles, self.present):
                        side[here[:, i], i, j] = rng.uniform(0, 2 * math.pi, here[:, i].sum())
        return [side.reshape(len(side), -1) for side in angles]

    def strategy(self, i: int, angles) -> QubitStrategy:
        """The strategy of per-side angles over all keys, tabled on the keys
        restriction i asks."""
        tables = (
            {q: float(a) for q, a, on in zip(ks, side, here[:, i]) if on}
            for ks, side, here in zip(self.keys, angles, self.present)
        )
        return QubitStrategy(bell_phase_state(0.0), *tables)


def _cis(a: np.ndarray) -> np.ndarray:
    """exp(1j * a), with cos and sin written into one complex array (about
    half the time of exp on a complex array)."""
    e = np.empty(a.shape, dtype=complex)
    np.cos(a, out=e.real)
    np.sin(a, out=e.imag)
    return e


def _newton(z1: np.ndarray, z2: np.ndarray, a: np.ndarray) -> tuple:
    """Up to NEWTON_STEPS Newton steps on g'(a) = -Im(z1 e^{ia}) -
    2 Im(z2 e^{2ia}) from the angles a, on the arrays, each row until its
    own step falls below 1e-12 or is taken where g''(a) < 0 fails.
    Returns every row's last angle and whether it settled: its last step
    fell below 1e-12 where g''(a) < 0."""
    a, settled, todo = a.copy(), np.zeros(len(a), dtype=bool), np.arange(len(a))
    x, u, v = a.copy(), z1, z2
    for _ in range(NEWTON_STEPS):
        e = _cis(x)
        u1, u2 = u * e, v * e * e
        curvature = -u1.real - 4.0 * u2.real
        step = (u1.imag + 2.0 * u2.imag) / curvature
        x += step
        going = curvature < 0.0
        done = np.abs(step) < 1e-12
        a[todo] = x
        settled[todo] = going & done
        more = (going & ~done).nonzero()[0]
        if not len(more):
            break
        todo, x, u, v = todo[more], x[more], u[more], v[more]
    return a, settled


def _best_of_two_peaks(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Per row, the angle maximizing g(a) = Re(z1 e^{ia}) + Re(z2 e^{2ia}),
    which has at most two local maxima: of the best two circular peaks of
    g on the 256-point grid and the angles _newton reaches from them, the
    one where g is highest."""
    ring = np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=1) @ _RING_BASIS
    values = ring[:, 1:-1]
    peaks = np.where((values > ring[:, :-2]) & (values >= ring[:, 2:]), values, -np.inf)
    rows = np.arange(len(z1))
    first = peaks.argmax(axis=1)
    peaks[rows, first] = -np.inf
    start = _GRID[np.concatenate([first, peaks.argmax(axis=1)])]
    candidates = np.concatenate([_newton(np.tile(z1, 2), np.tile(z2, 2), start)[0], start]).reshape(4, -1)
    e = _cis(candidates)
    g = (z1 * e + z2 * e * e).real
    g[np.isnan(g)] = -np.inf
    return candidates[g.argmax(axis=0), rows]


def _maximize_profiles(z1: np.ndarray, z2: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """The angle maximizing g(a) = Re(z1[i] e^{ia}) + Re(z2[i] e^{2ia}) for
    every i with wanted[i]; the other entries are left arbitrary.  When
    |z1| > 4|z2|, arg(z1 e^{ia} + 2 z2 e^{2ia}) strictly increases, so g
    has one maximum; for 8|z2| <= |z1| _newton from -arg(z1) finds it.  A
    wanted row that is not settled there goes to _best_of_two_peaks."""
    a = np.zeros(len(z1))
    single = wanted & (8.0 * np.abs(z2) <= np.abs(z1))
    a[single], settled = _newton(z1[single], z2[single], -np.angle(z1[single]))
    grid = wanted & ~single
    grid[single] = ~settled
    if grid.any():
        a[grid] = _best_of_two_peaks(z1[grid], z2[grid])
    return a


def _forms(A: np.ndarray, r1: np.ndarray) -> np.ndarray:
    return (r1 * np.einsum("efr,fr->er", A, r1)).sum(axis=0)


def _profiles(block: tuple, phase: list, r1: np.ndarray) -> tuple:
    """(z1, z2, p) per key of a block and row (keys x rows) such that, with
    every other angle fixed, the objective in the key's angle is a
    constant plus Re(z1 e^{ia}) + Re(z2 e^{2ia}): with p the partner
    phasors (from phase) of its incident edges,
    z1 = sum_e p_e (b_e + sum_f 2 Q_ef r_f) over the other edges f, and
    z2 = sum_{e,e'} Q_ee' p_e p_e' / 2."""
    (side, _, _, partner, i, j), (M, coef, _) = block
    p = phase[1 - side][partner]
    z1 = (p * np.einsum("kier,er->kir", M, r1)).sum(axis=1)
    z2 = (p[:, i] * p[:, j] * coef).sum(axis=1)
    return z1, z2, p


def _ascend(forms: _AngleForms, rows: np.ndarray, angles: list, sweeps: int) -> list:
    """`sweeps` sweeps of Gauss-Seidel updates over the rows (row index
    last) from the start angles, one step per block of forms.blocks: the
    keys of a block are maximised together, which gives the iterates of
    updating them one at a time, since none of them changes another's
    profile.  A key a row's restriction lacks is never updated.  Returns
    every row's angles; the start arrays are left as they are."""
    angles = [a.copy() for a in angles]
    phase = [_cis(a) for a in angles]
    r1 = np.ones((len(forms.ends[0]) + 1, len(rows)))
    r1[:-1] = (phase[0][forms.ends[0]] * phase[1][forms.ends[1]]).real
    blocks = [(fixed, [x[..., rows] for x in per_row]) for fixed, per_row in forms.blocks]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(sweeps):
            for block in blocks:
                (side, keys, inc, *_), (*_, on) = block
                z1, z2, p = _profiles(block, phase, r1)
                best = _maximize_profiles(z1.ravel(), z2.ravel(), on.ravel()).reshape(on.shape)
                angles[side][keys] = a = np.where(on, best, angles[side][keys])
                phase[side][keys] = w = _cis(a)
                r1[inc] = (w[:, None] * p).real
    return angles


def _solve_negative_definite(H: np.ndarray, g: np.ndarray) -> tuple:
    """Per row (last axis): whether H is negative definite, from one stacked
    LAPACK Cholesky of -H, and the solution x of -H x = g, from one stacked
    solve.  Only when that Cholesky raises is each row factored alone.  A
    row holding a NaN or infinity fails, since the Cholesky may pass NaN
    through.  Failing rows solve the identity, and callers ignore their x."""
    M = -np.moveaxis(H, -1, 0)
    ok = np.isfinite(M).all(axis=(1, 2))
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        for r, m in enumerate(M):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                ok[r] = False
    M[~ok] = np.eye(M.shape[-1])
    return ok, np.linalg.solve(M, g.T[..., None])[..., 0].T


def _derivatives(forms: _AngleForms, A: np.ndarray, u: np.ndarray, r1: np.ndarray) -> tuple:
    """Gradient and Hessian of every row's objective r1.(A r1) in all its
    angles, Alice's keys then Bob's (row index last), at the edge phases
    u = exp(i theta), theta_e = alpha + beta.  With r = cos(theta),
    s = sin(theta) and g = b + 2 Q r, they are -g s and
    2 Q o (s s^T) - diag(g r) in theta, summed over each key's incident
    edges."""

    def by_key(v: np.ndarray) -> np.ndarray:
        return np.concatenate([v[inc].sum(axis=1) for inc in forms.inc])

    g, s = 2.0 * np.einsum("efr,fr->er", A[:-1], r1), u.imag
    hessian = A[:-1, :-1] * s
    hessian *= 2.0 * s[:, None]
    edges = np.arange(len(s))
    hessian[edges, edges] -= g * u.real
    hessian = by_key(hessian).swapaxes(0, 1)  # summed over one key of each pair
    return by_key(-g * s), by_key(hessian)


def _polish(forms: _AngleForms, rows: np.ndarray, angles: list) -> tuple:
    """Joint Newton steps on all angles of every row (row index last), from
    _derivatives.  The keys forms.fixed holds still are dropped, which
    removes the Hessian's null directions exactly.  Each step tests and
    solves every live row's reduced Hessian with one stacked LAPACK
    Cholesky and solve (_solve_negative_definite).  A row takes its step
    where that Hessian is negative definite and the objective does not
    drop.  Where the Hessian is negative definite, a row settles once
    its step is below 1e-12 or the step's predicted gain, half the
    gradient times the step, is at most 4 eps |value|, taken or refused:
    then it is at a maximum up to rounding.  A row leaves the working
    arrays when it settles, its Hessian is not negative definite, its step
    is refused, or after POLISH_STEPS steps.  Returns every row's value
    and angles, and whether it settled."""
    split, diagonal = len(forms.keys[0]), np.arange(len(forms.fixed))

    def at(x: np.ndarray, A: np.ndarray) -> tuple:
        phase = _cis(x)
        u = phase[forms.ends[0]] * phase[split + forms.ends[1]]
        r1 = np.ones((len(u) + 1, x.shape[1]))
        r1[:-1] = u.real
        return u, r1, _forms(A, r1)

    x, A, free = np.concatenate(angles), forms.A[..., rows], ~forms.fixed[:, rows]
    out, settled = x.copy(), np.zeros(len(rows), dtype=bool)
    u, r1, value = at(x, A)
    values, live = value.copy(), np.arange(len(rows))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(POLISH_STEPS):
            gradient, hessian = _derivatives(forms, A, u, r1)
            hessian *= free[:, None] & free
            hessian[diagonal, diagonal] -= ~free
            gradient *= free
            ok, step = _solve_negative_definite(hessian, gradient)
            gain = 0.5 * (gradient * step).sum(axis=0)
            done = ok & ((np.abs(step).max(axis=0) < 1e-12) | (gain <= 4 * np.finfo(float).eps * np.abs(value)))
            moved = x + step
            u_moved, r1_moved, trial = at(moved, A)
            up = ok & (trial >= value)
            tried = ((moved, x), (u_moved, u), (r1_moved, r1), (trial, value))
            x, u, r1, value = (np.where(up, new, old) for new, old in tried)
            out[:, live], values[live] = x, value
            settled[live[done]] = True
            going = up & ~done
            if not going.any():
                break
            live, x, u, r1, value, A, free = (a[..., going] for a in (live, x, u, r1, value, A, free))
    return values, [out[:split], out[split:]], settled


def optimize_restrictions(
    game: GameSpec,
    restrictions: list,
    seeds: Optional[list] = None,
    starts: int = 8,
    inits: Optional[list] = None,
) -> list:
    """The angle optimization of optimize_angles(game, seeds[i], starts,
    inits) on the pairs that restrictions[i] keeps, for every i, where a
    restriction is None (the full game) or a boolean keep-mask over
    game.pairs.  One _AngleForms holds every restriction's objective and
    row i*starts + j runs start j of restriction i.  The rows run in
    rounds of POLISH_AFTER coordinate sweeps of the batched _ascend, each
    ended by a _polish, up to MAX_SWEEPS sweeps in all.  A row runs
    another round only while it is unsettled, its last round gained at least ROUND_GAIN_TOL, and its value is the
    best of its restriction's starts: a start below that best would change
    the result only by climbing past it, and over 2,940 estimator samples with four starts each (n = 3..15,
    seeds 0, 7, 42) none did by more than 3.3e-16.  The first best start
    of each restriction wins; its value is a polished local maximum, a
    heuristic lower bound on the restriction's supremum.  Fewer than one
    start, inits included, is a QuantumError, and so is a random start
    without one seed per restriction."""
    starts = max(starts, len(inits or []))  # every init runs
    if starts < 1:
        raise QuantumError(f"starts must be at least 1, got {starts}")
    if starts > len(inits or []) and (seeds is None or len(seeds) != len(restrictions)):
        raise QuantumError("random starts need one seed per restriction")
    forms = _AngleForms(game, restrictions)
    rows = np.repeat(np.arange(len(restrictions)), starts)
    angles = forms.starts(seeds, starts, inits)
    values = np.full(len(rows), -np.inf)
    todo, spent = np.arange(len(rows)), 0
    while True:
        run = min(POLISH_AFTER, MAX_SWEEPS - spent)
        part = _ascend(forms, rows[todo], [side[:, todo] for side in angles], run)
        got, part, settled = _polish(forms, rows[todo], part)
        gained = got - values[todo]
        values[todo] = got
        for side, polished in zip(angles, part):
            side[:, todo] = polished
        spent += run
        leading = got == values.reshape(-1, starts).max(axis=1)[rows[todo]]
        todo = todo[~settled & (gained >= ROUND_GAIN_TOL) & leading]
        if not len(todo) or spent >= MAX_SWEEPS:
            break
    best = values.reshape(-1, starts).argmax(axis=1) + np.arange(0, len(rows), starts)
    return [
        {"value": float(values[row]), "strategy": forms.strategy(i, [side[:, row] for side in angles]), "starts": starts}
        for i, row in enumerate(best.tolist())
    ]


def optimize_angles(
    game: GameSpec,
    seed: int = 0,
    starts: int = 8,
    inits: Optional[list] = None,
) -> dict:
    """Multi-start coordinate ascent over the 2n measurement angles (theta
    fixed to 0, outcome maps unflipped; both are absorbable into the
    tables), finished by joint Newton steps (see optimize_restrictions).
    A start stops once its Newton polish settles at rounding level, a
    round gains less than ROUND_GAIN_TOL, or another start holds a higher
    value.  The value is a polished local maximum of the best start: still
    a heuristic lower bound on the game's supremum."""
    return optimize_restrictions(game, [None], [seed], starts, inits)[0]


def bias_and_approximality(
    game: GameSpec,
    qs: QubitStrategy,
    epsilon: float,
    reference: Optional[float] = None,
    seed: int = 0,
) -> dict:
    """Bias = 2*win_probability - 1 for +/-1-scored predicates, checked
    against the sandwich (1-eps)*beta(G) <= beta <= beta(G).  The reference
    beta(G) is supplied or computed by angle optimization."""
    prob = win_probability(game, qs)
    if reference is None:
        reference = 2.0 * optimize_angles(game, seed=seed)["value"] - 1.0
    return _bias_record(prob, epsilon, reference)


def _bias_record(prob: float, epsilon: float, reference: float) -> dict:
    """The bias 2*prob - 1 against the sandwich with bounds
    (1-eps)*reference and reference."""
    if not 0 < epsilon < 1:
        raise QuantumError("epsilon must lie in (0, 1)")
    bias, lower = 2.0 * prob - 1.0, (1.0 - epsilon) * reference
    within = lower <= bias <= reference + 1e-12
    return {"bias": bias, "lower": lower, "upper": reference, "within": within, "reference": reference}


def xor_error_functional(observables_a: list, observables_b: dict, psi: np.ndarray) -> float:
    """Sum over 1 <= i < j <= n of
    || [((A_i+A_j)/sqrt2) (x) I] psi - [I (x) B_ij] psi ||^2
    + || [((A_i-A_j)/sqrt2) (x) I] psi - [I (x) B_ji] psi ||^2.

    Observables must be Hermitian with +/-1 spectrum (within 1e-8); the
    state must be a normalized 2x2-party vector."""
    psi = np.asarray(psi, dtype=complex).reshape(4)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise QuantumError("state must be normalized")
    checked_a = []
    for op in observables_a:
        op = _check_hermitian(op, tol=1e-8)
        if np.max(np.abs(op @ op - np.eye(2))) > 1e-8:
            raise QuantumError("observable does not square to identity")
        checked_a.append(op)
    checked_b = {}
    for key, op in observables_b.items():
        op = _check_hermitian(op, tol=1e-8)
        if np.max(np.abs(op @ op - np.eye(2))) > 1e-8:
            raise QuantumError("observable does not square to identity")
        checked_b[key] = op
    n = len(checked_a)
    eye = np.eye(2)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for combo, key in ((1.0, (i, j)), (-1.0, (j, i))):
                if key not in checked_b:
                    raise QuantumError(f"missing Bob observable for pair {key}")
                mix = (checked_a[i] + combo * checked_a[j]) / math.sqrt(2)
                lhs = np.kron(mix, eye) @ psi
                rhs = np.kron(eye, checked_b[key]) @ psi
                total += float(np.linalg.norm(lhs - rhs) ** 2)
    return total


def quantum_advantage_report(n: int, theta: float = 0.0, oracle_seed: int = 0, epsilon: float = 0.01) -> dict:
    """Canonical-strategy value vs the known classical value 1 - 1/(2n),
    with the angle-optimization refinement, the strategy, and its bias as
    bias_and_approximality gives it for the reference 2*optimized - 1.
    Also reports the empirical 1 - value for scaling diagnostics; the
    square-vs-linear decay question is surfaced, not adjudicated."""
    game = make_odd_cycle_game(n, 1)
    qs = canonical_odd_cycle_strategy(n, theta)
    value = win_probability(game, qs)
    classical = 1.0 - 1.0 / (2 * n)
    optimized = optimize_angles(
        game,
        seed=oracle_seed,
        inits=[(dict(qs.alice_angles), dict(qs.bob_angles))],
    )
    return {
        "n": n,
        "canonical_value": value,
        "classical_value": classical,
        "margin": value - classical,
        "optimized_value": optimized["value"],
        "bias": _bias_record(value, epsilon, 2 * optimized["value"] - 1),
        "strategy": qs,
        "one_minus_value": 1.0 - value,
        "scaling_note": (
            "canonical gap scales like 1/n^2 empirically; the 1 - Theta(1/m) "
            "reference label is reported alongside, not asserted"
        ),
    }
