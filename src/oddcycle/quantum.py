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
    """(|01> + e^{i theta}|10>)/sqrt(2)."""
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
# _RING_BASIS @ (Re z1, Im z1, Re z2, Im z2)
_RING = np.r_[_GRID[-1], _GRID, _GRID[0]]
_RING_BASIS = np.stack([np.cos(_RING), -np.sin(_RING), np.cos(2 * _RING), -np.sin(2 * _RING)], axis=1)
NEWTON_STEPS = 3
SINGLE_PEAK_STEPS = 8
# rows (restrictions x starts) from which one batched ascent beats the
# scalar ascent; below it the per-update numpy call overhead of the batch
# costs more than the Python loop
BATCH_MIN_ROWS = 32


def _newton(z1: complex, z2: complex, a: float, steps: int) -> tuple:
    """Up to `steps` Newton steps on g'(a) = -Im(z1 e^{ia}) - 2 Im(z2 e^{2ia})
    from a, taken while g''(a) < 0; returns the angle and whether a step
    fell below 1e-12."""
    for _ in range(steps):
        e = cmath.exp(1j * a)
        u1, u2 = z1 * e, z2 * e * e
        curvature = -u1.real - 4.0 * u2.real
        if not curvature < 0.0:
            break
        step = (u1.imag + 2.0 * u2.imag) / curvature
        a += step
        if abs(step) < 1e-12:
            return a, True
    return a, False


def _maximize_profile(z1: complex, z2: complex) -> float:
    """Angle a maximizing g(a) = Re(z1 e^{ia}) + Re(z2 e^{2ia}).

    When |z1| > 4|z2|, arg(z1 e^{ia} + 2 z2 e^{2ia}) strictly increases, so
    g has one maximum; for 8|z2| <= |z1| Newton steps from -arg(z1) find it.
    Otherwise, or if those steps do not settle, g has at most two local
    maxima: the best two circular peaks of the 256-point grid (the second
    only if it can still win) are polished by Newton steps."""
    if 8.0 * abs(z2) <= abs(z1):
        a, settled = _newton(z1, z2, -cmath.phase(z1), SINGLE_PEAK_STEPS)
        if settled:
            return a
    ring = _RING_BASIS @ np.array((z1.real, z1.imag, z2.real, z2.imag))
    values = ring[1:-1]
    peaks = ((values > ring[:-2]) & (values >= ring[2:])).nonzero()[0]
    # |g''| <= |z1| + 4|z2|; a peak is no lower than the grid point (spacing _GRID[1]) nearest its max
    grid_error = (abs(z1) + 4.0 * abs(z2)) * _GRID[1] ** 2 / 8
    best = (-math.inf, 0.0)
    for value, i in sorted(zip(values[peaks].tolist(), peaks.tolist()), reverse=True)[:2]:
        if value + grid_error < best[0]:
            break
        a = _newton(z1, z2, float(_GRID[i]), NEWTON_STEPS)[0]
        polished = (z1 * cmath.exp(1j * a) + z2 * cmath.exp(2j * a)).real
        best = max(best, (value, float(_GRID[i])), (polished, a))
    return best[1]


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
    k of that side.  Arrays keep the restriction index last."""

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
        keeps = (None if r is None else set(r) for r in restrictions)
        kept = np.array([[keep is None or q in keep for q in names] for keep in keeps], dtype=float)
        weight = kept * np.array([float(w) for _, _, w in game.pairs])
        total = weight.sum(axis=1, keepdims=True)
        if not total.all():
            raise QuantumError("no surviving question pairs to optimize over")
        weight /= total
        b = (weight @ linear).T
        self.present = [(kept @ ask > 0).T for ask in asks]
        # objective = r1.(A r1) for r1 = (r, 1)
        self.A = np.zeros((n_edges + 1, n_edges + 1, len(restrictions)))
        Q = self.A[:-1, :-1]
        if depth == 2:  # a pair's legs identify it: at most two exact terms per entry
            term = 0.125 * signs.prod(axis=1)[:, None] * weight.T
            np.add.at(Q, (legs, legs[:, ::-1]), term[:, None])
        self.A[:-1, -1] = self.A[-1, :-1] = b[:-1] / 2
        self.A[-1, -1] = b[-1]
        # per angle, Alice's then Bob's in key order: its incident edges,
        # their partner keys and the pairs i <= j of them; then per
        # restriction the rows [2Q off the incident columns | b] giving z1,
        # the z2 coefficients of the pairs (Q/2 when i == j), and whether
        # the restriction has this key
        self.tables = []
        for side in (0, 1):
            for k in range(len(self.keys[side])):
                inc = np.flatnonzero(self.ends[side] == k)
                rows = np.concatenate([2.0 * Q[inc], b[inc, None]], axis=1)
                rows[:, inc] = 0.0
                i, j = np.triu_indices(len(inc))
                coef = (Q[inc[i], inc[j]] * np.where(i == j, 0.5, 1.0)[:, None]).astype(complex)
                fixed = (side, k, inc, self.ends[1 - side][inc], i, j)
                self.tables.append((fixed, (rows, coef, self.present[side][k])))

    def starts(self, seeds: list, count: int, inits) -> list:
        """Per side, the start angles over all keys of every row (row index
        last): row i*count + j is start j of restriction i, 0 on the keys it
        lacks.  On its keys: the inits' angles (0 where a table lacks a
        key), then random starts drawn per side from default_rng(seeds[i]),
        up to `count` in all."""
        angles = [np.zeros((len(ks), len(seeds) * count)) for ks in self.keys]
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            keys = [[q for q, on in zip(ks, here[:, i]) if on] for ks, here in zip(self.keys, self.present)]
            drawn = [[[float(table.get(q, 0.0)) for q in ks] for table, ks in zip(init, keys)] for init in inits or []]
            while len(drawn) < count:
                drawn.append([rng.uniform(0, 2 * math.pi, len(ks)) for ks in keys])
            for j, start in enumerate(drawn):
                for side, here in enumerate(self.present):
                    angles[side][here[:, i], i * count + j] = start[side]
        return angles

    def strategy(self, i: int, angles) -> QubitStrategy:
        """The strategy of per-side angles over all keys, tabled on the keys
        restriction i asks."""
        tables = (
            {q: float(a) for q, a, on in zip(ks, side, here[:, i]) if on}
            for ks, side, here in zip(self.keys, angles, self.present)
        )
        return QubitStrategy(bell_phase_state(0.0), *tables)

    def scalar_tables(self, i: int) -> list:
        """Column i of the per-angle tables, for the angles restriction i asks,
        as Python lists: (side, k, incident edges, _profile's terms), the
        terms being the partner keys, b on the incident edges, their nonzero
        2Q entries (f, 2Q_ef) against the other edges, and the nonzero z2
        coefficients (i, j, q)."""
        out = []
        for (side, k, inc, partner, pi, pj), (rows, coef, on) in self.tables:
            if on[i]:
                M = rows[..., i]
                quad = [[(f, q) for f, q in enumerate(row) if q] for row in M[:, :-1].tolist()]
                block = [(x, y, q) for x, y, q in zip(pi.tolist(), pj.tolist(), coef[:, i].real.tolist()) if q]
                out.append((side, k, inc.tolist(), (partner.tolist(), M[:, -1].tolist(), quad, block)))
        return out


def _profile(other: list, r: list, partner: list, b: list, rows: list, block: list) -> tuple:
    """(z1, z2, p) such that, with every other angle fixed, the objective in
    one angle is a constant plus Re(z1 e^{ia}) + Re(z2 e^{2ia}): with p the
    partner phasors (from other) of its incident edges,
    z1 = sum_e p_e (b_e + sum_f 2 Q_ef r_f) over the other edges f, and
    z2 = sum_{e,e'} Q_ee' p_e p_e' / 2."""
    p = [other[j] for j in partner]
    z1 = 0j
    for pe, h, row in zip(p, b, rows):
        for f, q in row:
            h += q * r[f]
        z1 += pe * h
    z2 = 0j
    for i, j, q in block:
        z2 += q * p[i] * p[j]
    return z1, z2, p


def _cis(a: np.ndarray) -> np.ndarray:
    """exp(1j * a), with cos and sin written into one complex array (about
    half the time of exp on a complex array)."""
    e = np.empty(a.shape, dtype=complex)
    np.cos(a, out=e.real)
    np.sin(a, out=e.imag)
    return e


def _maximize_profiles(z1: np.ndarray, z2: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """_maximize_profile of every (z1[i], z2[i]) with wanted[i]; the other
    entries are left arbitrary.  The single-peak Newton steps run on the
    arrays, each row until its own step falls below 1e-12; a row that
    leaves that branch goes to the scalar maximiser."""
    a = -np.angle(z1)
    settled = np.zeros(len(a), dtype=bool)
    todo = (8.0 * np.abs(z2) <= np.abs(z1)).nonzero()[0]
    x, u, v = a[todo], z1[todo], z2[todo]
    for _ in range(SINGLE_PEAK_STEPS):
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
    for i in (wanted & ~settled).nonzero()[0].tolist():
        a[i] = _maximize_profile(complex(z1[i]), complex(z2[i]))
    return a


def _forms(A: np.ndarray, r1: np.ndarray) -> np.ndarray:
    return (r1 * np.einsum("efr,fr->er", A, r1)).sum(axis=0)


def _ascend_scalar(forms: _AngleForms, rows: np.ndarray, angles: list, sweeps: int, tol: float) -> tuple:
    """_ascend on Python lists, one row after another: a sweep updates the
    keys the row's restriction asks, Alice's then Bob's in key order, and a
    row stops once a sweep gains less than tol.  Below BATCH_MIN_ROWS rows
    this loop beats the per-update numpy calls of the batch."""
    ends = [end.tolist() for end in forms.ends]
    values, angles = np.empty(len(rows)), [a.copy() for a in angles]
    for i in dict.fromkeys(rows.tolist()):
        A, tables = np.ascontiguousarray(forms.A[..., i]), forms.scalar_tables(i)

        def objective(r: list) -> float:
            r = np.array(r)
            return float(r.dot(A.dot(r)))

        for row in np.flatnonzero(rows == i).tolist():
            at = [side[:, row].tolist() for side in angles]
            phase = [[cmath.exp(1j * x) for x in a] for a in at]
            r = [(phase[0][j] * phase[1][k]).real for j, k in zip(*ends)] + [1.0]
            value = objective(r)
            for _ in range(sweeps):
                for side, k, inc, terms in tables:
                    z1, z2, p = _profile(phase[1 - side], r, *terms)
                    at[side][k] = a = _maximize_profile(z1, z2)
                    phase[side][k] = w = cmath.exp(1j * a)
                    for e, pe in zip(inc, p):
                        r[e] = (w * pe).real
                value, previous = objective(r), value
                if value - previous < tol:
                    break
            values[row] = value
            for side in (0, 1):
                angles[side][:, row] = at[side]
    return values, angles


def _ascend(forms: _AngleForms, rows: np.ndarray, angles: list, sweeps: int, tol: float) -> tuple:
    """Sweeps of Gauss-Seidel updates over the rows (row index last) from
    the start angles, never updating a key a row's restriction lacks; a row
    drops out of the working arrays once a sweep gains less than tol.
    Returns every row's last value and angles."""
    phase = [_cis(a) for a in angles]
    r1 = np.ones((len(forms.ends[0]) + 1, len(rows)))
    r1[:-1] = (phase[0][forms.ends[0]] * phase[1][forms.ends[1]]).real
    A = forms.A[..., rows]
    tables = [(fixed, [x[..., rows] for x in per_row]) for fixed, per_row in forms.tables]
    value = _forms(A, r1)
    final = (value.copy(), [a.copy() for a in angles])
    live = np.arange(len(rows))
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(sweeps):
            for (side, k, inc, partner, i, j), (M, coef, on) in tables:
                p = phase[1 - side][partner]
                z1 = (p * np.einsum("ier,er->ir", M, r1)).sum(axis=0)
                z2 = (p[i] * p[j] * coef).sum(axis=0)
                a = np.where(on, _maximize_profiles(z1, z2, on), angles[side][k])
                angles[side][k] = a
                phase[side][k] = w = _cis(a)
                r1[inc] = (w * p).real
            value, previous = _forms(A, r1), value
            going = ~(value - previous < tol) & (sweep + 1 < sweeps)
            if going.all():
                continue
            final[0][live] = value
            for side in (0, 1):
                final[1][side][:, live] = angles[side]
            if not going.any():
                break
            live, value, A, r1 = live[going], value[going], A[..., going], r1[:, going]
            angles, phase = [a[:, going] for a in angles], [f[:, going] for f in phase]
            for _, per_row in tables:  # one table at a time, so old and new never all coexist
                per_row[:] = [x[..., going] for x in per_row]
    return final


def optimize_restrictions(
    game: GameSpec,
    restrictions: list,
    seeds: list,
    starts: int = 8,
    sweeps: int = 200,
    tol: float = 1e-12,
    inits: Optional[list] = None,
) -> list:
    """optimize_angles(game, seeds[i], starts, sweeps, tol, restrictions[i],
    inits) for every i.  One _AngleForms holds every restriction's
    objective and row i*starts + j runs start j of restriction i; from
    BATCH_MIN_ROWS rows on all rows run as one batched coordinate ascent,
    below it one after another.  The first best start of each restriction
    wins."""
    if len(restrictions) != len(seeds):
        raise QuantumError("one seed per restriction")
    starts = max(starts, len(inits or []))  # every init runs
    forms = _AngleForms(game, restrictions)
    rows = np.repeat(np.arange(len(seeds)), starts)
    ascend = _ascend if len(rows) >= BATCH_MIN_ROWS else _ascend_scalar
    values, angles = ascend(forms, rows, forms.starts(seeds, starts, inits), sweeps, tol)
    best = values.reshape(-1, starts).argmax(axis=1) + np.arange(0, len(rows), starts)
    return [
        {"value": float(values[row]), "strategy": forms.strategy(i, [side[:, row] for side in angles]), "starts": starts}
        for i, row in enumerate(best.tolist())
    ]


def optimize_angles(
    game: GameSpec,
    seed: int = 0,
    starts: int = 8,
    sweeps: int = 200,
    tol: float = 1e-12,
    restrict_pairs=None,
    inits: Optional[list] = None,
) -> dict:
    """Multi-start coordinate ascent over the 2n measurement angles (theta
    fixed to 0, outcome maps unflipped; both are absorbable into the
    tables).  A heuristic lower bound on the restricted-game supremum."""
    return optimize_restrictions(game, [restrict_pairs], [seed], starts, sweeps, tol, inits)[0]


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
    if not 0 < epsilon < 1:
        raise QuantumError("epsilon must lie in (0, 1)")
    prob = win_probability(game, qs)
    bias = 2.0 * prob - 1.0
    if reference is None:
        reference = 2.0 * optimize_angles(game, seed=seed)["value"] - 1.0
    lower = (1.0 - epsilon) * reference
    upper = reference
    return {
        "bias": bias,
        "lower": lower,
        "upper": upper,
        "within": lower <= bias <= upper + 1e-12,
        "reference": reference,
    }


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


def quantum_advantage_report(n: int, theta: float = 0.0, oracle_seed: int = 0) -> dict:
    """Canonical-strategy value vs the known classical value 1 - 1/(2n),
    with the angle-optimization refinement.  Also reports the empirical
    1 - value for scaling diagnostics; the square-vs-linear decay question
    is surfaced, not adjudicated."""
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
        "one_minus_value": 1.0 - value,
        "scaling_note": (
            "canonical gap scales like 1/n^2 empirically; the 1 - Theta(1/m) "
            "reference label is reported alongside, not asserted"
        ),
    }
