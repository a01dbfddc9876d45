import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oddcycle import quantum
from oddcycle.games import make_chsh_game, make_odd_cycle_game
from oddcycle.quantum import (
    MeasurementBasis,
    QuantumError,
    QubitStrategy,
    _AngleForms,
    _ascend,
    _ascend_scalar,
    _forms,
    _maximize_profile,
    _profile,
    bell_phase_state,
    bias_and_approximality,
    canonical_odd_cycle_strategy,
    expectation,
    optimize_angles,
    optimize_restrictions,
    win_probability,
    xor_error_functional,
)
from oddcycle.experiments import ExperimentConfig, _sample_rng, contraction_map, sample_torical_graph

from oracles import angle_objective, born_win_probability

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
EYE = np.eye(2, dtype=complex)
EPR = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def test_bell_phase_state_amplitudes():
    theta = 0.7
    st = bell_phase_state(theta)
    expected = np.array([0, 1 / math.sqrt(2), cmath.exp(1j * theta) / math.sqrt(2), 0])
    assert np.allclose(st.amplitudes, expected, atol=1e-15)
    assert abs(np.sum(np.abs(st.amplitudes) ** 2) - 1) < 1e-12


def test_state_rejects_unnormalized():
    with pytest.raises(QuantumError):
        from oddcycle.quantum import SharedState

        SharedState(np.array([1, 1, 0, 0], dtype=complex))


@pytest.mark.parametrize("angle", [0.0, 0.3, math.pi / 2, 2.1, -0.4])
def test_projector_completeness_and_idempotence(angle):
    basis = MeasurementBasis(angle)
    plus, minus = basis.projectors()
    assert np.max(np.abs(plus + minus - EYE)) < 1e-12
    assert np.max(np.abs(plus @ plus - plus)) < 1e-12
    assert np.max(np.abs(minus @ minus - minus)) < 1e-12
    assert np.max(np.abs(plus - plus.conj().T)) < 1e-12
    basis.validate()


def test_expectation_identity_is_one():
    st = bell_phase_state(1.1)
    assert abs(expectation(st, EYE, EYE) - 1.0) < 1e-12


def test_expectation_pauli_pairs_on_theta_zero():
    # hand expansion: sigma_z as sigma_z flips both signs, sigma_x as
    # sigma_x swaps |01> and |10>
    st = bell_phase_state(0.0)
    assert abs(expectation(st, SZ, SZ) - (-1.0)) < 1e-12
    assert abs(expectation(st, SX, SX) - 1.0) < 1e-12


def test_expectation_rejects_non_hermitian():
    st = bell_phase_state(0.0)
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(QuantumError):
        expectation(st, bad, EYE)


def test_win_probability_matches_closed_form_oracle():
    rng = np.random.default_rng(9)
    game = make_odd_cycle_game(5, 1)
    for _ in range(5):
        theta = float(rng.uniform(0, 2 * math.pi))
        alice = {x: float(rng.uniform(0, 2 * math.pi)) for x in range(5)}
        bob = {y: float(rng.uniform(0, 2 * math.pi)) for y in range(5)}
        flips = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        qs = QubitStrategy(bell_phase_state(theta), alice, bob, *flips)
        expected = 0.0
        for (qa, qb, w), t in zip(game.pairs, game.targets):
            expected += float(w) * born_win_probability(
                theta, alice[qa[0]], bob[qb[0]], t, *flips
            )
        assert abs(win_probability(game, qs) - expected) < 1e-12


def test_win_probability_global_phase_invariance():
    game = make_odd_cycle_game(3, 1)
    qs = canonical_odd_cycle_strategy(3)
    base = win_probability(game, qs)
    shifted = QubitStrategy(
        type(qs.state)(qs.state.amplitudes * cmath.exp(0.9j), qs.state.phase),
        qs.alice_angles,
        qs.bob_angles,
        qs.alice_flip,
        qs.bob_flip,
    )
    assert abs(win_probability(game, shifted) - base) < 1e-12


def test_canonical_angle_tables():
    qs3 = canonical_odd_cycle_strategy(3)
    assert abs(qs3.alice_angles[0] - (-math.pi / 6)) < 1e-15
    assert abs(qs3.alice_angles[1] - math.pi / 2) < 1e-15
    assert abs(qs3.alice_angles[2] - 7 * math.pi / 6) < 1e-15
    assert abs(qs3.bob_angles[1] - (-2 * math.pi / 3)) < 1e-15
    qs5 = canonical_odd_cycle_strategy(5)
    assert abs(qs5.alice_angles[0] - (-math.pi / 10)) < 1e-15


def test_canonical_flips_computed_once_per_n(monkeypatch):
    from oddcycle import quantum

    calls = []
    honest = quantum.win_probability
    monkeypatch.setattr(quantum, "win_probability", lambda g, qs: calls.append(1) or honest(g, qs))
    quantum._canonical_flips.cache_clear()
    first = canonical_odd_cycle_strategy(7)
    first.alice_angles[0] = 99.0
    first.state.amplitudes[:] = 0
    again = canonical_odd_cycle_strategy(7)
    assert len(calls) == 4
    assert again is not first and again.alice_angles[0] == -math.pi / 14
    game = make_odd_cycle_game(7, 1)
    best = max(
        win_probability(game, QubitStrategy(again.state, again.alice_angles, again.bob_angles, fa, fb))
        for fa in (0, 1)
        for fb in (0, 1)
    )
    assert win_probability(game, again) == best


def test_canonical_rejects_even_n():
    with pytest.raises(QuantumError):
        canonical_odd_cycle_strategy(4)


def test_canonical_beats_classical_n3():
    game = make_odd_cycle_game(3, 1)
    value = win_probability(game, canonical_odd_cycle_strategy(3))
    assert value > 5 / 6
    # closed form of the uniform-defect construction
    assert abs(value - math.cos(math.pi / 12) ** 2) < 1e-12


def test_all_angles_equal_stays_bounded():
    game = make_odd_cycle_game(3, 1)
    qs = QubitStrategy(bell_phase_state(0.0), {x: 0.3 for x in range(3)}, {y: 0.3 for y in range(3)})
    value = win_probability(game, qs)
    assert 0.0 <= value <= 1.0


def test_missing_angle_raises():
    game = make_odd_cycle_game(3, 1)
    qs = QubitStrategy(bell_phase_state(0.0), {0: 0.0, 1: 0.0}, {y: 0.0 for y in range(3)})
    with pytest.raises(QuantumError):
        win_probability(game, qs)


def test_depth_two_win_probability_is_product():
    qs = canonical_odd_cycle_strategy(3)
    v1 = win_probability(make_odd_cycle_game(3, 1), qs)
    v2 = win_probability(make_odd_cycle_game(3, 2), qs)
    assert abs(v2 - v1**2) < 1e-12


def test_chsh_optimal_bias():
    game = make_chsh_game(1)
    qs = QubitStrategy(
        bell_phase_state(0.0),
        {0: 0.0, 1: math.pi / 2},
        {0: -math.pi / 4, 1: math.pi / 4},
    )
    rec = bias_and_approximality(game, qs, 0.01)
    assert abs(rec["bias"] - 1 / math.sqrt(2)) < 1e-9
    assert rec["within"]


def test_bias_epsilon_near_one_always_within_for_nonnegative():
    game = make_chsh_game(1)
    qs = QubitStrategy(bell_phase_state(0.0), {0: 0.0, 1: 0.0}, {0: 0.0, 1: 0.0})
    rec = bias_and_approximality(game, qs, 1 - 1e-9, reference=1 / math.sqrt(2))
    assert rec["lower"] < 1e-8
    assert rec["within"] == (rec["bias"] >= rec["lower"])


def test_bias_perturbed_angles_sandwich():
    game = make_chsh_game(1)
    ref = 1 / math.sqrt(2)
    qs = QubitStrategy(
        bell_phase_state(0.0),
        {0: 1e-3, 1: math.pi / 2 + 1e-3},
        {0: -math.pi / 4, 1: math.pi / 4},
    )
    rec = bias_and_approximality(game, qs, 1e-4, reference=ref)
    # the perturbation costs O(eps^2), so the 1e-4 sandwich still holds
    assert rec["bias"] < ref
    assert rec["within"]
    tight = bias_and_approximality(game, qs, 1e-9, reference=ref)
    assert not tight["within"]


def test_bias_epsilon_out_of_range():
    game = make_chsh_game(1)
    qs = QubitStrategy(bell_phase_state(0.0), {0: 0.0, 1: 0.0}, {0: 0.0, 1: 0.0})
    with pytest.raises(QuantumError):
        bias_and_approximality(game, qs, 0.0)


def _optimal_chsh_observables():
    b_plus = (SZ + SX) / math.sqrt(2)
    b_minus = (SZ - SX) / math.sqrt(2)
    return [SZ, SX], {(0, 1): b_plus, (1, 0): b_minus}


def test_xor_error_functional_zero_at_optimum():
    a_ops, b_ops = _optimal_chsh_observables()
    assert xor_error_functional(a_ops, b_ops, EPR) < 1e-9


def test_xor_error_functional_sign_flip():
    a_ops, b_ops = _optimal_chsh_observables()
    flipped = {k: -v for k, v in b_ops.items()}
    value = xor_error_functional(a_ops, flipped, EPR)
    # each of the two terms becomes ||2 v||^2 with ||v|| = 1
    assert abs(value - 8.0) < 1e-9


def test_xor_error_functional_equal_observables():
    b_ops = {(0, 1): SZ, (1, 0): SX}
    value = xor_error_functional([SZ, SZ], b_ops, EPR)
    # the difference term degenerates to ||I (x) B psi||^2 = 1
    assert value >= 1.0 - 1e-12


def test_xor_error_functional_rejects_bad_observables():
    with pytest.raises(QuantumError):
        xor_error_functional([SZ, 0.5 * SX], {(0, 1): SZ, (1, 0): SX}, EPR)


def test_canonical_gap_scales_quadratically():
    # log-log fit of 1 - value over odd n in [3, 27]: slope at most -1.9
    ns = list(range(3, 28, 2))
    gaps = []
    for n in ns:
        game = make_odd_cycle_game(n, 1)
        gaps.append(1.0 - win_probability(game, canonical_odd_cycle_strategy(n)))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))  # decreasing in n
    slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
    assert slope <= -1.9


def test_xor_error_functional_perturbation_positive():
    a_ops, b_ops = _optimal_chsh_observables()
    angle = 1e-3
    rot = np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]], dtype=complex
    )
    perturbed = {k: rot @ v @ rot.conj().T for k, v in b_ops.items()}
    value = xor_error_functional(a_ops, perturbed, EPR)
    assert value > 0
    assert value < 1e-4  # small rotation, quadratically small functional


def test_optimize_angles_reaches_chsh_optimum():
    game = make_chsh_game(1)
    result = optimize_angles(game, seed=1, starts=6)
    assert abs(result["value"] - (2 + math.sqrt(2)) / 4) < 1e-9


@pytest.mark.parametrize(
    "game",
    [make_odd_cycle_game(5, 1), make_odd_cycle_game(3, 2), make_chsh_game(2)],
    ids=["odd-cycle-n5-d1", "odd-cycle-n3-d2", "chsh-d2"],
)
def test_optimize_angles_value_is_born_value_of_its_strategy(game):
    result = optimize_angles(game, seed=2, starts=3)
    assert abs(result["value"] - win_probability(game, result["strategy"])) < 1e-12


def _surviving_pairs(game, rng):
    pairs = sorted({(qa, qb) for qa, qb, _ in game.pairs})
    return [pairs[i] for i in sorted(rng.choice(len(pairs), size=(len(pairs) + 1) // 2, replace=False))]


@pytest.mark.parametrize(
    "game, restricted",
    [(make_odd_cycle_game(n, d), restricted) for n in (3, 5) for d in (1, 2) for restricted in (False, True)]
    + [(make_chsh_game(1), False), (make_chsh_game(2), False)],
    ids=[f"odd-cycle-n{n}-d{d}-{kind}" for n in (3, 5) for d in (1, 2) for kind in ("full", "restricted")]
    + ["chsh-d1", "chsh-d2"],
)
def test_angle_objective_and_profile_match_oracle(game, restricted):
    rng = np.random.default_rng(17)
    keep = _surviving_pairs(game, rng) if restricted else None
    # column 0 feeds the scalar ascent; column 1, the full game, is another batch column
    forms = _AngleForms(game, [keep, None])

    def oracle(angles, pairs=keep):
        return angle_objective(game, *(dict(zip(ks, a)) for ks, a in zip(forms.keys, angles)), pairs)

    for _ in range(4):
        angles = [rng.uniform(0, 2 * math.pi, len(ks)).tolist() for ks in forms.keys]
        phase = [[cmath.exp(1j * a) for a in side] for side in angles]
        alpha, beta = (np.array(a)[end] for a, end in zip(angles, forms.ends))
        r = np.cos(alpha + beta).tolist() + [1.0]
        value = _forms(forms.A, np.array([r, r]).T)
        assert abs(value[0] - oracle(angles)) < 1e-12
        assert abs(value[1] - oracle(angles, None)) < 1e-12
    # in every angle the restriction asks, g(a) - g(a') from the kernel's
    # (z1, z2) is the objective difference
    tables = forms.scalar_tables(0)
    kept = [(qa, qb) for qa, qb, _ in game.pairs if keep is None or (qa, qb) in keep]
    asked = [(side, x) for side, qs in enumerate(zip(*kept)) for x in sorted({x for q in qs for x in q})]
    assert [(side, forms.keys[side][k]) for side, k, *_ in tables] == asked
    for side, k, _, terms in tables:
        z1, z2, _ = _profile(phase[1 - side], r, *terms)
        a, a2 = rng.uniform(0, 2 * math.pi, 2)
        moved = [list(angles[0]), list(angles[1])]
        values = []
        for x in (a, a2):
            moved[side][k] = x
            values.append(oracle(moved))
        g = [(z1 * cmath.exp(1j * x) + z2 * cmath.exp(2j * x)).real for x in (a, a2)]
        assert abs((g[0] - g[1]) - (values[0] - values[1])) < 1e-12


FINE_GRID = np.linspace(0.0, 2 * math.pi, 65536, endpoint=False)
COEFFICIENT = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))


@given(
    z1=COEFFICIENT,
    z2=st.one_of(st.just(0j), COEFFICIENT),
    z1_scale=st.sampled_from([1.0, 1e-2, 1e-4, 1e-7, 1e-10]),
)
# two nearly equal maxima, where the best grid peak is not the best maximum
@example(z1=0.001 + 0.001j, z2=0.013 - 0.66j, z1_scale=1.0)
# the single-peak Newton branch: z2 = 0, and |z2|/|z1| just below 1/8 at three relative phases
@example(z1=0.3 - 0.7j, z2=0j, z1_scale=1.0)
@example(z1=cmath.rect(0.8, 0.3), z2=cmath.rect(0.1 - 1e-10, 0.6), z1_scale=1.0)
@example(z1=cmath.rect(0.8, 0.3), z2=cmath.rect(0.1 - 1e-10, 0.6 + math.pi / 2), z1_scale=1.0)
@example(z1=cmath.rect(0.8, 0.3), z2=cmath.rect(0.1 - 1e-10, 0.6 + math.pi), z1_scale=1.0)
# the grid branch: |z2|/|z1| just above 1/8 at the same phases, and z1 = 0
@example(z1=cmath.rect(0.8, 0.3), z2=cmath.rect(0.1 + 1e-10, 0.6), z1_scale=1.0)
@example(z1=cmath.rect(0.8, 0.3), z2=cmath.rect(0.1 + 1e-10, 0.6 + math.pi / 2), z1_scale=1.0)
@example(z1=cmath.rect(0.8, 0.3), z2=cmath.rect(0.1 + 1e-10, 0.6 + math.pi), z1_scale=1.0)
@example(z1=0j, z2=0.4 + 0.3j, z1_scale=1.0)
# |z2|/|z1| = 0.48, where Newton steps from -arg(z1) settle on the lower of two maxima
@example(z1=1 + 0j, z2=cmath.rect(0.48, 2.111848394913139), z1_scale=1.0)
def test_maximize_profile_beats_fine_grid(z1, z2, z1_scale):
    z1 *= z1_scale

    def profile(a):
        return (z1 * np.exp(1j * a) + z2 * np.exp(2j * a)).real

    best = _maximize_profile(z1, z2)
    assert profile(np.array([best]))[0] >= profile(FINE_GRID).max() - 1e-12


def _restrictions(n):
    """Surviving pairs of seeded samples, random pair sets, the full game,
    and sets that drop every pair asking Alice key 0 or Bob key 1."""
    game = make_odd_cycle_game(n, 2)
    law = ExperimentConfig().removal_law
    cases = []
    for index in range(6):
        contraction = contraction_map(sample_torical_graph(n, 2, law, _sample_rng(42, n, index))["graph"])
        if contraction.image_count:
            cases.append(set(contraction.surviving))
    rng = np.random.default_rng(n)
    cases += [_surviving_pairs(game, rng) for _ in range(3)]
    pairs = sorted({(qa, qb) for qa, qb, _ in game.pairs})
    cases += [None, [p for p in pairs if 0 not in p[0]], [p for p in pairs if 1 not in p[1]]]
    return game, cases


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("starts", [1, 4])
# after 3 sweeps the starts still differ, so every row's own path shows
@pytest.mark.parametrize("sweeps", [3, 200])
def test_batched_restrictions_match_scalar_kernel(n, starts, sweeps):
    game, cases = _restrictions(n)
    canonical = canonical_odd_cycle_strategy(n)
    inits = [(dict(canonical.alice_angles), dict(canonical.bob_angles))]
    seeds = [101 + i for i in range(len(cases))]
    forms = _AngleForms(game, cases)
    rows = np.repeat(np.arange(len(cases)), starts)
    start = forms.starts(seeds, starts, inits)
    # _ascend updates the arrays it is given
    batched, scalar = (ascend(forms, rows, [a.copy() for a in start], sweeps, 1e-12) for ascend in (_ascend, _ascend_scalar))
    # the same updates, with sums in another order: row by row equal up to rounding
    assert np.abs(batched[0] - scalar[0]).max() < 1e-12
    for got, want in zip(batched[1], scalar[1]):
        assert np.abs(np.exp(1j * got) - np.exp(1j * want)).max() < 1e-9
    for row, i in enumerate(rows.tolist()):
        keep, strategy = cases[i], forms.strategy(i, [side[:, row] for side in batched[1]])
        # the strategy tabulates exactly the coordinates that the kept pairs ask
        kept = [(qa, qb) for qa, qb, _ in game.pairs if keep is None or (qa, qb) in set(keep)]
        assert [set(strategy.alice_angles), set(strategy.bob_angles)] == [{x for q in qs for x in q} for qs in zip(*kept)]
        objective = angle_objective(game, strategy.alice_angles, strategy.bob_angles, keep)
        assert abs(objective - batched[0][row]) < 1e-12
    # a restriction's rows do not see the other restrictions of the batch
    reverse = _AngleForms(game, cases[::-1])
    values = _ascend(reverse, rows, reverse.starts(seeds[::-1], starts, inits), sweeps, 1e-12)[0]
    assert values.reshape(-1, starts)[::-1].ravel().tolist() == batched[0].tolist()


def test_optimize_restrictions_routes_by_row_count(monkeypatch):
    game, cases = _restrictions(3)
    seeds = list(range(len(cases)))
    assert 2 * 4 < quantum.BATCH_MIN_ROWS <= len(cases) * 4
    with monkeypatch.context() as patched:
        patched.setattr(quantum, "_ascend_scalar", lambda *a: pytest.fail("scalar ascent ran"))
        batched = optimize_restrictions(game, cases, seeds, starts=4)
    with monkeypatch.context() as patched:
        patched.setattr(quantum, "_ascend", lambda *a: pytest.fail("batched ascent ran"))
        scalar = optimize_restrictions(game, cases[:2], seeds[:2], starts=4)
    for got, want in zip(batched, scalar):
        assert abs(got["value"] - want["value"]) < 1e-12
    # the first best start of each restriction wins
    tied = np.array([0.5, 0.7, 0.7, 0.1, 0.2, 0.2, 0.9, 0.9])
    with monkeypatch.context() as patched:
        patched.setattr(quantum, "_ascend_scalar", lambda forms, rows, angles, *a: (tied, angles))
        picked = optimize_restrictions(game, [None, None], [5, 6], starts=4)
    start = _AngleForms(game, [None, None]).starts([5, 6], 4, None)
    for got, row in zip(picked, (1, 6)):
        assert got["value"] == tied[row]
        assert list(got["strategy"].alice_angles.values()) == start[0][:, row].tolist()
    with pytest.raises(QuantumError):
        optimize_restrictions(game, cases, seeds[1:])
    with pytest.raises(QuantumError):
        optimize_restrictions(game, [[]] * 8, [0] * 8, starts=4)


def test_angle_forms_memory_stays_small():
    # one depth-2 game at n = 15: 900 question pairs over 30 edges
    game = make_odd_cycle_game(15, 2)
    tracemalloc.start()
    try:
        _AngleForms(game, [None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_optimize_angles_depth_cap():
    with pytest.raises(QuantumError):
        optimize_angles(make_odd_cycle_game(3, 3))
