import cmath
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import example, given
from hypothesis import strategies as st

from oddcycle import experiments, quantum
from oddcycle.games import make_chsh_game, make_odd_cycle_game
from oddcycle.quantum import (
    MeasurementBasis,
    QuantumError,
    QubitStrategy,
    _AngleForms,
    _ascend,
    _cis,
    _derivatives,
    _forms,
    _maximize_profiles,
    _profiles,
    _solve_negative_definite,
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


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_bell_phase_state_rejects_a_non_finite_theta(theta):
    with pytest.raises(QuantumError, match="theta must be finite"):
        bell_phase_state(theta)


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


def _keep(game, pairs):
    """The keep-mask over game.pairs of a collection of (qa, qb) pairs."""
    pairs = set(pairs)
    return np.array([(qa, qb) in pairs for qa, qb, _ in game.pairs])


def _kept_pairs(game, keep):
    """The (qa, qb) pairs that a keep-mask keeps, None for the full game."""
    return None if keep is None else [game.pairs[p][:2] for p in np.flatnonzero(keep)]


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
    # column 1, the full game, is another batch column
    forms = _AngleForms(game, [None if keep is None else _keep(game, keep), None])

    def oracle(angles, pairs=keep):
        return angle_objective(game, *(dict(zip(ks, a)) for ks, a in zip(forms.keys, angles)), pairs)

    for _ in range(4):
        angles = [rng.uniform(0, 2 * math.pi, len(ks)).tolist() for ks in forms.keys]
        alpha, beta = (np.array(a)[end] for a, end in zip(angles, forms.ends))
        r = np.cos(alpha + beta).tolist() + [1.0]
        value = _forms(forms.A, np.array([r, r]).T)
        assert abs(value[0] - oracle(angles)) < 1e-12
        assert abs(value[1] - oracle(angles, None)) < 1e-12
    # in every angle a column's restriction asks, g(a) - g(a') from the
    # block (z1, z2) that _ascend maximises is the objective difference
    phase = [_cis(np.array([side, side]).T) for side in angles]
    r1 = np.array([r, r]).T
    asked = [[], []]
    for block in forms.blocks:
        (side, keys, *_), (*_, on) = block
        z1, z2, _ = _profiles(block, phase, r1)
        for t, column in zip(*np.nonzero(on)):
            k, pairs = keys.start + t, (keep, None)[column]
            asked[column].append((side, forms.keys[side][k]))
            a, a2 = rng.uniform(0, 2 * math.pi, 2)
            moved = [list(angles[0]), list(angles[1])]
            values = []
            for x in (a, a2):
                moved[side][k] = x
                values.append(oracle(moved, pairs))
            g = [(z1[t, column] * cmath.exp(1j * x) + z2[t, column] * cmath.exp(2j * x)).real for x in (a, a2)]
            assert abs((g[0] - g[1]) - (values[0] - values[1])) < 1e-12
    for pairs, got in zip((keep, None), asked):
        kept = [(qa, qb) for qa, qb, _ in game.pairs if pairs is None or (qa, qb) in pairs]
        assert sorted(got) == [(side, x) for side, qs in enumerate(zip(*kept)) for x in sorted({x for q in qs for x in q})]


FINE_GRID = np.linspace(0.0, 2 * math.pi, 65536, endpoint=False)
COEFFICIENT = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))


@given(
    z1=COEFFICIENT,
    z2=st.one_of(st.just(0j), COEFFICIENT),
    z1_scale=st.sampled_from([1.0, 1e-2, 1e-4, 1e-7, 1e-10]),
)
# two nearly equal maxima, where the best grid peak is not the best maximum
@example(z1=0.001 + 0.001j, z2=0.013 - 0.66j, z1_scale=1.0)
# the batched single-peak Newton stage: z2 = 0, and |z2|/|z1| just below 1/8 at three relative phases
@example(z1=0.3 - 0.7j, z2=0j, z1_scale=1.0)
@example(z1=cmath.rect(0.8, 0.3), z2=cmath.rect(0.1 - 1e-10, 0.6), z1_scale=1.0)
@example(z1=cmath.rect(0.8, 0.3), z2=cmath.rect(0.1 - 1e-10, 0.6 + math.pi / 2), z1_scale=1.0)
@example(z1=cmath.rect(0.8, 0.3), z2=cmath.rect(0.1 - 1e-10, 0.6 + math.pi), z1_scale=1.0)
# the grid stage: |z2|/|z1| just above 1/8 at the same phases, and z1 = 0
@example(z1=cmath.rect(0.8, 0.3), z2=cmath.rect(0.1 + 1e-10, 0.6), z1_scale=1.0)
@example(z1=cmath.rect(0.8, 0.3), z2=cmath.rect(0.1 + 1e-10, 0.6 + math.pi / 2), z1_scale=1.0)
@example(z1=cmath.rect(0.8, 0.3), z2=cmath.rect(0.1 + 1e-10, 0.6 + math.pi), z1_scale=1.0)
@example(z1=0j, z2=0.4 + 0.3j, z1_scale=1.0)
# |z2|/|z1| = 0.48, where Newton steps from -arg(z1) settle on the lower of two maxima
@example(z1=1 + 0j, z2=cmath.rect(0.48, 2.111848394913139), z1_scale=1.0)
# the best grid peak lies on the lower of two maxima, 3.2e-6 below the other
@example(z1=9.359278340590722e-05 + 0.00014057282180621268j, z2=0.40293151243342 - 0.9152301329655382j, z1_scale=1.0)
def test_maximize_profile_beats_fine_grid(z1, z2, z1_scale):
    z1 *= z1_scale

    def profile(a):
        return (z1 * np.exp(1j * a) + z2 * np.exp(2j * a)).real

    with np.errstate(divide="ignore", invalid="ignore"):
        best = _maximize_profiles(np.array([z1]), np.array([z2]), np.array([True]))[0]
    assert profile(np.array([best]))[0] >= profile(FINE_GRID).max() - 1e-12


def test_maximize_profiles_rows_do_not_see_each_other():
    # single-peak rows, rows for the grid stage (the examples above, z1 = 0
    # and z1 = z2 = 0) and unwanted rows in one call
    rng = np.random.default_rng(5)
    single = [0.3 - 0.7j, 1.0, cmath.rect(0.8, 0.3)], [0j, 0.1j, cmath.rect(0.1 - 1e-10, 0.6)]
    multi = (
        [0.001 + 0.001j, 1.0, 9.359278340590722e-05 + 0.00014057282180621268j, 0j, 0j] + [cmath.rect(0.8, 0.3)] * 3,
        [0.013 - 0.66j, cmath.rect(0.48, 2.111848394913139), 0.40293151243342 - 0.9152301329655382j, 0.4 + 0.3j, 0j]
        + [cmath.rect(0.1 + 1e-10, 0.6 + phase) for phase in (0.0, math.pi / 2, math.pi)],
    )
    scale = rng.uniform(0, 1, (2, 40)) * np.exp(2j * math.pi * rng.uniform(0, 1, (2, 40)))
    z1 = np.concatenate([single[0], multi[0], scale[0], scale[0, :6]])
    z2 = np.concatenate([single[1], multi[1], scale[1] * rng.choice([0.05, 1.0], 40), [0.5] * 3 + [np.nan] * 3])
    wanted = np.arange(len(z1)) < len(z1) - 6
    with np.errstate(divide="ignore", invalid="ignore"):
        both = _maximize_profiles(z1, z2, wanted)
        alone = [_maximize_profiles(z1[i : i + 1], z2[i : i + 1], np.array([True]))[0] for i in np.flatnonzero(wanted)]
    assert both[wanted].tolist() == alone
    for u, v, a in zip(z1[wanted], z2[wanted], alone):
        assert (u * cmath.exp(1j * a) + v * cmath.exp(2j * a)).real >= (u * np.exp(1j * FINE_GRID) + v * np.exp(2j * FINE_GRID)).real.max() - 1e-12


def test_random_starts_on_restricted_games_reach_the_grid_stage(monkeypatch):
    # profiles with two maxima do occur, so the end-to-end tests cover the grid stage
    game, cases = _restrictions(3)
    rows, real = [], quantum._best_of_two_peaks
    monkeypatch.setattr(quantum, "_best_of_two_peaks", lambda z1, z2: rows.append(len(z1)) or real(z1, z2))
    optimize_restrictions(game, cases, list(range(len(cases))), starts=4)
    assert sum(rows) >= 1


def _restrictions(n, depth=2):
    """Keep-masks of seeded samples' contractions and of random pair sets,
    the full game (None), and masks that drop every pair asking Alice key
    0 or Bob key 1."""
    game = make_odd_cycle_game(n, depth)
    law = ExperimentConfig().removal_law
    cases = []
    for index in range(6):
        contraction = contraction_map(sample_torical_graph(n, depth, law, _sample_rng(42, n, index))["graph"])
        if contraction.image_count:
            cases.append(contraction.kept)
    rng = np.random.default_rng(n)
    cases += [_keep(game, _surviving_pairs(game, rng)) for _ in range(3)]
    cases += [None, np.array([0 not in qa for qa, _, _ in game.pairs]), np.array([1 not in qb for _, qb, _ in game.pairs])]
    return game, cases


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("starts", [1, 4])
# after 3 sweeps the starts still differ, so every row's own path shows
@pytest.mark.parametrize("sweeps", [3, 200])
def test_batched_restrictions_match_scalar_kernel(n, starts, sweeps):
    # at depth 1 a sweep is two block steps, at depth 2 one step per key;
    # each row is checked against the scalar oracle objective
    for depth in (1, 2):
        _check_batched_rows(n, starts, sweeps, depth)


def _values(forms, rows, angles):
    """Every row's objective at the per-side angles of an ascent."""
    r1 = np.ones((len(forms.ends[0]) + 1, len(rows)))
    r1[:-1] = np.cos(angles[0][forms.ends[0]] + angles[1][forms.ends[1]])
    return _forms(forms.A[..., rows], r1)


def _check_batched_rows(n, starts, sweeps, depth):
    game, cases = _restrictions(n, depth)
    canonical = canonical_odd_cycle_strategy(n)
    inits = [(dict(canonical.alice_angles), dict(canonical.bob_angles))]
    seeds = [101 + i for i in range(len(cases))]
    forms = _AngleForms(game, cases)
    rows = np.repeat(np.arange(len(cases)), starts)
    batched = _ascend(forms, rows, forms.starts(seeds, starts, inits), sweeps)
    values = _values(forms, rows, batched)
    for row, i in enumerate(rows.tolist()):
        keep, strategy = _kept_pairs(game, cases[i]), forms.strategy(i, [side[:, row] for side in batched])
        # the strategy tabulates exactly the coordinates that the kept pairs ask
        kept = [(qa, qb) for qa, qb, _ in game.pairs] if keep is None else keep
        assert [set(strategy.alice_angles), set(strategy.bob_angles)] == [{x for q in qs for x in q} for qs in zip(*kept)]
        objective = angle_objective(game, strategy.alice_angles, strategy.bob_angles, keep)
        assert abs(objective - values[row]) < 1e-12
    # a restriction's rows do not see the other restrictions of the batch
    reverse = _AngleForms(game, cases[::-1])
    back = _ascend(reverse, rows, reverse.starts(seeds[::-1], starts, inits), sweeps)
    for side, want in zip(back, batched):
        assert (side.reshape(len(side), -1, starts)[:, ::-1].reshape(side.shape) == want).all()


def _block_sizes(forms):
    return [(side, keys.stop - keys.start) for (side, keys, *_), _ in forms.blocks]


@pytest.mark.parametrize(
    "game",
    [make_odd_cycle_game(3, 1), make_odd_cycle_game(15, 1), make_chsh_game(1)],
    ids=["odd-cycle-n3", "odd-cycle-n15", "chsh"],
)
def test_depth_one_sides_are_single_blocks(game):
    # Q = 0: no key's update changes another key's profile
    forms = _AngleForms(game, [None])
    assert _block_sizes(forms) == [(0, len(forms.keys[0])), (1, len(forms.keys[1]))]


@pytest.mark.parametrize("n", [3, 5])
def test_depth_two_keys_are_single_blocks(n):
    game, cases = _restrictions(n)
    for restrictions in ([None], cases):
        forms = _AngleForms(game, restrictions)
        assert _block_sizes(forms) == [(0, 1)] * n + [(1, 1)] * n


def test_depth_one_sweep_maximizes_once_per_block(monkeypatch):
    forms = _AngleForms(make_odd_cycle_game(15, 1), [None])
    calls = []
    real = quantum._maximize_profiles
    monkeypatch.setattr(quantum, "_maximize_profiles", lambda *a: calls.append(len(a[0])) or real(*a))
    sweeps, rows = 3, np.zeros(8, dtype=int)
    _ascend(forms, rows, forms.starts([0], 8, None), sweeps)
    assert calls == [15 * 8] * (2 * sweeps)


def test_ascents_leave_their_starts_unchanged():
    game, cases = _restrictions(3)
    forms = _AngleForms(game, cases)
    rows = np.repeat(np.arange(len(cases)), 4)
    start = forms.starts(list(range(len(cases))), 4, None)
    kept = [a.copy() for a in start]
    forms.A = None  # the ascent reads only the blocks' profiles, never the objective
    _ascend(forms, rows, start, 3)
    assert all((a == b).all() for a, b in zip(start, kept))


def test_batch_size_does_not_change_restriction_values():
    # a batch of many restrictions and one of two agree on the shared ones
    game, cases = _restrictions(3)
    seeds = list(range(len(cases)))
    batched = optimize_restrictions(game, cases, seeds, starts=4)
    few = optimize_restrictions(game, cases[:2], seeds[:2], starts=4)
    for got, want in zip(batched, few):
        assert abs(got["value"] - want["value"]) < 1e-12
    with pytest.raises(QuantumError):
        optimize_restrictions(game, cases, seeds[1:])
    with pytest.raises(QuantumError):
        optimize_restrictions(game, [np.zeros(len(game.pairs), dtype=bool)] * 8, [0] * 8, starts=4)
    # a restriction given as its pairs rather than as a keep-mask
    with pytest.raises(QuantumError, match="keep-mask"):
        optimize_restrictions(game, [_kept_pairs(game, cases[0])], [0])


def test_first_best_start_wins(monkeypatch):
    # an ascent that does nothing hands the starts to the polish: the
    # canonical tables C and -C climb to bit-identical values (cos is even,
    # every step is mirrored), above all-zero angles, a critical point
    game = make_odd_cycle_game(3, 2)
    canonical = canonical_odd_cycle_strategy(3)
    tables = (canonical.alice_angles, canonical.bob_angles)
    plus, minus = tables, tuple({q: -a for q, a in t.items()} for t in tables)
    zero = tuple(dict.fromkeys(t, 0.0) for t in tables)
    monkeypatch.setattr(quantum, "_ascend", lambda forms, rows, angles, sweeps: angles)
    picked = optimize_restrictions(game, [None, None], [5, 6], starts=4, inits=[zero, zero, minus, plus])
    flipped = optimize_restrictions(game, [None], [5], starts=4, inits=[zero, plus, minus, zero])[0]
    low = win_probability(game, QubitStrategy(bell_phase_state(), *zero))
    assert picked[0]["value"] == picked[1]["value"] == flipped["value"] > low
    for got, want in ((picked[0], minus), (picked[1], minus), (flipped, plus)):
        assert max(abs(got["strategy"].alice_angles[q] - a) for q, a in want[0].items()) < 1e-6


def test_no_start_is_rejected():
    game = make_odd_cycle_game(3, 1)
    for starts in (0, -1):
        with pytest.raises(QuantumError, match="starts must be at least 1"):
            optimize_angles(game, starts=starts)
    # an init is a start
    canonical = canonical_odd_cycle_strategy(3)
    inits = [(dict(canonical.alice_angles), dict(canonical.bob_angles))]
    assert optimize_angles(game, starts=0, inits=inits)["starts"] == 1


def test_bench_config_runs_one_round_per_n(monkeypatch):
    # the estimator's batches on the seed-42 bench job: n = 3, 5 with 60
    # samples; from the canonical start every row settles in its first round
    calls = []
    ascend, polish = quantum._ascend, quantum._polish

    def polished(forms, rows, angles):
        values, angles, settled = polish(forms, rows, angles)
        calls.append(("_polish", settled))
        return values, angles, settled

    monkeypatch.setattr(quantum, "_ascend", lambda *args: calls.append(("_ascend",)) or ascend(*args))
    monkeypatch.setattr(quantum, "_polish", polished)
    experiments.estimate_events(ExperimentConfig(n_values=(3, 5), samples=60, seed=42, foam_samples=1))
    assert [call[0] for call in calls] == ["_ascend", "_polish"] * 2
    assert all(settled.all() for _, settled in calls[1::2])


def test_later_rounds_raise_a_lone_random_start(monkeypatch):
    # one random start per restriction and no inits: rows still climbing
    # after their first round run again, and the later rounds raise them
    game, cases = _restrictions(5)
    seeds = list(range(len(cases)))
    rounds = optimize_restrictions(game, cases, seeds, starts=1)
    monkeypatch.setattr(quantum, "MAX_SWEEPS", quantum.POLISH_AFTER)
    one_round = optimize_restrictions(game, cases, seeds, starts=1)
    gains = [later["value"] - first["value"] for later, first in zip(rounds, one_round)]
    assert min(gains) >= -1e-12 and max(gains) > 0.01


def test_starts_without_random_ones_build_no_generator(monkeypatch):
    game, cases = _restrictions(3)
    canonical = canonical_odd_cycle_strategy(3)
    inits = [(dict(canonical.alice_angles), dict(canonical.bob_angles))]
    forms = _AngleForms(game, cases)
    monkeypatch.setattr(np.random, "default_rng", None)
    angles = forms.starts(list(range(len(cases))), 1, inits)
    assert all(side.shape[1] == len(cases) for side in angles)
    with pytest.raises(TypeError):
        forms.starts(list(range(len(cases))), 2, inits)


@pytest.mark.parametrize("shift, rounds", [(-1.0, 1), (1.0, 2)], ids=["below-best", "best"])
def test_only_a_restrictions_best_start_runs_again(monkeypatch, shift, rounds):
    # the first polish reports every row settled but start 0 of restriction
    # 0, moved below (or above) the restriction's other starts, all in
    # [0, 1]: only a start that holds the best value runs another round
    game, cases = _restrictions(3)
    polish, calls = quantum._polish, []

    def one_unsettled(forms, rows, angles):
        values, angles, settled = polish(forms, rows, angles)
        settled[:] = True
        if len(calls) == 1:
            values[0] += shift
            settled[0] = False
        return values, angles, settled

    real = quantum._ascend
    monkeypatch.setattr(quantum, "_ascend", lambda *args: calls.append(len(args[1])) or real(*args))
    monkeypatch.setattr(quantum, "_polish", one_unsettled)
    optimize_restrictions(game, cases[:3], [0, 1, 2], starts=4)
    assert calls == [12, 1][:rounds]


@pytest.mark.parametrize("depth", [1, 2])
def test_derivatives_match_central_differences(depth):
    game = make_odd_cycle_game(5, depth)
    rng = np.random.default_rng(depth)
    forms = _AngleForms(game, [_keep(game, _surviving_pairs(game, rng)), None])
    split, K = len(forms.keys[0]), sum(len(ks) for ks in forms.keys)

    def at(x):
        u = np.exp(1j * x[forms.ends[0]]) * np.exp(1j * x[split + forms.ends[1]])
        return u, np.vstack([u.real, np.ones((1, x.shape[1]))])

    x = rng.uniform(0, 2 * math.pi, (K, 2))
    gradient, hessian = _derivatives(forms, forms.A, *at(x))
    h, eye = 1e-4, np.eye(K)[:, :, None]

    def f(dx):
        return _forms(forms.A, at(x + dx)[1])

    for k in range(K):
        assert np.abs((f(h * eye[k]) - f(-h * eye[k])) / (2 * h) - gradient[k]).max() < 1e-7
        for j in range(K):
            step = [f(h * (sk * eye[k] + sj * eye[j])) for sk in (1, -1) for sj in (1, -1)]
            assert np.abs((step[0] - step[1] - step[2] + step[3]) / (4 * h * h) - hessian[k, j]).max() < 1e-6


def test_gauge_fixing_removes_exactly_the_null_directions():
    # the depth-1 game's edges form one cycle over the keys; cutting two of
    # its pairs leaves two paths, each with its own gauge alpha + c, beta - c
    game = make_odd_cycle_game(5, 1)
    pairs = sorted((qa, qb) for qa, qb, _ in game.pairs)
    cases = [None, _keep(game, pairs[1:4] + pairs[5:])]
    forms = _AngleForms(game, cases)
    present = np.concatenate(forms.present)
    assert ((forms.fixed & present).sum(axis=0) == [1, 2]).all()
    assert (forms.fixed | present).all()
    split = len(forms.keys[0])
    tables = [(r["strategy"].alice_angles, r["strategy"].bob_angles) for r in optimize_restrictions(game, cases, [0, 1], starts=2)]
    x = np.array([[t.get(q, 0.0) for t, ks in zip(row, forms.keys) for q in ks] for row in tables]).T
    u = np.exp(1j * x[forms.ends[0]]) * np.exp(1j * x[split + forms.ends[1]])
    hessian = _derivatives(forms, forms.A, u, np.vstack([u.real, np.ones((1, 2))]))[1]
    for i in range(2):
        on, free = present[:, i], present[:, i] & ~forms.fixed[:, i]
        eigenvalues = np.linalg.eigvalsh(hessian[..., i][np.ix_(on, on)])
        assert (np.abs(eigenvalues) < 1e-12).sum() == (forms.fixed & present)[:, i].sum()
        assert np.linalg.eigvalsh(hessian[..., i][np.ix_(free, free)]).max() < -1e-3


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("depth", [1, 2])
def test_gauge_fixed_keys_match_connected_components(n, depth):
    # a key is held still exactly when its restriction does not ask it or
    # it is the smallest key of its component of the kept pairs' legs
    game, cases = _restrictions(n, depth)
    forms = _AngleForms(game, cases)
    index = [{q: k for k, q in enumerate(ks)} for ks in forms.keys]
    split, n_keys = len(forms.keys[0]), len(forms.fixed)
    for i, keep in enumerate(cases):
        pairs = [p[:2] for p in game.pairs] if keep is None else _kept_pairs(game, keep)
        legs = [(index[0][qa[j]], split + index[1][qb[j]]) for qa, qb in pairs for j in range(depth)]
        a, b = np.array(legs).T
        graph = scipy.sparse.coo_matrix((np.ones(len(a)), (a, b)), shape=(n_keys, n_keys))
        _, component = scipy.sparse.csgraph.connected_components(graph, directed=False)
        asked = np.zeros(n_keys, dtype=bool)
        asked[a] = asked[b] = True
        smallest = np.array([k == np.flatnonzero(component == component[k])[0] for k in range(n_keys)])
        assert forms.fixed[:, i].tolist() == (~asked | smallest).tolist()
        assert (asked == np.concatenate(forms.present)[:, i]).all()


def test_cholesky_solve_matches_numpy():
    rng = np.random.default_rng(3)
    K, R = 7, 40
    M = rng.normal(size=(R, K, K))
    H = -np.einsum("rik,rjk->rij", M, M) - 0.1 * np.eye(K)  # negative definite
    H[::3] += 3.0 * np.eye(K)  # every third row not
    g = rng.normal(size=(R, K))
    ok, x = _solve_negative_definite(np.moveaxis(H, 0, -1).copy(), g.T.copy())
    assert ok.tolist() == (np.linalg.eigvalsh(H).max(axis=1) < 0).tolist() and (~ok).any()
    assert np.abs(x.T[ok] - np.linalg.solve(-H[ok], g[ok, :, None])[..., 0]).max() < 1e-9


def _definite_stack(K: int, R: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(R, K, K))
    return -np.einsum("rik,rjk->rij", M, M) - 0.1 * np.eye(K), rng.normal(size=(R, K))


def test_cholesky_solve_all_definite_takes_the_stacked_path(monkeypatch):
    H, g = _definite_stack(30, 61, 4)
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(m.shape) or cholesky(m))
    ok, x = _solve_negative_definite(np.moveaxis(H, 0, -1).copy(), g.T.copy())
    assert ok.all() and calls == [(61, 30, 30)]
    assert np.abs(x.T - np.linalg.solve(-H, g[..., None])[..., 0]).max() < 1e-9


@pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "upper"])
def test_cholesky_solve_nan_row_is_not_definite(where):
    H, g = _definite_stack(6, 9, 5)
    i, j = {"diagonal": (2, 2), "off-diagonal": (4, 1), "upper": (1, 4)}[where]
    H[3, i, j] = np.nan
    ok, x = _solve_negative_definite(np.moveaxis(H, 0, -1).copy(), g.T.copy())
    assert ok.tolist() == [r != 3 for r in range(9)]
    assert np.isfinite(x).all()
    assert np.abs(x.T[ok] - np.linalg.solve(-H[ok], g[ok, :, None])[..., 0]).max() < 1e-9


@pytest.mark.parametrize("n", range(3, 28, 2))
def test_polished_depth_one_value_is_cos_squared(n):
    # Cleve, Hoyer, Toner and Watrous 2004
    assert abs(optimize_angles(make_odd_cycle_game(n, 1))["value"] - math.cos(math.pi / (4 * n)) ** 2) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 7])
def test_polished_depth_two_value_is_cos_fourth(n):
    # perfect parallel repetition: Cleve, Slofstra, Unger and Upadhyay 2008
    assert abs(optimize_angles(make_odd_cycle_game(n, 2))["value"] - math.cos(math.pi / (4 * n)) ** 4) < 1e-12


def _bench_calls(monkeypatch) -> list:
    """(args, kwargs, results) of each optimize_restrictions call of the
    estimator on the seed-42 bench job: n = 3, 5 with 60 samples, the full
    game and each sample in one call per n."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs, optimize_restrictions(*args, **kwargs)))
        return calls[-1][-1]

    monkeypatch.setattr(experiments, "optimize_restrictions", record)
    experiments.estimate_events(ExperimentConfig(n_values=(3, 5), samples=60, seed=42, foam_samples=1))
    assert [len(args[1]) for args, _, _ in calls] == [61, 61]
    return calls


def test_polish_never_ends_below_the_plain_ascent(monkeypatch):
    # the plain ascent runs optimize_restrictions' MAX_SWEEPS sweeps
    for (game, restrictions), kwargs, results in _bench_calls(monkeypatch):
        starts, forms = kwargs["starts"], _AngleForms(game, restrictions)
        rows = np.repeat(np.arange(len(restrictions)), starts)
        plain = _values(forms, rows, _ascend(forms, rows, forms.starts(None, starts, kwargs["inits"]), quantum.MAX_SWEEPS))
        assert (np.array([r["value"] for r in results]) >= plain.reshape(-1, starts).max(axis=1) - 1e-12).all()


def test_short_rounds_lose_nothing_against_long_rounds(monkeypatch):
    # the full and every restricted value after rounds of POLISH_AFTER
    # sweeps are no lower than after rounds of 20
    calls = _bench_calls(monkeypatch)
    assert quantum.POLISH_AFTER < 20
    monkeypatch.setattr(quantum, "POLISH_AFTER", 20)
    for args, kwargs, results in calls:
        long_rounds = optimize_restrictions(*args, **kwargs)
        for short, long in zip(results, long_rounds):
            assert short["value"] >= long["value"] - 1e-12


def test_one_canonical_start_loses_nothing_against_four_starts(monkeypatch):
    # the estimator's one canonical start against four starts: the
    # canonical one and three random ones, seeded by the config seed for
    # the full game and by one draw after each sample's graph
    law = ExperimentConfig().removal_law
    for (game, restrictions), kwargs, results in _bench_calls(monkeypatch):
        assert kwargs["starts"] == 1
        seeds = [42]
        for index in range(60):
            rng = _sample_rng(42, game.n, index)
            sample_torical_graph(game.n, 2, law, rng)
            seeds.append(int(rng.integers(0, 2**31)))
        four = optimize_restrictions(game, restrictions, seeds, starts=4, inits=kwargs["inits"])
        for one, old in zip(results, four):
            assert one["value"] >= old["value"] - 1e-12


@pytest.mark.parametrize("n", [3, 5])
def test_polished_rows_do_not_see_the_other_restrictions(n):
    game, cases = _restrictions(n)
    seeds = [101 + i for i in range(len(cases))]
    forward = optimize_restrictions(game, cases, seeds, starts=4)
    backward = optimize_restrictions(game, cases[::-1], seeds[::-1], starts=4)[::-1]
    for got, want in zip(backward, forward):
        assert got["value"] == want["value"]
        assert got["strategy"].to_json() == want["strategy"].to_json()
    # alone, each restriction's 4 rows are a batch of their own: the
    # polish ends both on the same maximum
    for i, (keep, seed) in enumerate(zip(cases, seeds)):
        alone = optimize_restrictions(game, [keep], [seed], starts=4)[0]
        assert abs(alone["value"] - forward[i]["value"]) < 1e-12


@pytest.mark.parametrize("sweeps", [3, 20, 45, 200])
def test_no_row_runs_more_than_sweeps_coordinate_sweeps(monkeypatch, sweeps):
    game, cases = _restrictions(5)
    budgets = []
    real, polish = quantum._ascend, quantum._polish

    def never_settled(forms, rows, angles):
        # every round gains 1 and settles no row, so rounds run up to the cap
        values, angles, settled = polish(forms, rows, angles)
        return values + len(budgets), angles, np.zeros_like(settled)

    monkeypatch.setattr(quantum, "_ascend", lambda f, r, a, s: budgets.append(s) or real(f, r, a, s))
    monkeypatch.setattr(quantum, "_polish", never_settled)
    monkeypatch.setattr(quantum, "MAX_SWEEPS", sweeps)
    optimize_restrictions(game, cases, list(range(len(cases))), starts=4)
    # each call of the ascent caps the sweeps of every row it is given
    assert budgets[0] == min(sweeps, quantum.POLISH_AFTER) and max(budgets) <= quantum.POLISH_AFTER
    assert sum(budgets) == sweeps


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
