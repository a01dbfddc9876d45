import functools
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcycle import games
from oddcycle.games import (
    BudgetExceeded,
    DeterministicStrategy,
    GameError,
    GameSpec,
    StrategyError,
    _SearchBatch,
    _best_response_bob,
    _search_rows,
    classical_value_exact,
    classical_value_search,
    evaluate_strategy,
    make_chsh_game,
    make_odd_cycle_game,
    random_strategy,
    repetition_decay_check,
    strategy_from_coordinate_rule,
    strategy_power,
    wedge_witness,
)
from oddcycle.regions import value_via_regions

from oracles import best_response_won, brute_force_value, exhaustive_witness, local_search_reference


def xmod2(game):
    return strategy_from_coordinate_rule(game, lambda x: x % 2)


def test_odd_cycle_shape_n3():
    g = make_odd_cycle_game(3, 1)
    assert len(g.alice_questions) == 3
    assert len(g.bob_questions) == 3
    assert len(g.pairs) == 6
    assert all(w == Fraction(1, 6) for _, _, w in g.pairs)
    assert g.weight_total() == 1


def test_odd_cycle_shape_depth2():
    g = make_odd_cycle_game(3, 2)
    assert len(g.alice_questions) == 9
    assert g.answers_per_question == 4
    assert g.weight_total() == 1


def test_odd_cycle_rejects_bad_input():
    with pytest.raises(GameError):
        make_odd_cycle_game(4)
    with pytest.raises(GameError):
        make_odd_cycle_game(1)
    with pytest.raises(GameError):
        make_odd_cycle_game(3, 0)


def test_xmod2_value_is_five_sixths():
    # hand enumeration: of the 6 (x, t) draws only (x=2, t=1) loses
    g = make_odd_cycle_game(3, 1)
    assert evaluate_strategy(g, xmod2(g)) == Fraction(5, 6)


def test_chsh_shape_and_constant_strategy():
    g = make_chsh_game(1)
    assert len(g.pairs) == 4
    zeros = DeterministicStrategy({q: 0 for q in g.alice_questions}, {q: 0 for q in g.bob_questions})
    # wins exactly on the three pairs with x AND y == 0
    assert evaluate_strategy(g, zeros) == Fraction(3, 4)
    g2 = make_chsh_game(2)
    assert len(g2.pairs) == 16
    assert all(w == Fraction(1, 16) for _, _, w in g2.pairs)


def test_chsh_identity_delta_matches_plain():
    plain = make_chsh_game(2)
    twisted = make_chsh_game(2, {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0})
    assert plain.pairs == twisted.pairs
    assert plain.targets == twisted.targets


def test_chsh_delta_flip_changes_targets():
    flipped = make_chsh_game(1, {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1})
    # the (1,1) pair target becomes 0: constant answers now win everywhere
    zeros = DeterministicStrategy(
        {q: 0 for q in flipped.alice_questions}, {q: 0 for q in flipped.bob_questions}
    )
    assert evaluate_strategy(flipped, zeros) == 1


def test_chsh_malformed_delta():
    with pytest.raises(GameError):
        make_chsh_game(1, {(0, 0): 0})
    with pytest.raises(GameError):
        make_chsh_game(1, {(0, 0): 2, (0, 1): 0, (1, 0): 0, (1, 1): 0})


def test_always_win_targets_give_value_one():
    g = make_odd_cycle_game(3, 1)
    always = GameSpec(
        g.kind, g.n, g.depth, g.alice_questions, g.bob_questions, g.pairs, tuple(0 for _ in g.targets)
    )
    zeros = DeterministicStrategy(
        {q: 0 for q in g.alice_questions}, {q: 0 for q in g.bob_questions}
    )
    assert evaluate_strategy(always, zeros) == 1


def test_missing_table_entry_raises():
    g = make_odd_cycle_game(3, 1)
    s = xmod2(g)
    del s.alice_table[(0,)]
    with pytest.raises(StrategyError):
        evaluate_strategy(g, s)


def test_exact_values_single_shot():
    for n in (3, 5, 7):
        report = classical_value_exact(make_odd_cycle_game(n, 1), mode="full")
        assert report.exact == Fraction(2 * n - 1, 2 * n)
        assert report.method == "exhaustive"
        # the witness attains the value exactly
        assert evaluate_strategy(make_odd_cycle_game(n, 1), report.witness) == report.exact


def test_full_matches_brute_force_oracle():
    g = make_odd_cycle_game(3, 1)
    assert classical_value_exact(g, mode="full").exact == brute_force_value(g)
    c = make_chsh_game(1)
    assert classical_value_exact(c, mode="full").exact == brute_force_value(c)


def test_best_response_agrees_with_full():
    for game in (
        make_odd_cycle_game(3, 1),
        make_odd_cycle_game(5, 1),
        make_chsh_game(1),
        make_chsh_game(2),
    ):
        assert classical_value_exact(game).exact == classical_value_exact(game, mode="full").exact


CHSH_DELTA_KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize(
    "game",
    [make_chsh_game(2, dict(zip(CHSH_DELTA_KEYS, bits))) for bits in product((0, 1), repeat=4)]
    + [make_odd_cycle_game(n, 1) for n in (3, 5, 7)],
)
@pytest.mark.parametrize("block_cells", [1, games.EXHAUSTIVE_BLOCK_CELLS], ids=["row-blocks", "default-blocks"])
def test_exhaustive_matches_witness_oracle(game, block_cells, monkeypatch):
    monkeypatch.setattr(games, "EXHAUSTIVE_BLOCK_CELLS", block_cells)
    report = classical_value_exact(game)
    value, alice_table = exhaustive_witness(game)
    assert report.exact == value
    assert report.witness.alice_table == alice_table
    assert evaluate_strategy(game, report.witness) == value


ORBIT_GAMES = [make_chsh_game(2, dict(zip(CHSH_DELTA_KEYS, bits))) for bits in product((0, 1), repeat=4)] + [
    make_odd_cycle_game(3, 1),
    make_odd_cycle_game(3, 2),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shift_orbit_wins_the_same_count(data):
    # the exhaustive engine scores one Alice table per orbit {T ^ c}: every
    # member must win the same count against its best response
    game = data.draw(st.sampled_from(ORBIT_GAMES))
    k, nx = game.answers_per_question, len(game.alice_questions)
    answers = data.draw(st.lists(st.integers(0, k - 1), min_size=nx, max_size=nx))
    table = dict(zip(game.alice_questions, answers))
    won = best_response_won(game, table)
    for c in range(k):
        assert best_response_won(game, {q: a ^ c for q, a in table.items()}) == won


@pytest.mark.parametrize(
    "game, value, alice, bob",
    [
        (make_chsh_game(3), Fraction(31, 64), [1, 5, 3, 0, 0, 0, 0, 0], [0, 4, 2, 1, 1, 1, 1, 1]),
        (make_odd_cycle_game(3, 2), Fraction(3, 4), [3, 3, 1, 3, 1, 0, 2, 0, 0], [3, 1, 1, 2, 1, 0, 2, 0, 2]),
    ],
    ids=["chsh-3", "odd-cycle-3-2"],
)
@pytest.mark.parametrize("block_cells", [1, games.EXHAUSTIVE_BLOCK_CELLS], ids=["row-blocks", "default-blocks"])
def test_exhaustive_reports_pinned(game, value, alice, bob, block_cells, monkeypatch):
    # beyond the oracles' reach: the value, witness and evaluation count
    # of a scan over every Alice table, in question order
    monkeypatch.setattr(games, "EXHAUSTIVE_BLOCK_CELLS", block_cells)
    report = classical_value_exact(game)
    assert report.exact == value
    assert [report.witness.alice_table[q] for q in game.alice_questions] == alice
    assert [report.witness.bob_table[q] for q in game.bob_questions] == bob
    assert report.evaluations == game.answers_per_question ** len(game.alice_questions)


def test_bob_fan_in_uniform_and_checked():
    for game, fan_in in ((make_odd_cycle_game(5, 2), 4), (make_chsh_game(3), 8)):
        xs, ts = game.bob_fan_in()
        assert xs.shape == ts.shape == (len(game.bob_questions), fan_in)
    g = make_odd_cycle_game(3, 1)
    ragged = GameSpec(g.kind, g.n, g.depth, g.alice_questions, g.bob_questions, g.pairs[1:], g.targets[1:])
    with pytest.raises(GameError, match="not uniform"):
        classical_value_exact(ragged)
    doubled = GameSpec(g.kind, g.n, g.depth, g.alice_questions, g.bob_questions, g.pairs * 2, g.targets * 2)
    with pytest.raises(GameError, match="repeat"):
        classical_value_search(doubled)


@pytest.mark.parametrize("game", [make_odd_cycle_game(5, 2), make_chsh_game(3)], ids=["odd-cycle-5-2", "chsh-3"])
def test_search_batch_tracks_recount(game):
    rng = np.random.default_rng(11)
    k = game.answers_per_question
    questions = game.alice_questions
    assert game.alice_fan_out() is game.alice_fan_out()  # built once per game
    batch = _SearchBatch(game, rng.integers(0, k, size=(3, len(questions))))
    for step in range(3 * len(questions)):
        x = step % len(questions)
        tables = [dict(zip(questions, row)) for row in batch.alice.T.tolist()]
        before = [_best_response_bob(game, table)[1] for table in tables]
        deltas = batch.step(x).tolist()
        for r, table in enumerate(tables):
            wants = [_best_response_bob(game, {**table, questions[x]: b})[1] - before[r] for b in range(k)]
            assert deltas[r] == wants
            moved = wants.index(max(wants)) if max(wants) > 0 else table[questions[x]]
            assert batch.alice[x, r] == moved
            after = dict(zip(questions, batch.alice[:, r].tolist()))
            assert batch.total[r] == _best_response_bob(game, after)[1] == best_response_won(game, after)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_search_table_draws_match_scalar_draws(k):
    # the search draws its restarts' tables in row batches; the stream must
    # equal one scalar draw per Alice question, restart after restart
    scalar, chunked = np.random.default_rng(3), np.random.default_rng(3)
    rows = [[int(scalar.integers(0, k)) for _ in range(7)] for _ in range(7)]
    drawn = [chunked.integers(0, k, size=(size, 7)).tolist() for size in (1, 2, 4)]
    assert sum(drawn, []) == rows


@pytest.mark.parametrize("game", [make_odd_cycle_game(5, 2), make_chsh_game(2)], ids=["odd-cycle-5-2", "chsh-2"])
def test_search_rows_drop_only_rows_past_the_budget(game):
    # a row is reached when the rows before it run at most `budget` steps
    # in all; a budget drops the rows past it and leaves the others alone
    tables = np.random.default_rng(8).integers(0, game.answers_per_question, size=(40, len(game.alice_questions)))
    full = _search_rows(game, tables, 4)
    before = np.cumsum(full[1]) - full[1]
    for budget in (0, 1, int(before[5]), int(before[5]) - 1, int(before[20]) + 7):
        cut = _search_rows(game, tables, 4, budget=budget)
        reached = before <= budget
        for want, got in zip(full, cut):
            assert (want[reached] == got[reached]).all()
        assert (cut[1][~reached] < full[1][~reached]).any()


SEARCH_GAMES = {
    "odd-cycle-3-1": make_odd_cycle_game(3, 1),
    "odd-cycle-3-2": make_odd_cycle_game(3, 2),
    "odd-cycle-5-2": make_odd_cycle_game(5, 2),
    "chsh-2": make_chsh_game(2),
    "chsh-3": make_chsh_game(3),
}


@functools.lru_cache(maxsize=None)
def _search_probe(name):
    """The seed-0 reference trajectory through two restarts and into the
    third restart's row."""
    game = SEARCH_GAMES[name]
    nx = len(game.alice_questions)
    ref = local_search_reference(game, 0, 13 * nx + 1)
    assert len(ref["restarts"]) >= 2 and ref["restarts"][1] + nx + 3 <= ref["evaluations"]
    return ref


@functools.lru_cache(maxsize=None)
def _reference_loop(game, iterations, target):
    return local_search_reference(game, 0, iterations, target=target)


def _assert_search_matches_reference(game, iterations, target):
    report = classical_value_search(game, seed=0, iterations=iterations, target=target)
    ref = _reference_loop(game, iterations, target)
    weight = game.pairs[0][2]
    assert report.exact == ref["won"] * weight
    assert report.witness.alice_table == ref["alice"]
    assert report.witness.bob_table == ref["bob"]
    assert report.evaluations == ref["evaluations"]
    assert report.notes == {"lower_bound_only": True, "seed": 0, "initial_value": float(ref["initial_won"] * weight)}
    return ref


SEARCH_BUDGETS = ["1", "2", "nx", "nx+1", "first-restart", "second-restart", "mid-row"]
SEARCH_TARGETS = ["initial", "mid-row", "never"]


@pytest.mark.parametrize("budget", SEARCH_BUDGETS)
@pytest.mark.parametrize("name", list(SEARCH_GAMES))
def test_search_matches_reference_loop_on_budgets(name, budget):
    _check_search_budget(name, budget)


def _check_search_budget(name, budget):
    game = SEARCH_GAMES[name]
    nx = len(game.alice_questions)
    restarts = _search_probe(name)["restarts"]
    iterations = {
        "1": 1,
        "2": 2,
        "nx": nx,
        "nx+1": nx + 1,
        "first-restart": restarts[0],
        "second-restart": restarts[1],
        "mid-row": restarts[1] + nx + 3,
    }[budget]
    ref = _assert_search_matches_reference(game, iterations, None)
    assert ref["evaluations"] == iterations
    assert ref["restarts"] == [r for r in restarts if r <= iterations]


def test_search_scores_the_table_drawn_on_the_last_iteration():
    # a random XOR game on four questions whose seed-0 search stalls below
    # the table its second restart draws: a budget ending on that restart
    # must still score the fresh table
    targets = np.random.default_rng(74).integers(0, 4, size=16).tolist()
    questions = tuple((i,) for i in range(4))
    pairs = tuple((qa, qb, Fraction(1, 16)) for qa in questions for qb in questions)
    game = GameSpec("xor", 4, 2, questions, questions, pairs, tuple(targets))
    probe = local_search_reference(game, 0, 60)
    restart = next(r for r in probe["restarts"] if probe["history"][r - 1] > probe["history"][r - 2])
    assert _assert_search_matches_reference(game, restart, None)["won"] == probe["history"][restart - 1]


@pytest.mark.parametrize(
    "name, reached",
    [(name, reached) for name in SEARCH_GAMES for reached in SEARCH_TARGETS] + [("odd-cycle-5-2", "later-row")],
)
def test_search_matches_reference_loop_on_targets(name, reached):
    _check_search_target(name, reached)


def _check_search_target(name, reached):
    game = SEARCH_GAMES[name]
    nx = len(game.alice_questions)
    probe = _search_probe(name)
    history, restart = probe["history"], probe["restarts"][0]
    won = {
        "initial": probe["initial_won"],
        "mid-row": history[restart - 2],  # the first restart's best, before the fresh table
        "later-row": max(history),
        "never": max(history) + 1,
    }[reached]
    iterations = restart + nx + 3 if reached == "never" else probe["evaluations"]
    ref = _assert_search_matches_reference(game, iterations, float(won * game.pairs[0][2]))
    stop = history.index(won) + 1 if won in history else iterations
    assert ref["evaluations"] == stop
    where = {"initial": stop == 1, "mid-row": 1 < stop < restart, "later-row": stop > restart, "never": True}
    assert where[reached]


@pytest.mark.parametrize("cap", [2, 4])
@pytest.mark.parametrize("name", list(SEARCH_GAMES))
def test_search_matches_reference_loop_across_batches(name, cap, monkeypatch):
    # batches of at most `cap` restarts, so the longer budgets span several
    monkeypatch.setattr(games, "SEARCH_MAX_ROWS", cap)
    for budget in SEARCH_BUDGETS:
        _check_search_budget(name, budget)
    for reached in SEARCH_TARGETS + (["later-row"] if name == "odd-cycle-5-2" else []):
        _check_search_target(name, reached)
    # the probe's whole budget, restart after restart, as in a long search
    probe = _search_probe(name)
    assert _assert_search_matches_reference(SEARCH_GAMES[name], probe["evaluations"], None)["won"] == max(probe["history"])


def test_targeted_search_matches_reference_over_growing_batches():
    # a target the search never reaches, over a budget whose restarts span
    # three of its growing batches (4, 8 and 16): the split must not show
    game = SEARCH_GAMES["chsh-2"]
    first = games.SEARCH_GOAL_FIRST_ROWS
    iterations = 8 * first * 4 * len(game.alice_questions)
    ref = _assert_search_matches_reference(game, iterations, 1.0)
    assert ref["evaluations"] == iterations
    assert len(ref["restarts"]) > 3 * first


def test_best_response_disagreement_raises(monkeypatch):
    honest = games._best_response_bob

    def off_by_one(game, alice_table):
        table, won = honest(game, alice_table)
        return table, won - 1

    monkeypatch.setattr(games, "_best_response_bob", off_by_one)
    with pytest.raises(GameError, match="best response"):
        classical_value_exact(make_odd_cycle_game(3, 1))


@pytest.mark.parametrize(
    "compute",
    [classical_value_exact, functools.partial(classical_value_search, iterations=200)],
    ids=["exhaustive", "search"],
)
def test_witness_rescored_pair_by_pair(compute, monkeypatch):
    honest = games._best_response_bob

    def flipped(game, alice_table):
        table, won = honest(game, alice_table)
        return {q: b ^ 1 for q, b in table.items()}, won

    monkeypatch.setattr(games, "_best_response_bob", flipped)
    with pytest.raises(GameError, match="pair by pair"):
        compute(make_odd_cycle_game(3, 1))


def test_full_mode_budget_refusal():
    with pytest.raises(BudgetExceeded, match="68719476736 strategy pairs exceeds the budget of 67108864"):
        classical_value_exact(make_odd_cycle_game(3, 2), mode="full")
    with pytest.raises(BudgetExceeded, match=f"{4**25} alice tables exceed the budget of 67108864"):
        classical_value_exact(make_odd_cycle_game(5, 2))


def test_tensor_power_product_strategy():
    g1 = make_odd_cycle_game(3, 1)
    g2 = make_odd_cycle_game(3, 2)
    s1 = xmod2(g1)
    s2 = strategy_power(s1, 2)
    assert evaluate_strategy(g2, s2) == evaluate_strategy(g1, s1) ** 2


def test_product_witness_supermultiplicativity():
    # repeated value >= single value squared, via the product witness
    g1 = make_odd_cycle_game(3, 1)
    g2 = make_odd_cycle_game(3, 2)
    single = classical_value_exact(g1, mode="full")
    power = strategy_power(single.witness, 2)
    assert evaluate_strategy(g2, power) == single.exact**2


def test_wedge_witness_value_agrees_with_regions_oracle():
    for n in range(3, 16, 2):
        game = make_odd_cycle_game(n, 2)
        witness = wedge_witness(game)
        value = evaluate_strategy(game, witness)
        assert value == value_via_regions(witness.alice_table, n, 2) == 1 - Fraction(3, 4 * n)


def test_wedge_witness_rejects_other_games():
    with pytest.raises(GameError, match="odd-cycle"):
        wedge_witness(make_chsh_game(2))


def test_wedge_witness_depth_one_and_three():
    # d = 1 is the x mod 2 strategy; at d = 3 the third bit is x2 mod 2, a
    # product strategy on a product game, so the values multiply
    for n in (3, 5, 7):
        game = make_odd_cycle_game(n, 1)
        assert wedge_witness(game) == xmod2(game)
    for n in (3, 5):
        game = make_odd_cycle_game(n, 3)
        value = evaluate_strategy(game, wedge_witness(game))
        assert value == (1 - Fraction(3, 4 * n)) * (1 - Fraction(1, 2 * n))


def test_search_deterministic_and_bounded():
    g = make_odd_cycle_game(3, 1)
    a = classical_value_search(g, seed=5, iterations=500)
    b = classical_value_search(g, seed=5, iterations=500)
    assert a.exact == b.exact
    assert a.witness.alice_table == b.witness.alice_table
    assert a.exact <= Fraction(5, 6)
    # reaches the optimum on the tiny instance
    assert a.exact == Fraction(5, 6)


def test_search_single_iteration_returns_initial():
    g = make_odd_cycle_game(5, 2)
    report = classical_value_search(g, seed=3, iterations=1)
    assert report.evaluations == 1
    assert report.value == report.notes["initial_value"]
    with pytest.raises(GameError):
        classical_value_search(g, iterations=0)
    with pytest.raises(GameError):
        classical_value_search(g, restart_after=0)
    with pytest.raises(GameError, match="NaN"):
        classical_value_search(g, target=float("nan"))


def test_search_value_is_achievable():
    g = make_odd_cycle_game(5, 2)
    report = classical_value_search(g, seed=1, iterations=2000)
    assert evaluate_strategy(g, report.witness) == report.exact


def test_random_strategy_evaluates():
    g = make_odd_cycle_game(5, 2)
    rng = np.random.default_rng(0)
    s = random_strategy(g, rng)
    value = evaluate_strategy(g, s)
    assert 0 <= value <= 1


def test_decay_check_examples():
    rec = repetition_decay_check(3, 2, 0.75)
    assert rec["gap"] == 0.25
    assert rec["in_regime"]
    assert abs(rec["bound_quantity"] - 2**0.5 / (3 * (np.log(2)) ** 0.5)) < 1e-12
    boundary = repetition_decay_check(3, 1, 0.9)
    assert boundary["bound_quantity"] is None
    assert "regime boundary" in boundary["note"]
    rec5 = repetition_decay_check(5, 2, 0.85)
    assert abs(rec5["gap"] - 0.15) < 1e-12


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.25, 1.5])
def test_decay_check_rejects_a_value_that_is_no_probability(value):
    with pytest.raises(GameError, match="probability"):
        repetition_decay_check(3, 2, value)


def test_game_serialization_round_trip():
    g = make_odd_cycle_game(3, 2)
    data = g.to_json()
    assert data["n"] == 3 and data["depth"] == 2
    assert len(data["weights"]) == len(g.pairs)
    s = xmod2(g)
    restored = DeterministicStrategy.from_json(s.to_json())
    assert restored.alice_table == s.alice_table
    assert restored.bob_table == s.bob_table


def test_value_report_serialization():
    g = make_odd_cycle_game(3, 1)
    report = classical_value_exact(g, mode="full")
    data = report.to_json()
    assert data["value"]["fraction"] == "5/6"
    assert data["method"] == "exhaustive"
    assert data["evaluations"] == 64
