import itertools
import pickle
from fractions import Fraction as F
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import identity_kernel
from eqaudit.games import (
    ActionwiseScheme,
    DeviationKernel,
    Game,
    JointDistribution,
    MarginalProfile,
    ProfilewiseScheme,
    payoff_numerators,
    product_distribution,
    replace,
    surplus,
    surplus_parts,
    surplus_table,
)


def test_utility_lookup(coordination):
    assert coordination.utility(0, (0, 0)) == 9
    assert coordination.utility(1, (1, 1)) == 1
    assert coordination.utility(0, (1, 2)) == 0


def test_utility_rejects_bad_indices(coordination):
    # -1 would otherwise read the last player's payoffs.
    for i in (-1, 2):
        with pytest.raises(ValueError, match=f"unknown player index {i}"):
            coordination.utility(i, (0, 0))
    with pytest.raises(ValueError):
        coordination.utility(0, (0, 3))
    with pytest.raises(ValueError):
        coordination.utility(0, (0,))


def test_action_index_rejects_an_unknown_player(coordination):
    assert coordination.action_index(0, "B") == 1
    assert coordination.action_index(1, "R") == 2
    # -1 would otherwise read the last player's actions.
    for i in (-1, 2):
        with pytest.raises(ValueError, match=f"unknown player index {i}"):
            coordination.action_index(i, "R")
    with pytest.raises(ValueError, match="unknown action 'R' for player 'P1'"):
        coordination.action_index(0, "R")


def test_payoff_numerators_reads_every_player(coordination, skewed_profile):
    table = payoff_numerators(coordination, skewed_profile)
    assert [[F(t, den) for t in totals] for totals, den in table] == [
        [F(9, 4), F(3, 4)],
        [F(9, 2), F(1, 2), F(0)],
    ]


@pytest.mark.parametrize(
    "profile",
    [(5, 0), (-1, 0), (0,), (0, 1, 0)],
    ids=["too-large", "negative", "short", "long"],
)
def test_profile_readers_reject_bad_profiles(coordination, profile):
    kernel = identity_kernel(coordination.shape)
    with pytest.raises(ValueError):
        surplus(coordination, kernel, profile)
    with pytest.raises(ValueError):
        coordination.profile_labels(profile)


def test_game_validation():
    with pytest.raises(ValueError):
        Game(("A",), (("x", "x"),), (("1", "2"),))
    with pytest.raises(ValueError):
        Game(("A",), ((),), ((),))
    with pytest.raises(ValueError):
        Game(("A", "B"), (("x",), ("y", "z")), (("1",), ("1", "2")))
    with pytest.raises(TypeError):
        Game(("A",), (("x",),), ((0.5,),))


@pytest.mark.parametrize(
    "profile",
    [(0,), (0, 1, 0), (0, 3), (2, 0), (-1, 0)],
    ids=["short", "long", "last-out-of-range", "first-out-of-range", "negative"],
)
def test_joint_indexing_rejects_bad_profiles(profile):
    q = JointDistribution((2, 3), (F(1, 6),) * 6)
    with pytest.raises(ValueError):
        q.prob(profile)
    with pytest.raises(ValueError):
        JointDistribution.point_mass((2, 3), profile)


@pytest.mark.parametrize(
    "shape, probs",
    [((-1, -1), [1]), ((0,), []), ((2, 0), []), ((-2, 3), [0] * 5 + [1])],
    ids=["both-negative", "zero", "one-zero", "negative-times-positive"],
)
def test_joint_distribution_rejects_non_positive_shape(shape, probs):
    # Each of these has as many entries as the product of its shape.
    with pytest.raises(ValueError, match="at least one action"):
        JointDistribution(shape, probs)


def test_marginal_of_point_mass():
    q = JointDistribution.point_mass((2, 3), (0, 0))
    assert q.marginal(1) == (F(1), F(0), F(0))
    for i in (-1, 2):  # -1 would otherwise read the last player's marginal
        with pytest.raises(ValueError, match=f"unknown player index {i}"):
            q.marginal(i)


def test_marginal_of_diagonal():
    probs = [F(0)] * 6
    probs[0] = F(1, 2)  # (T,L)
    probs[4] = F(1, 2)  # (B,M)
    q = JointDistribution((2, 3), tuple(probs))
    assert q.marginal(0) == (F(1, 2), F(1, 2))


def test_marginal_of_uniform():
    q = JointDistribution((2, 3), (F(1, 6),) * 6)
    assert q.marginal(1) == (F(1, 3), F(1, 3), F(1, 3))


def test_product_distribution_point_mass():
    p = MarginalProfile(((F(1),), (F(1),)))
    q = product_distribution(p)
    assert q.probs == (F(1),)


def test_product_distribution_values():
    p = MarginalProfile(((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4), F(0))))
    q = product_distribution(p)
    assert q.prob((0, 1)) == F(3, 8)
    assert q.prob((1, 0)) == F(1, 8)
    assert q.prob((0, 2)) == 0 and q.prob((1, 2)) == 0

    p2 = MarginalProfile(((F(1, 10), F(9, 10)), (F(1, 10), F(9, 10), F(0))))
    assert product_distribution(p2).prob((1, 1)) == F(81, 100)


def test_surplus_tables(coordination, halfhalf_kernel, column_swap_kernel):
    # Values derived by hand from the definition: only the kernels' moved
    # columns contribute, everything else is an identity row.
    assert surplus_table(coordination, halfhalf_kernel) == (
        F(0), F(0), F(9, 2), F(0), F(0), F(1, 2),
    )
    assert surplus(coordination, halfhalf_kernel, (1, 0)) == 0
    assert surplus_table(coordination, column_swap_kernel) == (
        F(0), F(9), F(0), F(0), F(-1), F(0),
    )
    assert surplus(coordination, column_swap_kernel, (1, 1)) == -1


def test_identity_kernel_zero_surplus(coordination):
    kernel = identity_kernel(coordination.shape)
    assert set(surplus_table(coordination, kernel)) == {F(0)}


def test_kernel_validation():
    with pytest.raises(ValueError):
        DeviationKernel((((F(1, 2), F(1, 4)),) * 2,))
    with pytest.raises(ValueError):
        DeviationKernel((((F(2), F(-1)), (F(0), F(1))),))


def test_support_rejects_an_unknown_player():
    p = MarginalProfile(((F(1, 2), F(0), F(1, 2)), (F(1),)))
    assert p.support(0) == (0, 2) and p.support(1) == (0,)
    for i in (-1, 2):
        with pytest.raises(ValueError, match=f"unknown player index {i}"):
            p.support(i)


def test_distribution_validation():
    with pytest.raises(ValueError):
        MarginalProfile(((F(1, 2), F(1, 3)),))
    with pytest.raises(ValueError):
        JointDistribution((2,), (F(2), F(-1)))


rationals = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def marginal_profiles(draw):
    shape = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    rows = []
    for k in shape:
        weights = draw(
            st.lists(st.integers(0, 8), min_size=k, max_size=k).filter(any)
        )
        total = sum(weights)
        rows.append(tuple(F(w, total) for w in weights))
    return MarginalProfile(tuple(rows))


@given(marginal_profiles())
@settings(max_examples=60, deadline=None)
def test_product_marginals_roundtrip(p):
    q = product_distribution(p)
    for i in range(len(p.probs)):
        assert q.marginal(i) == p.probs[i]
    assert q.marginals() == p


@st.composite
def joint_distributions(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    # Mostly zero weights, as in point-mass and sparse witnesses; every
    # profile that uses an unplayed action gets weight 0, so some marginal
    # entries are 0.
    unplayed = [draw(st.sets(st.integers(0, k - 1), max_size=k - 1)) for k in shape]
    weights = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(1, 30)),
            min_size=prod(shape),
            max_size=prod(shape),
        )
    )
    profiles = itertools.product(*(range(k) for k in shape))
    weights = [
        0 if any(a in off for a, off in zip(profile, unplayed)) else w
        for profile, w in zip(profiles, weights)
    ]
    assume(any(weights))
    denominators = draw(
        st.lists(st.integers(1, 9), min_size=len(weights), max_size=len(weights))
    )
    raw = [F(w, d) for w, d in zip(weights, denominators)]
    total = sum(raw)
    return JointDistribution(shape, tuple(v / total for v in raw))


@given(joint_distributions())
@settings(max_examples=80, deadline=None)
def test_marginal_matches_profile_sum(q):
    marginals = q.marginals()
    for i, k in enumerate(q.shape):
        expected = [F(0)] * k
        for profile in q.profiles():
            expected[profile[i]] += q.prob(profile)
        assert q.marginal(i) == marginals.probs[i] == tuple(expected)


@given(st.fractions(min_value=0, max_value=1, max_denominator=10))
@settings(max_examples=30, deadline=None)
def test_surplus_linear_in_kernel(lam):
    pay = ("9", "0", "0", "0", "1", "0")
    game = Game(("P1", "P2"), (("T", "B"), ("L", "M", "R")), (pay, pay))
    a = DeviationKernel(
        (((F(1), F(0)), (F(0), F(1))),
         ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(1, 2), F(1, 2), F(0))))
    )
    b = DeviationKernel(
        (((F(0), F(1)), (F(1), F(0))),
         ((F(0), F(1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1))))
    )
    mixed = DeviationKernel(
        tuple(
            tuple(
                tuple((1 - lam) * ar + lam * br for ar, br in zip(arow, brow))
                for arow, brow in zip(aplayer, bplayer)
            )
            for aplayer, bplayer in zip(a.rows, b.rows)
        )
    )
    for profile in game.profiles():
        expected = (1 - lam) * surplus(game, a, profile) + lam * surplus(game, b, profile)
        assert surplus(game, mixed, profile) == expected


def test_replace():
    assert replace((0, 1, 2), 1, 5) == (0, 5, 2)


def _reference_surplus(game, kernel, profile):
    """The deviation surplus written out from its definition: for each
    player, the kernel row's expected payoff minus the recommended one."""
    shape = game.shape
    flat = lambda a: sum(x * prod(shape[j + 1 :]) for j, x in enumerate(a))
    total = F(0)
    for i, a in enumerate(profile):
        for b, weight in enumerate(kernel.rows[i][a]):
            moved = profile[:i] + (b,) + profile[i + 1 :]
            total += weight * game.payoffs[i][flat(moved)]
        total -= game.payoffs[i][flat(profile)]
    return total


@st.composite
def games_and_kernels(draw, shapes=st.lists(st.integers(1, 4), min_size=1, max_size=3)):
    shape = draw(shapes)
    size = prod(shape)
    payoff = st.fractions(min_value=-50, max_value=50, max_denominator=30)
    payoffs = [draw(st.lists(payoff, min_size=size, max_size=size)) for _ in shape]
    rows = []
    for k in shape:
        player_rows = []
        for _ in range(k):
            # Zero entries allowed; the row total sets the denominators.
            weights = draw(st.lists(st.integers(0, 7), min_size=k, max_size=k).filter(any))
            player_rows.append(tuple(F(w, sum(weights)) for w in weights))
        rows.append(tuple(player_rows))
    game = Game(
        tuple(f"P{i}" for i in range(len(shape))),
        tuple(tuple(f"a{x}" for x in range(k)) for k in shape),
        tuple(map(tuple, payoffs)),
    )
    return game, DeviationKernel(tuple(rows))


@given(games_and_kernels())
@settings(max_examples=80, deadline=None)
def test_surplus_table_matches_definition(case):
    game, kernel = case
    expected = tuple(_reference_surplus(game, kernel, a) for a in game.profiles())
    assert surplus_table(game, kernel) == expected


# Four and five players, with up to 36 profiles; most shapes have a
# player with one action.
MANY_PLAYERS = st.lists(st.integers(1, 3), min_size=4, max_size=5).filter(
    lambda shape: prod(shape) <= 36
)


@given(games_and_kernels(MANY_PLAYERS))
@settings(max_examples=60, deadline=None)
def test_surplus_table_matches_definition_with_many_players(case):
    # Every player's columns are read the general way once a game has a
    # player other than the first and the last. A game built from integer
    # columns, as a parsed one is, must give the same table as one built
    # from Fractions; its values are left unreduced here.
    game, kernel = case
    parsed = Game.from_columns(
        game.players,
        game.actions,
        [
            ([v.numerator * (1 + f % 3) for f, v in enumerate(row)],
             [v.denominator * (1 + f % 3) for f, v in enumerate(row)])
            for row in game.payoffs
        ],
    )
    table = surplus_table(parsed, kernel)
    assert "payoffs" not in vars(parsed)
    expected = tuple(_reference_surplus(game, kernel, a) for a in game.profiles())
    assert table == surplus_table(game, kernel) == expected


_ANY_SHAPE = st.one_of(st.lists(st.integers(1, 4), min_size=1, max_size=3), MANY_PLAYERS)


@given(games_and_kernels(_ANY_SHAPE), st.data())
@settings(max_examples=80, deadline=None)
def test_surplus_parts_skips_identity_rows_and_players(case, data):
    # Kernels the package builds are the identity but for a few rows, and
    # `surplus_parts` skips identity rows and players whose rows all are.
    # With random rows, and random whole players, forced to the identity,
    # it must still give the Fraction `surplus` at every profile.
    game, kernel = case
    rows = [list(player_rows) for player_rows in kernel.rows]
    for i, k in enumerate(game.shape):
        whole = data.draw(st.booleans())
        for a in range(k):
            if whole or data.draw(st.booleans()):
                rows[i][a] = tuple(F(int(b == a)) for b in range(k))
    kernel = DeviationKernel(rows)
    nums, dens = surplus_parts(game, kernel)
    assert all(den > 0 for den in dens)
    assert [F(n, d) for n, d in zip(nums, dens)] == [
        surplus(game, kernel, profile) for profile in game.profiles()
    ]


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 1, 1, 3), (1, 2, 1, 2, 1)])
def test_surplus_table_with_one_action_players(shape):
    # One-action players have no deviation and one line per profile.
    size = prod(shape)
    payoffs = [[F((7 * f + 3 * i) % 11 - 5, 1 + f % 4) for f in range(size)]
               for i in range(len(shape))]
    game = Game(
        tuple(f"P{i}" for i in range(len(shape))),
        tuple(tuple(f"a{x}" for x in range(k)) for k in shape),
        payoffs,
    )
    kernel = DeviationKernel(
        [[[F(1, k)] * k for _ in range(k)] for k in shape]
    )
    expected = tuple(_reference_surplus(game, kernel, a) for a in game.profiles())
    assert surplus_table(game, kernel) == expected


# Shapes of up to three players, the many-player shapes (whose middle
# players' columns are runs of slices) and shapes with one-action players.
ALL_SHAPES = st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    MANY_PLAYERS,
    st.sampled_from([(1, 1, 1, 1), (2, 1, 1, 3), (1, 2, 1, 2, 1), (1, 4), (3, 1)]),
)


@given(games_and_kernels(ALL_SHAPES), st.data())
@settings(max_examples=120, deadline=None)
def test_integer_pairs_give_the_same_game_however_reduced(case, data):
    # `Game.from_columns` reduces each line as a whole, so payoff columns
    # scaled by any positive factors give the same game and integer view.
    game, _ = case
    size = game.num_profiles
    factors = st.lists(st.integers(1, 12), min_size=size, max_size=size)
    columns = []
    for row in game.payoffs:
        scale = data.draw(factors)
        columns.append((
            [v.numerator * c for v, c in zip(row, scale)],
            [v.denominator * c for v, c in zip(row, scale)],
        ))
    built = Game.from_columns(game.players, game.actions, columns)
    assert built == game and hash(built) == hash(game)
    assert built.int_payoffs == game.int_payoffs
    assert built.payoffs == game.payoffs


def test_integer_pairs_need_positive_denominators():
    for bad in (0, -2):
        with pytest.raises(ValueError, match="'A' has a non-positive denominator"):
            Game.from_columns(("A",), (("x", "y"),), (((1, 1), (2, bad)),))


def _unreduced(data, values):
    """The Fractions `values` as integer columns `(numerators,
    denominators)`, each value scaled by a drawn factor."""
    size = len(values)
    factors = data.draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
    return (
        [v.numerator * c for v, c in zip(values, factors)],
        [v.denominator * c for v, c in zip(values, factors)],
    )


def _probability_row(data, k):
    weights = data.draw(st.lists(st.integers(0, 7), min_size=k, max_size=k).filter(any))
    return tuple(F(w, sum(weights)) for w in weights)


def _same_value(built, expected, view):
    """`built` equals `expected` in `==`, `hash` and the Fraction field
    `view`, and so do their pickles, which do not carry that view."""
    copies = [pickle.loads(pickle.dumps(x)) for x in (built, expected)]
    assert all(view not in vars(copy) for copy in copies)
    for got in (built, *copies):
        assert got == expected and hash(got) == hash(expected)
        assert getattr(got, view) == getattr(expected, view)
        assert repr(got) == repr(expected)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_joint_distribution_from_integer_pairs(data):
    q = data.draw(joint_distributions())
    built = JointDistribution.from_columns(q.shape, _unreduced(data, q.probs))
    assert "probs" not in vars(built)
    _same_value(built, q, "probs")
    assert built.int_probs == q.int_probs


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_from_integer_pairs(data):
    shape = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    rows = [[_probability_row(data, k) for _ in range(k)] for k in shape]
    kernel = DeviationKernel(rows)
    built = DeviationKernel.from_columns(
        [[_unreduced(data, row) for row in player_rows] for player_rows in rows]
    )
    assert "rows" not in vars(built)
    _same_value(built, kernel, "rows")
    assert built.int_rows == kernel.int_rows and built.shape == kernel.shape


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_profilewise_scheme_from_integer_pairs(data):
    size = data.draw(st.integers(1, 12))
    fees = st.fractions(-9, 9, max_denominator=12)
    fee = data.draw(st.lists(fees, min_size=size, max_size=size))
    kernel = identity_kernel((size,))
    scheme = ProfilewiseScheme(fee, kernel)
    built = ProfilewiseScheme.from_columns(_unreduced(data, fee), kernel)
    assert "fee" not in vars(built)
    _same_value(built, scheme, "fee")
    assert built.int_fee == scheme.int_fee


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_marginal_profile_from_integer_pairs(data):
    shape = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    rows = [_probability_row(data, k) for k in shape]
    p = MarginalProfile(rows)
    built = MarginalProfile.from_columns([_unreduced(data, row) for row in rows])
    assert "probs" not in vars(built)
    _same_value(built, p, "probs")
    assert built.int_rows == p.int_rows and built.shape == p.shape == tuple(shape)
    assert [built.support(i) for i in range(len(shape))] == [
        tuple(a for a, v in enumerate(row) if v) for row in rows
    ]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_actionwise_scheme_from_integer_pairs(data):
    shape = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    fees = st.fractions(-9, 9, max_denominator=12)
    rows = [data.draw(st.lists(fees, min_size=k, max_size=k)) for k in shape]
    kernel = identity_kernel(tuple(shape))
    scheme = ActionwiseScheme(rows, kernel)
    columns = [_unreduced(data, row) for row in rows]
    built = ActionwiseScheme.from_columns(columns, kernel)
    assert "fees" not in vars(built)
    _same_value(built, scheme, "fees")
    assert built.int_fees == scheme.int_fees


def _rejection(build, *args):
    with pytest.raises(ValueError) as exc:
        build(*args)
    return str(exc.value)


def _doubled(row):
    """The Fractions `row` as integer columns, each value over twice its
    denominator."""
    return [2 * v.numerator for v in row], [2 * v.denominator for v in row]


# Each is rejected by the Fraction constructor and, as unreduced columns,
# by the integer one with the same message.
BAD_JOINTS = [
    ((2,), (F(2), F(-1))),
    ((2,), (F(1, 2), F(1, 3))),
    ((2, 2), (F(1, 2), F(1, 2))),
    ((0,), ()),
]
BAD_KERNELS = [
    (((F(1), F(0)),),),
    (((F(1),),), ((F(1, 2), F(1, 2)), (F(0), F(1), F(0)))),
    (((F(2), F(-1)), (F(0), F(1))),),
    (((F(1, 2), F(1, 4)), (F(0), F(1))),),
    (((F(1),),), ((F(0), F(1)), (F(1, 3), F(1, 3)))),
]


BAD_MARGINALS = [
    ((F(1, 2), F(1, 3)),),
    ((F(1),), (F(3, 2), F(-1, 2))),
    ((F(1),), ()),
]


@pytest.mark.parametrize("rows", BAD_MARGINALS)
def test_marginal_profile_constructors_reject_alike(rows):
    expected = _rejection(MarginalProfile, rows)
    columns = list(map(_doubled, rows))
    assert _rejection(MarginalProfile.from_columns, columns) == expected


def test_actionwise_scheme_constructors_reject_alike():
    kernel = identity_kernel((2, 2))
    fees = ((F(1), F(-1, 2)), (F(0),))
    expected = _rejection(ActionwiseScheme, fees, kernel)
    assert expected == "fee table shape does not match kernel"
    columns = list(map(_doubled, fees))
    assert _rejection(ActionwiseScheme.from_columns, columns, kernel) == expected


@pytest.mark.parametrize("shape, probs", BAD_JOINTS)
def test_joint_distribution_constructors_reject_alike(shape, probs):
    expected = _rejection(JointDistribution, shape, probs)
    columns = _doubled(probs)
    assert _rejection(JointDistribution.from_columns, shape, columns) == expected


@pytest.mark.parametrize("rows", BAD_KERNELS)
def test_kernel_constructors_reject_alike(rows):
    expected = _rejection(DeviationKernel, rows)
    columns = [list(map(_doubled, player_rows)) for player_rows in rows]
    assert _rejection(DeviationKernel.from_columns, columns) == expected


def test_integer_constructors_need_positive_denominators():
    kernel = identity_kernel((2,))
    for bad in (0, -2):
        columns = ((1, 1), (2, bad))
        assert _rejection(JointDistribution.from_columns, (2,), columns) == (
            "joint distribution has a non-positive denominator"
        )
        rows = [[((1, 0), (1, 1)), ((0, 1), (bad, 1))]]
        assert _rejection(DeviationKernel.from_columns, rows) == (
            "kernel row (0,1) has a non-positive denominator"
        )
        fee = ((1, 1), (1, bad))
        assert _rejection(ProfilewiseScheme.from_columns, fee, kernel) == (
            "fee table has a non-positive denominator"
        )
        assert _rejection(ActionwiseScheme.from_columns, [fee], kernel) == (
            "fee table has a non-positive denominator"
        )
        rows = [((1,), (1,)), ((1,), (bad,))]
        assert _rejection(MarginalProfile.from_columns, rows) == (
            "marginal distribution of player 1 has a non-positive denominator"
        )


# Each builds one model type from columns with `row` among its rows. A
# row whose two columns differ in length must be refused whole, not cut to
# the shorter column.
UNEVEN_BUILDS = {
    "Game": lambda row: Game.from_columns(("A",), (("x", "y"),), [row]),
    "MarginalProfile": lambda row: MarginalProfile.from_columns([row]),
    "JointDistribution": lambda row: JointDistribution.from_columns((2,), row),
    "DeviationKernel": lambda row: DeviationKernel.from_columns(
        [[((1, 0), (1, 1)), row]]
    ),
    "ActionwiseScheme": lambda row: ActionwiseScheme.from_columns(
        [row], identity_kernel((2,))
    ),
    "ProfilewiseScheme": lambda row: ProfilewiseScheme.from_columns(
        row, identity_kernel((2,))
    ),
}


@pytest.mark.parametrize("row", [((1, 0), (1,)), ((1,), (1, 1))])
@pytest.mark.parametrize("name", UNEVEN_BUILDS)
def test_columns_of_unequal_length_are_refused(name, row):
    with pytest.raises(ValueError, match=f"^{name} has a row whose columns differ"):
        UNEVEN_BUILDS[name](row)


def _rows_of(data, name, shape):
    """A valid `name` object as rows of Fractions, one label per row as
    its type's error lines name it, and a function that puts rows, as
    Fractions or as integer columns, into the constructor's arguments."""
    size = prod(shape)
    fees = st.fractions(-9, 9, max_denominator=12)
    if name == "MarginalProfile":
        rows = [_probability_row(data, k) for k in shape]
        labels = [f"marginal distribution of player {j}" for j in range(len(shape))]
        return rows, labels, lambda rows: (rows,)
    if name == "JointDistribution":
        return [_probability_row(data, size)], ["joint distribution"], (
            lambda rows: (shape, rows[0])
        )
    if name == "DeviationKernel":
        rows = [_probability_row(data, k) for k in shape for _ in range(k)]
        labels = [f"kernel row ({i},{a})" for i, k in enumerate(shape) for a in range(k)]
        starts = list(itertools.accumulate(shape, initial=0))
        return rows, labels, lambda rows: (
            [rows[start : start + k] for start, k in zip(starts, shape)],
        )
    kernel = identity_kernel(shape)
    if name == "ActionwiseScheme":
        rows = [tuple(data.draw(st.lists(fees, min_size=k, max_size=k))) for k in shape]
        return rows, ["fee table"] * len(shape), lambda rows: (rows, kernel)
    row = tuple(data.draw(st.lists(fees, min_size=size, max_size=size)))
    return [row], ["fee table"], lambda rows: (rows[0], kernel)


def _outcome(build, args):
    """The object `build(*args)` makes, or the first line of its ValueError."""
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc).splitlines()[0]


MODEL_TYPES = {
    cls.__name__: cls
    for cls in (
        MarginalProfile,
        JointDistribution,
        DeviationKernel,
        ActionwiseScheme,
        ProfilewiseScheme,
    )
}


@pytest.mark.parametrize("name", MODEL_TYPES)
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_integer_constructors_decide_as_the_fraction_ones(name, data):
    # One row of a valid object is mutated. Where Fractions can carry the
    # mutation, `from_columns` on its integer columns must build the same
    # store as the constructor on the Fractions, or fail with the same
    # first error line; columns of unequal length and non-positive
    # denominators have no Fraction form and get their own lines. A row
    # over one denominator, as every producer's kernel rows are, skips the
    # lcm rescale and must still reduce to the store the Fractions give.
    cls = MODEL_TYPES[name]
    shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rows, labels, arguments = _rows_of(data, name, shape)
    r = data.draw(st.integers(0, len(rows) - 1))
    values = list(rows[r])
    j = data.draw(st.integers(0, len(values) - 1))
    move = data.draw(st.sampled_from(
        ("none", "one denominator", "off", "negate", "resize", "uneven", "denominator")
    ))
    if move == "off":
        values[j] += data.draw(st.sampled_from((1, -1))) * F(1, data.draw(st.integers(1, 99)))
    elif move == "negate":
        values[j] = -(values[j] or F(1, 2))
    elif move == "resize":
        values = values[:-1] if data.draw(st.booleans()) else values + [F(0)]
    if move == "one denominator":
        scale = lcm(*(v.denominator for v in values)) * data.draw(st.integers(1, 9))
        columns = ([v.numerator * scale // v.denominator for v in values], [scale] * len(values))
    else:
        columns = _unreduced(data, values)
    expected = _outcome(cls, arguments([*rows[:r], tuple(values), *rows[r + 1 :]]))
    if move == "uneven":
        column = columns[data.draw(st.integers(0, 1))]
        if data.draw(st.booleans()):
            column.pop()
        else:
            column.append(1)
        expected = f"{name} has a row whose columns differ in length"
    elif move == "denominator":
        bad = data.draw(st.sampled_from((0, -columns[1][j])))
        every = data.draw(st.booleans())  # one d, or every d alike
        columns[1][:] = [bad if every or x == j else d for x, d in enumerate(columns[1])]
        expected = f"{labels[r]} has a non-positive denominator"
    others = [_unreduced(data, row) for row in rows]
    got = _outcome(cls.from_columns, arguments([*others[:r], columns, *others[r + 1 :]]))
    assert got == expected
    if not isinstance(expected, str):
        assert repr(got) == repr(expected)


def test_a_pickled_kernel_reads_the_same_shape():
    kernel = DeviationKernel.from_columns(
        [[((1, 0), (1, 1)), ((2, 2), (4, 4))], [((1,), (1,))]]
    )
    assert kernel.shape == (2, 1) and "shape" in vars(kernel)
    copy = pickle.loads(pickle.dumps(kernel))
    assert "shape" not in vars(copy)
    assert copy == kernel and hash(copy) == hash(kernel)
    assert copy.shape == kernel.shape
    assert copy.int_rows[0][1] == ((1, 1), 2)


def _primes_above(start, count):
    """The first `count` primes above `start`, by a sieve over a window."""
    width = 64 * count
    composite = bytearray(width)
    for d in range(2, int((start + width) ** 0.5) + 1):
        for m in range(-(-start // d) * d, start + width, d):
            composite[m - start] = 1
    return [start + x for x in range(width) if not composite[x]][:count]


def test_hostile_denominators_stay_line_local():
    # Every payoff of a 4x4x4x4 game has its own 21-bit prime denominator,
    # so a common denominator over the whole tensor would have thousands
    # of bits; a line's has at most four primes.
    shape = (4, 4, 4, 4)
    size = prod(shape)
    primes = iter(_primes_above(2**20, len(shape) * size))
    payoffs = tuple(
        tuple(F((-1) ** flat * (flat + i + 1), next(primes)) for flat in range(size))
        for i in range(len(shape))
    )
    game = Game(
        tuple(f"P{i}" for i in range(len(shape))),
        tuple(tuple(f"a{x}" for x in range(k)) for k in shape),
        payoffs,
    )
    for i, (nums, dens) in enumerate(game.int_payoffs):
        step = game.strides[i]
        for start in game.line_starts(i):
            line = range(start, start + shape[i] * step, step)
            line_lcm = lcm(*(payoffs[i][f].denominator for f in line))
            assert line_lcm.bit_length() <= 4 * 21
            for f in line:
                assert dens[f] == line_lcm
                assert F(nums[f], dens[f]) == payoffs[i][f]
    kernel = DeviationKernel(
        tuple(
            tuple(
                tuple(F(1, 2) if b in (a, (a + 1) % k) else F(0) for b in range(k))
                for a in range(k)
            )
            for k in shape
        )
    )
    table = surplus_table(game, kernel)
    assert table == tuple(surplus(game, kernel, a) for a in game.profiles())


def test_line_starts_cover_every_profile_once():
    game = Game(
        ("A", "B", "C"),
        (("x", "y"), ("x", "y", "z"), ("x", "y")),
        (("0",) * 12,) * 3,
    )
    profiles = list(game.profiles())
    for i, k in enumerate(game.shape):
        lines = [
            [profiles[start + a * game.strides[i]] for a in range(k)]
            for start in game.line_starts(i)
        ]
        assert sorted(a for line in lines for a in line) == profiles
        for line in lines:
            assert [a[i] for a in line] == list(range(k))
            assert len({a[:i] + a[i + 1 :] for a in line}) == 1


@pytest.mark.parametrize("shape", [(2.7,), (2.0,), (2, 1.5)])
def test_a_float_shape_is_refused(shape):
    # A float entry is refused, not truncated by `int`, as every rational
    # of the same object refuses a float.
    probs = ("1/2", "1/2") + ("0",) * (len(shape) - 1)
    with pytest.raises(TypeError):
        JointDistribution(shape, probs)
    with pytest.raises(TypeError):
        JointDistribution.from_columns(shape, ((1, 1), (2, 2)))


@pytest.mark.parametrize(
    "cls, args, name",
    [
        (Game, (("A",), (("x",),)), "payoffs"),
        (MarginalProfile, (), "probs"),
        (JointDistribution, ((2,),), "probs"),
        (DeviationKernel, (), "rows"),
        (ActionwiseScheme, (), "fees"),
        (ProfilewiseScheme, (), "fee"),
    ],
)
def test_a_missing_rationals_argument_is_named(cls, args, name):
    for build in (cls, cls.from_columns):
        with pytest.raises(TypeError, match=f"{cls.__name__}.*'{name}'"):
            build(*args)
