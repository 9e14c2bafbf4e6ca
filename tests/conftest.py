"""Shared fixtures and equivariance helpers for the test suite."""

from fractions import Fraction as F

import pytest

from eqaudit.games import (
    DeviationKernel,
    Game,
    JointDistribution,
    MarginalProfile,
)

COORD_PAYOFFS = ("9", "0", "0", "0", "1", "0")


@pytest.fixture
def coordination() -> Game:
    """Two players; (T,L) pays 9 to both, (B,M) pays 1 to both, the third
    column pays nothing to anyone and is strictly dominated by an even mix
    of the first two."""
    return Game(("P1", "P2"), (("T", "B"), ("L", "M", "R")), (COORD_PAYOFFS, COORD_PAYOFFS))


@pytest.fixture
def skewed_profile() -> MarginalProfile:
    """Marginals that overweight the second column: no coupling with these
    marginals survives the incentive inequalities."""
    return MarginalProfile(((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4), F(0))))


@pytest.fixture
def diagonal_profile() -> MarginalProfile:
    return MarginalProfile(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2), F(0))))


@pytest.fixture
def mixed_equilibrium() -> MarginalProfile:
    """Fully mixed equilibrium of the coordination game: both players are
    indifferent between their two live actions (9/10 each way)."""
    return MarginalProfile(((F(1, 10), F(9, 10)), (F(1, 10), F(9, 10), F(0))))


@pytest.fixture
def matching_pennies() -> Game:
    return Game(
        ("P1", "P2"),
        (("H", "T"), ("H", "T")),
        (("1", "-1", "-1", "1"), ("-1", "1", "1", "-1")),
    )


def identity_kernel(shape) -> DeviationKernel:
    """The kernel under which every player plays as told."""
    return DeviationKernel(
        tuple(
            tuple(tuple(F(int(b == a)) for b in range(k)) for a in range(k))
            for k in shape
        )
    )


@pytest.fixture
def halfhalf_kernel(coordination) -> DeviationKernel:
    """Identity everywhere except the dominated column, which is sent to
    an even mix of the other two."""
    return DeviationKernel(
        (
            ((F(1), F(0)), (F(0), F(1))),
            (
                (F(1), F(0), F(0)),
                (F(0), F(1), F(0)),
                (F(1, 2), F(1, 2), F(0)),
            ),
        )
    )


@pytest.fixture
def column_swap_kernel(coordination) -> DeviationKernel:
    """Identity everywhere except the second column, which is sent to the
    first with probability one."""
    return DeviationKernel(
        (
            ((F(1), F(0)), (F(0), F(1))),
            (
                (F(1), F(0), F(0)),
                (F(1), F(0), F(0)),
                (F(0), F(0), F(1)),
            ),
        )
    )


# --- equivariance helpers -------------------------------------------------

def permute_game(game: Game, perms) -> Game:
    """Relabeled game; `perms[i][new_index] = old_index`."""
    actions = tuple(
        tuple(game.actions[i][old] for old in perm) for i, perm in enumerate(perms)
    )
    new = Game(game.players, actions, game.payoffs)  # placeholder payoffs
    payoffs = []
    for i in range(game.num_players):
        row = []
        for profile in new.profiles():
            old_profile = tuple(perms[j][a] for j, a in enumerate(profile))
            row.append(game.payoffs[i][game.flat_index(old_profile)])
        payoffs.append(tuple(row))
    return Game(game.players, actions, tuple(payoffs))


def permute_marginals(p: MarginalProfile, perms) -> MarginalProfile:
    return MarginalProfile(
        tuple(tuple(row[old] for old in perm) for row, perm in zip(p.probs, perms))
    )


def permute_joint(q: JointDistribution, perms) -> JointDistribution:
    import itertools

    probs = []
    for profile in itertools.product(*(range(k) for k in q.shape)):
        old_profile = tuple(perms[j][a] for j, a in enumerate(profile))
        probs.append(q.prob(old_profile))
    return JointDistribution(q.shape, tuple(probs))


def permute_kernel(kernel: DeviationKernel, perms) -> DeviationKernel:
    rows = tuple(
        tuple(
            tuple(kernel.rows[i][perm[a]][perm[b]] for b in range(len(perm)))
            for a in range(len(perm))
        )
        for i, perm in enumerate(perms)
    )
    return DeviationKernel(rows)


def permute_actionwise(scheme, perms):
    from eqaudit.correlated import ActionwiseScheme

    fees = tuple(
        tuple(row[old] for old in perm) for row, perm in zip(scheme.fees, perms)
    )
    return ActionwiseScheme(fees, permute_kernel(scheme.kernel, perms))


def duplicate_action(game: Game, player: int, action: int) -> Game:
    """Append a copy of one action (same payoffs for everyone) under a
    fresh label."""
    actions = list(game.actions)
    actions[player] = game.actions[player] + (game.actions[player][action] + "'",)
    actions = tuple(actions)
    skeleton = Game(game.players, actions, tuple(
        (0,) * (game.num_profiles // game.shape[player] * (game.shape[player] + 1))
        for _ in game.players
    ))
    payoffs = []
    for i in range(game.num_players):
        row = []
        for profile in skeleton.profiles():
            old = list(profile)
            if old[player] == game.shape[player]:
                old[player] = action
            row.append(game.payoffs[i][game.flat_index(tuple(old))])
        payoffs.append(tuple(row))
    return Game(game.players, actions, tuple(payoffs))


def extend_marginals(p: MarginalProfile, player: int) -> MarginalProfile:
    """Give the duplicated action probability zero."""
    rows = list(p.probs)
    rows[player] = p.probs[player] + (F(0),)
    return MarginalProfile(tuple(rows))
