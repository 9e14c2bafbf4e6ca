"""Independent cross-checks of verdicts, and seeded test inputs.

`cross_check`, the command-line `--oracle` check, takes a verdict of
either test: it re-verifies the certificate with `verify` (a witness, or
the action-wise or profile-wise scheme of the one `Exploitable`
verdict), judges Nash status with `verify.verify_nash` and runs the
direct best-response check on an IsNash verdict as well. It calls no
solver. Every step has bounded work.
`random_ce` samples a vertex of the incentive polytope under a seeded
objective and is checked against the direct incentive inequalities
before returning. `random_game` and `random_marginals` generate small
seeded inputs for the tests, the scripts and the benchmark.

Everything here is deterministic given its seed; no wall-clock entropy.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

from . import lp
from .correlated import incentive_rows
from .games import (
    Compatible,
    Exploitable,
    Game,
    IsNash,
    JointDistribution,
    MarginalProfile,
    ProfilewiseScheme,
)
from .nash import is_nash
from .verify import (
    IncomeClaimError,
    SchemeViolation,
    is_correlated_equilibrium,
    verify_exploitable,
    verify_nash,
    verify_witness,
)

_ONE = Fraction(1)


class OracleDisagreement(RuntimeError):
    """An analyzer verdict contradicts an independent check."""


def random_ce(game: Game, seed: int) -> JointDistribution:
    """A correlated equilibrium vertex under a seeded random objective.

    The incentive polytope is never empty, so this always succeeds; the
    returned distribution is re-checked against the direct incentive
    inequalities.
    """
    rng = random.Random(seed)
    rows = incentive_rows(game)
    rows.append(lp.eq([_ONE] * game.num_profiles, 1))
    system = lp.LinearSystem(game.num_profiles, tuple(rows))
    objective = tuple(
        Fraction(rng.randint(-24, 24), rng.randint(1, 12))
        for _ in range(game.num_profiles)
    )
    _value, point = lp.maximize(system, objective)
    q = JointDistribution(game.shape, point)
    if not is_correlated_equilibrium(game, q):
        raise RuntimeError("sampled vertex fails the incentive inequalities")
    return q


def random_game(rng: random.Random, max_players: int = 3, max_actions: int = 3) -> Game:
    """A small random game with uniform small-rational payoffs; a player
    has 2 to `max_actions` actions, labelled by consecutive characters
    from "a"."""
    n = rng.randint(2, max_players)
    players = tuple(f"P{i + 1}" for i in range(n))
    actions = tuple(
        tuple(map(chr, range(97, 97 + rng.randint(2, max_actions)))) for _ in range(n)
    )
    size = prod(len(a) for a in actions)
    payoffs = tuple(
        tuple(Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(size))
        for _ in range(n)
    )
    return Game(players, actions, payoffs)


def random_marginals(rng: random.Random, game: Game) -> MarginalProfile:
    """Random rational marginals; zero-probability actions do occur."""
    rows = []
    for k in game.shape:
        weights = [rng.randint(0, 6) for _ in range(k)]
        if not any(weights):
            weights[rng.randrange(k)] = 1
        total = sum(weights)
        rows.append(tuple(Fraction(w, total) for w in weights))
    return MarginalProfile(tuple(rows))


def cross_check(game: Game, p: MarginalProfile, verdict) -> None:
    """Raise OracleDisagreement if a verdict of either test contradicts the
    independent checks. Used by the command-line `--oracle` flag.

    A compatible verdict must carry a witness that `verify_witness`
    accepts. An IsNash verdict must pass the direct best-response check and
    `verify_nash`, which checks the product of its profile against the
    incentive inequalities. An exploitable verdict must pass
    `verify_exploitable`: its scheme is re-verified by the checker of its
    kind, and its income must be positive and equal to the verdict's; a
    profile-wise (Nash) verdict must also fail `verify_nash`.

    Nothing is re-solved: by weak duality no second CE test and no grid
    scan (`tests/grid_oracles.py`, whose work has no bound) can overturn a
    verified certificate. A witness q gives every feasible scheme the income
    E_p[fees] = E_q[fees] <= E_q[surplus] <= 0, and a verified scheme with
    positive income rules out every witness in the same way."""
    if isinstance(verdict, Compatible):
        if not verify_witness(game, p, verdict.witness):
            raise OracleDisagreement("compatible verdict carries a bad witness")
    elif isinstance(verdict, IsNash):
        if not is_nash(game, p):
            raise OracleDisagreement("IsNash verdict fails the best-response check")
        if not verify_nash(game, p):
            raise OracleDisagreement(
                "product of an equilibrium profile fails the incentive inequalities"
            )
    elif isinstance(verdict, Exploitable):
        if isinstance(verdict.scheme, ProfilewiseScheme) and verify_nash(game, p):
            raise OracleDisagreement("exploitable verdict on an equilibrium profile")
        try:
            verify_exploitable(game, p, verdict)
        except SchemeViolation as exc:
            raise OracleDisagreement(f"exploitable verdict carries a bad scheme: {exc}")
        except IncomeClaimError:
            raise OracleDisagreement("exploitable verdict income does not check out")
    else:
        raise TypeError(f"not a verdict: {verdict!r}")
