"""Brute-force cross-checks for the analyzers on desk-scale games.

The two grid scans are deliberately one-sided: `coupling_scan_2x2` can
only confirm compatibility (by exhibiting a witness on a grid of the
coupling polytope) and `exhaustive_scheme_search` can only confirm
exploitability (by exhibiting a positive-income scheme from a finite
family). Each is sound, neither is complete, and together they catch the
sign and indexing mistakes that duality code is prone to. Their work is
not bounded in advance, so only the test suite and
`scripts/random_audit.py` call them. The command-line `--oracle` check,
`cross_check`, takes a verdict of either test: it re-verifies the
certificate (a witness, or the action-wise or profile-wise scheme of the
one `Exploitable` verdict), runs the direct best-response check on Nash
verdicts and, for compatibility, makes the `random_ce` round trip.
`random_ce` samples a vertex of the incentive polytope under a seeded
objective and is checked against the direct incentive inequalities
before returning.

Everything here is deterministic given its seed; no wall-clock entropy.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from fractions import Fraction
from math import prod

from . import lp
from .correlated import (
    ActionwiseScheme,
    Compatible,
    Exploitable,
    deviation_pairs,
    incentive_coefficients,
    is_correlated_equilibrium,
    test_ce_compatibility,
)
from .games import (
    DeviationKernel,
    Game,
    JointDistribution,
    MarginalProfile,
    as_fraction,
    product_distribution,
    surplus_table,
)
from .nash import IsNash, ProfilewiseScheme, is_nash
from .verify import (
    SchemeViolation,
    verify_actionwise,
    verify_profilewise,
    verify_witness,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class OracleDisagreement(RuntimeError):
    """An analyzer verdict contradicts an independent brute-force check."""


def coupling_scan_2x2(
    game: Game, p: MarginalProfile, resolution: int
) -> JointDistribution | None:
    """Scan a rational grid of the coupling polytope for a witness.

    Requires two players and at most two free directions in the polytope
    of couplings with marginals `p` (support sizes (s1-1)*(s2-1) <= 2).
    Returns the first grid coupling that verifies, in scan order, or None.
    A None is not a proof of incompatibility; a witness is a proof of
    compatibility.
    """
    if game.num_players != 2:
        raise ValueError("coupling scan needs exactly two players")
    if p.shape != game.shape:
        raise ValueError("marginal profile shape does not match game")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    supp1, supp2 = p.support(0), p.support(1)
    dof = (len(supp1) - 1) * (len(supp2) - 1)
    if dof > 2:
        raise ValueError("coupling polytope has more than two free directions")
    free_cells = [(r, c) for r in supp1[1:] for c in supp2[1:]]
    n1, n2 = game.shape
    grid = [Fraction(k, resolution) for k in range(resolution + 1)]
    for combo in itertools.product(grid, repeat=dof):
        cells = dict(zip(free_cells, combo))
        # Complete the contingency table from the prescribed marginals.
        for r in supp1[1:]:
            cells[(r, supp2[0])] = p.probs[0][r] - sum(
                (cells[(r, c)] for c in supp2[1:]), _ZERO
            )
        for c in supp2[1:]:
            cells[(supp1[0], c)] = p.probs[1][c] - sum(
                (cells[(r, c)] for r in supp1[1:]), _ZERO
            )
        cells[(supp1[0], supp2[0])] = p.probs[0][supp1[0]] - sum(
            (cells[(supp1[0], c)] for c in supp2[1:]), _ZERO
        )
        if any(v < 0 for v in cells.values()):
            continue
        probs = [_ZERO] * (n1 * n2)
        for (r, c), v in cells.items():
            probs[r * n2 + c] = v
        q = JointDistribution((n1, n2), tuple(probs))
        if verify_witness(game, p, q):
            return q
    return None


def random_ce(game: Game, seed: int) -> JointDistribution:
    """A correlated equilibrium vertex under a seeded random objective.

    The incentive polytope is never empty, so this always succeeds; the
    returned distribution is re-checked against the direct incentive
    inequalities.
    """
    rng = random.Random(seed)
    rows = [
        lp.ge(incentive_coefficients(game, i, ai, aj), 0)
        for i, ai, aj in deviation_pairs(game)
    ]
    rows.append(lp.eq([_ONE] * game.num_profiles, 1))
    system = lp.LinearSystem(game.num_profiles, tuple(rows), (True,) * game.num_profiles)
    objective = tuple(
        Fraction(rng.randint(-24, 24), rng.randint(1, 12))
        for _ in range(game.num_profiles)
    )
    _value, point = lp.maximize(system, objective)
    q = JointDistribution(game.shape, point)
    if not is_correlated_equilibrium(game, q):
        raise RuntimeError("sampled vertex fails the incentive inequalities")
    return q


def _uniform_subset_rows(k: int, own: int) -> list[tuple[Fraction, ...]]:
    """All rows that are uniform over a nonempty subset of the k actions.

    Covers every pure recommendation plus even mixtures; `own` is unused
    except to keep the identity row first for deterministic scan order.
    """
    rows = []
    indices = list(range(k))
    for size in range(1, k + 1):
        for subset in itertools.combinations(indices, size):
            weight = Fraction(1, size)
            rows.append(tuple(weight if a in subset else _ZERO for a in indices))
    identity = tuple(_ONE if a == own else _ZERO for a in indices)
    rows.sort(key=lambda row: row != identity)
    return rows


def exhaustive_scheme_search(
    game: Game, p: MarginalProfile, fee_grid
) -> Fraction | None:
    """Best positive expected fee income over a finite scheme family.

    Kernel rows for supported actions range over uniform-subset
    recommendations (off-support rows stay identity); fees for supported
    actions range over `fee_grid`, with off-support fees parked at the
    grid minimum. One player's fees are completed greedily, which is
    exact: the income is separable and increasing in each fee. Returns
    the best income if it is positive, else None. Intended for small
    games (at most ~16 profiles).
    """
    if p.shape != game.shape:
        raise ValueError("marginal profile shape does not match game")
    grid = sorted(set(as_fraction(v) for v in fee_grid))
    if not grid:
        raise ValueError("fee grid is empty")
    shape = game.shape
    n = game.num_players
    supports = [p.support(i) for i in range(n)]
    # Greedy completion goes to the player with the largest support so the
    # enumerated fee space stays as small as possible.
    greedy = max(range(n), key=lambda i: len(supports[i]))
    enum_slots = [(i, a) for i in range(n) if i != greedy for a in supports[i]]

    row_choices: list[list[list[tuple[Fraction, ...]]]] = []
    for i, k in enumerate(shape):
        per_action = []
        for a in range(k):
            if a in supports[i]:
                per_action.append(_uniform_subset_rows(k, a))
            else:
                per_action.append(
                    [tuple(_ONE if b == a else _ZERO for b in range(k))]
                )
        row_choices.append(per_action)

    # Distinct kernels often share a surplus table; deduplicate so the fee
    # enumeration runs once per table.
    tables: dict[tuple[Fraction, ...], DeviationKernel] = {}
    slot_options = [row_choices[i][a] for i in range(n) for a in range(shape[i])]
    for assignment in itertools.product(*slot_options):
        rows = []
        index = 0
        for i, k in enumerate(shape):
            rows.append(tuple(assignment[index : index + k]))
            index += k
        kernel = DeviationKernel(tuple(rows))
        tables.setdefault(surplus_table(game, kernel), kernel)

    profiles = list(game.profiles())
    floor = grid[0]
    ceiling = grid[-1]
    slot_probs = [p.probs[i][a] for i, a in enum_slots]
    slot_index = {slot: s for s, slot in enumerate(enum_slots)}
    # Per greedy action: the profiles whose constraint binds it, each with
    # the fee slots it touches and the floor fees already parked there.
    groups: list[list[tuple[int, Fraction, tuple[int, ...]]]] = [
        [] for _ in range(shape[greedy])
    ]
    for flat, profile in enumerate(profiles):
        const = _ZERO
        slots = []
        for i, a in enumerate(profile):
            if i == greedy:
                continue
            s = slot_index.get((i, a))
            if s is None:
                const += floor
            else:
                slots.append(s)
        groups[profile[greedy]].append((flat, const, tuple(slots)))
    greedy_support = set(supports[greedy])
    greedy_probs = p.probs[greedy]
    # Upper bound on the greedy player's possible contribution; lets whole
    # fee combinations be skipped once a good scheme is known.
    greedy_cap = sum((greedy_probs[a] * ceiling for a in greedy_support), _ZERO)

    best: Fraction | None = None
    best_scheme: ActionwiseScheme | None = None
    descending = list(reversed(grid))
    for table, kernel in tables.items():
        for combo in itertools.product(descending, repeat=len(enum_slots)):
            enum_income = sum(
                (prob * value for prob, value in zip(slot_probs, combo)), _ZERO
            )
            if best is not None and enum_income + greedy_cap <= best:
                continue
            income = enum_income
            greedy_fees = [floor] * shape[greedy]
            feasible = True
            for ag, constraints in enumerate(groups):
                room = None
                for flat, const, slots in constraints:
                    r = table[flat] - const
                    for s in slots:
                        r -= combo[s]
                    if room is None or r < room:
                        room = r
                pos = bisect_right(grid, room)
                if pos == 0:
                    feasible = False
                    break
                if ag in greedy_support:
                    greedy_fees[ag] = grid[pos - 1]
                    income += greedy_probs[ag] * grid[pos - 1]
            if not feasible:
                continue
            if best is None or income > best:
                best = income
                fees = [[floor] * k for k in shape]
                for (i, a), value in zip(enum_slots, combo):
                    fees[i][a] = value
                fees[greedy] = greedy_fees
                best_scheme = ActionwiseScheme(
                    tuple(tuple(row) for row in fees), kernel
                )
    if best is None or best <= 0 or best_scheme is None:
        return None
    income = verify_actionwise(game, p, best_scheme)
    if income != best:
        raise RuntimeError("search bookkeeping disagrees with verification")
    return best


def random_game(rng: random.Random, max_players: int = 3, max_actions: int = 3) -> Game:
    """A small random game with uniform small-rational payoffs."""
    n = rng.randint(2, max_players)
    players = tuple(f"P{i + 1}" for i in range(n))
    actions = tuple(
        tuple("abc"[: rng.randint(2, max_actions)]) for _ in range(n)
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


def cross_check(game: Game, p: MarginalProfile, verdict, seed: int = 0) -> None:
    """Raise OracleDisagreement if a verdict of either test contradicts the
    independent checks. Used by the command-line `--oracle` flag.

    A compatible verdict must carry a witness that `verify_witness`
    accepts, and the `random_ce` round trip must hold: the marginals of
    the equilibrium sampled under `seed` must come back compatible. An
    IsNash verdict must pass the direct best-response check, and the
    product of its profile the incentive inequalities. An exploitable
    verdict's scheme is re-verified by the checker of its kind, and its
    income must be positive and equal to the verdict's; a profile-wise
    (Nash) verdict must also fail the best-response check. The grid
    scans are not run here: their work has no bound, and by weak duality
    neither can overturn a verified certificate. A witness q gives every
    feasible scheme the income E_p[fees] = E_q[fees] <= E_q[surplus] <= 0,
    and a verified scheme with positive income rules out every witness in
    the same way."""
    if isinstance(verdict, Compatible):
        if not verify_witness(game, p, verdict.witness):
            raise OracleDisagreement("compatible verdict carries a bad witness")
        sampled = random_ce(game, seed)
        if not isinstance(test_ce_compatibility(game, sampled.marginals()), Compatible):
            raise OracleDisagreement(
                "marginals of a sampled equilibrium judged incompatible"
            )
    elif isinstance(verdict, IsNash):
        if not is_nash(game, p):
            raise OracleDisagreement("IsNash verdict fails the best-response check")
        if not is_correlated_equilibrium(game, product_distribution(p)):
            raise OracleDisagreement(
                "product of an equilibrium profile fails the incentive inequalities"
            )
    elif isinstance(verdict, Exploitable):
        checker = verify_actionwise
        if isinstance(verdict.scheme, ProfilewiseScheme):
            checker = verify_profilewise
            if is_nash(game, p):
                raise OracleDisagreement("exploitable verdict on an equilibrium profile")
        try:
            income = checker(game, p, verdict.scheme)
        except SchemeViolation as exc:
            raise OracleDisagreement(f"exploitable verdict carries a bad scheme: {exc}")
        if income != verdict.expected_profit or income <= 0:
            raise OracleDisagreement("exploitable verdict income does not check out")
    else:
        raise TypeError(f"not a verdict: {verdict!r}")
