"""Core data model for finite simultaneous-move games.

Payoffs, probabilities and fees are `fractions.Fraction` in every public
value, so every equilibrium check in this package is exact: a profile
either is or is not an equilibrium, with no tolerance anywhere. Floats
are rejected at the boundary because a binary float silently rounds
decimal input. The certificates and verdicts (`ActionwiseScheme`,
`ProfilewiseScheme`, `Compatible`, `IsNash`, `Exploitable`) are model
types too, so the judge in `verify` needs nothing but this module.

Action profiles are plain tuples of per-player action indices. Flat
(tensor) indexing is row-major over those tuples: player 0's index varies
slowest, the last player's fastest. All file formats and tables in this
package use that order, and `flat_index` is its one indexer: a profile of
the wrong length or with an action out of range raises ValueError.

A game stores its payoffs as integers, and the hot loops run on them. A
line of player i is the k_i profiles that differ only in i's action, at
flat indices `start + a * strides[i]`. `Game.int_payoffs` gives each line
one common denominator, the lcm of its own k_i payoff denominators, and
every payoff on it an integer numerator. A tensor-wide common denominator
would grow with the number of distinct denominators in the whole game; a
line-local one grows only with those k_i. This view is canonical, so it
also decides equality and hashing. `Game.from_ratios` builds it straight
from integer pairs, as `dataio.parse_game` does, and the Fraction
`Game.payoffs` is then a read-only view made on first read. A game built
from Fractions keeps them as that view and derives the integer one on
first read. `surplus_parts` computes every profile's deviation surplus
from the integer view as an unreduced integer ratio, a column at a time:
for each player and recommended action, one pass over all of that
player's lines per nonzero kernel weight. `verify.is_correlated_equilibrium`,
`nash`'s best-response search and `correlated`'s fee fill read the
integer view too. `common_denominator` puts probabilities and fees over the
lcm of their denominators in the same way, as `JointDistribution.marginals`
does to sum every marginal in one integer pass and as the validation of
every distribution (a marginal row, a joint distribution, a kernel row)
does to check that its numerators sum to that lcm.
`independent_play` is the one integer walk over independent play, and
`check_shape` the one test that an object has the game's shape.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterator, Sequence

Profile = tuple[int, ...]


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or 'n/d'/decimal string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            "refusing float %r: pass an int, a Fraction, or a string" % (value,)
        )
    return Fraction(value)


def common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of `values` over the lcm of their denominators,
    and that lcm."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def quoted(value) -> str:
    """`repr` of `value` for an error line, with at most 40 of its characters."""
    text = value if isinstance(value, str) else repr(value)
    shown = text if len(text) <= 40 else text[:40] + "…"
    return repr(shown) if isinstance(value, str) else shown


def _fraction_tuple(values) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


def flat_index(shape: Sequence[int], profile: Profile) -> int:
    """Row-major index of `profile` in a tensor of `shape`; ValueError
    unless it names one in-range action per player."""
    if len(profile) != len(shape):
        raise ValueError("profile length does not match player count")
    flat = 0
    for a, k in zip(profile, shape):
        if not 0 <= a < k:
            raise ValueError(f"action index {a} out of range for {k} actions")
        flat = flat * k + a
    return flat


def replace(profile: Profile, i: int, action: int) -> Profile:
    """Return `profile` with player `i`'s action swapped for `action`."""
    return profile[:i] + (action,) + profile[i + 1 :]


class Game:
    """A finite normal-form game with exact rational payoffs.

    `payoffs[i][k]` is player `i`'s payoff at the k-th action profile in
    row-major order. Player and action identity is positional; labels are
    only used by the file formats and the CLI. A game is immutable, and
    two games are equal when their players, actions and payoff values are.
    """

    def __init__(self, players, actions, payoffs):
        payoffs = tuple(_fraction_tuple(row) for row in payoffs)
        self._check(players, actions, payoffs)
        vars(self)["payoffs"] = payoffs

    @classmethod
    def from_ratios(cls, players, actions, ratios) -> "Game":
        """The game whose payoff `payoffs[i][k]` is `n / d` for the integer
        pair `ratios[i][k] == (n, d)`, where `d > 0`. Builds `int_payoffs`
        straight from the pairs, with no Fraction."""
        game = cls.__new__(cls)
        ratios = tuple(map(tuple, ratios))
        game._check(players, actions, ratios)
        vars(game)["int_payoffs"] = game._line_view(ratios)
        return game

    def _check(self, players, actions, payoffs) -> None:
        """Validate the game and set its players, actions, shape and strides."""
        players = tuple(players)
        actions = tuple(tuple(labels) for labels in actions)
        if not players:
            raise ValueError("game needs at least one player")
        if len(set(players)) != len(players):
            raise ValueError("duplicate player id")
        if len(actions) != len(players) or len(payoffs) != len(players):
            raise ValueError("actions and payoffs must list one entry per player")
        for labels in actions:
            if not labels:
                raise ValueError("every player needs at least one action")
            if len(set(labels)) != len(labels):
                raise ValueError("duplicate action label for a player")
        shape = tuple(len(labels) for labels in actions)
        size = prod(shape)
        for who, row in zip(map(quoted, players), payoffs):
            if len(row) != size:
                raise ValueError(
                    f"payoff tensor for {who} has {len(row)} entries, expected {size}"
                )
        strides = tuple(prod(shape[i + 1 :]) for i in range(len(shape)))
        vars(self).update(
            players=players, actions=actions, shape=shape, strides=strides
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        # The line-local view is canonical: equal payoffs give equal views.
        return self.players, self.actions, self.int_payoffs

    def __repr__(self):
        return (
            f"Game(players={self.players!r}, actions={self.actions!r}, "
            f"payoffs={self.payoffs!r})"
        )

    @property
    def num_players(self) -> int:
        return len(self.players)

    @property
    def num_profiles(self) -> int:
        return prod(self.shape)

    def profiles(self) -> Iterator[Profile]:
        """All action profiles in row-major order."""
        return itertools.product(*(range(k) for k in self.shape))

    def flat_index(self, profile: Profile) -> int:
        return flat_index(self.shape, profile)

    def line_starts(self, i: int) -> list[int]:
        """Flat index of the profile where player `i` plays action 0, for
        every line of `i`, in row-major order of the other players'
        actions."""
        step = self.strides[i]
        block = step * self.shape[i]
        return [
            top + low
            for top in range(0, self.num_profiles, block)
            for low in range(step)
        ]

    @cached_property
    def int_payoffs(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per player `i`, `(numerators, denominators)` with
        `payoffs[i][flat] == numerators[flat] / denominators[flat]`.

        The profiles on one line of `i` share their denominator, the lcm
        of that line's payoff denominators. This is the game's payoff
        store; a game built from Fractions derives it on first read."""
        return self._line_view(
            [[(v.numerator, v.denominator) for v in row] for row in self.payoffs]
        )

    @cached_property
    def payoffs(self) -> tuple[tuple[Fraction, ...], ...]:
        """The payoffs as Fractions, read from `int_payoffs` on first use."""
        return tuple(tuple(map(Fraction, *row)) for row in self.int_payoffs)

    def _line_view(self, ratios):
        """`int_payoffs` from per-player `(numerator, denominator)` pairs
        with positive denominators: one lcm and one gcd per line. Over the
        lcm D of a line's denominators, the gcd of D and the numerators is
        D over the lcm of the reduced denominators, so dividing by it gives
        the same view however the pairs were reduced."""
        view = []
        for i, row in enumerate(ratios):
            step = self.strides[i]
            nums = [0] * len(row)
            dens = [1] * len(row)
            for start in self.line_starts(i):
                line = slice(start, start + self.shape[i] * step, step)
                pairs = row[line]
                den = lcm(*(d for _, d in pairs))
                line_nums = [n * (den // d) for n, d in pairs]
                common = gcd(den, *line_nums)
                nums[line] = [n // common for n in line_nums]
                dens[line] = [den // common] * len(pairs)
            view.append((tuple(nums), tuple(dens)))
        return tuple(view)

    def profile_labels(self, profile: Profile) -> tuple[str, ...]:
        self.flat_index(profile)
        return tuple(self.actions[i][a] for i, a in enumerate(profile))

    def utility(self, i: int, profile: Profile) -> Fraction:
        """Player `i`'s payoff at `profile`, exactly."""
        if not 0 <= i < self.num_players:
            raise ValueError(f"unknown player index {i}")
        return self.payoffs[i][self.flat_index(profile)]

    def action_index(self, i: int, label: str) -> int:
        try:
            return self.actions[i].index(label)
        except ValueError:
            raise ValueError(
                f"unknown action {quoted(label)} for player {quoted(self.players[i])}"
            ) from None


def _check_distribution(values: Sequence[Fraction], what: str) -> None:
    if any(v.numerator < 0 for v in values):
        raise ValueError(f"{what} has a negative entry")
    nums, den = common_denominator(values)
    if sum(nums) != den:
        raise ValueError(f"{what} does not sum to 1")


@dataclass(frozen=True)
class MarginalProfile:
    """One exact probability distribution per player over own actions."""

    probs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        probs = tuple(_fraction_tuple(row) for row in self.probs)
        for k, row in enumerate(probs):
            _check_distribution(row, f"marginal distribution of player {k}")
        object.__setattr__(self, "probs", probs)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.probs)

    def support(self, i: int) -> tuple[int, ...]:
        return tuple(a for a, v in enumerate(self.probs[i]) if v > 0)


@dataclass(frozen=True)
class JointDistribution:
    """An exact distribution over full action profiles, stored row-major."""

    shape: tuple[int, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        shape = tuple(int(k) for k in self.shape)
        if any(k < 1 for k in shape):
            raise ValueError("every player needs at least one action")
        probs = _fraction_tuple(self.probs)
        if len(probs) != prod(shape):
            raise ValueError("joint distribution length does not match shape")
        _check_distribution(probs, "joint distribution")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def point_mass(cls, shape: Sequence[int], profile: Profile) -> "JointDistribution":
        shape = tuple(shape)
        probs = [Fraction(0)] * prod(shape)
        probs[flat_index(shape, profile)] = Fraction(1)
        return cls(shape, tuple(probs))

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*(range(k) for k in self.shape))

    def prob(self, profile: Profile) -> Fraction:
        return self.probs[flat_index(self.shape, profile)]

    def marginal(self, i: int) -> tuple[Fraction, ...]:
        """Sum out everyone but player `i`."""
        if not 0 <= i < len(self.shape):
            raise ValueError(f"unknown player index {i}")
        return self.marginals().probs[i]

    def marginals(self) -> MarginalProfile:
        """Every player's marginal, summed over q's common denominator."""
        mass, scale = common_denominator(self.probs)
        sums = [[0] * k for k in self.shape]
        for profile, m in zip(self.profiles(), mass):
            if m:
                for row, a in zip(sums, profile):
                    row[a] += m
        return MarginalProfile([[Fraction(s, scale) for s in row] for row in sums])


@dataclass(frozen=True)
class DeviationKernel:
    """Per-player row-stochastic maps from a recommended action to a
    replacement distribution. `rows[i][a][b]` is the probability that
    player `i`, told to play `a`, plays `b` instead."""

    rows: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(_fraction_tuple(row) for row in player_rows)
            for player_rows in self.rows
        )
        for i, player_rows in enumerate(rows):
            k = len(player_rows)
            for a, row in enumerate(player_rows):
                if len(row) != k:
                    raise ValueError(f"kernel for player {i} is not square")
                _check_distribution(row, f"kernel row ({i},{a})")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(player_rows) for player_rows in self.rows)


def check_shape(game: Game, *parts) -> None:
    """ValueError unless each of `parts` (a marginal profile, a joint
    distribution or a kernel) has the game's shape."""
    for part in parts:
        if part.shape != game.shape:
            raise ValueError(f"{type(part).__name__} shape does not match game")


def independent_play(shape, rows) -> tuple[list[tuple[int, int]], int]:
    """Row-major `(flat index, integer weight)` of every profile of `shape`
    that players playing `rows[j]` independently reach, and the weights'
    one denominator. A row `(1,)` pins a player to action 0."""
    cells, den = [(0, 1)], 1
    for row, k in zip(rows, shape):
        weights, scale = common_denominator(row)
        den *= scale
        cells = [
            (flat * k + a, weight * w)
            for flat, weight in cells
            for a, w in enumerate(weights)
            if w
        ]
    return cells, den


def product_distribution(p: MarginalProfile) -> JointDistribution:
    """Independent joint distribution with marginals `p`."""
    probs = [Fraction(0)] * prod(p.shape)
    cells, den = independent_play(p.shape, p.probs)
    for flat, weight in cells:
        probs[flat] = Fraction(weight, den)
    return JointDistribution(p.shape, probs)


def surplus(game: Game, kernel: DeviationKernel, profile: Profile) -> Fraction:
    """Aggregate gain across players when each unilaterally swaps the
    action recommended at `profile` for their kernel row's mixture.

    This is the single-profile reference definition, in plain Fraction
    arithmetic; `surplus_parts` and `surplus_table` compute the same values
    at every profile from the integer payoff view."""
    check_shape(game, kernel)
    game.flat_index(profile)
    total = Fraction(0)
    for i in range(game.num_players):
        row = kernel.rows[i][profile[i]]
        expected = Fraction(0)
        for b, weight in enumerate(row):
            if weight:
                expected += weight * game.utility(i, replace(profile, i, b))
        total += expected - game.utility(i, profile)
    return total


def surplus_parts(game: Game, kernel: DeviationKernel) -> tuple[list[int], list[int]]:
    """`surplus` at every profile, row-major, as unreduced integer
    numerators and positive integer denominators.

    Player i's kernel rows are scaled to integers by the lcm L of their
    denominators. On a line of i with integer payoffs n and denominator d,
    the term of recommended action a is (sum_b L*r_ab*n_b - L*n_a) / (L*d).
    The terms of one a on every line of i are formed together, one list
    pass per nonzero weight over the column of the b it weighs: the payoff
    where i plays b, one entry per line. Then they are merged line by
    line: a zero term is skipped; a term whose denominator equals the
    profile's running one adds its numerator, any other is cross-multiplied
    in.
    """
    check_shape(game, kernel)
    size = game.num_profiles
    nums = [0] * size
    dens = [1] * size
    for i, (player_rows, (pay, pay_dens)) in enumerate(
        zip(kernel.rows, game.int_payoffs)
    ):
        k, step = len(player_rows), game.strides[i]
        # columns[b]: i's payoff where i plays b, one per line, in the order
        # of `line_starts(i)`; for the last player and player 0, a slice.
        if step == 1:
            starts = range(0, size, k)
            columns = [pay[b::k] for b in range(k)]
        elif step * k == size:
            starts = range(step)
            columns = [pay[b * step : (b + 1) * step] for b in range(k)]
        else:
            starts = game.line_starts(i)
            columns = [[pay[s + b * step] for s in starts] for b in range(k)]
        scale = lcm(*[w.denominator for row in player_rows for w in row])
        line_dens = [scale * pay_dens[start] for start in starts]
        for a, row in enumerate(player_rows):
            weights = [w.numerator * (scale // w.denominator) for w in row]
            weights[a] -= scale
            gains = None
            for w, column in zip(weights, columns):
                if not w:
                    continue
                if gains is None:
                    gains = [w * x for x in column]
                else:
                    gains = [g + w * x for g, x in zip(gains, column)]
            if gains is None:
                continue
            offset = a * step
            for start, gain, den in zip(starts, gains, line_dens):
                if not gain:
                    continue
                flat = start + offset
                if dens[flat] == den:
                    nums[flat] += gain
                else:
                    nums[flat] = nums[flat] * den + gain * dens[flat]
                    dens[flat] *= den
    return nums, dens


def surplus_table(game: Game, kernel: DeviationKernel) -> tuple[Fraction, ...]:
    """`surplus` at every profile, row-major."""
    return tuple(map(Fraction, *surplus_parts(game, kernel)))


@dataclass(frozen=True)
class ActionwiseScheme:
    """Per-player fees indexed by own action, plus a deviation kernel.

    Feasibility means: at every action profile, total utility plus total
    fees is at most the total utility after each player unilaterally
    follows their kernel row. Equivalently the fee sum never exceeds the
    aggregate deviation surplus.
    """

    fees: tuple[tuple[Fraction, ...], ...]
    kernel: DeviationKernel

    def __post_init__(self):
        fees = tuple(tuple(as_fraction(v) for v in row) for row in self.fees)
        if tuple(len(row) for row in fees) != self.kernel.shape:
            raise ValueError("fee table shape does not match kernel")
        object.__setattr__(self, "fees", fees)


@dataclass(frozen=True)
class ProfilewiseScheme:
    """An aggregate fee per full action profile plus a deviation kernel.

    Feasible when the fee at each profile is at most the aggregate
    deviation surplus there.
    """

    fee: tuple[Fraction, ...]
    kernel: DeviationKernel

    def __post_init__(self):
        object.__setattr__(self, "fee", tuple(as_fraction(v) for v in self.fee))


@dataclass(frozen=True)
class Compatible:
    witness: JointDistribution


@dataclass(frozen=True)
class IsNash:
    pass


@dataclass(frozen=True)
class Exploitable:
    """Either test's verdict on exploitable play: a feasible scheme with
    positive expected income, action-wise from
    `correlated.test_ce_compatibility` and profile-wise from
    `nash.test_nash_exploitability`."""

    scheme: ActionwiseScheme | ProfilewiseScheme
    expected_profit: Fraction
