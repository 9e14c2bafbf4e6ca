"""Core data model for finite simultaneous-move games.

Payoffs, probabilities and fees are `fractions.Fraction` throughout, so
every equilibrium check in this package is exact: a profile either is or
is not an equilibrium, with no tolerance anywhere. Floats are rejected at
the boundary because a binary float silently rounds decimal input.

Action profiles are plain tuples of per-player action indices. Flat
(tensor) indexing is row-major over those tuples: player 0's index varies
slowest, the last player's fastest. All file formats and tables in this
package use that order.

Fractions stay at the boundary; the hot loops run on integers. A line of
player i is the k_i profiles that differ only in i's action, at flat
indices `start + a * strides[i]`. `Game.int_payoffs` gives each line one
common denominator, the lcm of its own k_i payoff denominators, and every
payoff on it an integer numerator. A tensor-wide common denominator would
grow with the number of distinct denominators in the whole game; a
line-local one grows only with those k_i. `surplus_parts` computes every
profile's deviation surplus from that view as an unreduced integer ratio.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
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


def _fraction_tuple(values) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


def replace(profile: Profile, i: int, action: int) -> Profile:
    """Return `profile` with player `i`'s action swapped for `action`."""
    return profile[:i] + (action,) + profile[i + 1 :]


@dataclass(frozen=True)
class Game:
    """A finite normal-form game with exact rational payoffs.

    `payoffs[i][k]` is player `i`'s payoff at the k-th action profile in
    row-major order. Player and action identity is positional; labels are
    only used by the file formats and the CLI.
    """

    players: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    payoffs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        players = tuple(self.players)
        actions = tuple(tuple(labels) for labels in self.actions)
        payoffs = tuple(_fraction_tuple(row) for row in self.payoffs)
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
        size = prod(len(labels) for labels in actions)
        for who, row in zip(players, payoffs):
            if len(row) != size:
                raise ValueError(
                    f"payoff tensor for {who!r} has {len(row)} entries, expected {size}"
                )
        object.__setattr__(self, "players", players)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "payoffs", payoffs)
        shape = tuple(len(labels) for labels in actions)
        strides = []
        acc = 1
        for k in reversed(shape):
            strides.append(acc)
            acc *= k
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "strides", tuple(reversed(strides)))

    @property
    def num_players(self) -> int:
        return len(self.players)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def num_profiles(self) -> int:
        return prod(self.shape)

    def profiles(self) -> Iterator[Profile]:
        """All action profiles in row-major order."""
        return itertools.product(*(range(k) for k in self.shape))

    def flat_index(self, profile: Profile) -> int:
        shape = self._shape
        if len(profile) != len(shape):
            raise ValueError("profile length does not match player count")
        flat = 0
        for a, k, stride in zip(profile, shape, self.strides):
            if not 0 <= a < k:
                raise ValueError(f"action index {a} out of range for {k} actions")
            flat += a * stride
        return flat

    def line_starts(self, i: int) -> list[int]:
        """Flat index of the profile where player `i` plays action 0, for
        every line of `i`, in row-major order of the other players'
        actions."""
        step = self.strides[i]
        block = step * self._shape[i]
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
        of that line's payoff denominators. Computed once per game.
        """
        view = []
        for i, row in enumerate(self.payoffs):
            step = self.strides[i]
            nums = [0] * len(row)
            dens = [1] * len(row)
            for start in self.line_starts(i):
                line = range(start, start + self._shape[i] * step, step)
                den = lcm(*(row[f].denominator for f in line))
                for f in line:
                    nums[f] = row[f].numerator * (den // row[f].denominator)
                    dens[f] = den
            view.append((tuple(nums), tuple(dens)))
        return tuple(view)

    def profile_labels(self, profile: Profile) -> tuple[str, ...]:
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
                f"unknown action {label!r} for player {self.players[i]!r}"
            ) from None


def _check_distribution(values: Sequence[Fraction], what: str) -> None:
    if any(v < 0 for v in values):
        raise ValueError(f"{what} has a negative entry")
    if sum(values) != 1:
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
        flat = 0
        for a, k in zip(profile, shape):
            flat = flat * k + a
        probs[flat] = Fraction(1)
        return cls(shape, tuple(probs))

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*(range(k) for k in self.shape))

    def prob(self, profile: Profile) -> Fraction:
        flat = 0
        for a, k in zip(profile, self.shape):
            if not 0 <= a < k:
                raise ValueError("action index out of range")
            flat = flat * k + a
        return self.probs[flat]

    def marginal(self, i: int) -> tuple[Fraction, ...]:
        """Sum out everyone but player `i`."""
        if not 0 <= i < len(self.shape):
            raise ValueError(f"unknown player index {i}")
        k = self.shape[i]
        stride = prod(self.shape[i + 1 :])
        sums = [Fraction(0)] * k
        for flat, v in enumerate(self.probs):
            if v:
                sums[flat // stride % k] += v
        return tuple(sums)

    def marginals(self) -> MarginalProfile:
        return MarginalProfile(tuple(self.marginal(i) for i in range(len(self.shape))))


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
                if any(v < 0 for v in row):
                    raise ValueError(f"kernel row ({i},{a}) has a negative entry")
                if sum(row) != 1:
                    raise ValueError(f"kernel row ({i},{a}) does not sum to 1")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, shape: Sequence[int]) -> "DeviationKernel":
        zero, one = Fraction(0), Fraction(1)
        return cls(
            tuple(
                tuple(
                    tuple(one if b == a else zero for b in range(k)) for a in range(k)
                )
                for k in shape
            )
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(player_rows) for player_rows in self.rows)


def product_distribution(p: MarginalProfile) -> JointDistribution:
    """Independent joint distribution with marginals `p`."""
    probs = tuple(
        prod(p.probs[i][a] for i, a in enumerate(profile))
        for profile in itertools.product(*(range(k) for k in p.shape))
    )
    return JointDistribution(p.shape, probs)


def surplus(game: Game, kernel: DeviationKernel, profile: Profile) -> Fraction:
    """Aggregate gain across players when each unilaterally swaps the
    action recommended at `profile` for their kernel row's mixture.

    This is the single-profile reference definition, in plain Fraction
    arithmetic; `surplus_parts` and `surplus_table` compute the same values
    at every profile from the integer payoff view."""
    if kernel.shape != game.shape:
        raise ValueError("kernel shape does not match game")
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
    A zero term is skipped; a term whose denominator equals the profile's
    running one adds its numerator, any other is cross-multiplied in.
    """
    if kernel.shape != game.shape:
        raise ValueError("kernel shape does not match game")
    nums = [0] * game.num_profiles
    dens = [1] * game.num_profiles
    for i, (player_rows, (pay, pay_dens)) in enumerate(
        zip(kernel.rows, game.int_payoffs)
    ):
        scale = lcm(*(w.denominator for row in player_rows for w in row))
        step = game.strides[i]
        # Per recommended action: (flat offset of b, nonzero L*r_ab - L*[a == b]).
        moves = []
        for a, row in enumerate(player_rows):
            weights = [w.numerator * (scale // w.denominator) for w in row]
            weights[a] -= scale
            moves.append([(b * step, w) for b, w in enumerate(weights) if w])
        for start in game.line_starts(i):
            den = scale * pay_dens[start]
            for a, terms in enumerate(moves):
                gain = sum(w * pay[start + offset] for offset, w in terms)
                if not gain:
                    continue
                flat = start + a * step
                if dens[flat] == den:
                    nums[flat] += gain
                else:
                    nums[flat] = nums[flat] * den + gain * dens[flat]
                    dens[flat] *= den
    return nums, dens


def surplus_table(game: Game, kernel: DeviationKernel) -> tuple[Fraction, ...]:
    """`surplus` at every profile, row-major."""
    return tuple(map(Fraction, *surplus_parts(game, kernel)))
