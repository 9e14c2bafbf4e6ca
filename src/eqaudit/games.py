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
line-local one grows only with those k_i. The view is reduced a column
at a time: a column of player i holds one entry per line, where i plays
one action, so every line's lcm and gcd are one `map` over the columns.

Every model type is held so, as a canonical integer store: the game's
line view, `MarginalProfile.int_rows` and `DeviationKernel.int_rows`
(each row over its own lcm), `JointDistribution.int_probs` (over one
denominator), `ActionwiseScheme.int_fees` (each player's fees over their
lcm) and `ProfilewiseScheme.int_fee` (one reduced pair per profile).
Each type has one `_store`, which validates in integers (positive
denominators, non-negative entries, rows that sum to their lcm,
squareness, lengths), a row of a distribution or fee table in one call
that builds an error's text only once a check fails. The constructor
reaches it from ints, Fractions or 'n/d' strings, kept as the type's
Fraction field (`payoffs`, `probs`, `rows`, `fees`, `fee`).
`from_columns`, which `dataio` and the analyzers use, hands it every row
as integer columns `(numerators, denominators)` and makes no Fraction;
there the Fraction field is a read-only view made on first read. The
store alone decides equality, hashing and pickling (`_Frozen`).

`surplus_parts` computes every profile's deviation surplus from the
integer views as an unreduced integer ratio, a column at a time: for
each player and recommended action, one pass over all of that player's
lines per nonzero kernel weight, with each kernel row over its own
denominator. The checkers, `nash`'s best-response search and
`correlated`'s fee fill read the integer payoffs too, and `marginals`
sums a `JointDistribution`'s marginals in one pass over its support.
`independent_play` is the one integer walk over independent play, on
`MarginalProfile.int_rows`, `payoff_numerators` the one table of every
player's expected payoffs against it, which the producers in `nash` and
`correlated` build once per call, `check_shape` the one test that an
object has the game's shape, and `_check_player` of a player index.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import floordiv, index, mul
from typing import Iterator, Sequence

Profile = tuple[int, ...]
_UNEVEN = "{} has a row whose columns differ in length"


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or 'n/d'/decimal string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            "refusing float %r: pass an int, a Fraction, or a string" % (value,)
        )
    return Fraction(value)


def quoted(value) -> str:
    """`repr` of `value` for an error line, with at most 40 of its characters."""
    text = value if isinstance(value, str) else repr(value)
    shown = text if len(text) <= 40 else text[:40] + "…"
    return repr(shown) if isinstance(value, str) else shown


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


def _check_player(i: int, count: int) -> None:
    """ValueError unless `i` indexes one of `count` players; -1 does not."""
    if not 0 <= i < count:
        raise ValueError(f"unknown player index {i}")


def replace(profile: Profile, i: int, action: int) -> Profile:
    """Return `profile` with player `i`'s action swapped for `action`."""
    return profile[:i] + (action,) + profile[i + 1 :]


class _Frozen:
    """Base of the model types that keep an integer store.

    `_KEY` names the attributes that make up the canonical value: the
    integer store and whatever fixes its shape. Equality, hashing and
    pickling read those alone. Every other attribute, a Fraction view
    among them, is kept from the constructor's arguments or is a
    `cached_property` made on first read, so a pickle never carries one.
    `repr` shows the public fields, `_FIELDS`."""

    _KEY: tuple[str, ...] = ()
    _FIELDS: tuple[str, ...] = ()
    # The argument that holds the rationals, how many list levels deep
    # its rows are, and the Fraction field that views them; `_store`
    # names that argument after the field, so its TypeError names it too.
    _RATIOS: tuple[int, int, str]

    def __init__(self, *args):
        """Build from the rationals as ints, Fractions or 'n/d' strings
        (floats refused), kept as the Fraction field; the store is built
        from their integer columns."""
        at, depth, view = self._RATIOS
        if len(args) <= at:
            raise TypeError(
                f"{type(self).__name__}() missing required argument {view!r}"
            )
        values, columns = _read(args[at], depth)
        self._store(*args[:at], columns, *args[at + 1 :])
        vars(self)[view] = values

    @classmethod
    def from_columns(cls, *args):
        """The object the constructor would build, with every row of
        rationals given as integer columns `(numerators, denominators)`
        of equal length, for `n / d` where `d > 0`; no Fraction is made,
        and the store is validated with the constructor's messages."""
        obj = cls.__new__(cls)
        obj._store(*args)
        return obj

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._KEY)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __getstate__(self):
        return dict(zip(self._KEY, self._key()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__name__}({fields})"


def _read(values, depth: int):
    """Rationals in rows nested `depth` lists deep, as Fractions, and the
    same rows as integer columns `(numerators, denominators)`."""
    if depth:
        rows = [_read(row, depth - 1) for row in values]
        return tuple(view for view, _ in rows), [columns for _, columns in rows]
    values = tuple(map(as_fraction, values))
    return values, ([v.numerator for v in values], [v.denominator for v in values])


def _over_lcm(owner, columns, what: str, *at, distribution: bool = True):
    """A row of rationals `n / d`, as integer columns `(numerators,
    denominators)`, over the lcm of its reduced denominators: the lcm D of
    the d over the gcd of D and the numerators. A row whose every d is D > 0
    is not rescaled. ValueError unless the columns are as long, every d is
    positive and, for a `distribution`, the entries are non-negative and
    sum to 1; the text, naming the row `what.format(*at)` or, for unequal
    columns, `owner`'s type, is built only then."""
    nums, dens = columns
    if len(nums) != len(dens):
        raise ValueError(_UNEVEN.format(type(owner).__name__))
    den = lcm(*dens)
    if not den or dens.count(den) != len(dens):
        if min(dens) <= 0:
            raise ValueError(what.format(*at) + " has a non-positive denominator")
        nums = list(map(mul, nums, map(floordiv, itertools.repeat(den), dens)))
    common = gcd(den, *nums)
    if common != 1:
        nums, den = map(floordiv, nums, itertools.repeat(common)), den // common
    nums = tuple(nums)
    if distribution:
        if nums and min(nums) < 0:
            raise ValueError(what.format(*at) + " has a negative entry")
        if sum(nums) != den:
            raise ValueError(what.format(*at) + " does not sum to 1")
    return nums, den


_ZERO, _ONE = Fraction(0), Fraction(1)


def _fractions(nums, dens) -> tuple[Fraction, ...]:
    """The Fractions `n / d`, one shared object for every 0 and every 1:
    a Fraction view of a sparse witness, kernel or fee table is mostly
    those."""
    return tuple(
        _ZERO if not n else _ONE if n == d else Fraction(n, d)
        for n, d in zip(nums, dens)
    )


def _row_views(rows) -> tuple[tuple[Fraction, ...], ...]:
    """The Fraction view of `(numerators, denominator)` rows."""
    return tuple(_fractions(nums, itertools.repeat(den)) for nums, den in rows)


class Game(_Frozen):
    """A finite normal-form game with exact rational payoffs.

    `payoffs[i][k]` is player `i`'s payoff at the k-th action profile in
    row-major order. Player and action identity is positional; labels are
    only used by the file formats and the CLI. A game is immutable, and
    two games are equal when their players, actions and payoff values are.
    `Game.from_columns(players, actions, columns)` takes player i's
    payoffs as `columns[i] == (numerators, denominators)`. Both build
    `int_payoffs`, the same columns over line-local denominators.
    """

    _KEY = ("players", "actions", "int_payoffs")
    _FIELDS = ("players", "actions", "payoffs")
    _RATIOS = (2, 1, "payoffs")

    def _store(self, players, actions, payoffs) -> None:
        """Validate the game, set its players and actions, and build
        `int_payoffs` from per-player columns."""
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
        vars(self).update(players=players, actions=actions)
        size = self.num_profiles
        for who, (nums, dens) in zip(players, payoffs):
            if len(nums) != len(dens):
                raise ValueError(_UNEVEN.format(type(self).__name__))
            if len(nums) != size:
                raise ValueError(
                    f"payoff tensor for {quoted(who)} has {len(nums)} entries, "
                    f"expected {size}"
                )
        vars(self)["int_payoffs"] = self._line_view(payoffs)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.actions))

    @cached_property
    def strides(self) -> tuple[int, ...]:
        return tuple(prod(self.shape[i + 1 :]) for i in range(len(self.shape)))

    @property
    def num_players(self) -> int:
        return len(self.players)

    @property
    def num_profiles(self) -> int:
        return prod(self.shape)

    def profiles(self) -> Iterator[Profile]:
        """All action profiles in row-major order; `JointDistribution` shares it."""
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

    def _columns(self, i: int, values: Sequence) -> list[Sequence]:
        """`values`, one entry per profile in row-major order, cut into one
        column per action `b` of player `i`: the entries where `i` plays
        `b`, one per line of `i` in `line_starts` order. For the last
        player and for player 0 a column is one slice. For any other,
        `values` is cut into runs of `strides[i]` profiles that share
        `i`'s action, and every k-th run from run `b` is joined."""
        k, step = self.shape[i], self.strides[i]
        if step == 1:
            return [values[b::k] for b in range(k)]
        if step * k == len(values):
            return [values[b * step : (b + 1) * step] for b in range(k)]
        runs = list(zip(*[iter(values)] * step))
        return [list(itertools.chain.from_iterable(runs[b::k])) for b in range(k)]

    def _scatter(self, i: int, columns: Sequence[Sequence]) -> list:
        """The inverse of `_columns`: one column per action of player `i`
        joined back into one row-major list."""
        k, step = self.shape[i], self.strides[i]
        if step == 1:
            flat = [0] * self.num_profiles
            for b, column in enumerate(columns):
                flat[b::k] = column
            return flat
        if step * k == self.num_profiles:
            return list(itertools.chain.from_iterable(columns))
        runs = zip(*(zip(*[iter(column)] * step) for column in columns))
        return list(itertools.chain.from_iterable(itertools.chain.from_iterable(runs)))

    @cached_property
    def payoffs(self) -> tuple[tuple[Fraction, ...], ...]:
        """The payoffs as Fractions, read from `int_payoffs` on first use."""
        return tuple(tuple(map(Fraction, *row)) for row in self.int_payoffs)

    def _line_view(self, columns):
        """`int_payoffs` from per-player `(numerators, denominators)`, a
        column at a time (`_columns`): every line's lcm D in one
        `map(lcm, ...)` over the denominator columns, and the gcd of D and
        the numerators over it in one `map(gcd, ...)`. That gcd is D over
        the lcm of the reduced denominators, so dividing by it gives the
        same view however the values were reduced. ValueError unless every
        denominator is positive."""
        view = []
        for i, (nums, dens) in enumerate(columns):
            if min(dens) <= 0:
                raise ValueError(
                    f"payoff tensor for {quoted(self.players[i])} "
                    "has a non-positive denominator"
                )
            den_columns = self._columns(i, dens)
            lcms = list(map(lcm, *den_columns))
            scaled = [
                list(map(mul, column, map(floordiv, lcms, den_column)))
                for column, den_column in zip(self._columns(i, nums), den_columns)
            ]
            gcds = list(map(gcd, lcms, *scaled))
            if gcds.count(1) != len(gcds):  # a line not yet in lowest terms
                lcms = list(map(floordiv, lcms, gcds))
                scaled = [list(map(floordiv, column, gcds)) for column in scaled]
            view.append((
                tuple(self._scatter(i, scaled)),
                tuple(self._scatter(i, [lcms] * len(scaled))),
            ))
        return tuple(view)

    def profile_labels(self, profile: Profile) -> tuple[str, ...]:
        self.flat_index(profile)
        return tuple(self.actions[i][a] for i, a in enumerate(profile))

    def utility(self, i: int, profile: Profile) -> Fraction:
        """Player `i`'s payoff at `profile`, exactly."""
        _check_player(i, self.num_players)
        return self.payoffs[i][self.flat_index(profile)]

    def action_index(self, i: int, label: str) -> int:
        _check_player(i, self.num_players)
        try:
            return self.actions[i].index(label)
        except ValueError:
            raise ValueError(
                f"unknown action {quoted(label)} for player {quoted(self.players[i])}"
            ) from None


class MarginalProfile(_Frozen):
    """One exact probability distribution per player over own actions,
    stored as `int_rows[i]`, player i's `(numerators, denominator)`."""

    _KEY = ("int_rows",)
    _FIELDS = ("probs",)
    _RATIOS = (0, 1, "probs")

    def _store(self, probs) -> None:
        vars(self)["int_rows"] = tuple(
            _over_lcm(self, row, "marginal distribution of player {}", k)
            for k, row in enumerate(probs)
        )

    @cached_property
    def probs(self) -> tuple[tuple[Fraction, ...], ...]:
        """The probabilities as Fractions, read from `int_rows` on first use."""
        return _row_views(self.int_rows)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(nums) for nums, _den in self.int_rows)

    def support(self, i: int) -> tuple[int, ...]:
        _check_player(i, len(self.int_rows))
        return tuple(a for a, n in enumerate(self.int_rows[i][0]) if n)


class JointDistribution(_Frozen):
    """An exact distribution over full action profiles, stored row-major
    as `int_probs`, `(numerators, denominator)`."""

    _KEY = ("shape", "int_probs")
    _FIELDS = ("shape", "probs")
    _RATIOS = (1, 0, "probs")

    def _store(self, shape, probs) -> None:
        shape = tuple(map(index, shape))  # TypeError on a float
        if any(k < 1 for k in shape):
            raise ValueError("every player needs at least one action")
        int_probs = _over_lcm(self, probs, "joint distribution")
        if len(int_probs[0]) != prod(shape):
            raise ValueError("joint distribution length does not match shape")
        vars(self).update(shape=shape, int_probs=int_probs)

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        """The probabilities as Fractions, read from `int_probs` on first use."""
        nums, den = self.int_probs
        return _fractions(nums, itertools.repeat(den))

    @classmethod
    def point_mass(cls, shape: Sequence[int], profile: Profile) -> "JointDistribution":
        shape = tuple(shape)
        nums = [0] * prod(shape)
        nums[flat_index(shape, profile)] = 1
        return cls.from_columns(shape, (nums, [1] * len(nums)))

    profiles = Game.profiles

    def prob(self, profile: Profile) -> Fraction:
        return self.probs[flat_index(self.shape, profile)]

    def marginal(self, i: int) -> tuple[Fraction, ...]:
        """Sum out everyone but player `i`."""
        _check_player(i, len(self.shape))
        return self.marginals().probs[i]

    def marginals(self) -> MarginalProfile:
        """Every player's marginal, summed in integers over the support."""
        mass, scale = self.int_probs
        sums = [[0] * k for k in self.shape]
        support = itertools.compress(self.profiles(), mass)
        for profile, m in zip(support, filter(None, mass)):
            for row, a in zip(sums, profile):
                row[a] += m
        return MarginalProfile.from_columns([(row, [scale] * len(row)) for row in sums])


class DeviationKernel(_Frozen):
    """Per-player row-stochastic maps from a recommended action to a
    replacement distribution. `rows[i][a][b]` is the probability that
    player `i`, told to play `a`, plays `b` instead. Row `(i, a)` is
    stored as `int_rows[i][a]`, `(numerators, denominator)`."""

    _KEY = ("int_rows",)
    _FIELDS = ("rows",)
    _RATIOS = (0, 2, "rows")

    def _store(self, rows) -> None:
        store = []
        for i, player_rows in enumerate(rows):
            read = []
            for a, row in enumerate(player_rows):
                read.append(_over_lcm(self, row, "kernel row ({},{})", i, a))
                if len(read[-1][0]) != len(player_rows):
                    raise ValueError(f"kernel for player {i} is not square")
            store.append(tuple(read))
        vars(self)["int_rows"] = tuple(store)

    @cached_property
    def rows(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """The entries as Fractions, read from `int_rows` on first use."""
        return tuple(map(_row_views, self.int_rows))

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.int_rows))


def check_shape(game: Game, *parts) -> None:
    """ValueError unless each of `parts` (a marginal profile, a joint
    distribution or a kernel) has the game's shape."""
    for part in parts:
        if part.shape != game.shape:
            raise ValueError(f"{type(part).__name__} shape does not match game")


def independent_play(shape, rows) -> tuple[list[tuple[int, int]], int]:
    """Row-major `(flat index, integer weight)` of every profile of `shape`
    that players playing `rows[j]` independently reach, and the weights'
    one denominator. A row is `(numerators, denominator)`, as in
    `MarginalProfile.int_rows`; `((1,), 1)` pins a player to action 0."""
    cells, den = [(0, 1)], 1
    for (weights, scale), k in zip(rows, shape):
        den *= scale
        cells = [
            (flat * k + a, weight * w)
            for flat, weight in cells
            for a, w in enumerate(weights)
            if w
        ]
    return cells, den


def payoff_numerators(game: Game, p: MarginalProfile) -> list[tuple[list[int], int]]:
    """Each player's expected payoff for each own action against the
    independent mixture of everyone else: per player, integer numerators
    over one common positive denominator.

    `independent_play` with player i pinned to action 0 weights each line
    of i; the lines' `Game.int_payoffs` are put over one lcm. ValueError
    on a profile of the wrong shape."""
    check_shape(game, p)
    table = []
    for i, k in enumerate(game.shape):
        rows = p.int_rows[:i] + (((1,), 1),) + p.int_rows[i + 1 :]
        lines, den = independent_play(game.shape, rows)
        pay, pay_dens = game.int_payoffs[i]
        common = lcm(*(pay_dens[base] for base, _ in lines))
        step = game.strides[i]
        totals = [0] * k
        for base, weight in lines:
            weight *= common // pay_dens[base]
            line = pay[base : base + k * step : step]
            totals = [t + weight * n for t, n in zip(totals, line)]
        table.append((totals, den * common))
    return table


def product_distribution(p: MarginalProfile) -> JointDistribution:
    """Independent joint distribution with marginals `p`."""
    nums = [0] * prod(p.shape)
    cells, den = independent_play(p.shape, p.int_rows)
    for flat, weight in cells:
        nums[flat] = weight
    return JointDistribution.from_columns(p.shape, (nums, [den] * len(nums)))


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

    An identity row (`row[a] == den`: i plays a as told) adds nothing and
    is skipped, and so is a player whose rows all are. Every other row of
    player i, `int_rows[i][a]`, keeps its own denominator R. On a line of
    i with integer payoffs n and denominator d, the term of recommended
    action a is (sum_b r_ab*n_b - R*n_a) / (R*d). The terms of one a on
    every line of i are formed together, one list pass per nonzero weight
    over the column of the b it weighs: the payoff where i plays b, one
    entry per line (`Game._columns`). Then they are merged line by line:
    a zero term is skipped; a term whose denominator equals the profile's
    running one adds its numerator, any other is cross-multiplied in.
    """
    check_shape(game, kernel)
    size = game.num_profiles
    nums = [0] * size
    dens = [1] * size
    for i, (player_rows, (pay, pay_dens)) in enumerate(
        zip(kernel.int_rows, game.int_payoffs)
    ):
        moved = [
            (a, row, den) for a, (row, den) in enumerate(player_rows) if row[a] != den
        ]
        if not moved:
            continue
        step = game.strides[i]
        starts = game.line_starts(i)
        columns = game._columns(i, pay)
        line_dens = [pay_dens[start] for start in starts]
        for a, row, den in moved:
            weights = list(row)
            weights[a] -= den
            gains = None
            for w, column in zip(weights, columns):
                if not w:
                    continue
                if gains is None:
                    gains = [w * x for x in column]
                else:
                    gains = [g + w * x for g, x in zip(gains, column)]
            offset = a * step
            for start, gain, line_den in zip(starts, gains, line_dens):
                if not gain:
                    continue
                flat = start + offset
                line_den *= den
                if dens[flat] == line_den:
                    nums[flat] += gain
                else:
                    nums[flat] = nums[flat] * line_den + gain * dens[flat]
                    dens[flat] *= line_den
    return nums, dens


def surplus_table(game: Game, kernel: DeviationKernel) -> tuple[Fraction, ...]:
    """`surplus` at every profile, row-major."""
    return tuple(map(Fraction, *surplus_parts(game, kernel)))


class ActionwiseScheme(_Frozen):
    """Per-player fees indexed by own action, plus a deviation kernel.

    Feasibility means: at every action profile, total utility plus total
    fees is at most the total utility after each player unilaterally
    follows their kernel row. Equivalently the fee sum never exceeds the
    aggregate deviation surplus. Fees are stored as `int_fees[i]`, player
    i's `(numerators, denominator)`.
    """

    _KEY = ("int_fees", "kernel")
    _FIELDS = ("fees", "kernel")
    _RATIOS = (0, 1, "fees")

    def _store(self, fees, kernel: DeviationKernel) -> None:
        int_fees = tuple(
            _over_lcm(self, row, "fee table", distribution=False) for row in fees
        )
        if tuple(len(nums) for nums, _den in int_fees) != kernel.shape:
            raise ValueError("fee table shape does not match kernel")
        vars(self).update(int_fees=int_fees, kernel=kernel)

    @cached_property
    def fees(self) -> tuple[tuple[Fraction, ...], ...]:
        """The fees as Fractions, read from `int_fees` on first use."""
        return _row_views(self.int_fees)


class ProfilewiseScheme(_Frozen):
    """An aggregate fee per full action profile plus a deviation kernel.

    Feasible when the fee at each profile is at most the aggregate
    deviation surplus there. Fees are stored as `int_fee`, `(numerators,
    denominators)`, each fee a reduced integer pair.
    """

    _KEY = ("int_fee", "kernel")
    _FIELDS = ("fee", "kernel")
    _RATIOS = (0, 0, "fee")

    def _store(self, fee, kernel: DeviationKernel) -> None:
        nums, dens = fee
        if len(nums) != len(dens):
            raise ValueError(_UNEVEN.format(type(self).__name__))
        if min(dens, default=1) <= 0:
            raise ValueError("fee table has a non-positive denominator")
        common = list(map(gcd, nums, dens))
        nums, dens = map(floordiv, nums, common), map(floordiv, dens, common)
        vars(self).update(int_fee=(tuple(nums), tuple(dens)), kernel=kernel)

    @cached_property
    def fee(self) -> tuple[Fraction, ...]:
        """The fees as Fractions, read from `int_fee` on first use."""
        return _fractions(*self.int_fee)


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
