"""File formats for games, profiles, verdicts, certificates and play logs.

Everything structured is JSON with canonical serialization (sorted keys,
two-space indent, trailing newline), so identical values always produce
identical bytes. Rationals travel as strings like "7/4" or "9"; decimal
literals in input are converted exactly (0.1 becomes 1/10, never a binary
float). A decimal exponent may be at most `MAX_EXPONENT` (4300, Python's
default int-string digit limit) in magnitude: "1e4300" is read, "1e4301"
and "1e-1000000" are malformed, because the cost of building such a
number grows faster than its exponent. Bare JSON number literals follow
the same rules as strings: 1e4301 is malformed, and so is an integer of
more than 4300 digits, bare or inside a string. The error for a
malformed rational string quotes its first 40 characters at most.
Payoff tensors, joint
distributions and fee tables are flat lists in row-major profile order:
players in declaration order, actions in declaration order, last
player's action fastest.

Actions, payoffs, marginals, kernels and action-wise fees are per-player
tables: a JSON object with one list per game player and no other key,
each list as long as the player's action count where that is fixed. A
result with a rational over 4300 digits cannot be written and is reported
as malformed input.

Play logs are CSV with one column per player (header row holds player
ids). Columns may have different lengths; the histories are per player
and never aligned across players. Like a per-player table, a log needs a
column for every game player and no other: a header id that names no
player is malformed, and so is a non-empty cell past the last header
column. Empty cells are ignored.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .correlated import ActionwiseScheme, Compatible, Exploitable
from .games import DeviationKernel, Game, JointDistribution, MarginalProfile
from . import nash


class DataFormatError(ValueError):
    """Malformed input document."""


MAX_EXPONENT = 4300

# The form `rational_str` emits: an optional '-', ASCII digits, and
# optionally '/' and ASCII digits.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# The exponent of a decimal literal as `Fraction` reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _exponent_too_large(text: str) -> bool:
    match = _EXPONENT.search(text)
    if match is None:
        return False
    try:
        return abs(int(match.group(1))) > MAX_EXPONENT
    except ValueError:  # more digits than int() converts
        return True


def parse_rational(value) -> Fraction:
    """Exact rational from an int, decimal string, or 'n/d' string."""
    if isinstance(value, str):
        shown = value if len(value) <= 40 else value[:40] + "…"
        plain = _PLAIN_RATIONAL.fullmatch(value)
        if not plain and _exponent_too_large(value):
            raise DataFormatError(
                f"malformed rational {shown!r}: "
                f"exponent magnitude over {MAX_EXPONENT}"
            )
        try:
            if plain:
                num, den = plain.groups()
                return Fraction(int(num), int(den)) if den else Fraction(int(num))
            return Fraction(value)
        except ZeroDivisionError:
            raise DataFormatError(
                f"malformed rational {shown!r}: zero denominator"
            ) from None
        except ValueError:
            if _has_long_digit_run(value):  # more than int() converts
                raise _digit_limit_error() from None
            raise DataFormatError(f"malformed rational {shown!r}") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DataFormatError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    raise DataFormatError(f"cannot read a rational from {value!r}")


def rational_str(value: Fraction) -> str:
    try:
        return str(Fraction(value))
    except ValueError:  # more digits than int-to-str converts
        raise DataFormatError(
            "the result has a rational over the "
            f"{sys.get_int_max_str_digits()}-digit output limit"
        ) from None


def _has_long_digit_run(text: str) -> bool:
    limit = sys.get_int_max_str_digits()
    return any(len(run) > limit for run in re.findall(r"[0-9]+", text))


def _digit_limit_error() -> DataFormatError:
    return DataFormatError(
        "malformed number: an integer literal over the "
        f"{sys.get_int_max_str_digits()}-digit input limit"
    )


def _int_literal(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than str-to-int converts
        raise _digit_limit_error() from None


def _loads(text: str) -> dict:
    try:
        doc = json.loads(text, parse_float=parse_rational, parse_int=_int_literal)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DataFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DataFormatError("top-level JSON value must be an object")
    return doc


def canonical_json(doc) -> str:
    """Byte-stable serialization: sorted keys, two-space indent."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _require(doc: dict, key: str):
    if key not in doc:
        raise DataFormatError(f"missing field {key!r}")
    return doc[key]


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise DataFormatError(f"{what} must be a JSON object")
    return doc


def _checked(cls, *args):
    """`cls(*args)`, with a failed validation reported as malformed input."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None


def _parse_table(doc, players, what: str, item, sizes=None) -> tuple:
    """Read a per-player table: a JSON object with one list per player in
    `players`, of length `sizes[i]` when `sizes` is given, and no other
    key. Each list entry is read with `item`."""
    doc = _object(doc, what)
    rows = []
    for i, player in enumerate(players):
        if player not in doc:
            raise DataFormatError(f"no {what} for player {player!r}")
        row = doc[player]
        if not isinstance(row, list):
            raise DataFormatError(f"{what} for {player!r} must be a list")
        if sizes is not None and len(row) != sizes[i]:
            raise DataFormatError(f"{what} for {player!r} must list {sizes[i]} entries")
        rows.append(tuple(map(item, row)))
    if len(doc) > len(players):  # every player has an entry, so a key is extra
        unknown = min(doc.keys() - set(players))
        raise DataFormatError(f"{what} listed for unknown player {unknown!r}")
    return tuple(rows)


def _table_doc(players, rows, item=rational_str) -> dict:
    """Write a per-player table, the inverse of `_parse_table`."""
    return {player: [item(v) for v in row] for player, row in zip(players, rows)}


def _label(value) -> str:
    if not isinstance(value, str):
        raise DataFormatError("action labels must be strings")
    return value


def _rational_row(values) -> tuple[Fraction, ...]:
    if not isinstance(values, list):
        raise DataFormatError("kernel rows must be lists")
    return tuple(map(parse_rational, values))


def parse_game(text: str) -> Game:
    """Read a game document: players, per-player action lists, and one
    row-major payoff list per player."""
    doc = _loads(text)
    players = _require(doc, "players")
    if not isinstance(players, list) or not all(isinstance(p, str) for p in players):
        raise DataFormatError("'players' must be a list of strings")
    actions = _parse_table(_require(doc, "actions"), players, "actions", _label)
    payoffs = _parse_table(_require(doc, "payoffs"), players, "payoffs", parse_rational)
    return _checked(Game, tuple(players), actions, payoffs)


def emit_game(game: Game) -> str:
    return canonical_json(
        {
            "players": list(game.players),
            "actions": _table_doc(game.players, game.actions, str),
            "payoffs": _table_doc(game.players, game.payoffs),
        }
    )


def parse_marginals(text: str, game: Game) -> MarginalProfile:
    """Read one distribution per player, keyed by player id, values in
    action declaration order."""
    doc = _loads(text)
    rows = _parse_table(doc, game.players, "marginals", parse_rational, game.shape)
    return _checked(MarginalProfile, rows)


def emit_marginals(game: Game, p: MarginalProfile) -> str:
    return canonical_json(_table_doc(game.players, p.probs))


def _parse_kernel_doc(doc, game: Game) -> DeviationKernel:
    rows = _parse_table(doc, game.players, "kernel", _rational_row, game.shape)
    return _checked(DeviationKernel, rows)


def parse_kernel(text: str, game: Game) -> DeviationKernel:
    """Read a deviation kernel: per player, one row per source action."""
    return _parse_kernel_doc(_loads(text), game)


def _kernel_doc(game: Game, kernel: DeviationKernel) -> dict:
    return _table_doc(
        game.players, kernel.rows, lambda row: [rational_str(v) for v in row]
    )


def emit_kernel(game: Game, kernel: DeviationKernel) -> str:
    return canonical_json(_kernel_doc(game, kernel))


def _scheme_doc(game: Game, scheme) -> dict:
    if isinstance(scheme, ActionwiseScheme):
        return {
            "type": "actionwise",
            "fees": _table_doc(game.players, scheme.fees),
            "kernel": _kernel_doc(game, scheme.kernel),
        }
    if isinstance(scheme, nash.ProfilewiseScheme):
        return {
            "type": "profilewise",
            "fee": [rational_str(v) for v in scheme.fee],
            "kernel": _kernel_doc(game, scheme.kernel),
        }
    raise TypeError(f"not a transfer scheme: {scheme!r}")


def emit_scheme(game: Game, scheme) -> str:
    return canonical_json(_scheme_doc(game, scheme))


def _parse_scheme_doc(doc, game: Game):
    kind = _require(_object(doc, "scheme"), "type")
    kernel = _parse_kernel_doc(_require(doc, "kernel"), game)
    if kind == "actionwise":
        fees = _parse_table(
            _require(doc, "fees"), game.players, "fees", parse_rational, game.shape
        )
        return ActionwiseScheme(fees, kernel)
    if kind == "profilewise":
        fee = _profile_values(_require(doc, "fee"), game, "'fee'")
        return nash.ProfilewiseScheme(fee, kernel)
    raise DataFormatError(f"unknown scheme type {kind!r}")


def parse_scheme(text: str, game: Game):
    """Read a transfer scheme; returns an ActionwiseScheme or a
    ProfilewiseScheme depending on the document's 'type'."""
    return _parse_scheme_doc(_loads(text), game)


def _profile_values(values, game: Game, what: str) -> tuple[Fraction, ...]:
    if not isinstance(values, list) or len(values) != game.num_profiles:
        raise DataFormatError(
            f"{what} must list {game.num_profiles} values in row-major order"
        )
    return tuple(map(parse_rational, values))


def _joint_values(game: Game, values) -> JointDistribution:
    return _checked(
        JointDistribution, game.shape, _profile_values(values, game, "witness")
    )


def emit_verdict(game: Game, verdict) -> str:
    """Serialize any analyzer verdict."""
    if isinstance(verdict, Compatible):
        doc = {
            "verdict": "compatible",
            "witness": [rational_str(v) for v in verdict.witness.probs],
        }
    elif isinstance(verdict, Exploitable):
        doc = {
            "verdict": "exploitable",
            "expected_profit": rational_str(verdict.expected_profit),
            "scheme": _scheme_doc(game, verdict.scheme),
        }
    elif isinstance(verdict, nash.IsNash):
        doc = {"verdict": "nash"}
    else:
        raise TypeError(f"not a verdict: {verdict!r}")
    return canonical_json(doc)


def _verdict_from_doc(doc: dict, game: Game):
    kind = _require(doc, "verdict")
    if kind == "compatible":
        return Compatible(_joint_values(game, _require(doc, "witness")))
    if kind == "nash":
        return nash.IsNash()
    if kind == "exploitable":
        scheme = _parse_scheme_doc(_require(doc, "scheme"), game)
        return Exploitable(scheme, parse_rational(_require(doc, "expected_profit")))
    raise DataFormatError(f"unknown verdict {kind!r}")


def parse_verdict(text: str, game: Game):
    """Inverse of emit_verdict."""
    return _verdict_from_doc(_loads(text), game)


def parse_certificate(text: str, game: Game):
    """Read any checkable object: a scheme document, a witness document
    ({"witness": [...]}) or a whole verdict document. Returns
    ("witness", JointDistribution), ("actionwise", scheme),
    ("profilewise", scheme) or, for a Nash verdict, ("nash", IsNash())."""
    doc = _loads(text)
    if "verdict" in doc:
        verdict = _verdict_from_doc(doc, game)
        if isinstance(verdict, Compatible):
            return "witness", verdict.witness
        if not isinstance(verdict, Exploitable):
            return "nash", verdict
        scheme = verdict.scheme
    elif "witness" in doc:
        return "witness", _joint_values(game, doc["witness"])
    elif "type" in doc:
        scheme = _parse_scheme_doc(doc, game)
    else:
        raise DataFormatError("certificate document has no recognizable payload")
    kind = "actionwise" if isinstance(scheme, ActionwiseScheme) else "profilewise"
    return kind, scheme


def emit_surplus(game: Game, values) -> str:
    """Table of per-profile deviation surpluses, row-major."""
    values = tuple(values)
    if len(values) != game.num_profiles:
        raise ValueError("surplus table length does not match game")
    return canonical_json(
        {
            "players": list(game.players),
            "profiles": [list(game.profile_labels(a)) for a in game.profiles()],
            "surplus": [rational_str(v) for v in values],
        }
    )


@dataclass(frozen=True)
class PlayLog:
    """Independently observed per-player action histories."""

    players: tuple[str, ...]
    sequences: tuple[tuple[str, ...], ...]

    def sequence_for(self, player: str) -> tuple[str, ...]:
        try:
            return self.sequences[self.players.index(player)]
        except ValueError:
            raise KeyError(f"no history for player {player!r}") from None


def _csv_rows(text: str):
    try:
        yield from csv.reader(io.StringIO(text))
    except csv.Error as exc:  # such as a cell over the csv field size limit
        raise DataFormatError(f"malformed play log: {exc}") from None


def parse_play_log(text: str) -> PlayLog:
    """Read a CSV play log: header row of player ids, one column per
    player, empty cells ignored (histories may differ in length). A
    non-empty cell past the header is malformed."""
    reader = _csv_rows(text)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("play log is empty") from None
    header = [h.strip() for h in header]
    if any(not h for h in header):
        raise DataFormatError("play log header has an empty player id")
    if len(set(header)) != len(header):
        raise DataFormatError("play log header repeats a player id")
    columns: list[list[str]] = [[] for _ in header]
    for line, row in enumerate(reader, start=2):
        for j, cell in enumerate(row):
            cell = cell.strip()
            if not cell:
                continue
            if j >= len(header):
                raise DataFormatError(f"play log row {line} has a cell past the header")
            columns[j].append(cell)
    return PlayLog(tuple(header), tuple(tuple(c) for c in columns))


def empirical_marginals(game: Game, log: PlayLog) -> MarginalProfile:
    """Exact per-player action frequencies from a play log, which must
    have a column for every game player and no other."""
    rows = []
    for i, player in enumerate(game.players):
        try:
            history = log.sequence_for(player)
        except KeyError as exc:
            raise DataFormatError(str(exc)) from None
        if not history:
            raise DataFormatError(f"empty history for player {player!r}")
        counts = [0] * len(game.actions[i])
        for label in history:
            try:
                counts[game.action_index(i, label)] += 1
            except ValueError as exc:
                raise DataFormatError(str(exc)) from None
        rows.append(tuple(Fraction(c, len(history)) for c in counts))
    for player in log.players:
        if player not in game.players:
            raise DataFormatError(f"play log lists unknown player {player!r}")
    return MarginalProfile(tuple(rows))
