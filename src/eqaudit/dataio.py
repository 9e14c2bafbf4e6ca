"""File formats for games, profiles, verdicts, certificates and play logs.

Everything structured is JSON with canonical serialization (sorted keys,
two-space indent, trailing newline), so identical values always produce
identical bytes. Rationals travel as strings like "7/4" or "9"; decimal
literals in input are converted exactly (0.1 becomes 1/10, never a binary
float). A decimal exponent may be at most `MAX_EXPONENT` (4300, Python's
default int-string digit limit) in magnitude: "1e4300" is read, "1e4301"
and "1e-1000000" are malformed, because the cost of building such a
number grows faster than its exponent; `parse_rational` reads every
string with `Fraction` once that bound is checked. Bare JSON number
literals follow the same rules as strings: 1e4301 is malformed, and so
is an integer of more than 4300 digits, bare or inside a string. A key
repeated in any JSON object is malformed, not overwritten. An error line
quotes at most 40 characters of an input value (`games.quoted`).
Every rational table (payoffs, witnesses, kernel rows, fee tables,
marginals) is read by one row reader, `_ratio_row`, into integer columns
`(numerators, denominators)`: a row of JSON integer literals and "n/d"
strings of two of them is joined, with each "n" rewritten "n/1" only
when the row has a '/', and read in one call to the C JSON number
scanner, making no Fraction and no per-value pair. Any other row (a
leading zero, whitespace, a sign, a decimal, a zero or negative
denominator, a value that is not a string) is read value by value, as
`parse_rational` reads it, so the first bad value is the one reported.
Every table, play log frequencies included, goes straight into the
`from_columns` constructor of its model type, which validates in
integers. Games and certificates are written from the same integer
stores, each value reduced by one gcd, with the bytes `rational_str`
writes. Payoff tensors, joint distributions and fee tables are flat
lists in row-major profile order: players in declaration order, actions
in declaration order, last player's action fastest.

Actions, payoffs, marginals, kernels and action-wise fees are per-player
tables: a JSON object with one list per game player and no other key,
each list as long as the player's action count where that is fixed. A
result with a rational over 4300 digits cannot be written and is reported
as malformed input.

Play logs are CSV with one column per player (header row holds player
ids). Columns may have different lengths; the histories are per player
and never aligned across players. A parsed log maps each header id to
its cells, and `empirical_marginals` reads it as a per-player table, by
the same rule: a column for every game player and no other, so a header
id that names no player is malformed. So is a non-empty cell past the
last header column, and an action the player does not have. Empty cells
are ignored.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

from .games import (
    ActionwiseScheme,
    Compatible,
    DeviationKernel,
    Exploitable,
    Game,
    IsNash,
    JointDistribution,
    MarginalProfile,
    ProfilewiseScheme,
    quoted,
)


class DataFormatError(ValueError):
    """Malformed input document."""


MAX_EXPONENT = 4300

# Deletes the characters of a joined row of plain "n/d" strings.
_ROW_CHARS = str.maketrans("", "", "0123456789-/,")
# The JSON scanner with its default `int` parsing, for a whole row.
_JSON = json.JSONDecoder()
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
    """Exact rational from an int, decimal string, or 'n/d' string; a
    string is read by `Fraction` once its exponent passes the bound."""
    if isinstance(value, str):
        if _exponent_too_large(value):
            raise DataFormatError(
                f"malformed rational {quoted(value)}: "
                f"exponent magnitude over {MAX_EXPONENT}"
            )
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise DataFormatError(
                f"malformed rational {quoted(value)}: zero denominator"
            ) from None
        except ValueError:
            if _has_long_digit_run(value):  # more than int() converts
                raise _digit_limit_error() from None
            raise DataFormatError(f"malformed rational {quoted(value)}") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DataFormatError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    raise DataFormatError(f"cannot read a rational from {quoted(value)}")


def rational_str(value: Fraction) -> str:
    value = Fraction(value)
    return _ratio_strs((value.numerator,), (value.denominator,))[0]


def _ratio_strs(nums, dens) -> list[str]:
    """The text of each `n / d` (with `d > 0`), written from the integers:
    "n/d" reduced by one gcd, or "n" when that leaves d == 1."""
    try:
        return [
            str(n // g) if (g := gcd(n, d)) == d else f"{n // g}/{d // g}"
            for n, d in zip(nums, dens)
        ]
    except ValueError:  # more digits than int-to-str converts
        raise DataFormatError(
            "the result has a rational over the "
            f"{sys.get_int_max_str_digits()}-digit output limit"
        ) from None


def _common_row(row) -> list[str]:
    """`_ratio_strs` of a row held as `(numerators, denominator)`."""
    nums, den = row
    return _ratio_strs(nums, [den] * len(nums))


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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a repeated key is malformed."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for k, n in Counter(k for k, _v in pairs).items() if n > 1)
        raise DataFormatError(f"JSON object repeats the key {quoted(key)}")
    return doc


def _loads(text: str) -> dict:
    try:
        doc = json.loads(text, parse_float=parse_rational, parse_int=_int_literal,
                         object_pairs_hook=_unique_keys)
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


def _parse_table(doc, players, what: str, read, sizes=None) -> tuple:
    """Read a per-player table: a JSON object with one list per player in
    `players`, of length `sizes[i]` when `sizes` is given, and no other
    key. Each list is read with `read`, such as `_each(item)`."""
    doc = _object(doc, what)
    rows = []
    for i, player in enumerate(players):
        who = quoted(player)
        if player not in doc:
            raise DataFormatError(f"no {what} for player {who}")
        row = doc[player]
        if not isinstance(row, list):
            raise DataFormatError(f"{what} for {who} must be a list")
        if sizes is not None and len(row) != sizes[i]:
            raise DataFormatError(f"{what} for {who} must list {sizes[i]} entries")
        rows.append(read(row))
    if len(doc) > len(players):  # every player has an entry, so a key is extra
        unknown = min(doc.keys() - set(players))
        raise DataFormatError(f"{what} listed for unknown player {quoted(unknown)}")
    return tuple(rows)


def _table_doc(players, rows, write) -> dict:
    """Write a per-player table, the inverse of `_parse_table`: each row
    as `write` writes it, such as `_each(item)`."""
    return {player: write(row) for player, row in zip(players, rows)}


def _each(item):
    """A row reader or writer that maps every entry with `item`."""
    return lambda row: tuple(map(item, row))


def _label(value) -> str:
    if not isinstance(value, str):
        raise DataFormatError("action labels must be strings")
    return value


def _ratio_row(row) -> tuple[list[int], list[int]]:
    """`parse_rational` of each entry of `row`, as integer columns
    `(numerators, denominators)` with positive denominators.

    A row of JSON integer literals, or of those and "n/d" strings of two
    of them with each "n" read as "n/1", is joined and read in one call
    to the JSON scanner, making no Fraction and no per-value pair (a row
    of "n" alone with no rewrite). Any other row is read value by value:
    a value that is not a string, holds a ',', a second '/' or any other
    character, is not a JSON integer (a leading zero, say) or has more
    digits than `int` converts, or a row with a denominator below 1. So
    the row keeps `parse_rational`'s values and its first error."""
    try:
        text = ",".join(row)
    except TypeError:  # a value that is not a string
        text = ""
    size = len(row)
    ratios = "/" in text
    if ratios:
        text = ",".join([v if "/" in v else v + "/1" for v in row])
    # A ',' inside a value would add an entry, and a second '/' would
    # shift the pairs, so each count must match.
    if (
        text
        and text.count(",") == size - 1
        and (not ratios or text.count("/") == size)
        and not text.translate(_ROW_CHARS)
    ):
        try:
            ints = _JSON.raw_decode("[" + text.replace("/", ",") + "]")[0]
        except ValueError:  # not JSON, or more digits than int() converts
            pass
        else:
            if not ratios:
                return ints, [1] * size
            dens = ints[1::2]
            if min(dens) > 0:
                return ints[::2], dens
    values = list(map(parse_rational, row))
    return [v.numerator for v in values], [v.denominator for v in values]


def _kernel_row(row) -> tuple[list[int], list[int]]:
    if not isinstance(row, list):
        raise DataFormatError("kernel rows must be lists")
    return _ratio_row(row)


def parse_game(text: str) -> Game:
    """Read a game document: players, per-player action lists, and one
    row-major payoff list per player, read straight into `Game.int_payoffs`."""
    doc = _loads(text)
    players = _require(doc, "players")
    if not isinstance(players, list) or not all(isinstance(p, str) for p in players):
        raise DataFormatError("'players' must be a list of strings")
    actions = _parse_table(_require(doc, "actions"), players, "actions", _each(_label))
    columns = _parse_table(_require(doc, "payoffs"), players, "payoffs", _ratio_row)
    return _checked(Game.from_columns, tuple(players), actions, columns)


def emit_game(game: Game) -> str:
    return canonical_json(
        {
            "players": list(game.players),
            "actions": _table_doc(game.players, game.actions, _each(str)),
            "payoffs": _table_doc(game.players, game.int_payoffs, lambda row: _ratio_strs(*row)),
        }
    )


def parse_marginals(text: str, game: Game) -> MarginalProfile:
    """Read one distribution per player, keyed by player id, values in
    action declaration order."""
    doc = _loads(text)
    rows = _parse_table(doc, game.players, "marginals", _ratio_row, game.shape)
    return _checked(MarginalProfile.from_columns, rows)


def emit_marginals(game: Game, p: MarginalProfile) -> str:
    return canonical_json(_table_doc(game.players, p.int_rows, _common_row))


def _parse_kernel_doc(doc, game: Game) -> DeviationKernel:
    rows = _parse_table(doc, game.players, "kernel", _each(_kernel_row), game.shape)
    return _checked(DeviationKernel.from_columns, rows)


def parse_kernel(text: str, game: Game) -> DeviationKernel:
    """Read a deviation kernel: per player, one row per source action."""
    return _parse_kernel_doc(_loads(text), game)


def _kernel_doc(game: Game, kernel: DeviationKernel) -> dict:
    return _table_doc(game.players, kernel.int_rows, _each(_common_row))


def emit_kernel(game: Game, kernel: DeviationKernel) -> str:
    return canonical_json(_kernel_doc(game, kernel))


def _scheme_doc(game: Game, scheme) -> dict:
    if isinstance(scheme, ActionwiseScheme):
        return {
            "type": "actionwise",
            "fees": _table_doc(game.players, scheme.int_fees, _common_row),
            "kernel": _kernel_doc(game, scheme.kernel),
        }
    if isinstance(scheme, ProfilewiseScheme):
        return {
            "type": "profilewise",
            "fee": _ratio_strs(*scheme.int_fee),
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
            _require(doc, "fees"), game.players, "fees", _ratio_row, game.shape
        )
        return ActionwiseScheme.from_columns(fees, kernel)
    if kind == "profilewise":
        fee = _profile_values(_require(doc, "fee"), game, "'fee'")
        return ProfilewiseScheme.from_columns(fee, kernel)
    raise DataFormatError(f"unknown scheme type {quoted(kind)}")


def parse_scheme(text: str, game: Game):
    """Read a transfer scheme; returns an ActionwiseScheme or a
    ProfilewiseScheme depending on the document's 'type'."""
    return _parse_scheme_doc(_loads(text), game)


def _profile_values(values, game: Game, what: str) -> tuple[list[int], list[int]]:
    if not isinstance(values, list) or len(values) != game.num_profiles:
        raise DataFormatError(
            f"{what} must list {game.num_profiles} values in row-major order"
        )
    return _ratio_row(values)


def _joint_values(game: Game, values) -> JointDistribution:
    columns = _profile_values(values, game, "witness")
    return _checked(JointDistribution.from_columns, game.shape, columns)


def emit_verdict(game: Game, verdict) -> str:
    """Serialize any analyzer verdict."""
    if isinstance(verdict, Compatible):
        doc = {
            "verdict": "compatible",
            "witness": _common_row(verdict.witness.int_probs),
        }
    elif isinstance(verdict, Exploitable):
        doc = {
            "verdict": "exploitable",
            "expected_profit": rational_str(verdict.expected_profit),
            "scheme": _scheme_doc(game, verdict.scheme),
        }
    elif isinstance(verdict, IsNash):
        doc = {"verdict": "nash"}
    else:
        raise TypeError(f"not a verdict: {verdict!r}")
    return canonical_json(doc)


def _verdict_from_doc(doc: dict, game: Game):
    kind = _require(doc, "verdict")
    if kind == "compatible":
        return Compatible(_joint_values(game, _require(doc, "witness")))
    if kind == "nash":
        return IsNash()
    if kind == "exploitable":
        scheme = _parse_scheme_doc(_require(doc, "scheme"), game)
        return Exploitable(scheme, parse_rational(_require(doc, "expected_profit")))
    raise DataFormatError(f"unknown verdict {quoted(kind)}")


def parse_verdict(text: str, game: Game):
    """Inverse of emit_verdict."""
    return _verdict_from_doc(_loads(text), game)


def parse_certificate(text: str, game: Game):
    """Read any checkable object: a scheme document, a witness document
    ({"witness": [...]}) or a whole verdict document. Returns
    ("witness", JointDistribution), ("actionwise", scheme),
    ("profilewise", scheme) or, for a Nash verdict, ("nash", IsNash()).
    For an exploitable verdict the kind is its scheme's and the payload
    the whole `Exploitable` verdict, so its claimed income travels with
    it."""
    doc = _loads(text)
    if "verdict" in doc:
        verdict = _verdict_from_doc(doc, game)
        if isinstance(verdict, Compatible):
            return "witness", verdict.witness
        if not isinstance(verdict, Exploitable):
            return "nash", verdict
        payload, scheme = verdict, verdict.scheme
    elif "witness" in doc:
        return "witness", _joint_values(game, doc["witness"])
    elif "type" in doc:
        payload = scheme = _parse_scheme_doc(doc, game)
    else:
        raise DataFormatError("certificate document has no recognizable payload")
    kind = "actionwise" if isinstance(scheme, ActionwiseScheme) else "profilewise"
    return kind, payload


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


def _csv_rows(text: str):
    try:
        yield from csv.reader(io.StringIO(text))
    except csv.Error as exc:  # such as a cell over the csv field size limit
        raise DataFormatError(f"malformed play log: {exc}") from None


def parse_play_log(text: str) -> dict[str, list[str]]:
    """Read a CSV play log into its cells per header id: header row of
    player ids, one column per player, empty cells ignored (histories may
    differ in length). A non-empty cell past the header is malformed. One
    leading byte order mark, as spreadsheet exports write, is dropped."""
    reader = _csv_rows(text.removeprefix("\ufeff"))
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
    return dict(zip(header, columns))


def empirical_marginals(game: Game, log: dict[str, list[str]]) -> MarginalProfile:
    """Exact per-player action frequencies from a parsed play log, which
    is a per-player table: a column for every game player and no other."""
    rows = []
    histories = _parse_table(log, game.players, "play log", tuple)
    for i, (player, history) in enumerate(zip(game.players, histories)):
        if not history:
            raise DataFormatError(f"empty history for player {quoted(player)}")
        counts = [0] * len(game.actions[i])
        for label in history:
            counts[_checked(game.action_index, i, label)] += 1
        rows.append((counts, [len(history)] * len(counts)))
    return MarginalProfile.from_columns(rows)
