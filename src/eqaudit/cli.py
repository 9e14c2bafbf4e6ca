"""Command-line front end.

Exit codes: 0 when the profile is compatible / an equilibrium / the
certificate checks out; 1 when it is exploitable or the certificate is
invalid; 2 on malformed input; 3 when `--oracle` cross-checks disagree
with the verdict; 4 when a solver self-check fails or a Nash
certificate fails `verify_exploitable` (an internal error, never
expected). Output is byte-deterministic: the same inputs always
produce the same document.

`test-ce` and `test-nash` share one route, `_audit`, which takes the test
function itself. Either test's verdict is `Compatible`, `IsNash` or the
one `Exploitable` verdict, and `--oracle` passes it to
`oracles.cross_check`.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import dataio, oracles
from .correlated import test_ce_compatibility
from .dataio import DataFormatError
from .games import Exploitable, ProfilewiseScheme, quoted, surplus_table
from .nash import test_nash_exploitability
from .verify import (
    IncomeClaimError,
    SchemeViolation,
    verify_exploitable,
    verify_nash,
    verify_scheme,
    verify_witness,
)


def _read(path: str) -> str:
    """The file at `path`, decoded as UTF-8 whatever the locale."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from None


def _load_profile(game, marginals, log) -> "dataio.MarginalProfile":
    """The marginals of the play log `log` or, if it is None, of a file."""
    if log is not None:
        return dataio.empirical_marginals(game, dataio.parse_play_log(_read(log)))
    if not marginals:
        raise DataFormatError("provide a marginals file or --log")
    return dataio.parse_marginals(_read(marginals), game)


def _audit(test, game, p, oracle: bool):
    """Run `test` (`test_ce_compatibility` or `test_nash_exploitability`)
    on one profile, cross-check the verdict when `oracle` is set, and
    return the verdict document and whether the profile is exploitable.
    A profile-wise (Nash) `Exploitable` is checked by `verify_exploitable`
    first, as the CE test checks its own; a scheme that fails is an
    internal error (RuntimeError), never malformed input."""
    verdict = test(game, p)
    scheme = getattr(verdict, "scheme", None)
    if isinstance(scheme, ProfilewiseScheme):
        try:
            verify_exploitable(game, p, verdict)
        except ValueError as exc:
            raise RuntimeError(f"the Nash certificate fails its check: {exc}") from None
    if oracle:
        oracles.cross_check(game, p, verdict)
    return dataio.emit_verdict(game, verdict), isinstance(verdict, Exploitable)


def _run_batch(test, game, args) -> tuple[str, bool]:
    import json
    from concurrent.futures import ProcessPoolExecutor

    directory = Path(args.marginals)
    files = sorted(directory.glob("*.json"))
    if not files:
        raise DataFormatError(f"no .json marginals files in {directory}")
    profiles = [dataio.parse_marginals(_read(str(f)), game) for f in files]
    tasks = [(test, game, p, args.oracle) for p in profiles]
    # The pool forks all its workers up front, so size it by what can run.
    workers = min(args.jobs, len(files), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_audit, *zip(*tasks)))
    else:
        results = [_audit(*task) for task in tasks]
    combined = {
        "results": {f.name: json.loads(doc) for f, (doc, _) in zip(files, results)}
    }
    return dataio.canonical_json(combined), any(flag for _, flag in results)


def _cmd_test(test, args, game) -> tuple[str, bool]:
    if args.marginals and Path(args.marginals).is_dir():
        return _run_batch(test, game, args)
    p = _load_profile(game, args.marginals, args.log)
    return _audit(test, game, p, args.oracle)


def _cmd_verify(args, game) -> tuple[str, bool]:
    p = dataio.parse_marginals(_read(args.marginals), game)
    kind, payload = dataio.parse_certificate(_read(args.certificate), game)
    doc = {"kind": kind, "valid": True}
    if kind == "witness":
        doc["valid"] = verify_witness(game, p, payload)
    elif kind == "nash":
        doc["valid"] = verify_nash(game, p)
    else:
        try:
            if isinstance(payload, Exploitable):
                income = verify_exploitable(game, p, payload)
            else:
                income = verify_scheme(game, p, payload)
        except SchemeViolation as exc:
            doc.update(valid=False, violation=list(exc.labels))
        except IncomeClaimError as exc:
            doc.update(valid=False, expected_profit=dataio.rational_str(exc.income))
        else:
            doc["expected_profit"] = dataio.rational_str(income)
    return dataio.canonical_json(doc), not doc["valid"]


def _cmd_surplus(args, game) -> tuple[str, bool]:
    kernel = dataio.parse_kernel(_read(args.kernel), game)
    return dataio.emit_surplus(game, surplus_table(game, kernel)), False


def _cmd_marginals(args, game) -> tuple[str, bool]:
    return dataio.emit_marginals(game, _load_profile(game, None, args.log)), False


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # not an integer: the same error line as below 1
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {quoted(text)}"
        )
    return value


# (name, help, positionals, handler); a positional ending in "?" is optional.
_COMMANDS = (
    ("test-ce", "compatibility with correlated play", "game marginals?",
     lambda args, game: _cmd_test(test_ce_compatibility, args, game)),
    ("test-nash", "Nash equilibrium test", "game marginals?",
     lambda args, game: _cmd_test(test_nash_exploitability, args, game)),
    ("verify", "check a witness or scheme document", "game marginals certificate",
     _cmd_verify),
    ("surplus", "deviation-surplus table for a kernel", "game kernel", _cmd_surplus),
    ("marginals", "empirical marginals from a play log", "game log", _cmd_marginals),
)
# Every subcommand takes --out; the test-* ones take the rest as well.
_FLAGS = (
    ("--out", {"help": "write the result document here instead of stdout"}),
    ("--oracle", {"action": "store_true", "help": "run independent cross-checks "
                  "and fail loudly on disagreement"}),
    ("--jobs", {"type": _positive_int, "default": 1,
                "help": "workers for batch directories of marginals files"}),
    ("--log", {"help": "derive marginals from a CSV play log instead"}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqaudit",
        description="Audit observed per-player action frequencies against "
        "correlated or Nash equilibrium play, with exact certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, positionals, handler in _COMMANDS:
        cmd = sub.add_parser(name, help=text)
        for arg in positionals.split():
            cmd.add_argument(arg.rstrip("?"), nargs="?" if "?" in arg else None)
        for flag, options in _FLAGS if name.startswith("test-") else _FLAGS[:1]:
            cmd.add_argument(flag, **options)
        # Every command has `log` and `marginals`, set or None.
        cmd.set_defaults(func=handler, log=None, marginals=None)
    return parser


# One parser per process. Its handlers look the test functions up in this
# module when called, so a later rebinding of them still takes effect.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.log is not None and args.marginals is not None:
            raise DataFormatError("--log cannot be combined with a marginals path")
        # A handler returns its result document and whether to exit 1.
        text, negative = args.func(args, dataio.parse_game(_read(args.game)))
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return int(negative)
    except oracles.OracleDisagreement as exc:
        print(f"oracle disagreement: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # DataFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
