"""Command-line front end.

Exit codes: 0 when the profile is compatible / an equilibrium / the
certificate checks out; 1 when it is exploitable or the certificate is
invalid; 2 on malformed input; 3 when `--oracle` cross-checks disagree
with the verdict; 4 when a solver self-check fails (an internal error,
never expected). Output is byte-deterministic: the same inputs always
produce the same document.

`test-ce` and `test-nash` share one route, `_audit`, which takes the test
function itself. Either test's verdict is `Compatible`, `IsNash` or the
one `Exploitable` verdict, and `--oracle` passes it to
`oracles.cross_check`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import dataio, oracles
from .correlated import Exploitable, test_ce_compatibility
from .dataio import DataFormatError
from .games import surplus_table
from .nash import test_nash_exploitability
from .verify import (
    IncomeClaimError,
    SchemeViolation,
    verify_actionwise,
    verify_exploitable,
    verify_nash,
    verify_profilewise,
    verify_witness,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from None


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_profile(args, game) -> "dataio.MarginalProfile":
    if args.log:
        return dataio.empirical_marginals(game, dataio.parse_play_log(_read(args.log)))
    if not args.marginals:
        raise DataFormatError("provide a marginals file or --log")
    return dataio.parse_marginals(_read(args.marginals), game)


def _audit(test, game, p, oracle: bool, seed: int):
    """Run `test` (`test_ce_compatibility` or `test_nash_exploitability`)
    on one profile, cross-check the verdict when `oracle` is set, and
    return the verdict document and whether the profile is exploitable."""
    verdict = test(game, p)
    if oracle:
        oracles.cross_check(game, p, verdict, seed=seed)
    return dataio.emit_verdict(game, verdict), isinstance(verdict, Exploitable)


def _run_batch(test, game, args) -> int:
    import json
    from concurrent.futures import ProcessPoolExecutor

    directory = Path(args.marginals)
    files = sorted(directory.glob("*.json"))
    if not files:
        raise DataFormatError(f"no .json marginals files in {directory}")
    profiles = [dataio.parse_marginals(_read(str(f)), game) for f in files]
    tasks = [(test, game, p, args.oracle, args.seed) for p in profiles]
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
    _write_output(dataio.canonical_json(combined), args.out)
    return 1 if any(flag for _, flag in results) else 0


def _cmd_test(test, args) -> int:
    if args.log and args.marginals:
        raise DataFormatError("--log cannot be combined with a marginals path")
    game = dataio.parse_game(_read(args.game))
    if args.marginals and Path(args.marginals).is_dir():
        return _run_batch(test, game, args)
    doc, exploitable = _audit(
        test, game, _load_profile(args, game), args.oracle, args.seed
    )
    _write_output(doc, args.out)
    return 1 if exploitable else 0


def _cmd_verify(args) -> int:
    game = dataio.parse_game(_read(args.game))
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
            elif kind == "actionwise":
                income = verify_actionwise(game, p, payload)
            else:
                income = verify_profilewise(game, p, payload)
        except SchemeViolation as exc:
            doc.update(valid=False, violation=list(exc.labels))
        except IncomeClaimError as exc:
            doc.update(valid=False, expected_profit=dataio.rational_str(exc.income))
        else:
            doc["expected_profit"] = dataio.rational_str(income)
    _write_output(dataio.canonical_json(doc), args.out)
    return 0 if doc["valid"] else 1


def _cmd_surplus(args) -> int:
    game = dataio.parse_game(_read(args.game))
    kernel = dataio.parse_kernel(_read(args.kernel), game)
    _write_output(dataio.emit_surplus(game, surplus_table(game, kernel)), args.out)
    return 0


def _cmd_marginals(args) -> int:
    game = dataio.parse_game(_read(args.game))
    p = dataio.empirical_marginals(game, dataio.parse_play_log(_read(args.log)))
    _write_output(dataio.emit_marginals(game, p), args.out)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqaudit",
        description="Audit observed per-player action frequencies against "
        "correlated or Nash equilibrium play, with exact certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_profile=True):
        p.add_argument("--out", help="write the result document here instead of stdout")
        if with_profile:
            p.add_argument(
                "--oracle",
                action="store_true",
                help="run independent cross-checks and fail loudly on disagreement",
            )
            p.add_argument(
                "--jobs",
                type=_positive_int,
                default=1,
                help="workers for batch directories of marginals files",
            )
            p.add_argument(
                "--seed", type=int, default=0, help="seed for oracle sampling"
            )
            p.add_argument(
                "--log", help="derive marginals from a CSV play log instead"
            )

    ce = sub.add_parser("test-ce", help="compatibility with correlated play")
    ce.add_argument("game")
    ce.add_argument("marginals", nargs="?")
    add_common(ce)
    ce.set_defaults(func=lambda a: _cmd_test(test_ce_compatibility, a))

    ne = sub.add_parser("test-nash", help="Nash equilibrium test")
    ne.add_argument("game")
    ne.add_argument("marginals", nargs="?")
    add_common(ne)
    ne.set_defaults(func=lambda a: _cmd_test(test_nash_exploitability, a))

    vf = sub.add_parser("verify", help="check a witness or scheme document")
    vf.add_argument("game")
    vf.add_argument("marginals")
    vf.add_argument("certificate")
    add_common(vf, with_profile=False)
    vf.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("surplus", help="deviation-surplus table for a kernel")
    sp.add_argument("game")
    sp.add_argument("kernel")
    add_common(sp, with_profile=False)
    sp.set_defaults(func=_cmd_surplus)

    mg = sub.add_parser("marginals", help="empirical marginals from a play log")
    mg.add_argument("game")
    mg.add_argument("log")
    add_common(mg, with_profile=False)
    mg.set_defaults(func=_cmd_marginals)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
