"""Command-line front end.

Exit codes: 0 when the profile is compatible / an equilibrium / the
certificate checks out; 1 when it is exploitable or the certificate is
invalid; 2 on malformed input; 3 when `--oracle` cross-checks disagree
with the verdict; 4 when a solver self-check fails (an internal error,
never expected). Output is byte-deterministic: the same inputs always
produce the same document.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dataio, nash, oracles
from .correlated import Exploitable, test_ce_compatibility
from .dataio import DataFormatError
from .games import surplus_table
from .nash import test_nash_exploitability
from .verify import (
    SchemeViolation,
    verify_actionwise,
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


def _analyze_one(kind: str, game_text: str, marginals_path: str):
    """Worker for batch runs; parses everything itself so it can run in a
    separate process."""
    game = dataio.parse_game(game_text)
    p = dataio.parse_marginals(Path(marginals_path).read_text(), game)
    if kind == "ce":
        verdict = test_ce_compatibility(game, p)
        exploitable = isinstance(verdict, Exploitable)
    else:
        verdict = test_nash_exploitability(game, p)
        exploitable = isinstance(verdict, nash.Exploitable)
    return Path(marginals_path).name, dataio.emit_verdict(game, verdict), exploitable


def _run_batch(kind: str, args) -> int:
    import json
    from concurrent.futures import ProcessPoolExecutor

    game_text = _read(args.game)
    directory = Path(args.marginals)
    files = sorted(str(p) for p in directory.glob("*.json"))
    if not files:
        raise DataFormatError(f"no .json marginals files in {directory}")
    tasks = [(kind, game_text, f) for f in files]
    if args.jobs and args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_analyze_one, *zip(*tasks)))
    else:
        results = [_analyze_one(*task) for task in tasks]
    combined = {"results": {name: json.loads(doc) for name, doc, _ in results}}
    _write_output(dataio.canonical_json(combined), args.out)
    return 1 if any(flag for _, _, flag in results) else 0


def _cmd_test(kind: str, args) -> int:
    if args.marginals and Path(args.marginals).is_dir():
        return _run_batch(kind, args)
    game = dataio.parse_game(_read(args.game))
    p = _load_profile(args, game)
    if kind == "ce":
        verdict = test_ce_compatibility(game, p)
        exploitable = isinstance(verdict, Exploitable)
        if args.oracle:
            oracles.cross_check_ce(game, p, verdict, seed=args.seed)
    else:
        verdict = test_nash_exploitability(game, p)
        exploitable = isinstance(verdict, nash.Exploitable)
        if args.oracle:
            oracles.cross_check_nash(game, p, verdict)
    _write_output(dataio.emit_verdict(game, verdict), args.out)
    return 1 if exploitable else 0


def _cmd_verify(args) -> int:
    game = dataio.parse_game(_read(args.game))
    p = dataio.parse_marginals(_read(args.marginals), game)
    kind, payload = dataio.parse_certificate(_read(args.certificate), game)
    if kind == "witness":
        ok = verify_witness(game, p, payload)
        doc = {"kind": kind, "valid": ok}
        _write_output(dataio.canonical_json(doc), args.out)
        return 0 if ok else 1
    checker = verify_actionwise if kind == "actionwise" else verify_profilewise
    try:
        income = checker(game, p, payload)
    except SchemeViolation as exc:
        doc = {"kind": kind, "valid": False, "violation": list(exc.labels)}
        _write_output(dataio.canonical_json(doc), args.out)
        return 1
    doc = {
        "kind": kind,
        "valid": True,
        "expected_profit": dataio.rational_str(income),
    }
    _write_output(dataio.canonical_json(doc), args.out)
    return 0


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
                help="run brute-force cross-checks and fail loudly on disagreement",
            )
            p.add_argument(
                "--jobs",
                type=int,
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
    ce.set_defaults(func=lambda a: _cmd_test("ce", a))

    ne = sub.add_parser("test-nash", help="Nash equilibrium test")
    ne.add_argument("game")
    ne.add_argument("marginals", nargs="?")
    add_common(ne)
    ne.set_defaults(func=lambda a: _cmd_test("nash", a))

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
    except (DataFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
