"""Command-line front end.

    auctionlab run --scenario honest --n 3 --k 3 --bids 1,2,1 --seed 7
    auctionlab run --scenario full-privacy-attack --n 3 --k 3 --seed 7
    auctionlab run --scenario wrong-key --key-consistency --out reports/wk
    auctionlab list

Exit codes: 0 when the scenario's outcome matched its expectation, 1 when it
did not, 2 on usage or internal errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .defenses import DefenseFlags
from .errors import AuctionLabError, UsageError
from .groups import GROUPS_BY_NAME, GroupParams, validate_group
from .scenarios import SCENARIOS, ScenarioSpec, emit_report, run_scenario


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers, "
                         f"got {text!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="auctionlab",
                     description="Sealed-bid auction protocol laboratory")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one scenario and write reports")
    run_p.add_argument("--scenario", required=True,
                       help=f"one of: {', '.join(SCENARIOS)}")
    run_p.add_argument("--n", type=int, default=3, help="number of bidders")
    run_p.add_argument("--k", type=int, default=3, help="number of prices")
    run_p.add_argument("--bids", default=None,
                       help="comma-separated prices, one per bidder")
    run_p.add_argument("--seed", type=int, default=7)
    run_p.add_argument("--group", default="small",
                       choices=sorted(GROUPS_BY_NAME) + ["custom"])
    run_p.add_argument("--p", type=int, default=None)
    run_p.add_argument("--q", type=int, default=None)
    run_p.add_argument("--g", type=int, default=None)
    run_p.add_argument("--marker", type=int, default=None,
                       help="subgroup element that tags a placed bid")
    run_p.add_argument("--ni-proofs", action="store_true",
                       help="hashed (non-interactive) proofs")
    run_p.add_argument("--authenticate", action="store_true",
                       help="tag every post with a registered sender key")
    run_p.add_argument("--noise-product-check", action="store_true",
                       help="product checks on the masking shares")
    run_p.add_argument("--key-consistency", action="store_true",
                       help="decrypt proofs must bind the keygen share")
    run_p.add_argument("--all-defenses", action="store_true")
    run_p.add_argument("--exponent", type=int, default=1,
                       help="masking exponent for the privacy attack")
    run_p.add_argument("--target-bid", type=int, default=None,
                       help="impersonation: the real bidder's price")
    run_p.add_argument("--cell", default=None,
                       help="row,col for exceptional-values (1-based)")
    run_p.add_argument("--rerandomize", action="store_true",
                       help="impersonation: refresh the copied ciphertexts")
    run_p.add_argument("--claim", default="1,1,-1",
                       help="relay demo: h,a,b of the affine claim")
    run_p.add_argument("--out", default=".",
                       help="directory for report.json / transcript.json")

    sub.add_parser("list", help="list scenarios")
    return parser


def spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    flags = DefenseFlags(
        ni_proofs=args.ni_proofs or args.all_defenses,
        authenticate=args.authenticate or args.all_defenses,
        noise_product_check=args.noise_product_check or args.all_defenses,
        key_consistency=args.key_consistency or args.all_defenses,
    )
    params = None
    group_name = args.group
    if group_name == "custom":
        if args.p is None or args.q is None or args.g is None:
            raise UsageError("--group custom needs --p, --q and --g")
        params = validate_group(args.p, args.q, args.g)
    elif args.p is not None or args.q is not None or args.g is not None:
        raise UsageError("--p/--q/--g only apply with --group custom")

    cell = None
    if args.cell is not None:
        parts = _int_list(args.cell, "--cell")
        if len(parts) != 2:
            raise UsageError("--cell expects row,col")
        cell = (parts[0], parts[1])

    claim_parts = _int_list(args.claim, "--claim")
    if len(claim_parts) != 3:
        raise UsageError("--claim expects h,a,b")

    bids = _int_list(args.bids, "--bids") if args.bids is not None else None
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.k < 1:
        raise UsageError("--k must be at least 1")

    return ScenarioSpec(
        scenario=args.scenario,
        n=args.n,
        k=args.k,
        bids=bids,
        seed=args.seed,
        group_name=group_name if group_name != "custom" else "small",
        params=params,
        marker=args.marker,
        flags=flags,
        exponent=args.exponent,
        target_bid=args.target_bid,
        cell=cell,
        rerandomize=args.rerandomize,
        claim=tuple(claim_parts),
    )


def _print_summary(result, paths) -> None:
    report = result.report
    print(f"scenario     : {report['scenario']}")
    print(f"seed         : {report['seed']}  n={report['n']}  k={report['k']}"
          f"  q={report['group']['q']}")
    on = [name for name, value in report["flags"].items() if value]
    print(f"defenses     : {', '.join(on) if on else 'none'}")
    print(f"expectation  : {report['expectation']}")
    print(f"success      : {report['success']}")
    for note in report["notes"]:
        print(f"note         : {note}")
    for name, value in result.timing.items():
        print(f"{name:<13}: {value:.3f}")
    for path in paths:
        print(f"wrote        : {path}")
    verdict = "MET" if result.expectation_met else "NOT MET"
    print(f"expectation {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            for name in SCENARIOS:
                print(name)
            return 0
        if args.command != "run":
            raise UsageError("expected a command: run or list")
        spec = spec_from_args(args)
        result = run_scenario(spec)
        paths = emit_report(result, Path(args.out))
        _print_summary(result, paths)
        return 0 if result.expectation_met else 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except AuctionLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
