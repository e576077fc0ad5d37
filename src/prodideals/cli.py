"""Command-line interface: one subcommand per construct, plus scenario runs.

Ring arguments use compact tokens: ``Z``, ``Z/12``, ``Z_(2,5)``, ``F2[x]``.
Structured arguments (ultrafilters, elements, value vectors, ideals) are
JSON, in the same encodings scenario files use.  Output is deterministic;
``--format machine`` emits one JSON record per line.

Exit codes: 0 success, 1 input error, 2 failed assertion in a scenario.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import scenario as sc
from .errors import (
    BudgetExceeded,
    FactorizationBudgetExceeded,
    InconsistentInput,
    InvalidSample,
    NonPositiveValueVector,
    NotMember,
    NotUnitIdeal,
    NoWitness,
    ParseError,
    ShapeMismatch,
    UnsupportedDescriptor,
    UnsupportedRing,
    ValidationError,
    ZeroElement,
)

_INPUT_ERRORS = (
    BudgetExceeded, FactorizationBudgetExceeded, InconsistentInput,
    InvalidSample, NonPositiveValueVector, NotMember, NotUnitIdeal,
    NoWitness, ParseError, ShapeMismatch, UnsupportedDescriptor,
    UnsupportedRing, ValidationError, ZeroElement, ValueError, OSError,
)

INFINITE_INDEX_MESSAGE = (
    "refused: constructions over an infinite index set are out of scope. "
    "Non-principal ultrafilters on an infinite index set have no finite "
    "description, so infinite-height chain phenomena are not desk-checkable; "
    "this tool works over finite index sets and finite sample prefixes only. "
    "See README section \"Scope and limitations\".")


def parse_ring_token(token: str):
    """Parse a compact ring token: Z, Z/12, Z_(2,5), F2[x]."""
    token = token.strip()
    if token == "Z":
        return {"kind": "integers"}
    m = re.fullmatch(r"Z/(\d+)", token)
    if m:
        return {"kind": "residue", "n": int(m.group(1))}
    m = re.fullmatch(r"Z_\((\d+(?:,\d+)*)\)", token)
    if m:
        return {"kind": "localized_integers",
                "primes": [int(p) for p in m.group(1).split(",")]}
    m = re.fullmatch(r"F(\d+)\[x\]", token)
    if m:
        return {"kind": "poly_fq", "q": int(m.group(1))}
    raise ValidationError("ring", f"cannot parse ring token {token!r}")


def _json_arg(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(what, f"invalid JSON: {exc.msg}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, like every input
    error; exit code 2 stays for a failed scenario assertion."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # the global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "machine"),
                        default=argparse.SUPPRESS)
    common.add_argument("--bound", type=int, default=argparse.SUPPRESS,
                        help="generator bound for enumerations over infinite spectra")
    common.add_argument("--log-base", type=int, default=argparse.SUPPRESS,
                        help="integer logarithm base for interpolation (default: natural log)")
    common.add_argument("--infinite-index", action="store_true",
                        default=argparse.SUPPRESS,
                        help="request infinite index sets (always refused)")

    parser = _Parser(
        prog="prodideals",
        description="prime and maximal ideals in finite products of arithmetic rings",
        parents=[common])
    sub = parser.add_subparsers(dest="command")

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    run = add_parser("run", help="execute a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")

    def with_rings(p):
        p.add_argument("-r", "--ring", action="append", required=True,
                       metavar="RING", help="component ring token (repeatable)")
        return p

    mx = with_rings(add_parser("maxideals", help="enumerate maximal ideals"))

    cp = add_parser("check-plus", help="separating element for (r, a)")
    cp.add_argument("-r", "--ring", required=True)
    cp.add_argument("--r-elem", required=True, help="JSON element")
    cp.add_argument("--a-elem", required=True, help="JSON element (nonzero)")

    cpp = add_parser("check-plusplus", help="strong separation verdict")
    cpp.add_argument("-r", "--ring", required=True)
    cpp.add_argument("--r-elem", default=None, help="optional JSON element")

    im = with_rings(add_parser("ideal-member", help="decide ideal membership"))
    im.add_argument("--ideal", required=True, help="JSON ideal descriptor")
    im.add_argument("--element", required=True, help="JSON element list")

    mp = with_rings(add_parser("minimal-prime",
                                   help="the minimal prime below an ultrafilter ideal"))
    mp.add_argument("--ultrafilter", required=True, help="JSON ultrafilter")

    vc = with_rings(add_parser("valuation-compare",
                                   help="compare induced valuations of two elements"))
    vc.add_argument("--ultrafilter", required=True)
    vc.add_argument("-a", required=True, help="JSON element list")
    vc.add_argument("-b", required=True, help="JSON element list")

    ug = with_rings(add_parser("ug-member",
                                   help="valuation-threshold ideal membership"))
    ug.add_argument("--ultrafilter", required=True)
    ug.add_argument("-g", required=True, help="JSON value vector")
    ug.add_argument("-x", required=True, help="JSON element list")

    ll = with_rings(add_parser("ll", help="domination order on value vectors"))
    ll.add_argument("--ultrafilter", required=True)
    ll.add_argument("-g", required=True, help="JSON value vector")
    ll.add_argument("--h-vec", required=True, help="JSON value vector")

    ip = add_parser("interpolate",
                        help="construct the middle of a domination chain on a sample")
    ip.add_argument("--branch", choices=("V", "W"), default="W")
    ip.add_argument("--sample", default=None,
                    help='JSON {"g": [...], "h": [...], "n": [...]}')
    ip.add_argument("--doubling", type=int, default=None,
                    help="use the built-in doubling sample of this length")
    ip.add_argument("--n-max", type=int, default=20)

    orc = with_rings(add_parser("oracle",
                                    help="brute-force ideal survey of a finite residue product"))
    orc.add_argument("--no-primes", action="store_true",
                     help="skip primality marking")
    orc.add_argument("--budget", type=int, default=10_000)

    return parser


def _scenario_for(args, rings, queries, objects=None):
    data = {
        "schema_version": sc.SCHEMA_VERSION,
        "rings": rings,
        "product": list(range(len(rings))),
        "objects": objects or {},
        "queries": queries,
        "options": {"bound": args.bound},
    }
    if args.log_base is not None:
        data["options"]["log_base"] = args.log_base
    return data


_GLOBAL_DEFAULTS = {"format": "text", "bound": 16, "log_base": None,
                    "infinite_index": False}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # shared flags keep SUPPRESS defaults so they survive the subcommand
    # namespace merge; fill the real defaults here
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if args.infinite_index:
        print(INFINITE_INDEX_MESSAGE, file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return _dispatch(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "run":
        report = sc.run_scenario(args.scenario)
        _emit(report, args)
        return report.exit_code

    if args.command == "interpolate":
        q = {"query": "interpolate", "branch": args.branch, "n_max": args.n_max}
        if args.doubling is not None:
            q["doubling"] = args.doubling
        elif args.sample is not None:
            q["sample"] = _json_arg(args.sample, "sample")
        else:
            raise ValidationError("sample", "need --sample or --doubling")
        data = _scenario_for(args, [{"kind": "integers"}], [q])
        report = sc.run_scenario(data)
        _emit(report, args)
        return 0

    rings = [parse_ring_token(t) for t in (args.ring if isinstance(args.ring, list)
                                           else [args.ring])]

    if args.command == "maxideals":
        queries = [{"query": "maxideals", "bound": args.bound}]
    elif args.command == "check-plus":
        queries = [{"query": "check-plus", "ring": 0,
                    "r": _json_arg(args.r_elem, "r"), "a": _json_arg(args.a_elem, "a")}]
    elif args.command == "check-plusplus":
        q = {"query": "check-plusplus", "ring": 0}
        if args.r_elem is not None:
            q["r"] = _json_arg(args.r_elem, "r")
        queries = [q]
    elif args.command == "ideal-member":
        queries = [{"query": "ideal-member",
                    "ideal": _json_arg(args.ideal, "ideal"),
                    "element": _json_arg(args.element, "element")}]
    elif args.command == "minimal-prime":
        queries = [{"query": "minimal-prime",
                    "ultrafilter": _json_arg(args.ultrafilter, "ultrafilter")}]
    elif args.command == "valuation-compare":
        queries = [{"query": "valuation-compare",
                    "ultrafilter": _json_arg(args.ultrafilter, "ultrafilter"),
                    "a": _json_arg(args.a, "a"), "b": _json_arg(args.b, "b")}]
    elif args.command == "ug-member":
        queries = [{"query": "ug-member",
                    "ultrafilter": _json_arg(args.ultrafilter, "ultrafilter"),
                    "g": _json_arg(args.g, "g"), "x": _json_arg(args.x, "x")}]
    elif args.command == "ll":
        queries = [{"query": "ll",
                    "ultrafilter": _json_arg(args.ultrafilter, "ultrafilter"),
                    "g": _json_arg(args.g, "g"), "h": _json_arg(args.h_vec, "h")}]
    elif args.command == "oracle":
        queries = [{"query": "oracle", "mark_primes": not args.no_primes}]
    else:
        raise ValidationError("command", f"unknown command {args.command!r}")

    data = _scenario_for(args, rings, queries)
    if args.command == "oracle":
        data["options"]["oracle_budget"] = args.budget
    report = sc.run_scenario(data)
    _emit(report, args)
    return 0


def _emit(report: sc.Report, args):
    text = report.render_machine() if args.format == "machine" else report.render_text()
    sys.stdout.write(text)


if __name__ == "__main__":
    raise SystemExit(main())
