"""Command-line interface: one subcommand per construct, plus scenario runs.

Ring arguments use compact tokens: ``Z``, ``Z/12``, ``Z_(2,5)``, ``F2[x]``.
Structured arguments (ultrafilters, elements, value vectors, ideals) are
JSON, in the same encodings scenario files use.  Output is deterministic;
``--format machine`` emits one JSON record per line.

Exit codes: 0 success, 1 input error, 2 failed assertion in a scenario.

Importing this module calls ``gc.freeze()`` once: the start-up heap lives
until the process exits, so later collections skip it and interpreter exit
no longer collects and frees it object by object.  Only the CLI freezes,
since it owns its process; a library module never does, because a host
application's heap is not the library's to freeze.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys

from . import scenario as sc
from .errors import INPUT_ERRORS, ValidationError

# once per process, at import: the start-up heap lives until exit, so no later
# collection, the one at exit included, needs to scan or free it
gc.freeze()

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


class _FullParserNeeded(Exception):
    pass


class _OneCommandParser(_Parser):
    """The top level of a parser built for one subcommand.  Its help and its
    usage would list that subcommand alone, so it prints neither: ``main``
    parses again with every subcommand, which prints them as they are."""

    def error(self, message):
        raise _FullParserNeeded

    def print_help(self, file=None):
        raise _FullParserNeeded


#: ``-r`` for a query over a product of rings, and for one over a single ring
_RINGS = {"action": "append", "metavar": "RING", "help": "component ring token (repeatable)"}
_ONE_RING = {}

#: One row per query kind with a command-line form, keyed by the kind, in
#: ``--help`` order: (help, ``-r`` keywords or None for a query over ``Z``,
#: flags).  A flag is (flag, field, argparse keywords); its value goes to the
#: query's ``field``, or to a scenario option when the field reads
#: ``options.<name>``.  A flag without ``type``, ``choices`` or ``action`` is
#: JSON text.  A flag is forwarded only when given, so the scenario's
#: defaults are the only ones.
COMMANDS = {
    "maxideals": ("enumerate maximal ideals", _RINGS, ()),
    "check-plus": ("separating element for (r, a)", _ONE_RING, (
        ("--r-elem", "r", {"required": True, "help": "JSON element"}),
        ("--a-elem", "a", {"required": True, "help": "JSON element (nonzero)"}))),
    "check-plusplus": ("strong separation verdict", _ONE_RING, (
        ("--r-elem", "r", {"help": "optional JSON element"}),)),
    "ideal-member": ("decide ideal membership", _RINGS, (
        ("--ideal", "ideal", {"required": True, "help": "JSON ideal descriptor"}),
        ("--element", "element", {"required": True, "help": "JSON element list"}))),
    "minimal-prime": ("the minimal prime below an ultrafilter ideal", _RINGS, (
        ("--ultrafilter", "ultrafilter", {"required": True, "help": "JSON ultrafilter"}),)),
    "valuation-compare": ("compare induced valuations of two elements", _RINGS, (
        ("--ultrafilter", "ultrafilter", {"required": True}),
        ("-a", "a", {"required": True, "help": "JSON element list"}),
        ("-b", "b", {"required": True, "help": "JSON element list"}))),
    "ug-member": ("valuation-threshold ideal membership", _RINGS, (
        ("--ultrafilter", "ultrafilter", {"required": True}),
        ("-g", "g", {"required": True, "help": "JSON value vector"}),
        ("-x", "x", {"required": True, "help": "JSON element list"}))),
    "ll": ("domination order on value vectors", _RINGS, (
        ("--ultrafilter", "ultrafilter", {"required": True}),
        ("-g", "g", {"required": True, "help": "JSON value vector"}),
        ("--h-vec", "h", {"required": True, "help": "JSON value vector"}))),
    "interpolate": ("construct the middle of a domination chain on a sample", None, (
        ("--branch", "branch", {"choices": ("V", "W")}),
        ("--sample", "sample", {"help": 'JSON {"g": [...], "h": [...], "n": [...]}'}),
        ("--doubling", "doubling",
         {"type": int, "help": "use the built-in doubling sample of this length"}),
        ("--n-max", "n_max", {"type": int}))),
    "oracle": ("brute-force ideal survey of a finite residue product", _RINGS, (
        ("--no-primes", "mark_primes",
         {"action": "store_false", "help": "skip primality marking"}),
        ("--budget", "options.oracle_budget", {"type": int}))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone: a process
    runs one command, so it need not build the others."""
    # the global flags are accepted both before and after the subcommand;
    # no flag has a default, so an absent flag leaves no attribute behind
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("text", "machine"))
    common.add_argument("--bound", type=int,
                        help="generator bound for enumerations over infinite spectra")
    common.add_argument("--log-base", type=int,
                        help="integer logarithm base for interpolation (default: natural log)")
    common.add_argument("--infinite-index", action="store_true",
                        help="request infinite index sets (always refused)")

    parser = (_Parser if command is None else _OneCommandParser)(
        prog="prodideals",
        description="prime and maximal ideals in finite products of arithmetic rings",
        parents=[common])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    if command in (None, "run"):
        run = sub.add_parser("run", parents=[common], help="execute a scenario file")
        run.add_argument("scenario", help="path to a scenario JSON file")
    for name, (text, rings, flags) in COMMANDS.items():
        if command not in (None, name):
            continue
        cmd = sub.add_parser(name, parents=[common], help=text,
                             argument_default=argparse.SUPPRESS)
        if rings is not None:
            cmd.add_argument("-r", "--ring", required=True, **rings)
        for flag, _, kwargs in flags:
            cmd.add_argument(flag, **kwargs)
    return parser


def _scenario_for(args) -> dict:
    """The one-query scenario that a subcommand's arguments describe."""
    _, rings, flags = COMMANDS[args.command]
    given = vars(args)
    if rings is None:
        ring_list = [{"kind": "integers"}]
    else:
        tokens = args.ring if isinstance(args.ring, list) else [args.ring]
        ring_list = [parse_ring_token(t) for t in tokens]
    if args.command == "interpolate":
        # the doubling sample takes precedence, and --sample is then not read
        if "doubling" in given:
            given.pop("sample", None)
        elif "sample" not in given:
            raise ValidationError("sample", "need --sample or --doubling")
    query = {"query": args.command}
    options = {key: given[key] for key in ("bound", "log_base") if key in given}
    for flag, field, kwargs in flags:
        dest = flag.lstrip("-").replace("-", "_")
        if dest in given:
            value = given[dest]
            if not kwargs.keys() & {"type", "choices", "action"}:
                value = _json_arg(value, field)
            section, _, key = field.rpartition(".")
            (options if section else query)[key] = value
    return {"schema_version": sc.SCHEMA_VERSION, "rings": ring_list,
            "queries": [query], "options": options}


_GLOBAL_DEFAULTS = {"format": "text", "infinite_index": False}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # no value of a global flag names a command, so the first argument that
    # names one is the command; help and usage errors need every command
    command = next((a for a in argv if a == "run" or a in COMMANDS), None)
    try:
        args = build_parser(command).parse_args(argv)
    except _FullParserNeeded:
        args = build_parser().parse_args(argv)
    # a parser default would also overwrite a global flag given before the
    # subcommand, so the defaults of the two always read are filled in here
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if args.infinite_index:
        print(INFINITE_INDEX_MESSAGE, file=sys.stderr)
        return 1
    if args.command is None:
        build_parser().print_help()
        return 1
    try:
        return _dispatch(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    report = sc.run_scenario(args.scenario if args.command == "run" else _scenario_for(args))
    report.write(sys.stdout.write, args.format == "machine")
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
