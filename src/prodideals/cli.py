"""Command-line interface: one subcommand per construct, plus scenario runs.

Ring arguments use compact tokens: ``Z``, ``Z/12``, ``Z_(2,5)``, ``F2[x]``.
Structured arguments (ultrafilters, elements, value vectors, ideals) are
JSON, in the same encodings scenario files use.  Output is deterministic;
``--format machine`` emits one JSON record per line.

Exit codes: 0 success, 1 input error, 2 failed assertion in a scenario.

``read_argv`` reads a well-formed command line from the flag tables alone.
Only a line it declines (help, or a usage error) makes ``main`` build the
argparse parser, which then prints what it always printed.

Importing this module calls ``gc.freeze()`` once: the start-up heap lives
until the process exits, so later collections and interpreter exit skip it.
Only the CLI freezes, since it owns its process; a library never does, as a
host application's heap is not the library's to freeze.
"""

from __future__ import annotations

import gc
import json
import re
import sys

from . import scenario as sc
from .errors import INPUT_ERRORS, ValidationError

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


#: The flags every command takes, before or after its name: (flag, argparse
#: keywords).  None has a default, so an absent flag leaves no attribute.
GLOBAL_FLAGS = (
    ("--format", {"choices": ("text", "machine")}),
    ("--bound", {"type": int, "help": "generator bound for enumerations over infinite spectra"}),
    ("--log-base", {"type": int, "help":
                    "integer logarithm base for interpolation (default: natural log)"}),
    ("--infinite-index", {"action": "store_true",
                          "help": "request infinite index sets (always refused)"}),
)

#: ``-r`` for a query over a product of rings, and for one over a single ring
_RINGS = {"action": "append", "metavar": "RING", "help": "component ring token (repeatable)"}
_ONE_RING = {}

#: One row per query kind with a command-line form, keyed by the kind, in
#: ``--help`` order: (help, ``-r`` keywords or None for a query over ``Z``,
#: flags).  A flag is (flag, field, argparse keywords); its value goes to the
#: query's ``field``, a field of the kind's ``scenario.QUERIES`` row, or to a
#: scenario option when the field reads ``options.<name>``; ``_flags`` makes
#: it ``required`` exactly when that field has no default.  A flag without
#: ``type``, ``choices`` or ``action`` is JSON text.  A flag is forwarded
#: only when given, so the scenario's defaults are the only ones.
COMMANDS = {
    "maxideals": ("enumerate maximal ideals", _RINGS, ()),
    "check-plus": ("separating element for (r, a)", _ONE_RING, (
        ("--r-elem", "r", {"help": "JSON element"}),
        ("--a-elem", "a", {"help": "JSON element (nonzero)"}))),
    "check-plusplus": ("strong separation verdict", _ONE_RING, (
        ("--r-elem", "r", {"help": "optional JSON element"}),)),
    "ideal-member": ("decide ideal membership", _RINGS, (
        ("--ideal", "ideal", {"help": "JSON ideal descriptor"}),
        ("--element", "element", {"help": "JSON element list"}))),
    "minimal-prime": ("the minimal prime below an ultrafilter ideal", _RINGS, (
        ("--ultrafilter", "ultrafilter", {"help": "JSON ultrafilter"}),)),
    "valuation-compare": ("compare induced valuations of two elements", _RINGS, (
        ("--ultrafilter", "ultrafilter", {}),
        ("-a", "a", {"help": "JSON element list"}),
        ("-b", "b", {"help": "JSON element list"}))),
    "ug-member": ("valuation-threshold ideal membership", _RINGS, (
        ("--ultrafilter", "ultrafilter", {}),
        ("-g", "g", {"help": "JSON value vector"}),
        ("-x", "x", {"help": "JSON element list"}))),
    "ll": ("domination order on value vectors", _RINGS, (
        ("--ultrafilter", "ultrafilter", {}),
        ("-g", "g", {"help": "JSON value vector"}),
        ("--h-vec", "h", {"help": "JSON value vector"}))),
    "interpolate": ("construct the middle of a domination chain on a sample", None, (
        ("--branch", "branch", {"choices": ("V", "W")}),
        ("--sample", "sample", {"help": 'JSON {"g": [...], "h": [...], "n": [...]}'}),
        ("--doubling", "doubling",
         {"type": int, "help": "use the built-in doubling sample of this length (branch W)"}),
        ("--n-max", "n_max", {"type": int}))),
    "oracle": ("brute-force ideal survey of a finite residue product", _RINGS, (
        ("--no-primes", "mark_primes",
         {"action": "store_false", "help": "skip primality marking"}),
        ("--budget", "options.oracle_budget", {"type": int}))),
}


def _flags(command: str) -> list:
    """(option strings, argparse keywords) of each flag of ``command``'s row,
    ``required`` exactly when the field it sets has no default."""
    _, rings, flags = COMMANDS[command]
    fields = {f.name: f for f in sc.QUERIES[command][1].fields}
    fields.update((f"options.{f.name}", f) for f in sc.OPTIONS.fields)
    ring = [] if rings is None else [(("-r", "--ring"), {"required": True, **rings})]
    return ring + [((flag,), {**kwargs, "required": fields[field].default is None})
                   for flag, field, kwargs in flags]


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, for a line ``read_argv`` declines."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # a usage error exits 1, like every input error; 2 is a failed assert
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for flag, kwargs in GLOBAL_FLAGS:
        common.add_argument(flag, **kwargs)
    parser = Parser(prog="prodideals", parents=[common],
                    description="prime and maximal ideals in finite products of arithmetic rings")
    sub = parser.add_subparsers(dest="command", parser_class=Parser)
    run = sub.add_parser("run", parents=[common], help="execute a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    for name, (text, _, _) in COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], help=text,
                             argument_default=argparse.SUPPRESS)
        for strings, kwargs in _flags(name):
            cmd.add_argument(*strings, **kwargs)
    return parser


def read_argv(argv) -> dict | None:
    """``vars(build_parser().parse_args(argv))`` for a well-formed ``argv``;
    None for help, an unknown or abbreviated flag, ``--flag=value``, a value
    that starts with ``-`` and every usage error, left to the full parser."""
    table = {flag: (_dest(flag), kwargs) for flag, kwargs in GLOBAL_FLAGS}
    args, positionals = {}, []
    words = iter(argv)
    for word in words:
        if not word.startswith("-"):
            if "command" in args:
                positionals.append(word)
            elif word == "run" or word in COMMANDS:
                args["command"] = word
                for strings, kwargs in () if word == "run" else _flags(word):
                    table.update(dict.fromkeys(strings, (_dest(strings[-1]), kwargs)))
            else:
                return None
            continue
        dest, kwargs = table.get(word, (None, {}))
        action = kwargs.get("action", "store")
        if action.startswith("store_"):
            args[dest] = action == "store_true"
            continue
        value = next(words, "-")
        if dest is None or value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        args[dest] = args.get(dest, []) + [value] if action == "append" else value
    if "command" not in args or len(positionals) != (args["command"] == "run"):
        return None
    args.update(zip(["scenario"], positionals))
    required = {dest for dest, kwargs in table.values() if kwargs.get("required")}
    return args if required <= args.keys() else None


def _scenario_for(given: dict) -> dict:
    """The one-query scenario that a subcommand's arguments describe."""
    command = given["command"]
    _, rings, flags = COMMANDS[command]
    if rings is None:
        ring_list = [{"kind": "integers"}]
    else:
        tokens = given["ring"] if isinstance(given["ring"], list) else [given["ring"]]
        ring_list = [parse_ring_token(t) for t in tokens]
    if command == "interpolate" and not given.keys() & {"sample", "doubling"}:
        raise ValidationError("sample", "need --sample or --doubling")
    query = {"query": command}
    options = {key: given[key] for key in ("bound", "log_base") if key in given}
    for flag, field, kwargs in flags:
        if _dest(flag) in given:
            value = given[_dest(flag)]
            if not kwargs.keys() & {"type", "choices", "action"}:
                try:
                    value = json.loads(value)
                except json.JSONDecodeError as exc:
                    raise ValidationError(field, f"invalid JSON: {exc.msg}")
            section, _, key = field.rpartition(".")
            (options if section else query)[key] = value
    return {"schema_version": sc.SCHEMA_VERSION, "rings": ring_list,
            "queries": [query], "options": options}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_argv(argv)
    if args is None:
        args = vars(build_parser().parse_args(argv))
    # a parser default would also overwrite a global flag given before the
    # subcommand, so the defaults of the two always read are filled in here
    args = {"format": "text", "infinite_index": False, **args}
    if args["infinite_index"]:
        print(INFINITE_INDEX_MESSAGE, file=sys.stderr)
        return 1
    if args["command"] is None:
        build_parser().print_help()
        return 1
    try:
        report = sc.run_scenario(
            args["scenario"] if args["command"] == "run" else _scenario_for(args))
        report.write(sys.stdout.write, args["format"] == "machine")
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
