"""Differential check of ``cli.read_argv`` against the full argparse parser.

Command lines are generated from ``cli.COMMANDS``, ``cli.GLOBAL_FLAGS`` and
``run``'s positional.  Half are well-formed: any flag order, global flags
before and after the command, flags repeated.  The other half are those
lines with one mutation, which argparse may reject or read in its own way.
For every line the reader must either decline (return None) or return
exactly ``vars(build_parser().parse_args(line))``, and it must read every
well-formed line.

Standard library only, so it runs under interpreters without pytest::

    python tests/argv_differential.py [LINES] [SEED]

It prints a summary and exits 1 if any line disagrees.
"""

import contextlib
import io
import pathlib
import random
import sys

#: values of a JSON flag: none starts with "-", and command names are among them
JSON_VALUES = ("{}", "[6]", "2", '{"poly": [1, 0, 1]}', "", "a b", "x=1", "run", "oracle")
RING_VALUES = ("Z", "Z/12", "F2[x]", "Z_(2,5)", "maxideals")
INT_VALUES = ("0", "3", "16", "007", "+5", " 12", "1_000")
SCENARIOS = ("scenario.json", "a b.json", "maxideals")


def command_flags(cli, command) -> list:
    """(option strings, argparse keywords) of each flag ``command`` takes
    besides the global ones, as ``cli._flags`` reads them from its
    ``COMMANDS`` row."""
    return [] if command == "run" else cli._flags(command)


def flag_unit(rng, strings, kwargs) -> list:
    """One use of a flag: the flag alone, or the flag and a valid value."""
    words = [rng.choice(strings)]
    if kwargs.get("action", "").startswith("store_"):
        return words
    if "choices" in kwargs:
        return words + [rng.choice(kwargs["choices"])]
    if kwargs.get("type") is int:
        return words + [rng.choice(INT_VALUES)]
    return words + [rng.choice(RING_VALUES if "--ring" in strings else JSON_VALUES)]


def well_formed(rng, cli):
    """(units before the command, the command, units after it): each unit is
    one flag use or ``run``'s positional."""
    command = rng.choice(["run", *cli.COMMANDS])
    before, after = [], []
    for flag, kwargs in cli.GLOBAL_FLAGS:
        for _ in range(rng.choice((0, 0, 1, 2))):
            (before if rng.random() < 0.5 else after).append(flag_unit(rng, (flag,), kwargs))
    for strings, kwargs in command_flags(cli, command):
        uses = (1 if kwargs.get("required") else rng.choice((0, 1))) + rng.choice((0, 0, 1))
        after += [flag_unit(rng, strings, kwargs) for _ in range(uses)]
    if command == "run":
        after.append([rng.choice(SCENARIOS)])
    rng.shuffle(before)
    rng.shuffle(after)
    return before, command, after


def mutate(rng, cli, before, command, after):
    """The line with one mutation applied, and the mutation's name."""
    kind = rng.choice(MUTATIONS)
    at = rng.randint(0, sum(map(len, before + after)) + 1)
    valued = [u for u in before + after if len(u) == 2]
    required = {flag for strings, kwargs in command_flags(cli, command)
                if kwargs.get("required") for flag in strings}
    droppable = [u for u in after if u[0] in required or not u[0].startswith("-")]
    if kind == "drop-required" and droppable:
        after.remove(rng.choice(droppable))
    elif kind == "abbreviate" and any(u[0].startswith("--") for u in before + after):
        unit = rng.choice([u for u in before + after if u[0].startswith("--")])
        unit[0] = unit[0][:rng.randint(3, len(unit[0]) - 1)]
    elif kind == "equals" and valued:
        unit = rng.choice(valued)
        unit[:] = [f"{unit[0]}={unit[1]}"]
    elif kind == "negative" and valued:
        rng.choice(valued)[1] = rng.choice(("-3", "-1", "-x", "-", "--"))
    elif kind == "bad-value" and valued:
        rng.choice(valued)[1] = rng.choice(("x", "1.5", "xml", "v", "TEXT", "1e3"))
    elif kind == "command-as-value" and valued:
        rng.choice(valued)[1] = rng.choice(["run", *cli.COMMANDS])
    elif kind == "extra-positional":
        after.append([rng.choice(("extra", "run", command))])
    elif kind == "flag-before-command" and after:
        before.append(after.pop(rng.randrange(len(after))))
    elif kind == "no-command":
        command = None
    elif kind == "unknown-command":
        command = rng.choice(("no-such-command", "Run", "max", "maxideals-"))
    line = [w for u in before for w in u] + ([command] if command else [])
    line += [w for u in after for w in u]
    insert = {"double-dash": ["--"], "help": [rng.choice(("-h", "--help"))],
              "unknown-flag": rng.choice((["--seed", "3"], ["-q"], ["--r-elem2", "1"]))}
    if kind in insert:
        line[at:at] = insert[kind]
    return line, kind


MUTATIONS = ("drop-required", "abbreviate", "equals", "negative", "bad-value",
             "command-as-value", "extra-positional", "flag-before-command", "no-command",
             "unknown-command", "double-dash", "help", "unknown-flag")


def full_parse(parser, line):
    """``vars(parser.parse_args(line))``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(line))
        except SystemExit:
            return None


def check(lines: int = 2400, seed: int = 0):
    """(counts, disagreements) over ``lines`` generated lines."""
    from prodideals import cli

    rng = random.Random(seed)
    parser = cli.build_parser()
    counts = {"well-formed": 0, "mutated read": 0, "mutated declined": 0}
    counts.update(dict.fromkeys(MUTATIONS, 0))
    disagreements = []
    for i in range(lines):
        before, command, after = well_formed(rng, cli)
        kind = None
        if i % 2:
            line, kind = mutate(rng, cli, before, command, after)
            counts[kind] += 1
        else:
            line = [w for u in before for w in u] + [command] + [w for u in after for w in u]
            counts["well-formed"] += 1
        read = cli.read_argv(line)
        if read is None:
            if kind is None:
                disagreements.append(("declined a well-formed line", line))
            else:
                counts["mutated declined"] += 1
            continue
        if kind is not None:
            counts["mutated read"] += 1
        full = full_parse(parser, line)
        if read != full:
            disagreements.append((kind or "well-formed", line, read, full))
    return counts, disagreements


def main(argv) -> int:
    lines, seed = (int(a) for a in (argv + ["2400", "0"][len(argv):])[:2])
    counts, disagreements = check(lines, seed)
    for entry in disagreements:
        print("DISAGREE", *entry)
    print(f"Python {sys.version.split()[0]}: {lines} lines, seed {seed}: "
          + ", ".join(f"{k} {v}" for k, v in counts.items())
          + f"; {len(disagreements)} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main(sys.argv[1:]))
