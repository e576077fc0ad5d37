"""Malformed scenarios end in an exit code, never in a traceback.

Each example takes one of the corpus scenarios and replaces one or two of
its leaves (a scalar, or a list of scalars such as a coefficient list) by a
junk value, then runs it through the command line.  The examples come from
a ``random.Random`` with a fixed seed, so every run checks the same ones.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import random
import struct
import sys

from prodideals import cli

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
CORPUS = {path.name: json.loads(path.read_text()) for path in sorted(SCENARIO_DIR.glob("*.json"))}
EXAMPLES = 250

JUNK_VALUES = [None, True, False, [], [1], [None], {}, {"x": 1}, {"poly": 5},
               {"poly": "101"}, {"poly": [1, "a"]}, "3/0", "x", "", "inf"]
JUNK_INTEGERS = [0, -1, 2, 10**30, -10**30, 2**64]
JUNK_FLOATS = [0.0, -0.0, 5e-324, 1e308, -1e308, sys.float_info.max, float(2**53), 0.5, -1.5]


def _float(rng):
    """An edge of ``JUNK_FLOATS``, or a finite double drawn by its bits."""
    value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    return value if rng.random() < 0.5 and math.isfinite(value) else rng.choice(JUNK_FLOATS)


JUNK = (lambda rng: rng.choice(JUNK_VALUES), lambda rng: rng.choice(JUNK_INTEGERS), _float)


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path
        if isinstance(obj, list):
            for i in range(len(obj)):
                yield path + (i,)


LEAVES = {name: list(_leaves(data)) for name, data in CORPUS.items()}


def mutated_scenarios(rng, count):
    for _ in range(count):
        name = rng.choice(sorted(CORPUS))
        data = copy.deepcopy(CORPUS[name])
        paths = rng.sample(LEAVES[name], rng.randint(1, 2))
        # the deeper path first, so a path inside a replaced list still exists
        for path in sorted(paths, key=len, reverse=True):
            owner = data
            for key in path[:-1]:
                owner = owner[key]
            owner[path[-1]] = rng.choice(JUNK)(rng)
        yield data


def test_mutated_scenario_exits_without_traceback(tmp_path):
    path = tmp_path / "mutated.json"
    for data in mutated_scenarios(random.Random("prodideals:fuzz"), EXAMPLES):
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["run", str(path)])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (code, err.getvalue(), data)
        assert "Traceback" not in err.getvalue(), data
