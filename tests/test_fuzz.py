"""Malformed scenarios end in an exit code, never in a traceback.

Each example takes one of the corpus scenarios and replaces one or two of
its leaves (a scalar, or a list of scalars such as a coefficient list) by a
junk value, then runs it through the command line.
"""

import contextlib
import copy
import io
import json
import pathlib

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from prodideals import cli  # noqa: E402

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
CORPUS = {path.name: json.loads(path.read_text()) for path in sorted(SCENARIO_DIR.glob("*.json"))}

JUNK = st.one_of(
    st.sampled_from([None, True, False, [], [1], [None], {}, {"x": 1}, {"poly": 5},
                     {"poly": "101"}, {"poly": [1, "a"]}, "3/0", "x", "", "inf"]),
    st.sampled_from([0, -1, 2, 10**30, -10**30, 2**64]),
    st.floats(allow_nan=False, allow_infinity=False),
)


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


@st.composite
def mutated_scenarios(draw):
    name = draw(st.sampled_from(sorted(CORPUS)))
    data = copy.deepcopy(CORPUS[name])
    paths = draw(st.lists(st.sampled_from(LEAVES[name]), min_size=1, max_size=2, unique=True))
    # the deeper path first, so a path inside a replaced list still exists
    for path in sorted(paths, key=len, reverse=True):
        owner = data
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = draw(JUNK)
    return data


@settings(derandomize=True, max_examples=250, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_scenarios())
def test_mutated_scenario_exits_without_traceback(tmp_path, data):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["run", str(path)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
