import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import argv_differential
from conftest import spawn_cli
import prodideals
from prodideals.cli import (
    COMMANDS,
    INFINITE_INDEX_MESSAGE,
    build_parser,
    main,
    parse_ring_token,
    read_argv,
)
from prodideals import scenario
from prodideals.errors import ParseError, ValidationError
from prodideals.fqpoly import field, pmul
from prodideals.scenario import (
    SCHEMA_VERSION,
    decode_ring,
    encode_ring_element,
    parse_scenario,
    run_scenario,
)
from prodideals.rings import IntegerRing, ResidueRing

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
Z = {"kind": "integers"}
Z12 = {"kind": "residue", "n": 12}
U2 = {"coordinate": 0, "principal": 2}
FRECHET_COMPARE = {"query": "valuation-compare",
                   "ultrafilter": {"coordinate": 0, "cofinite_frechet": True}}
# two irreducibles of degree 17 over F2: x^17 + x^3 + 1, x^17 + x^3 + x^2 + x + 1
X17_A = (1, 0, 0, 1) + (0,) * 13 + (1,)
X17_B = (1, 1, 1, 1) + (0,) * 13 + (1,)
# one named object of each declared type, and queries naming one of the wrong
# type, with the type each one needs
NAMED = {"U": {"type": "ultrafilter", "coordinate": 0, "principal": 2},
         "e": {"type": "element", "entries": [2, 1]},
         "g": {"type": "value_vector", "defaults": [1, 1]}}
WRONG_TYPE = [
    ({"query": "minimal-prime", "ultrafilter": "e"}, "ultrafilter"),
    ({"query": "ug-member", "ultrafilter": "U", "g": "e", "x": "e"}, "value_vector"),
    ({"query": "valuation-compare", "ultrafilter": "g", "a": "e", "b": "e"}, "ultrafilter"),
    ({"query": "skolem", "elements": ["U"]}, "element"),
    ({"query": "ideal-member", "ideal": "U", "element": "e"}, "ideal"),
]


#: one literal of each shape, and of each kind of a kinded shape, over the
#: product Z x Z/12
SHAPE_LITERALS = {
    "ring": [Z, Z12, {"kind": "localized_integers", "primes": [2, 3]},
             {"kind": "poly_fq", "q": 4}],
    "ultrafilter": [U2, {"coordinate": 0, "cofinite_frechet": True}],
    "element": [[2, 1], [-7, 11]],
    "value_vector": [{"defaults": [1, "inf"],
                      "exceptions": [{"coord": 0, "ideal": 3, "value": 4}]}],
    "exception": [{"coord": 1, "ideal": 2, "value": "inf"}],
    "ideal": [{"kind": "ultrafilter_ideal", "ultrafilter": U2},
              {"kind": "kernel_ideal", "coordinate": 1},
              {"kind": "pointwise_max_ideal", "coordinate": 0, "ideals": [3, 2]},
              {"kind": "valuation_ideal", "ultrafilter": U2,
               "g": {"defaults": [1, 2], "exceptions": [{"coord": 0, "ideal": 3, "value": 4}]}}],
    "options": [{"bound": 3, "n_max": 5, "factor_budget": 100, "oracle_budget": 50,
                 "log_base": 2}],
}


# both sieve paths, two equal components, a generator above 2**53 (written as
# a string) and a field coordinate, whose entries carry no witness
MIXED_RINGS = ["F8[x]", "Z", "F2[x]", "Z_(9007199254740997)", "Z", "F3[x]", "Z/7"]
#: the sha256 of the machine report of maxideals over each product, at its bound
MAXIDEALS_PINS = [
    (["Z", "Z_(2,3)", "Z/30"], 60,
     "377e030ac090acd964fc76a9e9194748e6b74db8eca4e346bdd3f025caf4847a"),
    (["F2[x]", "Z/7"], 6,
     "0db628fd56a17674dbc8455af61dc6afbb3f3d48232309bf0f2103bfdff6fece"),
    (["F4[x]", "Z", "Z/12"], 4,
     "6feb63eaa3d933e3ed1fea32867f4ebbd3a581c4ec01f1320f5f5a9126ab26b1"),
    (MIXED_RINGS, 4,
     "18629a9455e3bb45ec1528fd19cb3a005edc5412b373a89610d23c31a1e55cd8"),
]
#: the sha256 of each corpus report: its file, its format and its exit code
CORPUS_PINS = [
    ("integers_squared.json", "text", 0,
     "f93064ac3e949fe344c4f0c9b0f043991a728e32da4fb5d7a5993d63d83c7b6c"),
    ("integers_squared.json", "machine", 0,
     "2b79056b88760cbf43b84f006d9fdc2e39657c6357e359047e83c7e81a053599"),
    ("mixed_catalog.json", "text", 0,
     "2bf2a7470faa3f3abe1aa2d063a64f88b94208c391284f3b1635b5e13e711619"),
    ("mixed_catalog.json", "machine", 0,
     "bdf0a118c69dfc524411c8ec6392202dbac6a23f0df57b40f9e449d8852df4b1"),
    ("residue_products.json", "text", 0,
     "f44095c7fc15e0524208eafc74489b171499e81fbf1f400c518de7a96d94a4e2"),
    ("residue_products.json", "machine", 0,
     "de09025a595e97188704313d4689e166a8966e20fd9f5c48c64f4ccf47b87c05"),
]


def maxideals_argv(rings, bound):
    return (["--format", "machine", "maxideals", "--bound", str(bound)]
            + [a for r in rings for a in ("-r", r)])


def minimal_scenario(**overrides):
    data = {
        "schema_version": SCHEMA_VERSION,
        "rings": [{"kind": "integers"}],
        "product": [0, 0],
        "objects": {},
        "queries": [],
    }
    data.update(overrides)
    return data


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_import_loads_no_numpy_or_mpmath():
    # the package uses the standard library only: numpy and mpmath serve the
    # tests, and every CLI process would pay their import otherwise
    src = str(pathlib.Path(prodideals.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = "\nimport sys\nprint(sorted(m for m in ('numpy', 'mpmath') if m in sys.modules))"
    for code in (
            "import prodideals.cli",
            # an interpolation run, which needs the exact floor(n / log n)
            "import contextlib, io\n"
            "from prodideals.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['interpolate', '--doubling', '64', '--n-max', '5']) == 0",
            # every module of the package
            "import importlib, pkgutil, prodideals\n"
            "for m in pkgutil.iter_modules(prodideals.__path__):\n"
            "    importlib.import_module('prodideals.' + m.name)"):
        out = subprocess.run([sys.executable, "-c", code + probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]", code


class TestParsing:
    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("{ not json")
        assert exc.value.line == 1

    def test_schema_version_required(self):
        with pytest.raises(ValidationError) as exc:
            parse_scenario(json.dumps({"rings": [{"kind": "integers"}]}))
        assert "schema_version" in str(exc.value)

    def test_unknown_ring_kind(self):
        with pytest.raises(ValidationError):
            decode_ring({"kind": "number_field"})

    def test_bad_product_index(self):
        with pytest.raises(ValidationError) as exc:
            parse_scenario(json.dumps(minimal_scenario(product=[0, 3])))
        assert "product[1]" in str(exc.value)

    def test_unknown_query_kind(self):
        with pytest.raises(ValidationError):
            parse_scenario(json.dumps(minimal_scenario(
                queries=[{"query": "divine"}])))

    def test_big_integers_roundtrip(self):
        big = 2**80 + 1
        scn = parse_scenario(json.dumps(minimal_scenario(objects={
            "a": {"type": "element", "entries": [str(big), 1]}})))
        assert scn.objects["a"].entries[0].raw == big
        assert encode_ring_element(scn.objects["a"].entries[0]) == str(big)
        assert encode_ring_element(IntegerRing().element(7)) == 7

    def test_big_integer_value_vector(self):
        data = minimal_scenario(
            product=[0],
            objects={"g": {"type": "value_vector", "defaults": [1],
                           "exceptions": [{"coord": 0, "ideal": 2,
                                           "value": str(2**80)}]}},
            queries=[{"query": "ug-member",
                      "ultrafilter": {"coordinate": 0, "principal": 2},
                      "g": "g", "x": [2]}])
        report = run_scenario(json.dumps(data))
        # a finite threshold is always reached by a high enough power
        assert report.records[0]["verdict"] is True

    def test_factor_budget_option_enforced(self):
        from prodideals.errors import FactorizationBudgetExceeded
        big = (2**61 - 1) * (2**89 - 1)
        data = minimal_scenario(
            product=[0],
            queries=[{"query": "check-plus", "ring": 0, "r": 2, "a": str(big)}],
            options={"factor_budget": 100})
        with pytest.raises(FactorizationBudgetExceeded):
            run_scenario(json.dumps(data))


class TestExecution:
    def test_assert_failure_sets_exit_code(self):
        data = minimal_scenario(queries=[
            {"query": "assert",
             "of": {"query": "ideal-member",
                    "ideal": {"kind": "kernel_ideal", "coordinate": 0},
                    "element": [0, 1]},
             "expect": False}])
        report = run_scenario(json.dumps(data))
        assert report.exit_code == 2
        assert report.records[0]["actual"] is True

    def test_known_false_maximality_assert(self):
        # asserting maximality of a cofinite descriptor must fail the run
        data = minimal_scenario(
            objects={"UF": {"type": "ultrafilter", "coordinate": 0,
                            "cofinite_frechet": True}},
            queries=[{"query": "assert",
                      "of": {"query": "is-maximal", "ultrafilter": "UF"},
                      "expect": True}])
        report = run_scenario(json.dumps(data))
        assert report.exit_code == 2
        assert report.records[0]["actual"] is False

    def test_every_shape_row_round_trips(self):
        # each row of the table, and each kind of a kinded row, writes back
        # the literal it read; declared objects are read, never written
        from prodideals.products import Descriptor
        from prodideals.rings import FinCofSet, MaxIdealId
        scn = parse_scenario(minimal_scenario(rings=[Z, Z12], product=[0, 1]))
        assert set(scenario.IDEAL_KINDS) == {cls.kind for cls in Descriptor.__subclasses__()}
        assert set(scenario.SHAPES) == set(SHAPE_LITERALS) | {"object"}
        for name, literals in SHAPE_LITERALS.items():
            shape = scenario.SHAPES[name]
            if shape.kinds is not None:
                assert {obj["kind"] for obj in literals} == set(shape.kinds)
            for obj in literals:
                assert shape.encode(shape.decode(obj, name, scn)) == obj
        element = scenario.OBJECT_TYPES["element"]
        assert element.encode(element.decode({"entries": [2, 1]}, "e", scn)) == {"entries": [2, 1]}
        ring = IntegerRing()
        finite = FinCofSet.finite(ring, [MaxIdealId(ring, 3), MaxIdealId(ring, 2)])
        assert scenario.encode_fincof(finite) == {"finite": [2, 3]}
        assert scenario.encode_fincof(finite.complement()) == {"cofinite": [2, 3]}

    def test_corpus_runs_clean(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            report = run_scenario(str(path))
            assert report.exit_code == 0, path.name

    def test_corpus_is_byte_deterministic(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            first = run_scenario(str(path)).render_machine()
            second = run_scenario(str(path)).render_machine()
            assert first.encode() == second.encode(), path.name

    def test_machine_format_schema(self):
        report = run_scenario(str(SCENARIO_DIR / "integers_squared.json"))
        lines = report.render_machine().splitlines()
        header = json.loads(lines[0])
        assert header["schema_version"] == SCHEMA_VERSION
        assert header["type"] == "header"
        for line in lines[1:]:
            rec = json.loads(line)
            assert "verdict" in rec and "query" in rec and "provenance" in rec

    def test_every_verdict_has_provenance(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            for rec in run_scenario(str(path)).records:
                assert rec.get("provenance"), rec


class TestCli:
    def test_ring_tokens(self):
        assert parse_ring_token("Z") == {"kind": "integers"}
        assert parse_ring_token("Z/12") == {"kind": "residue", "n": 12}
        assert parse_ring_token("Z_(2,5)") == {"kind": "localized_integers",
                                               "primes": [2, 5]}
        assert parse_ring_token("F4[x]") == {"kind": "poly_fq", "q": 4}
        with pytest.raises(ValidationError):
            parse_ring_token("Q")

    def test_run_exit_codes(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(minimal_scenario()))
        assert run_cli(["run", str(good)])[0] == 0

        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        code, _, err = run_cli(["run", str(bad)])
        assert code == 1 and "error" in err

        failing = tmp_path / "failing.json"
        failing.write_text(json.dumps(minimal_scenario(queries=[
            {"query": "assert",
             "of": {"query": "ideal-member",
                    "ideal": {"kind": "kernel_ideal", "coordinate": 0},
                    "element": [0, 1]},
             "expect": False}])))
        assert run_cli(["run", str(failing)])[0] == 2

    @pytest.mark.parametrize("query, field", [
        ({"query": "maxideals", "bound": "big"}, "queries[0].bound"),
        ({"query": "maxideals", "bound": -5}, "queries[0].bound"),
        ({"query": "maxideals", "bound": 0}, "queries[0].bound"),
        ({"query": "maxideals", "bound": True}, "queries[0].bound"),
        ({"query": "check-plus", "ring": 5, "r": 2, "a": 6}, "queries[0].ring"),
        ({"query": "check-plus", "ring": -1, "r": 2, "a": 6}, "queries[0].ring"),
        ({"query": "check-plusplus", "ring": 5}, "queries[0].ring"),
        ({"query": "check-plusplus", "ring": "x"}, "queries[0].ring"),
        ({"query": "interpolate", "doubling": 4, "n_max": "x"}, "queries[0].n_max"),
        ({"query": "interpolate", "doubling": 4, "n_max": -3}, "queries[0].n_max"),
        ({"query": "interpolate", "doubling": 4, "n_max": 0}, "queries[0].n_max"),
        ({"query": "interpolate", "sample": [1, 2]}, "queries[0].sample"),
        ({"query": "interpolate", "sample": {"g": 5, "h": [1], "n": [2]}},
         "queries[0].sample"),
        ({"query": "ug-member", "ultrafilter": {"coordinate": 0, "principal": 2},
          "g": {"defaults": [1, 1], "exceptions": [{"ideal": 2, "value": 1}]},
          "x": [2, 1]}, "queries[0].g.exceptions[0]"),
        ({"query": "ll", "ultrafilter": {"coordinate": 0, "principal": 2},
          "g": {"defaults": [1, 1]},
          "h": {"defaults": [1, 1], "exceptions": [{"coord": 0, "value": 1}]}},
         "queries[0].h.exceptions[0]"),
        ({"query": "ll", "ultrafilter": {"coordinate": 0, "principal": 2},
          "g": {"defaults": [1, 1], "exceptions": [{"coord": 0, "ideal": 2}]},
          "h": {"defaults": [1, 1]}}, "queries[0].g.exceptions[0]"),
        ({"query": "ug-member", "ultrafilter": {"coordinate": 0, "principal": 2},
          "g": {"defaults": [1, 1], "exceptions": 5}, "x": [2, 1]},
         "queries[0].g.exceptions"),
        ({"query": "ideal-member", "ideal": {"kind": "kernel_ideal"}, "element": [2, 1]},
         "queries[0]"),
        ({"query": "ideal-member", "element": [2, 1],
          "ideal": {"kind": "pointwise_max_ideal", "coordinate": 0, "ideals": 7}},
         "queries[0]"),
        ({"query": "ideal-member", "element": [2, 1],
          "ideal": {"kind": "valuation_ideal",
                    "ultrafilter": {"coordinate": 0, "principal": 2}}}, "queries[0]"),
        ({"query": ["x"]}, "queries[0].query"),
        ({"query": "assert", "of": {"query": {}}}, "queries[0].of"),
        # errors of the descriptor constructors
        ({"query": "ideal-member", "element": [2, 1],
          "ideal": {"kind": "pointwise_max_ideal", "coordinate": 0, "ideals": [2]}},
         "queries[0]"),
        ({"query": "ideal-member", "ideal": {"kind": "kernel_ideal", "coordinate": 3},
          "element": [2, 1]}, "queries[0]"),
        # a "poly" that is not a list, and a generator of the wrong form
        ({"query": "ideal-member", "ideal": {"kind": "kernel_ideal", "coordinate": 0},
          "element": [{"poly": 5}, 1]}, "queries[0]"),
        ({"query": "minimal-prime",
          "ultrafilter": {"coordinate": 0, "principal": {"poly": "101"}}}, "queries[0]"),
        ({"query": "minimal-prime",
          "ultrafilter": {"coordinate": 0, "principal": {"poly": [1, 1]}}}, "queries[0]"),
        ({"query": "skolem", "elements": 1.5}, "queries[0].elements"),
        ({"query": "interpolate", "doubling": 10**30}, "queries[0]"),
        ({"query": "interpolate", "doubling": 4, "n_max": 10**30}, "queries[0]"),
        # a "mark_primes" that is not a JSON boolean
        ({"query": "oracle", "mark_primes": "false"}, "queries[0].mark_primes"),
        ({"query": "oracle", "mark_primes": [0]}, "queries[0].mark_primes"),
        ({"query": "oracle", "mark_primes": 0}, "queries[0].mark_primes"),
        # a named object of the wrong declared type
        *[(query, where) for (query, _), where in zip(WRONG_TYPE, [
            "queries[0]", "queries[0].g", "queries[0]", "queries[0].elements[0]", "queries[0]"])],
    ])
    def test_bad_query_field_is_located(self, tmp_path, query, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_scenario(
            rings=[{"kind": "integers"}, {"kind": "residue", "n": 12}],
            product=[0, 1], objects=NAMED, queries=[query])))
        code, out, err = run_cli(["run", str(path)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {field}:")

    @pytest.mark.parametrize("query, declared", WRONG_TYPE)
    def test_wrong_object_type_names_the_expected_type(self, query, declared):
        with pytest.raises(ValidationError, match=f"is not of type '{declared}'$"):
            run_scenario(json.dumps(minimal_scenario(
                rings=[Z, Z12], product=[0, 1], objects=NAMED, queries=[query])))

    @pytest.mark.parametrize("mark, prime_count", [(True, 2), (False, None)])
    def test_mark_primes_boolean(self, mark, prime_count):
        report = run_scenario(json.dumps(minimal_scenario(
            rings=[{"kind": "residue", "n": 6}], product=[0],
            queries=[{"query": "oracle", "mark_primes": mark}])))
        assert report.records[0]["verdict"]["prime_count"] == prime_count

    @pytest.mark.parametrize("argv, message", [
        # a decoding error inside a located decoder is located once
        (["check-plus", "-r", "Z", "--r-elem", "[1]", "--a-elem", "2"],
         "queries[0]: not an integer: [1]"),
        (["minimal-prime", "-r", "Z", "--ultrafilter", '{"coordinate":0,"principal":[2]}'],
         "queries[0]: not an integer: [2]"),
        (["ideal-member", "-r", "Z_(2)", "--ideal", '{"kind":"kernel_ideal","coordinate":0}',
          "--element", '["3/0"]'], "queries[0]: zero denominator: '3/0'"),
        # the ring tokens are read before any JSON flag
        (["check-plus", "-r", "Q", "--r-elem", "nonsense", "--a-elem", "1"],
         "ring: cannot parse ring token 'Q'"),
        # a "poly" that is not a list, a value of the wrong form for its
        # ring, a descriptor its constructor rejects, interpolation caps
        (["minimal-prime", "-r", "F2[x]", "--ultrafilter",
          '{"coordinate":0,"principal":{"poly":5}}'],
         'queries[0]: "poly" must be a list, got 5'),
        (["ideal-member", "-r", "F2[x]", "--ideal", '{"kind":"kernel_ideal","coordinate":0}',
          "--element", '[{"poly":5}]'], 'queries[0]: "poly" must be a list, got 5'),
        (["check-plus", "-r", "F2[x]", "--r-elem", '{"poly":"101"}', "--a-elem", "1"],
         "queries[0]: \"poly\" must be a list, got '101'"),
        (["minimal-prime", "-r", "Z", "--ultrafilter",
          '{"coordinate":0,"principal":{"poly":[1,1]}}'],
         "queries[0]: not an integer: (1, 1)"),
        (["ideal-member", "-r", "Z", "-r", "Z", "--ideal",
          '{"kind":"pointwise_max_ideal","coordinate":0,"ideals":[2]}', "--element", "[2,1]"],
         "queries[0]: need one maximal ideal per coordinate"),
        (["ideal-member", "-r", "Z", "-r", "Z", "--ideal",
          '{"kind":"kernel_ideal","coordinate":3}', "--element", "[2,1]"],
         "queries[0]: index out of range"),
        (["interpolate", "--doubling", "5000"],
         "queries[0]: doubling sample of length 5000 exceeds the interpolation cap 4096"),
        (["interpolate", "--doubling", "4", "--n-max", "5000"],
         "queries[0]: n_max 5000 exceeds the interpolation cap 4096"),
        # a ring the oracle does not handle, and a ring with a missing field
        (["oracle", "-r", "Z", "-r", "Z/6"],
         "queries[0]: the oracle handles residue rings only, got IntegerRing()"),
        *[(["run", json.dumps(minimal_scenario(rings=[{"kind": kind}], product=[0]))],
           f"rings[0]: missing field '{field}'")
          for kind, field in (("residue", "n"), ("localized_integers", "primes"),
                              ("poly_fq", "q"))],
        # check-plusplus reads a given r over every ring, also where the check fails
        *[(["run", json.dumps(minimal_scenario(rings=[ring], product=[0], queries=[
            {"query": "check-plusplus", "r": r}]))], f"queries[0]: not an integer: {r!r}")
          for ring in (Z, {"kind": "poly_fq", "q": 2}, Z12, {"kind": "localized_integers",
                                                             "primes": [2]})
          for r in ("garbage", None)],
        # a fraction string over F2[x], and the frame of the scenario itself
        (["check-plus", "-r", "F2[x]", "--r-elem", '"1/2"', "--a-elem", "1"],
         "queries[0]: not a coefficient sequence: '1/2'"),
        (["run", "list.json"], "$: scenario must be an object"),
        (["run", json.dumps(minimal_scenario(rings=[]))],
         "rings: need a nonempty list of ring descriptions"),
        (["run", json.dumps(minimal_scenario(product=[0], queries={}))],
         "queries: must be a list"),
        (["run", json.dumps(minimal_scenario(product=[0], queries=[{"bound": 3}]))],
         'queries[0]: each query needs a "query" field'),
        # a polynomial given over Z_(S), and a field order that is not a prime power
        (["check-plus", "-r", "Z_(2)", "--r-elem", '{"poly":[1,1]}', "--a-elem", "1"],
         "queries[0]: not a fraction: (1, 1)"),
        (["maxideals", "-r", "F6[x]"], "rings[0]: 6 is not a prime power"),
        # an argument that opens with "{" or "[" is JSON text, any other a path
        (["run", "[1]"], "$: scenario must be an object"),
        (["run", "missing.json"], "[Errno 2] No such file or directory: 'missing.json'"),
        # an oracle query inside an assert is located by the run, like the one above
        (["run", json.dumps(minimal_scenario(product=[0], queries=[
            {"query": "assert", "of": {"query": "oracle"}, "expect": 1}]))],
         "queries[0]: the oracle handles residue rings only, got IntegerRing()"),
    ])
    def test_cli_error_is_located(self, argv, message, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "list.json").write_text("[1]")
        assert run_cli(argv) == (1, "", f"error: {message}\n")

    def test_missing_file(self):
        code, _, err = run_cli(["run", "/nonexistent/scenario.json"])
        assert code == 1

    def test_infinite_index_refused_everywhere(self):
        for argv in (["--infinite-index", "maxideals", "-r", "Z"],
                     ["maxideals", "-r", "Z", "--infinite-index"],
                     ["--infinite-index", "run", "whatever.json"]):
            code, out, err = run_cli(argv)
            assert code == 1
            assert "out of scope" in err
            assert "finite index sets" in err
            assert err.strip() == INFINITE_INDEX_MESSAGE

    def test_maxideals_output(self):
        code, out, _ = run_cli(["--format", "machine", "maxideals",
                                "-r", "Z/12", "-r", "Z/10"])
        assert code == 0
        lines = out.splitlines()
        rec = json.loads(lines[1])
        assert len(rec["verdict"]["maximal"]) == 4
        assert rec["verdict"]["rejected"] == []

    @pytest.mark.parametrize("rings, bound, digest", MAXIDEALS_PINS)
    def test_maxideals_report_pinned(self, rings, bound, digest):
        # the machine report of each mixed product, byte for byte
        code, out, _ = run_cli(maxideals_argv(rings, bound))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("ring, bound, cap", [
        ("Z", 10**9, 10**6),
        ("F2[x]", 40, 2**16),
        ("F2305843009213693951[x]", 1, 2**16),
    ])
    def test_maxideals_bound_above_cap(self, ring, bound, cap):
        start = time.perf_counter()
        code, out, err = run_cli(["maxideals", "-r", ring, "--bound", str(bound)])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: ")
        assert f"bound {bound} " in err and f"cap {cap}" in err

    def test_check_plus_cli(self):
        code, out, _ = run_cli(["--format", "machine", "check-plus", "-r", "Z",
                                "--r-elem", "2", "--a-elem", "6"])
        rec = json.loads(out.splitlines()[1])
        assert code == 0 and rec["verdict"] == 3

    def test_interpolate_cli(self):
        code, out, _ = run_cli(["--format", "machine", "interpolate",
                                "--branch", "W", "--doubling", "16",
                                "--n-max", "5"])
        rec = json.loads(out.splitlines()[1])
        assert code == 0 and rec["verdict"] is True

    @pytest.mark.parametrize("doubling, base", [(1100, 2), (1100, 3), (4096, 2), (4096, 16)])
    def test_interpolate_large_doubling_with_integer_base(self, doubling, base):
        code, out, err = run_cli(["--format", "machine", "--log-base", str(base),
                                  "interpolate", "--doubling", str(doubling), "--n-max", "4"])
        assert (code, err) == (0, "")
        assert json.loads(out.splitlines()[1])["log_base"] == base

    def test_oracle_cli(self):
        code, out, _ = run_cli(["--format", "machine", "oracle",
                                "-r", "Z/4", "-r", "Z/9"])
        rec = json.loads(out.splitlines()[1])
        assert code == 0
        assert rec["verdict"]["maximal_count"] == 2
        assert rec["verdict"]["matches_ultrafilter_enumeration"] is True

    def test_oracle_cli_at_5040(self):
        # 5040 = 2^4 3^2 5 7: (4+1)(2+1)(1+1)(1+1) divisors, one ideal each
        code, out, _ = run_cli(["--format", "machine", "oracle", "-r", "Z/5040"])
        assert code == 0
        assert json.loads(out.splitlines()[1])["verdict"] == {
            "ideal_count": 60, "maximal_count": 4, "prime_count": 4,
            "matches_ultrafilter_enumeration": True}

    @pytest.mark.parametrize("argv, rings, query", [
        (["maxideals", "-r", "Z", "-r", "Z/12"], [Z, Z12], {"query": "maxideals"}),
        (["check-plus", "-r", "Z", "--r-elem", "2", "--a-elem", "6"], [Z],
         {"query": "check-plus", "r": 2, "a": 6}),
        (["check-plusplus", "-r", "Z/12"], [Z12], {"query": "check-plusplus"}),
        (["check-plusplus", "-r", "Z/12", "--r-elem", "5"], [Z12],
         {"query": "check-plusplus", "r": 5}),
        (["ideal-member", "-r", "Z", "-r", "Z", "--element", "[6,5]", "--ideal",
          '{"kind":"ultrafilter_ideal","ultrafilter":{"coordinate":0,"principal":2}}'],
         [Z, Z], {"query": "ideal-member", "element": [6, 5],
                  "ideal": {"kind": "ultrafilter_ideal", "ultrafilter": U2}}),
        (["minimal-prime", "-r", "Z", "-r", "Z", "--ultrafilter",
          '{"coordinate":0,"cofinite_frechet":true}'], [Z, Z],
         {"query": "minimal-prime",
          "ultrafilter": {"coordinate": 0, "cofinite_frechet": True}}),
        (["valuation-compare", "-r", "Z", "-r", "Z", "--ultrafilter",
          '{"coordinate":0,"principal":2}', "-a", "[4,7]", "-b", "[2,9]"], [Z, Z],
         {"query": "valuation-compare", "ultrafilter": U2, "a": [4, 7], "b": [2, 9]}),
        (["ug-member", "-r", "Z", "-r", "Z", "--ultrafilter", '{"coordinate":0,"principal":2}',
          "-g", '{"defaults":[1,1],"exceptions":[{"coord":0,"ideal":2,"value":3}]}',
          "-x", "[2,1]"], [Z, Z],
         {"query": "ug-member", "ultrafilter": U2, "x": [2, 1],
          "g": {"defaults": [1, 1], "exceptions": [{"coord": 0, "ideal": 2, "value": 3}]}}),
        (["ll", "-r", "Z", "--ultrafilter", '{"coordinate":0,"principal":2}',
          "-g", '{"defaults":[1]}', "--h-vec", '{"defaults":["inf"]}'], [Z],
         {"query": "ll", "ultrafilter": U2, "g": {"defaults": [1]},
          "h": {"defaults": ["inf"]}}),
        (["interpolate", "--doubling", "16"], [Z], {"query": "interpolate", "doubling": 16}),
        # a sample given beside the doubling sample is read, as in a scenario
        (["interpolate", "--doubling", "5", "--sample", '{"g":[1],"h":[3],"n":[2]}'], [Z],
         {"query": "interpolate", "doubling": 5, "sample": {"g": [1], "h": [3], "n": [2]}}),
        (["oracle", "-r", "Z/4", "-r", "Z/9"], [{"kind": "residue", "n": 4},
                                               {"kind": "residue", "n": 9}],
         {"query": "oracle"}),
        (["oracle", "-r", "Z/6", "--no-primes"], [{"kind": "residue", "n": 6}],
         {"query": "oracle", "mark_primes": False}),
    ])
    def test_subcommand_is_its_scenario_query(self, argv, rings, query):
        # with no optional flag given, a subcommand runs its query under the
        # scenario's default options
        expected = run_scenario(json.dumps({"schema_version": SCHEMA_VERSION,
                                            "rings": rings, "queries": [query]}))
        assert run_cli(["--format", "machine"] + argv) == (0, expected.render_machine(), "")

    def test_cli_determinism(self):
        args = ["--format", "machine", "maxideals", "-r", "Z", "--bound", "7"]
        assert run_cli(args)[1] == run_cli(args)[1]

    def test_invalid_json_argument(self):
        code, _, err = run_cli(["check-plus", "-r", "Z",
                                "--r-elem", "{bad", "--a-elem", "6"])
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("argv", [
        ["maxideals", "-r", "Z", "--seed", "3"],   # an unknown flag
        ["maxideals"],                             # the required -r is missing
        ["--format", "xml", "maxideals", "-r", "Z"],
        ["no-such-command"],
    ])
    def test_usage_error_exits_1(self, argv):
        # exit code 2 is kept for a failed scenario assert
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage:" in err.getvalue() and "error:" in err.getvalue()

    def test_help_exits_0(self):
        with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exc:
            main(["maxideals", "--help"])
        assert exc.value.code == 0

    def test_budget_error_is_located(self, tmp_path):
        data = minimal_scenario(product=[0], queries=[
            {"query": "maxideals", "bound": 7},
            {"query": "maxideals", "bound": 2000000}])
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["run", str(path)])
        assert code == 1 and out == ""
        assert err == ("error: queries[1]: prime bound 2000000 exceeds "
                       "the enumeration cap 1000000\n")
        data["queries"] = [{"query": "check-plus", "ring": 0, "r": 2,
                            "a": str((10**9 + 7) * (10**9 + 9))}]
        data["options"] = {"factor_budget": 10**4}
        from prodideals.errors import FactorizationBudgetExceeded
        with pytest.raises(FactorizationBudgetExceeded,
                           match=r"^queries\[0\]: cofactor 1000000016000000063 "):
            run_scenario(json.dumps(data))

    def test_plusplus_witness_table_is_budgeted(self):
        # without r, a residue ring lists one witness per residue, so
        # options.oracle_budget caps the rows before any is built
        started = time.perf_counter()
        assert run_cli(["check-plusplus", "-r", "Z/1000000"]) == (
            1, "", "error: queries[0]: witness table of Z/1000000 has 1000000 rows "
                   "(budget 10000)\n")
        assert time.perf_counter() - started < 1.0
        data = minimal_scenario(rings=[Z12], product=[0], queries=[{"query": "check-plusplus"}])
        data["options"] = {"oracle_budget": 12}
        assert len(run_scenario(json.dumps(data)).records[0]["witness_table"]) == 12
        data["options"] = {"oracle_budget": 11}
        from prodideals.errors import BudgetExceeded
        with pytest.raises(BudgetExceeded, match=r"^queries\[0\]: witness table of Z/12 has 12 "):
            run_scenario(json.dumps(data))

    @pytest.mark.parametrize("query", [
        # (ring, query): the query runs over the product of that one ring
        (Z, {"query": "skolem", "elements": [[10007 * 10009]]}),
        (Z, dict(FRECHET_COMPARE, a=[10007 * 10009], b=[1])),
        (Z, dict(FRECHET_COMPARE, a=[(10**9 + 7) * (10**9 + 9)], b=[10**9 + 7])),
        ({"kind": "poly_fq", "q": 2},
         dict(FRECHET_COMPARE, a=[{"poly": list(pmul(field(2), X17_A, X17_B))}],
              b=[{"poly": list(X17_A)}])),
    ])
    def test_factor_budget_reaches_the_query(self, tmp_path, query):
        # the Bezout witness of skolem factors under the scenario's budget;
        # a Frechet valuation-compare divides instead of factoring, so it
        # answers under any budget, also where factoring an entry would
        # exceed the default one (the last two rows)
        ring, query = query
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(minimal_scenario(rings=[ring], product=[0], queries=[query])))
        assert run_cli(["run", str(path)])[0] == 0
        path.write_text(json.dumps(minimal_scenario(
            rings=[ring], product=[0], queries=[query], options={"factor_budget": 100})))
        code, out, err = run_cli(["--format", "machine", "run", str(path)])
        if query["query"] == "skolem":
            assert code == 1 and out == ""
            assert err == ("error: queries[0]: cofactor 100160063 not certified prime "
                           "within trial budget 100\n")
        else:
            assert code == 0 and err == ""
            assert json.loads(out.splitlines()[1])["verdict"] == "GE"

    def test_skolem_single_unit(self, tmp_path):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(minimal_scenario(
            product=[0], queries=[{"query": "skolem", "elements": [[-1]]}])))
        code, out, err = run_cli(["--format", "machine", "run", str(path)])
        assert code == 0 and err == ""
        rec = json.loads(out.splitlines()[1])
        assert rec["verdict"] is True and rec["certificate"] == [[-1]]

    def test_ring_budget_error_is_located(self):
        # psi_13 passes Miller-Rabin to every base but is past the proven range
        code, out, err = run_cli(["maxideals", "-r", "Z_(3317044064679887385961981)"])
        assert code == 1 and out == ""
        assert err.startswith("error: rings[0]: 3317044064679887385961981 passes Miller-Rabin")
        assert err.count("rings[") == 1
        from prodideals.errors import FactorizationBudgetExceeded
        with pytest.raises(FactorizationBudgetExceeded, match=r"^rings\[2\]: 3317044064679887385961981 "):
            decode_ring({"kind": "localized_integers", "primes": [3317044064679887385961981]},
                        "rings[2]")

    @pytest.mark.parametrize("section, value", [
        ("objects", [1, 2]), ("objects", "x"), ("options", [1]), ("options", None),
        ("options", 3)])
    def test_malformed_top_level_section_is_located(self, tmp_path, section, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_scenario(**{section: value})))
        code, out, err = run_cli(["run", str(path)])
        assert code == 1 and out == ""
        assert err == f"error: {section}: must be an object\n"

    def test_minimal_prime_at_a_large_mersenne_prime(self):
        start = time.perf_counter()
        code, out, _ = run_cli(["--format", "machine", "minimal-prime", "-r", "Z",
                                "--ultrafilter",
                                json.dumps({"coordinate": 0, "principal": 2**61 - 1})])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out.splitlines()[1])["verdict"] == {"coordinate": 0,
                                                              "kind": "kernel_ideal"}


# one command line per subcommand, with every flag of its row
ONE_PER_COMMAND = [
    ["run", "scenario.json"],
    ["maxideals", "-r", "Z", "-r", "Z/12"],
    ["check-plus", "-r", "Z", "--r-elem", "2", "--a-elem", "6"],
    ["check-plusplus", "-r", "Z/12", "--r-elem", "5"],
    ["ideal-member", "-r", "Z", "--ideal", "{}", "--element", "[6]"],
    ["minimal-prime", "--ring", "Z", "--ultrafilter", "{}"],
    ["valuation-compare", "-r", "Z", "--ultrafilter", "{}", "-a", "[4]", "-b", "[2]"],
    ["ug-member", "-r", "Z", "--ultrafilter", "{}", "-g", "{}", "-x", "[2]"],
    ["ll", "-r", "Z", "--ultrafilter", "{}", "-g", "{}", "--h-vec", "{}"],
    ["interpolate", "--branch", "V", "--sample", "{}", "--doubling", "16", "--n-max", "5"],
    ["oracle", "-r", "Z/6", "--no-primes", "--budget", "100"],
]
GLOBAL_FLAGS = [[], ["--format", "machine", "--bound", "3"],
                ["--log-base", "2", "--infinite-index"]]


def outcome(call):
    """(exit code or return value, stdout, stderr) of ``call()``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestOneCommandParser:
    """``main`` reads a well-formed line with ``read_argv``, without argparse,
    and nothing the full parser would print changes."""

    def test_every_command_is_covered(self):
        assert [argv[0] for argv in ONE_PER_COMMAND] == ["run", *COMMANDS]

    @pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=lambda argv: argv[0])
    def test_same_namespace_as_the_full_parser(self, argv):
        for before in GLOBAL_FLAGS:
            for after in GLOBAL_FLAGS:
                line = before + argv + after
                assert read_argv(line) == vars(build_parser().parse_args(line)), line

    def test_reader_agrees_with_the_full_parser_on_generated_lines(self):
        # every well-formed line is read, and no line is read differently
        counts, disagreements = argv_differential.check(2400, seed=0)
        assert disagreements == []
        assert counts["well-formed"] == 1200
        assert counts["mutated read"] and counts["mutated declined"]
        assert all(counts[kind] for kind in argv_differential.MUTATIONS)

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["-h", "maxideals", "-r", "Z"],          # help before a command
        ["--he", "oracle"],                       # an abbreviated --help
        ["no-such-command"],
        ["no-such-command", "maxideals"],         # a command name, but not first
        ["--bound", "x", "maxideals", "-r", "Z"],  # a global flag's usage error
        ["--format", "run"],
        ["maxideals", "-r", "Z", "run"],          # an extra argument
        ["maxideals"],
        ["maxideals", "--help"],
        ["run", "--help"],
    ])
    def test_help_and_usage_errors_are_the_full_parsers(self, argv):
        code, out, err = outcome(lambda: main(argv))
        assert (code, out, err) == outcome(lambda: build_parser().parse_args(argv))
        assert code in (0, 1) and "usage: prodideals" in out + err

    def test_top_level_help_lists_every_command(self):
        code, out, _ = outcome(lambda: main(["--help"]))
        assert code == 0 and all(name in out for name in COMMANDS)

    def test_no_command_prints_the_full_help(self):
        assert outcome(lambda: main([])) == (1, build_parser().format_help(), "")
        assert outcome(lambda: main(["--format", "machine"]))[:2] == (
            1, build_parser().format_help())


@pytest.mark.parametrize("argv", [
    ["check-plus", "-r", "F2305843009213693951[x]", "--r-elem", '{"poly":[0,1]}',
     "--a-elem", '{"poly":[5,3]}'],
    ["minimal-prime", "-r", "F2305843009213693951[x]", "--ultrafilter",
     '{"coordinate":0,"principal":{"poly":[1,0,1]}}'],
    ["minimal-prime", "-r", "F1000003[x]", "--ultrafilter",
     '{"coordinate":0,"principal":{"poly":[1,0,1]}}'],
], ids=["inverse", "frobenius-2^61-1", "frobenius-1000003"])
def test_large_field_query_is_quick(argv):
    # a field inverse and x^q mod f take log q multiplications, not q
    started = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (0, "") and "provenance" in out


def maxideals_scenario(rings, bound):
    return json.dumps(minimal_scenario(
        rings=[parse_ring_token(r) for r in rings], product=list(range(len(rings))),
        queries=[{"query": "maxideals", "bound": bound}]))


def independent_maxideals_entries(rings, bound) -> list:
    """The maximal list of a maxideals report over ``rings``, from
    enumerate_ultrafilters and is_maximal, one ideal at a time, encoded by
    json.dumps."""
    from prodideals import boolalg, products

    def encode(raw):
        if isinstance(raw, tuple):
            return {"poly": list(raw)}
        if raw != int(raw):
            return f"{raw.numerator}/{raw.denominator}"
        return int(raw) if abs(raw) < 2**53 else str(int(raw))

    product = products.ProductRing(tuple(decode_ring(parse_ring_token(r)) for r in rings))
    entries = []
    for u in boolalg.enumerate_ultrafilters(product.shape, bound):
        verdict = products.is_maximal(products.UltrafilterIdeal(product, u))
        if verdict.is_maximal:
            entries.append({"rule": verdict.rule, "ultrafilter": {
                "coordinate": u.coordinate, "principal": encode(u.principal.generator)}})
            if verdict.witness is not None:
                entries[-1]["witness"] = [encode(e.raw) for e in verdict.witness.entries]
    return entries


class TestStreamedReport:
    """The ``maxideals`` verdict is a ``Stream``; reports write it a chunk at a time."""

    def test_assert_over_maxideals(self):
        expected = json.loads(run_scenario(maxideals_scenario(["Z", "Z/6"], 10))
                              .render_machine().splitlines()[1])["verdict"]
        assert len(expected["maximal"]) == 4 + 2 and len(expected["rejected"]) == 1
        inner = {"query": "maxideals", "bound": 10}
        for expect, code in ((expected, 0),
                             ({**expected, "maximal": expected["maximal"][1:]}, 2)):
            report = run_scenario(json.dumps(minimal_scenario(
                rings=[Z, {"kind": "residue", "n": 6}], product=[0, 1],
                queries=[{"query": "assert", "of": inner, "expect": expect}])))
            assert report.exit_code == code
            actual = report.records[0]["actual"]
            assert type(actual["maximal"]) is list
            assert actual == expected

    def test_rendering_twice_gives_the_same_bytes(self):
        report = run_scenario(maxideals_scenario(["Z", "F2[x]", "Z_(2,3)"], 8))
        for render in (report.render_machine, report.render_text):
            first = render()
            assert first.count("rule:principal-quotient-field") == 4 + 71 + 2
            assert render() == first

    def test_strings_that_look_like_the_stream_mark(self):
        # the writer finds a Stream by a placeholder string; a scenario value
        # equal to it is still written as it is
        mark = "\x00stream\x00"
        scenario = json.dumps(minimal_scenario(rings=[Z12], product=[0], queries=[
            {"query": "assert", "of": {"query": "maxideals"}, "expect": mark},
            {"query": "assert", "of": {"query": "maxideals"}, "expect": [mark, mark]}]))
        report = run_scenario(scenario)
        lines = report.render_machine().splitlines()[1:]
        assert [json.loads(line)["expected"] for line in lines] == [mark, [mark, mark]]
        assert report.render_text().count(json.dumps(mark)) == 3

    @pytest.mark.parametrize("rings, bound", [(["Z"], 200000), (["Z/6", "F3[x]"], 2)])
    def test_report_is_written_in_blocks(self, rings, bound):
        # the number of writes follows the size, not the number of entries
        from prodideals.scenario import WRITE_BLOCK
        report = run_scenario(maxideals_scenario(rings, bound))
        for machine, render in ((True, report.render_machine), (False, report.render_text)):
            written, text = [], render()
            report.write(written.append, machine)
            assert "".join(written) == text
            assert all(len(b) >= WRITE_BLOCK for b in written[:-1])
            assert len(written) <= len(text) // WRITE_BLOCK + 1

    def test_text_list_matches_an_independent_encoding(self):
        entries = independent_maxideals_entries(MIXED_RINGS, 4)
        assert len(entries) == 1258 and "witness" not in entries[-1]
        code, out, _ = run_cli(["--format", "text", "maxideals", "--bound", "4"]
                               + [a for r in MIXED_RINGS for a in ("-r", r)])
        assert code == 0
        assert out.splitlines()[1].startswith(
            '[0] maxideals: {"maximal": ' + json.dumps(entries, sort_keys=True) + ', "rejected": ')
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "e05945350488175071153f186b01cd5dc50cddae4359cc6a5009b56833fc0d64")

    def test_machine_list_matches_an_independent_encoding(self):
        entries = independent_maxideals_entries(MIXED_RINGS, 4)
        code, out, _ = run_cli(["--format", "machine", "maxideals", "--bound", "4"]
                               + [a for r in MIXED_RINGS for a in ("-r", r)])
        assert code == 0
        listed = json.dumps(entries, sort_keys=True, separators=(",", ":"))
        assert out.splitlines()[1].startswith(
            '{"index":0,"provenance":"rule:bounded-ultrafilter-enumeration","query":"maxideals",'
            '"verdict":{"maximal":' + listed + ',"rejected":')

    def test_division_check_is_shared(self, monkeypatch):
        # is_maximal and the streamed entries both reach the one division
        # step, products.witness_entries, and a failing division fails both
        from prodideals import products
        check, checked = products.witness_entries, []

        def counted(ring, generators):
            checked.append(len(generators))
            return check(ring, generators)
        monkeypatch.setattr(products, "witness_entries", counted)
        monkeypatch.setattr(ResidueRing, "_in_max_ideal", lambda self, raw, gen: False)
        for query, sizes in (({"query": "maxideals"}, [2]),
                             ({"query": "is-maximal", "ultrafilter": U2}, [1])):
            checked.clear()
            scenario = minimal_scenario(rings=[{"kind": "residue", "n": 6}], product=[0],
                                        queries=[query])
            with pytest.raises(AssertionError, match=r"^witness entry 2 in Z/6 is not in \(2\)$"):
                run_scenario(json.dumps(scenario)).render_machine()
            assert checked == sizes

    def test_streamed_check_survives_optimize_flag(self):
        # with the division forced to fail, the maxideals run must fail even
        # under python -O, which strips assert statements
        code = "\n".join([
            "import io, sys",
            "from prodideals.cli import main",
            "from prodideals.rings import IntegerRing",
            "IntegerRing._in_max_ideal = lambda self, raw, gen: False",
            "sys.stdout = io.StringIO()",
            "try:",
            "    main(['maxideals', '-r', 'Z', '-r', 'Z/7', '--bound', '10'])",
            "except AssertionError as exc:",
            "    print('raised', sys.flags.optimize, exc, file=sys.stderr)",
        ])
        src = str(pathlib.Path(prodideals.__file__).resolve().parent.parent)
        err = subprocess.run([sys.executable, "-O", "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             check=True, capture_output=True, text=True).stderr
        assert err.startswith("raised 1 witness entry 2 in Z is not in (2)")

    def test_no_per_entry_element_or_sort_key(self, monkeypatch):
        # a listed generator is taken as it is: no RingElement or MaxIdealId
        # is built and no sort_key read per entry, so no count grows with
        # the bound
        from prodideals import products
        from prodideals.rings import MaxIdealId, RingElement
        counts = {"elements": 0, "sort_keys": 0, "records": 0}
        init, sort_key = RingElement.__init__, MaxIdealId.sort_key
        record_init = MaxIdealId.__init__

        def counted_init(self, ring, raw):
            counts["elements"] += 1
            init(self, ring, raw)

        def counted_record_init(self, ring, generator):
            counts["records"] += 1
            record_init(self, ring, generator)

        def counted_sort_key(self):
            counts["sort_keys"] += 1
            return sort_key.fget(self)
        monkeypatch.setattr(RingElement, "__init__", counted_init)
        monkeypatch.setattr(MaxIdealId, "sort_key", property(counted_sort_key))
        monkeypatch.setattr(MaxIdealId, "__init__", counted_record_init)
        seen = []
        for bound, primes in ((1000, 168), (10000, 1229)):
            counts.update(elements=0, sort_keys=0, records=0)
            products.witness_fillers.cache_clear()
            code, out, _ = run_cli(["--format", "machine", "maxideals", "-r", "Z", "-r", "Z",
                                    "--bound", str(bound)])
            assert code == 0
            assert len(json.loads(out.splitlines()[1])["verdict"]["maximal"]) == 2 * primes
            seen.append(dict(counts))
        # the two witness fillers are the only elements
        assert seen[0] == seen[1] == {"elements": 2, "sort_keys": 0, "records": 0}

    @pytest.mark.parametrize("fmt", ["machine", "text"])
    def test_json_integer_limit_in_both_slots(self, fmt):
        # 2**53 - 111, the largest prime below 2**53, is still a JSON number,
        # and 9007199254740997, above 2**53, a string: in the principal and
        # the witness slot, and over a Z column of two 256-entry chunks
        from prodideals.values import encode_value
        small, large = 2**53 - 111, 9007199254740997
        z_primes = [p for p in range(2, 2001)
                    if all(p % d for d in range(2, math.isqrt(p) + 1))]
        assert len(z_primes) > 256
        expected = []
        for coord, gens in ((0, [small, large]), (1, z_primes)):
            for g in gens:
                witness = [small, 2]
                witness[coord] = g
                ultrafilter = {"coordinate": coord, "principal": encode_value(g)}
                expected.append({"rule": "rule:principal-quotient-field",
                                 "ultrafilter": ultrafilter,
                                 "witness": [encode_value(w) for w in witness]})
        code, out, _ = run_cli(["--format", fmt, "maxideals", "-r", f"Z_({small},{large})",
                                "-r", "Z", "--bound", "2000"])
        assert code == 0
        line = out.splitlines()[1]
        verdict = json.loads(line if fmt == "machine" else line.split(": ", 1)[1])
        if fmt == "machine":
            verdict = verdict["verdict"]
        assert verdict["maximal"] == expected
        assert [type(e["ultrafilter"]["principal"]) for e in expected[:2]] == [int, str]
        sep = ":" if fmt == "machine" else ": "
        assert f'"principal"{sep}{small}' in line and f'"principal"{sep}"{large}"' in line

    @pytest.mark.parametrize("argv, digest", [
        (["--format", "machine", "maxideals", "-r", "Z", "-r", "Z", "--bound", "1000000"],
         "3b3e79c0e45d9154d865f4c3c19cb21bbba0796ad01c46d2ec28d886bb1c0e8e"),
        (["maxideals", "-r", "Z", "-r", "Z", "--bound", "100000"],
         "d60db845c89028b8ca750dc08cb89d38de117fb90cb71f02989c6a3969bd38ce"),
    ])
    def test_large_report_in_bounded_memory(self, argv, digest):
        # 157,000 entries (17.5 MB) at the larger bound; holding the report
        # took 160 MB, streaming it about 33 MB
        sha, code, maxrss_kb = spawn_cli(argv)
        assert (sha, code) == (digest, 0)
        assert maxrss_kb < 40 * 1024


# ---------------------------------------------------------------------------
# Pinned output bytes: the corpus reports, and the errors of malformed
# descriptors and named objects, byte for byte

@pytest.mark.parametrize("name, fmt, code, digest", CORPUS_PINS)
def test_corpus_report_pinned(name, fmt, code, digest):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["--format", fmt, "run", str(SCENARIO_DIR / name)]) == code
    assert err.getvalue() == ""
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_pinned_reports_under_optimize_flag():
    # python -O strips assert statements, and every pinned report keeps its
    # bytes there too: all of them in one -O process
    jobs = ([["--format", fmt, "run", str(SCENARIO_DIR / name)] for name, fmt, _, _ in CORPUS_PINS]
            + [maxideals_argv(rings, bound) for rings, bound, _ in MAXIDEALS_PINS])
    code = "\n".join([
        "import contextlib, hashlib, io, json, sys",
        "from prodideals.cli import main",
        "print(sys.flags.optimize)",
        "for argv in json.loads(sys.argv[1]):",
        "    out = io.StringIO()",
        "    with contextlib.redirect_stdout(out):",
        "        code = main(argv)",
        "    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())",
    ])
    src = str(pathlib.Path(prodideals.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", code, json.dumps(jobs)],
                         env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines() == ["1"] + [f"{code} {digest}" for *_, code, digest in CORPUS_PINS] + [
        f"0 {digest}" for *_, digest in MAXIDEALS_PINS]


KERNEL = {"type": "ideal", "kind": "kernel_ideal", "coordinate": 0}


class Ring(dict):
    """A ring description in place of the objects of a pinned row: the
    scenario's first ring."""


def ideal_named(ultrafilter):
    return {"type": "ideal", "kind": "ultrafilter_ideal", "ultrafilter": ultrafilter}


def member(ideal):
    return {"query": "ideal-member", "ideal": ideal, "element": "e"}


def valuation(**fields):
    return {"kind": "valuation_ideal", "ultrafilter": "U", **fields}


@pytest.mark.parametrize("objects, query, message", [
    # descriptors in a query: kind, coordinate, ideals, ultrafilter, g
    ({}, member({"kind": ["x"]}), "queries[0]: unknown ideal kind ['x']"),
    ({}, member({"kind": {"k": 1}}), "queries[0]: unknown ideal kind {'k': 1}"),
    ({}, member({"kind": "prime_ideal"}), "queries[0]: unknown ideal kind 'prime_ideal'"),
    ({}, member({"coordinate": 0}),
     "queries[0]: expected an ideal descriptor, got {'coordinate': 0}"),
    ({}, member(7), "queries[0]: expected an ideal descriptor, got 7"),
    ({}, member("nope"), "queries[0]: unknown object name 'nope'"),
    ({}, member({"kind": "kernel_ideal"}), "queries[0]: not an integer: None"),
    ({}, member({"kind": "kernel_ideal", "coordinate": "x"}),
     "queries[0]: not an integer: 'x'"),
    ({}, member({"kind": "kernel_ideal", "coordinate": 3}), "queries[0]: index out of range"),
    ({}, member({"kind": "pointwise_max_ideal", "coordinate": 5, "ideals": [2, 3]}),
     "queries[0]: index out of range"),
    ({}, member({"kind": "pointwise_max_ideal", "coordinate": 0, "ideals": [2]}),
     "queries[0]: need one maximal ideal per coordinate"),
    ({}, member({"kind": "pointwise_max_ideal", "coordinate": 0, "ideals": 7}),
     "queries[0]: \"ideals\" must be a list of generators"),
    ({}, member({"kind": "pointwise_max_ideal", "ideals": [2, 3]}),
     "queries[0]: not an integer: None"),
    ({}, member({"kind": "pointwise_max_ideal", "coordinate": 0, "ideals": [2, 5]}),
     "queries[0]: 5 is not a prime divisor of 12"),
    ({}, member({"kind": "ultrafilter_ideal"}),
     "queries[0]: expected an ultrafilter description, got None"),
    ({}, member({"kind": "ultrafilter_ideal", "ultrafilter": {"coordinate": 2, "principal": 2}}),
     "queries[0]: coordinate 2 out of range"),
    ({}, member({"kind": "ultrafilter_ideal", "ultrafilter": "e"}),
     "queries[0]: object 'e' is not of type 'ultrafilter'"),
    ({}, member({"kind": "ultrafilter_ideal", "ultrafilter": "nope"}),
     "queries[0]: unknown object name 'nope'"),
    ({}, member(valuation()), "queries[0]: expected a value vector, got None"),
    ({}, member(valuation(g=5)), "queries[0]: expected a value vector, got 5"),
    ({}, member(valuation(g="U")), "queries[0]: object 'U' is not of type 'value_vector'"),
    ({}, member(valuation(g={"defaults": [1]})),
     "queries[0]: one default per coordinate required"),
    ({}, member(valuation(ultrafilter="g", g="g")),
     "queries[0]: object 'g' is not of type 'ultrafilter'"),
    # names and literals in the other query fields
    ({"I": KERNEL}, member("U"), "queries[0]: object 'U' is not of type 'ideal'"),
    ({"I": KERNEL}, {"query": "minimal-prime", "ultrafilter": "I"},
     "queries[0]: object 'I' is not of type 'ultrafilter'"),
    ({}, {"query": "ug-member", "ultrafilter": "U", "g": 5, "x": "e"},
     "queries[0].g: expected a value vector, got 5"),
    ({}, {"query": "ug-member", "ultrafilter": "U", "g": "nope", "x": "e"},
     "queries[0].g: unknown object name 'nope'"),
    ({}, {"query": "ll", "ultrafilter": "U", "g": "g", "h": "e"},
     "queries[0].h: object 'e' is not of type 'value_vector'"),
    ({}, {"query": "valuation-compare", "ultrafilter": "U", "a": "e", "b": "x"},
     "queries[0]: unknown object name 'x'"),
    ({}, {"query": "skolem", "elements": ["e", "g"]},
     "queries[0].elements[1]: object 'g' is not of type 'element'"),
    ({}, {"query": "skolem", "elements": ["e", [1]]},
     "queries[0].elements[1]: expected 2 entries"),
    # declared objects: their type, their literal, the names in an ideal
    ({"X": {"type": ["x"]}}, None, "objects.X: unknown object type ['x']"),
    ({"X": {"type": {}}}, None, "objects.X: unknown object type {}"),
    ({"X": {"type": "prime"}}, None, "objects.X: unknown object type 'prime'"),
    ({"X": 5}, None, "objects.X: objects need a \"type\" field"),
    ({"X": {"entries": [1, 2]}}, None, "objects.X: objects need a \"type\" field"),
    ({"X": {"type": "element", "entries": "e"}}, None,
     "objects.X: a product element is a list of entries"),
    ({"X": {"type": "element"}}, None, "objects.X: a product element is a list of entries"),
    ({"X": {"type": "ultrafilter", "coordinate": 0}}, None,
     "objects.X: need \"principal\" or \"cofinite_frechet\""),
    ({"X": {"type": "value_vector"}}, None,
     "objects.X: expected a value vector, got {'type': 'value_vector'}"),
    ({"I": {"type": "ideal", "kind": ["x"]}}, None, "objects.I: unknown ideal kind ['x']"),
    ({"I": ideal_named("e")}, None, "objects.I: object 'e' is not of type 'ultrafilter'"),
    ({"I": ideal_named("nope")}, None, "objects.I: unknown object name 'nope'"),
    ({"I": ideal_named("J"), "J": KERNEL}, None,
     "objects.I: object 'J' is not of type 'ultrafilter'"),
    ({"H": KERNEL, "I": ideal_named("H")}, None,
     "objects.I: object 'H' is not of type 'ultrafilter'"),
    # non-ideal objects in name order, then ideals
    ({"A": ideal_named("e"), "B": {"type": "ultrafilter"}}, None,
     "objects.B: expected an ultrafilter description, got {'type': 'ultrafilter'}"),
    ({"A": {"type": "element", "entries": [1]}, "B": {"type": "prime"}}, None,
     "objects.A: expected 2 entries"),
    ({"A": {"type": "prime"}, "B": {"type": "element", "entries": [1]}}, None,
     "objects.A: unknown object type 'prime'"),
    ({"A": ideal_named("nope"), "B": KERNEL | {"coordinate": 9}}, None,
     "objects.A: unknown object name 'nope'"),
    # ring fields and ultrafilters that were read as something else
    (Ring({"kind": "residue", "n": 12.7}), None, "rings[0].n: not an integer: 12.7"),
    (Ring({"kind": "poly_fq", "q": 4.5}), None, "rings[0].q: not an integer: 4.5"),
    (Ring({"kind": "localized_integers", "primes": "23"}), None,
     "rings[0].primes: must be a list"),
    (Ring({"kind": "localized_integers", "primes": [2.9, 3]}), None,
     "rings[0].primes[0]: not an integer: 2.9"),
    (Ring({"kind": "residue", "n": True}), None, "rings[0].n: not an integer: True"),
    ({"X": {"type": "ultrafilter", "coordinate": 0, "cofinite_frechet": "false"}}, None,
     "objects.X.cofinite_frechet: must be true or false, got 'false'"),
    ({"X": {"type": "ultrafilter", "coordinate": 0, "cofinite_frechet": [], "principal": 3}},
     None, "objects.X.cofinite_frechet: must be true or false, got []"),
    # refusals of an empty skolem list, a repeated exception, an empty prime set
    ({}, {"query": "skolem", "elements": []}, "queries[0]: need at least one element"),
    ({}, {"query": "skolem"}, "queries[0]: need at least one element"),
    ({"g": {"type": "value_vector", "defaults": [1, 1], "exceptions": [
        {"coord": 0, "ideal": 2, "value": 3}, {"coord": 0, "ideal": 2, "value": 4}]}}, None,
     "objects.g: duplicate exception for (0, (2))"),
    (Ring({"kind": "localized_integers", "primes": []}), None,
     "rings[0]: prime set must be nonempty"),
    (Ring({"kind": "localized_integers", "primes": [4]}), None, "rings[0]: 4 is not prime"),
])
def test_malformed_input_message_pinned(objects, query, message):
    rings, objects = ([objects, Z12], {}) if isinstance(objects, Ring) else ([Z, Z12], objects)
    held = minimal_scenario(rings=rings, product=[0, 1], objects=NAMED | objects,
                            queries=[] if query is None else [query])
    assert run_cli(["run", json.dumps(held)]) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# Every refusal that the table of JSON shapes lists, of each shape, of each
# field of each of its kinds, and of each item of a list field, and every
# refusal of each field of each query kind's row, gives exit code 1 and a
# message located at its field

#: a value that each refusal of a scalar field type refuses, and the value
#: that its message shows
SCALAR_REFUSALS = {
    scenario.NOT_INT: (1.5, 1.5),
    scenario.NOT_BOOL: ("false", "false"),
    scenario.OUT_OF_RANGE: (9, 9),
    scenario.RING_OUT_OF_RANGE: (9, 9),
    "must be positive": (0, 0),
    "must be an integer >= 2": (1, 1),
    scenario.VALUE.failures[0]: ("x", "x"),
    scenario.VALUE.failures[1]: (-1, -1),
    scenario.POLY.failures[0]: ({"poly": 5}, 5),
    scenario.NOT_SAMPLE: (5, None),
    scenario.NOT_BRANCH: (5, 5),
    scenario.INNER: ({"query": "assert"}, None),
}
#: a query of each kind over Z x Z/12 that names the objects of ``NAMED``
QUERY_LITERALS = {
    "maxideals": {"query": "maxideals"},
    "is-maximal": {"query": "is-maximal", "ultrafilter": "U"},
    "check-plus": {"query": "check-plus", "r": 2, "a": 6},
    "check-plusplus": {"query": "check-plusplus", "r": 2},
    "ideal-member": member("I"),
    "minimal-prime": {"query": "minimal-prime", "ultrafilter": "U"},
    "valuation-compare": {"query": "valuation-compare", "ultrafilter": "U", "a": "e", "b": "e"},
    "ug-member": {"query": "ug-member", "ultrafilter": "U", "g": "g", "x": "e"},
    "ll": {"query": "ll", "ultrafilter": "U", "g": "g", "h": "g"},
    "interpolate": {"query": "interpolate", "doubling": 4},
    "oracle": {"query": "oracle"},
    "skolem": {"query": "skolem", "elements": ["e"]},
    "assert": {"query": "assert", "of": {"query": "maxideals"}, "expect": True},
}
#: a literal that each refusal of a shape's own refuses, and the value that
#: its message shows; any other refuses 7
SHAPE_REFUSALS = {
    "unknown ring kind {!r}": ({"kind": "nope"}, "nope"),
    "unknown ideal kind {!r}": ({"kind": "nope"}, "nope"),
    "unknown object type {!r}": ({"type": "nope"}, "nope"),
    scenario.NEED_PRINCIPAL: ({"coordinate": 0}, None),
}


def holding(name, literal):
    """A scenario over Z x Z/12 that holds a literal of the shape ``name``,
    and where."""
    if name == "ring":
        return minimal_scenario(rings=[literal, Z12], product=[0, 1]), "rings[0]"
    where, query = {
        "ultrafilter": ("queries[0]", {"query": "minimal-prime", "ultrafilter": literal}),
        "element": ("queries[0]", member("I") | {"element": literal}),
        "value_vector": ("queries[0].g", {"query": "ll", "ultrafilter": "U", "g": literal,
                                          "h": "g"}),
        "exception": ("queries[0].g.exceptions[0]", {
            "query": "ll", "ultrafilter": "U", "h": "g",
            "g": {"defaults": [1, 1], "exceptions": [literal]}}),
        "ideal": ("queries[0]", member(literal)),
        "query": ("queries[0]", literal),
        "object": ("objects.X", None),
        "options": ("options", None),
    }[name]
    return minimal_scenario(
        rings=[Z, Z12], product=[0, 1], queries=[] if query is None else [query],
        objects=NAMED | {"I": KERNEL} | ({"X": literal} if name == "object" else {}),
        **({"options": literal} if name == "options" else {})), where


def field_refusals(t, valid):
    """(JSON value, message, location below the field) of each refusal of a
    field of type ``t``, whose value ``valid`` is accepted."""
    if scenario.UNKNOWN_NAME in t.failures:
        declared = next(key for key, named in scenario.NAMED.items() if named is t)
        other = next(name for name, obj in NAMED.items() if obj["type"] != declared)
        yield "nope", scenario.UNKNOWN_NAME.format("nope"), ""
        yield other, scenario.WRONG_TYPE.format(other, declared), ""
    elif t.item is not None:
        yield 5, t.failures[0].format(5), ""
        if len(t.failures) > 1:  # one item per coordinate
            yield valid[:1], t.failures[1].format(len(valid)), ""
        if t.item not in scenario.SHAPES.values():
            for bad, message, _ in field_refusals(t.item, valid[0]):
                yield [bad, *valid[1:]], message, "[0]" if t.index else ""
    else:
        for template in t.failures:
            bad, shown = SCALAR_REFUSALS[template]
            # the second value fills a ring index's message: two rings are declared
            yield bad, template.format(shown, 2), ""


def table_refusals():
    literals = {**SHAPE_LITERALS, "object": [{"type": "element", "entries": [2, 1]}]}
    for name, shape in scenario.SHAPES.items():
        cases = []  # (id, literal, message, location below the literal)
        if shape.item is not None:  # a list
            cases += [(name, bad, message, below)
                      for bad, message, below in field_refusals(shape, literals[name][0])]
        else:
            for template in shape.failures:
                bad, shown = SHAPE_REFUSALS.get(template, (7, 7))
                cases.append((name, bad, template.format(shown), ""))
        for kind, row in ({name: shape} if shape.kinds is None else shape.kinds).items():
            if row is not shape and row in scenario.SHAPES.values():
                continue  # read as its own shape too
            literal = next(obj for obj in literals[name]
                           if shape.kinds is None or shape.row_of(obj, name) is row)
            for field in row.fields or ():
                at = f".{field.name}" if field.at_field else ""
                rest = {k: v for k, v in literal.items() if k != field.name}
                if field.default is scenario.REQUIRED:  # refused by the row, if it can
                    cases.append((f"{kind}.{field.name}", rest, (row.failures[0].format(rest)
                                  if row.failures else scenario.MISSING.format(field.name)), ""))
                cases += [(f"{kind}.{field.name}", rest | {field.name: bad}, message, at + below)
                          for bad, message, below in
                          field_refusals(field.type, literal.get(field.name))]
        for case_id, literal, message, below in cases:
            held, where = holding(name, literal)
            yield pytest.param(held, f"{where}{below}: {message}", id=f"{case_id}: {message}")
    for kind, (_, row) in scenario.QUERIES.items():
        literal = QUERY_LITERALS[kind]
        for field in row.fields:
            at = f".{field.name}" if field.at_field else ""
            for bad, message, below in field_refusals(field.type, literal.get(field.name)):
                held, where = holding("query", literal | {field.name: bad})
                yield pytest.param(held, f"{where}{at}{below}: {message}",
                                   id=f"{kind}.{field.name}: {message}")


@pytest.mark.parametrize("held, message", table_refusals())
def test_every_refusal_of_the_table_is_located(held, message):
    assert run_cli(["run", json.dumps(held)]) == (1, "", f"error: {message}\n")


def test_commands_read_their_query_rows():
    # cli.COMMANDS and scenario.QUERIES cannot drift: a flag sets a field of
    # its kind's row or a scenario option, and must be given exactly when
    # the field has no default (it is read as null)
    options = {f.name: f for f in scenario.OPTIONS.fields}
    for command, (_, _, flags) in COMMANDS.items():
        assert command in scenario.QUERIES
        fields = {f.name: f for f in scenario.QUERIES[command][1].fields}
        for flag, name, kwargs in flags:
            section, _, key = name.rpartition(".")
            field = options[key] if section == "options" else fields[name]
            assert kwargs.get("required", False) == (field.default is None), (command, flag)
    for kind, (handler, row) in scenario.QUERIES.items():
        parameters = list(inspect.signature(handler).parameters)
        assert parameters[:2] == ["scn", "where"], kind
        assert len(parameters) == 2 + len(row.fields), kind


def test_readme_query_table_lists_every_row():
    # the README's table of query kinds and its "Options:" paragraph cannot
    # drift from scenario.QUERIES and scenario.OPTIONS
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| kind | fields |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = dict(re.fullmatch(r"\| `([a-z-]+)` \| (.*) \|", line).groups()
                for line in table.splitlines())
    assert sorted(rows) == sorted(scenario.QUERIES)
    for kind, (_, row) in scenario.QUERIES.items():
        for field in row.fields:
            assert f"`{field.name}`" in rows[kind], (kind, field.name)
    options = readme.split("\nOptions: ", 1)[1].split("\n\n", 1)[0]
    for field in scenario.OPTIONS.fields:
        assert f"`{field.name}`" in options, field.name


# ---------------------------------------------------------------------------
# Every input error raised while a query runs names the query; a bad
# "doubling" or options.log_base names its field

@pytest.mark.parametrize("argv, message", [
    (["check-plus", "-r", "Z", "--r-elem", "2", "--a-elem", "0"],
     "queries[0]: a must be nonzero"),
    (["valuation-compare", "-r", "Z/12", "--ultrafilter", '{"coordinate":0,"principal":2}',
      "-a", "[1]", "-b", "[2]"], "queries[0]: Z/12 carries no discrete valuations"),
    (["ug-member", "-r", "Z", "--ultrafilter", '{"coordinate":0,"principal":2}',
      "-g", '{"defaults":[0]}', "-x", "[2]"],
     "queries[0]: value vector must be positive everywhere"),
    (["interpolate", "--sample", '{"g":[1],"h":[5],"n":[1]}'],
     "queries[0]: index 0: bracketing N*g < h <= (N+1)*g fails (N=1, g=1, h=5)"),
    (["interpolate", "--sample", '{"g":[1],"h":[5],"n":[]}'],
     "queries[0]: g, h, n must be nonempty and of equal length"),
    (["run", json.dumps(minimal_scenario(product=[0], queries=[
        {"query": "maxideals", "bound": 3}, {"query": "check-plus", "r": 2, "a": 0}]))],
     "queries[1]: a must be nonzero"),
    # a value's own error is located once
    (["ug-member", "-r", "Z", "--ultrafilter", '{"coordinate":0,"principal":2}',
      "-g", '{"defaults":[-1]}', "-x", "[2]"],
     "queries[0].g: must be a non-negative integer or INF, got -1"),
    (["interpolate", "--sample", '{"g":["x"],"h":[5],"n":[1]}'],
     "queries[0].sample.g[0]: expected an integer or \"inf\", got 'x'"),
    (["interpolate", "--doubling", "0"], "queries[0].doubling: must be positive"),
    (["interpolate", "--doubling", "-1"], "queries[0].doubling: must be positive"),
    (["run", json.dumps(minimal_scenario(product=[0], queries=[
        {"query": "interpolate", "doubling": "x"}]))],
     "queries[0].doubling: not an integer: 'x'"),
    (["interpolate", "--doubling", "4", "--log-base", "1"],
     "options.log_base: must be an integer >= 2"),
    (["maxideals", "-r", "Z", "--log-base", "0"], "options.log_base: must be an integer >= 2"),
    # refused as the same query in a scenario is (see table_refusals)
    (["interpolate", "--doubling", "4", "--sample", "5"],
     "queries[0].sample: " + scenario.NOT_SAMPLE.format()),
    # the sample's own refusals, and an interpolation with no sample
    (["interpolate", "--sample", '{"g":["inf"],"h":[5],"n":[1]}'],
     "queries[0]: index 0: bounded branch needs finite values"),
    (["interpolate", "--sample", '{"g":[0],"h":[5],"n":[1]}'],
     "queries[0]: index 0: positive values required"),
    (["interpolate", "--branch", "V", "--sample", '{"g":[1],"h":["inf"],"n":[0]}'],
     "queries[0]: index 0: cell index must be a positive integer"),
    (["interpolate"], "sample: need --sample or --doubling"),
    # the doubling sample brackets h between N*g and (N+1)*g: branch W only
    (["interpolate", "--branch", "V", "--doubling", "4"],
     "queries[0].doubling: the doubling sample serves branch W only"),
    (["run", json.dumps(minimal_scenario(product=[0], queries=[
        {"query": "interpolate", "branch": "V", "doubling": 4}]))],
     "queries[0].doubling: the doubling sample serves branch W only"),
    # a generator outside the prime set of Z_(S)
    (["minimal-prime", "-r", "Z_(3)", "--ultrafilter", '{"coordinate":0,"principal":2}'],
     "queries[0]: 2 is not in the prime set"),
    # a residue ring anywhere in the shape, also off the ultrafilter's coordinate
    (["valuation-compare", "-r", "Z", "-r", "Z/6", "--ultrafilter",
      '{"coordinate":0,"principal":2}', "-a", "[2,1]", "-b", "[1,1]"],
     "queries[0]: Z/6 carries no discrete valuations"),
])
def test_query_input_error_is_located(argv, message):
    assert run_cli(argv) == (1, "", f"error: {message}\n")


def test_located_query_error_keeps_its_object(monkeypatch):
    from prodideals import scenario
    from prodideals.errors import NotUnitIdeal
    raised = NotUnitIdeal("(2)")

    def fail(scn, where, bound):
        raise raised
    monkeypatch.setitem(scenario.QUERIES, "maxideals", (fail, scenario.QUERIES["maxideals"][1]))
    with pytest.raises(NotUnitIdeal) as exc:
        run_scenario(json.dumps(minimal_scenario(product=[0], queries=[{"query": "maxideals"}])))
    assert exc.value is raised and exc.value.witness == "(2)"
    assert str(exc.value) == "queries[0]: elements share the maximal ideal (2)"
