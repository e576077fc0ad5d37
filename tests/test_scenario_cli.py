import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import prodideals
from prodideals.cli import INFINITE_INDEX_MESSAGE, main, parse_ring_token
from prodideals.errors import ParseError, ValidationError
from prodideals.scenario import (
    SCHEMA_VERSION,
    decode_ring,
    encode_ring_element,
    parse_scenario,
    run_scenario,
)
from prodideals.rings import IntegerRing

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


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
    # numpy serves only the test-side closure scan and mpmath only
    # interpolation; every CLI process would pay their import otherwise
    src = str(pathlib.Path(prodideals.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, prodideals.cli; "
            "print(sorted(m for m in ('numpy', 'mpmath') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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

    def test_fincof_codec_roundtrip(self):
        from prodideals.scenario import decode_fincof, encode_fincof
        ring = IntegerRing()
        finite = decode_fincof(ring, {"finite": [2, 3]})
        assert not finite.is_cofinite
        assert encode_fincof(finite) == {"finite": [2, 3]}
        cofinite = decode_fincof(ring, {"cofinite": [2]})
        assert cofinite.is_cofinite
        assert encode_fincof(cofinite) == {"cofinite": [2]}
        with pytest.raises(ValidationError):
            decode_fincof(ring, {"neither": []})

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
    ])
    def test_bad_query_field_is_located(self, tmp_path, query, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_scenario(
            rings=[{"kind": "integers"}, {"kind": "residue", "n": 12}],
            product=[0, 1], queries=[query])))
        code, out, err = run_cli(["run", str(path)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {field}:")

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

    def test_oracle_cli(self):
        code, out, _ = run_cli(["--format", "machine", "oracle",
                                "-r", "Z/4", "-r", "Z/9"])
        rec = json.loads(out.splitlines()[1])
        assert code == 0
        assert rec["verdict"]["maximal_count"] == 2
        assert rec["verdict"]["matches_ultrafilter_enumeration"] is True

    def test_cli_determinism(self):
        args = ["--format", "machine", "maxideals", "-r", "Z", "--bound", "7"]
        assert run_cli(args)[1] == run_cli(args)[1]

    def test_invalid_json_argument(self):
        code, _, err = run_cli(["check-plus", "-r", "Z",
                                "--r-elem", "{bad", "--a-elem", "6"])
        assert code == 1 and "error" in err
