"""Start-up footprint, lazy package exports, and the shared record base."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import prodideals
from prodideals import boolalg, oracle, products, properties, rings, scenario, valuations
from prodideals.errors import InconsistentInput, ShapeMismatch
from prodideals.record import Record
from prodideals.rings import (
    FinCofSet,
    IntegerRing,
    LocalizedIntegersRing,
    MaxIdealId,
    PolynomialRing,
    ResidueRing,
    RingElement,
)

SRC = pathlib.Path(prodideals.__file__).resolve().parent.parent
HEAVY = ("dataclasses", "inspect", "prodideals.oracle", "prodideals.properties",
         "prodideals.valuations")
#: loaded only by the ring kinds that use them: Fq[x], and Z_(S) or non-int values
LAZY = ("prodideals.fqpoly", "fractions")


def last_line_of(code):
    """The last line that ``code`` prints in a fresh interpreter.

    ``-S`` keeps site hooks out, so what is seen is what prodideals does.
    """
    probe = f"import io, contextlib, gc, json, sys\n{code}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1]


def loaded_after(code, modules=HEAVY):
    """The ``modules`` loaded once ``code`` has run in a fresh interpreter."""
    return json.loads(last_line_of(
        f"{code}\nprint(json.dumps([m for m in {modules!r} if m in sys.modules]))"))


def cli_run(argv):
    return ("from prodideals.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")


class TestFootprint:
    def test_parser_loads_no_dataclasses_or_query_modules(self):
        assert loaded_after("import prodideals.cli; prodideals.cli.build_parser()") == []

    def test_maxideals_loads_no_query_modules(self):
        assert loaded_after(cli_run(["maxideals", "-r", "Z", "--bound", "50"])) == []

    def test_oracle_loads_neither_properties_nor_valuations(self):
        assert loaded_after(cli_run(["oracle", "-r", "Z/12"])) == ["prodideals.oracle"]

    @pytest.mark.parametrize("code", [
        "import prodideals.cli; prodideals.cli.build_parser()",
        cli_run(["oracle", "-r", "Z/12"]),
        cli_run(["maxideals", "-r", "Z", "--bound", "50"]),
    ], ids=["parser", "oracle", "maxideals"])
    def test_integer_and_residue_commands_load_neither_fqpoly_nor_fractions(self, code):
        assert loaded_after(code, LAZY) == []

    def test_polynomial_ring_loads_fqpoly(self):
        assert loaded_after(cli_run(["maxideals", "-r", "F2[x]", "--bound", "3"]),
                            LAZY) == ["prodideals.fqpoly"]

    @pytest.mark.parametrize("argv", [
        ["oracle", "-r", "Z/25", "-r", "Z/16"],
        ["--format", "machine", "maxideals", "-r", "Z", "--bound", "50"],
        ["run", str(SRC.parent / "scenarios" / "residue_products.json")],
    ], ids=["oracle", "maxideals", "run"])
    def test_well_formed_line_loads_no_argparse(self, argv):
        # argparse, and the gettext and locale it loads, serve help and
        # usage errors only
        assert loaded_after(cli_run(argv), ("argparse", "gettext", "locale")) == []

    def test_localized_ring_loads_fractions(self):
        # integral Z_(S) values are ints; only a non-integral one is a Fraction
        assert loaded_after(cli_run(["maxideals", "-r", "Z_(2,3)"]), LAZY) == []
        assert loaded_after(cli_run(["check-plus", "-r", "Z_(2)", "--r-elem", '"1/3"',
                                     "--a-elem", "6"]), LAZY) == ["fractions"]

    def test_oracle_run_loads_no_ultrafilter_machinery(self):
        # the oracle is the independent check: it works on element sets alone
        assert loaded_after("from prodideals import oracle\noracle.oracle_run([12, 10])",
                            ("prodideals.boolalg", "prodideals.products")) == []


# every name the package exported when it imported its modules eagerly
PARENT_EXPORTS = """
    BudgetExceeded FactorizationBudgetExceeded FiniteIntersectionViolation
    InconsistentInput InvalidSample NonPositiveValueVector NotMember NotUnitIdeal
    NoWitness ParseError ShapeMismatch UnsupportedDescriptor UnsupportedRing
    ValidationError ZeroElement INF Infinity FinCofSet IntegerRing
    LocalizedIntegersRing MaxIdealId PolynomialRing ResidueRing RingElement
    RingHandle ZERO_MARKER ZeroMarker bezout_certificate crt_solve dset
    jacobson_radical_generator valuation vset vset_pair AlgebraElement
    FilterDescriptor FilterExtension FipResult UltrafilterDescriptor complement
    enumerate_ultrafilters extend_filter fip_check is_zero join leq meet membership
    IndexUltrafilter KernelIdeal MaximalityVerdict PointwiseMaxIdeal ProductElement
    ProductRing SkolemResult UltrafilterIdeal ValuationIdeal enumerate_maximal_ideals
    ideal_member index_filter_of is_maximal is_prime minimal_prime_below
    skolem_check vset_vector PlusPlusVerdict PlusWitness one_dim_plus_witness
    plus_witness plusplus_check plusplus_witness ChainVerdict InterpolationReport
    PrefixSample ValueVector chain_strictness floor_div_log interpolate_chain
    ll_relation min_prime_over ug_member valuation_compare OracleReport oracle_run
    Report Scenario parse_scenario run_scenario
""".split()


class TestFreeze:
    """The CLI freezes its start-up heap once; the library never freezes."""

    def test_cli_import_freezes(self):
        assert int(last_line_of("import prodideals.cli\nprint(gc.get_freeze_count())")) > 0

    def test_library_imports_do_not_freeze(self):
        code = ("import prodideals\n"
                "import prodideals.scenario, prodideals.oracle, prodideals.valuations\n"
                "import prodideals.properties, prodideals.fqpoly\n"
                "from prodideals import run_scenario, oracle_run\n"
                "print(gc.get_freeze_count(), 'prodideals.cli' in sys.modules)")
        assert last_line_of(code) == "0 False"

    def test_main_calls_do_not_freeze_again(self):
        code = ("from prodideals import cli\n"
                "frozen = gc.get_freeze_count()\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cli.main(['maxideals', '-r', 'Z', '--bound', '50']) == 0\n"
                "    assert cli.main(['oracle', '-r', 'Z/12']) == 0\n"
                "print(gc.get_freeze_count() - frozen)")
        assert last_line_of(code) == "0"


class TestExports:
    def test_every_export_resolves_to_its_definition(self):
        assert sorted(prodideals.__all__) == sorted(PARENT_EXPORTS)
        for name in PARENT_EXPORTS:
            namespace = {}
            exec(f"from prodideals import {name}", namespace)
            value = namespace[name]
            assert getattr(sys.modules[value.__module__], name) is value, name

    def test_dir_lists_names_not_yet_loaded(self):
        names = last_line_of("import prodideals\nprint(json.dumps(dir(prodideals)))")
        assert set(json.loads(names)) >= set(PARENT_EXPORTS) | {"__all__", "__version__"}

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError):
            prodideals.no_such_name

    def test_traced_entry_points_resolve(self):
        # perfbench/tracer.py wraps these by name, so a rename would otherwise
        # surface only when the benchmark runs
        path = SRC.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for module, attr, *_ in tracer.SPANS + tracer.COUNT_ONLY:
            owner = importlib.import_module(f"prodideals.{module}")
            for name in attr.split("."):
                owner = getattr(owner, name)
            assert callable(owner), (module, attr)

    def test_no_source_file_imports_dataclasses(self):
        for path in (SRC / "prodideals").glob("*.py"):
            text = path.read_text()
            assert "import dataclasses" not in text and "from dataclasses" not in text, path

    def test_self_checks_survive_optimize_flag(self):
        # python -O strips assert statements, so a result or a caller's
        # precondition is checked by an explicit raise, and src/ holds no assert
        found = []
        for path in sorted((SRC / "prodideals").glob("*.py")):
            text = path.read_text()
            found += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Assert)]
        assert found == []

    def test_ring_kinds_dispatch_by_member(self):
        # a decision that depends on the ring kind is a member of the kind, so
        # only the class bodies of rings test for a catalog class; oracle, the
        # independent harness, is exempt
        catalog = {cls.__name__ for cls in vars(rings).values() if isinstance(cls, type)
                   and issubclass(cls, rings.RingHandle) and cls is not rings.RingHandle}
        found = []
        for path in sorted((SRC / "prodideals").glob("*.py")):
            tree = ast.parse(path.read_text())
            exempt = set()
            if path.name == "rings.py":
                exempt = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                          for node in ast.walk(cls)}
            for node in ast.walk(tree):
                if (path.name != "oracle.py" and isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "isinstance"
                        and len(node.args) == 2 and id(node) not in exempt):
                    names = {getattr(n, "id", getattr(n, "attr", None))
                             for n in ast.walk(node.args[1])}
                    if names & catalog:
                        found.append(f"{path.name}:{node.lineno}")
        assert len(catalog) == 4 and found == []

    def test_every_cache_is_bounded(self):
        # a process-wide cache holds a bounded number of entries: no
        # lru_cache(maxsize=None), no bare lru_cache and no functools.cache
        found = []
        for path in sorted((SRC / "prodideals").glob("*.py")):
            tree = ast.parse(path.read_text())
            calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
            for node in ast.walk(tree):
                where = f"{path.name}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.ImportFrom) and node.module == "functools":
                    found += [where for alias in node.names if alias.name == "cache"]
                if (isinstance(node, ast.Attribute) and node.attr == "cache"
                        and getattr(node.value, "id", None) == "functools"):
                    found.append(where)
                if getattr(node, "attr", getattr(node, "id", None)) == "lru_cache":
                    call = calls.get(id(node))
                    if call is None or any(
                            isinstance(a, ast.Constant) and a.value is None
                            for a in call.args[:1] + [k.value for k in call.keywords
                                                      if k.arg == "maxsize"]):
                        found.append(where)
        assert found == []


# ---------------------------------------------------------------------------
# Record parity: what the code relied on when the records were dataclasses

ZZ = IntegerRing()
M3 = MaxIdealId(ZZ, 3)
SHAPE = (ZZ,)
P = products.ProductRing(SHAPE)
U3 = boolalg.UltrafilterDescriptor(SHAPE, 0, M3)
ALG = boolalg.AlgebraElement((FinCofSet.finite(ZZ, [M3]),))

# one factory per frozen record class; each call builds a new instance with
# the same fields
FROZEN = {
    RingElement: lambda: RingElement(ZZ, 3),
    MaxIdealId: lambda: MaxIdealId(ZZ, 3),
    FinCofSet: lambda: FinCofSet.finite(ZZ, [M3]),
    IntegerRing: IntegerRing,
    ResidueRing: lambda: ResidueRing(12),
    LocalizedIntegersRing: lambda: LocalizedIntegersRing((5, 2)),
    PolynomialRing: lambda: PolynomialRing(4),
    boolalg.AlgebraElement: lambda: boolalg.AlgebraElement([FinCofSet.finite(ZZ, [M3])]),
    boolalg.UltrafilterDescriptor: lambda: boolalg.UltrafilterDescriptor([ZZ], 0, M3),
    boolalg.FipResult: lambda: boolalg.FipResult(True, ()),
    boolalg.FilterDescriptor: lambda: boolalg.FilterDescriptor([ALG]),
    boolalg.FilterExtension: lambda: boolalg.extend_filter(boolalg.FilterDescriptor([ALG])),
    products.ProductRing: lambda: products.ProductRing([ZZ]),
    products.ProductElement: lambda: products.ProductElement(P, (ZZ.element(6),)),
    products.IndexUltrafilter: lambda: products.IndexUltrafilter(0),
    products.UltrafilterIdeal: lambda: products.UltrafilterIdeal(P, U3),
    products.KernelIdeal: lambda: products.KernelIdeal(P, products.IndexUltrafilter(0)),
    products.PointwiseMaxIdeal:
        lambda: products.PointwiseMaxIdeal(P, products.IndexUltrafilter(0), [M3]),
    products.ValuationIdeal:
        lambda: products.ValuationIdeal(P, U3, valuations.ValueVector.constant(SHAPE, 1)),
    products.MaximalityVerdict: lambda: products.is_maximal(products.UltrafilterIdeal(P, U3)),
    products.SkolemResult: lambda: products.SkolemResult(True, (), ()),
    oracle.OracleIdeal: lambda: oracle.OracleIdeal((6,), (frozenset({0, 3}),)),
    oracle.OracleReport: lambda: oracle.oracle_run([ResidueRing(6)]),
    properties.PlusWitness: lambda: properties.plus_witness(ZZ, ZZ.element(6), ZZ.element(10)),
    properties.PlusPlusVerdict: lambda: properties.plusplus_check(ZZ),
    valuations.ValueVector: lambda: valuations.ValueVector([ZZ], [2], [(0, M3, 1)]),
    valuations.ChainVerdict: lambda: valuations.ChainVerdict(True, False, False),
    valuations.PrefixSample: lambda: valuations.PrefixSample([1], [3], [2]),
    valuations.InterpolationReport:
        lambda: valuations.interpolate_chain(valuations.PrefixSample((1,), (3,), (2,)), "W", 2),
    scenario.Options: scenario.Options,
}
# the records that hold a list or a dict: frozen too, but unhashable
HOLDS_CONTAINER = {
    scenario.Scenario: lambda: scenario.parse_scenario(
        {"schema_version": 1, "rings": [{"kind": "integers"}]}),
    scenario.Report: lambda: scenario.Report([], 0),
}
#: the record classes that write ``__init__`` out: tier-1 builds them by the million
HAND_WRITTEN_INIT = {"FinCofSet", "RingElement", "ProductElement", "MaxIdealId"}


def fields_of(x):
    return tuple(getattr(x, name) for name in type(x).__annotations__)


def all_record_classes():
    out, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("prodideals."):
                out.add(sub)
                todo.append(sub)
    return out


def test_every_record_class_is_covered():
    assert all_record_classes() == set(FROZEN) | set(HOLDS_CONTAINER)
    assert len(FROZEN) + len(HOLDS_CONTAINER) == 32


def test_one_kind_of_record():
    # every record is frozen and built by Record.__init__, but for the classes
    # the record module docstring names; fields are written by set_field alone
    assert {cls.__name__ for cls in all_record_classes()
            if "__init__" in vars(cls)} == HAND_WRITTEN_INIT
    found = []
    for path in sorted((SRC / "prodideals").glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {id(node.value) for node in tree.body if path.name == "record.py"
                  and isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["set_field"]}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ClassDef):
                found += [where for k in node.keywords if k.arg == "frozen"]
            elif (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and getattr(node.value, "id", None) == "object"
                    and id(node) not in exempt):
                found.append(where)
    assert found == []


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda c: c.__name__)
def test_frozen_record_parity(cls):
    a, b = FROZEN[cls](), FROZEN[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields_of(a))
    assert {a: 1}[b] == 1
    name = next(iter(cls.__annotations__), "anything")
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        a.not_a_field = 1


def test_keyword_construction_and_normalisation():
    assert MaxIdealId(generator=3, ring=ZZ) == M3
    assert boolalg.UltrafilterDescriptor(shape=[ZZ], coordinate=0, principal=M3) == U3
    assert LocalizedIntegersRing(primes=[5, 2, 5]).primes == (2, 5)
    assert FinCofSet(ResidueRing(12), True, frozenset()).support == frozenset(
        ResidueRing(12).maximal_spectrum())
    with pytest.raises(TypeError):
        ResidueRing()
    with pytest.raises(TypeError):
        ResidueRing(12, modulus=12)
    with pytest.raises(TypeError):
        ResidueRing(12, 13)
    with pytest.raises(TypeError):
        scenario.Options(bounds=3)


def test_equal_fields_of_different_classes_compare_unequal():
    for a, b in ((RingElement(ZZ, 3), MaxIdealId(ZZ, 3)),
                 (ResidueRing(5), PolynomialRing(5))):
        assert fields_of(a) == fields_of(b) and hash(a) == hash(b)
        assert a != b and not a == b
    assert len({RingElement(ZZ, 3), MaxIdealId(ZZ, 3)}) == 2


def test_validation_runs_on_every_construction():
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        ResidueRing(1)
    with pytest.raises(InconsistentInput, match="empty product shape"):
        boolalg.AlgebraElement(())
    with pytest.raises(InconsistentInput, match="out of range"):
        boolalg.UltrafilterDescriptor(SHAPE, 1, M3)
    with pytest.raises(InconsistentInput, match="finite spectrum"):
        boolalg.UltrafilterDescriptor((ResidueRing(6),), 0, None)
    with pytest.raises(InconsistentInput, match="does not belong"):
        FinCofSet.finite(ResidueRing(6), [M3])
    with pytest.raises(InconsistentInput, match="at least one component"):
        products.ProductRing(())
    R6, ZZ2 = ResidueRing(6), products.ProductRing((ZZ, ZZ))
    with pytest.raises(InconsistentInput, match=r"^\(2\) is not a maximal ideal of Z/6$"):
        boolalg.UltrafilterDescriptor((ZZ, R6), 1, ResidueRing(10).max_ideal(2))
    with pytest.raises(ShapeMismatch, match="^ultrafilter over a different shape$"):
        products.UltrafilterIdeal(ZZ2, U3)
    with pytest.raises(ShapeMismatch, match="^ultrafilter over a different shape$"):
        products.ValuationIdeal(ZZ2, U3, valuations.ValueVector.constant((ZZ, ZZ), 1))
    with pytest.raises(ShapeMismatch, match="^value vector over a different shape$"):
        products.ValuationIdeal(P, U3, valuations.ValueVector.constant((ZZ, ZZ), 1))
    with pytest.raises(InconsistentInput, match="^sets over different rings$"):
        FinCofSet.finite(R6, []).intersection(FinCofSet.finite(ResidueRing(10), []))
    with pytest.raises(ShapeMismatch, match="^elements of different products$"):
        products.ProductRing((ZZ, R6)).element([1, 1]) + ZZ2.element([1, 1])
    with pytest.raises(InconsistentInput, match="^not a ring handle: 5$"):
        products.ProductRing((ZZ, 5))
    with pytest.raises(ShapeMismatch, match="^expected 2 entries, got 1$"):
        ZZ2.element([1])
    with pytest.raises(InconsistentInput, match="^coordinate 1 out of range$"):
        valuations.ValueVector((ZZ,), (1,), ((1, ZZ.max_ideal(2), 1),))
    with pytest.raises(InconsistentInput, match=r"^\(2\) is not a maximal ideal of Z$"):
        valuations.ValueVector((ZZ,), (1,), ((0, R6.max_ideal(2), 1),))
    with pytest.raises(AttributeError, match="^cannot delete field 'generator'$"):
        del M3.generator


def test_mutable_records():
    opts = scenario.Options()
    assert (opts.bound, opts.n_max, opts.factor_budget, opts.oracle_budget,
            opts.log_base) == (16, 20, 10**6, 10_000, None)
    assert scenario.Options(5, log_base=2) == scenario.Options(bound=5, log_base=2)
    for cls, make in HOLDS_CONTAINER.items():
        x = make()
        assert type(x) is cls and x == make()
        with pytest.raises(AttributeError):
            setattr(x, cls._fields[0], None)
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)


def test_generated_repr_where_the_class_defines_none():
    assert repr(IntegerRing()) == "IntegerRing()"
    assert repr(ResidueRing(12)) == "ResidueRing(modulus=12)"
    assert repr(LocalizedIntegersRing((5, 2))) == "LocalizedIntegersRing(primes=(2, 5))"
    assert repr(valuations.ChainVerdict(True, False, False)) == (
        "ChainVerdict(dominates=True, strict_containment=False, consistent=False)")
    assert repr(scenario.Options()) == (
        "Options(bound=16, n_max=20, factor_budget=1000000, oracle_budget=10000, "
        "log_base=None)")
    # classes with their own repr keep it
    assert repr(M3) == "(3)"
    assert repr(U3) == "Principal(coord=0, (3))"
    assert repr(products.IndexUltrafilter(0)) == "IndexPrincipal(0)"
