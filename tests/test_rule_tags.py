"""Each provenance tag has one owner: the module whose function decides the
verdict assigns the tag to a constant, once, and ``scenario`` passes it on.

``rule_table`` derives, from the sources alone, each tag's constant, the
functions that decide it and the query kinds that report it.  The README's
tag table and the tags of the corpus reports are checked against it.
"""

import ast
import collections
import importlib
import json
import pathlib
import re

from prodideals import scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "prodideals"
PREFIXES = ("rule:", "oracle:")


def is_tag(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith(PREFIXES))


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def functions(tree):
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def tag_constants():
    """{module: {constant: tag}} of the module-level assignments of a tag."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and is_tag(node.value):
                [target] = node.targets
                out.setdefault(path.stem, {})[target.id] = node.value.value
    return out


def query_handlers():
    """{kind: handler name} of ``scenario.QUERIES``, read from its source."""
    [table] = [node.value for node in parse("scenario").body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["QUERIES"]]
    return {key.value: row.args[0].id for key, row in zip(table.keys, table.values)}


def rule_table():
    """{tag: (constant, deciding functions, query kinds)}.

    A function of the owning module decides a tag when it reads the tag's
    constant, or when a handler that reads the constant calls it.  A kind
    reports a tag when its handler reads the constant or calls a function
    that does.  ``assert`` reports its inner query's tag and is left out.
    """
    constants = tag_constants()
    reads = {(module, name): {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
             for module in constants for name, fn in functions(parse(module)).items()}
    table = {tag: (f"{module}.{name}", set(), set())
             for module, named in constants.items() for name, tag in named.items()}
    for (module, fn), names in reads.items():
        for name in names & constants[module].keys():
            table[constants[module][name]][1].add(f"{module}.{fn}")
    handlers = functions(parse("scenario"))
    for kind, handler in query_handlers().items():
        nodes = list(ast.walk(handlers[handler]))
        called = {(n.func.value.id, n.func.attr) for n in nodes if isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Attribute) and isinstance(n.func.value, ast.Name)
                  } & reads.keys()
        read = {(n.value.id, n.attr) for n in nodes if isinstance(n, ast.Attribute)
                and n.attr in constants.get(getattr(n.value, "id", None), {})}
        for owner, name in read:  # a constant the handler reads
            _, deciders, kinds = table[constants[owner][name]]
            deciders.update(f"{module}.{fn}" for module, fn in called if module == owner)
            kinds.add(kind)
        for module, fn in called:
            for name in reads[module, fn] & constants[module].keys():
                table[constants[module][name]][2].add(kind)
    return table


def test_each_tag_is_assigned_once_by_a_deciding_module():
    written = collections.Counter(
        node.value for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text())) if is_tag(node))
    assigned = {tag for named in tag_constants().values() for tag in named.values()}
    assert set(written) == assigned and set(written.values()) == {1}
    assert len(assigned) == 18
    assert set(tag_constants()) == {"products", "properties", "valuations", "oracle"}
    for module, named in tag_constants().items():
        for name, tag in named.items():
            assert getattr(importlib.import_module(f"prodideals.{module}"), name) == tag


def test_scenario_chooses_no_tag():
    # no tag literal, and no tag constant read under a condition: the
    # function that decides the verdict names its rule
    text = (SRC / "scenario.py").read_text()
    assert '"rule:' not in text and '"oracle:' not in text
    names = {name for named in tag_constants().values() for name in named}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.If, ast.IfExp)):
            assert not [n.attr for n in ast.walk(node)
                        if isinstance(n, ast.Attribute) and n.attr in names], node.lineno


def test_every_tag_has_a_decider_and_a_kind():
    for tag, (constant, deciders, kinds) in rule_table().items():
        assert deciders and kinds, (tag, constant)
        assert kinds <= scenario.QUERIES.keys()


#: the two queries whose tags the corpus does not report
UNREPORTED = {"schema_version": 1, "rings": [{"kind": "integers"}], "queries": [
    {"query": "ll", "ultrafilter": {"coordinate": 0, "cofinite_frechet": True},
     "g": {"defaults": [1]}, "h": {"defaults": ["inf"]}},
    {"query": "check-plusplus"}]}


def reported_tags():
    """The (tag, kind) pairs of the corpus reports and of ``UNREPORTED``,
    with the rules named in ``maxideals`` verdicts and the inner kind of each
    ``assert``."""
    pairs = set()
    sources = [json.loads(path.read_text()) for path in sorted(ROOT.glob("scenarios/*.json"))]
    for source in sources + [UNREPORTED]:
        queries = source["queries"]
        for rec in scenario.run_scenario(source).records:
            kind = rec["query"]
            if kind == "assert":
                kind = queries[rec["index"]]["of"]["query"]
            pairs.add((rec["provenance"], kind))
            if rec["query"] == "maxideals":
                verdict = scenario._plain(rec["verdict"])
                pairs.update((entry["rule"], kind)
                             for entry in verdict["maximal"] + verdict["rejected"])
    return pairs


def test_reports_agree_with_the_table():
    # each kind reports exactly the tags the table gives it
    assert reported_tags() == {(tag, kind) for tag, (_, _, kinds) in rule_table().items()
                               for kind in kinds}


def test_readme_tag_table_lists_every_tag():
    readme = (ROOT / "README.md").read_text()
    rows = readme.split("| tag | decided by | query kinds |\n|---|---|---|\n", 1)[1]
    rows = rows.split("\n\n", 1)[0].splitlines()
    listed = {}
    for line in rows:
        tag, deciders, kinds = re.fullmatch(r"\| `([^`]+)` \| (.*) \| (.*) \|", line).groups()
        listed[tag] = (set(re.findall(r"`([^`]+)`", deciders)),
                       set(re.findall(r"`([^`]+)`", kinds)))
    assert listed == {tag: (deciders, kinds)
                      for tag, (_, deciders, kinds) in rule_table().items()}
