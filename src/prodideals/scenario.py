"""Scenario ingestion, batch query execution, and deterministic reports.

A scenario is a JSON document: ring descriptions, a product built from them,
named objects (ultrafilters, elements, value vectors, ideal descriptors),
and an ordered list of queries.  Reports carry one record per query with a
verdict, any witness material, and a provenance tag naming the rule or
oracle that produced the verdict.  Machine rendering is one JSON object per
line with sorted keys, so a fixed scenario and tool version always produce
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import __version__ as _version
from . import boolalg, oracle, products, properties, valuations
from .errors import ParseError, ValidationError
from .rings import (
    DEFAULT_FACTOR_BUDGET,
    FinCofSet,
    IntegerRing,
    LocalizedIntegersRing,
    MaxIdealId,
    PolynomialRing,
    ResidueRing,
    RingElement,
    RingHandle,
)
from .values import decode_value, encode_value

SCHEMA_VERSION = 1

QUERY_KINDS = (
    "maxideals", "is-maximal", "check-plus", "check-plusplus", "ideal-member",
    "minimal-prime", "valuation-compare", "ug-member", "ll",
    "interpolate", "oracle", "skolem", "assert",
)


# ---------------------------------------------------------------------------
# Codecs


def decode_ring(obj, where="rings") -> RingHandle:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(where, f"expected a ring description, got {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "integers":
            return IntegerRing()
        if kind == "residue":
            return ResidueRing(int(obj["n"]))
        if kind == "localized_integers":
            return LocalizedIntegersRing(tuple(int(p) for p in obj["primes"]))
        if kind == "poly_fq":
            return PolynomialRing(int(obj["q"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ValidationError(where, str(exc))
    raise ValidationError(where, f"unknown ring kind {kind!r}")


def encode_ring(ring: RingHandle) -> dict:
    if isinstance(ring, IntegerRing):
        return {"kind": "integers"}
    if isinstance(ring, ResidueRing):
        return {"kind": "residue", "n": ring.modulus}
    if isinstance(ring, LocalizedIntegersRing):
        return {"kind": "localized_integers", "primes": list(ring.primes)}
    if isinstance(ring, PolynomialRing):
        return {"kind": "poly_fq", "q": ring.q}
    raise ValidationError("rings", f"cannot encode {ring!r}")


def _decode_int(obj, where):
    if isinstance(obj, str):
        try:
            return int(obj)
        except ValueError:
            raise ValidationError(where, f"not an integer: {obj!r}")
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValidationError(where, f"not an integer: {obj!r}")
    return obj


def _decode_positive_int(obj, where):
    value = _decode_int(obj, where)
    if value <= 0:
        raise ValidationError(where, "must be positive")
    return value


def decode_ring_element(ring: RingHandle, obj, where="element") -> RingElement:
    try:
        if isinstance(ring, PolynomialRing):
            if isinstance(obj, dict) and "poly" in obj:
                return ring.element(tuple(_decode_int(c, where) for c in obj["poly"]))
            return ring.element(_decode_int(obj, where))
        if isinstance(ring, LocalizedIntegersRing):
            if isinstance(obj, str) and "/" in obj:
                return ring.element(Fraction(obj))
            return ring.element(_decode_int(obj, where))
        return ring.element(_decode_int(obj, where))
    except ValueError as exc:
        raise ValidationError(where, str(exc))


def encode_ring_element(elem: RingElement):
    raw = elem.raw
    if isinstance(raw, tuple):
        return {"poly": list(raw)}
    if isinstance(raw, Fraction):
        if raw.denominator == 1:
            return encode_value(int(raw)) if raw >= 0 else _encode_int(int(raw))
        return f"{raw.numerator}/{raw.denominator}"
    return _encode_int(raw)


def _encode_int(v: int):
    return v if abs(v) <= 2**53 - 1 else str(v)


def decode_generator(ring: RingHandle, obj, where="ideal"):
    if isinstance(ring, PolynomialRing):
        if isinstance(obj, dict) and "poly" in obj:
            return tuple(_decode_int(c, where) for c in obj["poly"])
        raise ValidationError(where, "polynomial generator must be {\"poly\": [...]}")
    return _decode_int(obj, where)


def encode_generator(m: MaxIdealId):
    if isinstance(m.generator, tuple):
        return {"poly": list(m.generator)}
    return _encode_int(m.generator)


def decode_max_ideal(ring: RingHandle, obj, where="ideal") -> MaxIdealId:
    try:
        return ring.max_ideal(decode_generator(ring, obj, where))
    except ValueError as exc:
        raise ValidationError(where, str(exc))


def decode_fincof(ring: RingHandle, obj, where="set") -> FinCofSet:
    if isinstance(obj, dict) and "finite" in obj:
        return FinCofSet.finite(
            ring, (decode_max_ideal(ring, g, where) for g in obj["finite"]))
    if isinstance(obj, dict) and "cofinite" in obj:
        return FinCofSet.cofinite(
            ring, (decode_max_ideal(ring, g, where) for g in obj["cofinite"]))
    raise ValidationError(where, f"expected {{\"finite\": ...}} or {{\"cofinite\": ...}}")


def encode_fincof(s: FinCofSet) -> dict:
    gens = [encode_generator(m) for m in s.sorted_support()]
    return {"cofinite": gens} if s.is_cofinite else {"finite": gens}


def decode_ultrafilter(shape, obj, where="ultrafilter") -> boolalg.UltrafilterDescriptor:
    if not isinstance(obj, dict) or "coordinate" not in obj:
        raise ValidationError(where, f"expected an ultrafilter description, got {obj!r}")
    coord = _decode_int(obj["coordinate"], where)
    if not 0 <= coord < len(shape):
        raise ValidationError(where, f"coordinate {coord} out of range")
    if obj.get("cofinite_frechet"):
        try:
            return boolalg.UltrafilterDescriptor(shape, coord, None)
        except ValueError as exc:
            raise ValidationError(where, str(exc))
    if "principal" not in obj:
        raise ValidationError(where, "need \"principal\" or \"cofinite_frechet\"")
    m = decode_max_ideal(shape[coord], obj["principal"], where)
    return boolalg.UltrafilterDescriptor(shape, coord, m)


def encode_ultrafilter(u: boolalg.UltrafilterDescriptor) -> dict:
    if u.is_frechet:
        return {"coordinate": u.coordinate, "cofinite_frechet": True}
    return {"coordinate": u.coordinate, "principal": encode_generator(u.principal)}


def decode_value_vector(shape, obj, where="value_vector") -> valuations.ValueVector:
    if not isinstance(obj, dict) or "defaults" not in obj:
        raise ValidationError(where, f"expected a value vector, got {obj!r}")
    defaults = tuple(decode_value(v, where) for v in obj["defaults"])
    if len(defaults) != len(shape):
        raise ValidationError(where, "one default per coordinate required")
    exceptions = []
    for rec in obj.get("exceptions", ()):
        coord = _decode_int(rec["coord"], where)
        if not 0 <= coord < len(shape):
            raise ValidationError(where, f"coordinate {coord} out of range")
        m = decode_max_ideal(shape[coord], rec["ideal"], where)
        exceptions.append((coord, m, decode_value(rec["value"], where)))
    try:
        return valuations.ValueVector(shape, defaults, tuple(exceptions))
    except ValueError as exc:
        raise ValidationError(where, str(exc))


def encode_value_vector(g: valuations.ValueVector) -> dict:
    return {
        "defaults": [encode_value(v) for v in g.defaults],
        "exceptions": [
            {"coord": c, "ideal": encode_generator(m), "value": encode_value(v)}
            for c, m, v in g.exceptions],
    }


def decode_element(product: products.ProductRing, obj, where="element"):
    if not isinstance(obj, (list, tuple)):
        raise ValidationError(where, "a product element is a list of entries")
    if len(obj) != product.size:
        raise ValidationError(where, f"expected {product.size} entries")
    return products.ProductElement(
        product,
        tuple(decode_ring_element(r, o, where)
              for r, o in zip(product.components, obj)))


def encode_element(a) -> list:
    return [encode_ring_element(e) for e in a.entries]


def decode_ideal(product, obj, objects, where="ideal"):
    if isinstance(obj, str):
        return _resolve(objects, obj, where)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(where, f"expected an ideal descriptor, got {obj!r}")
    kind = obj["kind"]
    shape = product.shape
    if kind == "ultrafilter_ideal":
        u = _resolve_ultrafilter(product, obj["ultrafilter"], objects, where)
        return products.UltrafilterIdeal(product, u)
    if kind == "kernel_ideal":
        coord = _decode_int(obj["coordinate"], where)
        return products.KernelIdeal(product, products.IndexUltrafilter(coord))
    if kind == "pointwise_max_ideal":
        coord = _decode_int(obj["coordinate"], where)
        ideals = tuple(decode_max_ideal(r, g, where)
                       for r, g in zip(product.components, obj["ideals"]))
        return products.PointwiseMaxIdeal(
            product, products.IndexUltrafilter(coord), ideals)
    if kind == "valuation_ideal":
        u = _resolve_ultrafilter(product, obj["ultrafilter"], objects, where)
        g = obj["g"]
        if isinstance(g, str):
            g = _resolve(objects, g, where)
        else:
            g = decode_value_vector(shape, g, where)
        return products.ValuationIdeal(product, u, g)
    raise ValidationError(where, f"unknown ideal kind {kind!r}")


def encode_ideal(ideal) -> dict:
    if isinstance(ideal, products.UltrafilterIdeal):
        return {"kind": "ultrafilter_ideal",
                "ultrafilter": encode_ultrafilter(ideal.u)}
    if isinstance(ideal, products.KernelIdeal):
        return {"kind": "kernel_ideal", "coordinate": ideal.f.coordinate}
    if isinstance(ideal, products.PointwiseMaxIdeal):
        return {"kind": "pointwise_max_ideal", "coordinate": ideal.f.coordinate,
                "ideals": [encode_generator(m) for m in ideal.ideals]}
    if isinstance(ideal, products.ValuationIdeal):
        return {"kind": "valuation_ideal", "ultrafilter": encode_ultrafilter(ideal.u),
                "g": encode_value_vector(ideal.g)}
    raise ValidationError("ideal", f"cannot encode {ideal!r}")


def _resolve(objects, name, where):
    if name not in objects:
        raise ValidationError(where, f"unknown object name {name!r}")
    return objects[name]


def _resolve_ultrafilter(product, obj, objects, where):
    if isinstance(obj, str):
        return _resolve(objects, obj, where)
    return decode_ultrafilter(product.shape, obj, where)


# ---------------------------------------------------------------------------
# Scenario model


@dataclass
class Options:
    bound: int = 16
    n_max: int = 20
    factor_budget: int = DEFAULT_FACTOR_BUDGET
    oracle_budget: int = oracle.DEFAULT_ORACLE_BUDGET
    log_base: object = None  # None = natural log

    @classmethod
    def from_obj(cls, obj) -> "Options":
        opts = cls()
        for key in ("bound", "n_max", "factor_budget", "oracle_budget"):
            if key in obj:
                setattr(opts, key, _decode_positive_int(obj[key], f"options.{key}"))
        if obj.get("log_base") is not None:
            opts.log_base = _decode_int(obj["log_base"], "options.log_base")
        return opts


@dataclass
class Scenario:
    rings: list
    product: products.ProductRing
    objects: dict
    queries: list
    options: Options


def parse_scenario(source) -> Scenario:
    """Parse a scenario from a JSON string (or an already-parsed dict)."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, exc.lineno, exc.colno)
    else:
        data = source
    if not isinstance(data, dict):
        raise ValidationError("$", "scenario must be an object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError("schema_version",
                              f"expected {SCHEMA_VERSION}, got {version!r}")
    ring_list = data.get("rings")
    if not isinstance(ring_list, list) or not ring_list:
        raise ValidationError("rings", "need a nonempty list of ring descriptions")
    rings = [decode_ring(r, f"rings[{i}]") for i, r in enumerate(ring_list)]
    index_list = data.get("product", list(range(len(rings))))
    if not isinstance(index_list, list) or not index_list:
        raise ValidationError("product", "need a nonempty index list")
    comps = []
    for i, idx in enumerate(index_list):
        idx = _decode_int(idx, f"product[{i}]")
        if not 0 <= idx < len(rings):
            raise ValidationError(f"product[{i}]", f"ring index {idx} out of range")
        comps.append(rings[idx])
    product = products.ProductRing(tuple(comps))
    options = Options.from_obj(data.get("options", {}))

    # ideals may reference other named objects, so decode them second
    objects = {}
    items = sorted(data.get("objects", {}).items())
    for pass_ideals in (False, True):
        for name, obj in items:
            where = f"objects.{name}"
            if not isinstance(obj, dict) or "type" not in obj:
                raise ValidationError(where, "objects need a \"type\" field")
            t = obj["type"]
            if (t == "ideal") != pass_ideals:
                continue
            if t == "ultrafilter":
                objects[name] = decode_ultrafilter(product.shape, obj, where)
            elif t == "element":
                objects[name] = decode_element(product, obj.get("entries"), where)
            elif t == "value_vector":
                objects[name] = decode_value_vector(product.shape, obj, where)
            elif t == "ideal":
                objects[name] = decode_ideal(product, obj, objects, where)
            else:
                raise ValidationError(where, f"unknown object type {t!r}")

    queries = data.get("queries", [])
    if not isinstance(queries, list):
        raise ValidationError("queries", "must be a list")
    for i, q in enumerate(queries):
        if not isinstance(q, dict) or "query" not in q:
            raise ValidationError(f"queries[{i}]", "each query needs a \"query\" field")
        kind = q["query"]
        if kind not in QUERY_KINDS:
            raise ValidationError(f"queries[{i}].query", f"unknown kind {kind!r}")
    return Scenario(rings, product, objects, queries, options)


# ---------------------------------------------------------------------------
# Execution


@dataclass
class Report:
    records: list
    exit_code: int

    def render_machine(self) -> str:
        lines = [json.dumps({"schema_version": SCHEMA_VERSION, "tool": "prodideals",
                             "type": "header", "version": _version},
                            sort_keys=True, separators=(",", ":"))]
        for rec in self.records:
            lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        lines = [f"prodideals {_version} report"]
        for rec in self.records:
            head = f"[{rec['index']}] {rec['query']}: {json.dumps(rec['verdict'], sort_keys=True)}"
            lines.append(head)
            for key in sorted(rec):
                if key in ("index", "query", "verdict"):
                    continue
                lines.append(f"    {key}: {json.dumps(rec[key], sort_keys=True)}")
        return "\n".join(lines) + "\n"


def _ring_at(scn: Scenario, query: dict, where):
    idx = _decode_int(query.get("ring", 0), f"{where}.ring")
    if not 0 <= idx < len(scn.rings):
        raise ValidationError(f"{where}.ring",
                              f"ring index {idx} out of range "
                              f"({len(scn.rings)} rings declared)")
    return scn.rings[idx]


def execute_query(scn: Scenario, query: dict, index: int) -> dict:
    kind = query["query"]
    where = f"queries[{index}]"
    product = scn.product
    objects = scn.objects
    rec = {"index": index, "query": kind}

    def get_element(key):
        obj = query.get(key)
        if isinstance(obj, str):
            return _resolve(objects, obj, where)
        return decode_element(product, obj, where)

    def get_ultrafilter(key="ultrafilter"):
        return _resolve_ultrafilter(product, query.get(key), objects, where)

    def get_value_vector(key):
        obj = query.get(key)
        if isinstance(obj, str):
            return _resolve(objects, obj, where)
        return decode_value_vector(product.shape, obj, where)

    if kind == "maxideals":
        bound = scn.options.bound
        if "bound" in query:
            bound = _decode_positive_int(query["bound"], f"{where}.bound")
        accepted, rejected = [], []
        for u in boolalg.enumerate_ultrafilters(product.shape, bound):
            verdict = products.is_maximal(products.UltrafilterIdeal(product, u))
            entry = {"ultrafilter": encode_ultrafilter(u), "rule": verdict.rule}
            if verdict.is_maximal:
                if verdict.witness is not None:
                    entry["witness"] = encode_element(verdict.witness)
                accepted.append(entry)
            else:
                entry["reason"] = verdict.detail
                rejected.append(entry)
        rec["verdict"] = {"maximal": accepted, "rejected": rejected}
        rec["provenance"] = "rule:bounded-ultrafilter-enumeration"
        return rec

    if kind == "is-maximal":
        u = get_ultrafilter()
        verdict = products.is_maximal(products.UltrafilterIdeal(product, u))
        rec["verdict"] = verdict.is_maximal
        rec["provenance"] = verdict.rule
        rec["detail"] = verdict.detail
        if verdict.witness is not None:
            rec["witness"] = encode_element(verdict.witness)
        return rec

    if kind == "check-plus":
        ring = _ring_at(scn, query, where)
        r = decode_ring_element(ring, query.get("r"), where)
        a = decode_ring_element(ring, query.get("a"), where)
        w = properties.plus_witness(ring, r, a, scn.options.factor_budget)
        rec["verdict"] = encode_ring_element(w.d)
        rec["witness"] = {
            "must_contain": encode_fincof(w.lower),
            "allowed": encode_fincof(w.upper),
            "vanishing_set": encode_fincof(w.vset_d)}
        rec["provenance"] = properties.RULE_PLUS_FINITE_CHARACTER
        return rec

    if kind == "check-plusplus":
        ring = _ring_at(scn, query, where)
        verdict = properties.plusplus_check(ring)
        rec["provenance"] = verdict.rule
        if not verdict.holds:
            rec["verdict"] = False
            rec["obstruction"] = encode_ring_element(verdict.obstruction)
            return rec
        rec["verdict"] = True
        if "r" in query:
            r = decode_ring_element(ring, query["r"], where)
            rec["witness"] = encode_ring_element(
                properties.plusplus_witness(ring, r, scn.options.factor_budget))
        elif isinstance(ring, ResidueRing):
            table = []
            for r in range(ring.modulus):
                d = properties.plusplus_witness(ring, ring.element(r),
                                                scn.options.factor_budget)
                table.append({"r": r, "d": encode_ring_element(d)})
            rec["witness_table"] = table
        return rec

    if kind == "ideal-member":
        ideal = decode_ideal(product, query.get("ideal"), objects, where)
        a = get_element("element")
        rec["verdict"] = products.ideal_member(ideal, a)
        rec["ideal"] = encode_ideal(ideal)
        rec["provenance"] = "rule:descriptor-membership"
        return rec

    if kind == "minimal-prime":
        u = get_ultrafilter()
        kernel = products.minimal_prime_below(products.UltrafilterIdeal(product, u))
        rec["verdict"] = encode_ideal(kernel)
        rec["provenance"] = "rule:index-filter-concentration"
        return rec

    if kind == "valuation-compare":
        u = get_ultrafilter()
        result = valuations.valuation_compare(u, get_element("a"), get_element("b"))
        rec["verdict"] = result
        rec["provenance"] = ("rule:principal-valuation-restriction"
                             if not u.is_frechet else "rule:frechet-exception-scan")
        return rec

    if kind == "ug-member":
        u = get_ultrafilter()
        rec["verdict"] = valuations.ug_member(u, get_value_vector("g"),
                                              get_element("x"))
        rec["provenance"] = "rule:threshold-closed-form"
        return rec

    if kind == "ll":
        u = get_ultrafilter()
        rec["verdict"] = valuations.ll_relation(u, get_value_vector("g"),
                                                get_value_vector("h"))
        rec["provenance"] = ("rule:ll-atom" if not u.is_frechet
                             else "rule:ll-default-pair")
        return rec

    if kind == "interpolate":
        branch = query.get("branch", "W")
        n_max = query.get("n_max", scn.options.n_max)
        if "doubling" in query:
            count = _decode_int(query["doubling"], where)
            sample = valuations.PrefixSample(
                tuple(1 for _ in range(count)),
                tuple(2**i + 1 for i in range(1, count + 1)),
                tuple(2**i for i in range(1, count + 1)))
        else:
            raw = query.get("sample", {})
            sample = valuations.PrefixSample(
                tuple(decode_value(v, where) for v in raw.get("g", ())),
                tuple(decode_value(v, where) for v in raw.get("h", ())),
                tuple(decode_value(v, where) for v in raw.get("n", ())))
        report = valuations.interpolate_chain(sample, branch, n_max,
                                              scn.options.log_base)
        rec["verdict"] = report.ok
        rec["log_base"] = report.log_base if report.log_base == "e" else int(report.log_base)
        rec["first_failure"] = report.first_failure
        rec["witnesses"] = [{"n": n, "scale_index": wi, "headroom_index": wii}
                            for n, wi, wii in report.witnesses]
        if len(report.k) <= 32:
            rec["k"] = [encode_value(v) for v in report.k]
        rec["provenance"] = "rule:interpolation-floor-log"
        return rec

    if kind == "oracle":
        mark = bool(query.get("mark_primes", True))
        rep = oracle.oracle_run(product.components, scn.options.oracle_budget, mark)
        ultra = {oracle.descriptor_elements(i)
                 for i in products.enumerate_maximal_ideals(product)}
        rec["verdict"] = {
            "ideal_count": rep.ideal_count,
            "maximal_count": len(rep.maximal),
            "prime_count": None if rep.primes is None else len(rep.primes),
            "matches_ultrafilter_enumeration": ultra == set(rep.maximal)}
        rec["provenance"] = "oracle:ideal-closure"
        return rec

    if kind == "skolem":
        elems = []
        for obj in query.get("elements", ()):
            if isinstance(obj, str):
                elems.append(_resolve(objects, obj, where))
            else:
                elems.append(decode_element(product, obj, where))
        result = products.skolem_check(elems, scn.options.factor_budget)
        rec["verdict"] = result.holds
        if result.holds:
            rec["certificate"] = [encode_element(c) for c in result.certificate]
        else:
            coord, m = result.witness
            rec["witness"] = {"coordinate": coord, "ideal": encode_generator(m)}
        rec["provenance"] = "rule:coordinatewise-bezout"
        return rec

    if kind == "assert":
        inner = query.get("of")
        if not isinstance(inner, dict) or inner.get("query") not in QUERY_KINDS \
                or inner.get("query") == "assert":
            raise ValidationError(f"{where}.of", "need a non-assert inner query")
        inner_rec = execute_query(scn, inner, index)
        expected = query.get("expect")
        passed = inner_rec["verdict"] == expected
        rec["verdict"] = passed
        rec["expected"] = expected
        rec["actual"] = inner_rec["verdict"]
        rec["provenance"] = inner_rec.get("provenance", "rule:assert")
        return rec

    raise ValidationError(where, f"unknown query kind {kind!r}")


def run_scenario(source) -> Report:
    """Execute a scenario (JSON text, dict, or file path) and build a report.

    Exit codes: 0 on success, 2 when an assert query fails; parse and
    validation errors raise and map to exit code 1 in the CLI.
    """
    if isinstance(source, str) and not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            source = fh.read()
    scn = parse_scenario(source)
    records = []
    exit_code = 0
    for i, q in enumerate(scn.queries):
        rec = execute_query(scn, q, i)
        records.append(rec)
        if q["query"] == "assert" and rec["verdict"] is False:
            exit_code = 2
    return Report(records, exit_code)
