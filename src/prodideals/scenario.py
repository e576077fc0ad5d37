"""Scenario ingestion, batch query execution, and deterministic reports.

A scenario is a JSON document: ring descriptions, a product built from them,
named objects (ultrafilters, elements, value vectors, ideal descriptors),
and an ordered list of queries.  Reports carry one record per query with a
verdict, any witness material, and a provenance tag naming the rule or
oracle that produced the verdict.  Machine rendering is one JSON object per
line with sorted keys, so a fixed scenario and tool version always produce
byte-identical output.

``QUERIES`` maps each query kind to its handler, a function of the scenario,
the query object and its location (``queries[i]``) that returns the record's
fields: ``verdict``, ``provenance`` and any witness material; a long list
among them can be a ``Stream``, whose entries come as text already encoded
by the report's encoder and are written a piece at a time.  To add a kind,
write its handler, add a ``QUERIES`` row, and, if the kind has a
command-line form, add a row to ``cli.COMMANDS``.

A field that holds an ultrafilter, element, value vector or ideal descriptor
takes a literal or the name of a declared object of that ``"type"``, and
``resolve`` reads both.  To add a descriptor kind, write its class in
``products`` and add an ``IDEAL_KINDS`` row with its decoder and encoder; to
add an object type, add an ``OBJECT_TYPES`` row with its literal's decoder.

Each CLI process answers one command, so this module imports only what every
scenario needs (``rings``, ``boolalg``, ``products``).  ``oracle``,
``properties`` and ``valuations`` are imported by the query kinds, and the
value-vector decoder, that use them.
"""

from __future__ import annotations

import json

from . import __version__ as _version
from . import boolalg, products
from .errors import (INPUT_ERRORS, BudgetExceeded, FactorizationBudgetExceeded, ParseError,
                     UnsupportedRing, ValidationError)
from .record import Record
from .rings import (
    DEFAULT_FACTOR_BUDGET,
    DEFAULT_ORACLE_BUDGET,
    FinCofSet,
    IntegerRing,
    LocalizedIntegersRing,
    MaxIdealId,
    PolynomialRing,
    ResidueRing,
    RingElement,
    RingHandle,
    generator_key,
)
from .values import decode_value, encode_value, encode_values

SCHEMA_VERSION = 1


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
    except KeyError as exc:
        raise ValidationError(where, f"missing field {exc.args[0]!r}")
    except (ValueError, TypeError) as exc:
        raise ValidationError(where, str(exc))
    except FactorizationBudgetExceeded as exc:
        raise FactorizationBudgetExceeded(f"{where}: {exc}") from None
    raise ValidationError(where, f"unknown ring kind {kind!r}")


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


def _read(read, obj, where):
    """``read`` (a ring's ``element`` or ``max_ideal``) of a JSON value:
    ``{"poly": [...]}`` gives a coefficient tuple, a ``"p/q"`` string is
    passed on for the ring to parse, and anything else must be an integer."""
    if isinstance(obj, dict) and "poly" in obj:
        if not isinstance(obj["poly"], list):
            raise ValidationError(where, f"\"poly\" must be a list, got {obj['poly']!r}")
        raw = tuple(_decode_int(c, where) for c in obj["poly"])
    elif isinstance(obj, str) and "/" in obj:
        raw = obj
    else:
        raw = _decode_int(obj, where)
    return _located(where, read, raw)


def _listed(table, key) -> bool:
    # a key read from JSON may be a list or an object, which no dict can look up
    return isinstance(key, str) and key in table


def _located(where, make, *args):
    """``make(*args)``, with the ValueError it raises located at ``where``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValidationError(where, str(exc))


def decode_ring_element(ring: RingHandle, obj, where="element") -> RingElement:
    return _read(ring.element, obj, where)


def encode_ring_element(elem: RingElement):
    raw = elem.raw
    if isinstance(raw, tuple):
        return {"poly": list(raw)}
    if isinstance(raw, int) or raw.denominator == 1:
        return encode_value(int(raw))
    return f"{raw.numerator}/{raw.denominator}"


def encode_generator(m: MaxIdealId):
    if isinstance(m.generator, tuple):
        return {"poly": list(m.generator)}
    return encode_value(m.generator)


def decode_max_ideal(ring: RingHandle, obj, where="ideal") -> MaxIdealId:
    return _read(ring.max_ideal, obj, where)


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
        return _located(where, boolalg.UltrafilterDescriptor, shape, coord, None)
    if "principal" not in obj:
        raise ValidationError(where, "need \"principal\" or \"cofinite_frechet\"")
    m = decode_max_ideal(shape[coord], obj["principal"], where)
    return boolalg.UltrafilterDescriptor(shape, coord, m)


def encode_ultrafilter(u: boolalg.UltrafilterDescriptor) -> dict:
    if u.is_frechet:
        return {"coordinate": u.coordinate, "cofinite_frechet": True}
    return {"coordinate": u.coordinate, "principal": encode_generator(u.principal)}


def decode_value_vector(shape, obj, where="value_vector") -> valuations.ValueVector:
    if not isinstance(obj, dict) or not isinstance(obj.get("defaults"), list):
        raise ValidationError(where, f"expected a value vector, got {obj!r}")
    from . import valuations
    defaults = tuple(decode_value(v, where) for v in obj["defaults"])
    if len(defaults) != len(shape):
        raise ValidationError(where, "one default per coordinate required")
    if not isinstance(obj.get("exceptions", []), list):
        raise ValidationError(f"{where}.exceptions", "must be a list")
    exceptions = []
    for j, rec in enumerate(obj.get("exceptions", [])):
        if not isinstance(rec, dict) or not {"coord", "ideal", "value"} <= rec.keys():
            raise ValidationError(f"{where}.exceptions[{j}]",
                                  "need \"coord\", \"ideal\" and \"value\"")
        coord = _decode_int(rec["coord"], where)
        if not 0 <= coord < len(shape):
            raise ValidationError(where, f"coordinate {coord} out of range")
        m = decode_max_ideal(shape[coord], rec["ideal"], where)
        exceptions.append((coord, m, decode_value(rec["value"], where)))
    return _located(where, valuations.ValueVector, shape, defaults, tuple(exceptions))


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


def _index_filter(obj, where):
    return products.IndexUltrafilter(_decode_int(obj.get("coordinate"), where))


def _decode_pointwise_max_ideal(scn, obj, where):
    f = _index_filter(obj, where)
    if not isinstance(obj.get("ideals"), list):
        raise ValidationError(where, "\"ideals\" must be a list of generators")
    ideals = tuple(decode_max_ideal(r, g, where)
                   for r, g in zip(scn.product.components, obj["ideals"]))
    return _located(where, products.PointwiseMaxIdeal, scn.product, f, ideals)


#: One row per ideal descriptor kind, keyed by its ``kind``: (decoder,
#: encoder).  A decoder reads the kind's JSON object in the scenario ``scn``,
#: located at ``where``, and reads the names in it with ``resolve``; an
#: encoder gives the fields of a descriptor besides ``"kind"``.
IDEAL_KINDS = {
    products.UltrafilterIdeal.kind: (
        lambda scn, obj, where: products.UltrafilterIdeal(
            scn.product, resolve(scn, obj.get("ultrafilter"), "ultrafilter", where)),
        lambda ideal: {"ultrafilter": encode_ultrafilter(ideal.u)}),
    products.KernelIdeal.kind: (
        lambda scn, obj, where: _located(where, products.KernelIdeal, scn.product,
                                         _index_filter(obj, where)),
        lambda ideal: {"coordinate": ideal.f.coordinate}),
    products.PointwiseMaxIdeal.kind: (
        _decode_pointwise_max_ideal,
        lambda ideal: {"coordinate": ideal.f.coordinate,
                       "ideals": [encode_generator(m) for m in ideal.ideals]}),
    products.ValuationIdeal.kind: (
        lambda scn, obj, where: products.ValuationIdeal(
            scn.product, resolve(scn, obj.get("ultrafilter"), "ultrafilter", where),
            resolve(scn, obj.get("g"), "value_vector", where)),
        lambda ideal: {"ultrafilter": encode_ultrafilter(ideal.u),
                       "g": encode_value_vector(ideal.g)}),
}


def decode_ideal(scn, obj, where="ideal"):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(where, f"expected an ideal descriptor, got {obj!r}")
    kind = obj["kind"]
    if not _listed(IDEAL_KINDS, kind):
        raise ValidationError(where, f"unknown ideal kind {kind!r}")
    return IDEAL_KINDS[kind][0](scn, obj, where)


def encode_ideal(ideal) -> dict:
    return {"kind": ideal.kind, **IDEAL_KINDS[ideal.kind][1](ideal)}


#: One row per declared object type, keyed by its ``"type"``: (decoder of a
#: literal, as in ``IDEAL_KINDS``; the field of a declared object that holds
#: its literal, or None when the object itself is the literal).
OBJECT_TYPES = {
    "ultrafilter": (lambda scn, obj, where: decode_ultrafilter(scn.product.shape, obj, where),
                    None),
    "element": (lambda scn, obj, where: decode_element(scn.product, obj, where), "entries"),
    "value_vector": (lambda scn, obj, where: decode_value_vector(scn.product.shape, obj, where),
                     None),
    "ideal": (decode_ideal, None),
}


def resolve(scn, obj, declared, where):
    """A value of the object type ``declared``: the name of an object the
    scenario declares with that ``"type"``, or a literal, decoded here."""
    if not isinstance(obj, str):
        return OBJECT_TYPES[declared][0](scn, obj, where)
    if obj not in scn.types:
        raise ValidationError(where, f"unknown object name {obj!r}")
    if scn.types[obj] != declared:
        raise ValidationError(where, f"object {obj!r} is not of type {declared!r}")
    return scn.objects[obj]


# ---------------------------------------------------------------------------
# Scenario model


class Options(Record, frozen=False):
    bound: int = 16
    n_max: int = 20
    factor_budget: int = DEFAULT_FACTOR_BUDGET
    oracle_budget: int = DEFAULT_ORACLE_BUDGET
    log_base: object = None  # None = natural log

    @classmethod
    def from_obj(cls, obj) -> "Options":
        if not isinstance(obj, dict):
            raise ValidationError("options", "must be an object")
        opts = cls()
        for key in ("bound", "n_max", "factor_budget", "oracle_budget"):
            if key in obj:
                setattr(opts, key, _decode_positive_int(obj[key], f"options.{key}"))
        if obj.get("log_base") is not None:
            opts.log_base = _decode_int(obj["log_base"], "options.log_base")
            if opts.log_base < 2:
                raise ValidationError("options.log_base", "must be an integer >= 2")
        return opts


class Scenario(Record, frozen=False):
    rings: list
    product: products.ProductRing
    objects: dict  # name -> decoded value
    types: dict  # name -> declared "type"
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
    scn = Scenario(rings, product, {}, {}, [], Options.from_obj(data.get("options", {})))

    # ideals may reference other named objects, so decode them second
    raw_objects = data.get("objects", {})
    if not isinstance(raw_objects, dict):
        raise ValidationError("objects", "must be an object")
    items = sorted(raw_objects.items())
    for pass_ideals in (False, True):
        for name, obj in items:
            where = f"objects.{name}"
            if not isinstance(obj, dict) or "type" not in obj:
                raise ValidationError(where, "objects need a \"type\" field")
            t = obj["type"]
            if not _listed(OBJECT_TYPES, t):
                raise ValidationError(where, f"unknown object type {t!r}")
            scn.types[name] = t
            if (t == "ideal") == pass_ideals:
                decode, field = OBJECT_TYPES[t]
                scn.objects[name] = decode(scn, obj if field is None else obj.get(field), where)

    queries = data.get("queries", [])
    if not isinstance(queries, list):
        raise ValidationError("queries", "must be a list")
    for i, q in enumerate(queries):
        if not isinstance(q, dict) or "query" not in q:
            raise ValidationError(f"queries[{i}]", "each query needs a \"query\" field")
        if not _listed(QUERIES, q["query"]):
            raise ValidationError(f"queries[{i}].query", f"unknown kind {q['query']!r}")
    scn.queries = queries
    return scn


# ---------------------------------------------------------------------------
# Execution


class Stream:
    """A list in a report record whose entries ``make(encoder)`` yields as
    text, already encoded by the report's ``encoder``, in pieces of one or
    more entries joined by its item separator, and made afresh on each call,
    so that the report is written without holding it."""

    def __init__(self, make):
        self.make = make


def _plain(value):
    """``value`` with each ``Stream`` in it made the list that is written."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, Stream):
        return json.loads("[" + ",".join(value.make(_MACHINE)) + "]")
    return value


#: what a ``Stream`` is written as, until the writer expands it, and what
#: marks the slots of an encoded ``maxideals`` entry
_MARK = "\x00stream\x00"
_MARK_JSON = json.dumps(_MARK)


def _mark(obj):
    if not isinstance(obj, Stream):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return _MARK


#: the sorted-key JSON encoders of the two formats, and the characters per
#: write: blocks keep the writes (system calls on an unbuffered stdout) few
_MACHINE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_mark)
_TEXT = json.JSONEncoder(sort_keys=True, default=_mark)
WRITE_BLOCK = 1 << 16


def _json_pieces(head, value, encoder):
    """``head`` and ``encoder.encode(value)`` in pieces, one piece per
    piece of each ``Stream`` in ``value``."""
    text = encoder.encode(value)
    return (head + text,) if _MARK_JSON not in text else _streamed(head, value, encoder)


def _streamed(head, value, encoder):
    """The pieces of ``_json_pieces`` for a ``value`` that holds a ``Stream``."""
    streams = []  # in the order they are written
    parts = json.dumps(value, sort_keys=True, default=lambda obj: streams.append(obj) or _mark(obj),
                       separators=(encoder.item_separator, encoder.key_separator)
                       ).split(_MARK_JSON)
    if len(parts) != len(streams) + 1:  # the mark is also a string in value
        streams, parts = [], [encoder.encode(_plain(value))]
    yield head + parts[0]
    for stream, part in zip(streams, parts[1:]):
        texts = stream.make(encoder)
        yield "[" + next(texts, "")
        yield from map(encoder.item_separator.__add__, texts)
        yield "]" + part


class Report(Record, frozen=False):
    records: list
    exit_code: int

    def write(self, emit, machine: bool) -> None:
        """Pass the machine or text rendering to ``emit`` in blocks of
        about ``WRITE_BLOCK`` characters."""
        block, size = [], 0
        for piece in self._pieces(machine):
            block.append(piece)
            size += len(piece)
            if size >= WRITE_BLOCK:
                emit("".join(block))
                block, size = [], 0
        if block:
            emit("".join(block))

    def _pieces(self, machine):
        if machine:
            yield from _json_pieces("", {"schema_version": SCHEMA_VERSION, "tool": "prodideals",
                                         "type": "header", "version": _version}, _MACHINE)
            for rec in self.records:
                yield from _json_pieces("\n", rec, _MACHINE)
        else:
            yield f"prodideals {_version} report"
            for rec in self.records:
                yield from _json_pieces(f"\n[{rec['index']}] {rec['query']}: ",
                                        rec["verdict"], _TEXT)
                for key in sorted(rec.keys() - {"index", "query", "verdict"}):
                    yield from _json_pieces(f"\n    {key}: ", rec[key], _TEXT)
        yield "\n"

    def render_machine(self) -> str:
        return "".join(self._pieces(True))

    def render_text(self) -> str:
        return "".join(self._pieces(False))


def _ring_at(scn: Scenario, query: dict, where):
    idx = _decode_int(query.get("ring", 0), f"{where}.ring")
    if not 0 <= idx < len(scn.rings):
        raise ValidationError(f"{where}.ring",
                              f"ring index {idx} out of range "
                              f"({len(scn.rings)} rings declared)")
    return scn.rings[idx]


def _value_vector(scn: Scenario, query: dict, key, where):
    # a literal's errors are located at its field, a name's at the query
    obj = query.get(key)
    return resolve(scn, obj, "value_vector", where if isinstance(obj, str) else f"{where}.{key}")


def _maxideals(scn, query, where):
    product = scn.product
    bound = scn.options.bound
    if "bound" in query:
        bound = _decode_positive_int(query["bound"], f"{where}.bound")
    # listed here, so that an enumeration cap raises inside the handler, and
    # once per distinct ring: equal components share one list of generators,
    # in the order of boolalg.principal_ideals, with no record built
    columns = {}
    for ring in product.shape:
        if ring not in columns:
            gens = ring.generators_up_to(bound)
            columns[ring] = gens if ring.listed_in_order else sorted(gens, key=generator_key)
    fillers = [encode_ring_element(e) for e in products.witness_fillers(product)]

    def maximal(encoder):
        # every principal descriptor is maximal by one rule, and its witness
        # is the fillers with its checked generator at the coordinate: each
        # coordinate's entry is encoded once with marks where the generator
        # and the witness entry go, and cut at them.  A witness entry is its
        # generator (or None), so a chunk's generators are encoded in one
        # call, between marks, and cut, each text fills both slots, and the
        # chunk is one piece
        split = encoder.item_separator + _MARK_JSON + encoder.item_separator
        for i, ring in enumerate(product.shape):
            entry = {"rule": products.RULE_PRINCIPAL_QUOTIENT_FIELD,
                     "ultrafilter": {"coordinate": i, "principal": _MARK}}
            bare = encoder.encode(entry).split(_MARK_JSON)
            entry["witness"] = fillers.copy()
            entry["witness"][i] = _MARK
            full = encoder.encode(entry).split(_MARK_JSON)
            generators = columns[ring]
            for start in range(0, len(generators), 256):
                chunk = generators[start:start + 256]
                values = [_MARK] * (2 * len(chunk) - 1)
                values[::2] = ([{"poly": list(g)} for g in chunk] if isinstance(chunk[0], tuple)
                               else encode_values(chunk))
                texts = encoder.encode(values)[1:-1].split(split)
                yield encoder.item_separator.join([
                    bare[0] + text + bare[1] if witness is None
                    else full[0] + text + full[1] + text + full[2]
                    for witness, text in zip(products.witness_entries(ring, chunk), texts)])

    rejected = []
    for i, ring in enumerate(product.shape):
        if not ring.spectrum_finite:
            u = boolalg.UltrafilterDescriptor(product.shape, i, None)
            verdict = products.is_maximal(products.UltrafilterIdeal(product, u))
            rejected.append({"ultrafilter": encode_ultrafilter(u), "rule": verdict.rule,
                             "reason": verdict.detail})
    return {"verdict": {"maximal": Stream(maximal), "rejected": rejected},
            "provenance": "rule:bounded-ultrafilter-enumeration"}


def _is_maximal(scn, query, where):
    u = resolve(scn, query.get("ultrafilter"), "ultrafilter", where)
    verdict = products.is_maximal(products.UltrafilterIdeal(scn.product, u))
    rec = {"verdict": verdict.is_maximal, "provenance": verdict.rule,
           "detail": verdict.detail}
    if verdict.witness is not None:
        rec["witness"] = encode_element(verdict.witness)
    return rec


def _check_plus(scn, query, where):
    from . import properties
    ring = _ring_at(scn, query, where)
    r = decode_ring_element(ring, query.get("r"), where)
    a = decode_ring_element(ring, query.get("a"), where)
    w = properties.plus_witness(ring, r, a, scn.options.factor_budget)
    return {"verdict": encode_ring_element(w.d),
            "witness": {"must_contain": encode_fincof(w.lower),
                        "allowed": encode_fincof(w.upper),
                        "vanishing_set": encode_fincof(w.vset_d)},
            "provenance": properties.RULE_PLUS_FINITE_CHARACTER}


def _check_plusplus(scn, query, where):
    from . import properties
    ring = _ring_at(scn, query, where)
    verdict = properties.plusplus_check(ring)
    if not verdict.holds:
        return {"verdict": False, "provenance": verdict.rule,
                "obstruction": encode_ring_element(verdict.obstruction)}
    rec = {"verdict": True, "provenance": verdict.rule}
    budget = scn.options.factor_budget
    if "r" in query:
        r = decode_ring_element(ring, query["r"], where)
        rec["witness"] = encode_ring_element(properties.plusplus_witness(ring, r, budget))
    elif ring.dimension == 0:
        # one witness per residue: the oracle's element budget caps the rows
        if ring.modulus > scn.options.oracle_budget:
            raise BudgetExceeded(f"witness table of {ring.short_name} has {ring.modulus} "
                                 f"rows (budget {scn.options.oracle_budget})")
        table = []
        for r in range(ring.modulus):
            d = properties.plusplus_witness(ring, ring.element(r), budget)
            table.append({"r": r, "d": encode_ring_element(d)})
        rec["witness_table"] = table
    return rec


def _ideal_member(scn, query, where):
    ideal = resolve(scn, query.get("ideal"), "ideal", where)
    a = resolve(scn, query.get("element"), "element", where)
    return {"verdict": products.ideal_member(ideal, a), "ideal": encode_ideal(ideal),
            "provenance": "rule:descriptor-membership"}


def _minimal_prime(scn, query, where):
    u = resolve(scn, query.get("ultrafilter"), "ultrafilter", where)
    kernel = products.minimal_prime_below(products.UltrafilterIdeal(scn.product, u))
    return {"verdict": encode_ideal(kernel),
            "provenance": "rule:index-filter-concentration"}


def _valuation_compare(scn, query, where):
    from . import valuations
    u = resolve(scn, query.get("ultrafilter"), "ultrafilter", where)
    a = resolve(scn, query.get("a"), "element", where)
    b = resolve(scn, query.get("b"), "element", where)
    return {"verdict": valuations.valuation_compare(u, a, b, scn.options.factor_budget),
            "provenance": ("rule:principal-valuation-restriction"
                           if not u.is_frechet else "rule:frechet-exception-scan")}


def _ug_member(scn, query, where):
    from . import valuations
    u = resolve(scn, query.get("ultrafilter"), "ultrafilter", where)
    g = _value_vector(scn, query, "g", where)
    x = resolve(scn, query.get("x"), "element", where)
    return {"verdict": valuations.ug_member(u, g, x),
            "provenance": "rule:threshold-closed-form"}


def _ll(scn, query, where):
    from . import valuations
    u = resolve(scn, query.get("ultrafilter"), "ultrafilter", where)
    g = _value_vector(scn, query, "g", where)
    h = _value_vector(scn, query, "h", where)
    return {"verdict": valuations.ll_relation(u, g, h),
            "provenance": "rule:ll-atom" if not u.is_frechet else "rule:ll-default-pair"}


def _interpolate(scn, query, where):
    from . import valuations
    branch = query.get("branch", "W")
    n_max = scn.options.n_max
    if "n_max" in query:
        n_max = _decode_positive_int(query["n_max"], f"{where}.n_max")
    if "doubling" in query:
        count = _decode_positive_int(query["doubling"], f"{where}.doubling")
        if count > valuations.INTERPOLATION_CAP:
            raise BudgetExceeded(f"doubling sample of length {count} exceeds the "
                                 f"interpolation cap {valuations.INTERPOLATION_CAP}")
        sample = valuations.PrefixSample(
            tuple(1 for _ in range(count)),
            tuple(2**i + 1 for i in range(1, count + 1)),
            tuple(2**i for i in range(1, count + 1)))
    else:
        raw = query.get("sample", {})
        if not isinstance(raw, dict) or not all(
                isinstance(raw.get(key, ()), (list, tuple)) for key in "ghn"):
            raise ValidationError(f"{where}.sample",
                                  "expected {\"g\": [...], \"h\": [...], \"n\": [...]}")
        sample = valuations.PrefixSample(*(
            tuple(decode_value(v, f"{where}.sample.{key}[{j}]")
                  for j, v in enumerate(raw.get(key, ())))
            for key in "ghn"))
    report = valuations.interpolate_chain(sample, branch, n_max, scn.options.log_base)
    rec = {"verdict": report.ok,
           "log_base": report.log_base if report.log_base == "e" else int(report.log_base),
           "first_failure": report.first_failure,
           "witnesses": [{"n": n, "scale_index": wi, "headroom_index": wii}
                         for n, wi, wii in report.witnesses],
           "provenance": "rule:interpolation-floor-log"}
    if len(report.k) <= 32:
        rec["k"] = [encode_value(v) for v in report.k]
    return rec


def _oracle(scn, query, where):
    from . import oracle
    mark = query.get("mark_primes", True)
    if not isinstance(mark, bool):
        raise ValidationError(f"{where}.mark_primes", f"must be true or false, got {mark!r}")
    try:
        rep = oracle.oracle_run(scn.product.components, scn.options.oracle_budget, mark)
    except UnsupportedRing as exc:
        raise ValidationError(where, str(exc))
    # ideals are equal exactly when their parts are (see ``oracle``)
    ultra = {oracle.descriptor_parts(i)
             for i in products.enumerate_maximal_ideals(scn.product)}
    primes = rep.prime_ideals
    return {"verdict": {"ideal_count": rep.ideal_count,
                        "maximal_count": len(rep.maximal_ideals),
                        "prime_count": None if primes is None else len(primes),
                        "matches_ultrafilter_enumeration":
                            ultra == {i.parts for i in rep.maximal_ideals}},
            "provenance": "oracle:ideal-closure"}


def _skolem(scn, query, where):
    objs = query.get("elements", [])
    if not isinstance(objs, list):
        raise ValidationError(f"{where}.elements", "must be a list")
    elems = [resolve(scn, obj, "element", where) for obj in objs]
    result = products.skolem_check(elems, scn.options.factor_budget)
    rec = {"verdict": result.holds, "provenance": "rule:coordinatewise-bezout"}
    if result.holds:
        rec["certificate"] = [encode_element(c) for c in result.certificate]
    else:
        coord, m = result.witness
        rec["witness"] = {"coordinate": coord, "ideal": encode_generator(m)}
    return rec


def _assert(scn, query, where):
    inner = query.get("of")
    kind = inner.get("query") if isinstance(inner, dict) else None
    if not _listed(QUERIES, kind) or kind == "assert":
        raise ValidationError(f"{where}.of", "need a non-assert inner query")
    actual = _plain(QUERIES[kind](scn, inner, where))
    expected = query.get("expect")
    return {"verdict": actual["verdict"] == expected, "expected": expected,
            "actual": actual["verdict"], "provenance": actual["provenance"]}


QUERIES = {
    "maxideals": _maxideals,
    "is-maximal": _is_maximal,
    "check-plus": _check_plus,
    "check-plusplus": _check_plusplus,
    "ideal-member": _ideal_member,
    "minimal-prime": _minimal_prime,
    "valuation-compare": _valuation_compare,
    "ug-member": _ug_member,
    "ll": _ll,
    "interpolate": _interpolate,
    "oracle": _oracle,
    "skolem": _skolem,
    "assert": _assert,
}


def execute_query(scn: Scenario, query: dict, index: int) -> dict:
    kind = query["query"]
    return {"index": index, "query": kind, **QUERIES[kind](scn, query, f"queries[{index}]")}


def run_scenario(source) -> Report:
    """Execute a scenario (JSON text, dict, or file path) and build a report.

    Exit codes: 0 on success, 2 when an assert query fails; parse and
    validation errors raise and map to exit code 1 in the CLI.  An input
    error from query i that is not yet located (any of ``INPUT_ERRORS``
    but a ValidationError) is raised again as the same object, with its
    message prefixed by ``queries[i]: ``.
    """
    if isinstance(source, str) and not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            source = fh.read()
    scn = parse_scenario(source)
    records = []
    exit_code = 0
    for i, q in enumerate(scn.queries):
        try:
            rec = execute_query(scn, q, i)
        except ValidationError:
            raise
        except INPUT_ERRORS as exc:
            # the same object, so that its type and attributes are kept
            exc.args = (f"queries[{i}]: {exc}",)
            raise
        records.append(rec)
        if q["query"] == "assert" and rec["verdict"] is False:
            exit_code = 2
    return Report(records, exit_code)
