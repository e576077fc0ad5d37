"""Scenario ingestion, batch query execution, and deterministic reports.

A scenario is a JSON document: ring descriptions, a product built from them,
named objects (ultrafilters, elements, value vectors, ideal descriptors),
and an ordered list of queries.  Reports carry one record per query with a
verdict, any witness material, and a provenance tag naming the rule or
oracle that produced the verdict.  Machine rendering is one JSON object per
line with sorted keys, so a fixed scenario and tool version always produce
byte-identical output.

``QUERIES`` maps each query kind to its handler and the ``_object`` of the
fields it reads, which decodes them first.  The handler, a function of the
scenario, the query's location (``queries[i]``) and one value per field,
returns the record's fields: ``verdict``, ``provenance`` and any witness
material; a long list among them can be a ``Stream``, whose entries come as
text already encoded by the report's encoder and are written a piece at a
time.  To add a kind, write its handler and a ``QUERIES`` row of its fields,
and, if the kind has a command-line form, a row of ``cli.COMMANDS``.

``SHAPES`` is the one table of the JSON shapes a scenario holds: ring
descriptions, ultrafilters, product elements, value vectors and their
exceptions, ideal descriptors, declared objects and the options.  A row
lists its fields, the ``Type`` of each (an integer, a boolean, an index, a
generator or entry at the ring an index names, a value, a list, or the
name or literal of a declared object) and the messages of its refusals; its
decoder and encoder are built from it once, at import.  A field that holds
an ultrafilter, element, value vector or ideal descriptor takes a literal or
the name of a declared object of that ``"type"`` (its ``NAMED`` type).  To
add a descriptor kind, write its class in ``products`` and add a row of its
fields to ``IDEAL``; to add an object type, add a ``NAMED`` type for its
literal and a row to ``OBJECT``.

Each CLI process answers one command, so this module imports only what every
scenario needs (``rings``, ``boolalg``, ``products``).  ``oracle``,
``properties`` and ``valuations`` are imported by the query kinds, and the
value-vector decoder, that use them.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from operator import attrgetter, itemgetter

from . import __version__ as _version
from . import boolalg, products
from .errors import (INPUT_ERRORS, BudgetExceeded, FactorizationBudgetExceeded, ParseError,
                     ValidationError)
from .record import Record
from .rings import (
    DEFAULT_FACTOR_BUDGET,
    DEFAULT_ORACLE_BUDGET,
    IntegerRing,
    LocalizedIntegersRing,
    MaxIdealId,
    PolynomialRing,
    ResidueRing,
    RingElement,
    RingHandle,
)
from .values import INF, encode_value, encode_values

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# The JSON shapes


class Type:
    """A JSON shape of ``SHAPES``, or the type of a field of one.

    ``decode(obj, where, ctx)`` reads ``obj`` or refuses it with a
    ValidationError located at ``where``; ``ctx`` is the scenario (None for
    a ring) or, for a type that reads at a ring (``ring``), the ring that
    its row's index into ``seq(scn)`` names.  ``encode`` writes a decoded
    value.  ``failures`` are the messages of its own refusals, templates
    that ``str.format`` fills with the JSON value.  A list's ``item``
    (located at ``where[j]`` if ``index``), a shape's ``fields`` and the rows
    of its ``kinds`` (``row_of`` finds one, and it writes the values of its
    ``cls``) list theirs.
    """

    item = fields = kinds = cls = seq = None
    ring = index = False

    def __init__(self, decode, encode, *failures, **facts):
        self.decode, self.encode, self.failures = decode, encode, failures
        self.__dict__.update(facts)


REQUIRED = object()  # the default of a field that must be given


class Field:
    """A field of an object shape: its JSON ``name`` and ``type``; what the
    encoder writes of the decoded value (an attribute path, a tuple index,
    or None for the value itself; None and False are left out); the value
    of an absent field (read as a JSON null if None, or off the scenario if
    a function); and whether its type's refusals are located at
    ``where.name``."""

    def __init__(self, name, type, get, default=REQUIRED, at_field=False):
        self.name, self.type, self.default, self.at_field = name, type, default, at_field
        self.get = (itemgetter(get) if isinstance(get, int) else attrgetter(get) if get
                    else lambda value: value)


MISSING = "missing field {!r}"
NOT_INT = "not an integer: {!r}"
NOT_BOOL = "must be true or false, got {!r}"
OUT_OF_RANGE = "coordinate {} out of range"
NOT_VALUE = "expected an integer or \"inf\", got {!r}"
NOT_NON_NEGATIVE = "must be a non-negative integer or INF, got {!r}"
UNKNOWN_NAME = "unknown object name {!r}"
WRONG_TYPE = "object {!r} is not of type {!r}"
NEED_PRINCIPAL = "need \"principal\" or \"cofinite_frechet\""


def _decode_int(obj, where, ctx=None):
    if type(obj) is int:  # not a bool
        return obj
    if isinstance(obj, str):  # as an integer beyond 2**53 is written
        try:
            return int(obj)
        except ValueError:
            pass
    raise ValidationError(where, NOT_INT.format(obj))


def _at_least(low, message):
    def decode(obj, where, ctx=None):
        if (value := _decode_int(obj, where)) < low:
            raise ValidationError(where, message)
        return value
    return Type(decode, encode_value, NOT_INT, message)


def _decode_bool(obj, where, ctx=None):
    if type(obj) is not bool:
        raise ValidationError(where, NOT_BOOL.format(obj))
    return obj


def _decode_value(obj, where, ctx=None):
    if obj == "inf":
        return INF
    try:
        value = int(obj) if isinstance(obj, str) else obj
    except ValueError:
        raise ValidationError(where, NOT_VALUE.format(obj)) from None
    if type(value) is not int or value < 0:  # not a bool
        raise ValidationError(where, NOT_NON_NEGATIVE.format(value))
    return value


def _index(seq, message):
    """An index into ``seq(scn)``, the list of rings its row reads at."""
    def decode(obj, where, scn):
        index = obj if type(obj) is int else _decode_int(obj, where)
        if not 0 <= index < len(seq(scn)):
            raise ValidationError(where, message.format(index, len(seq(scn))))
        return index
    return Type(decode, int, NOT_INT, message, seq=seq)


def _choice(values, message):
    def decode(obj, where, ctx=None):
        if not _listed(values, obj):
            raise ValidationError(where, message.format(obj))
        return obj
    return Type(decode, str, message)


def _optional(t):
    return Type(lambda obj, where, ctx=None: None if obj is None else t.decode(obj, where, ctx),
                t.encode, *t.failures, ring=t.ring)


def _reader(entry):
    """An entry of the ring (``entry``), or a generator of one of its maximal
    ideals: a ``"poly"`` list gives a coefficient tuple, a ``"p/q"`` string
    is the ring's to parse, and anything else must be an integer."""
    def decode(obj, where, ring):
        if type(obj) is int:
            pass
        elif isinstance(obj, dict) and "poly" in obj:
            obj = POLY.decode(obj["poly"], where)
        elif not (isinstance(obj, str) and "/" in obj):
            obj = _decode_int(obj, where)
        try:
            return RingElement(ring, ring.normalize(obj)) if entry else ring.max_ideal(obj)
        except ValueError as exc:
            raise ValidationError(where, str(exc))
    return decode


def _list(item, message, length=None, index=False, make=None, get=None):
    """A list of ``item`` values, or ``make(product, items)`` of their tuple,
    which ``get`` reads back.  Items that read at a coordinate are read at
    the product's coordinates in turn, and ``length`` refuses a list of
    another length; ``index`` locates item j at ``where[j]``."""
    decode_item, encode_item, at_coordinates = item.decode, item.encode, item.ring

    def decode(obj, where, ctx=None):
        if not isinstance(obj, list):
            raise ValidationError(where, message.format(obj))
        if length and len(obj) != len(ctx.product.components):
            raise ValidationError(where, length.format(len(ctx.product.components)))
        items = tuple(map(decode_item, obj, map("{}[{}]".format, repeat(where), range(len(obj)))
                          if index else repeat(where),
                          ctx.product.components if at_coordinates else repeat(ctx)))
        return items if make is None else make(ctx.product, items)
    return Type(decode, lambda value: [encode_item(x) for x in (get(value) if get else value)],
                message, *filter(None, [length]), item=item, index=index)


def _object(message, fields, make, *failures, cls=None):
    """A JSON object whose ``fields`` are decoded in order and passed to
    ``make(ctx, *values)``, whose ValueErrors (the ``failures`` among them)
    are located at the object.  ``message`` refuses anything else, and an
    object that lacks a field that must be given; without it, the field's
    absence is refused.  A type that reads at a ring reads at the one that
    the row's index field names."""
    keys = {f.name for f in fields if f.default is REQUIRED and message}
    steps = [(f.name, f.type.decode, f.default, f.at_field, f.type.ring) for f in fields]
    at, seq = next(((i, f.type.seq) for i, f in enumerate(fields) if f.type.seq), (0, None))

    def decode(obj, where, ctx=None):
        if not isinstance(obj, dict) or not obj.keys() >= keys:
            raise ValidationError(where, message.format(obj))
        values = []
        append = values.append
        for name, decode_field, default, at_field, ring in steps:
            if name in obj or default is None:
                append(decode_field(obj.get(name), f"{where}.{name}" if at_field else where,
                                    seq(ctx)[values[at]] if ring else ctx))
            elif default is REQUIRED:
                raise ValidationError(where, MISSING.format(name))
            else:
                append(default(ctx) if callable(default) else default)
        try:
            return make(ctx, *values)
        except ValueError as exc:
            raise ValidationError(where, str(exc))
        except FactorizationBudgetExceeded as exc:  # a ring's prime past the proven range
            raise FactorizationBudgetExceeded(f"{where}: {exc}") from None

    def encode(value):
        return {f.name: f.type.encode(v) for f in fields
                if (v := f.get(value)) is not None and v is not False}
    return Type(decode, encode, *filter(None, [message, *failures]), fields=fields, cls=cls)


def _kinds(key, message, unknown, kinds):
    """A JSON object whose ``key`` names the row of ``kinds`` that reads it
    (``row_of``); ``encode`` writes a value of one of the rows' ``cls``."""
    names = {row.cls: kind for kind, row in kinds.items() if row.cls}

    def row_of(obj, where):
        if not isinstance(obj, dict) or key not in obj:
            raise ValidationError(where, message.format(obj))
        if not _listed(kinds, obj[key]):
            raise ValidationError(where, unknown.format(obj[key]))
        return kinds[obj[key]]
    return Type(lambda obj, where, ctx=None: row_of(obj, where).decode(obj, where, ctx),
                lambda value: {key: names[type(value)], **kinds[names[type(value)]].encode(value)},
                message, unknown, kinds=kinds, row_of=row_of)


def _named(declared, literal):
    """The name of a declared object of type ``declared``, or a ``literal``."""
    decode_literal = literal.decode

    def decode(obj, where, scn):
        if not isinstance(obj, str):
            return decode_literal(obj, where, scn)
        if obj not in scn.types:
            raise ValidationError(where, UNKNOWN_NAME.format(obj))
        if scn.types[obj] != declared:
            raise ValidationError(where, WRONG_TYPE.format(obj, declared))
        return scn.objects[obj]
    return Type(decode, literal.encode, UNKNOWN_NAME, WRONG_TYPE, item=literal)


def _listed(table, key) -> bool:
    # a key read from JSON may be a list or an object, which no dict can look up
    return isinstance(key, str) and key in table


def encode_ring_element(elem: RingElement):
    raw = elem.raw
    if isinstance(raw, tuple):
        return {"poly": list(raw)}
    return encode_value(raw) if isinstance(raw, int) else f"{raw.numerator}/{raw.denominator}"


def encode_generator(m: MaxIdealId):
    g = m.generator
    return {"poly": list(g)} if isinstance(g, tuple) else encode_value(g)


def encode_fincof(s) -> dict:
    gens = [encode_generator(m) for m in s.sorted_support()]
    return {"cofinite": gens} if s.is_cofinite else {"finite": gens}


def _ultrafilter(scn, coordinate, frechet, principal):
    if not frechet and principal is False:
        raise ValueError(NEED_PRINCIPAL)
    return boolalg.UltrafilterDescriptor(scn.product.components, coordinate,
                                         None if frechet else principal)


def _vector(scn, defaults, exceptions):
    from . import valuations
    return valuations.ValueVector(scn.product.components, defaults, exceptions)


INT = Type(_decode_int, encode_value, NOT_INT)
POSITIVE = _at_least(1, "must be positive")
BOOL = Type(_decode_bool, bool, NOT_BOOL)
COORDINATE = _index(attrgetter("product.components"), OUT_OF_RANGE)
INDEX = Type(lambda obj, where, ctx=None: products.IndexUltrafilter(_decode_int(obj, where)),
             attrgetter("coordinate"), NOT_INT)
VALUE = Type(_decode_value, encode_value, NOT_VALUE, NOT_NON_NEGATIVE)
POLY = _list(INT, "\"poly\" must be a list, got {!r}")
GENERATOR = Type(_reader(False), encode_generator, *POLY.failures, NOT_INT, ring=True)
ENTRY = Type(_reader(True), encode_ring_element, *POLY.failures, NOT_INT, ring=True)

RING = _kinds("kind", "expected a ring description, got {!r}", "unknown ring kind {!r}", {
    kind: _object(None, fields, lambda _, *values, cls=cls: cls(*values), cls=cls)
    for kind, cls, fields in (
        ("integers", IntegerRing, ()),
        ("residue", ResidueRing, [Field("n", INT, "modulus", at_field=True)]),
        ("localized_integers", LocalizedIntegersRing, [Field(
            "primes", _list(INT, "must be a list", index=True), "primes", at_field=True)]),
        ("poly_fq", PolynomialRing, [Field("q", INT, "q", at_field=True)]))})
ULTRAFILTER = _object(
    "expected an ultrafilter description, got {!r}",
    [Field("coordinate", COORDINATE, "coordinate"),
     Field("cofinite_frechet", BOOL, "is_frechet", False, at_field=True),
     Field("principal", GENERATOR, "principal", False)],
    _ultrafilter, NEED_PRINCIPAL)
ELEMENT = _list(ENTRY, "a product element is a list of entries", "expected {} entries",
                make=products.ProductElement, get=attrgetter("entries"))
EXCEPTION = _object(
    "need \"coord\", \"ideal\" and \"value\"",
    [Field("coord", COORDINATE, 0), Field("ideal", GENERATOR, 1), Field("value", VALUE, 2)],
    lambda _, *exception: exception)
VALUE_VECTOR = _object(
    "expected a value vector, got {!r}",
    [Field("defaults", _list(VALUE, "\"defaults\" must be a list, got {!r}"), "defaults"),
     Field("exceptions", _list(EXCEPTION, "must be a list", index=True), "exceptions", [],
           at_field=True)],
    _vector)
#: the name or literal of each declared object type
NAMED = {"ultrafilter": _named("ultrafilter", ULTRAFILTER),
         "element": _named("element", ELEMENT),
         "value_vector": _named("value_vector", VALUE_VECTOR)}
# a field left out of a descriptor reads as null, which its type refuses
IDEAL = _kinds("kind", "expected an ideal descriptor, got {!r}", "unknown ideal kind {!r}", {
    cls.kind: _object(None, fields, lambda scn, *values, cls=cls: cls(scn.product, *values),
                      cls=cls)
    for cls, fields in (
        (products.UltrafilterIdeal, [Field("ultrafilter", NAMED["ultrafilter"], "u", None)]),
        (products.KernelIdeal, [Field("coordinate", INDEX, "f", None)]),
        (products.PointwiseMaxIdeal, [
            Field("coordinate", INDEX, "f", None),
            Field("ideals", _list(GENERATOR, "\"ideals\" must be a list of generators"),
                  "ideals", None)]),
        (products.ValuationIdeal, [Field("ultrafilter", NAMED["ultrafilter"], "u", None),
                                   Field("g", NAMED["value_vector"], "g", None)]))})
NAMED["ideal"] = _named("ideal", IDEAL)
# a declared element holds its literal in "entries"; objects are read, never written
OBJECT = _kinds("type", "objects need a \"type\" field", "unknown object type {!r}", {
    "ultrafilter": ULTRAFILTER,
    "element": _object(None, [Field("entries", ELEMENT, None, None)],
                       lambda _, element: element),
    "value_vector": VALUE_VECTOR,
    "ideal": IDEAL})


class Options(Record):
    bound: int = 16
    n_max: int = 20
    factor_budget: int = DEFAULT_FACTOR_BUDGET
    oracle_budget: int = DEFAULT_ORACLE_BUDGET
    log_base: object = None  # None = natural log


OPTIONS = _object("must be an object", [
    *(Field(key, POSITIVE, key, Options._defaults[key], at_field=True)
      for key in ("bound", "n_max", "factor_budget", "oracle_budget")),
    Field("log_base", _optional(_at_least(2, "must be an integer >= 2")), "log_base", None,
          at_field=True)],
    lambda _, *values: Options(*values))
#: The table of the JSON shapes of a scenario, one row per shape.
SHAPES = {"ring": RING, "ultrafilter": ULTRAFILTER, "element": ELEMENT,
          "value_vector": VALUE_VECTOR, "exception": EXCEPTION, "ideal": IDEAL,
          "object": OBJECT, "options": OPTIONS}
IDEAL_KINDS, OBJECT_TYPES = IDEAL.kinds, OBJECT.kinds


def decode_ring(obj, where="rings") -> RingHandle:
    return RING.decode(obj, where)


# ---------------------------------------------------------------------------
# Scenario model


class Scenario(Record):
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
        idx = INT.decode(idx, f"product[{i}]")
        if not 0 <= idx < len(rings):
            raise ValidationError(f"product[{i}]", f"ring index {idx} out of range")
        comps.append(rings[idx])
    product = products.ProductRing(tuple(comps))
    scn = Scenario(rings, product, {}, {}, [], OPTIONS.decode(data.get("options", {}), "options"))

    # ideals may reference other named objects, so decode them second
    raw_objects = data.get("objects", {})
    if not isinstance(raw_objects, dict):
        raise ValidationError("objects", "must be an object")
    items = sorted(raw_objects.items())
    for pass_ideals in (False, True):
        for name, obj in items:
            where = f"objects.{name}"
            row = OBJECT.row_of(obj, where)
            scn.types[name] = obj["type"]
            if (row is IDEAL) == pass_ideals:
                scn.objects[name] = row.decode(obj, where, scn)

    queries = data.get("queries", [])
    if not isinstance(queries, list):
        raise ValidationError("queries", "must be a list")
    for i, q in enumerate(queries):
        if not isinstance(q, dict) or "query" not in q:
            raise ValidationError(f"queries[{i}]", "each query needs a \"query\" field")
        if not _listed(QUERIES, q["query"]):
            raise ValidationError(f"queries[{i}].query", f"unknown kind {q['query']!r}")
    scn.queries.extend(queries)
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


class Report(Record):
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


def _maxideals(scn, where, bound):
    product = scn.product
    # listed here, so that an enumeration cap raises inside the handler, and
    # once per distinct ring: equal components share one list of generators,
    # in the listing order of rings.generator_key, with no record built
    columns = {ring: ring.generators_up_to(bound) for ring in dict.fromkeys(product.shape)}
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
            rejected.append({"ultrafilter": ULTRAFILTER.encode(u), "rule": verdict.rule,
                             "reason": verdict.detail})
    return {"verdict": {"maximal": Stream(maximal), "rejected": rejected},
            "provenance": "rule:bounded-ultrafilter-enumeration"}


def _is_maximal(scn, where, u):
    verdict = products.is_maximal(products.UltrafilterIdeal(scn.product, u))
    rec = {"verdict": verdict.is_maximal, "provenance": verdict.rule, "detail": verdict.detail}
    if verdict.witness is not None:
        rec["witness"] = ELEMENT.encode(verdict.witness)
    return rec


def _check_plus(scn, where, ring, r, a):
    from . import properties
    w = properties.plus_witness(scn.rings[ring], r, a, scn.options.factor_budget)
    return {"verdict": encode_ring_element(w.d),
            "witness": {"must_contain": encode_fincof(w.lower),
                        "allowed": encode_fincof(w.upper),
                        "vanishing_set": encode_fincof(w.vset_d)},
            "provenance": properties.RULE_PLUS_FINITE_CHARACTER}


def _check_plusplus(scn, where, ring, r):
    from . import properties
    ring = scn.rings[ring]
    verdict = properties.plusplus_check(ring)
    if not verdict.holds:
        return {"verdict": False, "provenance": verdict.rule,
                "obstruction": encode_ring_element(verdict.obstruction)}
    rec = {"verdict": True, "provenance": verdict.rule}
    if r is not False:
        rec["witness"] = encode_ring_element(properties.plusplus_witness(ring, r))
    elif ring.dimension == 0:
        # one row per residue: the oracle's element budget caps the rows
        if ring.modulus > scn.options.oracle_budget:
            raise BudgetExceeded(f"witness table of {ring.short_name} has {ring.modulus} "
                                 f"rows (budget {scn.options.oracle_budget})")
        # the witness of r depends only on the primes dividing it, gcd(r, rad)
        rad = math.prod(ring.primes)
        d = {g: encode_ring_element(properties.plusplus_witness(ring, ring.element(g)))
             for g in {math.gcd(r, rad) for r in range(rad)}}
        rec["witness_table"] = [{"r": r, "d": d[math.gcd(r, rad)]} for r in range(ring.modulus)]
    return rec


def _ideal_member(scn, where, ideal, a):
    return {"verdict": products.ideal_member(ideal, a), "ideal": IDEAL.encode(ideal),
            "provenance": "rule:descriptor-membership"}


def _minimal_prime(scn, where, u):
    kernel = products.minimal_prime_below(products.UltrafilterIdeal(scn.product, u))
    return {"verdict": IDEAL.encode(kernel), "provenance": "rule:index-filter-concentration"}


def _valuation_compare(scn, where, u, a, b):
    from . import valuations
    return {"verdict": valuations.valuation_compare(u, a, b),
            "provenance": ("rule:principal-valuation-restriction"
                           if not u.is_frechet else "rule:frechet-exception-scan")}


def _ug_member(scn, where, u, g, x):
    from . import valuations
    return {"verdict": valuations.ug_member(u, g, x), "provenance": "rule:threshold-closed-form"}


def _ll(scn, where, u, g, h):
    from . import valuations
    return {"verdict": valuations.ll_relation(u, g, h),
            "provenance": "rule:ll-atom" if not u.is_frechet else "rule:ll-default-pair"}


def _interpolate(scn, where, branch, n_max, count, sample):
    from . import valuations
    if count:
        if branch == "V":
            raise ValidationError(f"{where}.doubling", "the doubling sample serves branch W only")
        if count > valuations.INTERPOLATION_CAP:
            raise BudgetExceeded(f"doubling sample of length {count} exceeds the "
                                 f"interpolation cap {valuations.INTERPOLATION_CAP}")
        sample = (tuple(1 for _ in range(count)), tuple(2**i + 1 for i in range(1, count + 1)),
                  tuple(2**i for i in range(1, count + 1)))
    report = valuations.interpolate_chain(valuations.PrefixSample(*sample), branch, n_max,
                                          scn.options.log_base)
    rec = {"verdict": report.ok,
           "log_base": report.log_base if report.log_base == "e" else int(report.log_base),
           "first_failure": report.first_failure,
           "witnesses": [{"n": n, "scale_index": wi, "headroom_index": wii}
                         for n, wi, wii in report.witnesses],
           "provenance": "rule:interpolation-floor-log"}
    if len(report.k) <= 32:
        rec["k"] = [encode_value(v) for v in report.k]
    return rec


def _oracle(scn, where, mark):
    from . import oracle
    rep = oracle.oracle_run(scn.product.components, scn.options.oracle_budget, mark)
    # ideals are equal exactly when their parts are (see ``oracle``)
    ultra = {oracle.descriptor_parts(i) for i in products.enumerate_maximal_ideals(scn.product)}
    primes = rep.prime_ideals
    return {"verdict": {"ideal_count": rep.ideal_count,
                        "maximal_count": len(rep.maximal_ideals),
                        "prime_count": None if primes is None else len(primes),
                        "matches_ultrafilter_enumeration":
                            ultra == {i.parts for i in rep.maximal_ideals}},
            "provenance": "oracle:ideal-closure"}


def _skolem(scn, where, elems):
    result = products.skolem_check(elems, scn.options.factor_budget)
    rec = {"verdict": result.holds, "provenance": "rule:coordinatewise-bezout"}
    if result.holds:
        rec["certificate"] = [ELEMENT.encode(c) for c in result.certificate]
    else:
        coord, m = result.witness
        rec["witness"] = {"coordinate": coord, "ideal": encode_generator(m)}
    return rec


def _assert(scn, where, inner, expected):
    actual = _plain(_answer(scn, inner, where))
    return {"verdict": actual["verdict"] == expected, "expected": expected,
            "actual": actual["verdict"], "provenance": actual["provenance"]}


def _inner(obj, where, scn):
    kind = obj.get("query") if isinstance(obj, dict) else None
    if not _listed(QUERIES, kind) or kind == "assert":
        raise ValidationError(where, INNER)
    return obj


def _sample(obj, where, ctx=None):
    if not isinstance(obj, dict) or not all(
            isinstance(obj.get(k, ()), (list, tuple)) for k in "ghn"):
        raise ValidationError(where, NOT_SAMPLE.format())
    return tuple(tuple(VALUE.decode(v, f"{where}.{k}[{j}]") for j, v in enumerate(obj.get(k, ())))
                 for k in "ghn")


def _query(handler, *fields):
    """A ``QUERIES`` row: ``handler`` and its fields, each (name, type, default, at_field)."""
    return handler, _object(None, [Field(name, t, None, *rest) for name, t, *rest in fields],
                            lambda _, *values: values)


INNER = "need a non-assert inner query"
NOT_SAMPLE = "expected {{\"g\": [...], \"h\": [...], \"n\": [...]}}"
NOT_BRANCH = "must be \"V\" or \"W\", got {!r}"
JSON = Type(lambda obj, where, ctx=None: obj, None)  # a JSON value as it is
EL, VV, U = NAMED["element"], NAMED["value_vector"], ("ultrafilter", NAMED["ultrafilter"], None)
RING_OUT_OF_RANGE = "ring index {} out of range ({} rings declared)"
RING_AT = ("ring", _index(attrgetter("rings"), RING_OUT_OF_RANGE), 0, True)
#: The table of query kinds: one row per kind, of its handler and its fields.
QUERIES = {
    "maxideals": _query(_maxideals, ("bound", POSITIVE, attrgetter("options.bound"), True)),
    "is-maximal": _query(_is_maximal, U),
    "check-plus": _query(_check_plus, RING_AT, ("r", ENTRY, None), ("a", ENTRY, None)),
    "check-plusplus": _query(_check_plusplus, RING_AT, ("r", ENTRY, False)),
    "ideal-member": _query(_ideal_member, ("ideal", NAMED["ideal"], None), ("element", EL, None)),
    "minimal-prime": _query(_minimal_prime, U),
    "valuation-compare": _query(_valuation_compare, U, ("a", EL, None), ("b", EL, None)),
    "ug-member": _query(_ug_member, U, ("g", VV, None, True), ("x", EL, None)),
    "ll": _query(_ll, U, ("g", VV, None, True), ("h", VV, None, True)),
    "interpolate": _query(
        _interpolate, ("branch", _choice(("V", "W"), NOT_BRANCH), "W", True),
        ("n_max", POSITIVE, attrgetter("options.n_max"), True),
        ("doubling", POSITIVE, False, True),
        ("sample", Type(_sample, None, NOT_SAMPLE), ((), (), ()), True)),
    "oracle": _query(_oracle, ("mark_primes", BOOL, True, True)),
    "skolem": _query(_skolem, ("elements", _list(EL, "must be a list", index=True), (), True)),
    "assert": _query(_assert, ("of", Type(_inner, None, INNER), None, True),
                     ("expect", JSON, None)),
}


def _answer(scn, query, where):
    handler, fields = QUERIES[query["query"]]
    return handler(scn, where, *fields.decode(query, where, scn))


def execute_query(scn: Scenario, query: dict, index: int) -> dict:
    return {"index": index, "query": query["query"], **_answer(scn, query, f"queries[{index}]")}


def run_scenario(source) -> Report:
    """Execute a scenario and build a report: a dict, JSON text (a string
    whose first non-blank character is ``{`` or ``[``) or a file path.

    Exit codes: 0 on success, 2 when an assert query fails; parse and
    validation errors raise and map to exit code 1 in the CLI.  An input
    error from query i that is not yet located (any of ``INPUT_ERRORS``
    but a ValidationError) is raised again as the same object, with its
    message prefixed by ``queries[i]: ``.
    """
    if isinstance(source, str) and source.lstrip()[:1] not in ("{", "["):
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
