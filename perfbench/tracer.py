"""Traced CLI job: wrap each layer's public entry points, run one command.

    python3 perfbench/tracer.py SPANS_JSON JOB_ID CLI_ARGS...

Imports ``prodideals`` (timing the import), replaces the entry points listed
in ``SPANS`` and ``COUNT_ONLY`` with wrappers, calls
``prodideals.cli.main(CLI_ARGS)`` and exits with its code.  Spans are held
in memory as [name, start, end, parent index, job id] and written to
SPANS_JSON at exit, with the call counts and the ``prime_factors`` cache
statistics.  ``layer_metrics`` turns the files of one pass into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

#: (module, attribute, span name, (counter, size of the result) or None).
#: "Class.method" wraps a method.  A module that imported a function by
#: name holds its own binding, so each such binding is listed
#: (``valuations.valuation``); imports made at call time read the module
#: attribute and need no entry.
SPANS = (
    ("scenario", "run_scenario", "scenario.run", None),
    ("scenario", "parse_scenario", "scenario.parse",
     ("scenario.queries", lambda scn: len(scn.queries))),
    ("scenario", "execute_query", "scenario.execute", None),
    ("scenario", "Report.render_machine", "scenario.render", ("scenario.report_bytes", len)),
    ("scenario", "Report.render_text", "scenario.render", ("scenario.report_bytes", len)),
    ("boolalg", "enumerate_ultrafilters", "boolalg.enumerate_ultrafilters",
     ("boolalg.ultrafilters", len)),
    ("rings", "IntegerRing.maximal_ideals_up_to", "rings.maximal_ideals_up_to",
     ("rings.primes_listed", len)),
    ("rings", "PolynomialRing.maximal_ideals_up_to", "rings.maximal_ideals_up_to", None),
    ("rings", "prime_factors", "rings.prime_factors", None),
    ("rings", "IntegerRing.vset", "rings.vset", None),
    ("rings", "ResidueRing.vset", "rings.vset", None),
    ("rings", "LocalizedIntegersRing.vset", "rings.vset", None),
    ("rings", "PolynomialRing.vset", "rings.vset", None),
    ("rings", "valuation", "rings.valuation", None),
    ("valuations", "valuation", "rings.valuation", None),
    ("fqpoly", "irreducibles_up_to", "fqpoly.irreducibles_up_to", ("fqpoly.irreducibles", len)),
    ("fqpoly", "factor_monic", "fqpoly.factor_monic", None),
    ("fqpoly", "is_irreducible", "fqpoly.is_irreducible", None),
    ("products", "is_maximal", "products.is_maximal", None),
    ("products", "enumerate_maximal_ideals", "products.enumerate_maximal_ideals", None),
    ("oracle", "oracle_run", "oracle.run", None),
    ("oracle", "all_ideals", "oracle.all_ideals", ("oracle.ideals", len)),
    ("oracle", "maximal_ideals", "oracle.maximal_ideals", None),
    ("oracle", "is_prime_ideal", "oracle.is_prime_ideal", None),
    ("oracle", "descriptor_elements", "oracle.descriptor_elements",
     ("oracle.elements_materialised", len)),
    ("valuations", "valuation_compare", "valuations.valuation_compare", None),
    ("valuations", "ug_member", "valuations.ug_member", None),
    ("valuations", "ll_relation", "valuations.ll_relation", None),
    ("valuations", "interpolate_chain", "valuations.interpolate_chain", None),
    ("properties", "plus_witness", "properties.plus_witness", None),
    ("properties", "plusplus_check", "properties.plusplus_check", None),
    ("properties", "plusplus_witness", "properties.plusplus_witness", None),
)

#: entry points called millions of times per job: a count, no span
COUNT_ONLY = (("products", "ideal_member", "products.ideal_member"),)

#: per-layer metric -> (unit, how it is read from a pass); "self" sums a
#: span's self time, "count" reads a counter (a span name counts its calls)
PER_LAYER = {
    "cli.import_s": ("s", ("import_s",)),
    "cli.numpy_loaded": ("flag", ("numpy_loaded",)),
    "scenario.parse_s": ("s", ("self", "scenario.parse")),
    "scenario.execute_self_s": ("s", ("self", "scenario.execute")),
    "scenario.render_s": ("s", ("self", "scenario.render")),
    "scenario.report_bytes": ("B", ("count", "scenario.report_bytes")),
    "scenario.queries": ("count", ("count", "scenario.queries")),
    "boolalg.enumerate_ultrafilters_s": ("s", ("self", "boolalg.enumerate_ultrafilters")),
    "boolalg.ultrafilters": ("count", ("count", "boolalg.ultrafilters")),
    "rings.maximal_ideals_up_to_s": ("s", ("self", "rings.maximal_ideals_up_to")),
    "rings.primes_listed": ("count", ("count", "rings.primes_listed")),
    "rings.prime_factors_s": ("s", ("self", "rings.prime_factors")),
    "rings.prime_factors_calls": ("count", ("count", "rings.prime_factors")),
    "rings.prime_factors_hit_ratio": ("ratio", ("hit_ratio",)),
    "rings.vset_s": ("s", ("self", "rings.vset")),
    "fqpoly.irreducibles_up_to_s": ("s", ("self", "fqpoly.irreducibles_up_to")),
    "fqpoly.irreducibles": ("count", ("count", "fqpoly.irreducibles")),
    "fqpoly.factor_monic_s": ("s", ("self", "fqpoly.factor_monic")),
    "fqpoly.is_irreducible_s": ("s", ("self", "fqpoly.is_irreducible")),
    "products.is_maximal_s": ("s", ("self", "products.is_maximal")),
    "products.is_maximal_calls": ("count", ("count", "products.is_maximal")),
    "products.ideal_member_calls": ("count", ("count", "products.ideal_member")),
    "oracle.all_ideals_s": ("s", ("self", "oracle.all_ideals")),
    "oracle.ideals": ("count", ("count", "oracle.ideals")),
    "oracle.maximal_ideals_s": ("s", ("self", "oracle.maximal_ideals")),
    "oracle.is_prime_ideal_s": ("s", ("self", "oracle.is_prime_ideal")),
    "oracle.descriptor_elements_s": ("s", ("self", "oracle.descriptor_elements")),
    "oracle.elements_materialised": ("count", ("count", "oracle.elements_materialised")),
    "valuations.valuation_compare_s": ("s", ("self", "valuations.valuation_compare")),
    "valuations.ug_member_s": ("s", ("self", "valuations.ug_member")),
    "valuations.ll_relation_s": ("s", ("self", "valuations.ll_relation")),
    "valuations.interpolate_chain_s": ("s", ("self", "valuations.interpolate_chain")),
    "properties.plus_witness_s": ("s", ("self", "properties.plus_witness")),
    "properties.plusplus_witness_s": ("s", ("self", "properties.plusplus_witness")),
}


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()

    def span(self, name, fn, counter):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            counts[name] += 1
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result
        return wrapper

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for module, attr, name, counter in SPANS:
            self._replace(importlib.import_module(f"prodideals.{module}"), attr,
                          lambda fn: self.span(name, fn, counter))
        for module, attr, name in COUNT_ONLY:
            self._replace(importlib.import_module(f"prodideals.{module}"), attr,
                          lambda fn: self.count(name, fn))

    @staticmethod
    def _replace(module, attr, wrap):
        owner = module
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(module, cls)
        setattr(owner, attr, wrap(getattr(owner, attr)))


def main(argv) -> int:
    out_path, job, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import prodideals.cli as cli
    import_s = time.perf_counter() - start
    numpy_loaded = "numpy" in sys.modules
    from prodideals import rings
    cache = rings.prime_factors  # the lru_cache object, before wrapping
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        info = cache.cache_info()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "import_s": import_s, "numpy_loaded": numpy_loaded,
                       "spans": [s + [job] for s in tracer.spans],
                       "counts": tracer.counts,
                       "cache_hits": info.hits, "cache_misses": info.misses}, fh)


def layer_metrics(records) -> dict:
    """Per-layer metrics of one pass from its jobs' span files.  A span's
    self time is its duration minus the durations of its direct children."""
    self_s = defaultdict(float)
    counts = Counter()
    hits = misses = 0
    for rec in records:
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            self_s[name] += end - start - child[i]
        counts.update(rec["counts"])
        hits += rec["cache_hits"]
        misses += rec["cache_misses"]
    sources = {
        "import_s": statistics.median(r["import_s"] for r in records),
        "numpy_loaded": int(any(r["numpy_loaded"] for r in records)),
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
    out = {}
    for metric, (_, source) in PER_LAYER.items():
        if source[0] == "self":
            out[metric] = self_s.get(source[1], 0.0)
        elif source[0] == "count":
            out[metric] = counts.get(source[1], 0)
        else:
            out[metric] = sources[source[0]]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
