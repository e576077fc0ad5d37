"""Exact computation with prime and maximal ideals in finite products of
arithmetic rings: finite/cofinite Boolean algebra and ultrafilters over the
maximal spectra, induced ideals with decision procedures and constructive
witnesses, separating-element property checkers, valuation comparison, and
a brute-force oracle for cross-checking on finite instances.
"""

__version__ = "0.1.0"

import importlib

# The public names by defining module.  They load on first access (PEP 562),
# so importing the package, or the CLI, loads only the modules in use.
_EXPORTS = {
    "errors": """BudgetExceeded FactorizationBudgetExceeded FiniteIntersectionViolation
        InconsistentInput InvalidSample NonPositiveValueVector NotMember NotUnitIdeal
        NoWitness ParseError ShapeMismatch UnsupportedDescriptor UnsupportedRing
        ValidationError ZeroElement""",
    "values": "INF Infinity",
    "rings": """FinCofSet IntegerRing LocalizedIntegersRing MaxIdealId PolynomialRing
        ResidueRing RingElement RingHandle ZERO_MARKER ZeroMarker bezout_certificate
        crt_solve dset jacobson_radical_generator valuation vset vset_pair""",
    "boolalg": """AlgebraElement FilterDescriptor FilterExtension FipResult
        UltrafilterDescriptor complement enumerate_ultrafilters extend_filter
        fip_check is_zero join leq meet membership""",
    "products": """IndexUltrafilter KernelIdeal MaximalityVerdict PointwiseMaxIdeal
        ProductElement ProductRing SkolemResult UltrafilterIdeal ValuationIdeal
        enumerate_maximal_ideals ideal_member index_filter_of is_maximal is_prime
        minimal_prime_below skolem_check vset_vector""",
    "properties": """PlusPlusVerdict PlusWitness one_dim_plus_witness plus_witness
        plusplus_check plusplus_witness""",
    "valuations": """ChainVerdict InterpolationReport PrefixSample ValueVector
        chain_strictness floor_div_log interpolate_chain ll_relation min_prime_over
        ug_member valuation_compare""",
    "oracle": "OracleReport oracle_run",
    "scenario": "Report Scenario parse_scenario run_scenario",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
