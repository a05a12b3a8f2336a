"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; ``test_bench.py`` keeps the two in
step.  Per-layer names read ``<module>.<function>.<stat>``: ``busy_s`` is
summed span self time and ``calls`` the span count.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
}

SUITE_NAMES = (
    "goldens",
    "square_classes",
    "ad_equivalence",
    "class_relations",
    "involution_laws",
    "inverse_laws",
    "slg_conclusions",
    "decision_coherence",
    "construction_roundtrip",
)

#: Spans whose summed self time is reported as ``<name>.busy_s``.
BUSY_SPANS = (
    "groupoid.Groupoid",
    "groupoid.is_associative",
    "groupoid.satisfies_variety",
    "groupoid.parse_groupoid",
    "inverses.inverse_table",
    "inverses.is_right_bol",
    "inverses.is_completely_inverse",
    "inverses.strongly_regular_witness",
    "mappings.automorphisms",
    "mappings.shifted_associativity",
    "mappings.is_homomorphism",
    "clifford.validate_spec",
    "clifford.build_strong_slg",
    "clifford.build_determined",
    "clifford.decompose",
    "clifford.serialize_cspec",
    "clifford.parse_cspec",
    "enumeration.enumerate_groupoids",
    "enumeration.random_groupoids",
    "enumeration.enumerate_specs",
    *(f"enumeration.suite.{name}" for name in SUITE_NAMES),
    "cli.main.decide",
    "cli.main.decompose",
    "cli.main.build",
)

#: Spans whose count is reported as ``<name>.calls``.
CALL_SPANS = (
    "groupoid.Groupoid",
    "groupoid.is_associative",
    "inverses.is_right_bol",
    "mappings.shifted_associativity",
)

PER_LAYER = {
    **{f"{name}.busy_s": "s" for name in BUSY_SPANS},
    **{f"{name}.calls": "count" for name in CALL_SPANS},
    "inverses.inverse_table.unique_ratio": "ratio",
    "inverses.inverse_table.cache_hit_ratio": "ratio",
    "inverses.is_right_bol.true_ratio": "ratio",
    "mappings.automorphisms.found": "count",
    "mappings.automorphisms.cache_hit_ratio": "ratio",
    "mappings.involutive_yield": "ratio",
    "mappings.shifted_associativity.pass_ratio": "ratio",
    "determination.decide.neg_busy_s": "s",
    "determination.decide.pos_busy_s": "s",
    "determination.decide.positives": "count",
    **{f"enumeration.suite.{name}.checks": "count" for name in SUITE_NAMES},
    "enumeration.parallel_eff": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def ratio(part, whole) -> float:
    """``part / whole``, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0
