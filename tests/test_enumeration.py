"""Generators, the random stream, and the sweep engine."""

import itertools
import json
from collections import Counter

import pytest

from gpdtools import (
    Groupoid,
    LimitsTooLarge,
    OrderTooLarge,
    SweepConfig,
    enumerate_group_tables,
    enumerate_groupoids,
    enumerate_semilattices,
    enumerate_specs,
    find_isomorphism,
    involutive_automorphisms,
    is_homomorphism,
    random_groupoids,
    register_suite,
    run_sweep,
    stream_value,
    validate_spec,
)
from gpdtools.enumeration import MASK64, SUITES

# ---------------------------------------------------------------------------
# Random stream.
# ---------------------------------------------------------------------------


def _reference_splitmix(seed, count):
    """Sequential transcription of the published 64-bit splitmix generator,
    kept independent of the library's random-access form."""
    out, state = [], seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_stream_matches_sequential_reference():
    for seed in (0, 1, 7, 0xDEADBEEF, MASK64):
        assert [stream_value(seed, i) for i in range(50)] == _reference_splitmix(
            seed, 50
        )


def test_stream_frozen_values():
    assert stream_value(1, 0) == 0x910A2DEC89025CC1
    assert stream_value(1, 1) == 0xBEEB8DA1658EEC67
    assert stream_value(1, 2) == 0xF893A2EEFB32555E
    assert stream_value(1, 3) == 0x71C18690EE42C90B
    assert stream_value(7, 0) == 0x63CBE1E459320DD7


def test_stream_uniformity_chi_square():
    # Entries of 20000 seeded order-3 tables; 3 bins, df=2.  The observed
    # statistic is ~0.8; the bound is deliberately loose (p ~ 4.5e-5).
    counts = [0, 0, 0]
    for g in random_groupoids(3, 20000, seed=7):
        for row in g.rows:
            for v in row:
                counts[v] += 1
    total = sum(counts)
    assert total == 180000
    expected = total / 3
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 20.0


def test_random_groupoids_deterministic_and_partitionable():
    full = list(random_groupoids(4, 30, seed=9))
    again = list(random_groupoids(4, 30, seed=9))
    assert full == again
    other = list(random_groupoids(4, 30, seed=10))
    assert full != other
    # Table i is a pure function of (seed, i): recomputing any index alone
    # gives the same table, which is what makes chunking sound.
    cells = 16
    for i in (0, 13, 29):
        flat = [stream_value(9, i * cells + j) % 4 for j in range(cells)]
        rows = tuple(tuple(flat[r * 4 : (r + 1) * 4]) for r in range(4))
        assert full[i] == Groupoid(rows)


# ---------------------------------------------------------------------------
# Exhaustive generators.
# ---------------------------------------------------------------------------


def test_enumerate_groupoids_counts_and_order():
    assert [g.rows for g in enumerate_groupoids(1)] == [((0,),)]
    tables = list(enumerate_groupoids(2))
    assert len(tables) == 16
    assert tables[0].rows == ((0, 0), (0, 0))
    assert tables[-1].rows == ((1, 1), (1, 1))
    flats = [sum(g.rows, ()) for g in tables]
    assert flats == sorted(flats)
    assert len(set(tables)) == 16


def test_enumerate_groupoids_guard():
    with pytest.raises(OrderTooLarge):
        next(enumerate_groupoids(4))
    gen = enumerate_groupoids(4, allow_large=True)
    assert next(gen).rows[0] == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        next(enumerate_groupoids(0))


def test_enumerate_semilattices():
    assert [len(enumerate_semilattices(k)) for k in (1, 2, 3)] == [1, 1, 2]
    reps = enumerate_semilattices(3)
    tables = {r.meet for r in reps}
    # The two isomorphism classes: the fork (two maximal elements over a
    # bottom) and the chain.
    assert ((0, 0, 0), (0, 1, 0), (0, 0, 2)) in tables
    assert ((0, 0, 0), (0, 1, 1), (0, 1, 2)) in tables
    with pytest.raises(LimitsTooLarge):
        enumerate_semilattices(4)
    # Every representative really is one: commutative idempotent associative.
    for r in reps:
        g = Groupoid(r.meet)
        assert g.is_associative()
        assert all(r.meet[x][x] == x for x in range(3))
        assert all(
            r.meet[x][y] == r.meet[y][x] for x in range(3) for y in range(3)
        )


def test_enumerate_group_tables():
    assert [len(enumerate_group_tables(m)) for m in range(1, 7)] == [1, 1, 1, 2, 1, 2]
    with pytest.raises(LimitsTooLarge):
        enumerate_group_tables(7)
    # Representatives are pairwise non-isomorphic genuine groups with the
    # identity at 0.
    for m in range(1, 5):
        reps = [Groupoid(t) for t in enumerate_group_tables(m)]
        for g in reps:
            assert g.is_associative()
            assert g.rows[0] == tuple(range(m))
            assert all(g.rows[x][0] == x for x in range(m))
            assert all(
                any(g.product(x, y) == 0 for y in range(m)) for x in range(m)
            )
        for a, b in itertools.combinations(reps, 2):
            assert find_isomorphism(a, b) is None


def test_enumerate_specs_small_family():
    specs = list(enumerate_specs(1, 3))
    assert len(specs) == 4
    seen = {
        (spec.groups[0].order, spec.groups[0].involution) for spec in specs
    }
    assert seen == {(1, (0,)), (2, (0, 1)), (3, (0, 1, 2)), (3, (0, 2, 1))}
    for spec in specs:
        assert validate_spec(spec) == []


def test_enumerate_specs_counts_against_combinatorial_oracle():
    # Independent count: blocks on each semilattice element, free compatible
    # maps on covering pairs only (covers determine the rest), computed with
    # a brute-force map filter that shares no code with the library.
    def brute_homs(src, dst):
        out = []
        s, d = Groupoid(src.rows), Groupoid(dst.rows)
        for images in itertools.product(range(d.order), repeat=s.order):
            if not all(
                images[s.product(a, b)] == d.product(images[a], images[b])
                for a in range(s.order)
                for b in range(s.order)
            ):
                continue
            if not all(
                dst.involution[images[b]] == images[src.involution[b]]
                for b in range(s.order)
            ):
                continue
            out.append(images)
        return out

    from gpdtools import GroupSpec

    choices = []
    for m in range(1, 5):
        for rows in enumerate_group_tables(m):
            for alpha in involutive_automorphisms(Groupoid(rows)):
                choices.append(GroupSpec(rows, alpha))

    def expected_for(sl, covers):
        total = 0
        for assignment in itertools.product(choices, repeat=sl.order):
            prod = 1
            for f, e in covers:
                prod *= len(brute_homs(assignment[f], assignment[e]))
            total += prod
        return total

    chain2 = enumerate_semilattices(2)[0]
    expected = len(choices) + expected_for(chain2, [(1, 0)])
    actual = sum(1 for _ in enumerate_specs(2, 4))
    assert actual == expected == 223

    fork, chain3 = None, None
    for r in enumerate_semilattices(3):
        if r.meet == ((0, 0, 0), (0, 1, 1), (0, 1, 2)):
            chain3 = r
        else:
            fork = r
    expected3 = expected + expected_for(chain3, [(1, 0), (2, 1)]) + expected_for(
        fork, [(1, 0), (2, 0)]
    )
    actual3 = sum(1 for _ in enumerate_specs(3, 4))
    assert actual3 == expected3 == 10933


def test_enumerate_specs_limits():
    with pytest.raises(LimitsTooLarge):
        next(enumerate_specs(4, 2))
    with pytest.raises(LimitsTooLarge):
        next(enumerate_specs(1, 7))


def test_enumerate_specs_deterministic():
    a = list(enumerate_specs(2, 3))
    b = list(enumerate_specs(2, 3))
    assert a == b
    for spec in a:
        assert validate_spec(spec) == []


# ---------------------------------------------------------------------------
# Sweep engine.
# ---------------------------------------------------------------------------

_SMALL = SweepConfig(
    max_exhaustive_order=2,
    sample_count=300,
    max_semilattice_order=2,
    max_group_order=2,
)


def test_sweep_passes_and_counts():
    report = run_sweep(_SMALL, jobs=1)
    assert report.passed
    assert report.counterexamples == ()
    # 17 exhaustive + 300 sampled tables, all hitting decision coherence.
    assert report.counts["decision_coherence.criteria_agree"] == 317
    assert report.counts["goldens.z3twist.determined"] == 1
    assert report.elapsed_seconds > 0


def test_sweep_partition_independent():
    r1 = run_sweep(_SMALL, jobs=1)
    r2 = run_sweep(_SMALL, jobs=2)
    r3 = run_sweep(_SMALL, jobs=3)
    assert r1.to_json() == r2.to_json() == r3.to_json()
    data = json.loads(r1.to_json())
    assert data["schema"] == "sweep_report@1"
    assert "elapsed" not in json.dumps(data)
    assert data["config"]["rng"] == "splitmix64"


def test_sweep_suite_selection_and_errors():
    report = run_sweep(
        SweepConfig(max_exhaustive_order=1, sample_count=0, suites=("goldens",)),
        jobs=1,
    )
    assert report.passed
    assert all(k.startswith("goldens.") for k in report.counts)
    with pytest.raises(ValueError):
        run_sweep(SweepConfig(suites=("no_such_suite",)), jobs=1)
    with pytest.raises(ValueError):
        run_sweep(_SMALL, jobs=0)
    with pytest.raises(OrderTooLarge):
        run_sweep(SweepConfig(max_exhaustive_order=4), jobs=1)


def test_sweep_detects_corrupted_property():
    # A deliberately false law must surface as a counterexample, proving the
    # sweep machinery can actually fail.
    def bad_suite(chunk, rec):
        for _src, g in chunk.tables:
            rec.check("all_tables_commute", g.rows == tuple(zip(*g.rows)), "x")

    register_suite("deliberately_wrong", bad_suite)
    try:
        report = run_sweep(
            SweepConfig(
                max_exhaustive_order=2, sample_count=0, suites=("deliberately_wrong",)
            ),
            jobs=1,
        )
    finally:
        del SUITES["deliberately_wrong"]
    assert not report.passed
    assert report.counts["deliberately_wrong.all_tables_commute"] == 17
    assert any(
        c.law == "all_tables_commute" for c in report.counterexamples
    )
    assert "all_tables_commute" in report.to_json()


def test_registered_suite_alone_reads_specs():
    # A user suite that reads chunk.specs sees the construction family even
    # when no built-in suite that also reads it is active.
    def spec_counter(chunk, rec):
        for built in chunk.specs:
            rec.check("instances", True, "x")

    register_suite("spec_counter", spec_counter)
    config = SweepConfig(
        max_exhaustive_order=1,
        sample_count=0,
        max_semilattice_order=1,
        max_group_order=2,
        suites=("spec_counter",),
    )
    try:
        counts = [run_sweep(config, jobs=jobs).counts for jobs in (1, 2)]
    finally:
        del SUITES["spec_counter"]
    assert counts == [{"spec_counter.instances": 2}] * 2


def test_inverse_laws_computes_table_facts_once(monkeypatch):
    # Each per-table predicate runs at most once per table, however many
    # mappings reach it; NotInverse tables are skipped after one attempt.
    import gpdtools.enumeration as enumeration

    calls = Counter()
    seen = []  # keeps every table alive so that id() stays unique

    def counted(name, fn):
        def wrapper(g):
            seen.append(g)
            calls[name, id(g)] += 1
            return fn(g)

        return wrapper

    facts = (
        "inverse_table",
        "idempotents_form_semilattice",
        "is_right_bol",
        "strongly_regular_witness",
        "is_completely_inverse",
    )
    for name in facts:
        fn = getattr(enumeration, name)
        monkeypatch.setattr(enumeration, name, counted(name, fn))
    config = SweepConfig(
        max_exhaustive_order=3,
        sample_count=0,
        max_semilattice_order=2,
        max_group_order=2,
        suites=("inverse_laws",),
    )
    report = run_sweep(config, jobs=1)
    assert report.passed
    assert report.counts["inverse_laws.canonical_shift_iff_right_bol"] > 0
    assert max(calls.values()) == 1
    assert {name for name, _ in calls} == set(facts)


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("sample_count", -5, ValueError),
        ("max_exhaustive_order", -1, ValueError),
        ("sample_order", 0, ValueError),
        ("seed", -1, ValueError),
        ("seed", 1 + 2**64, ValueError),
        ("max_semilattice_order", 0, LimitsTooLarge),
        ("max_semilattice_order", 4, LimitsTooLarge),
        ("max_group_order", 0, LimitsTooLarge),
        ("max_group_order", 7, LimitsTooLarge),
    ],
)
def test_sweep_config_rejects_invalid_values(field, value, error):
    with pytest.raises(error):
        SweepConfig(**{field: value})


def test_sweep_config_accepts_bounds():
    SweepConfig(
        max_exhaustive_order=0,
        sample_order=1,
        sample_count=0,
        seed=MASK64,
        max_semilattice_order=3,
        max_group_order=6,
    )
    SweepConfig(seed=0, max_semilattice_order=1, max_group_order=1)


def test_register_suite_rejects_duplicates():
    with pytest.raises(ValueError):
        register_suite("goldens", lambda chunk, rec: None)
