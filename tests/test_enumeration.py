"""Generators, the random stream, and the sweep engine."""

import hashlib
import itertools
import json
import multiprocessing
from collections import Counter
from dataclasses import fields, replace

import pytest

from gpdtools import (
    ConstructionSpec,
    Counterexample,
    GroupSpec,
    Groupoid,
    LimitsTooLarge,
    MeetSemilattice,
    NotDetermined,
    SweepConfig,
    SweepReport,
    TheoremViolation,
    absorption_law,
    build_determined,
    build_strong_slg,
    decompose,
    enumerate_group_tables,
    enumerate_groupoids,
    enumerate_semilattices,
    enumerate_specs,
    find_isomorphism,
    identity_mapping,
    involutions,
    involutive_automorphisms,
    is_homomorphism,
    random_groupoids,
    run_sweep,
    serialize_cspec,
    shifted_associativity,
    stream_value,
    untwist,
    validate_spec,
)
import gpdtools.enumeration as enumeration
from gpdtools.enumeration import MASK64, SUITES

from .test_inverses import _antihomomorphism

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
    # Each argument takes exactly an int: True would read as seed 1.
    for args, name in [((True, 0), "seed"), ((1, 2.0), "index"), (("1", 0), "seed")]:
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            stream_value(*args)


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
    with pytest.raises(ValueError):
        next(random_groupoids(0, 1, seed=9))
    # The bounds of SweepConfig: a negative count would pass vacuously, and
    # seeds s and s + 2**64 would draw the same tables.
    with pytest.raises(ValueError, match="count must be at least 0"):
        next(random_groupoids(2, -3, seed=1))
    for seed in (-1, MASK64 + 1):
        with pytest.raises(ValueError, match="seed must be in"):
            next(random_groupoids(2, 1, seed))
    # Each argument takes exactly an int, as in SweepConfig: a bool would
    # draw tables, and a float would fail inside `range`.
    for args, name in [((2.0, 1, 1), "order"), ((2, True, 1), "count"),
                       ((2, 1, True), "seed")]:
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            next(random_groupoids(*args))
    # Table i is a pure function of (seed, i): recomputing any index alone
    # gives the same table, which is what makes chunking sound.
    cells = 16
    for i in (0, 13, 29):
        flat = [stream_value(9, i * cells + j) % 4 for j in range(cells)]
        rows = tuple(tuple(flat[r * 4 : (r + 1) * 4]) for r in range(4))
        assert full[i] == Groupoid(rows)


def _stream_tables(order, seed, indices):
    """Sample tables built cell by cell from ``stream_value``."""
    cells = order * order
    for i in indices:
        flat = [stream_value(seed, i * cells + j) % order for j in range(cells)]
        rows = (flat[r * order : (r + 1) * order] for r in range(order))
        yield Groupoid(tuple(map(tuple, rows)))


def test_samples_match_stream_value_cells():
    from gpdtools.enumeration import _sample_tables

    strided = (range(1, 60, 2), range(3, 90, 7), range(10**6, 10**6 + 50, 9))
    for order in (1, 2, 3, 5):
        for seed in (0, 1, MASK64):
            assert list(random_groupoids(order, 40, seed)) == list(
                _stream_tables(order, seed, range(40))
            )
            for indices in strided:
                assert list(_sample_tables(order, seed, indices)) == list(
                    _stream_tables(order, seed, indices)
                )


# ---------------------------------------------------------------------------
# Exhaustive generators.
# ---------------------------------------------------------------------------


def _reference_exhaustive(orders, index, chunks):
    """Every ``chunks``-th table from ``index``: the flat product of all
    cells, sliced into rows."""
    for n in orders:
        cells = itertools.product(range(n), repeat=n * n)
        for flat in itertools.islice(cells, index, None, chunks):
            yield Groupoid(tuple(flat[r * n : (r + 1) * n] for r in range(n)))


def test_exhaustive_tables_match_flat_cell_reference():
    from gpdtools.enumeration import _exhaustive_tables

    for index, chunks in ((0, 1), (1, 2), (2, 3), (4, 7)):
        assert list(_exhaustive_tables((1, 2, 3), index, chunks)) == list(
            _reference_exhaustive((1, 2, 3), index, chunks)
        )
    first = itertools.islice(_exhaustive_tables((4,), 0, 1), 5000)
    reference = itertools.islice(_reference_exhaustive((4,), 0, 1), 5000)
    assert list(first) == list(reference)


def test_exhaustive_tables_share_rows():
    tables = list(enumerate_groupoids(3))  # alive, so ids are not reused
    assert len({id(row) for g in tables for row in g.rows}) == 27


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
    with pytest.raises(LimitsTooLarge, match="capped at order 3"):
        next(enumerate_groupoids(4))
    with pytest.raises(ValueError):
        next(enumerate_groupoids(0))
    with pytest.raises(ValueError, match="order must be an int"):
        next(enumerate_groupoids(True))


def test_enumerate_semilattices():
    assert [len(enumerate_semilattices(k)) for k in (1, 2, 3)] == [1, 1, 2]
    reps = enumerate_semilattices(3)
    tables = {r.meet for r in reps}
    # The two isomorphism classes: the fork (two maximal elements over a
    # bottom) and the chain.
    assert ((0, 0, 0), (0, 1, 0), (0, 0, 2)) in tables
    assert ((0, 0, 0), (0, 1, 1), (0, 1, 2)) in tables
    # The exact representatives, each its class's least table, in order.
    assert [[r.meet for r in enumerate_semilattices(k)] for k in (1, 2, 3)] == [
        [((0,),)],
        [((0, 0), (0, 1))],
        [((0, 0, 0), (0, 1, 0), (0, 0, 2)), ((0, 0, 0), (0, 1, 1), (0, 1, 2))],
    ]
    with pytest.raises(LimitsTooLarge):
        enumerate_semilattices(4)
    with pytest.raises(ValueError):
        enumerate_semilattices(0)
    # Exactly an int: True, called after 1, misses the cache entry of 1,
    # and neither a float nor a string reaches `range`.
    for order in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="order must be an int"):
            enumerate_semilattices(order)
    # Every representative really is one: commutative idempotent associative.
    for r in reps:
        g = Groupoid(r.meet)
        assert g.is_associative()
        assert all(r.meet[x][x] == x for x in range(3))
        assert all(
            r.meet[x][y] == r.meet[y][x] for x in range(3) for y in range(3)
        )


def test_semilattice_classes_match_independent_counts(monkeypatch):
    # OEIS A006966 shifted by one (a semilattice with a top added is a
    # lattice): 1, 1, 2, 5 and 15 meet semilattices up to isomorphism.
    # The cap is lifted here only, and the cache is cleared so that the
    # capped order-4 call of test_enumerate_semilattices still raises.
    monkeypatch.setattr(enumeration, "MAX_SEMILATTICE_ORDER", 5)
    try:
        counts = [len(enumerate_semilattices(k)) for k in range(1, 6)]
        order4 = [r.meet for r in enumerate_semilattices(4)]
    finally:
        enumerate_semilattices.cache_clear()
    assert counts == [1, 1, 2, 5, 15]
    assert order4 == [
        ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3)),
        ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 2), (0, 0, 2, 3)),
        ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3)),
        ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 1), (0, 1, 1, 3)),
        ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 2), (0, 1, 2, 3)),
    ]


def _free(n):
    return lambda rows, x, y: range(n)


def test_associative_tables_are_the_associative_groupoids_in_order():
    # OEIS A023814: 1, 8 and 113 labelled semigroups, each once and in
    # lexicographic order, against the definition table by table.
    counts = []
    for n in (1, 2, 3):
        tables = list(enumeration._associative_tables(n, _free(n)))
        assert tables == [g for g in enumerate_groupoids(n) if g.is_associative()]
        counts.append(len(tables))
    assert counts == [1, 8, 113]


def _semigroup_classes(n):
    """The class pass with every cell free: one table per semigroup class."""
    reps = enumeration._table_classes("semigroup", n, 4, _free(n))
    assert all(g.is_associative() for g in reps)
    return reps


def test_table_classes_count_semigroups():
    # OEIS A027851: 1, 5 and 24 semigroups up to isomorphism.
    assert [len(_semigroup_classes(n)) for n in (1, 2, 3)] == [1, 5, 24]


@pytest.mark.extended
def test_table_classes_count_semigroups_of_order_four():
    assert len(_semigroup_classes(4)) == 188


def test_enumerate_group_tables():
    assert [len(enumerate_group_tables(m)) for m in range(1, 7)] == [1, 1, 1, 2, 1, 2]
    # The exact representatives, in order: Z1, Z2, Z3, Z2xZ2, Z4, Z5, Z6, S3.
    assert [enumerate_group_tables(m) for m in range(1, 7)] == [
        (((0,),),),
        (((0, 1), (1, 0)),),
        (((0, 1, 2), (1, 2, 0), (2, 0, 1)),),
        (
            ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
            ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1)),
        ),
        (
            (
                (0, 1, 2, 3, 4),
                (1, 2, 3, 4, 0),
                (2, 3, 4, 0, 1),
                (3, 4, 0, 1, 2),
                (4, 0, 1, 2, 3),
            ),
        ),
        (
            (
                (0, 1, 2, 3, 4, 5),
                (1, 0, 3, 2, 5, 4),
                (2, 3, 4, 5, 0, 1),
                (3, 2, 5, 4, 1, 0),
                (4, 5, 0, 1, 2, 3),
                (5, 4, 1, 0, 3, 2),
            ),
            (
                (0, 1, 2, 3, 4, 5),
                (1, 0, 3, 2, 5, 4),
                (2, 4, 0, 5, 1, 3),
                (3, 5, 1, 4, 0, 2),
                (4, 2, 5, 0, 3, 1),
                (5, 3, 4, 1, 2, 0),
            ),
        ),
    ]
    with pytest.raises(LimitsTooLarge):
        enumerate_group_tables(7)
    with pytest.raises(ValueError):
        enumerate_group_tables(0)
    for order in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="order must be an int"):
            enumerate_group_tables(order)
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
    with pytest.raises(ValueError, match="max_semilattice_order must be an int"):
        next(enumerate_specs(True, 2))
    with pytest.raises(ValueError, match="max_group_order must be an int"):
        next(enumerate_specs(1, 2.0))


def test_family_over_four_element_semilattices_is_transitive(monkeypatch):
    # The cap hides 4-element semilattices, whose diamond has two chains
    # between its ends.  Lift it here only; enumerate_semilattices is
    # cached, so its cache is cleared before the order-4 pins run again.
    monkeypatch.setattr(enumeration, "MAX_SEMILATTICE_ORDER", 4)
    try:
        specs = list(enumerate_specs(4, 2))
        # Oracle at order 4: every choice of valid map per comparable pair,
        # kept when the whole spec is valid (its chains compose).
        choices = [
            GroupSpec(rows, alpha)
            for m in (1, 2)
            for rows in enumerate_group_tables(m)
            for alpha in involutive_automorphisms(Groupoid(rows))
        ]
        valid = set()
        for sl in enumerate_semilattices(4):
            strict = sl.strict_pairs()
            for groups in itertools.product(choices, repeat=4):
                pools = [
                    enumeration._compatible_homs(groups[f], groups[e])
                    for f, e in strict
                ]
                for maps in itertools.product(*pools):
                    spec = ConstructionSpec(sl, groups, tuple(zip(strict, maps)))
                    if not validate_spec(spec):
                        valid.add(spec)
    finally:
        enumerate_semilattices.cache_clear()
    assert len(specs) == 210
    assert all(validate_spec(spec) == [] for spec in specs)
    order4 = [spec for spec in specs if spec.semilattice.order == 4]
    assert len(set(order4)) == len(order4) == len(valid)
    assert set(order4) == valid


def test_enumerate_specs_deterministic():
    a = list(enumerate_specs(2, 3))
    b = list(enumerate_specs(2, 3))
    assert a == b
    for spec in a:
        assert validate_spec(spec) == []
    # The whole default family is frozen, spec by spec and in order.
    digest = hashlib.sha256()
    for spec in enumerate_specs(3, 4):
        digest.update(serialize_cspec(spec).encode())
    assert (
        digest.hexdigest()
        == "7c8b6b59955e59d074fe457d25f6a7f91b0d8ecd99778c2f676f1ad9efa5973e"
    )


def test_enumerate_specs_shares_connecting_maps_within_one_call():
    # One call holds each distinct system of connecting maps once; a second
    # call builds its own, so nothing shared outlives the call.
    first = list(enumerate_specs(3, 4))
    assert len(first) == 10_933
    assert len({spec.homs for spec in first}) == 935
    assert len({id(spec.homs) for spec in first}) == 935
    second = list(enumerate_specs(3, 4))
    assert second == first
    assert not any(a.homs is b.homs for a, b in zip(first, second) if a.homs)


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
    assert data["schema"] == "sweep_report@4"
    assert "elapsed" not in json.dumps(data)
    assert data["config"]["rng"] == "splitmix64"


def test_sweep_report_config_is_the_whole_sweep_config():
    config = SweepConfig(sample_count=5, suites=("goldens",))
    data = json.loads(SweepReport(config, {}, (), 0.0).to_json())
    names = {field.name for field in fields(SweepConfig)}
    assert set(data["config"]) == names | {"rng"}
    assert data["config"]["suites"] == ["goldens"]
    assert data["config"]["sample_count"] == 5


@pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1)])
def test_sweep_pool_has_at_most_one_worker_per_cpu(monkeypatch, cpus, workers):
    # A fake pool records its size and runs the chunks in this process, so
    # a large jobs value starts no process at all.
    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, args):
            return list(itertools.starmap(func, args))

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda _: FakeContext)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cpus)
    report = run_sweep(_SMALL, jobs=500)
    assert sizes == [workers]
    assert report.to_json() == run_sweep(_SMALL, jobs=1).to_json()


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


def test_sweep_detects_corrupted_property(monkeypatch):
    # A deliberately false law must surface as a counterexample, proving the
    # sweep machinery can actually fail.
    def bad_suite(chunk):
        for g in chunk.exhaustive:
            yield {"all_tables_commute": g.rows == tuple(zip(*g.rows))}, "x"

    monkeypatch.setitem(SUITES, "deliberately_wrong", bad_suite)
    report = run_sweep(
        SweepConfig(
            max_exhaustive_order=2, sample_count=0, suites=("deliberately_wrong",)
        ),
        jobs=1,
    )
    assert not report.passed
    assert report.counts["deliberately_wrong.all_tables_commute"] == 17
    assert any(
        c.law == "all_tables_commute" for c in report.counterexamples
    )
    assert "all_tables_commute" in report.to_json()


def test_registered_suite_alone_reads_specs(monkeypatch):
    # A suite that reads chunk.specs sees the construction family even when
    # no other suite that reads it runs.
    def spec_counter(chunk):
        for built in chunk.specs:
            yield {"instances": True}, "x"

    monkeypatch.setitem(SUITES, "spec_counter", spec_counter)
    config = SweepConfig(
        max_exhaustive_order=1,
        sample_count=0,
        max_semilattice_order=1,
        max_group_order=2,
        suites=("spec_counter",),
    )
    counts = [run_sweep(config, jobs=jobs).counts for jobs in (1, 2)]
    assert counts == [{"spec_counter.instances": 2}] * 2


@pytest.fixture
def built(monkeypatch):
    """Counts the sweep tables built per order."""
    import gpdtools.enumeration as enumeration

    counts = Counter()

    def counted(generate):
        def tables(*args):
            for g in generate(*args):
                counts[g.order] += 1
                yield g

        return tables

    for name in ("_exhaustive_tables", "_sample_tables"):
        monkeypatch.setattr(enumeration, name, counted(getattr(enumeration, name)))
    return counts


def test_suite_reading_no_instances_builds_no_table(built, monkeypatch):
    # chunk.exhaustive and chunk.samples, like chunk.specs, are each built on
    # first read.
    def no_reads(chunk):
        yield {"ran": True}, "x"

    def table_reads(chunk):
        for _g in chunk.exhaustive + chunk.samples:
            yield {"instances": True}, "x"

    def sample_reads(chunk):
        for _g in chunk.samples:
            yield {"samples": True}, "x"

    for runner in (no_reads, table_reads, sample_reads):
        monkeypatch.setitem(SUITES, runner.__name__, runner)
    config = SweepConfig(max_exhaustive_order=2, sample_count=3, suites=("no_reads",))
    assert run_sweep(config).counts == {"no_reads.ran": 1}
    assert not built
    config = replace(config, suites=("sample_reads",))
    assert run_sweep(config).counts == {"sample_reads.samples": 3}
    assert built == {4: 3}
    built.clear()
    config = replace(config, suites=("no_reads", "table_reads"))
    assert run_sweep(config).counts == {
        "no_reads.ran": 1,
        "table_reads.instances": 1 + 16 + 3,
    }
    assert built == {1: 1, 2: 16, 4: 3}


#: Tables each built-in suite builds per order on the tiny config below:
#: decision_coherence, the one suite whose docstring names sampled tables,
#: reads both table sources, the rest read only the exhaustive tables, and
#: goldens and construction_roundtrip (which reads only the specs) read
#: neither.
_BUILT_BY_SUITE = {
    "goldens": {},
    "construction_roundtrip": {},
    "decision_coherence": {1: 1, 2: 16, 4: 3},
}


@pytest.mark.parametrize("name", tuple(SUITES))
def test_suite_builds_only_the_table_sources_it_reads(built, name):
    config = SweepConfig(
        max_exhaustive_order=2,
        sample_order=4,
        sample_count=3,
        max_semilattice_order=1,
        max_group_order=2,
        suites=(name,),
    )
    assert run_sweep(config).passed
    assert built == _BUILT_BY_SUITE.get(name, {1: 1, 2: 16})


def test_benchmark_sweep_covers_every_suite():
    # The benchmark's sweep workload runs a hard-coded tuple of suite names.
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"
    spec = importlib.util.spec_from_file_location("perfbench_metrics", path)
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    assert metrics.SUITE_NAMES == tuple(SUITES)


def test_inverse_laws_computes_table_facts_once(monkeypatch):
    # Each per-table predicate runs at most once per table, however many
    # mappings reach it; tables without an inverse table are skipped after
    # one attempt.  The suite reads them through _Facts, which calls these
    # names in the inverses module (the inverse kernel with the table's
    # rows) and computes complete inverseness itself.
    import gpdtools.inverses as inverses

    calls = Counter()
    seen = []  # keeps every table alive so that id() stays unique

    def counted(name, fn, table=lambda g: g):
        def wrapper(x, *args):
            g = table(x)
            seen.append(g)
            calls[name, id(g)] += 1
            return fn(x, *args)

        return wrapper

    facts = (
        "_inverse_images",
        "idempotents_form_semilattice",
        "is_right_bol",
        "strongly_regular_witness",
    )
    for name in facts:
        fn = getattr(inverses, name)
        monkeypatch.setattr(inverses, name, counted(name, fn))
    fact = vars(inverses._Facts)["completely_inverse"]
    compute = counted("completely_inverse", fact.compute, lambda facts: facts.g)
    monkeypatch.setattr(fact, "compute", compute)
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
    assert {name for name, _ in calls} == {*facts, "completely_inverse"}


def test_instance_ids_are_formatted_only_on_failure(monkeypatch):
    import gpdtools.enumeration as enumeration

    serialized = []
    serialize = enumeration.serialize_cspec

    def counted(spec):
        serialized.append(spec)
        return serialize(spec)

    monkeypatch.setattr(enumeration, "serialize_cspec", counted)
    config = SweepConfig(
        max_exhaustive_order=2,
        sample_count=0,
        max_semilattice_order=2,
        max_group_order=2,
        suites=(
            "involution_laws",
            "inverse_laws",
            "slg_conclusions",
            "decision_coherence",
        ),
    )
    assert run_sweep(config).passed
    assert serialized == []

    # Forced failures still report the full instance strings.
    def alarm(g):
        raise TheoremViolation("forced")

    monkeypatch.setattr(enumeration, "is_completely_inverse", lambda g: False)
    monkeypatch.setattr(enumeration, "decide", alarm)
    config = replace(config, suites=("construction_roundtrip", "decision_coherence"))
    report = run_sweep(config)
    failed = Counter()
    for c in report.counterexamples:
        failed[c.law] += 1
    specs = list(enumerate_specs(2, 2))
    spec_ids = sorted(
        serialize(spec).strip().replace("\n", "; ")
        + ("" if spec.carrier is None else f" carrier={spec.carrier}")
        for spec in specs
    )
    table_ids = sorted(
        f"order={g.order} rows={g.rows}"
        for g in itertools.chain(enumerate_groupoids(1), enumerate_groupoids(2))
    )
    assert [
        c.instance
        for c in report.counterexamples
        if c.law == "determined_is_completely_inverse"
    ] == spec_ids
    assert [
        (c.instance, c.detail)
        for c in report.counterexamples
        if c.law == "criteria_agree"
    ] == [(inst, "forced") for inst in table_ids]
    assert failed["determined_is_completely_inverse"] == len(specs) > 0


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
        ("suites", ("no_such_suite",), ValueError),
        # An int field takes exactly an int: a bool would write `true` into
        # the canonical report, and a float would fail only when the sweep
        # runs.
        ("max_exhaustive_order", True, ValueError),
        ("max_exhaustive_order", 1.0, ValueError),
        ("sample_order", True, ValueError),
        ("sample_count", 2.5, ValueError),
        ("seed", 1.0, ValueError),
        ("max_semilattice_order", True, ValueError),
        ("max_group_order", 2.0, ValueError),
        # The exhaustive order is capped like the family limits.
        ("max_exhaustive_order", 4, LimitsTooLarge),
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


def test_invalid_family_spec_is_a_counterexample(monkeypatch, capsys):
    # The sweep validates each family spec once, in spec_valid, so an
    # invalid one is reported there rather than aborting the sweep.
    import gpdtools.enumeration as enumeration
    from gpdtools.cli import main
    from gpdtools.clifford import _products

    # Fits its blocks but is invalid: the identity map from Z3 under
    # negation into Z3 under the identity commutes with neither mapping.
    z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    bad = ConstructionSpec(
        semilattice=MeetSemilattice(((0, 0), (0, 1))),
        groups=(GroupSpec(z3, (0, 1, 2)), GroupSpec(z3, (0, 2, 1))),
        homs=(((1, 0), (0, 1, 2)),),
    )
    problems = validate_spec(bad)
    assert problems
    with pytest.raises(NotDetermined) as raised:
        decompose(*_products(bad, twisted=True))
    real = enumeration.enumerate_specs
    monkeypatch.setattr(
        enumeration,
        "enumerate_specs",
        lambda *limits: itertools.chain(real(1, 1), [bad]),
    )
    config = SweepConfig(
        max_exhaustive_order=1,
        sample_count=0,
        max_semilattice_order=1,
        max_group_order=1,
        suites=(
            "class_relations",
            "involution_laws",
            "inverse_laws",
            "slg_conclusions",
            "decision_coherence",
            "construction_roundtrip",
        ),
    )
    report = run_sweep(config, jobs=1)
    assert not report.passed
    details = {(c.suite, c.law): c.detail for c in report.counterexamples}
    assert details["construction_roundtrip", "spec_valid"] == "; ".join(problems)
    assert details["construction_roundtrip", "decompose_inverts_build"] == str(
        raised.value
    )
    argv = (
        "sweep --max-order 1 --samples 0 --max-semilattice-order 1"
        " --max-group-order 1 --suites construction_roundtrip"
    )
    assert main(argv.split()) == 1
    assert "error:" not in capsys.readouterr().err


def test_build_inverts_decompose_records_exceptions(monkeypatch, capsys):
    # A decomposition that raises on a decided-positive table is a
    # counterexample of the law, not an exception out of the sweep.
    from gpdtools.cli import main

    def refuse(g, alpha):
        raise NotDetermined("forced")

    monkeypatch.setattr(enumeration, "decompose", refuse)
    config = SweepConfig(
        max_exhaustive_order=2,
        sample_count=0,
        max_semilattice_order=1,
        max_group_order=1,
        suites=("decision_coherence",),
    )
    report = run_sweep(config, jobs=1)
    failures = [
        c for c in report.counterexamples if c.law == "build_inverts_decompose"
    ]
    law = "decision_coherence.build_inverts_decompose"
    assert len(failures) == report.counts[law] > 0
    assert all(c.instance.startswith("order=") for c in failures)
    assert {c.detail for c in failures} == {"forced"}
    argv = (
        "sweep --max-order 2 --samples 0 --max-semilattice-order 1"
        " --max-group-order 1 --suites decision_coherence"
    )
    assert main(argv.split()) == 1
    out, err = capsys.readouterr()
    assert "build_inverts_decompose" in out
    assert "not determined" not in err


def test_runner_with_the_old_recorder_signature_fails_loudly(monkeypatch):
    # A runner takes the chunk alone and yields its verdict maps; one still
    # written as runner(chunk, rec) is a TypeError, not a silent empty run.
    def old_style(chunk, rec):
        rec.check({"ran": True}, "x")

    monkeypatch.setitem(SUITES, "old_style", old_style)
    with pytest.raises(TypeError):
        run_sweep(SweepConfig(sample_count=0, suites=("old_style",)))


def test_sweep_config_rejects_duplicate_suites():
    # A repeated suite would run twice and double its counts.
    with pytest.raises(ValueError, match="duplicate suites: goldens, square_classes"):
        SweepConfig(suites=("square_classes", "goldens", "square_classes", "goldens"))
    SweepConfig(suites=("goldens", "square_classes"))


@pytest.mark.parametrize("suites", ["goldens", ("goldens", 1), ["goldens"]])
def test_sweep_config_takes_suites_as_a_tuple_of_str(suites):
    # A string would be read as its letters, a non-str name would fail in
    # str.join, and a list would leave the frozen config unhashable.
    with pytest.raises(ValueError, match="suites must be a tuple of str"):
        SweepConfig(suites=suites)


@pytest.mark.parametrize("jobs", [2.0, True, "2"])
def test_run_sweep_takes_jobs_as_an_int(jobs):
    # A float or a str would fail inside the runner; True would run as 1.
    config = SweepConfig(max_exhaustive_order=1, sample_count=0, suites=("goldens",))
    with pytest.raises(ValueError, match="jobs must be an int"):
        run_sweep(config, jobs=jobs)


_TINY_FAMILY = dict(sample_count=0, max_semilattice_order=2, max_group_order=2)
_BUILT_IN_SUITES = (
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


def _counted(calls, key, fn):
    """``fn``, appending ``key(*args)`` to ``calls`` on every call."""

    def wrapper(*args):
        calls.append(key(*args))
        return fn(*args)

    return wrapper


def test_involution_laws_reads_table_facts_once(monkeypatch):
    # Once per table, however many mappings it is checked with.  The lists
    # keep every table alive, so id() tells them apart.
    import gpdtools.enumeration as enumeration

    assoc, band = [], []
    monkeypatch.setattr(
        Groupoid,
        "is_associative",
        _counted(assoc, lambda g: g, Groupoid.is_associative),
    )
    monkeypatch.setattr(
        enumeration,
        "satisfies_variety",
        _counted(band, lambda g, tag: (g, tag), enumeration.satisfies_variety),
    )
    config = SweepConfig(
        max_exhaustive_order=3, suites=("involution_laws",), **_TINY_FAMILY
    )
    assert run_sweep(config).passed
    tables = 1 + 16 + 19683 + sum(1 for _ in enumerate_specs(2, 2))
    assert len(band) == len({id(g) for g, _ in band}) == tables
    assert {tag for _, tag in band} == {"B"}
    # The family build also calls is_associative, on tables of its own.
    swept = Counter(map(id, assoc))
    assert all(swept[id(g)] == 1 for g, _ in band)


def test_strong_table_meets_no_battery_hypothesis():
    # Why involution_laws and inverse_laws read only the determined table of
    # a built spec: with a glued mapping other than the identity, the strong
    # table meets neither the shifted nor the absorption law, its untwist
    # is not associative and the mapping is no inverse antihomomorphism;
    # with the identity, the strong table is the determined one.
    moved = fixed = 0
    for spec in enumerate_specs(3, 3):
        strong = build_strong_slg(spec)
        determined, alpha = build_determined(spec)
        if alpha == identity_mapping(strong.order):
            fixed += 1
            assert strong == determined
        else:
            moved += 1
            assert not shifted_associativity(strong, alpha)
            assert not absorption_law(strong, alpha)
            assert not untwist(strong, alpha).is_associative()
            assert not _antihomomorphism(strong, alpha)
    assert moved > 0 and fixed > 0


def test_inverse_laws_lists_each_failure_once(monkeypatch):
    # A law forced to fail on every built spec is listed once per spec,
    # also where the glued mapping is the identity.
    import gpdtools.inverses as inverses

    fact = vars(inverses._Facts)["completely_inverse"]
    monkeypatch.setattr(fact, "compute", lambda facts: False)
    config = SweepConfig(
        max_exhaustive_order=0,
        sample_count=0,
        max_semilattice_order=2,
        max_group_order=3,
        suites=("inverse_laws",),
    )
    failures = run_sweep(config).counterexamples
    specs = list(enumerate_specs(2, 3))
    alphas = [build_determined(spec)[1] for spec in specs]
    fixed = {
        enumeration._spec_id(spec)
        for spec, alpha in zip(specs, alphas)
        if alpha == identity_mapping(len(alpha))
    }
    assert len(failures) == len({(c.law, c.instance) for c in failures}) == len(specs)
    assert fixed and {c.instance for c in failures} >= fixed


def test_involution_laws_gates_translation_and_automorphism(monkeypatch):
    # in_lt is read only where the shifted or the absorption law holds,
    # is_homomorphism only where both do.
    import gpdtools.enumeration as enumeration
    from gpdtools.mappings import absorption_law, shifted_associativity

    lt, hom = [], []
    monkeypatch.setattr(
        enumeration, "in_lt", _counted(lt, lambda g, f: (g, f), enumeration.in_lt)
    )
    monkeypatch.setattr(
        enumeration,
        "is_homomorphism",
        _counted(hom, lambda f, g, h: (g, f), enumeration.is_homomorphism),
    )
    config = SweepConfig(
        max_exhaustive_order=2, suites=("involution_laws",), **_TINY_FAMILY
    )
    report = run_sweep(config)
    assert report.passed
    assert lt and hom
    for g, f in lt:
        assert shifted_associativity(g, f) or absorption_law(g, f)
    for g, f in hom:
        assert shifted_associativity(g, f) and absorption_law(g, f)


def test_build_inverts_decompose_runs_on_exactly_the_decided_positives(
    monkeypatch,
):
    # decision_coherence decides every exhaustive table once, and the set
    # that reaches build_inverts_decompose is exactly the set of
    # decide-positive tables of order <= 3.
    import gpdtools.enumeration as enumeration
    from gpdtools import decide

    decided = []
    monkeypatch.setattr(enumeration, "decide", _counted(decided, lambda g: g, decide))
    reached = []
    coherence = SUITES["decision_coherence"]

    def recording(chunk):
        for verdicts, instance in coherence(chunk):
            if "build_inverts_decompose" in verdicts:
                reached.append(instance())
            yield verdicts, instance

    monkeypatch.setitem(SUITES, "decision_coherence", recording)
    config = SweepConfig(
        max_exhaustive_order=3,
        sample_count=0,
        max_semilattice_order=1,
        max_group_order=1,
        suites=("decision_coherence",),
    )
    report = run_sweep(config)
    assert report.passed
    tables = [g for n in (1, 2, 3) for g in enumerate_groupoids(n)]
    # Then the one table built from the (1, 1) family.
    assert [g.rows for g in decided] == [g.rows for g in tables] + [((0,),)]
    positives = sorted(
        f"order={g.order} rows={g.rows}" for g in tables if decide(g).determined
    )
    assert sorted(reached) == positives
    assert len(positives) == report.counts[
        "decision_coherence.build_inverts_decompose"
    ] == 32


def test_decision_coherence_builds_each_decided_positive_once(monkeypatch):
    # decompose rebuilds the data it recovers and refuses data that does not
    # give back (g, alpha), so once the specs are built the suite makes one
    # table build per decided positive, inside decompose, and no other.
    import gpdtools.clifford as clifford

    config = SweepConfig(
        max_exhaustive_order=3,
        sample_count=0,
        max_semilattice_order=2,
        max_group_order=2,
        suites=("decision_coherence",),
    )
    chunk = enumeration._Chunk(config, 0, 1)
    assert chunk.specs
    built = []
    products = clifford._products

    def counted(spec, twisted):
        built.append(spec)
        return products(spec, twisted)

    monkeypatch.setattr(clifford, "_products", counted)
    maps = [verdicts for verdicts, _ in SUITES["decision_coherence"](chunk)]
    positives = [m for m in maps if "build_inverts_decompose" in m]
    assert all(m["build_inverts_decompose"] is True for m in positives)
    assert len(built) == len(positives) == 32


def test_construction_roundtrip_decides_nothing(monkeypatch):
    # The suite reads only the built specs, which it checks structurally.
    import gpdtools.enumeration as enumeration

    decided = []
    monkeypatch.setattr(enumeration, "decide", _counted(decided, id, enumeration.decide))
    config = SweepConfig(
        max_exhaustive_order=3,
        sample_count=100,
        max_semilattice_order=2,
        max_group_order=2,
        suites=("construction_roundtrip",),
    )
    report = run_sweep(config)
    assert report.passed and report.counts
    assert decided == []


def test_a_full_sweep_decides_each_table_once(monkeypatch):
    # Every exhaustive and sampled table is decided exactly once, by
    # decision_coherence; the other calls are the goldens' fixtures and
    # every built instance.
    import gpdtools.enumeration as enumeration
    from gpdtools import fixtures as fx

    decided = []
    monkeypatch.setattr(
        enumeration, "decide", _counted(decided, lambda g: g.rows, enumeration.decide)
    )
    config = SweepConfig(
        max_exhaustive_order=2,
        sample_order=3,
        sample_count=50,
        max_semilattice_order=2,
        max_group_order=2,
    )
    assert run_sweep(config).passed
    chunk = enumeration._Chunk(config, 0, 1)
    built = tuple(b.determined for b in chunk.specs)
    fixtures = (fx.BAND3, fx.FLIP2, fx.Z3_TWIST)
    tables = chunk.exhaustive + chunk.samples + built + fixtures
    assert Counter(decided) == Counter(g.rows for g in tables)


def test_failure_details_keep_their_formats(monkeypatch):
    # Forced failures report the same detail strings as formatting each
    # detail eagerly with an f-string.
    import gpdtools.enumeration as enumeration
    from gpdtools import ad_membership_characterized_profile, ad_membership_profile
    from gpdtools.groupoid import VARIETIES, in_semigroup_class
    from gpdtools.mappings import absorption_law, shifted_associativity

    def swapped(g):
        # A witness where there is none, and none where there is one.
        return {
            tag: None if real is not None else tuple(range(g.order))
            for tag, real in ad_membership_characterized_profile(g).items()
        }

    real_in_rt = enumeration.in_rt
    monkeypatch.setattr(enumeration, "ad_membership_characterized_profile", swapped)
    monkeypatch.setattr(enumeration, "in_rt", lambda g, f: not real_in_rt(g, f))
    config = SweepConfig(
        max_exhaustive_order=2,
        sample_count=0,
        max_semilattice_order=1,
        max_group_order=1,
        suites=("ad_equivalence", "involution_laws"),
    )
    got = sorted(
        (c.suite, c.law, c.instance, c.detail)
        for c in run_sweep(config).counterexamples
        if c.instance.startswith("order=")
    )
    expected = []
    for g in itertools.chain(enumerate_groupoids(1), enumerate_groupoids(2)):
        inst = f"order={g.order} rows={g.rows}"
        profile, characterized = ad_membership_profile(g), swapped(g)
        for tag in VARIETIES:
            direct, char = profile[tag], characterized[tag]
            if (direct is None) != (char is None):
                detail = f"direct={direct} characterized={char}"
                expected.append(("ad_equivalence", f"match.{tag}", inst, detail))
            if char is not None and not (
                in_semigroup_class(g, tag) and is_homomorphism(char, g, g)
            ):
                detail = f"characterized={char}"
                expected.append(("ad_equivalence", f"witness.{tag}", inst, detail))
        for f in involutions(g.order):
            strong_shift = shifted_associativity(g, f) and absorption_law(g, f)
            if strong_shift and g.is_associative():
                law = "strong_shift_right_translation_iff_identity"
                expected.append(("involution_laws", law, inst, f"mapping={f}"))
    assert {law.split(".")[0] for _, law, _, _ in expected} >= {"match", "witness"}
    assert any(suite == "involution_laws" for suite, *_ in expected)
    assert got == sorted(expected)


def test_square_equivalence_failure_names_both_sides(monkeypatch):
    # A generalized identity that reads the opposite of the truth fails
    # every product-set equivalence on every associative table, and each
    # counterexample names both sides of the law.
    from gpdtools import satisfies_variety, square_subgroupoid
    from gpdtools.determination import DESCENT_PAIRS

    generalized_tags = {generalized for *_, generalized in DESCENT_PAIRS}
    real = enumeration.satisfies_variety

    def flipped(g, tag):
        return real(g, tag) != (tag in generalized_tags)

    monkeypatch.setattr(enumeration, "satisfies_variety", flipped)
    config = SweepConfig(
        max_exhaustive_order=2, sample_count=0, suites=("square_classes",)
    )
    got = sorted(
        (c.law, c.instance, c.detail) for c in run_sweep(config).counterexamples
    )
    expected = []
    for g in itertools.chain(enumerate_groupoids(1), enumerate_groupoids(2)):
        if not g.is_associative():
            continue
        squares, _ = square_subgroupoid(g)
        for base, _inflation, generalized in DESCENT_PAIRS:
            square_holds = satisfies_variety(squares, base)
            detail = f"generalized={not square_holds} square_base={square_holds}"
            law = f"square_equivalence.{generalized}"
            expected.append((law, f"order={g.order} rows={g.rows}", detail))
    assert len(expected) == 4 * 9
    assert got == sorted(expected)


def test_swapped_absorbing_pair_failure_names_the_mapping(monkeypatch):
    # With no map equal to the identity, the identity of each band passes
    # for a nontrivial automorphism and has no swapped pair: one
    # counterexample per band, naming the mapping.
    monkeypatch.setattr(enumeration, "identity_mapping", lambda n: ())
    config = SweepConfig(
        max_exhaustive_order=2,
        sample_count=0,
        max_semilattice_order=1,
        max_group_order=1,
        suites=("involution_laws",),
    )
    law = "nontrivial_automorphism_swaps_absorbing_pair"
    got = sorted(
        (c.instance, c.detail)
        for c in run_sweep(config).counterexamples
        if c.law == law and c.instance.startswith("order=")
    )
    bands = [
        g
        for g in itertools.chain(enumerate_groupoids(1), enumerate_groupoids(2))
        if g.is_associative() and all(g.product(x, x) == x for x in g)
    ]
    expected = [
        (f"order={g.order} rows={g.rows}", f"mapping={tuple(range(g.order))}")
        for g in bands
    ]
    assert len(expected) == 5
    assert got == sorted(expected)


def test_suites_read_every_built_spec():
    # A suite that reads a source reads all of it: on the 251 specs of
    # the (3, 3) family, class_relations checks every built table and
    # decision_coherence decides every one, whatever its order or the
    # size of its semilattice.  goldens reads the bundled fixtures, not a
    # source; every other suite yields no map or one per spec at least.
    assert sum(1 for _ in enumerate_specs(3, 3)) == 251
    config = SweepConfig(
        max_exhaustive_order=0,
        sample_count=0,
        max_semilattice_order=3,
        max_group_order=3,
    )
    report = run_sweep(
        replace(config, suites=("class_relations", "decision_coherence"))
    )
    assert report.passed
    for law in (
        "class_relations.inclusion_chain.B",
        "decision_coherence.constructed_shift_law",
        "decision_coherence.constructed_is_determined",
    ):
        assert report.counts[law] == 251, law
    chunk = enumeration._Chunk(config, 0, 1)
    maps = {name: sum(1 for _ in SUITES[name](chunk)) for name in _BUILT_IN_SUITES}
    assert maps.pop("goldens") == 3
    assert all(n == 0 or n >= 251 for n in maps.values()), maps


def test_verdict_maps_record_each_false_and_skip_none(monkeypatch):
    # Each failed law in a verdict map is one counterexample: no detail for
    # False, the string itself for a string verdict.  Every law that is not
    # None is counted once per map, and a callable instance is made only
    # for a map with a failure, once however many laws fail in it.  The
    # first map of each suite fails twice, the second only by a string.
    calls = {"class_relations": [], "slg_conclusions": []}

    def battery(suite):
        def verdicts(*args):
            calls[suite].append(args)
            n = len(calls[suite])
            return {
                "holds": True,
                "fails": n > 1,
                "detailed": n > 2 or f"{suite} map {n}",
                "skipped": None,
            }

        return verdicts

    made = []

    def counted(make_id):
        def make(x):
            made.append(x)
            return make_id(x)

        return make

    for name, suite in (
        ("check_class_relations", "class_relations"),
        ("check_twisted_slg", "slg_conclusions"),
    ):
        monkeypatch.setattr(enumeration, name, battery(suite))
    monkeypatch.setattr(enumeration, "_table_id", counted(enumeration._table_id))
    monkeypatch.setattr(enumeration, "_spec_id", counted(enumeration._spec_id))
    config = SweepConfig(max_exhaustive_order=2, suites=tuple(calls), **_TINY_FAMILY)
    report = run_sweep(config)
    (g1,), (g2,), *_ = calls["class_relations"]
    twists = calls["slg_conclusions"][:2]
    instances = {
        "class_relations": [f"order={g.order} rows={g.rows}" for g in (g1, g2)],
        "slg_conclusions": [f"star={star.rows} alpha={f}" for _, star, f in twists],
    }
    expected = []
    for suite, (first, second) in instances.items():
        expected += [
            Counterexample(suite, "fails", first),
            Counterexample(suite, "detailed", first, f"{suite} map 1"),
            Counterexample(suite, "detailed", second, f"{suite} map 2"),
        ]
    assert report.counterexamples == tuple(
        sorted(expected, key=lambda c: (c.suite, c.law, c.instance, c.detail))
    )
    assert made == [g1, g2]
    for suite, seen in calls.items():
        assert len(seen) > 1
        for law in ("holds", "fails", "detailed"):
            assert report.counts[f"{suite}.{law}"] == len(seen)
        assert f"{suite}.skipped" not in report.counts


def test_passing_sweep_formats_no_detail(monkeypatch):
    # On a passing sweep of every suite, each verdict is True or None, so
    # no failure detail is built and no instance is made.
    import gpdtools.enumeration as enumeration

    verdicts_seen, made = [], []

    def recording(runner):
        def run(chunk):
            for verdicts, instance in runner(chunk):
                verdicts_seen.extend(verdicts.values())
                yield verdicts, instance

        return run

    def never(x):
        made.append(x)
        return ""

    for name, runner in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, recording(runner))
    monkeypatch.setattr(enumeration, "_table_id", never)
    monkeypatch.setattr(enumeration, "_spec_id", never)
    config = SweepConfig(
        max_exhaustive_order=2,
        sample_count=20,
        max_semilattice_order=2,
        max_group_order=2,
    )
    report = run_sweep(config)
    assert report.passed
    assert set(report.config.suites) == set(SUITES)
    assert verdicts_seen
    assert all(ok is True or ok is None for ok in verdicts_seen)
    assert None in verdicts_seen
    assert made == []


def test_built_in_suites_leave_out_the_laws_they_skip():
    # A built-in suite leaves a law out of its verdict map when the law's
    # hypotheses fail, so it yields no None; class_relations alone yields
    # check_class_relations' public report, whose vacuous laws are None.
    config = SweepConfig(
        max_exhaustive_order=2,
        sample_count=20,
        max_semilattice_order=2,
        max_group_order=3,
    )
    chunk = enumeration._Chunk(config, 0, 1)
    skipped = {}
    for name in _BUILT_IN_SUITES:
        maps = [verdicts for verdicts, _ in SUITES[name](chunk)]
        assert any(maps), name
        skipped[name] = sum(None in verdicts.values() for verdicts in maps)
    assert skipped.pop("class_relations") > 0
    assert skipped == dict.fromkeys(skipped, 0)
