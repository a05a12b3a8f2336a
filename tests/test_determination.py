"""Twisting, membership scans, conclusion batteries, and the decision."""

import collections
import functools
import hashlib
import itertools
import random

import pytest

import gpdtools.determination as det
import gpdtools.enumeration as enumeration
import gpdtools.inverses as inverses
import gpdtools.mappings as mappings
from gpdtools import (
    CLASS_RELATION_LAWS,
    CRITERIA,
    SLG_CONCLUSIONS,
    Groupoid,
    NotInverse,
    NotInvolution,
    PreconditionViolated,
    SweepConfig,
    TheoremViolation,
    VARIETIES,
    ad_membership_characterized_profile,
    ad_membership_direct,
    ad_membership_profile,
    automorphisms,
    build_determined,
    build_strong_slg,
    check_class_relations,
    check_twisted_semigroup,
    check_twisted_slg,
    decide,
    enumerate_groupoids,
    enumerate_specs,
    idempotents_form_semilattice,
    identity_mapping,
    in_semigroup_class,
    inverse_table,
    involutions,
    involutive_automorphisms,
    is_completely_inverse,
    is_homomorphism,
    is_right_bol,
    is_semilattice_of_groups,
    parse_cspec,
    parse_groupoid,
    random_groupoids,
    run_sweep,
    satisfies_variety,
    shifted_associativity,
    square_subgroupoid,
    strongly_regular_witness,
    twist,
    untwist,
)
from gpdtools.fixtures import (
    BAND3,
    FLIP2,
    FLIP2_SWAP,
    Z3,
    Z3_NEGATION,
    Z3_TWIST,
)
from gpdtools.inverses import _Facts

from .test_clifford import _relabel
from .test_inverses import (
    _antihomomorphism,
    _cyclic_chain_cspec,
    _mutations,
    _negation_twist,
    _oracle_inverses,
)
from .test_mappings import (
    SHIFT_CORPUS_SIZE,
    _left_zero_band,
    _null_semigroup,
    _shift_corpus,
)

CHAIN2 = parse_groupoid("3\n0 0 0\n0 1 2\n0 2 1\n")  # trivial group under Z2


def _all_tables(n):
    for flat in itertools.product(range(n), repeat=n * n):
        yield Groupoid(tuple(flat[i * n : (i + 1) * n] for i in range(n)))


def test_twist_definition_and_inverse():
    assert twist(Z3, Z3_NEGATION) == Z3_TWIST
    assert untwist(Z3_TWIST, Z3_NEGATION) == Z3
    for g in itertools.islice(random_groupoids(3, 100, seed=43), 100):
        for f in involutions(3):
            t = twist(g, f)
            assert all(
                t.product(x, y) == g.product(f[x], y) for x in range(3) for y in range(3)
            )
            assert untwist(t, f) == g
            assert twist(untwist(g, f), f) == g


def test_twist_requires_involution():
    with pytest.raises(NotInvolution):
        twist(Z3, (1, 2, 0))
    with pytest.raises(NotInvolution):
        untwist(Z3, (0, 0, 0))
    # Images are ints, as parse_mapping reads them: (True, False) is not
    # taken for the involution (1, 0).
    assert twist(FLIP2, FLIP2_SWAP) == Groupoid(((0, 0), (1, 1)))
    for f in ((True, False), (1, 0.0), (1, "0")):
        with pytest.raises(NotInvolution):
            twist(FLIP2, f)


def test_automorphism_transfers_across_twist():
    # f is an automorphism of the base exactly when it is one of the twist.
    for g in itertools.islice(random_groupoids(3, 200, seed=47), 200):
        for f in involutions(3):
            t = twist(g, f)
            assert is_homomorphism(f, g, g) == is_homomorphism(f, t, t)


def test_shift_law_matches_base_associativity():
    # For an involutive automorphism, the shifted triple law on the twist is
    # exactly associativity of the base.
    for g in itertools.islice(random_groupoids(3, 200, seed=53), 200):
        for f in involutive_automorphisms(g):
            t = twist(g, f)
            assert shifted_associativity(t, f) == g.is_associative()


def _oracle_slg(g):
    """Union of groups with commuting idempotents, by the raw definitions."""
    if not g.is_associative():
        return False
    n = g.order
    idem = [e for e in range(n) if g.product(e, e) == e]
    for e in idem:
        for f in idem:
            if g.product(e, f) != g.product(f, e):
                return False
    for a in range(n):
        in_group = False
        for e in idem:
            if g.product(e, a) != a or g.product(a, e) != a:
                continue
            if any(
                g.product(a, b) == e and g.product(b, a) == e for b in range(n)
            ):
                in_group = True
                break
        if not in_group:
            return False
    return True


def test_semilattice_of_groups_against_oracle():
    assert is_semilattice_of_groups(Z3)
    assert is_semilattice_of_groups(CHAIN2)
    assert not is_semilattice_of_groups(BAND3)  # idempotents do not commute
    assert not is_semilattice_of_groups(FLIP2)
    assert not is_semilattice_of_groups(Z3_TWIST)  # not associative
    members = 0
    for g in itertools.chain(_all_tables(2), _all_tables(3)):
        expected = _oracle_slg(g)
        assert is_semilattice_of_groups(g) == expected
        members += expected
    assert members == 4 + 24


def _two_sided_slg(g):
    """Associative, every a in both a²S and Sa², and commuting idempotents,
    by raw loops."""
    if not g.is_associative():
        return False
    n = g.order
    for a in range(n):
        sq = g.product(a, a)
        if all(g.product(sq, s) != a for s in range(n)):
            return False
        if all(g.product(s, sq) != a for s in range(n)):
            return False
    idem = [e for e in range(n) if g.product(e, e) == e]
    return all(g.product(e, f) == g.product(f, e) for e in idem for f in idem)


def test_semilattice_of_groups_needs_only_one_side():
    # Associative with commuting idempotents, but 1 is not in 1²S = {0}:
    # only the a²S test rejects the order-2 null semigroup.
    assert not is_semilattice_of_groups(_null_semigroup(2))
    exhaustive = (g for n in (1, 2, 3) for g in enumerate_groupoids(n))
    strong = (build_strong_slg(spec) for spec in enumerate_specs(3, 4))
    samples = random_groupoids(4, 5000, seed=71)
    positives = 0
    for g in itertools.chain(exhaustive, strong, samples):
        expected = _two_sided_slg(g)
        assert is_semilattice_of_groups(g) == expected, g.rows
        positives += expected
    # Orders 1-3 have 1 + 4 + 24, every strong table is one, no sample is.
    assert positives == 1 + 4 + 24 + 10_933


def _oracle_direct(g, tag, oracle_identity):
    """First involution whose untwisted table is an associative member of
    the class and which is an automorphism of that table — raw loops."""
    n = g.order
    for f in involutions(n):
        star_rows = tuple(
            tuple(g.product(f[x], y) for y in range(n)) for x in range(n)
        )
        star = Groupoid(star_rows)
        if not star.is_associative():
            continue
        if not oracle_identity(star.product, range(n)):
            continue
        if not all(
            f[star.product(x, y)] == star.product(f[x], f[y])
            for x in range(n)
            for y in range(n)
        ):
            continue
        return f
    return None


def test_direct_membership_against_oracle():
    from .test_groupoid import _ORACLES

    tables = list(_all_tables(2))
    tables.extend(itertools.islice(random_groupoids(3, 60, seed=61), 60))
    for g in tables:
        profile = ad_membership_profile(g)
        for tag in VARIETIES:
            expected = _oracle_direct(g, tag, _ORACLES[tag])
            assert ad_membership_direct(g, tag) == expected
            assert profile[tag] == expected


@pytest.mark.parametrize("membership", [ad_membership_direct])
def test_membership_rejects_unknown_tag(membership):
    with pytest.raises(ValueError, match="unknown variety tag 'XX'"):
        membership(Z3, "XX")


def test_membership_profile_agrees_with_direct_on_small_tables():
    tables = {}
    exhaustive = itertools.chain.from_iterable(
        enumerate_groupoids(n) for n in (1, 2, 3)
    )
    for g in itertools.chain(exhaustive, random_groupoids(4, 2000, seed=67)):
        tables[g] = None
        tables[square_subgroupoid(g)[0]] = None
    # Every square subgroupoid is an exhaustive table or its own sample.
    assert len(tables) == 19_700 + 2000
    # The twists of the semigroups of order <= 4 by their involutive
    # automorphisms hold hundreds of tables with two or more shift candidates,
    # where a class's first witness need not be the first candidate.
    twists = {
        twist(s, f)
        for n in (1, 2, 3, 4)
        for s in _semigroups(n)
        for f in involutive_automorphisms(s)
    }
    assert len(twists) == 4212
    several = 0
    for g in twists:
        tables[g] = None
        shifts = [f for f in involutive_automorphisms(g) if shifted_associativity(g, f)]
        several += len(shifts) > 1
    assert several == 341
    # The twists of order <= 3 are exhaustive tables, and no order-4 twist
    # is a sample.
    assert len(tables) == 19_700 + 2000 + 4071
    for g in tables:
        expected = {tag: ad_membership_direct(g, tag) for tag in VARIETIES}
        assert ad_membership_profile(g) == expected, g.rows
        assert ad_membership_characterized_profile(g) == expected, g.rows


def _squares_to_one(n):
    """``x*x = 1`` for ``x >= 2`` and every other product 0: each
    involution of 2..n-1 is a shift candidate, and each untwists to a
    different table."""
    return Groupoid(
        tuple(tuple(int(x >= 2 and y == x) for y in range(n)) for x in range(n))
    )


@pytest.mark.parametrize(
    "g",
    [_null_semigroup(n) for n in range(1, 9)]
    + [_left_zero_band(n) for n in range(1, 9)]
    + [_squares_to_one(n) for n in range(3, 8)],
    ids=[f"null{n}" for n in range(1, 9)]
    + [f"band{n}" for n in range(1, 9)]
    + [f"squares{n}" for n in range(3, 8)],
)
def test_membership_profile_agrees_with_direct_on_repeated_rows(g):
    # On the null semigroups every shift candidate untwists to one table,
    # which the profile checks once; on the square-to-one tables each
    # candidate untwists to a table of its own.
    expected = {tag: ad_membership_direct(g, tag) for tag in VARIETIES}
    assert ad_membership_profile(g) == expected


@pytest.mark.parametrize(
    "g, tables",
    [(_squares_to_one(8), 76), (_null_semigroup(12), 1)],
    ids=["squares8", "null12"],
)
def test_membership_profile_untwists_each_distinct_table_once(g, tables, monkeypatch):
    # Some class never gets a witness on these tables, so the profile reads
    # every candidate; the null semigroup's 35,696 all untwist to itself.
    untwisted = []

    def counted(h, f):
        untwisted.append(f)
        return untwist(h, f)

    monkeypatch.setattr(det, "untwist", counted)
    profile = ad_membership_profile(g)
    assert None in profile.values()
    candidates = det._isomorphisms(g, g, det._shift_images(g))
    assert len({untwist(g, f).rows for f in candidates}) == tables
    assert len({untwist(g, f).rows for f in untwisted}) == len(untwisted) == tables


def test_fixture_membership_profiles():
    assert {t: w for t, w in ad_membership_profile(BAND3).items() if w} == {
        "B": (0, 1, 2),
        "IB": (0, 1, 2),
        "GB": (0, 1, 2),
    }
    assert {t: w for t, w in ad_membership_profile(FLIP2).items() if w} == {
        "B": (1, 0),
        "L0": (1, 0),
        "RB": (1, 0),
        "IB": (1, 0),
        "IL0": (1, 0),
        "IRB": (1, 0),
        "GB": (1, 0),
        "GL0": (1, 0),
        "GRB": (1, 0),
    }
    assert all(w is None for w in ad_membership_profile(Z3_TWIST).values())
    assert all(w is None for w in ad_membership_profile(Z3).values())


def test_characterized_membership_matches_direct_on_fixtures():
    built = (
        h
        for spec in enumerate_specs(2, 3)
        for h in (build_determined(spec)[0], build_strong_slg(spec))
        if h.order <= 6
    )
    for g in itertools.chain((BAND3, FLIP2, Z3, Z3_TWIST, CHAIN2), built):
        profile = ad_membership_characterized_profile(g)
        for tag in VARIETIES:
            direct = ad_membership_direct(g, tag)
            char = profile[tag]
            assert char == direct, (g.rows, tag)
            if char is not None:
                star = untwist(g, char)
                assert in_semigroup_class(star, tag)
                assert is_homomorphism(char, star, star)


def test_characterized_profile_without_shift_domain_reads_no_class_law(
    monkeypatch,
):
    """Every witness is a shift candidate, so a table with no shift domain
    is in no class, and the route returns before its first class law: of
    the 19,700 tables of order <= 3, 19,497 have none and none of them is
    associative."""
    tables = [
        g
        for n in (1, 2, 3)
        for g in enumerate_groupoids(n)
        if mappings._shift_images(g) is None
    ]
    assert len(tables) == 19_497
    assert not any(g.is_associative() for g in tables)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for owner, name in ((Groupoid, "is_associative"), (det, "satisfies_variety")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for g in tables:
        assert ad_membership_characterized_profile(g) == dict.fromkeys(VARIETIES)
    assert calls == {}
    ad_membership_characterized_profile(Z3)
    assert calls["is_associative"] == 1 and calls["satisfies_variety"] > 0


def test_twisted_semigroup_battery():
    assert check_twisted_semigroup(Z3_TWIST, Z3, Z3_NEGATION) == {
        "shifted_associativity": True,
        "right_bol": True,
        "alpha_isomorphism": False,
        "tables_equal": False,
        "isomorphism_iff_equal": True,
    }
    assert check_twisted_semigroup(Z3, Z3, identity_mapping(3)) == {
        "shifted_associativity": True,
        "right_bol": True,
        "alpha_isomorphism": True,
        "tables_equal": True,
        "isomorphism_iff_equal": True,
    }


_NOT_AUTOMORPHISM = "mapping is not a self-inverse automorphism of the base table"


def test_twisted_semigroup_preconditions():
    with pytest.raises(PreconditionViolated):
        check_twisted_semigroup(Z3_TWIST, Z3_TWIST, Z3_NEGATION)  # base not assoc
    with pytest.raises(PreconditionViolated):
        check_twisted_semigroup(Z3_TWIST, Z3, (1, 0, 2))  # not an automorphism
    with pytest.raises(PreconditionViolated):
        check_twisted_semigroup(Z3, Z3, Z3_NEGATION)  # twist-back mismatch
    for f in ((0, 1), (0, 2, 1, 3)):  # a map of the wrong length
        with pytest.raises(PreconditionViolated, match=_NOT_AUTOMORPHISM):
            check_twisted_semigroup(Z3_TWIST, Z3, f)


def test_slg_battery_names_and_fixture():
    assert len(SLG_CONCLUSIONS) == 13
    results = check_twisted_slg(Z3_TWIST, Z3, Z3_NEGATION)
    assert set(results) == set(SLG_CONCLUSIONS)
    assert all(results.values())


_FORK = Groupoid(((0, 0, 0), (0, 1, 0), (0, 0, 2)))


@pytest.mark.parametrize(
    "g, star, f, problem",
    [
        (Z3_TWIST, Z3, Z3_NEGATION, None),
        (BAND3, BAND3, (0, 1, 2), "base table is not a semilattice of groups"),
        (Z3, Z3, (1, 0, 2), _NOT_AUTOMORPHISM),
        (
            twist(_FORK, (0, 2, 1)),
            _FORK,
            (0, 2, 1),
            "mapping does not fix every idempotent of the base table",
        ),
        (Z3, Z3, Z3_NEGATION, "groupoid is not the twist of the base table"),
        (Z3_TWIST, Z3, (0, 1), _NOT_AUTOMORPHISM),
        (Z3_TWIST, Z3, (0, 2, 1, 3), _NOT_AUTOMORPHISM),
    ],
    ids=["holds", "base", "automorphism", "idempotents", "twist", "short", "long"],
)
def test_slg_twist_hypothesis_names_the_first_unmet_part(g, star, f, problem):
    # decide verifies its witness with the same check.
    assert det._slg_twist_problem(g, star, f) == problem
    if problem is not None:
        with pytest.raises(PreconditionViolated, match=problem):
            check_twisted_slg(g, star, f)


def test_slg_battery_preconditions():
    with pytest.raises(PreconditionViolated):
        check_twisted_slg(BAND3, BAND3, identity_mapping(3))  # base not a SLG
    with pytest.raises(PreconditionViolated):
        check_twisted_slg(Z3, Z3, Z3_NEGATION)  # twist-back mismatch


def test_class_relations_fixtures():
    for g in (BAND3, FLIP2, Z3, Z3_TWIST, CHAIN2):
        report = check_class_relations(g)
        assert False not in report.values(), report


def test_class_relation_laws_name_every_report_and_sweep_count():
    fixtures = (BAND3, FLIP2, Z3, Z3_TWIST, CHAIN2)
    for g in itertools.chain(fixtures, enumerate_groupoids(1), enumerate_groupoids(2)):
        assert tuple(check_class_relations(g)) == CLASS_RELATION_LAWS
    config = SweepConfig(
        max_exhaustive_order=2,
        sample_count=0,
        max_semilattice_order=1,
        max_group_order=2,
        suites=("class_relations",),
    )
    laws = {law.removeprefix("class_relations.") for law in run_sweep(config).counts}
    assert laws and laws <= set(CLASS_RELATION_LAWS)


def _reference_class_relations(g):
    """check_class_relations with the product subtable relabelled and
    profiled on every table, surjective or not."""
    membership = ad_membership_profile(g)
    members = g.products()
    index = {v: i for i, v in enumerate(members)}
    squares = Groupoid(
        tuple(tuple(index[g.rows[x][y]] for y in members) for x in members)
    )
    square_membership = ad_membership_profile(squares)
    member = {tag: membership[tag] is not None for tag in VARIETIES}
    report = {}
    for base, inflation, generalized in det.DESCENT_PAIRS:
        report[f"inclusion_chain.{base}"] = (
            member[inflation] or not member[base]
        ) and (member[generalized] or not member[inflation])
        report[f"square_descent.{base}"] = (
            not member[generalized] or square_membership[base] is not None
        )
    associative = g.is_associative()
    surjective = len(members) == g.order
    for tag in VARIETIES:
        witness = membership[tag]
        if witness is None or not associative:
            identity, iso = True, None
        else:
            identity = satisfies_variety(g, tag)
            iso = None
            if surjective or tag in det.ISOMORPHISM_CLASSES:
                iso = is_homomorphism(witness, untwist(g, witness), g)
        report[f"semigroup_identity.{tag}"] = identity
        report[f"twist_isomorphism.{tag}"] = iso
    return report


def test_class_relations_matches_reference_profiling_squares():
    # Reusing the table's own profile for a surjective table changes nothing.
    for n in (1, 2, 3):
        for g in enumerate_groupoids(n):
            assert check_class_relations(g) == _reference_class_relations(g)


@functools.cache
def _semigroups(n):
    """Every associative table on 0..n-1, in lexicographic order, listed
    once per session."""
    return tuple(enumeration._associative_tables(n, lambda rows, x, y: range(n)))


def test_class_relations_match_reference_on_twisted_order_4_semigroups():
    # A twist of a semigroup by an involutive automorphism is in the derived
    # class of every class its base is in, so, unlike the tables of order
    # <= 3, this corpus is rich in reports that are not all vacuous.
    semigroups = _semigroups(4)
    assert len(semigroups) == 3492
    corpus = {twist(s, f) for s in semigroups for f in involutive_automorphisms(s)}
    assert len(corpus) == 4071
    members = [g for g in corpus if any(ad_membership_profile(g).values())]
    assert len(members) == 1547
    reports = {g: check_class_relations(g) for g in corpus}
    # A member's report reads like the vacuous one when no isomorphism
    # claim applies to it, since every law that does apply holds.
    assert sum(r != det._VACUOUS_RELATIONS for r in reports.values()) == 1148
    for g, report in reports.items():
        assert False not in report.values(), g
        assert report == _reference_class_relations(g), g


@pytest.mark.parametrize(
    "n, twists, determined", [(1, 1, 1), (2, 9, 4), (3, 131, 27), (4, 4071, 320)]
)
def test_decided_twists_are_the_twisted_semilattices_of_groups(n, twists, determined):
    # The census from the definition: among all twists of the semigroups of
    # order n by their involutive automorphisms, decide accepts exactly the
    # twists of semilattices of groups by maps fixing every idempotent.
    semigroups = _semigroups(n)
    corpus = {twist(s, f) for s in semigroups for f in involutive_automorphisms(s)}
    assert len(corpus) == twists
    defined = {
        twist(s, f)
        for s in semigroups
        if is_semilattice_of_groups(s)
        for f in involutive_automorphisms(s)
        if all(f[e] == e for e in s.idempotents())
    }
    assert len(defined) == determined
    assert {g for g in corpus if decide(g).determined} == defined


def test_decide_fixtures():
    assert set(CRITERIA) == {
        "completely_inverse_automorphism",
        "strong_regularity",
        "right_bol_canonical",
    }
    rep = decide(Z3_TWIST)
    assert rep.determined
    assert rep.witness.alpha == Z3_NEGATION
    assert rep.witness.star == Z3
    assert rep.witness.criterion == "completely_inverse_automorphism"
    assert set(rep.criteria) == set(CRITERIA)
    assert all(v.passed for v in rep.criteria.values())

    rep = decide(CHAIN2)
    assert rep.determined
    assert rep.witness.alpha == identity_mapping(3)
    assert rep.witness.star == CHAIN2

    rep = decide(BAND3)
    assert not rep.determined
    assert rep.witness is None
    assert rep.criteria["completely_inverse_automorphism"].failed_conditions == (
        "completely_inverse",
        "idempotent_semilattice_or_inverse_antihomomorphism",
    )
    assert rep.criteria["strong_regularity"].failed_conditions == (
        "idempotent_semilattice",
    )
    assert rep.criteria["right_bol_canonical"].failed_conditions == (
        "completely_inverse",
        "canonical_map_undefined",
    )

    rep = decide(FLIP2)
    assert not rep.determined
    assert rep.criteria["strong_regularity"].failed_conditions == (
        "strongly_regular",
    )


def test_decide_large_negation_twist():
    n = 64
    g = Groupoid(tuple(tuple((y - x) % n for y in range(n)) for x in range(n)))
    rep = decide(g)
    assert rep.determined
    assert all(v.passed for v in rep.criteria.values())
    assert twist(rep.witness.star, rep.witness.alpha) == g


def _reference_criterion_completely_inverse(g):
    """Criterion 1 as a filter over the full involutive-automorphism list."""
    failed = []
    if not is_completely_inverse(g):
        failed.append("completely_inverse")
    alpha = None
    shift_seen = False
    for f in involutive_automorphisms(g):
        if not shifted_associativity(g, f):
            continue
        shift_seen = True
        if idempotents_form_semilattice(g) or _antihomomorphism(g, f):
            alpha = f
            break
    if alpha is None:
        failed.append(
            "shifted_associativity"
            if not shift_seen
            else "idempotent_semilattice_or_inverse_antihomomorphism"
        )
    return det.CriterionVerdict(not failed, alpha, tuple(failed))


def _reference_criterion_strongly_regular(g):
    """Criterion 2 as a filter over the full involutive-automorphism list."""
    failed = []
    if strongly_regular_witness(g) is None:
        failed.append("strongly_regular")
    if not idempotents_form_semilattice(g):
        failed.append("idempotent_semilattice")
    idem = g.idempotents()
    alpha = next(
        (
            f
            for f in involutive_automorphisms(g)
            if all(f[e] == e for e in idem) and shifted_associativity(g, f)
        ),
        None,
    )
    if alpha is None:
        failed.append("shifted_associativity")
    return det.CriterionVerdict(not failed, alpha, tuple(failed))


def test_pruned_criteria_agree_with_filtered_reference():
    tables = 0
    for g in _shift_corpus():
        facts = _Facts(g)
        pruned = (
            det._criterion_completely_inverse(facts),
            det._criterion_strongly_regular(facts),
        )
        reference = (
            _reference_criterion_completely_inverse(g),
            _reference_criterion_strongly_regular(g),
        )
        assert pruned == reference, g.rows
        tables += 1
    assert tables == SHIFT_CORPUS_SIZE


def test_completely_inverse_criterion_walks_candidates_only_when_needed(
    monkeypatch,
):
    laws = []

    def counted_law(facts, f):
        laws.append(f)
        return False

    monkeypatch.setattr(_Facts, "antihomomorphism", counted_law)
    # Idempotents a semilattice: the first candidate settles the verdict.
    assert det._criterion_completely_inverse(_Facts(Z3_TWIST)).passed
    # No inverse table: the law fails for every f and is never consulted.
    det._criterion_completely_inverse(_Facts(_left_zero_band(4)))
    assert laws == []
    # Otherwise every shift candidate goes through the law.
    facts = _Facts(Z3_TWIST)
    facts.e_semilattice = False
    verdict = det._criterion_completely_inverse(facts)
    assert laws == [Z3_NEGATION]
    assert verdict.failed_conditions == (
        "idempotent_semilattice_or_inverse_antihomomorphism",
    )


def test_decide_reports_are_pinned():
    # sha256 of the concatenated decide(g).to_json() over the corpus,
    # measured before the shift-law domain entered the search.  decide
    # reads the inverse kernel directly: inverse_table's cache is untouched.
    digest = hashlib.sha256()
    cache = inverse_table.cache_info()
    for g in _shift_corpus():
        digest.update(decide(g).to_json().encode())
    assert digest.hexdigest() == (
        "2ff23abba247b6184996344426c7954f4635091de1f1c52f7fe70fae088dc5fa"
    )
    assert inverse_table.cache_info() == cache


def test_large_positive_reports_are_pinned():
    # sha256 of the concatenated decide(g).to_json() over five cyclic
    # Clifford chains of order 14 to 62 and the Z_40 and Z_48 negation
    # twists, measured while is_right_bol made O(n^3) row comparisons.
    chains = ((2, 4, 8), (4, 8, 16), (6, 12, 24), (8, 16, 32), (2, 4, 8, 16, 32))
    tables = [build_determined(parse_cspec(_cyclic_chain_cspec(c)))[0] for c in chains]
    assert [g.order for g in tables] == [14, 28, 42, 56, 62]
    tables += [_negation_twist(40), _negation_twist(48)]
    digest = hashlib.sha256()
    for g in tables:
        rep = decide(g)
        assert rep.determined
        digest.update(rep.to_json().encode())
    assert digest.hexdigest() == (
        "24e0cd88c4b7c4c2fea4856b606ad47a6a75bdaaae6738f9accc5e1182ccd872"
    )


def test_membership_reports_are_pinned():
    # sha256 of the concatenated profile and characterized witnesses over
    # the corpus tables of order <= 12, measured while both routes filtered
    # the full involutive-automorphism list and L0 scanned every involution.
    # That scan cannot finish on the Z_16/32/64 twists, so they are left out.
    digest = hashlib.sha256()
    tables = 0
    for g in _shift_corpus():
        if g.order > 12:
            continue
        reports = (
            ad_membership_profile(g),
            list(ad_membership_characterized_profile(g).values()),
        )
        digest.update(repr(reports).encode())
        tables += 1
    assert tables == SHIFT_CORPUS_SIZE - 3
    assert digest.hexdigest() == (
        "ae7a4eb83335b3ae98a9fa5de0e8ef7b76631dc57aed53b1a3d62b603f6f427f"
    )


_BAND_CLASSES = {"B", "L0", "RB", "IB", "IL0", "IRB", "GB", "GL0", "GRB"}
_NULL_CLASSES = {"IB", "IL0", "IR0", "IRB", "GB", "GL0", "GR0", "GRB"}


@pytest.mark.parametrize(
    "g, members",
    [
        (_left_zero_band(9), _BAND_CLASSES),
        (_left_zero_band(12), _BAND_CLASSES),
        (_null_semigroup(12), _NULL_CLASSES),
        (_negation_twist(64), set()),
    ],
    ids=["band9", "band12", "null12", "z64twist"],
)
def test_membership_routes_never_list_involutions(g, members, monkeypatch):
    """Both membership routes get their maps from the shift-law search
    alone: neither the bare involutions nor the full involutive list of
    the table is ever built."""

    def refuse(*args):
        raise AssertionError("membership route listed involutions")

    monkeypatch.setattr(det, "involutions", refuse)
    monkeypatch.setattr(det, "involutive_automorphisms", refuse, raising=False)
    monkeypatch.setattr(mappings, "involutions", refuse)
    monkeypatch.setattr(mappings, "involutive_automorphisms", refuse)
    profile = ad_membership_profile(g)
    characterized = ad_membership_characterized_profile(g)
    assert {tag for tag, f in characterized.items() if f is not None} == members
    assert {tag for tag, f in profile.items() if f is not None} == members
    if members == _BAND_CLASSES:
        identity = identity_mapping(g.order)
        expected = {tag: identity if tag in members else None for tag in VARIETIES}
        assert profile == characterized == expected


#: Over the 4,212 twists of order <= 4, the built tables of
#: enumerate_specs(3, 4) and the shift corpus, no class search of the
#: characterised route yields more than two maps; this is the first of the
#: 108 tables where one yields two: IB's filter walks two candidates and
#: neither meets the whole IB law.
_WIDEST_CLASS_SEARCH = Groupoid(
    ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 2, 3))
)


@pytest.mark.parametrize(
    "g, members, yielded, widest",
    [
        (_null_semigroup(16), _NULL_CLASSES, 5, 1),
        (_left_zero_band(16), _BAND_CLASSES, 6, 1),
        (_squares_to_one(16), set(), 0, 0),
        (_WIDEST_CLASS_SEARCH, set(), 2, 2),
    ],
    ids=["null16", "band16", "squares16", "widest"],
)
def test_characterized_profile_takes_few_maps(g, members, yielded, widest, monkeypatch):
    """Each class searches the shift domain cut by its own law, so the
    route takes a handful of maps where the candidates run to millions."""
    searched = []

    def bounded_search(*args):
        searched.append(0)
        for f in det_isomorphisms(*args):
            searched[-1] += 1
            if sum(searched) > 8:
                raise AssertionError("characterised route took more than 8 maps")
            yield f

    det_isomorphisms = det._isomorphisms
    monkeypatch.setattr(det, "_isomorphisms", bounded_search)
    profile = ad_membership_characterized_profile(g)
    assert {tag for tag, f in profile.items() if f is not None} == members
    assert sum(searched) == yielded
    assert max(searched, default=0) == widest


@pytest.mark.parametrize(
    "g",
    [_left_zero_band(9), _left_zero_band(12), _null_semigroup(12)],
    ids=["band9", "band12", "null12"],
)
def test_decide_stops_at_first_witness(g, monkeypatch):
    """Neither automorphism list is built, the shifted law is never tested
    map by map, and each shift-law search yields at most one map."""
    shifted_calls = []
    searched = []

    def counted_shift(*args):
        shifted_calls.append(args)
        return shifted_associativity(*args)

    def counted_search(*args, **kwargs):
        # Count only the maps the caller takes from the lazy search.
        searched.append(0)
        for f in det_isomorphisms(*args, **kwargs):
            searched[-1] += 1
            yield f

    det_isomorphisms = det._isomorphisms
    monkeypatch.setattr(det, "shifted_associativity", counted_shift)
    monkeypatch.setattr(mappings, "shifted_associativity", counted_shift)
    monkeypatch.setattr(det, "_isomorphisms", counted_search)
    misses = (
        automorphisms.cache_info().misses,
        involutive_automorphisms.cache_info().misses,
    )
    rep = decide(g)
    assert not rep.determined
    assert (
        automorphisms.cache_info().misses,
        involutive_automorphisms.cache_info().misses,
    ) == misses
    assert shifted_calls == []
    # One search each for the first two criteria, one map at most apiece.
    assert len(searched) <= 2 and all(count <= 1 for count in searched)


def test_decide_left_zero_band_lists_only_involutions():
    # 2,620 involutive automorphisms out of 9! = 362,880 automorphisms.
    g = _left_zero_band(9)
    assert not decide(g).determined
    assert len(involutive_automorphisms(g)) == 2620


@pytest.mark.extended
def test_decide_left_zero_band_order_twelve():
    g = _left_zero_band(12)
    assert not decide(g).determined
    assert len(involutive_automorphisms(g)) == 140_152


def test_decision_and_membership_survive_relabelling():
    # Both are invariant under isomorphism: a seeded relabelling of each
    # table keeps the decision and the set of classes with no witness.
    rng = random.Random(89)
    exhaustive = (g for n in (1, 2, 3) for g in enumerate_groupoids(n))
    samples = random_groupoids(4, 2000, seed=89)
    specs = rng.sample(list(enumerate_specs(3, 4)), 300)
    built = (build_determined(spec)[0] for spec in specs)
    positives = 0
    for g in itertools.chain(exhaustive, samples, built):
        perm = list(range(g.order))
        rng.shuffle(perm)
        h = _relabel(g, perm)
        determined = decide(g).determined
        assert decide(h).determined == determined, (g.rows, perm)
        positives += determined
        if g.order <= 3:
            absent = [w is None for w in ad_membership_profile(g).values()]
            assert [w is None for w in ad_membership_profile(h).values()] == absent
    assert positives == 332  # 32 exhaustive, no sample, 300 built


def test_decide_report_json():
    rep = decide(Z3_TWIST)
    text = rep.to_json()
    assert text == rep.to_json()  # stable
    assert text.endswith("\n")
    import json

    data = json.loads(text)
    assert data["schema"] == "decision_report@1"
    assert data["determined"] is True
    assert data["witness"]["alpha"] == [0, 2, 1]
    assert data["witness"]["star"] == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def _fact_corpus():
    """The shift corpus, then every one-cell mutation of both built tables
    of each spec of ``enumerate_specs(3, 3)``."""
    built = (
        h
        for spec in enumerate_specs(3, 3)
        for g in (build_determined(spec)[0], build_strong_slg(spec))
        for h in _mutations(g)
    )
    return itertools.chain(_shift_corpus(), built)


def test_facts_agree_with_public_predicates():
    tables = 0
    kinds = set()
    for g in _fact_corpus():
        facts = _Facts(g)
        # The inverse table by the definition, not by the kernel that both
        # facts.inv and inverse_table read.
        oracle = [_oracle_inverses(g, x) for x in g]
        bad = next((x for x, invs in enumerate(oracle) if len(invs) != 1), None)
        inv = None
        if bad is None:
            inv = tuple(min(invs) for invs in oracle)
            assert inverse_table(g) == inv, g.rows
        else:
            with pytest.raises(NotInverse) as err:
                inverse_table(g)
            assert (err.value.element, err.value.count) == (bad, len(oracle[bad]))
        assert inverses._inverse_images(g.rows) == inv, g.rows
        assert facts.inv == inv, g.rows
        assert facts.idempotents == g.idempotents()
        assert facts.e_semilattice == idempotents_form_semilattice(g)
        assert facts.completely_inverse == is_completely_inverse(g), g.rows
        assert facts.completely_inverse == (
            inv is not None
            and all(
                g.product(x, inv[x]) == g.product(inv[x], x)
                in g.idempotents()
                for x in g
            )
        ), g.rows
        assert facts.strongly_regular == (strongly_regular_witness(g) is not None)
        assert facts.right_bol == is_right_bol(g), g.rows
        assert facts.shift_images == mappings._shift_images(g), g.rows
        kinds.add((inv is None, facts.completely_inverse, facts.right_bol))
        tables += 1
    assert tables > SHIFT_CORPUS_SIZE
    # Both outcomes of every fact occur, in each combination that can.
    assert kinds == {
        (True, False, False),
        (True, False, True),
        (False, False, False),
        (False, False, True),
        (False, True, False),
        (False, True, True),
    }


@pytest.mark.parametrize(
    "g, determined",
    [
        (BAND3, False),
        (Z3_TWIST, True),
        (_null_semigroup(12), False),
        (_negation_twist(64), True),
    ],
    ids=["band3", "z3twist", "null12", "z64twist"],
)
def test_decide_computes_each_table_fact_once(g, determined, monkeypatch):
    """One decide computes the shift images and the inverse table once,
    however many criteria read them, and never through the cached
    ``inverse_table``."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module in (inverses, det, mappings):
        for name in ("_shift_images", "_inverse_images", "inverse_table"):
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, counted(name, fn))
    assert decide(g).determined == determined
    assert calls["_shift_images"] == 1
    assert calls["_inverse_images"] == 1
    assert calls["inverse_table"] == 0


def test_decide_disagreement_raises(monkeypatch):
    real = det._criterion_right_bol

    def flipped(facts):
        verdict = real(facts)
        return det.CriterionVerdict(
            not verdict.passed, verdict.alpha, verdict.failed_conditions
        )

    monkeypatch.setattr(det, "_criterion_right_bol", flipped)
    # A positive, and a negative whose right-Bol verdict is a shared one.
    for g, determined in ((Z3_TWIST, True), (_null_semigroup(2), False)):
        verdicts = dict.fromkeys(det.CRITERIA, determined)
        verdicts["right_bol_canonical"] = not determined
        with pytest.raises(TheoremViolation) as raised:
            decide(g)
        assert str(raised.value) == (
            f"decision criteria disagree: {verdicts} on table {g.rows!r}"
        )


def test_decide_shares_its_verdicts_without_a_map():
    # A verdict without a map is immutable, so each failure tuple has one
    # shared instance: at most 16 exist, however many tables are decided.
    tables = itertools.chain(
        itertools.chain.from_iterable(enumerate_groupoids(n) for n in (1, 2, 3)),
        random_groupoids(4, 2000, seed=73),
    )
    verdicts = [v for g in tables for v in decide(g).criteria.values()]
    assert len(verdicts) == 3 * 21_700
    mapless = {id(v): v for v in verdicts if v.alpha is None}
    assert len(mapless) <= 16
    assert len({v.failed_conditions for v in mapless.values()}) == len(mapless)
    for v in mapless.values():
        assert v == det.CriterionVerdict(False, None, v.failed_conditions)
