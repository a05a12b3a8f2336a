"""Twisting, membership scans, conclusion batteries, and the decision."""

import itertools

import pytest

from gpdtools import (
    CRITERIA,
    SLG_CONCLUSIONS,
    Groupoid,
    NotInvolution,
    PreconditionViolated,
    TheoremViolation,
    VARIETIES,
    ad_membership_characterized,
    ad_membership_direct,
    ad_membership_profile,
    check_class_relations,
    check_twisted_semigroup,
    check_twisted_slg,
    decide,
    identity_mapping,
    in_semigroup_class,
    involutions,
    involutive_automorphisms,
    is_homomorphism,
    is_semilattice_of_groups,
    parse_groupoid,
    random_groupoids,
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
            from gpdtools import shifted_associativity

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
    for g in _all_tables(2):
        assert is_semilattice_of_groups(g) == _oracle_slg(g)
    for g in itertools.islice(random_groupoids(3, 300, seed=59), 300):
        assert is_semilattice_of_groups(g) == _oracle_slg(g)


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
    for g in (BAND3, FLIP2, Z3, Z3_TWIST, CHAIN2):
        for tag in VARIETIES:
            direct = ad_membership_direct(g, tag)
            char = ad_membership_characterized(g, tag)
            assert (direct is None) == (char is None)
            if char is not None:
                star = untwist(g, char)
                assert in_semigroup_class(star, tag)
                assert is_homomorphism(char, star, star)


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


def test_twisted_semigroup_preconditions():
    with pytest.raises(PreconditionViolated):
        check_twisted_semigroup(Z3_TWIST, Z3_TWIST, Z3_NEGATION)  # base not assoc
    with pytest.raises(PreconditionViolated):
        check_twisted_semigroup(Z3_TWIST, Z3, (1, 0, 2))  # not an automorphism
    with pytest.raises(PreconditionViolated):
        check_twisted_semigroup(Z3, Z3, Z3_NEGATION)  # twist-back mismatch


def test_slg_battery_names_and_fixture():
    assert len(SLG_CONCLUSIONS) == 13
    results = check_twisted_slg(Z3_TWIST, Z3, Z3_NEGATION)
    assert set(results) == set(SLG_CONCLUSIONS)
    assert all(results.values())


def test_slg_battery_preconditions():
    with pytest.raises(PreconditionViolated):
        check_twisted_slg(BAND3, BAND3, identity_mapping(3))  # base not a SLG
    with pytest.raises(PreconditionViolated):
        check_twisted_slg(Z3, Z3, Z3_NEGATION)  # twist-back mismatch


def test_class_relations_fixtures():
    for g in (BAND3, FLIP2, Z3, Z3_TWIST, CHAIN2):
        report = check_class_relations(g)
        assert report["ok"], report


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


def test_decide_disagreement_raises(monkeypatch):
    import gpdtools.determination as det

    real = det._criterion_right_bol

    def flipped(g):
        verdict = real(g)
        return det.CriterionVerdict(
            not verdict.passed, verdict.alpha, verdict.failed_conditions
        )

    monkeypatch.setattr(det, "_criterion_right_bol", flipped)
    with pytest.raises(TheoremViolation):
        decide(Z3_TWIST)
