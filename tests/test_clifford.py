"""Block construction data: validation, build, decompose, .cspec format."""

import pytest

from gpdtools import (
    ConstructionSpec,
    Groupoid,
    GroupSpec,
    InvalidSpec,
    MalformedInput,
    MeetSemilattice,
    NotDetermined,
    build_determined,
    build_strong_slg,
    decide,
    decompose,
    is_semilattice_of_groups,
    parse_cspec,
    serialize_cspec,
    twist,
    validate_spec,
)
from gpdtools.fixtures import BAND3, FLIP2, Z3, Z3_TWIST, Z3_TWIST_SPEC

Z1 = GroupSpec(((0,),), (0,))
Z2 = GroupSpec(((0, 1), (1, 0)), (0, 1))
Z3_ID = GroupSpec(Z3.rows, (0, 1, 2))
Z3_NEG = GroupSpec(Z3.rows, (0, 2, 1))
CHAIN = MeetSemilattice(((0, 0), (0, 1)))
POINT = MeetSemilattice(((0,),))

CHAIN_SPEC = ConstructionSpec(CHAIN, (Z1, Z2), (((1, 0), (0, 0)),))
TWISTED_CHAIN_SPEC = ConstructionSpec(CHAIN, (Z1, Z3_NEG), (((1, 0), (0, 0, 0)),))


def test_semilattice_type():
    assert CHAIN.order == 2
    assert CHAIN.leq(0, 1) and not CHAIN.leq(1, 0)
    assert CHAIN.strict_pairs() == ((1, 0),)
    vee = MeetSemilattice(((0, 0, 0), (0, 1, 0), (0, 0, 2)))
    assert vee.strict_pairs() == ((1, 0), (2, 0))
    with pytest.raises(ValueError):
        MeetSemilattice(((0, 0), (0,)))
    with pytest.raises(ValueError):
        MeetSemilattice(((0, 2), (0, 1)))


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(((0, 1),), (0, 1))  # non-square table
    with pytest.raises(ValueError):
        GroupSpec(((0, 1), (1, 0)), (0,))  # involution size mismatch


def test_validate_spec_clean():
    assert validate_spec(Z3_TWIST_SPEC) == []
    assert validate_spec(CHAIN_SPEC) == []
    assert validate_spec(TWISTED_CHAIN_SPEC) == []


def _problems(spec):
    return "\n".join(validate_spec(spec))


def test_validate_spec_bad_meet():
    not_idem = ConstructionSpec(
        MeetSemilattice(((1, 0), (0, 1))), (Z1, Z1), (((1, 0), (0,)),)
    )
    assert "idempotent" in _problems(not_idem)
    # commutativity violation: meet[0][1] != meet[1][0]
    bad = MeetSemilattice(((0, 1, 0), (0, 1, 1), (0, 1, 2)))
    spec = ConstructionSpec(bad, (Z1, Z1, Z1), tuple())
    assert "commutative" in _problems(spec) or "associative" in _problems(spec)


def test_validate_spec_bad_group():
    not_group = GroupSpec(((0, 1), (0, 1)), (0, 1))
    spec = ConstructionSpec(POINT, (not_group,), ())
    assert _problems(spec) != ""


def test_validate_spec_bad_involution():
    # The swap is not an automorphism of Z2 (it moves the identity).
    bad = ConstructionSpec(POINT, (GroupSpec(((0, 1), (1, 0)), (1, 0)),), ())
    assert "automorphism" in _problems(bad) or "identity" in _problems(bad)


def test_validate_spec_hom_pair_coverage():
    missing = ConstructionSpec(CHAIN, (Z1, Z2), ())
    assert "pair" in _problems(missing)
    extra = ConstructionSpec(
        POINT, (Z1,), (((0, 0), (0,)),)
    )
    assert "pair" in _problems(extra)


def test_validate_spec_bad_hom_images():
    out_of_range = ConstructionSpec(CHAIN, (Z1, Z2), (((1, 0), (0, 5)),))
    assert "image" in _problems(out_of_range) or "outside" in _problems(out_of_range)
    # x -> x is not a homomorphism Z2 -> Z1 (images escape the block), use a
    # genuine non-homomorphism instead: Z2 -> Z2 swapping only one value is
    # not even well-formed; send both elements to 1 instead.
    not_hom = ConstructionSpec(
        CHAIN, (Z2, Z2), (((1, 0), (1, 1)),)
    )
    assert "homomorphism" in _problems(not_hom)


def test_validate_spec_involution_compat():
    # Identity connecting map between a negation block and an identity block
    # cannot commute with the involutions.
    spec = ConstructionSpec(CHAIN, (Z3_NEG, Z3_ID), (((1, 0), (0, 1, 2)),))
    assert "does not commute with the block mappings" in _problems(spec)


def test_validate_spec_transitivity():
    chain3 = MeetSemilattice(((0, 0, 0), (0, 1, 1), (0, 1, 2)))
    spec = ConstructionSpec(
        chain3,
        (Z2, Z2, Z2),
        (
            ((1, 0), (0, 0)),  # collapse
            ((2, 0), (0, 1)),  # identity: disagrees with the composite
            ((2, 1), (0, 1)),  # identity
        ),
    )
    assert "composition differs from the direct map" in _problems(spec)


def test_validate_spec_bad_carrier():
    spec = ConstructionSpec(POINT, (Z2,), (), carrier=((0, 0),))
    assert _problems(spec) != ""
    spec = ConstructionSpec(POINT, (Z2,), (), carrier=((0, 2),))
    assert _problems(spec) != ""


def test_build_rejects_invalid():
    with pytest.raises(InvalidSpec):
        build_determined(ConstructionSpec(CHAIN, (Z1, Z2), ()))
    with pytest.raises(InvalidSpec):
        build_strong_slg(ConstructionSpec(CHAIN, (Z1, Z2), ()))


def test_build_chain():
    strong = build_strong_slg(CHAIN_SPEC)
    assert strong.rows == ((0, 0, 0), (0, 1, 2), (0, 2, 1))
    g, alpha = build_determined(CHAIN_SPEC)
    assert (g, alpha) == (strong, (0, 1, 2))
    assert is_semilattice_of_groups(strong)
    assert decompose(g, alpha) == CHAIN_SPEC


def test_build_twisted_chain():
    strong = build_strong_slg(TWISTED_CHAIN_SPEC)
    assert strong.rows == (
        (0, 0, 0, 0),
        (0, 1, 2, 3),
        (0, 2, 3, 1),
        (0, 3, 1, 2),
    )
    g, alpha = build_determined(TWISTED_CHAIN_SPEC)
    assert alpha == (0, 1, 3, 2)
    assert g == twist(strong, alpha)
    assert g.rows == (
        (0, 0, 0, 0),
        (0, 1, 2, 3),
        (0, 3, 1, 2),
        (0, 2, 3, 1),
    )
    assert decompose(g, alpha) == TWISTED_CHAIN_SPEC
    assert decide(g).determined


def test_build_point_fixture():
    g, alpha = build_determined(Z3_TWIST_SPEC)
    assert g == Z3_TWIST
    assert alpha == (0, 2, 1)


def _relabel(g, perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return Groupoid(
        tuple(
            tuple(perm[g.product(inv[x], inv[y])] for y in range(g.order))
            for x in range(g.order)
        )
    )


def test_decompose_noncanonical_numbering():
    # Relabel the twisted chain so its blocks are no longer consecutive;
    # decompose must pin the numbering via the carrier and rebuild exactly.
    g, alpha = build_determined(TWISTED_CHAIN_SPEC)
    perm = (3, 1, 0, 2)
    h = _relabel(g, perm)
    beta = tuple(perm[alpha[ [perm.index(i) for i in range(4)][x] ]] for x in range(4))
    # beta = perm . alpha . perm^-1
    inv = [perm.index(i) for i in range(4)]
    beta = tuple(perm[alpha[inv[x]]] for x in range(4))
    spec = decompose(h, beta)
    assert spec.carrier is not None
    rebuilt, rebuilt_alpha = build_determined(spec)
    assert rebuilt == h
    assert rebuilt_alpha == beta
    # The serialized form drops the carrier, by design.
    assert parse_cspec(serialize_cspec(spec)).carrier is None


def test_decompose_rejections():
    with pytest.raises(NotDetermined):
        decompose(BAND3, (0, 1, 2))  # no unique inverses
    with pytest.raises(NotDetermined):
        decompose(FLIP2, (1, 0))  # not even associative after untwisting
    with pytest.raises(NotDetermined):
        decompose(Z3, (0, 2, 1))  # wrong mapping for this table
    with pytest.raises(NotDetermined):
        decompose(Z3_TWIST, (1, 2, 0))  # not an involution


def test_serialize_cspec_bytes():
    assert serialize_cspec(Z3_TWIST_SPEC) == (
        "semilattice 1\n0\ngroup 0 3\n0 1 2\n1 2 0\n2 0 1\nalpha 0\n0 2 1\n"
    )
    assert serialize_cspec(CHAIN_SPEC) == (
        "semilattice 2\n0 0\n0 1\n"
        "group 0 1\n0\nalpha 0\n0\n"
        "group 1 2\n0 1\n1 0\nalpha 1\n0 1\n"
        "hom 1 0\n0 0\n"
    )


def test_parse_cspec_roundtrip():
    for spec in (Z3_TWIST_SPEC, CHAIN_SPEC, TWISTED_CHAIN_SPEC):
        text = serialize_cspec(spec)
        assert parse_cspec(text) == spec
        assert serialize_cspec(parse_cspec(text)) == text


def test_parse_cspec_with_comments():
    text = "# spec\nsemilattice 1\n0\n# block\ngroup 0 1\n0\nalpha 0\n0\n"
    spec = parse_cspec(text)
    assert spec.semilattice.order == 1
    assert spec.groups[0].order == 1


_CSPEC_ERRORS = [
    ("", 1),
    ("semilattice 1\n0\n", 3),  # missing group section
    ("semilattice 1\n0\ngroup 1 1\n0\nalpha 1\n0\n", 3),  # wrong block label
    ("semilattice 1\n0\ngroup 0 1\n0\nalpha 0\n0\nhom 0 0\n0\n", 7),  # stray hom
    (
        "semilattice 2\n0 0\n0 1\ngroup 0 1\n0\nalpha 0\n0\n"
        "group 1 1\n0\nalpha 1\n0\n",
        12,
    ),  # missing hom section
    ("semilattice 1\n0\ngroup 0 1\n0\nalpha 0\n0\nextra\n", 7),  # trailing junk
    ("group 0 1\n0\nalpha 0\n0\n", 1),  # wrong leading section
    ("semilattice 1\n0\ngroup 0 1\n0\nalpha 0\n", 6),  # missing alpha images
]


@pytest.mark.parametrize(
    "text, line", _CSPEC_ERRORS, ids=[text for text, _ in _CSPEC_ERRORS]
)
def test_parse_cspec_errors(text, line):
    with pytest.raises(MalformedInput) as err:
        parse_cspec(text)
    assert err.value.line == line


def test_parse_cspec_error_line_numbers():
    with pytest.raises(MalformedInput) as err:
        parse_cspec("semilattice 1\nx\n")
    assert "line 2:" in str(err.value)
