"""Core table type, identity classes, product subtable, and .gpd format."""

import itertools

import pytest

from gpdtools import (
    Groupoid,
    MalformedInput,
    VARIETIES,
    build_determined,
    enumerate_groupoids,
    enumerate_specs,
    in_semigroup_class,
    is_right_bol,
    parse_groupoid,
    random_groupoids,
    satisfies_variety,
    serialize_groupoid,
    shifted_associativity,
    square_subgroupoid,
)
from gpdtools.determination import _idempotent_distributive
from gpdtools.fixtures import BAND3, FLIP2, Z3, Z3_TWIST
from gpdtools.groupoid import _BYTE_ROWS_FROM, _compositions
from gpdtools.mappings import _shift_images

from .test_mappings import _brute_shift_images

# Independent identity evaluators: explicit quantifier loops, one lambda per
# class, sharing no code with the library's checkers.
_ORACLES = {
    "B": lambda p, r: all(p(x, x) == x for x in r),
    "L0": lambda p, r: all(p(p(x, y), z) == x for x in r for y in r for z in r),
    "R0": lambda p, r: all(p(p(x, y), z) == z for x in r for y in r for z in r),
    "RB": lambda p, r: all(p(p(x, y), x) == x for x in r for y in r),
    "IB": lambda p, r: all(p(x, y) == p(p(x, x), p(y, y)) for x in r for y in r),
    "IL0": lambda p, r: all(
        p(p(x, y), z) == p(x, w) for x in r for y in r for z in r for w in r
    ),
    "IR0": lambda p, r: all(
        p(p(x, y), z) == p(w, z) for x in r for y in r for z in r for w in r
    ),
    "IRB": lambda p, r: all(
        p(p(x, y), z) == p(x, z) for x in r for y in r for z in r
    ),
    "GB": lambda p, r: all(p(x, y) == p(p(p(x, y), x), y) for x in r for y in r),
    "GL0": lambda p, r: all(
        p(p(x, y), z) == p(x, y) for x in r for y in r for z in r
    ),
    "GR0": lambda p, r: all(
        p(p(x, y), z) == p(y, z) for x in r for y in r for z in r
    ),
    "GRB": lambda p, r: all(
        p(x, y) == p(p(p(p(x, y), z), x), y) for x in r for y in r for z in r
    ),
}


def _all_tables(n):
    for flat in itertools.product(range(n), repeat=n * n):
        yield Groupoid(tuple(flat[i * n : (i + 1) * n] for i in range(n)))


def test_variety_tags_match_oracle_set():
    assert set(VARIETIES) == set(_ORACLES)
    assert len(VARIETIES) == 12


@pytest.mark.parametrize("tag", VARIETIES)
def test_identity_checkers_against_oracle_order2(tag):
    for g in _all_tables(2):
        assert satisfies_variety(g, tag) == _ORACLES[tag](g.product, range(2))


@pytest.mark.parametrize("tag", VARIETIES)
def test_identity_checkers_against_oracle_sampled_order3(tag):
    # Every order-3 table: a sample of a few hundred holds no member of
    # L0, R0, RB, IL0 or GL0.
    members = 0
    for g in _all_tables(3):
        expected = _ORACLES[tag](g.product, range(3))
        assert satisfies_variety(g, tag) == expected
        members += expected
    assert members > 0


def _star(n):
    """Z_n under addition: the base table of the Z_n negation twist."""
    return Groupoid(tuple(tuple((x + y) % n for y in range(n)) for x in range(n)))


def test_associativity_against_oracle():
    from gpdtools import build_strong_slg, parse_cspec

    from .test_inverses import _cyclic_chain_cspec, _mutations

    chain = build_strong_slg(parse_cspec(_cyclic_chain_cspec((2, 4, 8))))
    tables = itertools.chain(
        _all_tables(1),
        _all_tables(2),
        itertools.islice(random_groupoids(3, 300, seed=13), 300),
        # The stars of the Z_n negation twists: Z_n under addition.
        map(_star, (16, 32, 64)),
        [chain],
        _mutations(chain),
    )
    verdicts = [0, 0]
    for g in tables:
        r = range(g.order)
        brute = all(
            g.product(g.product(x, y), z) == g.product(x, g.product(y, z))
            for x in r
            for y in r
            for z in r
        )
        assert g.is_associative() == brute, g.rows
        verdicts[brute] += 1
    assert sum(verdicts) == 1 + 16 + 300 + 3 + 1 + 14 * 14
    assert min(verdicts) > 0
    assert BAND3.is_associative()
    assert not FLIP2.is_associative()
    assert Z3.is_associative()
    assert not Z3_TWIST.is_associative()


def test_associativity_makes_quadratically_many_row_compositions(monkeypatch):
    import gpdtools.groupoid as groupoid

    from .test_inverses import _count_compositions

    calls = _count_compositions(monkeypatch, groupoid)
    n = 64
    assert _star(n).is_associative()
    assert n <= calls[0] <= n * n


def _kernel_laws(g):
    """The five row-composing kernels on ``g``, with both shift maps."""
    n = g.order
    negation = tuple(-x % n for x in range(n))
    return {
        "associative": g.is_associative(),
        "shifted_identity": shifted_associativity(g, tuple(range(n))),
        "shifted_negation": shifted_associativity(g, negation),
        "shift_images": _shift_images(g),
        "right_bol": is_right_bol(g),
        "idempotent_distributive": _idempotent_distributive(g),
    }


def _brute_laws(g):
    """The same laws by their definitions, one product at a time."""
    p = g.product
    r = range(g.order)
    n = g.order
    associative = all(
        p(p(x, y), z) == p(x, p(y, z)) for x in r for y in r for z in r
    )
    return {
        "associative": associative,
        # The shifted law with f the identity is associativity.
        "shifted_identity": associative,
        "shifted_negation": all(
            p(p(x, y), z) == p(-x % n, p(y, z)) for x in r for y in r for z in r
        ),
        "shift_images": _brute_shift_images(g),
        "right_bol": all(
            p(p(p(x, y), z), w) == p(x, p(p(y, z), w))
            for x in r
            for y in r
            for z in r
            for w in r
        ),
        "idempotent_distributive": all(
            p(e, p(a, b)) == p(p(e, a), p(e, b))
            for e in r
            if p(e, e) == e
            for a in r
            for b in r
        ),
    }


@pytest.mark.parametrize("offset", [-1, 0])
def test_row_kernels_agree_with_definitions_across_the_byte_threshold(offset):
    from .test_inverses import _mutations, _negation_twist

    n = _BYTE_ROWS_FROM + offset
    assert isinstance(_compositions(_star(n).rows)[0][0], bytes) == (offset == 0)
    verdicts = {}
    for base in (_negation_twist(n), _star(n)):
        for g in itertools.chain([base], _mutations(base)):
            laws = _kernel_laws(g)
            assert laws == _brute_laws(g), g.rows
            for law, verdict in laws.items():
                verdicts.setdefault(law, set()).add(bool(verdict))
    # Every law both holds and fails somewhere in the corpus.
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts


def test_row_kernels_at_order_257_compose_tuples():
    from .test_inverses import _negation_twist

    n = 257
    g = _negation_twist(n)
    assert isinstance(_compositions(g.rows)[0][0], tuple)
    # x*y = y - x: ((xy)z)w = w - z + y - x = x((yz)w); (xy)z = z - y + x
    # equals a(yz) = z - y - a for all y, z exactly when a = -x; and the
    # one idempotent, 0, is a left identity.  The definitions would need
    # n^4 products here, so the twist is checked against these closed
    # forms.
    assert _kernel_laws(g) == {
        "associative": False,
        "shifted_identity": False,
        "shifted_negation": True,
        "shift_images": tuple((-x % n,) for x in range(n)),
        "right_bol": True,
        "idempotent_distributive": True,
    }
    # One changed cell: every definition meets a failure (or, with no
    # idempotent left, nothing to check) within its first few products.
    rows = [list(row) for row in g.rows]
    rows[0][0] = 1
    h = Groupoid.from_rows(rows)
    assert _kernel_laws(h) == _brute_laws(h)


def test_semigroup_class_requires_associativity():
    # FLIP2 satisfies the right-absorption identity on all four pairs but is
    # not associative, so it is in the identity class and not the semigroup
    # class.
    assert satisfies_variety(FLIP2, "RB")
    assert not in_semigroup_class(FLIP2, "RB")
    assert in_semigroup_class(BAND3, "B")


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        satisfies_variety(BAND3, "XX")
    with pytest.raises(ValueError):
        in_semigroup_class(BAND3, "")
    # The tag is checked before the associativity test, so a table that is
    # not associative refuses it too, with the same message.
    for g in (BAND3, FLIP2):
        with pytest.raises(ValueError, match="unknown variety tag 'bogus'"):
            in_semigroup_class(g, "bogus")


def test_idempotents_and_products():
    assert BAND3.idempotents() == frozenset({0, 1, 2})
    assert FLIP2.idempotents() == frozenset()
    assert Z3_TWIST.idempotents() == frozenset({0})
    assert BAND3.products() == (0, 1, 2)
    assert FLIP2.products() == (0, 1)


def test_square_subgroupoid_members_and_relabeling():
    # BAND3's product set is everything: the subtable is BAND3 itself.
    sq, members = square_subgroupoid(BAND3)
    assert members == (0, 1, 2)
    assert sq is BAND3
    # Element 1 is never a product; on the product set {0, 2} the table is
    # the two-element group with identity 0, and 2 is relabelled 1.
    g = Groupoid(((0, 2, 2), (2, 0, 0), (2, 0, 0)))
    sq, members = square_subgroupoid(g)
    assert members == (0, 2)
    assert sq.rows == ((0, 1), (1, 0))
    const = Groupoid(((1, 1), (1, 1)))
    sq, members = square_subgroupoid(const)
    assert members == (1,)
    assert sq.rows == ((0,),)


def _reference_square_subgroupoid(g):
    """The product subtable by relabelling, on every table."""
    members = g.products()
    index = {v: i for i, v in enumerate(members)}
    rows = tuple(tuple(index[g.rows[x][y]] for y in members) for x in members)
    return Groupoid(rows), members


def test_square_subgroupoid_matches_reference_relabelling():
    tables = [g for n in (1, 2, 3) for g in enumerate_groupoids(n)]
    tables += random_groupoids(4, 2000, seed=11)
    tables += [build_determined(spec)[0] for spec in enumerate_specs(2, 3)]
    surjective = 0
    for g in tables:
        sq, members = square_subgroupoid(g)
        assert (sq, members) == _reference_square_subgroupoid(g)
        if len(members) == g.order:
            assert sq is g
            surjective += 1
    assert 0 < surjective < len(tables)


def test_square_subgroupoid_closure_brute():
    # The set of all products is closed under the product: verified directly
    # against the definition on every order-2 table and a sample of order-3.
    tables = list(_all_tables(2)) + list(random_groupoids(3, 200, seed=5))
    for g in tables:
        prods = {g.product(x, y) for x in range(g.order) for y in range(g.order)}
        assert {g.product(x, y) for x in prods for y in prods} <= prods
        _, members = square_subgroupoid(g)
        assert set(members) == prods


def test_groupoid_validation():
    with pytest.raises(ValueError):
        Groupoid(((0, 1), (0,)))
    with pytest.raises(ValueError):
        Groupoid(((0, 2), (0, 1)))
    with pytest.raises(ValueError):
        Groupoid(())
    with pytest.raises(TypeError):
        Groupoid([(0,)])
    with pytest.raises(TypeError, match="rows must be a tuple of tuples"):
        Groupoid(None)
    with pytest.raises(TypeError, match="rows must be a tuple of tuples"):
        Groupoid(tuple(row) for row in ((0,),))
    with pytest.raises(ValueError, match="table entry False outside 0..1"):
        Groupoid.from_rows([[False, True], [True, False]])


def test_parse_serialize_roundtrip():
    text = serialize_groupoid(BAND3)
    assert text == "3\n0 1 1\n0 1 1\n0 1 2\n"
    assert parse_groupoid(text) == BAND3
    for g in itertools.islice(random_groupoids(4, 50, seed=3), 50):
        assert parse_groupoid(serialize_groupoid(g)) == g


def test_parse_comments_and_blanks():
    text = "# a comment\n\n2\n# rows follow\n1 1\n\n0 0\n"
    assert parse_groupoid(text) == FLIP2


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),  # empty input
        ("0\n", 1),  # order not positive
        ("x\n0\n", 1),  # size not a number
        ("2\n0 1\n", 3),  # missing row reported at its expected position
        ("2\n0 1 1\n1 0\n", 2),  # wrong row width
        ("2\n0 2\n1 0\n", 2),  # entry out of range
        ("1\n0\nextra\n", 3),  # trailing content
        ("2\n0 9\n1 0\nextra\n", 2),  # first problem in reading order
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(MalformedInput) as err:
        parse_groupoid(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


def _validated_copy_equals(g):
    # The full validation of the public constructor, on a table that a
    # trusted construction site made without it.
    return type(g) is Groupoid and Groupoid(g.rows) == g


def test_trusted_construction_sites_make_valid_tables():
    from gpdtools import (
        GroupSpec,
        build_determined,
        build_strong_slg,
        decompose,
        enumerate_groupoids,
        enumerate_specs,
        involutions,
        parse_cspec,
        serialize_cspec,
        twist,
    )

    tables = [g for n in (1, 2, 3) for g in enumerate_groupoids(n)]
    tables += random_groupoids(4, 2_000, 4242)
    # Blocks from the three trusted GroupSpec sites: the spec family, the
    # parser and the decomposition.
    blocks = []
    for spec in enumerate_specs(3, 3):
        strong = build_strong_slg(spec)
        determined, alpha = build_determined(spec)
        assert _validated_copy_equals(twist(strong, alpha))
        tables += [strong, determined]
        blocks += spec.groups
        blocks += parse_cspec(serialize_cspec(spec)).groups
        blocks += decompose(determined, alpha).groups
    assert len(tables) == 19_700 + 2_000 + 2 * 251
    for s in blocks:
        assert type(s) is GroupSpec and GroupSpec(s.rows, s.involution) == s
    for g in tables:
        assert _validated_copy_equals(g)
        assert _validated_copy_equals(square_subgroupoid(g)[0])
        for f in involutions(g.order)[:4]:
            assert _validated_copy_equals(twist(g, f))
