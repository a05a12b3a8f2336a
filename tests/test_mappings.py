"""Mappings: involutions, homomorphisms, translations, and .map format."""

import itertools
import random

import pytest

import gpdtools.mappings as mappings
from gpdtools import (
    Groupoid,
    MalformedInput,
    absorption_law,
    automorphisms,
    build_determined,
    build_strong_slg,
    e_fixed_involutive_automorphisms,
    enumerate_groupoids,
    enumerate_specs,
    find_isomorphism,
    identity_mapping,
    inverse_table,
    in_lt,
    in_rt,
    involutions,
    involutive_automorphisms,
    is_homomorphism,
    is_involution,
    parse_cspec,
    parse_mapping,
    random_groupoids,
    serialize_mapping,
    shifted_associativity,
    twist,
)
from gpdtools.mappings import _isomorphisms, _restricted, _shift_images
from gpdtools.fixtures import (
    BAND3,
    BAND3_SWAP,
    FLIP2,
    FLIP2_SWAP,
    Z3,
    Z3_NEGATION,
    Z3_TWIST,
)

from .test_inverses import (
    _count_compositions,
    _cyclic_chain_cspec,
    _negation_twist,
)


def _oracle_automorphisms(g):
    """Filter all permutations by the raw definition."""
    n = g.order
    out = []
    for perm in itertools.permutations(range(n)):
        if all(
            perm[g.product(x, y)] == g.product(perm[x], perm[y])
            for x in range(n)
            for y in range(n)
        ):
            out.append(perm)
    return sorted(out)


def _oracle_involutions(n):
    return sorted(
        perm
        for perm in itertools.permutations(range(n))
        if all(perm[perm[x]] == x for x in range(n))
    )


def test_involutions_lex_order_and_counts():
    assert involutions(1) == ((0,),)
    assert involutions(2) == ((0, 1), (1, 0))
    assert involutions(3) == ((0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0))
    assert len(involutions(4)) == 10
    for n in range(1, 6):
        assert sorted(involutions(n)) == _oracle_involutions(n)
        assert list(involutions(n)) == sorted(involutions(n))
    assert involutions(0) == ((),)
    # n is exactly an int of at least 0: True does not read the cache entry
    # of 1, which the loop above filled.
    for n in (True, 2.0, -1):
        with pytest.raises(ValueError, match="n must be an int"):
            involutions(n)


def test_is_involution():
    assert is_involution((0, 1, 2))
    assert is_involution((1, 0, 2))
    assert not is_involution((1, 2, 0))
    assert not is_involution((0, 0))
    # Images are ints, as parse_mapping reads them: not bools, floats or
    # strings, even when they compare equal to an involution's.
    assert not is_involution((False, True))
    assert not is_involution((0, True))
    assert not is_involution((0, 1.0))
    assert not is_involution(("0", 1))


def test_automorphisms_against_permutation_oracle():
    targets = [BAND3, FLIP2, Z3, Z3_TWIST]
    targets.extend(itertools.islice(random_groupoids(3, 100, seed=17), 100))
    targets.extend(itertools.islice(random_groupoids(4, 40, seed=18), 40))
    for g in targets:
        assert sorted(automorphisms(g)) == _oracle_automorphisms(g)
        assert list(automorphisms(g)) == sorted(automorphisms(g))


def test_involutive_automorphisms_fixture_facts():
    assert involutive_automorphisms(BAND3) == (identity_mapping(3),)
    assert involutive_automorphisms(Z3_TWIST) == (identity_mapping(3), (0, 2, 1))
    assert involutive_automorphisms(Z3) == (identity_mapping(3), (0, 2, 1))
    assert FLIP2_SWAP in involutive_automorphisms(FLIP2)


def _left_zero_band(n):
    """``x*y = x``: every permutation is an automorphism."""
    return Groupoid(tuple((x,) * n for x in range(n)))


def test_involutive_automorphisms_agree_with_filtered_automorphisms():
    exhaustive = itertools.chain.from_iterable(
        enumerate_groupoids(n) for n in (1, 2, 3)
    )
    samples = random_groupoids(4, 2000, seed=19)
    built = (
        g
        for spec in itertools.chain(enumerate_specs(2, 4), enumerate_specs(3, 3))
        for g in (build_determined(spec)[0], build_strong_slg(spec))
    )
    bands = (_left_zero_band(n) for n in range(1, 9))
    twists = (_negation_twist(n) for n in (16, 32, 64))
    tables = 0
    for g in itertools.chain(exhaustive, samples, built, bands, twists):
        # Exact tuples: the lexicographic order is part of the contract.
        expected = tuple(f for f in automorphisms(g) if is_involution(f))
        assert involutive_automorphisms(g) == expected, g.rows
        tables += 1
    assert tables == 19_700 + 2000 + 948 + 8 + 3


def _null_semigroup(n):
    """``x*y = 0``: every involution fixing 0 is an automorphism."""
    return Groupoid(tuple((0,) * n for _ in range(n)))


def _shift_corpus():
    """Every table of order <= 3, 2,000 order-4 samples, both built tables
    of each spec of ``enumerate_specs(3, 3)``, left-zero bands and null
    semigroups of order <= 8, and Z_16/32/64 twisted by negation."""
    exhaustive = itertools.chain.from_iterable(
        enumerate_groupoids(n) for n in (1, 2, 3)
    )
    samples = random_groupoids(4, 2000, seed=19)
    built = (
        g
        for spec in enumerate_specs(3, 3)
        for g in (build_determined(spec)[0], build_strong_slg(spec))
    )
    bands = (_left_zero_band(n) for n in range(1, 9))
    nulls = (_null_semigroup(n) for n in range(1, 9))
    twists = (_negation_twist(n) for n in (16, 32, 64))
    return itertools.chain(exhaustive, samples, built, bands, nulls, twists)


SHIFT_CORPUS_SIZE = 19_700 + 2000 + 502 + 8 + 8 + 3


def _brute_shift_images(g):
    """The definition: every a with ``(x*y)*z == a*(y*z)`` for all y, z."""
    rows = g.rows
    n = g.order
    images = tuple(
        tuple(
            a
            for a in range(n)
            if all(
                rows[rows[x][y]][z] == rows[a][rows[y][z]]
                for y in range(n)
                for z in range(n)
            )
        )
        for x in range(n)
    )
    return None if () in images else images


def test_shift_images_agree_with_definition(monkeypatch):
    calls = _count_compositions(monkeypatch, mappings)
    tables = some_missing = fails_at_0 = 0
    for g in _shift_corpus():
        before = calls[0]
        images = _shift_images(g)
        assert images == _brute_shift_images(g), g.rows
        tables += 1
        some_missing += images is None
        # Where (0*y)*z is no function of y*z, no a meets the law at x = 0,
        # and the table is refused before any row is composed.
        rows = g.rows
        values = {(rows[y][z], rows[rows[0][y]][z]) for y in g for z in g}
        if len(values) > len(g.products()):
            fails_at_0 += 1
            assert calls[0] == before, g.rows
    assert tables == SHIFT_CORPUS_SIZE
    assert some_missing == 21_497
    assert fails_at_0 == 19_464


@pytest.mark.parametrize(
    "g",
    [
        _negation_twist(64),
        build_determined(parse_cspec(_cyclic_chain_cspec((2, 4, 8, 16, 32))))[0],
    ],
    ids=["z64twist", "chain62"],
)
def test_shift_images_make_quadratically_many_row_compositions(g, monkeypatch):
    # One composite per pair (x, y); both tables pass, so every x runs.
    calls = _count_compositions(monkeypatch, mappings)
    n = g.order
    assert _shift_images(g) is not None
    assert n <= calls[0] <= n * n


def test_shift_domain_search_agrees_with_filter():
    rng = random.Random(37)
    several = cut_some = 0
    for g in _shift_corpus():
        expected = tuple(
            f for f in involutive_automorphisms(g) if shifted_associativity(g, f)
        )
        domain = _shift_images(g)
        if domain is None:
            assert expected == (), g.rows
            continue
        # Exact tuples: the lexicographic order is part of the contract.
        assert tuple(_isomorphisms(g, g, domain)) == expected, g.rows
        assert next(_isomorphisms(g, g, domain), None) == next(iter(expected), None)
        several += len(expected) > 1
        # A domain cut position by position keeps exactly the maps whose
        # images all pass, in the same order: B's absorption law and a
        # seeded random cut.
        rows = g.rows
        kept = {
            (x, a)
            for x, images in enumerate(domain)
            for a in images
            if rng.random() < 0.8
        }
        for keep in (lambda x, a: rows[x][a] == a, lambda x, a: (x, a) in kept):
            cut = tuple(f for f in expected if all(map(keep, range(g.order), f)))
            assert tuple(_isomorphisms(g, g, _restricted(domain, keep))) == cut, g.rows
            cut_some += 0 < len(cut) < len(expected)
    assert several == 14
    assert cut_some == 9


def test_domain_search_keeps_exactly_the_admissible_involutions():
    # Every involution of a left-zero band is an automorphism, so the
    # domain alone decides which maps the search yields.
    rng = random.Random(31)
    n = 6
    g = _left_zero_band(n)
    for _ in range(300):
        domain = tuple(
            tuple(sorted(rng.sample(range(n), rng.randint(0, n)))) for _ in range(n)
        )
        expected = tuple(
            f for f in involutions(n) if all(f[k] in domain[k] for k in range(n))
        )
        assert tuple(_isomorphisms(g, g, domain)) == expected, domain
        assert next(_isomorphisms(g, g, domain), None) == next(iter(expected), None)


def _shift_domains():
    """Each table of order <= 3 with a shift domain and each built table of
    ``enumerate_specs(3, 4)``, with its shift domain and then with that
    domain cut to the maps that fix every idempotent."""
    tables = itertools.chain(
        itertools.chain.from_iterable(enumerate_groupoids(n) for n in (1, 2, 3)),
        (build_determined(spec)[0] for spec in enumerate_specs(3, 4)),
    )
    for g in tables:
        domain = _shift_images(g)
        if domain is not None:
            idem = g.idempotents()
            yield g, domain
            yield g, _restricted(domain, lambda x, a: x not in idem or a == x)


def test_pinned_domains_yield_what_the_search_yields(monkeypatch):
    # A domain with one image per position is checked as one map; with
    # that branch off, the backtracking search must yield the same tuples.
    cases = list(_shift_domains())
    assert len(cases) == 2 * 11_136
    pinned = [() not in d and mappings._pinned(d) is not None for _, d in cases]
    assert sum(pinned[0::2]) == 11_021
    assert sum(pinned[1::2]) == 11_023
    # Pinned maps that are no involution or no automorphism: a 3-cycle
    # that is an automorphism of the left-zero band, an involution that is
    # not one of BAND3, and a map that is neither on Z3.
    cases += [
        (_left_zero_band(3), ((1,), (2,), (0,))),
        (BAND3, tuple((a,) for a in BAND3_SWAP)),
        (Z3, ((1,), (2,), (0,))),
    ]
    fast = [tuple(_isomorphisms(g, g, d)) for g, d in cases]
    assert fast[-3:] == [(), (), ()]
    monkeypatch.setattr(mappings, "_pinned", lambda domain: None)
    assert [tuple(_isomorphisms(g, g, d)) for g, d in cases] == fast


def test_e_fixed_involutive_automorphisms_agree_with_filter():
    for g in _shift_corpus():
        idem = g.idempotents()
        expected = tuple(
            f for f in involutive_automorphisms(g) if all(f[e] == e for e in idem)
        )
        assert e_fixed_involutive_automorphisms(g) == expected, g.rows


def test_e_fixed_involutive_automorphisms_skip_the_full_list():
    g = _left_zero_band(12)
    misses = involutive_automorphisms.cache_info().misses
    assert e_fixed_involutive_automorphisms(g) == (identity_mapping(12),)
    assert involutive_automorphisms.cache_info().misses == misses


def test_involutive_automorphisms_of_left_zero_bands():
    # Every involution of a left-zero band is an automorphism.
    for n in range(1, 11):
        assert involutive_automorphisms(_left_zero_band(n)) == involutions(n)
    assert [len(involutions(n)) for n in (9, 10)] == [2620, 9496]


def test_memoised_kernels_expose_cache_controls():
    # The benchmark (perfbench/rep.py) clears these caches for cold passes
    # and reads their hit ratios.
    for fn in (inverse_table, automorphisms, involutive_automorphisms, involutions):
        fn.cache_clear()
        assert fn.cache_info().currsize == 0
    automorphisms(Z3)
    assert automorphisms.cache_info().currsize == 1


def test_e_fixed_involutive_automorphisms():
    # Z3's only idempotent is 0, and both involutive automorphisms fix it.
    assert e_fixed_involutive_automorphisms(Z3) == (identity_mapping(3), (0, 2, 1))
    # BAND3 has all elements idempotent; only the identity fixes them all.
    assert e_fixed_involutive_automorphisms(BAND3) == (identity_mapping(3),)


def test_homomorphism_and_swap_facts():
    assert not is_homomorphism(BAND3_SWAP, BAND3, BAND3)
    assert is_homomorphism(FLIP2_SWAP, FLIP2, FLIP2)
    assert is_homomorphism(Z3_NEGATION, Z3, Z3)
    assert is_homomorphism(identity_mapping(3), Z3, Z3)
    # A map that does not fit the carriers is no homomorphism: too long,
    # too short, or with an image outside the target.
    assert not is_homomorphism((0, 2, 1, 3), Z3, Z3)
    assert not is_homomorphism((0, 1), Z3, Z3)
    null2 = _null_semigroup(2)
    assert not is_homomorphism((0, -1), null2, null2)
    # An image that is not an int is no image, as in parse_mapping.
    assert is_homomorphism((0, 1), null2, null2)
    for f in ((False, True), (0, True), (0, 1.0), ("0", 1)):
        assert not is_homomorphism(f, null2, null2), f


def _reference_homomorphism(f, g, h):
    """The definition, cell by cell, after the shape checks."""
    n, m = g.order, h.order
    return (
        len(f) == n
        and all(type(v) is int and 0 <= v < m for v in f)
        and all(
            f[g.rows[x][y]] == h.rows[f[x]][f[y]] for x in range(n) for y in range(n)
        )
    )


def _cyclic(n):
    return Groupoid(tuple(tuple((x + y) % n for y in range(n)) for x in range(n)))


def test_row_homomorphism_check_matches_the_cell_loop():
    rng = random.Random(43)
    cases = []
    # Orders on both sides of the bytes encoding, and g and h of
    # different orders: random maps (most fail) and the multiplications
    # by c, which are homomorphisms Z_n -> Z_m when m divides c * n.
    for n, m in ((8, 8), (12, 12), (16, 16), (12, 4), (8, 16), (16, 8), (5, 10)):
        g, h = _cyclic(n), _cyclic(m)
        cases += [(tuple(rng.randrange(m) for _ in range(n)), g, h) for _ in range(50)]
        cases += [(tuple(c * x % m for x in range(n)), g, h) for c in range(m)]
    # Negation on Z_n against Z_n with one cell changed: the map fails in
    # that cell's row alone, whichever row it is.
    for n in (5, 8, 12, 16):
        h = _cyclic(n)
        negation = tuple(-x % n for x in range(n))
        for x in range(n):
            rows = [list(row) for row in h.rows]
            y = rng.randrange(n)
            rows[x][y] = (rows[x][y] + 1) % n
            cases.append((negation, Groupoid.from_rows(rows), h))
    # Random tables with random maps, most of which fail at once.
    for n in (8, 12, 16):
        for g in random_groupoids(n, 20, seed=n):
            cases += [(tuple(rng.randrange(n) for _ in range(n)), g, g)]
            cases += [(identity_mapping(n), g, g)]
    # A target too large for a byte, and a source too large for one.
    cases += [
        (tuple(75 * x for x in range(8)), _cyclic(8), _cyclic(300)),
        (tuple(75 * x + 1 for x in range(8)), _cyclic(8), _cyclic(300)),
        (tuple(-x % 257 for x in range(257)), _cyclic(257), _cyclic(257)),
    ]
    # Maps of the wrong length, with bool images, or out of range.
    z8 = _cyclic(8)
    ident = identity_mapping(8)
    for f in (
        ident[:7],
        ident + (0,),
        (False,) + ident[1:],
        (0, True) + ident[2:],
        (0.0,) + ident[1:],
        (-1,) + ident[1:],
        ident[:7] + (8,),
        ident[:7] + (256,),
    ):
        cases.append((f, z8, z8))
    # Every built positive of enumerate_specs(3, 4): its map against the
    # table, the base table, and from the base table onto the table.
    for spec in enumerate_specs(3, 4):
        g, alpha = build_determined(spec)
        star = twist(g, alpha)
        cases += [(alpha, g, g), (alpha, star, star), (alpha, star, g)]
    verdicts = [is_homomorphism(f, g, h) for f, g, h in cases]
    assert verdicts == [_reference_homomorphism(f, g, h) for f, g, h in cases]
    assert 0 < sum(verdicts) < len(verdicts)


def test_find_isomorphism():
    assert find_isomorphism(Z3, Z3) == identity_mapping(3)
    assert find_isomorphism(Z3_TWIST, Z3) is None
    assert find_isomorphism(Z3, Groupoid(((0, 1), (1, 0)))) is None  # orders differ
    # Left-zero and right-zero tables of order 2 are anti-isomorphic, not
    # isomorphic.
    left = Groupoid(((0, 0), (1, 1)))
    right = Groupoid(((0, 1), (0, 1)))
    assert find_isomorphism(left, right) is None
    # A relabeled copy is found, and the map transports the product.
    relabeled = Groupoid(((2, 0, 1), (0, 1, 2), (1, 2, 0)))  # Z3 via x<->x+1? no: check below
    iso = find_isomorphism(relabeled, Z3)
    if iso is not None:
        assert all(
            iso[relabeled.product(x, y)] == Z3.product(iso[x], iso[y])
            for x in range(3)
            for y in range(3)
        )


def test_translation_and_absorption_facts():
    assert not in_lt(BAND3, BAND3_SWAP)
    assert absorption_law(BAND3, BAND3_SWAP)
    assert shifted_associativity(BAND3, BAND3_SWAP)
    assert not in_lt(FLIP2, FLIP2_SWAP)
    assert in_rt(FLIP2, FLIP2_SWAP)
    assert absorption_law(FLIP2, FLIP2_SWAP)
    assert shifted_associativity(FLIP2, FLIP2_SWAP)
    assert not shifted_associativity(Z3_TWIST, identity_mapping(3))
    assert shifted_associativity(Z3_TWIST, (0, 2, 1))


def test_shifted_associativity_against_oracle():
    z32 = _negation_twist(32)
    cases = [(g, f) for g in enumerate_groupoids(1) for f in involutions(1)]
    cases += [
        (g, f)
        for g in itertools.islice(random_groupoids(3, 150, seed=23), 150)
        for f in involutions(3)
    ]
    cases += [(z32, tuple(-x % 32 for x in range(32))), (z32, identity_mapping(32))]
    for g, f in cases:
        r = range(g.order)
        brute = all(
            g.product(g.product(x, y), z) == g.product(f[x], g.product(y, z))
            for x in r
            for y in r
            for z in r
        )
        assert shifted_associativity(g, f) == brute
    assert shifted_associativity(*cases[-2])
    assert not shifted_associativity(*cases[-1])


def test_lt_rt_against_oracle():
    for g in itertools.islice(random_groupoids(3, 150, seed=29), 150):
        for f in involutions(3):
            lt = all(
                f[g.product(x, y)] == g.product(x, f[y])
                for x in range(3)
                for y in range(3)
            )
            rt = all(
                f[g.product(x, y)] == g.product(f[x], y)
                for x in range(3)
                for y in range(3)
            )
            assert in_lt(g, f) == lt
            assert in_rt(g, f) == rt


def test_parse_serialize_mapping():
    text = serialize_mapping((1, 0, 2))
    assert text == "3\n1 0 2\n"
    assert parse_mapping(text) == (1, 0, 2)
    assert parse_mapping("# c\n\n2\n1 0\n") == (1, 0)


@pytest.mark.parametrize(
    "f",
    [(False, True), (0, True), (0, 2), (0, -1), (1.0, 0), ("1", "0"), ()],
    ids=repr,
)
def test_serialize_mapping_refuses_what_parse_mapping_refuses(f):
    # A bool, float, str or out-of-range image, or no image at all, would be
    # written as text that parse_mapping rejects.
    with pytest.raises(ValueError, match="not a mapping"):
        serialize_mapping(f)


_MAPPING_ERRORS = [
    ("", 1),
    ("2\n1\n", 2),  # too few images
    ("2\n0 1 0\n", 2),  # too many images
    ("2\n0 2\n", 2),  # image out of range
    ("2\n0 1\n0\n", 3),  # trailing content
    ("q\n0 1\n", 1),  # bad size
    ("2\n", 2),  # missing image line
    ("2\n0 1\n1 0\n", 3),  # second image line
]


@pytest.mark.parametrize(
    "text, line", _MAPPING_ERRORS, ids=[text for text, _ in _MAPPING_ERRORS]
)
def test_parse_mapping_errors(text, line):
    with pytest.raises(MalformedInput) as err:
        parse_mapping(text)
    assert err.value.line == line


def test_parse_mapping_error_line_numbers():
    with pytest.raises(MalformedInput) as err:
        parse_mapping("2\n0 x\n")
    assert "line 2:" in str(err.value)
