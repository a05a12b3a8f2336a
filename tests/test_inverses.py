"""Inverse structure: unique inverses, Bol law, regularity, canonical map."""

import itertools

import pytest

from gpdtools import (
    Groupoid,
    NotInverse,
    build_determined,
    build_strong_slg,
    canonical_twist,
    enumerate_groupoids,
    enumerate_specs,
    idempotents_form_semilattice,
    inverse_antihomomorphism_law,
    inverse_table,
    inverses_of,
    is_completely_inverse,
    is_right_bol,
    random_groupoids,
    strongly_regular_witness,
)
from gpdtools.fixtures import BAND3, FLIP2, Z3, Z3_TWIST


def _oracle_inverses(g, x):
    return {
        y
        for y in range(g.order)
        if g.product(g.product(x, y), x) == x
        and g.product(g.product(y, x), y) == y
    }


def test_inverses_of_against_oracle():
    targets = [BAND3, FLIP2, Z3, Z3_TWIST]
    targets.extend(itertools.islice(random_groupoids(3, 200, seed=31), 200))
    for g in targets:
        for x in range(g.order):
            assert inverses_of(g, x) == _oracle_inverses(g, x)


def test_flip2_double_inverse_and_error_message():
    assert inverses_of(FLIP2, 0) == frozenset({0, 1})
    with pytest.raises(NotInverse) as err:
        inverse_table(FLIP2)
    assert err.value.element == 0
    assert err.value.count == 2
    assert "element 0 has 2 inverses, expected exactly 1" in str(err.value)


def test_inverse_table_fixtures():
    assert inverse_table(Z3) == (0, 2, 1)
    assert inverse_table(Z3_TWIST) == (0, 1, 2)
    # BAND3: element 0 has inverses {0, 1} (both absorb), so no table.
    assert inverses_of(BAND3, 0) == frozenset({0, 1})
    with pytest.raises(NotInverse):
        inverse_table(BAND3)


def test_completely_inverse():
    assert is_completely_inverse(Z3)
    assert is_completely_inverse(Z3_TWIST)
    assert not is_completely_inverse(FLIP2)
    assert not is_completely_inverse(BAND3)
    # Inverse but not completely inverse: x*x^-1 differs from x^-1*x.
    # Search one by brute force over order-3 samples to keep the case honest.
    found = None
    for g in random_groupoids(3, 3000, seed=37):
        try:
            inv = inverse_table(g)
        except NotInverse:
            continue
        cond = all(
            g.product(x, inv[x]) == g.product(inv[x], x)
            and g.product(x, inv[x]) in g.idempotents()
            for x in range(3)
        )
        if not cond:
            found = g
            break
    assert found is not None
    assert not is_completely_inverse(found)


def test_right_bol_against_oracle():
    def brute(g):
        r = range(g.order)
        return all(
            g.product(g.product(g.product(x, y), z), w)
            == g.product(x, g.product(g.product(y, z), w))
            for x in r
            for y in r
            for z in r
            for w in r
        )

    assert not is_right_bol(Groupoid(((1, 0), (0, 0))))
    assert is_right_bol(Z3)
    assert is_right_bol(Z3_TWIST)
    for g in itertools.islice(random_groupoids(3, 300, seed=41), 300):
        assert is_right_bol(g) == brute(g)


def _reference_right_bol(g):
    """The row-based O(n^4) kernel: composes the row of x with the row of
    y*z afresh for every triple (x, y, z)."""
    rows = g.rows
    n = g.order
    for x, rx in enumerate(rows):
        for y in range(n):
            rxy = rows[rx[y]]
            ry = rows[y]
            for z in range(n):
                if rows[rxy[z]] != tuple(map(rx.__getitem__, rows[ry[z]])):
                    return False
    return True


def _negation_twist(n):
    """Z_n twisted by negation, ``x*y = y - x (mod n)``: right-Bol."""
    return Groupoid(tuple(tuple((y - x) % n for y in range(n)) for x in range(n)))


def test_right_bol_agrees_with_reference_on_small_tables():
    exhaustive = itertools.chain.from_iterable(
        enumerate_groupoids(n) for n in (1, 2, 3)
    )
    samples = random_groupoids(4, 2000, seed=43)
    verdicts = [0, 0]
    for g in itertools.chain(exhaustive, samples):
        expected = _reference_right_bol(g)
        assert is_right_bol(g) == expected, g.rows
        verdicts[expected] += 1
    assert sum(verdicts) == 19_700 + 2000
    assert verdicts[True] > 0


def test_right_bol_agrees_with_reference_on_built_tables():
    specs = itertools.chain(enumerate_specs(2, 4), enumerate_specs(3, 3))
    tables = 0
    for spec in specs:
        for g in (build_determined(spec)[0], build_strong_slg(spec)):
            assert is_right_bol(g) == _reference_right_bol(g), g.rows
            tables += 1
    assert tables == 948


def test_right_bol_large_tables():
    for n in (16, 32, 64):
        assert is_right_bol(_negation_twist(n))
    # One-cell changes in the last row and column of the Z_32 twist break
    # the law only for late triples, after many composites were reused.
    n = 32
    base = _negation_twist(n).rows
    cells = [(n - 1, w) for w in range(n)] + [(w, n - 1) for w in range(n - 1)]
    for x, y in cells:
        rows = [list(row) for row in base]
        rows[x][y] = (rows[x][y] + 1) % n
        assert not is_right_bol(Groupoid.from_rows(rows)), (x, y)


def test_strongly_regular_witness():
    assert strongly_regular_witness(BAND3) == (0, 1, 2)
    assert strongly_regular_witness(Z3_TWIST) == (0, 1, 2)
    assert strongly_regular_witness(FLIP2) is None
    w = strongly_regular_witness(Z3)
    assert w is not None
    for a in range(3):
        x = w[a]
        ax = Z3.product(a, x)
        assert Z3.product(ax, a) == a
        assert ax == Z3.product(x, a)
        assert Z3.product(ax, ax) == ax


def test_idempotents_form_semilattice():
    assert not idempotents_form_semilattice(BAND3)  # 0*1=1 but 1*0=0
    assert idempotents_form_semilattice(Z3)  # single idempotent
    assert idempotents_form_semilattice(FLIP2)  # empty set, vacuous
    chain = Groupoid(((0, 0, 0), (0, 1, 1), (0, 1, 2)))
    assert idempotents_form_semilattice(chain)


def test_antihomomorphism_law():
    assert not inverse_antihomomorphism_law(Z3_TWIST, (0, 1, 2))
    assert inverse_antihomomorphism_law(Z3_TWIST, (0, 2, 1))
    # With no unique inverse table the law cannot hold.
    assert not inverse_antihomomorphism_law(FLIP2, (1, 0))


def test_canonical_twist():
    assert canonical_twist(Z3_TWIST) == (0, 2, 1)
    assert canonical_twist(Z3) == (0, 1, 2)
    with pytest.raises(NotInverse):
        canonical_twist(FLIP2)
