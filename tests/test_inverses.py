"""Inverse structure: unique inverses, Bol law, regularity, canonical map."""

import itertools

import pytest

import gpdtools.inverses as inverses
from gpdtools import (
    Groupoid,
    NotInverse,
    build_determined,
    build_strong_slg,
    canonical_twist,
    enumerate_groupoids,
    enumerate_specs,
    idempotents_form_semilattice,
    inverse_table,
    inverses_of,
    involutions,
    is_completely_inverse,
    is_right_bol,
    parse_cspec,
    random_groupoids,
    strongly_regular_witness,
)
from gpdtools.fixtures import BAND3, FLIP2, Z3, Z3_TWIST
from gpdtools.groupoid import _compositions


def _oracle_inverses(g, x):
    return {
        y
        for y in range(g.order)
        if g.product(g.product(x, y), x) == x
        and g.product(g.product(y, x), y) == y
    }


def _antihomomorphism(g, f):
    """The law ``(a*b)' == f(b') * f(a')`` for all a, b, read from the
    definition of an inverse; ``False`` when an element has no unique one."""
    inverses = [_oracle_inverses(g, x) for x in range(g.order)]
    if any(len(found) != 1 for found in inverses):
        return False
    inv = [min(found) for found in inverses]
    return all(
        inv[g.product(a, b)] == g.product(f[inv[b]], f[inv[a]])
        for a in range(g.order)
        for b in range(g.order)
    )


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


def _cyclic_chain_cspec(orders):
    """The ``.cspec`` text of a chain ``Z_{orders[0]} < Z_{orders[1]} < ...``
    of cyclic groups, each with negation, glued by reduction modulo the
    lower order (meet = min on the chain positions)."""
    k = len(orders)
    text = [f"semilattice {k}"]
    text += [" ".join(str(min(e, f)) for f in range(k)) for e in range(k)]
    for e, m in enumerate(orders):
        text.append(f"group {e} {m}")
        text += [" ".join(str((x + y) % m) for y in range(m)) for x in range(m)]
        text.append(f"alpha {e}")
        text.append(" ".join(str(-x % m) for x in range(m)))
    for f in range(k):
        for e in range(f):
            text.append(f"hom {f} {e}")
            text.append(" ".join(str(x % orders[e]) for x in range(orders[f])))
    return "\n".join(text) + "\n"


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


def _mutations(g):
    """Every table that differs from ``g`` in one cell, by +1 mod n."""
    n = g.order
    for x in range(n):
        for y in range(n):
            rows = [list(row) for row in g.rows]
            rows[x][y] = (rows[x][y] + 1) % n
            yield Groupoid.from_rows(rows)


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
    # Tables whose rows coincide (right-zero bands x*y = y, null semigroups
    # x*y = 0), so many elements share one row id, and their mutations.
    verdicts = [0, 0]
    for n in range(5, 13):
        for g in (
            Groupoid(tuple(tuple(range(n)) for _ in range(n))),
            Groupoid(tuple((0,) * n for _ in range(n))),
        ):
            assert is_right_bol(g) and _reference_right_bol(g)
            for h in _mutations(g):
                expected = _reference_right_bol(h)
                assert is_right_bol(h) == expected, h.rows
                verdicts[expected] += 1
    assert verdicts[False] > 0 and verdicts[True] > 0
    # The Z_32 twist with two rows swapped: its rows are still all the
    # translations, so every composite of two rows is a row of the table
    # and only the comparison per pair (y, z) can reject it.
    for a, b in ((0, 1), (5, 17), (30, 31)):
        rows = list(base)
        rows[a], rows[b] = rows[b], rows[a]
        g = Groupoid(tuple(rows))
        assert {tuple(rx[w] for w in ru) for rx in rows for ru in rows} == set(rows)
        assert not _reference_right_bol(g)
        assert not is_right_bol(g), (a, b)


@pytest.mark.parametrize(
    "g",
    [
        _negation_twist(64),
        build_determined(parse_cspec(_cyclic_chain_cspec((2, 4, 8, 16, 32))))[0],
    ],
    ids=["z64twist", "chain62"],
)
def test_right_bol_makes_quadratically_many_row_compositions(g, monkeypatch):
    """Per x: one composite per product, then one per y; plus one per
    element to build the row ids.  Both tables are right-Bol, so every
    phase runs to the end."""
    calls = _count_compositions(monkeypatch, inverses)
    n = g.order
    assert is_right_bol(g)
    assert n * n <= calls[0] <= n * len(g.products()) + n * n + n


def _count_compositions(monkeypatch, module):
    """Route ``module``'s row compositions through a counter; returns the
    one-item list that holds the count."""
    calls = [0]

    def counted_compositions(rows):
        enc, at, lookup = _compositions(rows)

        def counted(compose):
            def call(t):
                calls[0] += 1
                return compose(t)

            return call

        return enc, [counted(compose) for compose in at], lookup

    monkeypatch.setattr(module, "_compositions", counted_compositions)
    return calls


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
    assert not _antihomomorphism(Z3_TWIST, (0, 1, 2))
    assert _antihomomorphism(Z3_TWIST, (0, 2, 1))
    # With no unique inverse table the law cannot hold.
    assert not _antihomomorphism(FLIP2, (1, 0))
    # The library's law agrees with the definition on every table of order
    # at most 3 and every involution of its carrier.
    holds = 0
    for n in (1, 2, 3):
        for g in enumerate_groupoids(n):
            facts = inverses._Facts(g)
            for f in involutions(n):
                law = facts.antihomomorphism(f)
                assert law == _antihomomorphism(g, f), (g.rows, f)
                holds += law
    assert holds > 0


def test_canonical_twist():
    assert canonical_twist(Z3_TWIST) == (0, 2, 1)
    assert canonical_twist(Z3) == (0, 1, 2)
    with pytest.raises(NotInverse):
        canonical_twist(FLIP2)
