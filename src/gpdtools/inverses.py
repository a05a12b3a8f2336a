"""Inverse elements and the structural predicates built on them.

An inverse of ``x`` is any ``y`` with ``(x*y)*x == x`` and ``(y*x)*y == y``.
Most of this module assumes each element has exactly one inverse; the
:func:`inverse_table` helper enforces that and raises :class:`NotInverse`
otherwise.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotInverse
from .groupoid import Groupoid
from .mappings import Mapping


def inverses_of(g: Groupoid, x: int) -> frozenset[int]:
    """All inverses of ``x``."""
    rows = g.rows
    return frozenset(
        y
        for y in range(g.order)
        if rows[rows[x][y]][x] == x and rows[rows[y][x]][y] == y
    )


@lru_cache(maxsize=4096)
def inverse_table(g: Groupoid) -> Mapping:
    """The map sending each element to its unique inverse.

    Raises :class:`NotInverse` naming the first element (in ascending
    order) whose inverse count differs from one.
    """
    table = []
    for x in range(g.order):
        invs = inverses_of(g, x)
        if len(invs) != 1:
            raise NotInverse(x, len(invs))
        table.append(next(iter(invs)))
    return tuple(table)


def is_completely_inverse(g: Groupoid) -> bool:
    """Each element has a unique inverse, and ``x * x' == x' * x`` is a
    fixed point of the squaring map (an idempotent)."""
    try:
        inv = inverse_table(g)
    except NotInverse:
        return False
    rows = g.rows
    for x in range(g.order):
        p = rows[x][inv[x]]
        if p != rows[inv[x]][x] or rows[p][p] != p:
            return False
    return True


def is_right_bol(g: Groupoid) -> bool:
    """Exhaustively test ``((x*y)*z)*w == x*((y*z)*w)``.

    Makes O(n³) row comparisons on a table of order n.  Over all w, the
    left side is the row of ``(x*y)*z`` and the right side is the row of
    ``u = y*z`` composed with the row of ``x``, which depends on ``x`` and
    ``u`` only.  That composite is built the first time the pair ``(x, u)``
    occurs and reused for every later ``(y, z)`` with ``y*z == u``.
    """
    rows = g.rows
    n = len(rows)
    for rx in rows:
        # composed[u]: the row of x*(u*_), once built.
        composed: list[tuple[int, ...] | None] = [None] * n
        for y, ry in enumerate(rows):
            rxy = rows[rx[y]]
            for z, u in enumerate(ry):
                row = composed[u]
                if row is None:
                    row = composed[u] = tuple(map(rx.__getitem__, rows[u]))
                if rows[rxy[z]] != row:
                    return False
    return True


def strongly_regular_witness(g: Groupoid) -> Mapping | None:
    """A per-element witness of strong regularity, or ``None``.

    For each ``a`` we need some ``x`` with ``a == (a*x)*a`` such that
    ``a*x == x*a`` and ``a*x`` is idempotent.  The returned tuple holds the
    smallest such ``x`` for every ``a``; the result is ``None`` when some
    element has no witness.
    """
    rows = g.rows
    n = g.order
    witness = []
    for a in range(n):
        ra = rows[a]
        for x in range(n):
            p = ra[x]
            if rows[p][a] == a and rows[x][a] == p and rows[p][p] == p:
                witness.append(x)
                break
        else:
            return None
    return tuple(witness)


def idempotents_form_semilattice(g: Groupoid) -> bool:
    """The idempotents are closed, and commute among themselves.

    Together with associativity of the ambient table this makes the set of
    idempotents a meet semilattice under the product.  Vacuously true when
    there are no idempotents.
    """
    rows = g.rows
    idem = sorted(g.idempotents())
    iset = set(idem)
    for i, e in enumerate(idem):
        for f in idem[i:]:
            p = rows[e][f]
            if p != rows[f][e] or p not in iset:
                return False
    return True


def inverse_antihomomorphism_law(g: Groupoid, f: Mapping) -> bool:
    """True when ``(a*b)' == f(b') * f(a')`` for all a, b.

    Requires a total inverse table; returns ``False`` if some element does
    not have a unique inverse.
    """
    try:
        inv = inverse_table(g)
    except NotInverse:
        return False
    rows = g.rows
    return all(
        inv[rows[a][b]] == rows[f[inv[b]]][f[inv[a]]]
        for a in range(g.order)
        for b in range(g.order)
    )


def canonical_twist(g: Groupoid) -> Mapping:
    """The map ``a -> a * (a * a')`` built from the inverse table.

    Raises :class:`NotInverse` when some element lacks a unique inverse.
    """
    inv = inverse_table(g)
    rows = g.rows
    return tuple(rows[a][rows[a][inv[a]]] for a in range(g.order))
