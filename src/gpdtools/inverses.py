"""Inverse elements and the structural predicates built on them.

An inverse of ``x`` is any ``y`` with ``(x*y)*x == x`` and ``(y*x)*y == y``.
Most of this module assumes each element has exactly one inverse; the
:func:`inverse_table` helper enforces that and raises :class:`NotInverse`
otherwise.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotInverse
from .groupoid import Groupoid, _compositions
from .mappings import Mapping, _shift_images

__all__ = [
    "canonical_twist",
    "idempotents_form_semilattice",
    "inverse_table",
    "inverses_of",
    "is_completely_inverse",
    "is_right_bol",
    "strongly_regular_witness",
]


def inverses_of(g: Groupoid, x: int) -> frozenset[int]:
    """All inverses of ``x``."""
    rows = g.rows
    return frozenset(
        y
        for y in range(g.order)
        if rows[rows[x][y]][x] == x and rows[rows[y][x]][y] == y
    )


def _inverse_images(rows) -> Mapping | None:
    """The inverse table of ``rows``, or ``None`` at the first element with
    no inverse or a second one.  Raises and caches nothing: most decided
    tables have no inverse table, and an exception or a cache entry per
    table costs more than the scan."""
    table = []
    for x, rx in enumerate(rows):
        inv = None
        for y, ry in enumerate(rows):
            if rows[rx[y]][x] == x and rows[ry[x]][y] == y:
                if inv is not None:
                    return None
                inv = y
        if inv is None:
            return None
        table.append(inv)
    return tuple(table)


def _not_inverse(g: Groupoid) -> NotInverse:
    """The :class:`NotInverse` naming the first element (in ascending
    order) whose inverse count differs from one.  Only for a table on
    which :func:`_inverse_images` failed; every failure path raises what
    it returns."""
    for x in g:
        count = len(inverses_of(g, x))
        if count != 1:
            return NotInverse(x, count)


@lru_cache(maxsize=4096)
def inverse_table(g: Groupoid) -> Mapping:
    """The map sending each element to its unique inverse.

    Raises :class:`NotInverse` naming the first element (in ascending
    order) whose inverse count differs from one; only a failure of
    :func:`_inverse_images` counts inverses, to name that element.

    The cache serves direct callers only: ``decide``, ``check``, the sweep
    and ``decompose`` read the uncached kernel, because tables met one by
    one never hit it.  It stays because it is public and its
    ``cache_info()`` is read by callers that report cache counters.
    """
    table = _inverse_images(g.rows)
    if table is None:
        raise _not_inverse(g)
    return table


def is_completely_inverse(g: Groupoid) -> bool:
    """Each element has a unique inverse, and ``x * x' == x' * x`` is a
    fixed point of the squaring map (an idempotent)."""
    return _Facts(g).completely_inverse


def is_right_bol(g: Groupoid) -> bool:
    """Exhaustively test ``((x*y)*z)*w == x*((y*z)*w)``.

    Over all w the law says that the row of ``(x*y)*z`` is ``R(x, y*z)``,
    where ``R(x, u)`` is the row of x composed with the row of u.  Rows are
    compared by id: ``ids`` maps each distinct row to one element having it,
    so equal ids mean equal rows.  For each x, in two phases:

    1. For each product u, ``comp[u]`` is the id of ``R(x, u)``; the law
       fails when that composite is no row of the table.
    2. For each y, over all z at once: ``idrow[x*y] == comp o rows[y]``,
       where ``idrow[a]`` is the row of a with each entry replaced by the
       id of its row.

    That is ``n*|P| + n*n`` row comparisons or lookups on a table of order
    n with product set P, so O(n²), each composite built in C by
    :func:`~gpdtools.groupoid._compositions`, which also chooses the row
    encoding that ``ids`` hashes.  ``idrow`` is built once the first x
    passes phase 1, so most tables that fail never pay for it.
    """
    rows = g.rows
    enc, at, lookup = _compositions(rows)
    ids = {row: a for a, row in enumerate(enc)}
    products = set().union(*rows)
    comp = [0] * len(rows)
    idrow = None
    for rx in rows:
        t = lookup(rx)
        for u in products:
            c = comp[u] = ids.get(at[u](t))
            if c is None:
                return False
        if idrow is None:
            rid = lookup([ids[row] for row in enc])
            idrow = [compose(rid) for compose in at]
        t = lookup(comp)
        for y, compose in enumerate(at):
            if idrow[rx[y]] != compose(t):
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
    idem = g.idempotents()
    return all(
        (p := rows[e][f]) == rows[f][e] and p in idem for e in idem for f in idem
    )


def canonical_twist(g: Groupoid) -> Mapping:
    """The map ``a -> a * (a * a')`` built from the inverse table.

    Raises :class:`NotInverse` when some element lacks a unique inverse.
    """
    facts = _Facts(g)
    if facts.inv is None:
        raise _not_inverse(g)
    return facts.canonical


class _fact:
    """A lazily computed attribute: the first read stores the value in the
    instance, which serves every later read.  Like
    :class:`functools.cached_property` without the lock that Python 3.11
    takes on every first read, which alone cost about a tenth of a
    ``decide`` on tables of order <= 3."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, facts, owner=None):
        value = facts.__dict__[self.name] = self.compute(facts)
        return value


class _Facts:
    """The pure facts about one table that the decision criteria, ``check``
    and the sweep read, each computed at most once and only when first read.

    They are inputs, not verdicts: each decision criterion still derives
    its own verdict from them.  An instance lives for one call, or for one
    table's checks in a sweep suite; nothing is stored on the table itself.
    """

    def __init__(self, g: Groupoid):
        self.g = g

    @_fact
    def inv(self) -> Mapping | None:
        """The inverse table, or ``None`` when some element does not have
        exactly one inverse: :func:`_inverse_images`, not the cache of
        :func:`inverse_table`, which tables decided one by one only churn."""
        return _inverse_images(self.g.rows)

    @_fact
    def idempotents(self) -> frozenset[int]:
        return self.g.idempotents()

    @_fact
    def e_semilattice(self) -> bool:
        return idempotents_form_semilattice(self.g)

    @_fact
    def completely_inverse(self) -> bool:
        # x*x' == x'*x, and it is idempotent.
        rows, inv = self.g.rows, self.inv
        return inv is not None and all(
            (p := rows[x][y]) == rows[y][x] and p in self.idempotents
            for x, y in enumerate(inv)
        )

    @_fact
    def strongly_regular(self) -> bool:
        return strongly_regular_witness(self.g) is not None

    @_fact
    def right_bol(self) -> bool:
        return is_right_bol(self.g)

    @_fact
    def shift_images(self) -> tuple[tuple[int, ...], ...] | None:
        return _shift_images(self.g)

    @_fact
    def canonical(self) -> Mapping:
        """The canonical map ``a -> a * (a * a')``.  Read only when
        :attr:`inv` is a table: every reader checks that first."""
        rows, inv = self.g.rows, self.inv
        return tuple(rows[a][rows[a][inv[a]]] for a in range(self.g.order))

    def antihomomorphism(self, f: Mapping) -> bool:
        """The law ``(a*b)' == f(b') * f(a')`` for all a, b; ``False``
        without an inverse table."""
        inv = self.inv
        if inv is None:
            return False
        rows = self.g.rows
        return all(
            inv[rows[a][b]] == rows[f[inv[b]]][f[inv[a]]]
            for a in range(self.g.order)
            for b in range(self.g.order)
        )
