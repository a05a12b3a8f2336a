"""Finite groupoids as explicit multiplication tables.

A groupoid of order ``n`` is stored as an ``n x n`` table of rows; the entry
``rows[x][y]`` is the product ``x * y``.  Elements are the integers
``0 .. n-1``.  Everything here is exact and exhaustive: predicates quantify
over all element tuples of the relevant arity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from operator import itemgetter
from typing import Iterator

from .errors import MalformedInput

__all__ = [
    "VARIETIES",
    "Groupoid",
    "in_semigroup_class",
    "parse_groupoid",
    "satisfies_variety",
    "serialize_groupoid",
    "square_subgroupoid",
]


#: The smallest order whose rows compose as bytes.  Encoding the rows
#: costs O(n²) up front; a full kernel pass wins it back by 10-35% at
#: n = 8, by only 3-22% at n = 6, and an early exit never does.
_BYTE_ROWS_FROM = 8


def _compositions(rows) -> tuple:
    """The rows of a table in one encoding, and the maps composing them.

    Returns ``(enc, at, lookup)``.  ``enc[a]`` is the row of a; for any
    sequence ``v`` of n elements, ``at[y](lookup(v))`` is ``v`` composed
    with the row of y, ``(v[y*0], ..., v[y*(n-1)])``, in the encoding of
    ``enc``, so composites and rows compare and hash alike.  For ``v`` the
    row of x it is the row of ``x*(y*_)``.  Every kernel that composes rows
    goes through here, and the encoding lives for one kernel call.

    Orders from :data:`_BYTE_ROWS_FROM` to 256, and order 1, whose one-index
    ``itemgetter`` would return a bare item, encode rows as ``bytes``:
    ``lookup(v)`` is ``v`` as bytes padded to 256, a composition is one
    ``bytes.translate`` and a comparison one ``memcmp``, all in C.  Other
    orders keep tuples, composed by ``itemgetter``: below, the encoding
    costs more than it saves; above, an element does not fit in a byte.
    """
    n = len(rows)
    if 1 < n < _BYTE_ROWS_FROM or n > 256:
        return rows, list(starmap(itemgetter, rows)), tuple
    enc = list(map(bytes, rows))
    pad = bytes(256 - n)
    return enc, [row.translate for row in enc], lambda v: bytes(v) + pad


def _homomorphic(f, rows, hrows) -> bool:
    """True when ``f[rows[x][y]] == hrows[f[x]][f[y]]`` for all x, y, for a
    map ``f`` of ``0..len(rows)-1`` into ``0..len(hrows)-1`` (unchecked).

    One row at a time: the row of x read through f, ``f o rows[x]``, is
    the row of f(x) read at f, ``hrows[f[x]] o f``.  Where
    :func:`_compositions` would encode ``rows`` as bytes, and ``hrows``
    fits in a byte too, each side is one ``bytes.translate``; otherwise
    each is one ``itemgetter`` call on tuples (at order 1 both give a bare
    element, which compares alike).  A row is encoded only when it is
    compared, so a map that fails in its first rows pays for those alone.
    """
    n = len(rows)
    if _BYTE_ROWS_FROM <= n <= 256 and len(hrows) <= 256:
        image = bytes(f)
        through = image + bytes(256 - n)
        pad = bytes(256 - len(hrows))
        for row, fx in zip(rows, f):
            at_image = bytes(hrows[fx]) + pad
            if bytes(row).translate(through) != image.translate(at_image):
                return False
        return True
    at = itemgetter(*f)
    for row, fx in zip(rows, f):
        if itemgetter(*row)(f) != at(hrows[fx]):
            return False
    return True


def _check_square(rows: tuple, rows_name: str, entry_name: str) -> None:
    """Raise ``ValueError`` unless ``rows`` is n tuples of length n with
    int entries in ``0..n-1`` (a ``bool`` is not one); the messages name
    the rows and entries."""
    n = len(rows)
    for row in rows:
        if not isinstance(row, tuple) or len(row) != n:
            raise ValueError(f"expected {n} {rows_name} of length {n}")
        for v in row:
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"{entry_name} entry {v!r} outside 0..{n - 1}")


@dataclass(frozen=True, slots=True)
class Groupoid:
    """An immutable finite magma given by its full multiplication table."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.rows, tuple):
            raise TypeError("rows must be a tuple of tuples")
        if not self.rows:
            raise ValueError("a table needs at least one element")
        _check_square(self.rows, "rows", "table")

    @staticmethod
    def from_rows(rows) -> "Groupoid":
        """Build a groupoid from any iterable of iterables of ints."""
        return Groupoid(tuple(tuple(row) for row in rows))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "Groupoid":
        """A table derived from valid data, made without re-validating it.

        Only for rows that are a non-empty square tuple of tuples with
        entries in range by construction; anything read from outside goes
        through the validating constructor.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "rows", rows)
        return g

    @property
    def order(self) -> int:
        return len(self.rows)

    def product(self, x: int, y: int) -> int:
        return self.rows[x][y]

    def is_associative(self) -> bool:
        """Exhaustively test ``(x*y)*z == x*(y*z)``."""
        rows = self.rows
        enc, at, lookup = _compositions(rows)
        for rx in rows:
            # Row of x*(y*_) for fixed x,y is rx composed with row of y;
            # row of (x*y)*_ is the row indexed by x*y.
            t = lookup(rx)
            for y, compose in enumerate(at):
                if enc[rx[y]] != compose(t):
                    return False
        return True

    def idempotents(self) -> frozenset[int]:
        """All x with ``x*x == x``."""
        return frozenset(x for x in range(self.order) if self.rows[x][x] == x)

    def products(self) -> tuple[int, ...]:
        """The sorted set of all products ``{x*y}``."""
        return tuple(sorted({v for row in self.rows for v in row}))

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.order))


def square_subgroupoid(g: Groupoid) -> tuple[Groupoid, tuple[int, ...]]:
    """Restrict ``g`` to the set of all products ``{x*y : x, y}``.

    Returns the restricted table (re-numbered 0..k-1 in ascending order of
    the original labels) together with the original labels of its elements.
    When every element is a product, the restricted table is ``g`` itself.
    The product set is always closed: a product of products is a product.
    """
    members = g.products()
    if len(members) == g.order:
        return g, members
    index = {v: i for i, v in enumerate(members)}
    rows = tuple(tuple(index[g.rows[x][y]] for y in members) for x in members)
    return Groupoid._trusted(rows), members


def _sat_B(g: Groupoid) -> bool:
    # x == x*x for all x
    return all(g.rows[x][x] == x for x in range(g.order))


def _sat_L0(g: Groupoid) -> bool:
    # (x*y)*z == x: the row of each product in row x is constant x.
    rows = g.rows
    n = g.order
    return all(rows[p] == (x,) * n for x, row in enumerate(rows) for p in row)


def _sat_R0(g: Groupoid) -> bool:
    # (x*y)*z == z: the row of each product is the identity row.
    rows = g.rows
    identity = tuple(range(g.order))
    return all(rows[p] == identity for row in rows for p in row)


def _sat_RB(g: Groupoid) -> bool:
    # (x*y)*x == x
    rows = g.rows
    n = g.order
    return all(rows[rows[x][y]][x] == x for x in range(n) for y in range(n))


def _sat_IB(g: Groupoid) -> bool:
    # x*y == (x*x)*(y*y): row x is the row of x*x read at the squares.
    rows = g.rows
    sq = [row[x] for x, row in enumerate(rows)]
    return all(row == tuple(map(rows[s].__getitem__, sq)) for row, s in zip(rows, sq))


def _sat_IL0(g: Groupoid) -> bool:
    # (x*y)*z == x*w: row x is constant, and the row of its constant, the
    # only product in row x, is row x.
    rows = g.rows
    n = g.order
    return all(row == (row[0],) * n and rows[row[0]] == row for row in rows)


def _sat_IR0(g: Groupoid) -> bool:
    # (x*y)*z == w*z: every column is constant, so all rows are equal.
    return len(set(g.rows)) == 1


def _sat_IRB(g: Groupoid) -> bool:
    # (x*y)*z == x*z: the row of each product in row x is row x.
    rows = g.rows
    return all(rows[p] == row for row in rows for p in row)


def _sat_GB(g: Groupoid) -> bool:
    # x*y == ((x*y)*x)*y
    rows = g.rows
    n = g.order
    return all(
        rows[x][y] == rows[rows[rows[x][y]][x]][y] for x in range(n) for y in range(n)
    )


def _sat_GL0(g: Groupoid) -> bool:
    # (x*y)*z == x*y: the row of each product p is constant p.
    rows = g.rows
    n = g.order
    return all(rows[p] == (p,) * n for row in rows for p in row)


def _sat_GR0(g: Groupoid) -> bool:
    # (x*y)*z == y*z: the row of x*y is row y.
    rows = g.rows
    return all(rows[p] == rows[y] for row in rows for y, p in enumerate(row))


def _sat_GRB(g: Groupoid) -> bool:
    # x*y == (((x*y)*z)*x)*y: every w in the row of p = x*y has (w*x)*y == p.
    rows = g.rows
    return all(
        rows[rows[w][x]][y] == p
        for x, row in enumerate(rows)
        for y, p in enumerate(row)
        for w in rows[p]
    )


_CHECKERS = {
    "B": _sat_B,
    "L0": _sat_L0,
    "R0": _sat_R0,
    "RB": _sat_RB,
    "IB": _sat_IB,
    "IL0": _sat_IL0,
    "IR0": _sat_IR0,
    "IRB": _sat_IRB,
    "GB": _sat_GB,
    "GL0": _sat_GL0,
    "GR0": _sat_GR0,
    "GRB": _sat_GRB,
}

#: Tags for the twelve product identities handled by :func:`satisfies_variety`,
#: in their fixed canonical order.
VARIETIES = tuple(_CHECKERS)


def _checker(variety: str):
    """The test of one identity tag; an unknown tag is a ``ValueError``."""
    try:
        return _CHECKERS[variety]
    except KeyError:
        raise ValueError(f"unknown variety tag {variety!r}") from None


def satisfies_variety(g: Groupoid, variety: str) -> bool:
    """Exhaustively test one of the twelve product identities.

    This is a pure identity check: it does not require associativity.
    Use :func:`in_semigroup_class` for membership in the corresponding
    semigroup class.
    """
    return _checker(variety)(g)


def in_semigroup_class(g: Groupoid, variety: str) -> bool:
    """Membership in one of the twelve semigroup classes.

    A table belongs to the class when it is associative *and* satisfies the
    class identity.  An unknown tag is refused before either test.
    """
    checker = _checker(variety)
    return g.is_associative() and checker(g)


def parse_groupoid(text: str) -> Groupoid:
    """Parse the ``.gpd`` format: order on the first line, then the rows.

    Each row is one line of ``n`` whitespace-separated integers in
    ``0..n-1``.  Blank lines and lines starting with ``#`` are ignored.
    """
    lines = _ContentLines(text)
    n = lines.size("order")
    rows = tuple(lines.ints(n, n, "row") for _ in range(n))
    lines.end()
    # ``ints`` has checked every row's length and every entry's range.
    return Groupoid._trusted(rows)


def serialize_groupoid(g: Groupoid) -> str:
    """Render a table in the ``.gpd`` format (newline-terminated)."""
    out = [str(g.order)]
    out.extend(" ".join(map(str, row)) for row in g.rows)
    return "\n".join(out) + "\n"


class _ContentLines:
    """The content lines of a ``.gpd``, ``.map`` or ``.cspec`` text, read in order.

    Blank lines and lines starting with ``#`` are skipped.  Every error
    names a line: the offending one, or, when content is missing, the line
    after the last content line (line 1 for an empty input).
    """

    def __init__(self, text: str):
        self._lines = [
            (i, line)
            for i, line in enumerate(map(str.strip, text.splitlines()), start=1)
            if line and not line.startswith("#")
        ]
        self._pos = 0

    def _take(self, what: str) -> tuple[int, str]:
        if self._pos == len(self._lines):
            lineno = self._lines[-1][0] + 1 if self._lines else 1
            raise MalformedInput(f"unexpected end of input, expected {what}", lineno)
        self._pos += 1
        return self._lines[self._pos - 1]

    def ints(self, count: int, bound: int, what: str) -> tuple[int, ...]:
        """One line of ``count`` integers in ``0..bound-1``."""
        lineno, line = self._take(what)
        parts = line.split()
        if len(parts) != count:
            raise MalformedInput(
                f"expected {count} entries in {what}, got {len(parts)}", lineno
            )
        values = []
        for part in parts:
            try:
                v = int(part)
            except ValueError:
                raise MalformedInput(f"bad entry {part!r} in {what}", lineno) from None
            if not 0 <= v < bound:
                raise MalformedInput(
                    f"entry {v} outside 0..{bound - 1} in {what}", lineno
                )
            values.append(v)
        return tuple(values)

    def size(self, what: str, label: str = "") -> int:
        """A positive integer, alone on its line or after the words of ``label``."""
        form = repr(f"{label} <{what}>") if label else what
        lineno, line = self._take(form)
        *words, field = line.split()
        if words != label.split():
            raise MalformedInput(f"expected {form}, got {line!r}", lineno)
        try:
            n = int(field)
        except ValueError:
            raise MalformedInput(f"bad {what} {field!r}", lineno) from None
        if n <= 0:
            raise MalformedInput(f"{what} must be positive, got {n}", lineno)
        return n

    def header(self, expected: str) -> None:
        """A line that reads exactly ``expected``."""
        lineno, line = self._take(repr(expected))
        if line != expected:
            raise MalformedInput(f"expected {expected!r}, got {line!r}", lineno)

    def end(self) -> None:
        """No content left."""
        if self._pos < len(self._lines):
            lineno, line = self._lines[self._pos]
            raise MalformedInput(f"unexpected trailing content {line!r}", lineno)
