"""Known answers, computed with the benchmark's own loops.

The benchmark checks the library's outputs against constructions and
theory, never against the library itself: every table here is built from
its definition and every witness is re-verified element by element.
"""

from __future__ import annotations


def is_associative(rows) -> bool:
    n = len(rows)
    return all(
        rows[rows[x][y]][z] == rows[x][rows[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def witness_error(rows, star, alpha) -> str | None:
    """Why ``(star, alpha)`` fails to determine ``rows``, or ``None``.

    Checks that ``star`` is associative, that ``alpha`` is a self-inverse
    automorphism of ``star`` fixing every idempotent of ``star``, and that
    ``x*y == star[alpha[x]][y]`` for all x, y.
    """
    n = len(rows)
    if len(star) != n or len(alpha) != n:
        return "witness has the wrong order"
    if not is_associative(star):
        return "witness star is not associative"
    for x in range(n):
        if alpha[alpha[x]] != x:
            return f"witness alpha is not an involution at {x}"
        if star[x][x] == x and alpha[x] != x:
            return f"witness alpha moves the idempotent {x}"
        for y in range(n):
            if alpha[star[x][y]] != star[alpha[x]][alpha[y]]:
                return f"witness alpha is not an automorphism at ({x},{y})"
            if rows[x][y] != star[alpha[x]][y]:
                return f"witness does not rebuild the table at ({x},{y})"
    return None


# ---------------------------------------------------------------------------
# Ladder families.
# ---------------------------------------------------------------------------


def zn_twist(n: int):
    """Z_n twisted by negation: ``x*y = (y - x) mod n``; star is addition
    and alpha is negation, so the table is determined."""
    return tuple(tuple((y - x) % n for y in range(n)) for x in range(n))


def negation(n: int):
    return tuple((-x) % n for x in range(n))


def left_zero_band(n: int):
    """``x*y = x``.  For n >= 2 it is not completely inverse (every element
    is an inverse of every other), so it is never determined; its
    automorphism group is the full symmetric group."""
    return tuple(tuple(x for _ in range(n)) for x in range(n))


def cyclic_chain(orders):
    """A chain of cyclic groups ``Z_{orders[0]} < Z_{orders[1]} < ...``,
    each with negation, glued by reduction modulo the lower order.

    Semilattice element ``e`` is the chain position (meet = min); block
    ``e`` holds ``Z_{orders[e]}`` at consecutive global ids, identity first,
    which is the numbering the ``.cspec`` format implies.  Returns the
    twisted table, the glued mapping and the ``.cspec`` text.
    """
    k = len(orders)
    for lower, upper in zip(orders, orders[1:]):
        if upper % lower:
            raise ValueError(f"Z{lower} is not a quotient of Z{upper}")
    offsets = [sum(orders[:e]) for e in range(k)]
    home = [(e, i) for e, m in enumerate(orders) for i in range(m)]
    n = len(home)
    rows = []
    for a in range(n):
        e, i = home[a]
        row = []
        for b in range(n):
            f, j = home[b]
            m = min(e, f)
            u, v = i % orders[m], j % orders[m]
            row.append(offsets[m] + (v - u) % orders[m])
        rows.append(tuple(row))
    alpha = tuple(offsets[e] + (-i) % orders[e] for e, i in home)

    text = [f"semilattice {k}"]
    text += [" ".join(str(min(e, f)) for f in range(k)) for e in range(k)]
    for e, m in enumerate(orders):
        text.append(f"group {e} {m}")
        text += [" ".join(str((x + y) % m) for y in range(m)) for x in range(m)]
        text.append(f"alpha {e}")
        text.append(" ".join(str(x) for x in negation(m)))
    for f in range(k):
        for e in range(f):
            text.append(f"hom {f} {e}")
            text.append(" ".join(str(x % orders[e]) for x in range(orders[f])))
    return tuple(rows), alpha, "\n".join(text) + "\n"


def gpd_text(rows) -> str:
    return "\n".join([str(len(rows))] + [" ".join(map(str, r)) for r in rows]) + "\n"


def map_text(images) -> str:
    return f"{len(images)}\n" + " ".join(map(str, images)) + "\n"
