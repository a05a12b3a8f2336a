"""Self-maps of a finite groupoid: involutions, homomorphisms, translations.

A mapping on ``0..n-1`` is a tuple ``f`` of length ``n`` with ``f[x]`` the
image of ``x``.  Enumeration helpers always yield mappings in lexicographic
order of that tuple, so "first found" results are deterministic.

``in_lt``, ``in_rt``, ``absorption_law`` and ``shifted_associativity`` trust
``f`` to be a mapping on ``g``'s carrier and give any verdict or an error for
another map: a length, int and range test in all four made the sweep's
``involution_laws`` suite take 0.77 s, not 0.44-0.46 s (C9 config, 3
alternating runs, 2 shared vCPUs, Python 3.11).
"""

from __future__ import annotations

from functools import lru_cache

from .groupoid import Groupoid, _ContentLines, _compositions, _homomorphic

__all__ = [
    "absorption_law",
    "automorphisms",
    "e_fixed_involutive_automorphisms",
    "find_isomorphism",
    "identity_mapping",
    "in_lt",
    "in_rt",
    "involutions",
    "involutive_automorphisms",
    "is_homomorphism",
    "is_involution",
    "parse_mapping",
    "serialize_mapping",
    "shifted_associativity",
]

Mapping = tuple[int, ...]
#: Per position, the ascending tuple of its admissible images.
Domain = tuple[tuple[int, ...], ...]


def identity_mapping(n: int) -> Mapping:
    return tuple(range(n))


def is_involution(f: Mapping) -> bool:
    """True when ``f`` is a self-inverse bijection (f(f(x)) == x) with
    ``int`` images, the maps :func:`parse_mapping` reads."""
    n = len(f)
    return all(type(y) is int and 0 <= y < n and f[y] == x for x, y in enumerate(f))


@lru_cache(maxsize=64, typed=True)
def involutions(n: int) -> tuple[Mapping, ...]:
    """All self-inverse bijections of ``0..n-1`` in lexicographic order.

    Built by pairing the smallest unplaced point either with itself or with
    a larger unplaced point; choices are explored in ascending image order,
    which yields the tuples lexicographically sorted.
    """
    if type(n) is not int or n < 0:
        raise ValueError("n must be an int of at least 0")
    result: list[Mapping] = []
    images = [-1] * n

    def place(done: int):
        while done < n and images[done] != -1:
            done += 1
        if done == n:
            result.append(tuple(images))
            return
        # Partners of the smallest unplaced point, ascending: itself (a
        # fixed point) comes before every larger unplaced point.
        for partner in range(done, n):
            if images[partner] == -1:
                images[done] = partner
                images[partner] = done
                place(done + 1)
                images[done] = -1
                images[partner] = -1

    place(0)
    return tuple(result)


def is_homomorphism(f: Mapping, g: Groupoid, h: Groupoid) -> bool:
    """True when ``f`` maps the carrier of ``g`` into that of ``h``, with
    ``int`` images, and ``f(x *_g y) == f(x) *_h f(y)`` for all x, y.

    The law is checked a whole row at a time (:func:`_homomorphic`): row x
    of ``g`` read through f against the row of f(x) in ``h`` read at f.
    """
    m = h.order
    if len(f) != g.order or not all(type(v) is int and 0 <= v < m for v in f):
        return False
    return _homomorphic(f, g.rows, h.rows)


def _isomorphisms(g: Groupoid, h: Groupoid, domain: Domain | None = None):
    """Backtracking search for bijective homomorphisms ``g -> h``, yielding
    each map as soon as it is found, in lexicographic order.

    The search is lazy: a caller that needs one map takes ``next(...)`` and
    the rest are never built; one that needs all takes ``tuple(...)``.

    Images are assigned to 0, 1, 2, ... in ascending candidate order.  After
    assigning the image of ``k`` we check every product constraint whose
    three participants (both factors and the product) are all at positions
    ``<= k``, and that involves ``k``: pairs ``(i, k)`` and ``(k, i)`` with
    ``i <= k`` whose product is ``<= k``, plus older pairs ``(i, j)`` with
    ``i, j < k`` whose product equals ``k``.  Every pair ``(i, j)`` is thus
    checked exactly once, at step ``max(i, j, i*j)``, which makes accepted
    full assignments genuine homomorphisms.

    A given ``domain`` (with ``h`` equal to ``g``) asks for the self-inverse
    automorphisms ``f`` with ``f[k] in domain[k]`` for every ``k``; it holds,
    per position, the ascending tuple of admissible images.  Choosing
    ``image[k] = c`` with ``c > k`` forces ``image[c] = k``; a position whose
    image is already forced has that one candidate, and a free position
    ``k`` takes only candidates ``c >= k`` in ``domain[k]`` whose own image
    is unassigned and with ``k`` in ``domain[c]``, so the image it forces is
    admissible too.  Any admissible self-inverse map agreeing with the
    assigned prefix meets these rules, so the search yields all of them
    without visiting the other automorphisms.  Hence a domain cut position
    by position (:func:`_restricted`) yields exactly the maps of the wider
    domain whose images all pass the cut, in the same lexicographic order.

    A pinned domain, one image per position, admits at most that one map:
    it is checked whole (:func:`is_involution`, :func:`is_homomorphism`)
    and yielded if it passes, with no search set up.  The shift-law
    domain of every built table of ``enumerate_specs(3, 4)`` is pinned.
    """
    n = g.order
    if h.order != n or (domain is not None and () in domain):
        return
    pinned = None if domain is None else _pinned(domain)
    if pinned is not None:
        if is_involution(pinned) and is_homomorphism(pinned, g, h):
            yield pinned
        return
    grows = g.rows
    hrows = h.rows
    image = [-1] * n
    used = [False] * n
    # late[k] lists pairs (i, j) with i, j < k and i*j == k.
    late: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(grows):
        for j, p in enumerate(row):
            if p > i and p > j:
                late[p].append((i, j))

    involutive = domain is not None
    admits = None if domain is None else [set(d) for d in domain]

    def extend(k: int):
        if k == n:
            yield tuple(image)
            return
        forced = image[k]
        # In the involutive search, used[c] for c >= k means image[c] is forced.
        if forced != -1:
            candidates = (forced,)
        elif admits is None:
            candidates = [c for c in range(n) if not used[c]]
        else:
            candidates = [
                c for c in domain[k] if c >= k and not used[c] and k in admits[c]
            ]
        for cand in candidates:
            image[k] = cand
            used[cand] = True
            if involutive:
                image[cand] = k
            ok = True
            for i in range(k + 1):
                p = grows[i][k]
                if p <= k and image[p] != hrows[image[i]][cand]:
                    ok = False
                    break
                q = grows[k][i]
                if q <= k and image[q] != hrows[cand][image[i]]:
                    ok = False
                    break
            if ok:
                for i, j in late[k]:
                    if hrows[image[i]][image[j]] != cand:
                        ok = False
                        break
            if ok:
                yield from extend(k + 1)
            used[cand] = False
            if involutive and cand > k:
                image[cand] = -1
        image[k] = forced

    yield from extend(0)


def _pinned(domain: Domain) -> Mapping | None:
    """The one map of a domain with no empty position, when every position
    holds one image; ``None`` when some position holds more."""
    if sum(map(len, domain)) == len(domain):
        return tuple(a for (a,) in domain)
    return None


def find_isomorphism(g: Groupoid, h: Groupoid) -> Mapping | None:
    """First isomorphism ``g -> h`` in lexicographic order, or ``None``."""
    return next(_isomorphisms(g, h), None)


@lru_cache(maxsize=4096)
def automorphisms(g: Groupoid) -> tuple[Mapping, ...]:
    """All automorphisms of ``g`` in lexicographic order."""
    return tuple(_isomorphisms(g, g))


@lru_cache(maxsize=4096)
def involutive_automorphisms(g: Groupoid) -> tuple[Mapping, ...]:
    """All self-inverse automorphisms of ``g`` in lexicographic order
    (includes the identity map, which is always one).

    Searched directly: the automorphisms that are not self-inverse are
    never built, so the cost follows the number of involutions that fit
    the table rather than the size of its automorphism group.
    """
    return tuple(_isomorphisms(g, g, (tuple(range(g.order)),) * g.order))


def _restricted(domain: Domain, keep) -> Domain:
    """``domain`` with each position x keeping only the images a for which
    ``keep(x, a)`` holds, in the same order."""
    return tuple(
        tuple([a for a in images if keep(x, a)]) for x, images in enumerate(domain)
    )


def e_fixed_involutive_automorphisms(g: Groupoid) -> tuple[Mapping, ...]:
    """Self-inverse automorphisms fixing every idempotent pointwise, in
    lexicographic order; each idempotent's only candidate is itself."""
    n = g.order
    idem = g.idempotents()
    fixed = _restricted((tuple(range(n)),) * n, lambda x, a: x not in idem or a == x)
    return tuple(_isomorphisms(g, g, fixed))


def in_lt(g: Groupoid, f: Mapping) -> bool:
    """Left-translation compatibility: ``f(x*y) == x * f(y)`` for all x, y
    (``f`` unchecked)."""
    rows = g.rows
    return all(
        f[rows[x][y]] == rows[x][f[y]] for x in range(g.order) for y in range(g.order)
    )


def in_rt(g: Groupoid, f: Mapping) -> bool:
    """Right-translation compatibility: ``f(x*y) == f(x) * y`` for all x, y
    (``f`` unchecked)."""
    rows = g.rows
    return all(
        f[rows[x][y]] == rows[f[x]][y] for x in range(g.order) for y in range(g.order)
    )


def absorption_law(g: Groupoid, f: Mapping) -> bool:
    """True when ``x * f(x) == f(x)`` for every x (``f`` unchecked)."""
    rows = g.rows
    return all(rows[x][f[x]] == f[x] for x in range(g.order))


def shifted_associativity(g: Groupoid, f: Mapping) -> bool:
    """True when ``(x*y)*z == f(x)*(y*z)`` for all x, y, z
    (``f`` unchecked)."""
    rows = g.rows
    enc, at, lookup = _compositions(rows)
    for x, rx in enumerate(rows):
        t = lookup(rows[f[x]])
        for y, compose in enumerate(at):
            if enc[rx[y]] != compose(t):
                return False
    return True


def _shift_images(g: Groupoid) -> Domain | None:
    """Per element x, the ascending tuple of all a with
    ``(x*y)*z == a*(y*z)`` for all y, z; ``None`` when some x has no such
    a (returned at the first x whose law fails for every a).

    Such an a sends each product ``u = y*z`` to ``(x*y)*z``, so its row on
    the product set is a vector ``v`` fixed by x, read off one
    representative pair per product.  The law then holds for x exactly
    when ``rows[x*y] == v o rows[y]`` for every y (one row comparison per
    y), and the a's are the elements whose row restricted to the product
    set equals ``v``.  So ``shifted_associativity(g, f)`` holds iff
    ``f[x]`` is in the returned tuple of every x, and the whole test costs
    O(n^2) row comparisons.

    For x = 0 the pass that finds each product's first pair checks the law
    cell by cell (``v`` is one value per product), so most failing tables
    exit before any row is composed, and the row of 0 is not composed.
    """
    rows = g.rows
    r0 = rows[0]
    pair: dict[int, tuple[int, int]] = {}
    v = [0] * len(rows)
    for y, ry in enumerate(rows):
        r0y = rows[r0[y]]
        for z, u in enumerate(ry):
            if u not in pair:
                pair[u] = (y, z)
                v[u] = r0y[z]
            elif v[u] != r0y[z]:
                return None
    products = sorted(pair)
    wanted = [tuple(map(v.__getitem__, products))]
    enc, at, lookup = _compositions(rows)
    for rx in rows[1:]:
        for u, (y, z) in pair.items():
            v[u] = rows[rx[y]][z]
        t = lookup(v)
        for y, compose in enumerate(at):
            if enc[rx[y]] != compose(t):
                return None
        wanted.append(tuple(map(v.__getitem__, products)))
    # Elements grouped by their row restricted to the product set.
    by_restriction: dict[tuple[int, ...], list[int]] = {}
    for a, ra in enumerate(rows):
        by_restriction.setdefault(tuple(map(ra.__getitem__, products)), []).append(a)
    images = tuple(tuple(by_restriction.get(w, ())) for w in wanted)
    return None if () in images else images


def parse_mapping(text: str) -> Mapping:
    """Parse the ``.map`` format: size line, then one line of all images.

    The second content line holds ``n`` whitespace-separated integers in
    ``0..n-1``.  Blank lines and ``#`` comments are ignored.
    """
    lines = _ContentLines(text)
    n = lines.size("size")
    images = lines.ints(n, n, "images")
    lines.end()
    return images


def serialize_mapping(f: Mapping) -> str:
    """Render a non-empty mapping with ``int`` images in ``0..len(f)-1``,
    the maps :func:`parse_mapping` reads back, in the ``.map`` format
    (newline-terminated); raise ``ValueError`` for any other."""
    if not f or any(type(v) is not int or not 0 <= v < len(f) for v in f):
        raise ValueError(f"not a mapping of 0..n-1 with n >= 1: {f!r}")
    return str(len(f)) + "\n" + " ".join(map(str, f)) + "\n"
