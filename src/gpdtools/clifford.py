"""Block construction of twisted semilattices of groups, and its inverse.

The construction data is: a finite meet semilattice; one finite group per
semilattice element, each with a self-inverse identity-fixing automorphism;
and a transitive system of connecting maps, one per strictly comparable
pair, applied on the right and compatible with the per-block automorphisms.
From this data the module builds both the combined semilattice-of-groups
table and the twisted table it determines, and — in the other direction —
decomposes any decided-positive groupoid back into such data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, product

from .errors import InvalidSpec, NotDetermined
from .groupoid import Groupoid, _check_square, _ContentLines
from .inverses import _inverse_images, _not_inverse
from .mappings import Mapping, is_homomorphism, is_involution

__all__ = [
    "ConstructionSpec",
    "GroupSpec",
    "MeetSemilattice",
    "build_determined",
    "build_strong_slg",
    "decompose",
    "parse_cspec",
    "serialize_cspec",
    "validate_spec",
]


@dataclass(frozen=True, slots=True)
class MeetSemilattice:
    """A meet table over elements ``0..k-1``; ``f >= e`` iff ``meet[e][f] == e``."""

    meet: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # Tuples throughout, so that the part checks can key on the value.
        object.__setattr__(self, "meet", tuple(self.meet))
        _check_square(self.meet, "meet rows", "meet")

    @property
    def order(self) -> int:
        return len(self.meet)

    def leq(self, e: int, f: int) -> bool:
        """True when ``e <= f`` in the induced order."""
        return self.meet[e][f] == e

    def strict_pairs(self) -> tuple[tuple[int, int], ...]:
        """All pairs ``(f, e)`` with ``f > e``, sorted lexicographically."""
        k = self.order
        return tuple(
            (f, e)
            for f in range(k)
            for e in range(k)
            if f != e and self.meet[e][f] == e
        )


@dataclass(frozen=True, slots=True)
class GroupSpec:
    """One block: a group table (identity at local index 0) plus its
    self-inverse identity-fixing automorphism."""

    rows: tuple[tuple[int, ...], ...]
    involution: Mapping

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "involution", tuple(self.involution))
        _check_square(self.rows, "group rows", "group")
        m = len(self.rows)
        if len(self.involution) != m or any(
            type(v) is not int or not 0 <= v < m for v in self.involution
        ):
            raise ValueError("involution images must lie in the group carrier")

    @classmethod
    def _trusted(
        cls, rows: tuple[tuple[int, ...], ...], involution: Mapping
    ) -> "GroupSpec":
        """A block derived from valid data, made without re-validating it.

        Only for a square tuple of tuples and a tuple of images of the same
        length, all entries in range by construction; anything read from
        outside goes through the validating constructor.
        """
        spec = object.__new__(cls)
        object.__setattr__(spec, "rows", rows)
        object.__setattr__(spec, "involution", involution)
        return spec

    @property
    def order(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, slots=True)
class ConstructionSpec:
    """Full construction data.

    ``homs`` holds one entry per strictly comparable pair ``(f, e)`` with
    ``f > e``, in lexicographic order: the connecting map from block ``f``
    into block ``e``, given by local images (applied on the right).

    ``carrier`` optionally pins the global numbering: one tuple of global
    ids per block, in local order.  ``None`` means the canonical numbering
    (consecutive ids block by block, identity first).  The carrier never
    appears in the serialized form; it exists so that decompositions of
    arbitrarily numbered tables rebuild to the exact original table.
    """

    semilattice: MeetSemilattice
    groups: tuple[GroupSpec, ...]
    homs: tuple[tuple[tuple[int, int], Mapping], ...]
    carrier: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if len(self.groups) != self.semilattice.order:
            raise ValueError("expected one group per semilattice element")

    def hom_map(self) -> dict[tuple[int, int], Mapping]:
        return dict(self.homs)


@lru_cache(maxsize=4096)
def _meet_problems(sl: MeetSemilattice) -> tuple[str, ...]:
    """The first violation of each of idempotence, commutativity and
    associativity, so a bad table costs at most three messages."""
    meet = sl.meet
    k = sl.order
    if k == 0:
        return ("semilattice is empty",)
    problems = []
    span = range(k)
    for e in span:
        if meet[e][e] != e:
            problems.append(f"meet not idempotent at {e}")
            break
    for e, f in combinations(span, 2):
        if meet[e][f] != meet[f][e]:
            problems.append(f"meet not commutative at ({e},{f})")
            break
    for e, f, h in product(span, repeat=3):
        if meet[meet[e][f]][h] != meet[e][meet[f][h]]:
            problems.append(f"meet not associative at ({e},{f},{h})")
            break
    return tuple(problems)


@lru_cache(maxsize=4096)
def _block_problems(group: GroupSpec) -> tuple[str, ...]:
    """Violations of the group axioms (identity at local 0) and of the
    block mapping being a self-inverse identity-fixing automorphism."""
    rows = group.rows
    m = group.order
    if m == 0:
        return ("group is empty",)
    problems = []
    table = Groupoid._trusted(rows)
    if not table.is_associative():
        problems.append("group table is not associative")
    if any(rows[0][x] != x or rows[x][0] != x for x in range(m)):
        problems.append("local index 0 is not a two-sided identity")
    for x in range(m):
        if not any(rows[x][y] == 0 and rows[y][x] == 0 for y in range(m)):
            problems.append(f"local element {x} has no two-sided inverse")
    alpha = group.involution
    if not is_involution(alpha):
        problems.append("mapping is not an involution")
    elif not is_homomorphism(alpha, table, table):
        problems.append("mapping is not an automorphism")
    if alpha[0] != 0:
        problems.append("mapping does not fix the identity")
    return tuple(problems)


_MISFIT = "images do not fit the blocks"


@lru_cache(maxsize=4096)
def _map_problems(src: GroupSpec, dst: GroupSpec, images: Mapping) -> tuple[str, ...]:
    """Violations of one connecting map with int images: fitting the
    blocks, being a homomorphism of the twisted blocks, and commuting with
    the block mappings.  A map that does not fit gets :data:`_MISFIT` alone."""
    if len(images) != src.order or not all(0 <= v < dst.order for v in images):
        return (_MISFIT,)
    problems = []
    # Homomorphism of the twisted block tables: the twisted product in
    # block f is alpha_f(a) + b, in block e it is alpha_e(u) ∘ v.
    srows, drows = src.rows, dst.rows
    sa, da = src.involution, dst.involution
    span = range(src.order)
    for a, b in product(span, span):
        if images[srows[sa[a]][b]] != drows[da[images[a]]][images[b]]:
            problems.append(f"not a homomorphism of the twisted blocks at ({a},{b})")
            break
    for b in span:
        if da[images[b]] != images[sa[b]]:
            problems.append(f"does not commute with the block mappings at {b}")
            break
    return tuple(problems)


def validate_spec(spec: ConstructionSpec) -> list[str]:
    """The invariant violations in the construction data, as messages.

    An empty list means the spec is valid.  Each meet law, each law of a
    connecting map and each chain is reported at its first failure only.  Checked: the meet table is a
    semilattice; each block is a group with identity at local 0 whose
    mapping is a self-inverse identity-fixing automorphism; the connecting
    maps cover exactly the strictly comparable pairs in order, are
    homomorphisms of the per-block twisted tables, commute with the block
    mappings, and compose transitively along chains; and the carrier, if
    present, is a block-shaped partition of the combined index range.

    The semilattice, block and connecting-map checks are memoised per
    part, so validating specs that share parts pays for each part once.
    """
    sl = spec.semilattice
    k = sl.order
    problems = list(_meet_problems(sl))
    for e, group in enumerate(spec.groups):
        problems += [f"block {e}: {msg}" for msg in _block_problems(group)]

    expected_pairs = sl.strict_pairs()
    given_pairs = tuple(pair for pair, _ in spec.homs)
    if given_pairs != expected_pairs:
        problems.append(
            f"connecting maps cover pairs {given_pairs}, expected {expected_pairs}"
        )
        return problems  # hom-indexed checks below would mis-address blocks

    homs = spec.hom_map()
    fitting = set()
    for (f, e), images in homs.items():
        # The memo would take False and True for the equal 0 and 1, so a map
        # with an image that is not an int misfits before it.
        if all(type(v) is int for v in images):
            found = _map_problems(spec.groups[f], spec.groups[e], tuple(images))
        else:
            found = (_MISFIT,)
        if found != (_MISFIT,):
            fitting.add((f, e))
        problems += [f"map ({f}>{e}): {msg}" for msg in found]

    # Chains g > f > e, in lexicographic order of (g, f, e), whose three
    # maps all fit.  On a meet table that is not a semilattice, g > e may
    # have no map at all.
    for g, f in expected_pairs:
        for e in range(k):
            if not ((f, e) in fitting and (g, f) in fitting and (g, e) in fitting):
                continue
            upper, lower, direct = homs[(g, f)], homs[(f, e)], homs[(g, e)]
            for a in range(spec.groups[g].order):
                if lower[upper[a]] != direct[a]:
                    problems.append(
                        f"maps ({g}>{f}>{e}): composition differs from the "
                        f"direct map at {a}"
                    )
                    break

    if spec.carrier is not None:
        sizes = [group.order for group in spec.groups]
        total = sum(sizes)
        ids = [v for block in spec.carrier for v in block]
        if len(spec.carrier) != k or any(
            len(block) != size for block, size in zip(spec.carrier, sizes)
        ):
            problems.append("carrier blocks do not match the group sizes")
        elif any(type(v) is not int for v in ids) or sorted(ids) != list(range(total)):
            problems.append("carrier is not a partition of the combined range")

    return problems


def _blocks(spec: ConstructionSpec) -> tuple[tuple[int, ...], ...]:
    """The global ids of each block, in local order."""
    if spec.carrier is not None:
        return spec.carrier
    blocks, start = [], 0
    for group in spec.groups:
        blocks.append(tuple(range(start, start + group.order)))
        start += group.order
    return tuple(blocks)


def _products(spec: ConstructionSpec, twisted: bool) -> tuple[Groupoid, Mapping]:
    """The (twisted) product table of valid construction data, and the
    glued mapping.

    One pass over block pairs ``(e, f)``: row ``i`` of block ``e`` is
    pushed into the meet block ``m`` once, its group row there is looked
    up with labels already global, and the pushed images of block ``f``
    read the cells of that row.  Rows are laid out block after block; a
    carrier only permutes rows and columns at the end.
    """
    meet = spec.semilattice.meet
    groups = spec.groups
    blocks = _blocks(spec)
    k = len(groups)
    # down[e][m]: local images in block m of block e's elements, for e >= m.
    down: list[list] = [[None] * k for _ in range(k)]
    for e, group in enumerate(groups):
        down[e][e] = range(group.order)
    for (e, m), images in spec.homs:
        down[e][m] = images
    # labelled[m][u]: row u of block m's (twisted) group table, in global ids.
    labelled = []
    for group, block in zip(groups, blocks):
        rows = group.rows
        if twisted:
            rows = [rows[u] for u in group.involution]
        labelled.append([tuple(map(block.__getitem__, row)) for row in rows])

    table = []
    for e, block in enumerate(blocks):
        # Per block f: the meet block's rows, e's pushes and f's pushes
        # (None when f is the meet block itself, so its cells are the row).
        plan = [
            (labelled[m], down[e][m], None if f == m else down[f][m])
            for f, m in enumerate(meet[e])
        ]
        for i in range(len(block)):
            row: list[int] = []
            for rows, left, right in plan:
                cells = rows[left[i]]
                row += cells if right is None else map(cells.__getitem__, right)
            table.append(tuple(row))
    alpha = [
        block[u] for group, block in zip(groups, blocks) for u in group.involution
    ]
    if spec.carrier is None:
        return Groupoid._trusted(tuple(table)), tuple(alpha)
    # table[p] is the row of the element at layout position p, its cells in
    # layout order; reorder both to the carrier's global ids.
    layout = [gid for block in blocks for gid in block]
    position = [0] * len(layout)
    for p, gid in enumerate(layout):
        position[gid] = p
    rows = tuple(tuple(map(table[p].__getitem__, position)) for p in position)
    return Groupoid._trusted(rows), tuple(alpha[p] for p in position)


def _validated(spec: ConstructionSpec) -> ConstructionSpec:
    problems = validate_spec(spec)
    if problems:
        raise InvalidSpec("; ".join(problems))
    return spec


def build_strong_slg(spec: ConstructionSpec) -> Groupoid:
    """The combined semilattice-of-groups table.

    The product of ``a`` in block ``e`` and ``b`` in block ``f`` pushes
    both operands into the meet block via the connecting maps and
    multiplies there in the group.
    """
    table, _ = _products(_validated(spec), twisted=False)
    return table


def build_determined(spec: ConstructionSpec) -> tuple[Groupoid, Mapping]:
    """The twisted table determined by the construction data, plus the
    glued mapping.

    The product applies the meet block's mapping to the pushed-down left
    operand before multiplying, which makes the result exactly
    ``twist(build_strong_slg(spec), alpha)`` with ``alpha`` the union of
    the block mappings.
    """
    return _products(_validated(spec), twisted=True)


def decompose(g: Groupoid, alpha: Mapping) -> ConstructionSpec:
    """Recover construction data from a determined groupoid and its mapping.

    Requires that ``g`` decides positive with witness mapping ``alpha``
    (see ``determination.decide``); raises :class:`NotDetermined` when the
    structure needed for the recovery is missing or inconsistent.  The
    blocks are the classes of ``a·a⁻¹``; the per-block group tables are
    the untwisted restrictions; the connecting maps are left products by
    the lower idempotent.  The result always rebuilds to exactly
    ``(g, alpha)`` and its carrier is ``None`` whenever the recovered
    numbering is already canonical.

    The inverse table comes from the uncached kernel, not from the cache
    of :func:`~gpdtools.inverses.inverse_table`: decompositions meet their
    tables one by one, and a cache would only keep them alive.
    """
    n = g.order
    rows = g.rows
    if len(alpha) != n or not is_involution(alpha):
        raise NotDetermined("mapping is not an involution on the carrier")
    idem = sorted(g.idempotents())
    if not idem:
        raise NotDetermined("no idempotents, so no blocks to recover")
    index_of = {label: e for e, label in enumerate(idem)}

    inv = _inverse_images(rows)
    if inv is None:
        raise NotDetermined(f"no inverse table: {_not_inverse(g)}")

    meet_rows = []
    for e_label in idem:
        meet_row = []
        for f_label in idem:
            p = rows[e_label][f_label]
            if p not in index_of:
                raise NotDetermined(
                    f"idempotent product {e_label}*{f_label}={p} is not idempotent"
                )
            meet_row.append(index_of[p])
        meet_rows.append(tuple(meet_row))
    semilattice = MeetSemilattice(tuple(meet_rows))

    members: list[list[int]] = [[] for _ in idem]
    for a in range(n):
        e_label = rows[a][inv[a]]
        if e_label not in index_of:
            raise NotDetermined(f"class label {e_label} of {a} is not idempotent")
        if a != e_label:
            members[index_of[e_label]].append(a)
    blocks = tuple((e_label, *rest) for e_label, rest in zip(idem, members))

    # Every element lies in the block of a·a⁻¹ or heads its own: local is total.
    local: dict[int, tuple[int, int]] = {}
    for e, block in enumerate(blocks):
        for i, gid in enumerate(block):
            local[gid] = (e, i)

    groups = []
    for e, block in enumerate(blocks):
        table = []
        for a in block:
            row = []
            for b in block:
                p = rows[alpha[a]][b]  # untwisted product
                home = local[p]
                if home[0] != e:
                    raise NotDetermined(
                        f"untwisted block {e} is not closed at ({a},{b})"
                    )
                row.append(home[1])
            table.append(tuple(row))
        images = []
        for a in block:
            home = local[alpha[a]]
            if home[0] != e:
                raise NotDetermined(f"mapping does not preserve block {e}")
            images.append(home[1])
        groups.append(GroupSpec._trusted(tuple(table), tuple(images)))

    homs = []
    for f, e in semilattice.strict_pairs():
        e_label = idem[e]
        images = []
        for b in blocks[f]:
            p = rows[e_label][b]
            home = local[p]
            if home[0] != e:
                raise NotDetermined(
                    f"connecting image {e_label}*{b}={p} misses block {e}"
                )
            images.append(home[1])
        homs.append(((f, e), tuple(images)))

    spec = ConstructionSpec(
        semilattice=semilattice, groups=tuple(groups), homs=tuple(homs)
    )
    if _blocks(spec) != blocks:
        spec = replace(spec, carrier=blocks)
    problems = validate_spec(spec)
    if problems:
        raise NotDetermined("recovered data is invalid: " + "; ".join(problems))
    rebuilt, rebuilt_alpha = _products(spec, twisted=True)
    if rebuilt != g or rebuilt_alpha != tuple(alpha):
        raise NotDetermined("recovered data does not rebuild the input")
    return spec


def serialize_cspec(spec: ConstructionSpec) -> str:
    """Render construction data in the sectioned ``.cspec`` text format.

    The carrier is deliberately not serialized; parsing yields the
    canonical numbering.
    """
    sl = spec.semilattice
    out = [f"semilattice {sl.order}"]
    out.extend(" ".join(map(str, row)) for row in sl.meet)
    for e, group in enumerate(spec.groups):
        out.append(f"group {e} {group.order}")
        out.extend(" ".join(map(str, row)) for row in group.rows)
        out.append(f"alpha {e}")
        out.append(" ".join(map(str, group.involution)))
    for (f, e), images in spec.homs:
        out.append(f"hom {f} {e}")
        out.append(" ".join(map(str, images)))
    return "\n".join(out) + "\n"


def parse_cspec(text: str) -> ConstructionSpec:
    """Parse the sectioned ``.cspec`` format (see :func:`serialize_cspec`).

    The parser is strict: sections must appear in canonical order with
    exactly the expected headers, the connecting-map sections must cover
    exactly the strictly comparable pairs in lexicographic order, and no
    trailing content is allowed.
    """
    lines = _ContentLines(text)
    k = lines.size("order", "semilattice")
    semilattice = MeetSemilattice(tuple(lines.ints(k, k, "meet row") for _ in range(k)))
    groups = []
    for e in range(k):
        m = lines.size("order", f"group {e}")
        rows = tuple(lines.ints(m, m, f"group {e} row") for _ in range(m))
        lines.header(f"alpha {e}")
        images = lines.ints(m, m, f"alpha {e} images")
        groups.append(GroupSpec._trusted(rows, images))
    homs = []
    for f, e in semilattice.strict_pairs():
        lines.header(f"hom {f} {e}")
        images = lines.ints(groups[f].order, groups[e].order, f"hom {f} {e} images")
        homs.append(((f, e), images))
    lines.end()
    return ConstructionSpec(
        semilattice=semilattice, groups=tuple(groups), homs=tuple(homs)
    )
