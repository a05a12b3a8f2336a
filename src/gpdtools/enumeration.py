"""Table generators and the exhaustive/randomized property sweep.

Generation side: every table of a small order in lexicographic order, a
counter-based reproducible random stream of larger tables, and the full
family of construction data up to stated size limits (semilattice
representatives, group-table representatives, compatible connecting maps).

Sweep side: a fixed table of property suites, each a filtered universal over
tables, mappings, or construction data that yields one map from law name
to verdict per instance.  A sweep partitions the instance space into
deterministic chunks (instance index modulo the chunk count), runs every
named suite on every chunk — in parallel when asked — and merges
per-chunk tallies and counterexamples into one report whose canonical
JSON form is independent of the partitioning.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple

from .clifford import (
    ConstructionSpec,
    GroupSpec,
    MeetSemilattice,
    _map_problems,
    _products,
    build_determined,
    decompose,
    parse_cspec,
    serialize_cspec,
    validate_spec,
)
from .determination import (
    DESCENT_PAIRS,
    _report_json,
    ad_membership_characterized_profile,
    ad_membership_profile,
    check_class_relations,
    check_twisted_slg,
    decide,
    is_semilattice_of_groups,
    twist,
    untwist,
)
from .errors import (
    LimitsTooLarge,
    NotDetermined,
    PreconditionViolated,
    TheoremViolation,
)
from .groupoid import (
    VARIETIES,
    Groupoid,
    in_semigroup_class,
    satisfies_variety,
    square_subgroupoid,
)
from .inverses import (
    _Facts,
    canonical_twist,
    inverses_of,
    is_completely_inverse,
    is_right_bol,
    strongly_regular_witness,
)
from .mappings import (
    Mapping,
    absorption_law,
    e_fixed_involutive_automorphisms,
    find_isomorphism,
    identity_mapping,
    in_lt,
    in_rt,
    involutions,
    involutive_automorphisms,
    is_homomorphism,
    is_involution,
    shifted_associativity,
)

__all__ = [
    "Counterexample",
    "SweepConfig",
    "SweepReport",
    "enumerate_group_tables",
    "enumerate_groupoids",
    "enumerate_semilattices",
    "enumerate_specs",
    "random_groupoids",
    "run_sweep",
    "stream_value",
]

#: Largest order enumerated exhaustively.
MAX_EXHAUSTIVE_ORDER = 3
#: Hard limits for the construction-data family.
MAX_SEMILATTICE_ORDER = 3
MAX_GROUP_ORDER = 6

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """The splitmix finaliser of the state ``z`` taken modulo 2**64."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def stream_value(seed: int, index: int) -> int:
    """Value ``index`` of the 64-bit splitmix stream for ``seed``.

    Random access by construction: value ``i`` never depends on value
    ``j``, so any partition of the index space draws identical values.
    """
    _check_ints(seed=seed, index=index)
    return _mix64(seed + (index + 1) * _GOLDEN)


def _exhaustive_tables(orders, index: int, chunks: int):
    """Tables ``index, index + chunks, ...`` of each order, strided before building.

    The ``n**n`` rows of order n are listed once, in lexicographic order,
    and every table of that order is a tuple of them: the row product is
    the lexicographic order of the flat cells, and the tables share rows.
    """
    for n in orders:
        rows = tuple(itertools.product(range(n), repeat=n))
        tables = itertools.product(rows, repeat=n)
        yield from map(Groupoid._trusted, itertools.islice(tables, index, None, chunks))


def _sample_tables(order: int, seed: int, indices: range):
    """The tables at the given indices of the stream for ``seed``.

    A table's cells are one arithmetic progression of stream states, mixed
    in one pass; equal rows drawn in one call are one tuple.
    """
    size = order * order
    span = size * _GOLDEN
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i in indices:
        start = seed + (i * size + 1) * _GOLDEN
        cells = map(order.__rmod__, map(_mix64, range(start, start + span, _GOLDEN)))
        rows = list(zip(*[cells] * order))
        yield Groupoid._trusted(tuple(map(shared.setdefault, rows, rows)))


def _check_ints(**values) -> None:
    """Refuse, by name, a value that is not exactly an ``int`` (a bool is not)."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int")


def _check_order(kind: str, order: int, cap: int) -> None:
    """Refuse an ``order`` that is not an int from 1 up to ``cap``."""
    _check_ints(order=order)
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > cap:
        raise LimitsTooLarge(f"{kind} enumeration is capped at order {cap}")


def enumerate_groupoids(order: int):
    """Yield every table of the given order in lexicographic order.

    There are ``order ** (order * order)`` of them, for an order up to
    MAX_EXHAUSTIVE_ORDER.  The tables share their row tuples: there are
    ``order ** order`` distinct row objects.
    """
    _check_order("exhaustive", order, MAX_EXHAUSTIVE_ORDER)
    yield from _exhaustive_tables((order,), 0, 1)


def random_groupoids(order: int, count: int, seed: int):
    """Yield ``count`` pseudo-random tables of the given order.

    Entry ``j`` of table ``i`` is ``stream_value(seed, i*order² + j)``
    reduced modulo ``order`` — fully reproducible and independent of how
    the index range is split across workers.  Equal rows within one call
    are one shared tuple.
    """
    _check_ints(order=order, count=count, seed=seed)
    if order < 1:
        raise ValueError("order must be at least 1")
    if count < 0:
        raise ValueError("count must be at least 0")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in 0..{MASK64}")
    yield from _sample_tables(order, seed, range(count))


# ---------------------------------------------------------------------------
# The construction-data family.
# ---------------------------------------------------------------------------


def _associative_tables(n: int, values):
    """Yield every associative table of order ``n`` in lexicographic order,
    where cell ``(x, y)`` ranges over ``values(rows, x, y)``.

    Cells are filled row by row.  A value is kept only when every triple
    that reads the new cell (as ``x*y``, as ``y*z`` or as the outer product
    of either side) associates or still has an empty cell, so each triple
    is checked once, when its last cell is filled.  Empty cells, row ``n``
    and column ``n`` hold ``n``, so a product through an empty cell is empty.
    """
    rows = [[n] * (n + 1) for _ in range(n + 1)]
    span = range(n)

    def fill(i: int):
        if i == n * n:
            yield Groupoid._trusted(tuple(tuple(row[:n]) for row in rows[:n]))
            return
        x, y = divmod(i, n)
        for v in values(rows, x, y):
            rows[x][y] = v
            triples = itertools.chain(
                ((x, y, z) for z in span),
                ((w, x, y) for w in span),
                ((a, b, y) for a in span for b in span if rows[a][b] == x),
                ((x, b, c) for b in span for c in span if rows[b][c] == y),
            )
            sides = ((rows[rows[a][b]][c], rows[a][rows[b][c]]) for a, b, c in triples)
            if all(left == right or n in (left, right) for left, right in sides):
                yield from fill(i + 1)
        rows[x][y] = n

    yield from fill(0)


def _table_classes(kind: str, order: int, cap: int, values) -> list[Groupoid]:
    """The first of :func:`_associative_tables` in each isomorphism class,
    for an ``order`` from 1 up to ``cap``."""
    _check_order(kind, order, cap)
    reps: list[Groupoid] = []
    for g in _associative_tables(order, values):
        if all(find_isomorphism(g, rep) is None for rep in reps):
            reps.append(g)
    return reps


@lru_cache(maxsize=None, typed=True)
def enumerate_semilattices(order: int) -> tuple[MeetSemilattice, ...]:
    """Representatives of every meet semilattice of the given order, one
    per isomorphism class, each the lexicographically least table in its
    class: the diagonal is ``e*e = e``, a lower cell mirrors the upper one
    and an upper cell is free, so tables are visited in lexicographic order.
    """

    def values(rows, x: int, y: int):
        return (x,) if x == y else (rows[y][x],) if y < x else range(order)

    reps = _table_classes("semilattice", order, MAX_SEMILATTICE_ORDER, values)
    return tuple(MeetSemilattice(g.rows) for g in reps)


@lru_cache(maxsize=None, typed=True)
def enumerate_group_tables(order: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Representatives of every group of the given order, one table per
    isomorphism class, with the identity at index 0: the identity's row and
    column are fixed, and every other cell takes each element at most once
    per row and once per column."""

    def values(rows, x: int, y: int):
        if x == 0 or y == 0:
            return (x or y,)
        used = {*rows[x][:y], *(row[y] for row in rows[:x])}
        return [v for v in range(order) if v not in used]

    reps = _table_classes("group", order, MAX_GROUP_ORDER, values)
    return tuple(g.rows for g in reps)


@lru_cache(maxsize=None)
def _group_homomorphisms(
    src_rows: tuple[tuple[int, ...], ...], dst_rows: tuple[tuple[int, ...], ...]
) -> tuple[Mapping, ...]:
    src, dst = Groupoid(src_rows), Groupoid(dst_rows)
    return tuple(
        f
        for f in itertools.product(range(dst.order), repeat=src.order)
        if is_homomorphism(f, src, dst)
    )


@lru_cache(maxsize=None)
def _compatible_homs(src: GroupSpec, dst: GroupSpec) -> tuple[Mapping, ...]:
    """The group homomorphisms that are valid connecting maps between the
    blocks (:func:`clifford._map_problems`).  A map commuting with the block
    involutions is a homomorphism of the blocks exactly when it is one of
    the twisted blocks, so these are the homomorphisms that commute."""
    return tuple(
        images
        for images in _group_homomorphisms(src.rows, dst.rows)
        if not _map_problems(src, dst, images)
    )


def _between(sl: MeetSemilattice, f: int, e: int) -> list[int]:
    """The elements strictly between ``e`` and ``f``, ascending."""
    return [
        h
        for h in range(sl.order)
        if h not in (e, f) and sl.leq(e, h) and sl.leq(h, f)
    ]


def _check_family_limits(max_semilattice_order: int, max_group_order: int):
    _check_ints(
        max_semilattice_order=max_semilattice_order, max_group_order=max_group_order
    )
    if not 1 <= max_semilattice_order <= MAX_SEMILATTICE_ORDER:
        raise LimitsTooLarge(
            f"semilattice order limit must be 1..{MAX_SEMILATTICE_ORDER}"
        )
    if not 1 <= max_group_order <= MAX_GROUP_ORDER:
        raise LimitsTooLarge(f"group order limit must be 1..{MAX_GROUP_ORDER}")


def enumerate_specs(max_semilattice_order: int = 3, max_group_order: int = 4):
    """Yield every construction spec within the size limits, in a fixed
    deterministic order.

    Semilattices and block groups range over isomorphism-class
    representatives; block involutions and connecting maps range over all
    choices.  Maps are chosen freely on covering pairs (filtered by the
    connecting-map rule of :func:`validate_spec`) and extended to the remaining
    comparable pairs by composition through every element strictly inside
    the interval.  A choice whose chains disagree is dropped, so the family
    is exactly the transitive compatible systems: in a strong semilattice
    of groups the connecting maps compose along every chain.

    Specs yielded by one call share equal ``homs`` tuples, so the family
    holds each distinct system of connecting maps once (935 for the 10,933
    specs of ``(3, 4)``); nothing is shared between calls.
    """
    _check_family_limits(max_semilattice_order, max_group_order)
    shared: dict[tuple, tuple] = {}
    choices: list[GroupSpec] = []
    for m in range(1, max_group_order + 1):
        for rows in enumerate_group_tables(m):
            for alpha in involutive_automorphisms(Groupoid(rows)):
                choices.append(GroupSpec._trusted(rows, alpha))
    for k in range(1, max_semilattice_order + 1):
        for sl in enumerate_semilattices(k):
            strict = sl.strict_pairs()
            inside = {pair: _between(sl, *pair) for pair in strict}
            covers = [pair for pair in strict if not inside[pair]]
            # Shortest interval first, so that the halves of every chain
            # through an element inside an interval are derived before it.
            derived = [
                (pair, inside[pair])
                for pair in sorted(strict, key=lambda pair: len(inside[pair]))
                if inside[pair]
            ]
            for groups in itertools.product(choices, repeat=k):
                pools = [_compatible_homs(groups[f], groups[e]) for f, e in covers]
                for combo in itertools.product(*pools):
                    homs = dict(zip(covers, combo))
                    for (f, e), middle in derived:
                        maps = {
                            tuple(homs[h, e][b] for b in homs[f, h]) for h in middle
                        }
                        if len(maps) > 1:
                            break
                        (homs[f, e],) = maps
                    else:
                        system = tuple((pair, homs[pair]) for pair in strict)
                        yield ConstructionSpec(
                            semilattice=sl,
                            groups=groups,
                            homs=shared.setdefault(system, system),
                        )


# ---------------------------------------------------------------------------
# Sweep configuration and report.
# ---------------------------------------------------------------------------


SWEEP_SCHEMA = "sweep_report@4"


@dataclass(frozen=True)
class SweepConfig:
    """What a sweep covers.  The worker count is not part of the
    configuration: it affects wall time only, never the report."""

    max_exhaustive_order: int = 3
    sample_order: int = 4
    sample_count: int = 100_000
    seed: int = 1
    max_semilattice_order: int = 3
    max_group_order: int = 4
    suites: tuple[str, ...] = ()

    def __post_init__(self):
        _check_ints(**{
            f.name: getattr(self, f.name) for f in fields(self) if f.type == "int"
        })
        if type(self.suites) is not tuple or set(map(type, self.suites)) - {str}:
            raise ValueError("suites must be a tuple of str")
        if self.max_exhaustive_order < 0:
            raise ValueError("max_exhaustive_order must be at least 0")
        if self.sample_order < 1:
            raise ValueError("sample_order must be at least 1")
        if self.sample_count < 0:
            raise ValueError("sample_count must be at least 0")
        if not 0 <= self.seed <= MASK64:
            raise ValueError(f"seed must be in 0..{MASK64}")
        if self.max_exhaustive_order:
            _check_order("exhaustive", self.max_exhaustive_order, MAX_EXHAUSTIVE_ORDER)
        _check_family_limits(self.max_semilattice_order, self.max_group_order)
        duplicates = sorted({s for s in self.suites if self.suites.count(s) > 1})
        if duplicates:
            raise ValueError(f"duplicate suites: {', '.join(duplicates)}")
        unknown = sorted(set(self.suites) - set(SUITES))
        if unknown:
            raise ValueError(f"unknown suites: {', '.join(unknown)}")


@dataclass(frozen=True, order=True)
class Counterexample:
    """One failed check: which suite and law, on which instance."""

    suite: str
    law: str
    instance: str
    detail: str = ""


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    counts: dict[str, int]
    counterexamples: tuple[Counterexample, ...]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        """Canonical form: everything except wall time."""
        return {
            "schema": SWEEP_SCHEMA,
            "passed": self.passed,
            "config": {**asdict(self.config), "rng": "splitmix64"},
            "counts": dict(sorted(self.counts.items())),
            "counterexamples": [asdict(c) for c in self.counterexamples],
        }

    def to_json(self) -> str:
        return _report_json(self.to_dict()) + "\n"


class _BuiltSpec(NamedTuple):
    spec: ConstructionSpec
    strong: Groupoid
    determined: Groupoid
    alpha: Mapping


@dataclass(frozen=True)
class _Chunk:
    """One worker's share of the instance space: every ``chunks``-th
    instance of each source, starting at ``index``, built on first read."""

    config: SweepConfig
    index: int
    chunks: int

    @cached_property
    def exhaustive(self) -> tuple[Groupoid, ...]:
        """This chunk's share of every table of order 1 to ``max_exhaustive_order``."""
        orders = range(1, self.config.max_exhaustive_order + 1)
        return tuple(_exhaustive_tables(orders, self.index, self.chunks))

    @cached_property
    def samples(self) -> tuple[Groupoid, ...]:
        """This chunk's share of the seeded sample tables, by index."""
        c = self.config
        indices = range(self.index, c.sample_count, self.chunks)
        return tuple(_sample_tables(c.sample_order, c.seed, indices))

    @cached_property
    def specs(self) -> tuple[_BuiltSpec, ...]:
        """This chunk's share of the construction family, built.

        Each spec is built in two trusted passes, strong and twisted, and
        validated only by ``construction_roundtrip.spec_valid``.

        ``involution_laws`` and ``inverse_laws`` do not read the strong table
        S, as it counts nothing new there.  S is a semilattice of groups and
        α fixes its idempotents, so x and α(x) lie in the group whose
        identity is e = x⁻¹x.  Each hypothesis of the two batteries forces
        x = α(x): the shifted law at y = x⁻¹, z = x; absorption
        x·α(x) = α(x), which makes x idempotent; an associative
        ``untwist(S, α)`` at y = z = e; and the antihomomorphism law at
        a = x, b = e, which gives x⁻¹ = α(x⁻¹).  So when α ≠ id no law of
        either battery is checked on S, and when α = id, S is the
        determined table.
        """
        family = enumerate_specs(
            self.config.max_semilattice_order, self.config.max_group_order
        )
        return tuple(
            _BuiltSpec(
                spec, _products(spec, twisted=False)[0], *_products(spec, twisted=True)
            )
            for spec in itertools.islice(family, self.index, None, self.chunks)
        )


def _table_id(g: Groupoid) -> str:
    return f"order={g.order} rows={g.rows}"


def _spec_id(spec: ConstructionSpec) -> str:
    return serialize_cspec(spec).strip().replace("\n", "; ")


# ---------------------------------------------------------------------------
# Property suites.
# ---------------------------------------------------------------------------


def _suite_goldens(chunk: _Chunk):
    """Frozen facts about the three bundled fixtures (run once, chunk 0)."""
    if chunk.index != 0:
        return
    from . import fixtures as fx

    g, a = fx.BAND3, fx.BAND3_SWAP
    n3 = identity_mapping(3)
    yield (
        {
            "band3.swap_is_involution": is_involution(a),
            "band3.associative": g.is_associative(),
            "band3.swap_absorption": absorption_law(g, a),
            "band3.swap_shift_both_forms": shifted_associativity(g, a)
            and g.is_associative(),
            "band3.swap_not_left_translation": not in_lt(g, a),
            "band3.swap_not_automorphism": not is_homomorphism(a, g, g),
            "band3.only_trivial_involutive_automorphism": involutive_automorphisms(g)
            == (n3,),
            "band3.not_determined": not decide(g).determined,
        },
        "band3",
    )

    g, a = fx.FLIP2, fx.FLIP2_SWAP
    yield (
        {
            "flip2.swap_is_involution": is_involution(a),
            "flip2.not_associative": not g.is_associative(),
            "flip2.swap_absorption": absorption_law(g, a),
            "flip2.swap_shifted_associativity": shifted_associativity(g, a),
            "flip2.swap_automorphism": is_homomorphism(a, g, g),
            "flip2.swap_not_left_translation": not in_lt(g, a),
            "flip2.swap_right_translation": in_rt(g, a),
            "flip2.untwist_by_swap_left_zero": untwist(g, a).rows == ((0, 0), (1, 1)),
            "flip2.element_zero_has_two_inverses": inverses_of(g, 0)
            == frozenset({0, 1}),
            "flip2.not_determined": not decide(g).determined,
        },
        "flip2",
    )

    g, neg = fx.Z3_TWIST, fx.Z3_NEGATION
    rep = decide(g)
    w = rep.witness
    yield (
        {
            "z3twist.negation_is_involution": is_involution(neg),
            "z3twist.involutive_automorphisms": involutive_automorphisms(g)
            == (n3, neg),
            "z3twist.determined": rep.determined,
            "z3twist.witness_alpha_is_negation": w is not None and w.alpha == neg,
            "z3twist.witness_base_is_cyclic_group": w is not None and w.star == fx.Z3,
            "z3twist.canonical_twist_is_negation": canonical_twist(g) == neg,
            "z3twist.strongly_regular": strongly_regular_witness(g) == (0, 1, 2),
            "z3twist.right_bol": is_right_bol(g),
            "z3twist.not_isomorphic_to_base": find_isomorphism(g, fx.Z3) is None,
            "z3twist.identity_fails_shift": not shifted_associativity(g, n3),
            "z3twist.build_from_data": build_determined(fx.Z3_TWIST_SPEC) == (g, neg),
            "z3twist.decompose_to_data": decompose(g, neg) == fx.Z3_TWIST_SPEC,
        },
        "z3twist",
    )


#: Law names per class, made once instead of per check.
_SQUARE_LAWS = tuple(
    (base, generalized, f"square_equivalence.{generalized}")
    for base, _inflation, generalized in DESCENT_PAIRS
)
_MEMBERSHIP_LAWS = tuple((tag, f"match.{tag}", f"witness.{tag}") for tag in VARIETIES)


def _suite_square_classes(chunk: _Chunk):
    """Product-set descent for the generalized classes, on the associative
    exhaustive tables: the generalized identity holds exactly when the
    product subtable satisfies the base identity, and the right-absorption
    identity forces idempotency.  Sampled tables are not read, as they are
    almost never associative: 3,492 of the 4**16 tables of order 4 are."""
    for g in chunk.exhaustive:
        verdicts = {}
        if g.is_associative():
            squares, _ = square_subgroupoid(g)
            for base, generalized, law in _SQUARE_LAWS:
                holds = satisfies_variety(g, generalized)
                square_holds = satisfies_variety(squares, base)
                verdicts[law] = (
                    holds == square_holds
                    or f"generalized={holds} square_base={square_holds}"
                )
            if satisfies_variety(g, "RB"):
                idempotent = satisfies_variety(g, "B")
                verdicts["right_absorption_forces_idempotency"] = idempotent
        yield verdicts, partial(_table_id, g)


def _suite_ad_equivalence(chunk: _Chunk):
    """The definition-level membership scan and the per-class
    characterizations agree on every exhaustive table, and every
    characterization witness is a valid definition-level witness."""
    for g in chunk.exhaustive:
        profile = ad_membership_profile(g)
        characterized = ad_membership_characterized_profile(g)
        verdicts = {}
        for tag, match, witness in _MEMBERSHIP_LAWS:
            direct = profile[tag]
            char = characterized[tag]
            agree = (direct is None) == (char is None)
            verdicts[match] = agree or f"direct={direct} characterized={char}"
            if char is not None:
                star = untwist(g, char)
                verdicts[witness] = (
                    in_semigroup_class(star, tag) and is_homomorphism(char, star, star)
                ) or f"characterized={char}"
        yield verdicts, partial(_table_id, g)


def _suite_class_relations(chunk: _Chunk):
    """Inclusion chains, product-set descent, semigroup identities, and
    witness isomorphisms between the twelve derived classes, on every
    exhaustive table and every built determined table."""
    built = (b.determined for b in chunk.specs)
    for g in itertools.chain(chunk.exhaustive, built):
        yield check_class_relations(g), partial(_table_id, g)


def _involution_laws_for(
    g: Groupoid, maps: tuple[Mapping, ...], inst: Callable[[], str]
):
    assoc = g.is_associative()
    band = satisfies_variety(g, "B")
    identity = identity_mapping(g.order)
    for f in maps:
        absorb = absorption_law(g, f)
        shifted = shifted_associativity(g, f)
        if not (shifted or absorb):
            continue  # every law below assumes one of the two
        lt = in_lt(g, f)
        # Read only where both the shifted and the absorption law hold.
        hom = shifted and absorb and is_homomorphism(f, g, g)
        verdicts = {}
        if shifted and absorb and assoc:  # the strong shift
            verdicts["strong_shift_forces_idempotency"] = band or f"mapping={f}"
            verdicts["strong_shift_automorphism_iff_left_translation"] = (
                hom == lt or f"mapping={f}"
            )
            verdicts["strong_shift_right_translation_iff_identity"] = (
                in_rt(g, f) == (f == identity) or f"mapping={f}"
            )
            if band and hom and f != identity:
                verdicts["nontrivial_automorphism_swaps_absorbing_pair"] = any(
                    f[a] != a
                    and g.product(a, f[a]) == f[a]
                    and g.product(f[a], a) == a
                    for a in g
                ) or f"mapping={f}"
        if absorb and lt:
            verdicts["absorbing_left_translation_forces_idempotency"] = (
                band or f"mapping={f}"
            )
            if shifted:
                verdicts["absorbing_left_translation_shift_makes_automorphism"] = (
                    hom or f"mapping={f}"
                )
        if band and shifted:
            verdicts["idempotency_with_shift_forces_absorption"] = (
                absorb or f"mapping={f}"
            )
        if lt and shifted:
            verdicts["left_translation_shift_idempotency_iff_absorption"] = (
                band == absorb or f"mapping={f}"
            )
        yield verdicts, inst


def _suite_involution_laws(chunk: _Chunk):
    """Laws tying a self-inverse mapping's absorption, shift, translation,
    and automorphism properties together, over every exhaustive table with
    every self-inverse mapping, and over built determined tables with their
    glued mapping α (``_Chunk.specs`` says why the strong table is not read)."""
    for g in chunk.exhaustive:
        yield from _involution_laws_for(g, involutions(g.order), partial(_table_id, g))
    for built in chunk.specs:
        inst = partial(_spec_id, built.spec)
        yield from _involution_laws_for(built.determined, (built.alpha,), inst)


def _inverse_laws_for(
    facts: _Facts, maps: tuple[Mapping, ...], inst: Callable[[], str]
):
    # Every caller's table has an inverse table: exhaustive tables without
    # one are skipped, and a built table always has one.
    g, inv = facts.g, facts.inv
    products_idem = all(g.product(a, inv[a]) in facts.idempotents for a in g)
    for f in maps:
        if not is_homomorphism(f, g, g):
            continue
        e_fixed = all(f[e] == e for e in facts.idempotents)
        canonical = all(f[a] == g.product(a, g.product(inv[a], a)) for a in g)
        antihom = facts.antihomomorphism(f)
        regular_hypothesis = facts.strongly_regular and facts.e_semilattice and e_fixed
        shifted = (products_idem or regular_hypothesis) and shifted_associativity(g, f)
        verdicts = {}
        if products_idem and untwist(g, f).is_associative():
            verdicts["unique_inverses_shift_efixed_iff_canonical"] = (
                e_fixed == canonical or f"mapping={f}"
            )
        if e_fixed and antihom and facts.right_bol:
            verdicts["right_bol_antihomomorphism_forces_semilattice"] = (
                facts.e_semilattice or f"mapping={f}"
            )
        if products_idem and shifted:
            verdicts["shift_fixes_idempotents"] = e_fixed or f"mapping={f}"
            verdicts["shift_forces_canonical_formula"] = canonical or f"mapping={f}"
            verdicts["shift_semilattice_iff_antihomomorphism"] = (
                facts.e_semilattice == antihom or f"mapping={f}"
            )
        if regular_hypothesis and shifted:
            verdicts["strong_regularity_shift_forces_completely_inverse"] = (
                facts.completely_inverse or f"mapping={f}"
            )
        yield verdicts, inst


def _canonical_law(facts: _Facts) -> dict[str, bool | str]:
    """The verdict of ``canonical_shift_iff_right_bol`` on one table, or no
    verdict when its hypotheses fail."""
    if not facts.completely_inverse:
        return {}
    g, c = facts.g, facts.canonical
    if not (
        is_involution(c)
        and is_homomorphism(c, g, g)
        and (facts.e_semilattice or facts.antihomomorphism(c))
    ):
        return {}
    law = shifted_associativity(g, c) == facts.right_bol or f"canonical={c}"
    return {"canonical_shift_iff_right_bol": law}


def _suite_inverse_laws(chunk: _Chunk):
    """Laws about unique inverses, idempotent products, the canonical map,
    and the inverse-antihomomorphism condition, over every exhaustive table
    with every self-inverse mapping, and over built determined tables with
    their glued mapping α (``_Chunk.specs`` says why the strong table is not
    read)."""
    for g in chunk.exhaustive:
        facts = _Facts(g)
        if facts.inv is None:
            continue
        inst = partial(_table_id, g)
        yield from _inverse_laws_for(facts, involutions(g.order), inst)
        yield _canonical_law(facts), inst
    for built in chunk.specs:
        inst = partial(_spec_id, built.spec)
        determined = _Facts(built.determined)
        yield from _inverse_laws_for(determined, (built.alpha,), inst)
        yield _canonical_law(determined), inst


def _suite_slg_conclusions(chunk: _Chunk):
    """The full conclusion battery on every twist of a semilattice of
    groups: exhaustive bases with every idempotent-fixed self-inverse
    automorphism, plus every built instance with its glued mapping."""
    jobs = [
        (partial("star={} alpha={}".format, star.rows, f), twist(star, f), star, f)
        for star in chunk.exhaustive
        if is_semilattice_of_groups(star)
        for f in e_fixed_involutive_automorphisms(star)
    ]
    for built in chunk.specs:
        jobs.append(
            (partial(_spec_id, built.spec), built.determined, built.strong, built.alpha)
        )
    for inst, g, star, f in jobs:
        try:
            verdicts = check_twisted_slg(g, star, f)
        except PreconditionViolated as exc:
            verdicts = {"preconditions": str(exc)}
        yield verdicts, inst


def _suite_decision_coherence(chunk: _Chunk):
    """The three decision criteria agree on every table (exhaustive and
    sampled), positives carry verified witnesses and decompose along the
    witness mapping into data that rebuilds them (``decompose`` checks it),
    and every built instance decides positive with the glued mapping
    satisfying the shifted triple law."""
    for g in chunk.exhaustive + chunk.samples:
        try:
            report = decide(g)
        except TheoremViolation as exc:
            verdicts = {"criteria_agree": str(exc)}
        else:
            verdicts = {"criteria_agree": True}
            if report.determined:
                w = report.witness
                verdicts["witness_shift_law"] = shifted_associativity(g, w.alpha)
                verdicts["witness_reconstructs"] = twist(w.star, w.alpha) == g
                try:
                    decompose(g, w.alpha)
                    verdicts["build_inverts_decompose"] = True
                except NotDetermined as exc:
                    verdicts["build_inverts_decompose"] = str(exc)
        yield verdicts, partial(_table_id, g)
    for built in chunk.specs:
        g, alpha = built.determined, built.alpha
        try:
            determined = decide(g).determined
        except TheoremViolation as exc:
            determined = str(exc)
        yield (
            {
                "constructed_shift_law": shifted_associativity(g, alpha),
                "constructed_is_determined": determined,
            },
            partial(_spec_id, built.spec),
        )


def _suite_construction_roundtrip(chunk: _Chunk):
    """Structural laws of the block construction on every spec in the
    family — validity, the strong form being a semilattice of groups, the
    twist link, connecting maps being group homomorphisms, complete
    inverseness, decomposition inverting the build, and serialization
    round-tripping."""
    for built in chunk.specs:
        spec, strong, g, alpha = built
        problems = validate_spec(spec)
        try:
            decomposed = decompose(g, alpha) == spec
        except NotDetermined as exc:
            decomposed = str(exc)
        text = serialize_cspec(spec)
        reparsed = parse_cspec(text)
        yield (
            {
                "spec_valid": not problems or "; ".join(problems),
                "strong_form_is_semilattice_of_groups": (
                    is_semilattice_of_groups(strong)
                ),
                "twist_links_strong_and_determined": g == twist(strong, alpha),
                "glued_mapping_is_idempotent_fixed_involutive_automorphism": (
                    is_involution(alpha)
                    and is_homomorphism(alpha, strong, strong)
                    and all(alpha[e] == e for e in strong.idempotents())
                ),
                "connecting_maps_are_group_homomorphisms": all(
                    is_homomorphism(
                        images,
                        Groupoid(spec.groups[f].rows),
                        Groupoid(spec.groups[e].rows),
                    )
                    for (f, e), images in spec.homs
                ),
                "determined_is_completely_inverse": is_completely_inverse(g),
                "decompose_inverts_build": decomposed,
                "serialization_roundtrip": (
                    reparsed == spec and serialize_cspec(reparsed) == text
                ),
            },
            partial(_spec_id, spec),
        )


#: The sweep's suites, in report order.  A runner reads ``chunk.exhaustive``,
#: ``chunk.samples`` and ``chunk.specs`` (a suite never pays for a source it
#: does not read) and yields one ``(verdicts, instance)`` pair per instance.
#: ``verdicts`` maps each law name to ``True`` (holds), ``None`` (hypotheses
#: not met, not counted), ``False``, or a string that is the failure's detail,
#: written ``ok or f"..."`` so that it is made only on failure.  ``instance``
#: is a string or a zero-argument callable that makes it, called only when a
#: law of the map fails.
SUITES = {
    "goldens": _suite_goldens,
    "square_classes": _suite_square_classes,
    "ad_equivalence": _suite_ad_equivalence,
    "class_relations": _suite_class_relations,
    "involution_laws": _suite_involution_laws,
    "inverse_laws": _suite_inverse_laws,
    "slg_conclusions": _suite_slg_conclusions,
    "decision_coherence": _suite_decision_coherence,
    "construction_roundtrip": _suite_construction_roundtrip,
}


#: The verdicts of a law that did not fail.
_NOT_FAILED = frozenset((True, None))


def _run_chunk(
    config: SweepConfig, chunk_index: int, chunks: int
) -> tuple[Counter, list[Counterexample]]:
    """Run the suites that ``config`` names on one chunk.  The only code
    that turns the pairs a suite yields into law counts and counterexamples."""
    chunk = _Chunk(config, chunk_index, chunks)
    counts: Counter = Counter()
    failures: list[Counterexample] = []
    for name in config.suites:
        laws: Counter = Counter()
        for verdicts, instance in SUITES[name](chunk):
            # Every verdict that is not None counts; any other than True fails.
            laws.update([law for law, ok in verdicts.items() if ok is not None])
            if not _NOT_FAILED.issuperset(verdicts.values()):
                if callable(instance):
                    instance = instance()
                failures.extend(
                    Counterexample(name, law, instance, ok or "")
                    for law, ok in verdicts.items()
                    if ok is not True and ok is not None
                )
        counts.update({f"{name}.{law}": tally for law, tally in laws.items()})
    return counts, failures


def run_sweep(config: SweepConfig, jobs: int = 1) -> SweepReport:
    """Run the named suites (all of ``SUITES`` if none) over the instance space.

    ``jobs`` fixes the number of chunks; the worker pool runs them on at
    most one process per CPU.  Because every check is per-instance and the
    merge is order-independent, the report's canonical form does not depend
    on ``jobs``.
    """
    _check_ints(jobs=jobs)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    resolved = replace(config, suites=config.suites or tuple(SUITES))
    start = time.perf_counter()
    if jobs == 1:
        results = [_run_chunk(resolved, 0, 1)]
    else:
        args = [(resolved, c, jobs) for c in range(jobs)]
        workers = min(jobs, os.cpu_count() or 1)
        # Imported here: it loads socket, pickle and selectors, which no
        # other command or serial sweep needs.
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.starmap(_run_chunk, args)
    counts: Counter = Counter()
    failures: list[Counterexample] = []
    for chunk_counts, chunk_failures in results:
        counts.update(chunk_counts)
        failures.extend(chunk_failures)
    failures.sort()
    return SweepReport(
        config=resolved,
        counts=dict(counts),
        counterexamples=tuple(failures),
        elapsed_seconds=time.perf_counter() - start,
    )
