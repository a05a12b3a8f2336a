"""Table generators and the exhaustive/randomized property sweep.

Generation side: every table of a small order in lexicographic order, a
counter-based reproducible random stream of larger tables, and the full
family of construction data up to stated size limits (semilattice
representatives, group-table representatives, compatible connecting maps).

Sweep side: a registry of property suites, each a filtered universal over
tables, mappings, or construction data.  A sweep partitions the instance
space into deterministic chunks (instance index modulo the chunk count),
runs every active suite on every chunk — in parallel when asked — and
merges per-chunk tallies and counterexamples into one report whose
canonical JSON form is independent of the partitioning.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from .clifford import (
    ConstructionSpec,
    GroupSpec,
    MeetSemilattice,
    build_determined,
    build_strong_slg,
    decompose,
    parse_cspec,
    serialize_cspec,
    validate_spec,
)
from .determination import (
    DESCENT_PAIRS,
    check_class_relations,
    check_twisted_slg,
    decide,
    is_semilattice_of_groups,
    twist,
    untwist,
)
from .errors import (
    LimitsTooLarge,
    NotClosed,
    NotInverse,
    OrderTooLarge,
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
    canonical_twist,
    idempotents_form_semilattice,
    inverse_antihomomorphism_law,
    inverse_table,
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

#: Largest order enumerated exhaustively without an explicit override.
MAX_EXHAUSTIVE_ORDER = 3
#: Hard limits for the construction-data family.
MAX_SEMILATTICE_ORDER = 3
MAX_GROUP_ORDER = 6

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def stream_value(seed: int, index: int) -> int:
    """Value ``index`` of the 64-bit splitmix stream for ``seed``.

    Random access by construction: value ``i`` never depends on value
    ``j``, so any partition of the index space draws identical values.
    """
    return _mix64((seed + (index + 1) * _GOLDEN) & MASK64)


def _table(flat: tuple[int, ...], order: int) -> Groupoid:
    """The table whose row ``r`` is cells ``r*order .. r*order+order-1``."""
    return Groupoid(tuple(flat[r * order : (r + 1) * order] for r in range(order)))


def _sample_cells(order: int, seed: int, i: int) -> tuple[int, ...]:
    """The cells of sample table ``i`` of the stream for ``seed``."""
    base = i * order * order
    return tuple([stream_value(seed, base + j) % order for j in range(order * order)])


def enumerate_groupoids(order: int, allow_large: bool = False):
    """Yield every table of the given order in lexicographic order.

    There are ``order ** (order * order)`` of them; orders above
    MAX_EXHAUSTIVE_ORDER need ``allow_large=True``.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_EXHAUSTIVE_ORDER and not allow_large:
        raise OrderTooLarge(
            f"exhaustive enumeration of order {order} needs allow_large=True"
            f" ({order ** (order * order)} tables)"
        )
    for flat in itertools.product(range(order), repeat=order * order):
        yield _table(flat, order)


def random_groupoids(order: int, count: int, seed: int):
    """Yield ``count`` pseudo-random tables of the given order.

    Entry ``j`` of table ``i`` is ``stream_value(seed, i*order² + j)``
    reduced modulo ``order`` — fully reproducible and independent of how
    the index range is split across workers.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    for i in range(count):
        yield _table(_sample_cells(order, seed, i), order)


# ---------------------------------------------------------------------------
# The construction-data family.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_semilattices(order: int) -> tuple[MeetSemilattice, ...]:
    """Representatives of every meet semilattice of the given order, one
    per isomorphism class, each the lexicographically least table in its
    class."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_SEMILATTICE_ORDER:
        raise LimitsTooLarge(
            f"semilattice enumeration is capped at order {MAX_SEMILATTICE_ORDER}"
        )
    reps: list[Groupoid] = []
    for flat in itertools.product(range(order), repeat=order * order):
        rows = tuple(flat[i * order : (i + 1) * order] for i in range(order))
        if any(rows[x][x] != x for x in range(order)):
            continue
        if any(
            rows[x][y] != rows[y][x]
            for x in range(order)
            for y in range(x + 1, order)
        ):
            continue
        g = Groupoid(rows)
        if not g.is_associative():
            continue
        if any(find_isomorphism(g, r) is not None for r in reps):
            continue
        reps.append(g)
    return tuple(MeetSemilattice(r.rows) for r in reps)


@lru_cache(maxsize=None)
def enumerate_group_tables(order: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Representatives of every group of the given order, one table per
    isomorphism class, with the identity at index 0."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_GROUP_ORDER:
        raise LimitsTooLarge(
            f"group enumeration is capped at order {MAX_GROUP_ORDER}"
        )
    n = order
    rows = [[-1] * n for _ in range(n)]
    rows[0] = list(range(n))
    for x in range(n):
        rows[x][0] = x
    row_used = [set(rows[x][:1]) if x else set(range(n)) for x in range(n)]
    col_used = [{rows[0][y]} for y in range(n)]
    col_used[0] = set(range(n))
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]
    tables: list[tuple[tuple[int, ...], ...]] = []

    def place(i: int):
        if i == len(cells):
            t = tuple(tuple(r) for r in rows)
            if Groupoid(t).is_associative():
                tables.append(t)
            return
        x, y = cells[i]
        for v in range(n):
            if v in row_used[x] or v in col_used[y]:
                continue
            rows[x][y] = v
            row_used[x].add(v)
            col_used[y].add(v)
            place(i + 1)
            row_used[x].discard(v)
            col_used[y].discard(v)
        rows[x][y] = -1

    place(0)
    reps: list[tuple[tuple[int, ...], ...]] = []
    for t in tables:
        g = Groupoid(t)
        if all(find_isomorphism(g, Groupoid(r)) is None for r in reps):
            reps.append(t)
    return tuple(reps)


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
def _compatible_homs(
    src_rows: tuple[tuple[int, ...], ...],
    src_involution: Mapping,
    dst_rows: tuple[tuple[int, ...], ...],
    dst_involution: Mapping,
) -> tuple[Mapping, ...]:
    """Group homomorphisms that commute with the two block involutions."""
    return tuple(
        images
        for images in _group_homomorphisms(src_rows, dst_rows)
        if all(
            dst_involution[images[b]] == images[src_involution[b]]
            for b in range(len(src_involution))
        )
    )


def _cover_pairs(sl: MeetSemilattice) -> list[tuple[int, int]]:
    return [
        (f, e)
        for (f, e) in sl.strict_pairs()
        if not any(
            h not in (e, f) and sl.leq(e, h) and sl.leq(h, f)
            for h in range(sl.order)
        )
    ]


def _derived_homs(
    sl: MeetSemilattice, cover_maps: dict[tuple[int, int], Mapping]
) -> dict[tuple[int, int], Mapping]:
    """Extend maps on covering pairs to all strict pairs by composition."""
    homs = dict(cover_maps)

    def get(f: int, e: int) -> Mapping:
        if (f, e) in homs:
            return homs[(f, e)]
        for h in range(sl.order):
            if h not in (e, f) and sl.leq(e, h) and sl.leq(h, f):
                upper = get(f, h)
                lower = get(h, e)
                homs[(f, e)] = tuple(lower[b] for b in upper)
                return homs[(f, e)]
        raise ValueError(f"pair ({f}, {e}) is neither covering nor chained")

    for f, e in sl.strict_pairs():
        get(f, e)
    return homs


def _check_family_limits(max_semilattice_order: int, max_group_order: int):
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
    choices.  Maps are chosen freely on covering pairs (filtered to those
    commuting with the block involutions) and extended to the remaining
    comparable pairs by composition, which at these sizes produces exactly
    the transitive compatible systems.
    """
    _check_family_limits(max_semilattice_order, max_group_order)
    choices: list[tuple[tuple[tuple[int, ...], ...], Mapping]] = []
    for m in range(1, max_group_order + 1):
        for rows in enumerate_group_tables(m):
            for alpha in involutive_automorphisms(Groupoid(rows)):
                choices.append((rows, alpha))
    for k in range(1, max_semilattice_order + 1):
        for sl in enumerate_semilattices(k):
            strict = sl.strict_pairs()
            covers = _cover_pairs(sl)
            for assignment in itertools.product(choices, repeat=k):
                groups = tuple(GroupSpec(rows, alpha) for rows, alpha in assignment)
                pools = [
                    _compatible_homs(
                        groups[f].rows,
                        groups[f].involution,
                        groups[e].rows,
                        groups[e].involution,
                    )
                    for (f, e) in covers
                ]
                for combo in itertools.product(*pools):
                    homs = _derived_homs(sl, dict(zip(covers, combo)))
                    yield ConstructionSpec(
                        semilattice=sl,
                        groups=groups,
                        homs=tuple((pair, homs[pair]) for pair in strict),
                    )


# ---------------------------------------------------------------------------
# Sweep configuration and report.
# ---------------------------------------------------------------------------


SWEEP_SCHEMA = "sweep_report@1"


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
    allow_large_exhaustive: bool = False

    def __post_init__(self):
        if self.max_exhaustive_order < 0:
            raise ValueError("max_exhaustive_order must be at least 0")
        if self.sample_order < 1:
            raise ValueError("sample_order must be at least 1")
        if self.sample_count < 0:
            raise ValueError("sample_count must be at least 0")
        if not 0 <= self.seed <= MASK64:
            raise ValueError(f"seed must be in 0..{MASK64}")
        _check_family_limits(self.max_semilattice_order, self.max_group_order)

    def active_suites(self) -> tuple[str, ...]:
        names = self.suites or tuple(SUITES)
        unknown = sorted(set(names) - set(SUITES))
        if unknown:
            raise ValueError(f"unknown suites: {', '.join(unknown)}")
        return tuple(names)


@dataclass(frozen=True)
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
            "config": {
                "max_exhaustive_order": self.config.max_exhaustive_order,
                "sample_order": self.config.sample_order,
                "sample_count": self.config.sample_count,
                "seed": self.config.seed,
                "rng": "splitmix64",
                "max_semilattice_order": self.config.max_semilattice_order,
                "max_group_order": self.config.max_group_order,
                "suites": list(self.config.suites),
                "allow_large_exhaustive": self.config.allow_large_exhaustive,
            },
            "counts": dict(sorted(self.counts.items())),
            "counterexamples": [
                {
                    "suite": c.suite,
                    "law": c.law,
                    "instance": c.instance,
                    "detail": c.detail,
                }
                for c in self.counterexamples
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


class _Recorder:
    """Tallies one suite's checks and collects its counterexamples."""

    def __init__(self, suite: str, counts: Counter, failures: list[Counterexample]):
        self._suite = suite
        self._counts = counts
        self._failures = failures

    def check(self, law: str, ok: bool, instance: str, detail: str = "") -> bool:
        self._counts[f"{self._suite}.{law}"] += 1
        if not ok:
            self._failures.append(
                Counterexample(self._suite, law, instance, detail)
            )
        return bool(ok)


class _BuiltSpec(NamedTuple):
    spec: ConstructionSpec
    strong: Groupoid
    determined: Groupoid
    alpha: Mapping


@dataclass(frozen=True)
class _Chunk:
    """One worker's share of the instance space: every ``chunks``-th
    instance of each source, starting at ``index``."""

    config: SweepConfig
    index: int
    chunks: int
    tables: tuple[tuple[str, Groupoid], ...]

    @cached_property
    def specs(self) -> tuple[_BuiltSpec, ...]:
        """This chunk's share of the construction family, built on first
        read so that suites which never read it never pay for it."""
        family = enumerate_specs(
            self.config.max_semilattice_order, self.config.max_group_order
        )
        return tuple(
            _BuiltSpec(spec, build_strong_slg(spec), *build_determined(spec))
            for spec in itertools.islice(family, self.index, None, self.chunks)
        )


def _chunk_tables(config: SweepConfig, chunk: int, chunks: int):
    """Only this chunk's tables are built: each source is strided by index."""
    for n in range(1, config.max_exhaustive_order + 1):
        cells = itertools.product(range(n), repeat=n * n)
        for flat in itertools.islice(cells, chunk, None, chunks):
            yield "exhaustive", _table(flat, n)
    n = config.sample_order
    for i in range(chunk, config.sample_count, chunks):
        yield "sample", _table(_sample_cells(n, config.seed, i), n)


def _table_id(g: Groupoid) -> str:
    return f"order={g.order} rows={g.rows}"


def _spec_id(spec: ConstructionSpec) -> str:
    text = serialize_cspec(spec).strip().replace("\n", "; ")
    if spec.carrier is not None:
        text += f" carrier={spec.carrier}"
    return text


# ---------------------------------------------------------------------------
# Property suites.
# ---------------------------------------------------------------------------


def _suite_goldens(chunk: _Chunk, rec: _Recorder):
    """Frozen facts about the three bundled fixtures (run once, chunk 0)."""
    if chunk.index != 0:
        return
    from . import fixtures as fx

    g, a = fx.BAND3, fx.BAND3_SWAP
    n3 = identity_mapping(3)
    rec.check("band3.swap_is_involution", is_involution(a), "band3")
    rec.check("band3.associative", g.is_associative(), "band3")
    rec.check("band3.swap_absorption", absorption_law(g, a), "band3")
    rec.check(
        "band3.swap_shift_both_forms",
        shifted_associativity(g, a) and g.is_associative(),
        "band3",
    )
    rec.check("band3.swap_not_left_translation", not in_lt(g, a), "band3")
    rec.check("band3.swap_not_automorphism", not is_homomorphism(a, g, g), "band3")
    rec.check(
        "band3.only_trivial_involutive_automorphism",
        involutive_automorphisms(g) == (n3,),
        "band3",
    )
    rec.check("band3.not_determined", not decide(g).determined, "band3")

    g, a = fx.FLIP2, fx.FLIP2_SWAP
    rec.check("flip2.swap_is_involution", is_involution(a), "flip2")
    rec.check("flip2.not_associative", not g.is_associative(), "flip2")
    rec.check("flip2.swap_absorption", absorption_law(g, a), "flip2")
    rec.check(
        "flip2.swap_shifted_associativity", shifted_associativity(g, a), "flip2"
    )
    rec.check("flip2.swap_automorphism", is_homomorphism(a, g, g), "flip2")
    rec.check("flip2.swap_not_left_translation", not in_lt(g, a), "flip2")
    rec.check("flip2.swap_right_translation", in_rt(g, a), "flip2")
    rec.check(
        "flip2.untwist_by_swap_left_zero",
        untwist(g, a).rows == ((0, 0), (1, 1)),
        "flip2",
    )
    rec.check(
        "flip2.element_zero_has_two_inverses",
        inverses_of(g, 0) == frozenset({0, 1}),
        "flip2",
    )
    rec.check("flip2.not_determined", not decide(g).determined, "flip2")

    g, neg = fx.Z3_TWIST, fx.Z3_NEGATION
    rep = decide(g)
    rec.check("z3twist.negation_is_involution", is_involution(neg), "z3twist")
    rec.check(
        "z3twist.involutive_automorphisms",
        involutive_automorphisms(g) == (n3, neg),
        "z3twist",
    )
    rec.check("z3twist.determined", rep.determined, "z3twist")
    rec.check(
        "z3twist.witness_alpha_is_negation",
        rep.witness is not None and rep.witness.alpha == neg,
        "z3twist",
    )
    rec.check(
        "z3twist.witness_base_is_cyclic_group",
        rep.witness is not None and rep.witness.star == fx.Z3,
        "z3twist",
    )
    rec.check("z3twist.canonical_twist_is_negation", canonical_twist(g) == neg, "z3twist")
    rec.check(
        "z3twist.strongly_regular", strongly_regular_witness(g) == (0, 1, 2), "z3twist"
    )
    rec.check("z3twist.right_bol", is_right_bol(g), "z3twist")
    rec.check(
        "z3twist.not_isomorphic_to_base", find_isomorphism(g, fx.Z3) is None, "z3twist"
    )
    rec.check(
        "z3twist.identity_fails_shift",
        not shifted_associativity(g, n3),
        "z3twist",
    )
    rec.check(
        "z3twist.build_from_data",
        build_determined(fx.Z3_TWIST_SPEC) == (g, neg),
        "z3twist",
    )
    rec.check(
        "z3twist.decompose_to_data",
        decompose(g, neg) == fx.Z3_TWIST_SPEC,
        "z3twist",
    )


def _suite_square_classes(chunk: _Chunk, rec: _Recorder):
    """Product-set descent for the generalized classes, on associative
    tables (exhaustive and sampled): the generalized identity holds exactly
    when the product subtable satisfies the base identity, and the
    right-absorption identity forces idempotency."""
    for _src, g in chunk.tables:
        inst = _table_id(g)
        try:
            squares, _ = square_subgroupoid(g)
        except NotClosed as exc:  # unreachable: product sets are closed
            rec.check("product_set_closed", False, inst, str(exc))
            continue
        rec.check("product_set_closed", True, inst)
        if not g.is_associative():
            continue
        for base, _inflation, generalized in DESCENT_PAIRS:
            rec.check(
                f"square_equivalence.{generalized}",
                satisfies_variety(g, generalized) == satisfies_variety(squares, base),
                inst,
                f"generalized={satisfies_variety(g, generalized)} "
                f"square_base={satisfies_variety(squares, base)}",
            )
        if satisfies_variety(g, "RB"):
            rec.check(
                "right_absorption_forces_idempotency",
                satisfies_variety(g, "B"),
                inst,
            )


def _suite_ad_equivalence(chunk: _Chunk, rec: _Recorder):
    """The definition-level membership scan and the per-class
    characterizations agree on every exhaustive table, and every
    characterization witness is a valid definition-level witness."""
    from .determination import ad_membership_characterized, ad_membership_profile

    for src, g in chunk.tables:
        if src != "exhaustive":
            continue
        inst = _table_id(g)
        profile = ad_membership_profile(g)
        for tag in VARIETIES:
            direct = profile[tag]
            char = ad_membership_characterized(g, tag)
            rec.check(
                f"match.{tag}",
                (direct is None) == (char is None),
                inst,
                f"direct={direct} characterized={char}",
            )
            if char is not None:
                star = untwist(g, char)
                rec.check(
                    f"witness.{tag}",
                    in_semigroup_class(star, tag) and is_homomorphism(char, star, star),
                    inst,
                    f"characterized={char}",
                )


#: Largest built instance on which the membership-scan suites still run.
_RELATION_ORDER_CAP = 6


def _suite_class_relations(chunk: _Chunk, rec: _Recorder):
    """Inclusion chains, product-set descent, semigroup identities, and
    witness isomorphisms between the twelve derived classes, on every
    exhaustive table and on built instances small enough for the
    membership scan."""
    targets = [g for src, g in chunk.tables if src == "exhaustive"]
    targets.extend(
        built.determined
        for built in chunk.specs
        if built.determined.order <= _RELATION_ORDER_CAP
    )
    for g in targets:
        inst = _table_id(g)
        report = check_class_relations(g)
        for base in (pair[0] for pair in DESCENT_PAIRS):
            rec.check(
                f"inclusion_chain.{base}", report["inclusion_chain"][base], inst
            )
            rec.check(
                f"square_descent.{base}", report["square_descent"][base], inst
            )
        for tag in VARIETIES:
            rec.check(
                f"semigroup_identity.{tag}", report["semigroup_identity"][tag], inst
            )
            iso = report["twist_isomorphism"][tag]
            if iso is not None:
                rec.check(f"twist_isomorphism.{tag}", iso, inst)


def _involution_laws_for(g: Groupoid, f: Mapping, rec: _Recorder, inst: str):
    n = g.order
    shifted = shifted_associativity(g, f)
    assoc = g.is_associative()
    absorb = absorption_law(g, f)
    band = satisfies_variety(g, "B")
    hom = is_homomorphism(f, g, g)
    lt = in_lt(g, f)
    strong_shift = shifted and assoc and absorb
    detail = f"mapping={f}"
    if strong_shift:
        rec.check("strong_shift_forces_idempotency", band, inst, detail)
        rec.check(
            "strong_shift_automorphism_iff_left_translation",
            hom == lt,
            inst,
            detail,
        )
        rec.check(
            "strong_shift_right_translation_iff_identity",
            in_rt(g, f) == (f == identity_mapping(n)),
            inst,
            detail,
        )
        if band and hom and f != identity_mapping(n):
            rec.check(
                "nontrivial_automorphism_swaps_absorbing_pair",
                any(
                    f[a] != a
                    and g.product(a, f[a]) == f[a]
                    and g.product(f[a], a) == a
                    for a in g
                ),
                inst,
                detail,
            )
    if absorb and lt:
        rec.check("absorbing_left_translation_forces_idempotency", band, inst, detail)
        if shifted:
            rec.check(
                "absorbing_left_translation_shift_makes_automorphism",
                hom,
                inst,
                detail,
            )
    if band and shifted:
        rec.check("idempotency_with_shift_forces_absorption", absorb, inst, detail)
    if lt and shifted:
        rec.check(
            "left_translation_shift_idempotency_iff_absorption",
            band == absorb,
            inst,
            detail,
        )


def _suite_involution_laws(chunk: _Chunk, rec: _Recorder):
    """Laws tying a self-inverse mapping's absorption, shift, translation,
    and automorphism properties together, over every exhaustive table with
    every self-inverse mapping, and over built instances with their glued
    mapping."""
    for src, g in chunk.tables:
        if src != "exhaustive":
            continue
        inst = _table_id(g)
        for f in involutions(g.order):
            _involution_laws_for(g, f, rec, inst)
    for built in chunk.specs:
        inst = _spec_id(built.spec)
        _involution_laws_for(built.determined, built.alpha, rec, inst)
        _involution_laws_for(built.strong, built.alpha, rec, inst)


class _InverseFacts:
    """One table's inverse table and the predicates the ``inverse_laws``
    suite reads, each computed at most once and only when first read."""

    def __init__(self, g: Groupoid):
        self.g = g
        try:
            self.inv: Mapping | None = inverse_table(g)
        except NotInverse:
            self.inv = None

    @cached_property
    def idempotents(self) -> frozenset[int]:
        return self.g.idempotents()

    @cached_property
    def products_idem(self) -> bool:
        inv = self.inv
        return all(self.g.product(a, inv[a]) in self.idempotents for a in self.g)

    @cached_property
    def e_semilattice(self) -> bool:
        return idempotents_form_semilattice(self.g)

    @cached_property
    def right_bol(self) -> bool:
        return is_right_bol(self.g)

    @cached_property
    def strongly_regular(self) -> bool:
        return strongly_regular_witness(self.g) is not None

    @cached_property
    def completely_inverse(self) -> bool:
        return self.inv is not None and is_completely_inverse(self.g)


def _inverse_laws_for(facts: _InverseFacts, f: Mapping, rec: _Recorder, inst: str):
    g, inv = facts.g, facts.inv
    if inv is None or not is_homomorphism(f, g, g):
        return
    detail = f"mapping={f}"
    e_fixed = all(f[e] == e for e in facts.idempotents)
    canonical = all(
        f[a] == g.product(a, g.product(inv[a], a)) for a in g
    )
    antihom = inverse_antihomomorphism_law(g, f)
    if facts.products_idem and untwist(g, f).is_associative():
        rec.check(
            "unique_inverses_shift_efixed_iff_canonical",
            e_fixed == canonical,
            inst,
            detail,
        )
    if facts.right_bol and e_fixed and antihom:
        rec.check(
            "right_bol_antihomomorphism_forces_semilattice",
            facts.e_semilattice,
            inst,
            detail,
        )
    if facts.products_idem and shifted_associativity(g, f):
        rec.check("shift_fixes_idempotents", e_fixed, inst, detail)
        rec.check("shift_forces_canonical_formula", canonical, inst, detail)
        rec.check(
            "shift_semilattice_iff_antihomomorphism",
            facts.e_semilattice == antihom,
            inst,
            detail,
        )
    if (
        facts.strongly_regular
        and facts.e_semilattice
        and e_fixed
        and shifted_associativity(g, f)
    ):
        rec.check(
            "strong_regularity_shift_forces_completely_inverse",
            facts.completely_inverse,
            inst,
            detail,
        )


def _canonical_law_for(facts: _InverseFacts, rec: _Recorder, inst: str):
    if not facts.completely_inverse:
        return
    g = facts.g
    try:
        c = canonical_twist(g)
    except NotInverse:  # unreachable given unique inverses
        rec.check("canonical_map_defined", False, inst)
        return
    if (
        is_involution(c)
        and is_homomorphism(c, g, g)
        and (facts.e_semilattice or inverse_antihomomorphism_law(g, c))
    ):
        rec.check(
            "canonical_shift_iff_right_bol",
            shifted_associativity(g, c) == facts.right_bol,
            inst,
            f"canonical={c}",
        )


def _suite_inverse_laws(chunk: _Chunk, rec: _Recorder):
    """Laws about unique inverses, idempotent products, the canonical map,
    and the inverse-antihomomorphism condition, over every exhaustive table
    with every self-inverse mapping, and over built instances with their
    glued mapping."""
    for src, g in chunk.tables:
        if src != "exhaustive":
            continue
        facts = _InverseFacts(g)
        if facts.inv is None:
            continue
        inst = _table_id(g)
        for f in involutions(g.order):
            _inverse_laws_for(facts, f, rec, inst)
        _canonical_law_for(facts, rec, inst)
    for built in chunk.specs:
        inst = _spec_id(built.spec)
        determined = _InverseFacts(built.determined)
        _inverse_laws_for(determined, built.alpha, rec, inst)
        _inverse_laws_for(_InverseFacts(built.strong), built.alpha, rec, inst)
        _canonical_law_for(determined, rec, inst)


def _suite_slg_conclusions(chunk: _Chunk, rec: _Recorder):
    """The full conclusion battery on every twist of a semilattice of
    groups: exhaustive bases with every idempotent-fixed self-inverse
    automorphism, plus every built instance with its glued mapping."""
    jobs: list[tuple[str, Groupoid, Groupoid, Mapping]] = []
    for src, star in chunk.tables:
        if src != "exhaustive" or not is_semilattice_of_groups(star):
            continue
        for f in e_fixed_involutive_automorphisms(star):
            jobs.append(
                (f"star={star.rows} alpha={f}", twist(star, f), star, f)
            )
    for built in chunk.specs:
        jobs.append((_spec_id(built.spec), built.determined, built.strong, built.alpha))
    for inst, g, star, f in jobs:
        try:
            results = check_twisted_slg(g, star, f)
        except PreconditionViolated as exc:
            rec.check("preconditions", False, inst, str(exc))
            continue
        for name, ok in results.items():
            rec.check(name, ok, inst)


def _suite_decision_coherence(chunk: _Chunk, rec: _Recorder):
    """The three decision criteria agree on every table (exhaustive and
    sampled), positives carry verified witnesses, and built instances with
    a small semilattice decide positive with the glued mapping satisfying
    the shifted triple law."""
    for _src, g in chunk.tables:
        inst = _table_id(g)
        try:
            report = decide(g)
        except TheoremViolation as exc:
            rec.check("criteria_agree", False, inst, str(exc))
            continue
        rec.check("criteria_agree", True, inst)
        if report.determined:
            w = report.witness
            rec.check(
                "witness_shift_law",
                w is not None and shifted_associativity(g, w.alpha),
                inst,
            )
            rec.check(
                "witness_reconstructs",
                w is not None and twist(w.star, w.alpha) == g,
                inst,
            )
    for built in chunk.specs:
        if built.spec.semilattice.order > 2:
            continue
        inst = _spec_id(built.spec)
        rec.check(
            "constructed_shift_law",
            shifted_associativity(built.determined, built.alpha),
            inst,
        )
        try:
            report = decide(built.determined)
        except TheoremViolation as exc:
            rec.check("constructed_is_determined", False, inst, str(exc))
            continue
        rec.check("constructed_is_determined", report.determined, inst)


def _suite_construction_roundtrip(chunk: _Chunk, rec: _Recorder):
    """Structural laws of the block construction on every spec in the
    family — validity, the strong form being a semilattice of groups, the
    twist link, connecting maps being group homomorphisms, complete
    inverseness, decomposition inverting the build, and serialization
    round-tripping — plus build inverting decomposition on every
    decided-positive exhaustive table."""
    for built in chunk.specs:
        spec, strong, g, alpha = built
        inst = _spec_id(spec)
        problems = validate_spec(spec)
        rec.check("spec_valid", not problems, inst, "; ".join(problems))
        rec.check(
            "strong_form_is_semilattice_of_groups",
            is_semilattice_of_groups(strong),
            inst,
        )
        rec.check("twist_links_strong_and_determined", g == twist(strong, alpha), inst)
        rec.check(
            "glued_mapping_is_idempotent_fixed_involutive_automorphism",
            is_involution(alpha)
            and is_homomorphism(alpha, strong, strong)
            and all(alpha[e] == e for e in strong.idempotents()),
            inst,
        )
        rec.check(
            "connecting_maps_are_group_homomorphisms",
            all(
                is_homomorphism(
                    images,
                    Groupoid(spec.groups[f].rows),
                    Groupoid(spec.groups[e].rows),
                )
                for (f, e), images in spec.homs
            ),
            inst,
        )
        rec.check("determined_is_completely_inverse", is_completely_inverse(g), inst)
        rec.check("decompose_inverts_build", decompose(g, alpha) == spec, inst)
        text = serialize_cspec(spec)
        reparsed = parse_cspec(text)
        rec.check(
            "serialization_roundtrip",
            reparsed == spec and serialize_cspec(reparsed) == text,
            inst,
        )
    for src, g in chunk.tables:
        if src != "exhaustive":
            continue
        try:
            report = decide(g)
        except TheoremViolation:
            continue  # decision_coherence owns that alarm
        if not report.determined:
            continue
        inst = _table_id(g)
        w = report.witness
        spec = decompose(g, w.alpha)
        rebuilt, rebuilt_alpha = build_determined(spec)
        rec.check(
            "build_inverts_decompose",
            rebuilt == g and rebuilt_alpha == w.alpha,
            inst,
            f"alpha={w.alpha}",
        )


SUITES: dict[str, Callable[[_Chunk, _Recorder], None]] = {}


def register_suite(name: str, runner: Callable[[_Chunk, _Recorder], None]):
    """Add a property suite to the registry under a unique name."""
    if name in SUITES:
        raise ValueError(f"suite {name!r} is already registered")
    SUITES[name] = runner


for _name, _runner in (
    ("goldens", _suite_goldens),
    ("square_classes", _suite_square_classes),
    ("ad_equivalence", _suite_ad_equivalence),
    ("class_relations", _suite_class_relations),
    ("involution_laws", _suite_involution_laws),
    ("inverse_laws", _suite_inverse_laws),
    ("slg_conclusions", _suite_slg_conclusions),
    ("decision_coherence", _suite_decision_coherence),
    ("construction_roundtrip", _suite_construction_roundtrip),
):
    register_suite(_name, _runner)


def _run_chunk(
    config: SweepConfig, chunk_index: int, chunks: int
) -> tuple[Counter, list[Counterexample]]:
    tables = tuple(_chunk_tables(config, chunk_index, chunks))
    chunk = _Chunk(config, chunk_index, chunks, tables)
    counts: Counter = Counter()
    failures: list[Counterexample] = []
    for name in config.active_suites():
        SUITES[name](chunk, _Recorder(name, counts, failures))
    return counts, failures


def run_sweep(config: SweepConfig, jobs: int = 1) -> SweepReport:
    """Run the active suites over the configured instance space.

    ``jobs`` both sizes the worker pool and fixes the number of chunks;
    because every check is per-instance and the merge is order-independent,
    the report's canonical form does not depend on it.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if config.max_exhaustive_order > MAX_EXHAUSTIVE_ORDER and not (
        config.allow_large_exhaustive
    ):
        raise OrderTooLarge(
            f"exhaustive order {config.max_exhaustive_order} needs "
            "allow_large_exhaustive=True"
        )
    resolved = replace(config, suites=config.active_suites())
    start = time.perf_counter()
    if jobs == 1:
        results = [_run_chunk(resolved, 0, 1)]
    else:
        args = [(resolved, c, jobs) for c in range(jobs)]
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            results = pool.starmap(_run_chunk, args)
    counts: Counter = Counter()
    failures: list[Counterexample] = []
    for chunk_counts, chunk_failures in results:
        counts.update(chunk_counts)
        failures.extend(chunk_failures)
    failures.sort(key=lambda c: (c.suite, c.law, c.instance, c.detail))
    return SweepReport(
        config=resolved,
        counts=dict(counts),
        counterexamples=tuple(failures),
        elapsed_seconds=time.perf_counter() - start,
    )
