"""Block construction data: validation, build, decompose, .cspec format."""

import collections
import copy
import dataclasses
import pickle
import random
import re

import pytest

import gpdtools.clifford as clifford
import gpdtools.inverses as inverses
from gpdtools import (
    ConstructionSpec,
    Groupoid,
    GroupSpec,
    InvalidSpec,
    MalformedInput,
    MeetSemilattice,
    NotDetermined,
    NotInverse,
    build_determined,
    build_strong_slg,
    decide,
    decompose,
    enumerate_groupoids,
    enumerate_specs,
    involutions,
    inverse_table,
    is_homomorphism,
    is_involution,
    is_semilattice_of_groups,
    parse_cspec,
    serialize_cspec,
    twist,
    validate_spec,
)
from gpdtools.clifford import (
    _block_problems,
    _map_problems,
    _meet_problems,
    _products,
)
from gpdtools.fixtures import BAND3, FLIP2, Z3, Z3_TWIST, Z3_TWIST_SPEC

Z1 = GroupSpec(((0,),), (0,))
Z2 = GroupSpec(((0, 1), (1, 0)), (0, 1))
Z3_ID = GroupSpec(Z3.rows, (0, 1, 2))
Z3_NEG = GroupSpec(Z3.rows, (0, 2, 1))
CHAIN = MeetSemilattice(((0, 0), (0, 1)))
POINT = MeetSemilattice(((0,),))

CHAIN_SPEC = ConstructionSpec(CHAIN, (Z1, Z2), (((1, 0), (0, 0)),))
TWISTED_CHAIN_SPEC = ConstructionSpec(CHAIN, (Z1, Z3_NEG), (((1, 0), (0, 0, 0)),))


def test_semilattice_type():
    assert CHAIN.order == 2
    assert CHAIN.leq(0, 1) and not CHAIN.leq(1, 0)
    assert CHAIN.strict_pairs() == ((1, 0),)
    vee = MeetSemilattice(((0, 0, 0), (0, 1, 0), (0, 0, 2)))
    assert vee.strict_pairs() == ((1, 0), (2, 0))
    with pytest.raises(ValueError):
        MeetSemilattice(((0, 0), (0,)))
    with pytest.raises(ValueError):
        MeetSemilattice(((0, 2), (0, 1)))


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(((0, 1),), (0, 1))  # non-square table
    with pytest.raises(ValueError):
        GroupSpec(((0, 1), (1, 0)), (0,))  # involution size mismatch
    with pytest.raises(ValueError):
        GroupSpec(((0, 2), (1, 0)), (0, 1))  # entry outside the carrier
    with pytest.raises(ValueError, match="involution images must lie"):
        GroupSpec(((0, 1), (1, 0)), (False, True))  # bools are not entries
    with pytest.raises(ValueError):
        ConstructionSpec(POINT, (), ())  # no group for the one element


def test_validate_spec_clean():
    assert validate_spec(Z3_TWIST_SPEC) == []
    assert validate_spec(CHAIN_SPEC) == []
    assert validate_spec(TWISTED_CHAIN_SPEC) == []


def _problems(spec):
    return "\n".join(validate_spec(spec))


def test_validate_spec_bad_meet():
    not_idem = ConstructionSpec(
        MeetSemilattice(((1, 0), (0, 1))), (Z1, Z1), (((1, 0), (0,)),)
    )
    assert "idempotent" in _problems(not_idem)
    assert validate_spec(not_idem) == ["meet not idempotent at 0"]
    # commutativity violation: meet[0][1] != meet[1][0]
    bad = MeetSemilattice(((0, 1, 0), (0, 1, 1), (0, 1, 2)))
    spec = ConstructionSpec(bad, (Z1, Z1, Z1), tuple())
    assert "commutative" in _problems(spec) or "associative" in _problems(spec)
    assert validate_spec(spec) == [
        "meet not commutative at (0,1)",
        "connecting maps cover pairs (), expected ((2, 0), (2, 1))",
    ]


#: A meet table that is not a semilattice: it calls 2 > 1 and 1 > 0 but
#: not 2 > 0, so the chain 2 > 1 > 0 has no direct map.
NON_TRANSITIVE_CSPEC = (
    "semilattice 3\n0 0 1\n0 1 1\n1 1 2\n"
    + "".join(f"group {e} 1\n0\nalpha {e}\n0\n" for e in range(3))
    + "hom 1 0\n0\nhom 2 1\n0\n"
)


def test_validate_spec_meet_not_transitive():
    # Six triples fail associativity; only the first is listed.
    assert validate_spec(parse_cspec(NON_TRANSITIVE_CSPEC)) == [
        "meet not associative at (0,0,2)"
    ]


def test_meet_check_lists_one_failure_per_law():
    k = 120
    meet = tuple(tuple((e * f + 1) % k for f in range(k)) for e in range(k))
    spec = ConstructionSpec(MeetSemilattice(meet), (Z1,) * k, ())
    meet_problems = [m for m in validate_spec(spec) if m.startswith("meet ")]
    # Commutative, but 120 elements fail idempotence and 1,713,600 triples
    # fail associativity.
    assert meet_problems == [
        "meet not idempotent at 0",
        "meet not associative at (0,0,1)",
    ]


def test_validate_spec_bad_group():
    not_group = GroupSpec(((0, 1), (0, 1)), (0, 1))
    spec = ConstructionSpec(POINT, (not_group,), ())
    assert _problems(spec) != ""
    assert validate_spec(spec) == [
        "block 0: local index 0 is not a two-sided identity",
        "block 0: local element 1 has no two-sided inverse",
    ]


def test_validate_spec_bad_involution():
    # The swap is not an automorphism of Z2 (it moves the identity).
    bad = ConstructionSpec(POINT, (GroupSpec(((0, 1), (1, 0)), (1, 0)),), ())
    assert "automorphism" in _problems(bad) or "identity" in _problems(bad)
    assert validate_spec(bad) == [
        "block 0: mapping is not an automorphism",
        "block 0: mapping does not fix the identity",
    ]


def test_validate_spec_hom_pair_coverage():
    missing = ConstructionSpec(CHAIN, (Z1, Z2), ())
    assert "pair" in _problems(missing)
    assert validate_spec(missing) == [
        "connecting maps cover pairs (), expected ((1, 0),)"
    ]
    extra = ConstructionSpec(
        POINT, (Z1,), (((0, 0), (0,)),)
    )
    assert "pair" in _problems(extra)
    assert validate_spec(extra) == [
        "connecting maps cover pairs ((0, 0),), expected ()"
    ]


def test_validate_spec_bad_hom_images():
    out_of_range = ConstructionSpec(CHAIN, (Z1, Z2), (((1, 0), (0, 5)),))
    assert "image" in _problems(out_of_range) or "outside" in _problems(out_of_range)
    assert validate_spec(out_of_range) == ["map (1>0): images do not fit the blocks"]
    # Bools are not images, also right after the equal int images were
    # validated.
    assert validate_spec(CHAIN_SPEC) == []
    bools = ConstructionSpec(CHAIN, (Z1, Z2), (((1, 0), (False, False)),))
    assert validate_spec(bools) == ["map (1>0): images do not fit the blocks"]
    # x -> x is not a homomorphism Z2 -> Z1 (images escape the block), use a
    # genuine non-homomorphism instead: Z2 -> Z2 swapping only one value is
    # not even well-formed; send both elements to 1 instead.
    not_hom = ConstructionSpec(
        CHAIN, (Z2, Z2), (((1, 0), (1, 1)),)
    )
    assert "homomorphism" in _problems(not_hom)
    assert validate_spec(not_hom) == [
        "map (1>0): not a homomorphism of the twisted blocks at (0,0)"
    ]


def test_validate_spec_involution_compat():
    # Identity connecting map between a negation block and an identity block
    # cannot commute with the involutions.
    spec = ConstructionSpec(CHAIN, (Z3_NEG, Z3_ID), (((1, 0), (0, 1, 2)),))
    assert "does not commute with the block mappings" in _problems(spec)


def test_validate_spec_transitivity():
    chain3 = MeetSemilattice(((0, 0, 0), (0, 1, 1), (0, 1, 2)))
    spec = ConstructionSpec(
        chain3,
        (Z2, Z2, Z2),
        (
            ((1, 0), (0, 0)),  # collapse
            ((2, 0), (0, 1)),  # identity: disagrees with the composite
            ((2, 1), (0, 1)),  # identity
        ),
    )
    assert "composition differs from the direct map" in _problems(spec)


def test_validate_spec_bad_carrier():
    spec = ConstructionSpec(POINT, (Z2,), (), carrier=((0, 0),))
    assert _problems(spec) != ""
    assert validate_spec(spec) == ["carrier is not a partition of the combined range"]
    spec = ConstructionSpec(POINT, (Z2,), (), carrier=((0, 2),))
    assert _problems(spec) != ""
    assert validate_spec(spec) == ["carrier is not a partition of the combined range"]
    spec = ConstructionSpec(POINT, (Z2,), (), carrier=((0,),))
    assert validate_spec(spec) == ["carrier blocks do not match the group sizes"]
    spec = ConstructionSpec(POINT, (Z2,), (), carrier=((False, True),))
    assert validate_spec(spec) == ["carrier is not a partition of the combined range"]


def test_validate_spec_empty_parts_and_list_fields():
    # Empty parts are reported rather than built into an empty table.
    empty = ConstructionSpec(MeetSemilattice(()), (), ())
    assert validate_spec(empty) == ["semilattice is empty"]
    with pytest.raises(InvalidSpec):
        build_determined(empty)
    hollow = ConstructionSpec(POINT, (GroupSpec((), ()),), ())
    assert validate_spec(hollow) == ["block 0: group is empty"]
    # Lists are stored as tuples, so every part stays hashable.
    listed = ConstructionSpec(
        MeetSemilattice([(0, 0), (0, 1)]), (Z1, GroupSpec([(0, 1), (1, 0)], [0, 1])),
        (((1, 0), [0, 0]),),
    )
    assert listed == ConstructionSpec(CHAIN, (Z1, Z2), (((1, 0), [0, 0]),))
    assert validate_spec(listed) == []
    assert build_determined(listed) == build_determined(CHAIN_SPEC)


def test_validate_spec_returns_a_fresh_list():
    spec = ConstructionSpec(POINT, (GroupSpec(((0, 1), (1, 0)), (1, 0)),), ())
    first = validate_spec(spec)
    first.append("changed by the caller")
    first[0] = "also changed"
    assert validate_spec(spec) == [
        "block 0: mapping is not an automorphism",
        "block 0: mapping does not fix the identity",
    ]
    clean = validate_spec(CHAIN_SPEC)
    clean.append("changed by the caller")
    assert validate_spec(CHAIN_SPEC) == []


def test_part_checks_expose_cache_controls():
    parts = (_meet_problems, _block_problems, _map_problems)
    for part in parts:
        assert callable(part.cache_clear) and callable(part.cache_info)
    specs = _mutants(_family()[::40], 300, seed=5) + [TWISTED_CHAIN_SPEC]
    for part in parts:
        part.cache_clear()
    cold = [validate_spec(spec) for spec in specs]
    assert _block_problems.cache_info().misses > 0
    warm = [validate_spec(spec) for spec in specs]
    assert _block_problems.cache_info().hits > 0
    assert warm == cold == [_reference_validate_spec(spec) for spec in specs]


def test_build_rejects_invalid():
    with pytest.raises(InvalidSpec):
        build_determined(ConstructionSpec(CHAIN, (Z1, Z2), ()))
    with pytest.raises(InvalidSpec):
        build_strong_slg(ConstructionSpec(CHAIN, (Z1, Z2), ()))


def test_build_chain():
    strong = build_strong_slg(CHAIN_SPEC)
    assert strong.rows == ((0, 0, 0), (0, 1, 2), (0, 2, 1))
    g, alpha = build_determined(CHAIN_SPEC)
    assert (g, alpha) == (strong, (0, 1, 2))
    assert is_semilattice_of_groups(strong)
    assert decompose(g, alpha) == CHAIN_SPEC


def test_build_twisted_chain():
    strong = build_strong_slg(TWISTED_CHAIN_SPEC)
    assert strong.rows == (
        (0, 0, 0, 0),
        (0, 1, 2, 3),
        (0, 2, 3, 1),
        (0, 3, 1, 2),
    )
    g, alpha = build_determined(TWISTED_CHAIN_SPEC)
    assert alpha == (0, 1, 3, 2)
    assert g == twist(strong, alpha)
    assert g.rows == (
        (0, 0, 0, 0),
        (0, 1, 2, 3),
        (0, 3, 1, 2),
        (0, 2, 3, 1),
    )
    assert decompose(g, alpha) == TWISTED_CHAIN_SPEC
    assert decide(g).determined


def test_build_point_fixture():
    g, alpha = build_determined(Z3_TWIST_SPEC)
    assert g == Z3_TWIST
    assert alpha == (0, 2, 1)


def _relabel(g, perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return Groupoid(
        tuple(
            tuple(perm[g.product(inv[x], inv[y])] for y in range(g.order))
            for x in range(g.order)
        )
    )


def test_decompose_noncanonical_numbering():
    # Relabel the twisted chain so its blocks are no longer consecutive;
    # decompose must pin the numbering via the carrier and rebuild exactly.
    g, alpha = build_determined(TWISTED_CHAIN_SPEC)
    perm = (3, 1, 0, 2)
    h = _relabel(g, perm)
    beta = tuple(perm[alpha[ [perm.index(i) for i in range(4)][x] ]] for x in range(4))
    # beta = perm . alpha . perm^-1
    inv = [perm.index(i) for i in range(4)]
    beta = tuple(perm[alpha[inv[x]]] for x in range(4))
    spec = decompose(h, beta)
    assert spec.carrier is not None
    rebuilt, rebuilt_alpha = build_determined(spec)
    assert rebuilt == h
    assert rebuilt_alpha == beta
    # The serialized form drops the carrier, by design.
    assert parse_cspec(serialize_cspec(spec)).carrier is None


def test_decompose_rejections():
    with pytest.raises(NotInverse) as not_inverse:
        inverse_table(BAND3)
    with pytest.raises(NotDetermined) as err:
        decompose(BAND3, (0, 1, 2))  # no unique inverses
    assert str(err.value) == f"no inverse table: {not_inverse.value}"
    with pytest.raises(NotDetermined):
        decompose(FLIP2, (1, 0))  # not even associative after untwisting
    with pytest.raises(NotDetermined):
        decompose(Z3, (0, 2, 1))  # wrong mapping for this table
    with pytest.raises(NotDetermined):
        decompose(Z3_TWIST, (1, 2, 0))  # not an involution
    with pytest.raises(NotDetermined):
        decompose(Z3_TWIST, (False, 2, True))  # images are not ints


#: The refusals of decompose, numbers replaced by ``#`` and details cut at
#: the first colon.  The one for a mapping that is no involution is left
#: out: every mapping below is an involution.
_DECOMPOSE_REFUSALS = {
    "no idempotents, so no blocks to recover",
    "no inverse table",
    "idempotent product #*#=# is not idempotent",
    "class label # of # is not idempotent",
    "untwisted block # is not closed at (#,#)",
    "mapping does not preserve block #",
    "connecting image #*#=# misses block #",
    "recovered data is invalid",
    "recovered data does not rebuild the input",
}


def test_decompose_is_total_on_small_tables():
    # Every table of order <= 3 with every involution of its carrier:
    # decompose refuses with NotDetermined or returns data that rebuilds
    # the pair, and it succeeds exactly on decide's positives with their
    # witness mappings.
    # None of it goes through the cache of inverse_table.
    decomposed, refusals = {}, set()
    before = inverse_table.cache_info()
    for n in (1, 2, 3):
        for g in enumerate_groupoids(n):
            for f in involutions(n):
                try:
                    spec = decompose(g, f)
                except NotDetermined as exc:
                    refusals.add(re.sub(r"\d+", "#", str(exc)).split(":")[0])
                    continue
                assert build_determined(spec) == (g, f)
                decomposed[g] = f
    assert inverse_table.cache_info() == before
    assert refusals == _DECOMPOSE_REFUSALS
    positives = {
        g: report.witness.alpha
        for n in (1, 2, 3)
        for g in enumerate_groupoids(n)
        for report in (decide(g),)
        if report.determined
    }
    assert decomposed == positives
    assert len(positives) == 32


@pytest.mark.parametrize(
    "g, alpha",
    [(Z3_TWIST, (0, 2, 1)), build_determined(TWISTED_CHAIN_SPEC)],
    ids=["z3twist", "twisted_chain"],
)
def test_decompose_computes_the_inverse_table_once(g, alpha, monkeypatch):
    """One decompose reads the uncached inverse kernel once and never the
    cached ``inverse_table``."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module in (inverses, clifford):
        for name in ("_inverse_images", "inverse_table"):
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, counted(name, fn))
    assert build_determined(decompose(g, alpha)) == (g, alpha)
    assert calls["_inverse_images"] == 1
    assert calls["inverse_table"] == 0


@pytest.mark.parametrize(
    "value",
    [Z3_TWIST, CHAIN, Z3_NEG, TWISTED_CHAIN_SPEC],
    ids=lambda value: type(value).__name__,
)
def test_value_types_are_slotted(value):
    """The four value types keep no ``__dict__`` and still compare, hash,
    pickle, copy and refuse assignment as frozen dataclasses."""
    assert not hasattr(value, "__dict__")
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value and hash(twin) == hash(value)
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))


def test_replace_works_on_a_slotted_spec():
    # replace goes through the validating constructor, as before.
    spec = dataclasses.replace(CHAIN_SPEC, carrier=((2,), (0, 1)))
    assert spec.carrier == ((2,), (0, 1)) and spec.homs is CHAIN_SPEC.homs
    assert validate_spec(spec) == []
    assert build_determined(spec)[0] != build_determined(CHAIN_SPEC)[0]
    with pytest.raises(ValueError):
        dataclasses.replace(CHAIN_SPEC, groups=())


def test_serialize_cspec_bytes():
    assert serialize_cspec(Z3_TWIST_SPEC) == (
        "semilattice 1\n0\ngroup 0 3\n0 1 2\n1 2 0\n2 0 1\nalpha 0\n0 2 1\n"
    )
    assert serialize_cspec(CHAIN_SPEC) == (
        "semilattice 2\n0 0\n0 1\n"
        "group 0 1\n0\nalpha 0\n0\n"
        "group 1 2\n0 1\n1 0\nalpha 1\n0 1\n"
        "hom 1 0\n0 0\n"
    )


def test_parse_cspec_roundtrip():
    for spec in (Z3_TWIST_SPEC, CHAIN_SPEC, TWISTED_CHAIN_SPEC):
        text = serialize_cspec(spec)
        assert parse_cspec(text) == spec
        assert serialize_cspec(parse_cspec(text)) == text


def test_parse_cspec_with_comments():
    text = "# spec\nsemilattice 1\n0\n# block\ngroup 0 1\n0\nalpha 0\n0\n"
    spec = parse_cspec(text)
    assert spec.semilattice.order == 1
    assert spec.groups[0].order == 1


_CSPEC_ERRORS = [
    ("", 1),
    ("semilattice 1\n0\n", 3),  # missing group section
    ("semilattice 1\n0\ngroup 1 1\n0\nalpha 1\n0\n", 3),  # wrong block label
    ("semilattice 1\n0\ngroup 0 1\n0\nalpha 0\n0\nhom 0 0\n0\n", 7),  # stray hom
    (
        "semilattice 2\n0 0\n0 1\ngroup 0 1\n0\nalpha 0\n0\n"
        "group 1 1\n0\nalpha 1\n0\n",
        12,
    ),  # missing hom section
    ("semilattice 1\n0\ngroup 0 1\n0\nalpha 0\n0\nextra\n", 7),  # trailing junk
    ("group 0 1\n0\nalpha 0\n0\n", 1),  # wrong leading section
    ("semilattice 1\n0\ngroup 0 1\n0\nalpha 0\n", 6),  # missing alpha images
    (
        "semilattice 1\n0\ngroup 0 3\n0 1 2\n1 2 0\n2 0 1\nalpha 1\n0 2 1\n",
        7,
    ),  # wrong alpha label
]


@pytest.mark.parametrize(
    "text, line", _CSPEC_ERRORS, ids=[text for text, _ in _CSPEC_ERRORS]
)
def test_parse_cspec_errors(text, line):
    with pytest.raises(MalformedInput) as err:
        parse_cspec(text)
    assert err.value.line == line


def test_parse_cspec_error_line_numbers():
    with pytest.raises(MalformedInput) as err:
        parse_cspec("semilattice 1\nx\n")
    assert "line 2:" in str(err.value)


# ---------------------------------------------------------------------------
# Oracles for the construction kernels: the straightforward per-spec
# validation and per-cell product loop, kept here so the memoised part
# checks and the one-pass product build are compared against them.
# ---------------------------------------------------------------------------


def _reference_is_group(rows):
    m = len(rows)
    if m == 0:
        return ["group is empty"]
    problems = []
    if not Groupoid(rows).is_associative():
        problems.append("group table is not associative")
    if any(rows[0][x] != x or rows[x][0] != x for x in range(m)):
        problems.append("local index 0 is not a two-sided identity")
    for x in range(m):
        if not any(rows[x][y] == 0 and rows[y][x] == 0 for y in range(m)):
            problems.append(f"local element {x} has no two-sided inverse")
    return problems


def _reference_validate_spec(spec):
    problems = []
    sl = spec.semilattice
    meet = sl.meet
    k = sl.order

    # Each meet law lists every failure, and the first one is reported.
    idempotent = [e for e in range(k) if meet[e][e] != e]
    commutative = [
        (e, f) for e in range(k) for f in range(e + 1, k) if meet[e][f] != meet[f][e]
    ]
    associative = [
        (e, f, h)
        for e in range(k)
        for f in range(k)
        for h in range(k)
        if meet[meet[e][f]][h] != meet[e][meet[f][h]]
    ]
    if idempotent:
        problems.append(f"meet not idempotent at {idempotent[0]}")
    if commutative:
        problems.append("meet not commutative at ({},{})".format(*commutative[0]))
    if associative:
        problems.append("meet not associative at ({},{},{})".format(*associative[0]))

    for e, group in enumerate(spec.groups):
        for msg in _reference_is_group(group.rows):
            problems.append(f"block {e}: {msg}")
        alpha = group.involution
        if not is_involution(alpha):
            problems.append(f"block {e}: mapping is not an involution")
        elif not is_homomorphism(alpha, Groupoid(group.rows), Groupoid(group.rows)):
            problems.append(f"block {e}: mapping is not an automorphism")
        if alpha and alpha[0] != 0:
            problems.append(f"block {e}: mapping does not fix the identity")

    expected_pairs = sl.strict_pairs()
    given_pairs = tuple(pair for pair, _ in spec.homs)
    if given_pairs != expected_pairs:
        problems.append(
            f"connecting maps cover pairs {given_pairs}, expected {expected_pairs}"
        )
        return problems

    homs = spec.hom_map()
    bad_pairs = set()
    for (f, e), images in homs.items():
        src, dst = spec.groups[f], spec.groups[e]
        if len(images) != src.order or any(not 0 <= v < dst.order for v in images):
            problems.append(f"map ({f}>{e}): images do not fit the blocks")
            bad_pairs.add((f, e))
            continue
        srows, drows = src.rows, dst.rows
        sa, da = src.involution, dst.involution
        for a in range(src.order):
            for b in range(src.order):
                if images[srows[sa[a]][b]] != drows[da[images[a]]][images[b]]:
                    problems.append(
                        f"map ({f}>{e}): not a homomorphism of the twisted "
                        f"blocks at ({a},{b})"
                    )
                    break
            else:
                continue
            break
        for b in range(src.order):
            if da[images[b]] != images[sa[b]]:
                problems.append(
                    f"map ({f}>{e}): does not commute with the block mappings "
                    f"at {b}"
                )
                break

    for g in range(k):
        for f in range(k):
            for e in range(k):
                if len({g, f, e}) != 3:
                    continue
                if not (sl.leq(e, f) and sl.leq(f, g)):
                    continue
                if bad_pairs & {(g, f), (f, e), (g, e)}:
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
        if len(spec.carrier) != k or any(
            len(block) != size for block, size in zip(spec.carrier, sizes)
        ):
            problems.append("carrier blocks do not match the group sizes")
        elif sorted(v for block in spec.carrier for v in block) != list(range(total)):
            problems.append("carrier is not a partition of the combined range")

    return problems


def _reference_products(spec, twisted):
    sizes = [group.order for group in spec.groups]
    if spec.carrier is not None:
        blocks = spec.carrier
    else:
        blocks, start = [], 0
        for size in sizes:
            blocks.append(tuple(range(start, start + size)))
            start += size
    n = sum(sizes)
    home = [None] * n
    for e, block in enumerate(blocks):
        for i, gid in enumerate(block):
            home[gid] = (e, i)
    meet = spec.semilattice.meet
    homs = spec.hom_map()

    def push(e, i, m):
        return i if e == m else homs[(e, m)][i]

    rows = []
    for a in range(n):
        e, i = home[a]
        row = []
        for b in range(n):
            f, j = home[b]
            m = meet[e][f]
            u = push(e, i, m)
            v = push(f, j, m)
            group = spec.groups[m]
            if twisted:
                u = group.involution[u]
            row.append(blocks[m][group.rows[u][v]])
        rows.append(tuple(row))
    alpha = [0] * n
    for a in range(n):
        e, i = home[a]
        alpha[a] = blocks[e][spec.groups[e].involution[i]]
    return Groupoid(tuple(rows)), tuple(alpha)


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the oracle and the kernel must fail alike
        return ("raised", type(exc).__name__, str(exc))


def _family():
    return list(enumerate_specs(3, 4))


def _mutants(specs, count, seed):
    """One small change per spec: a meet cell, a group cell, an involution
    image, a connecting-map image (possibly out of range), or a carrier
    that is shuffled (valid) or has a duplicated id (invalid)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        spec = rng.choice(specs)
        kind = rng.choice(("meet", "group", "involution", "hom", "shuffle", "dup"))
        sl, groups, homs = spec.semilattice, list(spec.groups), list(spec.homs)
        carrier = spec.carrier
        if kind == "meet":
            k = sl.order
            if k < 2:
                continue
            meet = [list(row) for row in sl.meet]
            e, f = rng.randrange(k), rng.randrange(k)
            meet[e][f] = rng.choice([v for v in range(k) if v != meet[e][f]])
            sl = MeetSemilattice(tuple(map(tuple, meet)))
        elif kind in ("group", "involution"):
            e = rng.randrange(len(groups))
            group = groups[e]
            m = group.order
            if m < 2:
                continue
            rows, alpha = [list(row) for row in group.rows], list(group.involution)
            if kind == "group":
                x, y = rng.randrange(m), rng.randrange(m)
                rows[x][y] = rng.choice([v for v in range(m) if v != rows[x][y]])
            else:
                x = rng.randrange(m)
                alpha[x] = rng.choice([v for v in range(m) if v != alpha[x]])
            groups[e] = GroupSpec(tuple(map(tuple, rows)), tuple(alpha))
        elif kind == "hom":
            if not homs:
                continue
            h = rng.randrange(len(homs))
            (f, e), images = homs[h]
            images = list(images)
            x = rng.randrange(len(images))
            images[x] = rng.choice(
                [v for v in range(groups[e].order + 1) if v != images[x]]
            )
            homs[h] = ((f, e), tuple(images))
        else:
            ids = list(range(sum(group.order for group in groups)))
            rng.shuffle(ids)
            if kind == "dup":
                if len(ids) < 2:
                    continue
                ids[rng.randrange(len(ids))] = ids[rng.randrange(len(ids))]
            carrier, start = [], 0
            for group in groups:
                carrier.append(tuple(ids[start : start + group.order]))
                start += group.order
            carrier = tuple(carrier)
        out.append(ConstructionSpec(sl, tuple(groups), tuple(homs), carrier))
    return out


def test_validate_spec_matches_reference_on_family():
    for spec in _family():
        assert validate_spec(spec) == _reference_validate_spec(spec) == []


def test_validate_spec_matches_reference_on_mutants():
    mutants = _mutants(_family(), 6_000, seed=2026)
    invalid = 0
    for spec in mutants:
        expected = _outcome(_reference_validate_spec, spec)
        assert _outcome(validate_spec, spec) == expected, spec
        invalid += expected != []
    # The corpus exercises both sides of every check.
    assert 2_000 < invalid < len(mutants)


def test_products_match_reference_on_family():
    for spec in _family():
        for twisted in (False, True):
            table, alpha = _products(spec, twisted)
            ref_table, ref_alpha = _reference_products(spec, twisted)
            assert (table.rows, alpha) == (ref_table.rows, ref_alpha)


def test_products_match_reference_with_carriers():
    # Carriers from decomposing relabelled built tables, plus the shuffled
    # carriers of the mutant corpus that leave the spec valid.
    rng = random.Random(7)
    family = _family()
    specs = []
    for spec in rng.sample(family, 400):
        g, alpha = build_determined(spec)
        perm = list(range(g.order))
        rng.shuffle(perm)
        h = _relabel(g, perm)
        inv = [perm.index(i) for i in range(g.order)]
        specs.append(decompose(h, tuple(perm[alpha[inv[x]]] for x in range(g.order))))
    specs += [
        spec
        for spec in _mutants(family, 3_000, seed=11)
        if spec.carrier is not None and not _reference_validate_spec(spec)
    ]
    assert sum(spec.carrier is not None for spec in specs) > 500
    for spec in specs:
        for twisted in (False, True):
            table, alpha = _products(spec, twisted)
            ref_table, ref_alpha = _reference_products(spec, twisted)
            assert (table.rows, alpha) == (ref_table.rows, ref_alpha)
