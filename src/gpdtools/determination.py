"""Row-twisted products and the structure decision procedure.

A groupoid ``G`` arises from a base groupoid ``star`` and a self-inverse
automorphism ``f`` of ``star`` when ``G[x][y] == star[f(x)][y]`` — the table
of ``G`` is the table of ``star`` with its rows permuted by ``f``.  This
module tests membership in the twelve derived classes obtained by letting
``star`` range over the classic semigroup classes, and decides — via three
independently evaluated, provably equivalent criteria — whether a groupoid
arises this way from a semilattice of groups with an idempotent-fixed map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .errors import NotInvolution, PreconditionViolated, TheoremViolation
from .groupoid import (
    VARIETIES,
    Groupoid,
    _checker,
    _compositions,
    _decimals,
    in_semigroup_class,
    satisfies_variety,
    square_subgroupoid,
)
from .inverses import _Facts, idempotents_form_semilattice, is_right_bol
from .mappings import (
    Mapping,
    _isomorphisms,
    _restricted,
    _shift_images,
    identity_mapping,
    involutions,
    is_homomorphism,
    is_involution,
    shifted_associativity,
)

__all__ = [
    "CLASS_RELATION_LAWS",
    "CRITERIA",
    "DESCENT_PAIRS",
    "ISOMORPHISM_CLASSES",
    "SLG_CONCLUSIONS",
    "CriterionVerdict",
    "DecisionReport",
    "Witness",
    "ad_membership_characterized_profile",
    "ad_membership_direct",
    "ad_membership_profile",
    "check_class_relations",
    "check_twisted_semigroup",
    "check_twisted_slg",
    "decide",
    "is_semilattice_of_groups",
    "twist",
    "untwist",
]

#: Names of the three decision criteria, in evaluation order.
CRITERIA = (
    "completely_inverse_automorphism",
    "strong_regularity",
    "right_bol_canonical",
)


def twist(star: Groupoid, f: Mapping) -> Groupoid:
    """The derived product ``x·y = f(x) * y`` as a full table.

    ``f`` must be an involution on the carrier; raises
    :class:`NotInvolution` otherwise.  Because ``f`` is self-inverse the
    row permutation is its own inverse, so this is also :func:`untwist`.
    """
    if len(f) != star.order or not is_involution(f):
        raise NotInvolution(f"{f!r} is not an involution on 0..{star.order - 1}")
    return Groupoid._trusted(tuple(star.rows[f[x]] for x in range(star.order)))


#: Invert :func:`twist`: the base product ``x*y = g(f(x), y)``, so
#: ``untwist(twist(s, f), f) == s`` and ``twist(untwist(g, f), f) == g``.
untwist = twist


def is_semilattice_of_groups(g: Groupoid) -> bool:
    """True when ``g`` is associative, every element ``a`` lies in
    ``a²·S``, and the idempotents commute.

    This one-sided test suffices.  ``a = a²s`` gives ``a R a²``, and also
    ``a J a·a``; a finite semigroup is stable, so ``a J a·a`` gives
    ``a L a²`` as well, i.e. ``a`` lies in ``S·a²`` too.  Then ``a H a²``,
    so the H-class of ``a`` is a group: the table is a union of groups,
    and with commuting idempotents a semilattice of groups.
    """
    if not g.is_associative():
        return False
    rows = g.rows
    # a in a²S is a lookup in the row of a².
    if any(a not in rows[row[a]] for a, row in enumerate(rows)):
        return False
    return idempotents_form_semilattice(g)


def ad_membership_direct(g: Groupoid, variety: str) -> Mapping | None:
    """Definition-level membership test for the derived class of ``variety``.

    Searches every involution ``f`` on the carrier in lexicographic order
    and accepts the first one for which the untwisted table is a semigroup
    in the class (associative and satisfying the class identity) and ``f``
    is an automorphism of that table.  Returns the witness ``f`` or
    ``None``.
    """
    _checker(variety)  # an unknown tag is refused before the search
    for f in involutions(g.order):
        star = untwist(g, f)
        if in_semigroup_class(star, variety) and is_homomorphism(f, star, star):
            return f
    return None


def ad_membership_profile(g: Groupoid) -> dict[str, Mapping | None]:
    """Definition-level membership for all twelve classes in one pass.

    Equivalent to calling :func:`ad_membership_direct` once per tag.  A
    witness f is an involutive automorphism of ``untwist(g, f)``, hence of
    ``g``, whose untwisted table is associative; for such f that is
    exactly the shifted triple law on ``g``.  So only the maps of the
    shift-law search (:func:`_shift_images`) are untwisted, each once, in
    lexicographic order as the lazy search yields them, and no untwisted
    table needs an associativity check.  Two candidates with the same
    untwisted table satisfy the same classes, so only the first of them is
    checked; the first witness per class stays the same.  With no shift
    domain every entry is ``None`` at once.  The characterization-level
    counterpart is :func:`ad_membership_characterized_profile`; neither
    reads the other.
    """
    found: dict[str, Mapping | None] = dict.fromkeys(VARIETIES)
    domain = _shift_images(g)
    if domain is None:
        return found
    missing = set(VARIETIES)
    ids = {row: a for a, row in enumerate(g.rows)}
    rid = [ids[row] for row in g.rows]
    seen = set()
    for f in _isomorphisms(g, g, domain):
        # The classes f satisfies depend only on its untwisted table, whose
        # row x is the row of f[x]: skip a table already seen.
        key = tuple(map(rid.__getitem__, f))
        if key in seen:
            continue
        seen.add(key)
        star = untwist(g, f)
        for tag in sorted(missing):
            if satisfies_variety(star, tag):
                found[tag] = f
                missing.discard(tag)
    return found


def ad_membership_characterized_profile(g: Groupoid) -> dict[str, Mapping | None]:
    """Characterization-level membership for all twelve classes in one call.

    Evaluates, per class, an equation list over the input table alone
    (no untwisting).  Each class gets the first witness in lexicographic
    order (the identity mapping for R0, IR0 and GR0, which need no map),
    or ``None``; provably the one :func:`ad_membership_direct` finds.

    Every witness is a shift candidate, a self-inverse automorphism in the
    shift-law domain (:func:`_shift_images`): the identity is one exactly
    when ``g`` is associative, and L0's row-constant involution f
    (``x·y = f(x)``) meets ``(x·y)·z = x = f(x)·(y·z)``.  So with no
    domain every entry is ``None`` at once, before any class law is read.

    On an automorphism the laws of B, IRB, GB and GL0 test one image
    ``f[x]`` at a time, so each of these classes takes the first map of
    the domain cut by its law (:func:`_restricted`).  IB cuts it by the
    ``y = x`` instance of its law and takes the first map that meets the
    whole law.  The laws of IL0 and GRB do not read ``f``: when one holds,
    its class takes the first candidate.  RB takes B's witness when the RB
    identity holds.
    """
    found: dict[str, Mapping | None] = dict.fromkeys(VARIETIES)
    domain = _shift_images(g)
    if domain is None:
        return found
    rows = g.rows
    n = g.order
    if g.is_associative():
        for tag in ("R0", "IR0", "GR0"):
            if satisfies_variety(g, tag):
                found[tag] = identity_mapping(n)
    # x·y = f(x) for a bare involution f: rows must be constant and the
    # row-constant map self-inverse, so that map is the only candidate.
    constant_rows = all(len(set(row)) == 1 for row in rows)
    f = tuple(row[0] for row in rows)
    if constant_rows and is_involution(f):
        found["L0"] = f

    def first(keep):
        return next(_isomorphisms(g, g, _restricted(domain, keep)), None)

    # B: x·f(x) = f(x).  IRB: (x·y)·z = f(x)·z, so each product in row x
    # has the row of f(x).
    found["B"] = first(lambda x, a: rows[x][a] == a)
    found["IRB"] = first(lambda x, a: all(rows[p] == rows[a] for p in rows[x]))
    # GB: p = f(p)·p for each product p = x·y with ((x·y)·x)·y != x·y.
    unsettled = {
        p
        for x, row in enumerate(rows)
        for y, p in enumerate(row)
        if rows[rows[p][x]][y] != p
    }
    found["GB"] = first(lambda x, a: x not in unsettled or rows[a][x] == x)
    # GL0: (x·y)·z = f(x)·f(y) = f(x·y), so each product p has the
    # constant row f(p).
    products = set(g.products())
    found["GL0"] = first(lambda x, a: x not in products or rows[x] == (a,) * n)

    # x·y = (f(x)·x)·(f(y)·y): row x is the row of s[x] read at s.
    def ib_law(f):
        s = [rows[fx][x] for x, fx in enumerate(f)]
        return all(
            row == tuple(map(rows[sx].__getitem__, s)) for row, sx in zip(rows, s)
        )

    # At y = x: x·x = s·s with s = f(x)·x.
    cut = _restricted(domain, lambda x, a: rows[x][x] == rows[rows[a][x]][rows[a][x]])
    found["IB"] = next(filter(ib_law, _isomorphisms(g, g, cut)), None)
    # IL0 asks only for constant rows.  GRB asks x·y = ((x·y)·f(z))·(x·y),
    # and f(z) runs over every element as z does, so its law is (p·w)·p = p
    # for every product p.
    grb = all(rows[q][p] == p for p in products for q in rows[p])
    if constant_rows or grb:
        candidate = next(_isomorphisms(g, g, domain), None)
        found["IL0"] = candidate if constant_rows else None
        found["GRB"] = candidate if grb else None
    if satisfies_variety(g, "RB"):
        found["RB"] = found["B"]
    return found


def _require(condition: bool, message: str):
    if not condition:
        raise PreconditionViolated(message)


def check_twisted_semigroup(
    g: Groupoid, star: Groupoid, f: Mapping
) -> dict[str, bool]:
    """Conclusions that hold whenever ``g`` is the ``f``-twist of a semigroup.

    Preconditions (checked): ``star`` is associative, ``f`` is a
    self-inverse automorphism of ``star``, and ``g == twist(star, f)``.
    Returns per-conclusion booleans:

    - ``shifted_associativity``: (xy)z == f(x)(yz) in ``g`` for all triples;
    - ``right_bol``: ((xy)z)w == x((yz)w) in ``g``;
    - ``alpha_isomorphism`` / ``tables_equal``: whether ``f`` maps ``star``
      isomorphically onto ``g``, and whether the two tables coincide;
    - ``isomorphism_iff_equal``: the two previous answers agree (they are
      provably equivalent).
    """
    _require(star.is_associative(), "base table is not associative")
    _require(
        is_involution(f) and is_homomorphism(f, star, star),
        "mapping is not a self-inverse automorphism of the base table",
    )
    _require(twist(star, f) == g, "groupoid is not the twist of the base table")
    alpha_iso = is_homomorphism(f, star, g)
    tables_equal = star.rows == g.rows
    return {
        "shifted_associativity": shifted_associativity(g, f),
        "right_bol": is_right_bol(g),
        "alpha_isomorphism": alpha_iso,
        "tables_equal": tables_equal,
        "isomorphism_iff_equal": alpha_iso == tables_equal,
    }


#: Conclusion names of check_twisted_slg, in report order.
SLG_CONCLUSIONS = (
    "completely_inverse",
    "idempotent_semilattice_match",
    "efixed_involutive_automorphism",
    "canonical_map",
    "inverse_antihomomorphism",
    "shifted_associativity",
    "square_inverse_cancel",
    "inverse_commutes",
    "right_bol",
    "idempotent_left_shift",
    "idempotent_distributive",
    "product_inverse_factorization",
    "inverse_product_match",
)


def _slg_twist_problem(g: Groupoid, star: Groupoid, f: Mapping) -> str | None:
    """The first unmet hypothesis of :func:`check_twisted_slg`, or ``None``
    when ``g`` is the ``f``-twist of the semilattice of groups ``star`` by
    an idempotent-fixed self-inverse automorphism."""
    if not is_semilattice_of_groups(star):
        return "base table is not a semilattice of groups"
    if not (is_involution(f) and is_homomorphism(f, star, star)):
        return "mapping is not a self-inverse automorphism of the base table"
    if any(f[e] != e for e in star.idempotents()):
        return "mapping does not fix every idempotent of the base table"
    if twist(star, f) != g:
        return "groupoid is not the twist of the base table"
    return None


def check_twisted_slg(g: Groupoid, star: Groupoid, f: Mapping) -> dict[str, bool]:
    """The thirteen conclusions valid when ``g`` is the ``f``-twist of a
    semilattice of groups with ``f`` fixing every idempotent.

    Preconditions (checked): ``is_semilattice_of_groups(star)``, ``f`` is a
    self-inverse automorphism of ``star`` fixing its idempotents, and
    ``g == twist(star, f)``.  Each returned boolean states that the named
    law holds over all element tuples of ``g``; every one is provably true
    under the preconditions, so any ``False``, as for the laws that read an
    inverse table when ``g`` has none, is an implementation or theory alarm.
    """
    problem = _slg_twist_problem(g, star, f)
    if problem is not None:
        raise PreconditionViolated(problem)

    rows = g.rows
    n = g.order
    facts = _Facts(g)
    idem = sorted(facts.idempotents)
    inv = facts.inv

    report = dict.fromkeys(SLG_CONCLUSIONS, False)
    report["completely_inverse"] = facts.completely_inverse
    report["idempotent_semilattice_match"] = (
        facts.idempotents == star.idempotents() and facts.e_semilattice
    )
    report["efixed_involutive_automorphism"] = is_homomorphism(f, g, g) and all(
        f[e] == e for e in idem
    )
    if inv is not None:
        canonical = facts.canonical
        report["canonical_map"] = all(
            f[a] == rows[a][rows[inv[a]][a]] == canonical[a] for a in range(n)
        )
        report["inverse_antihomomorphism"] = facts.antihomomorphism(f)
        report["square_inverse_cancel"] = all(
            rows[rows[a][a]][inv[a]] == a for a in range(n)
        )
        report["inverse_commutes"] = all(inv[f[a]] == f[inv[a]] for a in range(n))
        report["product_inverse_factorization"] = all(
            rows[p][inv[p]] == rows[rows[a][inv[a]]][rows[b][inv[b]]] == rows[q][inv[q]]
            for a in range(n)
            for b in range(n)
            for p in (rows[a][b],)
            for q in (rows[inv[b]][inv[a]],)
        )
        star_inv = _Facts(star).inv
        report["inverse_product_match"] = star_inv is not None and all(
            rows[a][inv[a]] == star.rows[a][star_inv[a]] for a in range(n)
        )
    report["shifted_associativity"] = shifted_associativity(g, f)
    report["right_bol"] = facts.right_bol
    report["idempotent_left_shift"] = all(
        rows[e][a] == rows[f[a]][e] for e in idem for a in range(n)
    )
    report["idempotent_distributive"] = _idempotent_distributive(g)
    return report


def _idempotent_distributive(g: Groupoid) -> bool:
    """``e(ab) == (ea)(eb)`` for every idempotent e and all a, b.

    Over all b at once: row e read at row a is the row of ea read at row e.
    """
    rows = g.rows
    _, at, lookup = _compositions(rows)
    tables = [lookup(row) for row in rows]
    return all(
        at[a](tables[e]) == at[e](tables[rows[e][a]])
        for e in sorted(g.idempotents())
        for a in range(len(rows))
    )


#: Classes whose membership alone lets the witness map be promoted to an
#: isomorphism on associative inputs (no surjective-product hypothesis).
ISOMORPHISM_CLASSES = ("B", "L0", "R0", "RB", "IB", "IL0", "IR0", "IRB", "GL0")

#: The four generalized classes with a product-set descent law.
DESCENT_PAIRS = (("B", "IB", "GB"), ("L0", "IL0", "GL0"), ("R0", "IR0", "GR0"), ("RB", "IRB", "GRB"))

#: Law names of check_class_relations, in report order.
CLASS_RELATION_LAWS = tuple(
    f"{law}.{base}"
    for base, _inflation, _generalized in DESCENT_PAIRS
    for law in ("inclusion_chain", "square_descent")
) + tuple(
    f"{law}.{tag}"
    for tag in VARIETIES
    for law in ("semigroup_identity", "twist_isomorphism")
)

#: The report of a table in no derived class: every law vacuously true,
#: every isomorphism claim skipped.
_VACUOUS_RELATIONS = {
    law: None if law.startswith("twist_isomorphism.") else True
    for law in CLASS_RELATION_LAWS
}


def check_class_relations(g: Groupoid) -> dict[str, bool | None]:
    """Relational laws between the twelve derived classes on one table.

    Returns one verdict per name of :data:`CLASS_RELATION_LAWS`, in that
    order (``True`` = the law is not violated by ``g``; hypotheses that
    fail make a law vacuously true):

    - ``inclusion_chain.X``: membership for base class X implies
      membership for its inflation class, which implies membership for its
      generalized class;
    - ``square_descent.X``: membership for the generalized class of X
      implies the product-set subtable belongs to the derived class of X;
    - ``semigroup_identity.X``: an associative member of the derived
      class of X satisfies the X identity itself;
    - ``twist_isomorphism.X``: on an associative member with surjective
      product set (or for the nine classes where that hypothesis is not
      needed), the witness map is an isomorphism from the untwisted table
      onto ``g``; ``None`` = hypotheses not met, claim skipped.

    The report starts as a copy of the all-vacuous one, which is returned
    at once when no class has a witness.  The product subtable is built
    and profiled only when some generalized class has a witness, since
    only then does a descent law read it; when the product set is the
    whole carrier it is ``g`` itself and its profile is reused.
    """
    report = dict(_VACUOUS_RELATIONS)
    membership = ad_membership_profile(g)
    member = {tag: witness is not None for tag, witness in membership.items()}
    if not any(member.values()):
        return report
    surjective = len(g.products()) == g.order
    # Read only for a generalized class with a witness.
    square_membership = membership
    if not surjective and any(member[gen] for *_, gen in DESCENT_PAIRS):
        square_membership = ad_membership_profile(square_subgroupoid(g)[0])
    for base, inflation, generalized in DESCENT_PAIRS:
        report[f"inclusion_chain.{base}"] = (
            member[inflation] or not member[base]
        ) and (member[generalized] or not member[inflation])
        report[f"square_descent.{base}"] = (
            not member[generalized] or square_membership[base] is not None
        )
    if g.is_associative():
        for tag, witness in membership.items():
            if witness is None:
                continue
            report[f"semigroup_identity.{tag}"] = satisfies_variety(g, tag)
            if surjective or tag in ISOMORPHISM_CLASSES:
                star = untwist(g, witness)
                report[f"twist_isomorphism.{tag}"] = is_homomorphism(witness, star, g)
    return report


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one decision criterion.

    A verdict is immutable, so a criterion that finds no map returns the
    one shared verdict for its failure tuple (:func:`_verdict`) instead of
    a new one per call: most decided tables fail every criterion, and
    there are at most 16 such tuples, 4 for each search criterion and 8
    for ``right_bol_canonical``.  A verdict that carries a map is made per
    call.
    """

    passed: bool
    alpha: Mapping | None
    failed_conditions: tuple[str, ...]


#: The verdicts without a map, by failure tuple, made on first use.
_MAPLESS: dict[tuple[str, ...], CriterionVerdict] = {}


def _verdict(alpha: Mapping | None, failed: tuple[str, ...]) -> CriterionVerdict:
    """The verdict of a criterion that found ``alpha`` and failed the
    conditions ``failed``; shared when there is no map, which never passes."""
    if alpha is not None:
        return CriterionVerdict(not failed, alpha, failed)
    verdict = _MAPLESS.get(failed)
    if verdict is None:
        verdict = _MAPLESS[failed] = CriterionVerdict(False, None, failed)
    return verdict


def _report_json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, the same bytes.

    Every report (decision, check and sweep) is written here.  The
    standard encoder steps through each element in Python when ``indent``
    is set; a list or tuple of plain ints, such as a row of a witness
    table, is written in one join instead, and keys and other leaves by
    :func:`_json_leaf`.  Dict keys must be ``str``.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = (
            f"{encode_basestring_ascii(key)}: {_report_json(value[key], inner)}"
            for key in sorted(value)
        )
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {int}:  # not bools: str(True) is not JSON
            items = _decimals(value)
        else:
            items = (_report_json(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return _json_leaf(value)


def _json_leaf(value) -> str:
    """``json.dumps(value, sort_keys=True)``, the same bytes; a ``str``,
    ``None``, ``bool`` or ``int`` is written without the encoder."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return str(value)
    return json.dumps(value, sort_keys=True)


@dataclass(frozen=True)
class Witness:
    """A verified decomposition: ``twist(star, alpha)`` equals the input."""

    star: Groupoid
    alpha: Mapping
    criterion: str


@dataclass(frozen=True)
class DecisionReport:
    """Joint outcome of the three equivalent decision criteria."""

    determined: bool
    criteria: dict[str, CriterionVerdict]
    witness: Witness | None

    def to_dict(self) -> dict:
        return {
            "schema": "decision_report@1",
            "determined": self.determined,
            "criteria": {
                name: {
                    "passed": verdict.passed,
                    "alpha": list(verdict.alpha) if verdict.alpha else None,
                    "failed_conditions": list(verdict.failed_conditions),
                }
                for name, verdict in self.criteria.items()
            },
            "witness": None
            if self.witness is None
            else {
                "criterion": self.witness.criterion,
                "alpha": list(self.witness.alpha),
                "star": [list(row) for row in self.witness.star.rows],
            },
        }

    def to_json(self) -> str:
        return _report_json(self.to_dict()) + "\n"


def _criterion_completely_inverse(facts: _Facts) -> CriterionVerdict:
    g = facts.g
    # The shift candidates are the involutive automorphisms f with
    # f[x] in domain[x] for every x (the shifted triple law).
    domain = facts.shift_images
    alpha = None
    shift_seen = False
    if domain is not None:
        e_semilattice = facts.e_semilattice
        inv = facts.inv
        # The search is lazy, so it stops at the first map that passes.
        # Without an inverse table the antihomomorphism law fails for every
        # f, so the first map settles the verdict either way.
        for f in _isomorphisms(g, g, domain):
            shift_seen = True
            if e_semilattice or (inv is not None and facts.antihomomorphism(f)):
                alpha = f
                break
            if inv is None:
                break
    failed = () if facts.completely_inverse else ("completely_inverse",)
    if alpha is None:
        failed += (
            ("idempotent_semilattice_or_inverse_antihomomorphism",)
            if shift_seen
            else ("shifted_associativity",)
        )
    return _verdict(alpha, failed)


def _criterion_strongly_regular(facts: _Facts) -> CriterionVerdict:
    g = facts.g
    failed = () if facts.strongly_regular else ("strongly_regular",)
    if not facts.e_semilattice:
        failed += ("idempotent_semilattice",)
    alpha = None
    domain = facts.shift_images
    if domain is not None:
        domain = _restricted(domain, lambda x, a: x not in facts.idempotents or a == x)
        alpha = next(_isomorphisms(g, g, domain), None)
    if alpha is None:
        failed += ("shifted_associativity",)
    return _verdict(alpha, failed)


def _criterion_right_bol(facts: _Facts) -> CriterionVerdict:
    g = facts.g
    failed = () if facts.completely_inverse else ("completely_inverse",)
    if not facts.right_bol:
        failed += ("right_bol",)
    alpha = None
    if facts.inv is None:
        failed += ("canonical_map_undefined",)
    else:
        candidate = facts.canonical
        if is_involution(candidate) and is_homomorphism(candidate, g, g):
            alpha = candidate
            if not (facts.e_semilattice or facts.antihomomorphism(candidate)):
                failed += ("idempotent_semilattice_or_inverse_antihomomorphism",)
        else:
            failed += ("canonical_involutive_automorphism",)
    return _verdict(alpha, failed)


def decide(g: Groupoid) -> DecisionReport:
    """Decide whether ``g`` is the twist of a semilattice of groups by an
    idempotent-fixed self-inverse automorphism.

    Three provably equivalent criteria are all evaluated:

    - ``completely_inverse_automorphism``: completely inverse, plus some
      self-inverse automorphism with the shifted triple law for which the
      idempotents form a semilattice or the inverse-antihomomorphism law
      holds;
    - ``strong_regularity``: strongly regular, idempotents form a
      semilattice, plus an idempotent-fixed self-inverse automorphism with
      the shifted triple law;
    - ``right_bol_canonical``: completely inverse and right-Bol, the
      canonical map a ↦ a(aa⁻¹) is a self-inverse automorphism, and the
      semilattice-or-antihomomorphism disjunct holds for it.

    On success the report carries a verified witness: the untwisted table
    (a semilattice of groups), the mapping, and the criterion that supplied
    it.  Any disagreement between criteria, or a witness that fails
    verification, raises :class:`TheoremViolation` — that is an alarm,
    never an expected outcome.

    The table's facts (inverse table, shift images, right-Bol, ...) are
    computed once per call and shared as inputs; each criterion still
    derives its own verdict from them.
    """
    facts = _Facts(g)
    source, regular, right_bol = CRITERIA
    first = _criterion_completely_inverse(facts)
    second = _criterion_strongly_regular(facts)
    third = _criterion_right_bol(facts)
    criteria = {source: first, regular: second, right_bol: third}
    determined = first.passed
    if not determined == second.passed == third.passed:
        verdicts = {name: v.passed for name, v in criteria.items()}
        raise TheoremViolation(
            f"decision criteria disagree: {verdicts} on table {g.rows!r}"
        )
    witness = None
    if determined:
        alpha = first.alpha
        star = untwist(g, alpha)
        if _slg_twist_problem(g, star, alpha) is not None:
            raise TheoremViolation(
                f"witness verification failed for table {g.rows!r} "
                f"with mapping {alpha!r}"
            )
        witness = Witness(star=star, alpha=alpha, criterion=source)
    return DecisionReport(determined=determined, criteria=criteria, witness=witness)
