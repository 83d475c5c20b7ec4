"""Sections cut out of maximal subgroups by chief factors, and the verdict
machinery built on them.

For a maximal subgroup M of G and a chief factor K/L with L inside M but K
not, the section is (M cap K)/L.  All such choices give isomorphic groups,
which verify_lemma1 certifies instead of assuming.  The remaining verifiers
package concrete statements (supersolvability of all sections, composition
factor membership, the alternating-group index facts, the Sylow normalizer
construction, and the projective example family) into pass/fail/inconclusive
reports whose pass verdicts always rest on complete enumerations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .gf import _is_prime, field_make, field_of_order
from .groups import CapExceededError, PermGroup, coset_action, normalizer
from .iso import GroupId, _reference, identify, is_isomorphic, l2_parameters
from .lattice import (SubgroupClass, _as_class, _conjugates, _normal_covers, all_subgroups,
                      certify_maximal, maximal_subgroups, minimal_normal_subgroups,
                      normal_subgroups, subgroups_of_index)
from .series import composition_factors, is_supersolvable
from .tables import MAX_ORDER, TableGroup, element_table


class NoChiefPairError(ValueError):
    """No chief factor K/L with L inside the maximal subgroup and K outside."""


class NotMaximalError(ValueError):
    pass


class NotAChiefPairError(ValueError):
    """A pair given to `sec` is not one of the maximal subgroup's chief pairs."""


@dataclass
class ChiefPair:
    """Adjacent normal pair (K, L) of G with L <= M and K not inside M, as
    records of `normal_subgroups`.  A caller may give K and L as subgroups
    on G's points (`PermGroup`s) to pick the pair `sec` uses; `sec` reads
    them into records."""

    K: SubgroupClass | PermGroup
    L: SubgroupClass | PermGroup


@dataclass
class CSection:
    """The section (M cap K)/L as a table group, read off G's table (the
    shared `TRIVIAL_QUOTIENT` when it is trivial)."""

    group: PermGroup | TableGroup
    source_pair: ChiefPair
    supersolvable: bool
    identified: GroupId

    @property
    def order(self) -> int:
        return self.group.order


_STATUS_RANK = {"pass": 0, "inconclusive": 1, "fail": 2}


@dataclass
class VerdictReport:
    subject: str
    check: str
    status: str                  # pass | fail | inconclusive
    evidence: dict
    completeness: bool

    def __post_init__(self):
        if self.status not in _STATUS_RANK:
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "pass" and not self.completeness:
            raise ValueError("pass verdicts require a complete enumeration")


def make_report(subject: str, check: str, ok: Optional[bool], complete: bool,
                evidence: dict) -> VerdictReport:
    """ok=False is definitive regardless of completeness; ok=True passes only
    when the supporting enumeration was complete."""
    if ok is False:
        status = "fail"
    elif ok is True and complete:
        status = "pass"
    else:
        status = "inconclusive"
    return VerdictReport(subject=subject, check=check, status=status,
                         evidence=evidence, completeness=complete)


def _subject(G: PermGroup) -> str:
    return f"group(order={G.order},degree={G.degree})"


# -- chief pairs and sections -------------------------------------------------

def chief_pairs_for_maximal(G: PermGroup, M: SubgroupClass | PermGroup) -> list[ChiefPair]:
    """All chief factors K/L of G with L <= M and K not inside M."""
    M = _as_class(G, M)
    if not M.certified_maximal:
        if not certify_maximal(G, M.indices, M.generator_indices, M.table):
            raise NotMaximalError(f"subgroup of order {M.order} is not maximal")
        M.certified_maximal = True
    m_set = M.indices
    covers = _normal_covers(G)
    # normal_subgroups and each cover list are in (order, indices) order, so
    # the pairs come out sorted by L, then K
    pairs = []
    for L in normal_subgroups(G):
        if L.indices <= m_set:
            pairs += [ChiefPair(K=K, L=L) for K in covers[L.indices] if not K.indices <= m_set]
    if not pairs:
        raise NoChiefPairError(
            f"no chief factor separates the maximal subgroup of order {M.order}")
    return pairs


def _section_group(G: PermGroup, m_set: frozenset[int],
                   pair: ChiefPair) -> PermGroup | TableGroup:
    """(M cap K)/L, read off G's table by `coset_action`.  M cap K contains L,
    so the section is trivial exactly when |M cap K| = |L|, a count: then no
    generators are extracted, and `coset_action` returns the shared trivial
    group `TRIVIAL_QUOTIENT` at once."""
    et = element_table(G)
    d_set = m_set & pair.K.indices
    d_gens = et.extract_generators(d_set) if len(d_set) > pair.L.order else []
    grp = coset_action(et, d_gens, pair.L.indices)
    if grp.order * pair.L.order != len(d_set):
        raise RuntimeError("section order disagrees with |M meet K| / |L|")
    return grp


def _match_pair(G: PermGroup, pairs: list[ChiefPair], pair: ChiefPair) -> ChiefPair:
    """The pair of `chief_pairs_for_maximal` with the given K and L, records
    of G's table or subgroups on G's points."""
    wanted = (_as_class(G, pair.K).indices, _as_class(G, pair.L).indices)
    for p in pairs:
        if (p.K.indices, p.L.indices) == wanted:
            return p
    raise NotAChiefPairError(
        f"(K, L) of orders ({pair.K.order}, {pair.L.order}) is not a chief pair "
        "separating the maximal subgroup")


def sec(G: PermGroup | TableGroup, M: SubgroupClass | PermGroup, *,
        pair: Optional[ChiefPair] = None, verify: bool = False) -> CSection:
    """The section of M, a maximal class of G or a caller's subgroup on G's
    points (a `PermGroup`, read into a record by `lattice._as_class`), from
    the first chief pair in canonical order.

    verify=True recomputes the section for every other pair and insists on
    pairwise isomorphism before returning.
    """
    M = _as_class(G, M)
    pairs = chief_pairs_for_maximal(G, M)
    chosen = pairs[0] if pair is None else _match_pair(G, pairs, pair)
    grp = _section_group(G, M.indices, chosen)
    if verify:
        for other in pairs:
            if other is chosen:
                continue
            alt = _section_group(G, M.indices, other)
            if not is_isomorphic(grp, alt):
                raise RuntimeError("sections from two chief pairs are not isomorphic")
    return CSection(group=grp, source_pair=chosen,
                    supersolvable=is_supersolvable(grp), identified=identify(grp))


# -- the lemma/theorem verifiers ----------------------------------------------

def verify_lemma1(G: PermGroup, *, subject: Optional[str] = None) -> VerdictReport:
    """Every maximal subgroup's sections agree across all chief pairs."""
    maximals = maximal_subgroups(G)
    rows = []
    agree_all = True
    for cls in maximals:
        pairs = chief_pairs_for_maximal(G, cls)
        groups = [_section_group(G, cls.indices, p) for p in pairs]
        agree = all(is_isomorphic(groups[0], h) for h in groups[1:])
        agree_all = agree_all and agree
        rows.append({"maximal_order": cls.order, "pair_count": len(pairs),
                     "section_orders": sorted(g.order for g in groups),
                     "agree": agree})
    complete = all(c.verified_complete for c in maximals) if maximals else True
    return make_report(subject or _subject(G), "lemma1", agree_all, complete,
                       {"maximal_classes": len(maximals), "rows": rows})


def check_hypothesis(G: PermGroup, *, subject: Optional[str] = None,
                     maximal_classes: Optional[Sequence[SubgroupClass]] = None) -> VerdictReport:
    """Sec(M) supersolvable for every maximal subgroup class of G."""
    if maximal_classes is None:
        maximal_classes = maximal_subgroups(G)
    complete = all(c.verified_complete for c in maximal_classes) if maximal_classes else True
    rows = []
    witnesses = []
    for cls in maximal_classes:
        s = sec(G, cls)
        rows.append({"maximal_order": cls.order, "section_order": s.order,
                     "section_id": str(s.identified), "supersolvable": s.supersolvable})
        if not s.supersolvable:
            witnesses.append({"maximal_order": cls.order, "section_id": str(s.identified)})
    ok: Optional[bool] = True if not witnesses else False
    return make_report(subject or _subject(G), "hypothesis", ok, complete,
                       {"maximal_classes": len(maximal_classes), "rows": rows,
                        "witnesses": witnesses})


_ALLOWED_L2_RESIDUES = {1, 7}


def _conclusion_factor_ok(gid: GroupId) -> Optional[bool]:
    """None marks a simple factor the program could not identify, below the
    cap (`unknown_simple`) or above it (`opaque`): inconclusive, never fail."""
    if gid.kind == "cyclic":
        return _is_prime(gid.params[0])
    qs = l2_parameters(gid)
    if any(_is_prime(q) and q % 8 in _ALLOWED_L2_RESIDUES for q in qs):
        return True
    if gid.kind in ("unknown_simple", "opaque"):
        return None
    return False


def check_conclusion(G: PermGroup, *, subject: Optional[str] = None) -> VerdictReport:
    """Every composition factor is cyclic of prime order, or a projective
    special linear group over a prime field with that prime +-1 mod 8."""
    ids = composition_factors(G)
    verdicts = [_conclusion_factor_ok(g) for g in ids]
    witnesses = [str(g) for g, v in zip(ids, verdicts) if v is False]
    if witnesses:
        ok: Optional[bool] = False
    elif any(v is None for v in verdicts):
        ok = None
    else:
        ok = True
    return make_report(subject or _subject(G), "conclusion", ok, True,
                       {"factor_ids": [str(g) for g in ids],
                        "factor_orders": [g.order for g in ids],
                        "witnesses": witnesses})


def verify_theorem_instance(G: PermGroup, *, subject: Optional[str] = None,
                            maximal_classes: Optional[Sequence[SubgroupClass]] = None) -> VerdictReport:
    """The implication: hypothesis (all sections supersolvable) implies the
    composition factor conclusion.  A definitive hypothesis failure passes
    vacuously."""
    sub = subject or _subject(G)
    hyp = check_hypothesis(G, subject=sub, maximal_classes=maximal_classes)
    conc = check_conclusion(G, subject=sub)
    evidence = {"hypothesis": {"status": hyp.status, **hyp.evidence},
                "conclusion": {"status": conc.status, **conc.evidence}}
    if hyp.status == "fail":
        evidence["vacuous"] = True
        return make_report(sub, "theorem", True, True, evidence)
    evidence["vacuous"] = False
    if conc.status == "pass":
        return make_report(sub, "theorem", True, True, evidence)
    if conc.status == "fail":
        if hyp.status == "pass":
            return make_report(sub, "theorem", False, True, evidence)
        return make_report(sub, "theorem", None, False, evidence)
    return make_report(sub, "theorem", None, False, evidence)


def verify_lemma2a(n: int, *, subject: Optional[str] = None) -> VerdictReport:
    """A_n has no subgroup of index strictly between 1 and n, except the
    documented index-3 subgroup of A_4."""
    if n not in (4, 5, 6):
        raise ValueError("supported degrees: 4, 5, 6")
    A = _reference("alt", n)
    rows = []
    ok = True
    for k in range(2, n):
        classes = subgroups_of_index(A, k)
        expected = 1 if (n == 4 and k == 3) else 0
        rows.append({"index": k, "class_count": len(classes),
                     "orders": [c.order for c in classes], "expected": expected})
        if len(classes) != expected:
            ok = False
    return make_report(subject or f"A{n}", "lemma2a", ok, True,
                       {"degree": n, "rows": rows,
                        "exception": "A4 has an index-3 subgroup" if n == 4 else None})


def verify_lemma3(n: int, *, subject: Optional[str] = None) -> VerdictReport:
    """Index-n subgroups of A_n form one conjugacy class, except two for n=6;
    representatives are point stabilizers up to isomorphism."""
    if n not in (5, 6, 7):
        raise ValueError("supported degrees: 5, 6, 7")
    A = _reference("alt", n)
    classes = subgroups_of_index(A, n)
    expected = 2 if n == 6 else 1
    iso_ok = all(is_isomorphic(c.group, _reference("alt", n - 1)) for c in classes)
    ok = len(classes) == expected and iso_ok
    return make_report(subject or f"A{n}", "lemma3", ok, True,
                       {"degree": n, "class_count": len(classes), "expected": expected,
                        "class_sizes": [c.class_size for c in classes],
                        "stabilizer_isomorphic": iso_ok})


_LEMMA4_ORDERS = {(2, 4): (12, 12), (2, 8): (56, 56), (2, 9): (72, 36), (3, 4): (576, 192)}


def verify_lemma4(n: int, q: int, *, trials: int = 100, seed: int = 0,
                  subject: Optional[str] = None) -> VerdictReport:
    """Sylow normalizers of the special linear group over a proper prime-power
    field, and their projective images, are not supersolvable; the bottom-row
    subgroup is a minimal normal subgroup of both."""
    if (n, q) not in _LEMMA4_ORDERS:
        raise ValueError("supported (dimension, field size): (2,4), (2,8), (2,9), (3,4)")
    if trials < 1:
        raise ValueError("lemma4 needs at least one randomized trial")
    from .matgroups import conjugation_check, triangular_instance

    fieldq = field_of_order(q)
    ti = triangular_instance(n, fieldq)
    conj = conjugation_check(n, fieldq, trials=trials, seed=seed)

    want_vec, want_proj = _LEMMA4_ORDERS[(n, q)]
    evidence: dict = {"trials": conj["trials"], "failures": conj["failures"],
                      "multiplier_census": conj["multiplier_census"],
                      "orders": {"vec": ti.vec_normalizer.order,
                                 "proj": ti.proj_normalizer.order},
                      "expected_orders": {"vec": want_vec, "proj": want_proj}}
    ok = conj["failures"] == 0
    ok = ok and ti.vec_normalizer.order == want_vec
    ok = ok and ti.proj_normalizer.order == want_proj

    sides = {}
    for side, norm, sylow, corner, ambient in (
            ("vec", ti.vec_normalizer, ti.vec_sylow, ti.vec_corner, ti.vec_group),
            ("proj", ti.proj_normalizer, ti.proj_sylow, ti.proj_corner, ti.proj_group)):
        c_set = _as_class(norm, corner).indices
        minimal = any(m.indices == c_set for m in minimal_normal_subgroups(norm))
        nonss = not is_supersolvable(norm)
        recomputed = normalizer(ambient, sylow)
        agrees = (recomputed.order == norm.order
                  and all(recomputed.contains(g) for g in norm.generators))
        sides[side] = {"minimal_normal": minimal, "non_supersolvable": nonss,
                       "normalizer_crosscheck": agrees, "corner_order": corner.order}
        ok = ok and minimal and nonss and agrees
    evidence["sides"] = sides
    return make_report(subject or f"SL({n},{q})", "lemma4", ok, True, evidence)


# -- the worked example family -------------------------------------------------

def verify_example(p: int = 7, *, subject: Optional[str] = None) -> VerdictReport:
    """The projective family check: G the full projective group over the prime
    field, K its simple index-2 subgroup.

    Five sub-checks: unique chief series G > K > 1; exactly two classes of
    Klein four subgroups in K with normalizer order 24; those classes fused
    into one inside G; all sections of maximal subgroups of G supersolvable;
    every maximal class of K isomorphic to S4, A5, or supersolvable.  Only K's
    subgroup lattice is built, on K's table group read off G's table (the
    `group` of K's record, memoized there): step 2 reads the Klein four
    classes off it; K is G's minimal normal subgroup, so G's maximal classes
    in step 4 come from it too (`lattice` module docstring), and so do K's
    own maximal classes in step 5, each read as a table group off K's table.
    p = 7 and p = 17 give complete verdicts; from p = 23 on,
    |G| = p(p^2 - 1) exceeds `MAX_ORDER`, the bound of the element table,
    and CapExceededError is raised before G is built.
    """
    if not _is_prime(p) or p % 8 not in (1, 7):
        raise ValueError("p must be a prime congruent to +-1 mod 8")
    order = p * (p * p - 1)
    if order > MAX_ORDER:
        raise CapExceededError(f"group order {order} exceeds element cap {MAX_ORDER}")
    from .matgroups import pgl_group, psl_order

    G = pgl_group(field_make(p))
    subs: list[dict] = []
    ok = True

    # 1: normal structure is exactly 1 < K < G
    normals = normal_subgroups(G)
    orders = [nn.order for nn in normals]
    chain_ok = (len(normals) == 3 and orders == sorted(orders)
                and orders[1] == psl_order(2, p) and orders[2] == G.order)
    K = normals[1] if len(normals) == 3 else None
    subs.append({"name": "unique_chief_series", "status": "pass" if chain_ok else "fail",
                 "normal_orders": orders})
    ok = ok and chain_ok
    if K is None:
        return make_report(subject or f"PGL2({p})", "example", False, True,
                           {"p": p, "sub_checks": subs})

    et = element_table(G)
    Kt = K.group
    ket = element_table(Kt)
    # 2: Klein four classes inside K: the order-4 classes of involutions
    kleins = [c for c in all_subgroups(Kt)
              if c.order == 4 and all(ket.element_order(i) <= 2 for i in c.indices)]
    klein_ok = len(kleins) == 2 and all(c.normalizer_order() == 24 for c in kleins)
    subs.append({"name": "klein_classes_in_K", "status": "pass" if klein_ok else "fail",
                 "class_count": len(kleins),
                 "normalizer_orders": [c.normalizer_order() for c in kleins]})
    ok = ok and klein_ok

    # 3: the two classes fuse under G: one G-orbit holds both representatives
    fused_ok = False
    if len(kleins) == 2:
        into_g = sorted(K.indices)  # K's index i is into_g[i] in G's
        first, second = (frozenset(into_g[i] for i in c.indices) for c in kleins)
        fused_ok = second in _conjugates(et, first)[0]
    subs.append({"name": "fusion_in_G", "status": "pass" if fused_ok else "fail"})
    ok = ok and fused_ok

    # 4: all sections of maximal subgroups of G supersolvable
    g_classes = maximal_subgroups(G)
    hyp = check_hypothesis(G, maximal_classes=g_classes)
    subs.append({"name": "sections_supersolvable", "status": hyp.status,
                 "maximal_orders": [c.order for c in g_classes],
                 "rows": hyp.evidence["rows"]})
    ok = ok and hyp.status != "fail"

    # 5: maximal subgroups of K are S4, A5, or supersolvable
    k_rows = []
    k_ok = True
    for cls in maximal_subgroups(Kt):
        M = cls.group
        gid = identify(M)
        ss = is_supersolvable(M)
        fits = gid in (GroupId("symmetric", (4,), 24), GroupId("alternating", (5,), 60)) or ss
        k_rows.append({"order": cls.order, "id": str(gid), "supersolvable": ss, "fits": fits})
        k_ok = k_ok and fits
    subs.append({"name": "maximals_of_K", "status": "pass" if k_ok else "fail", "rows": k_rows})
    ok = ok and k_ok

    return make_report(subject or f"PGL2({p})", "example", ok, True,
                       {"p": p, "sub_checks": subs})


def unique_class_check(G: PermGroup, H: SubgroupClass | PermGroup, *,
                       subject: Optional[str] = None) -> VerdictReport:
    """Are all subgroups of G isomorphic to H conjugate to H?  H is a record
    of G's table or a subgroup on G's points, read into a record by
    `lattice._as_class`, so an H outside G raises NotASubgroupError.

    When they are and every maximal subgroup of G has a supersolvable
    section, H itself is expected to be supersolvable; that cross-check
    rides along in the evidence and a violation fails the report.
    """
    H = _as_class(G, H)
    classes = all_subgroups(G)
    matching = [c for c in classes
                if c.order == H.order and is_isomorphic(c.group, H.group)]
    if not matching:
        raise RuntimeError("the lattice lost the input subgroup's class")
    unique = len(matching) == 1
    evidence: dict = {"iso_class_count": len(matching),
                      "class_sizes": [c.class_size for c in matching],
                      "subgroup_order": H.order}
    ok: Optional[bool] = unique
    if unique:
        hyp = check_hypothesis(G)
        evidence["hypothesis_status"] = hyp.status
        if hyp.status == "pass":
            ss = is_supersolvable(H.group)
            evidence["supersolvable_under_hypothesis"] = ss
            if not ss:
                ok = False
    return make_report(subject or _subject(G), "unique_class", ok, True, evidence)
