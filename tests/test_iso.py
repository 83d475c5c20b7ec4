"""Isomorphism testing and identification, checked against a brute bijection
search on small orders and frozen labels on the scan battery."""

import pytest
from hypothesis import HealthCheck, given, settings

from csection import iso
from csection.iso import (GroupId, abelian_invariants, fingerprint, identify,
                          is_isomorphic, l2_parameters, reference_match)
from csection.lattice import maximal_subgroups
from csection.series import is_supersolvable
from csection.tables import ElementTable, element_table

from gtools import elements_of, named, product, quaternion, relabeled, sympy_group
from oracles import abelian_order_counts_match, brute_isomorphic

SMALL = [
    ("C2", lambda: named("Cyclic", 2)),
    ("C3", lambda: named("Cyclic", 3)),
    ("C4", lambda: named("Cyclic", 4)),
    ("V4", lambda: named("ElemAbelian", 2, 2)),
    ("C6", lambda: named("Cyclic", 6)),
    ("S3", lambda: named("Sym", 3)),
    ("C8", lambda: named("Cyclic", 8)),
    ("C2xC4", lambda: product("Cyclic", [2], "Cyclic", [4])),
    ("E8", lambda: named("ElemAbelian", 2, 3)),
    ("D8", lambda: named("Dihedral", 4)),
    ("Q8", quaternion),
    ("C12", lambda: named("Cyclic", 12)),
    ("D12", lambda: named("Dihedral", 6)),
    ("A4", lambda: named("Alt", 4)),
    ("C2xC6", lambda: product("Cyclic", [2], "Cyclic", [6])),
]


def test_small_orders_all_pairs_against_brute_search():
    built = [(label, make()) for label, make in SMALL]
    elems = {label: elements_of(G) for label, G in built}
    for i, (la, Ga) in enumerate(built):
        for lb, Gb in built[i:]:
            want = brute_isomorphic(elems[la], elems[lb])
            assert is_isomorphic(Ga, Gb) is want, f"{la} vs {lb}"
            assert is_isomorphic(Gb, Ga) is want, f"{lb} vs {la}"


EXCEPTIONAL = [
    ("PSL2", (4,), "Alt", (5,)),
    ("PSL2", (5,), "Alt", (5,)),
    ("PGL2", (4,), "Alt", (5,)),
    ("SL", (2, 4), "Alt", (5,)),
    ("PSL2", (9,), "Alt", (6,)),
    ("PSL2", (2,), "Sym", (3,)),
    ("SL", (2, 2), "Sym", (3,)),
    ("PGL2", (2,), "Sym", (3,)),
    ("PSL2", (3,), "Alt", (4,)),
    ("PGL2", (5,), "Sym", (5,)),
    ("PGL2", (3,), "Sym", (4,)),
]


@pytest.mark.parametrize("na,pa,nb,pb", EXCEPTIONAL,
                         ids=[f"{na}{pa}~{nb}{pb}" for na, pa, nb, pb in EXCEPTIONAL])
def test_exceptional_isomorphisms(na, pa, nb, pb):
    assert is_isomorphic(named(na, *pa), named(nb, *pb))


def test_non_isomorphic_same_order_pairs():
    assert not is_isomorphic(quaternion(), named("Dihedral", 4))
    pgl = named("PGL2", 7)
    sl = named("SL", 2, 7)
    split = product("Cyclic", [2], "PSL2", [7])
    assert not is_isomorphic(pgl, split)
    assert not is_isomorphic(pgl, sl)
    assert not is_isomorphic(sl, split)
    assert not is_isomorphic(named("Cyclic", 12), named("Dihedral", 6))
    assert not is_isomorphic(named("Alt", 4), named("Dihedral", 6))


def test_relabeled_copy_is_isomorphic():
    from gtools import from_cycles
    shifted = from_cycles(7, [[[3, 4]], [[3, 4, 5, 6]]])  # S4 on points 3..6
    assert shifted.order == 24
    assert is_isomorphic(named("Sym", 4), shifted)
    assert is_isomorphic(quaternion(), quaternion())  # two separate builds


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relabeled())
def test_identification_does_not_depend_on_labels(pair):
    """Relabeling the points and shuffling the generators leaves the
    identification, the fingerprint and the reference match unchanged."""
    G, H = pair
    assert identify(H) == identify(G)
    assert fingerprint(H) == fingerprint(G)
    match_g, match_h = reference_match(G), reference_match(H)
    assert (match_g is None) is (match_h is None)
    if match_g is not None:
        assert match_h[:3] == match_g[:3]


def test_identify_reads_the_reference_match(monkeypatch):
    """A match found while the lattice carries a reference's classes is
    memoized on the group; identify reads it and searches no isomorphism
    again.  A reference matches itself by the identity."""
    G = named("PSL2", 9)
    maximal_subgroups(G)
    match = G._cache["reference_match"]
    assert (match.kind, match.k) == ("alt", 6)
    searches = []
    backtrack = iso._backtrack_iso
    monkeypatch.setattr(iso, "_backtrack_iso", lambda *a: searches.append(a) or backtrack(*a))
    assert identify(G) == GroupId("alternating", (6,), 360)
    assert searches == []
    T = match.group
    assert reference_match(T).from_reference(element_table(T)) == list(range(360))
    assert reference_match(named("Dihedral", 6)) is None  # A4's order, another fingerprint


def test_abelian_invariants():
    assert abelian_invariants(named("Cyclic", 12)) == (12,)
    assert abelian_invariants(product("Cyclic", [2], "Cyclic", [6])) == (2, 6)
    assert abelian_invariants(named("ElemAbelian", 2, 3)) == (2, 2, 2)
    assert abelian_invariants(product("Cyclic", [2], "Cyclic", [4])) == (2, 4)
    assert abelian_invariants(named("Cyclic", 1)) == ()
    assert abelian_invariants(named("Cyclic", 30)) == (30,)
    with pytest.raises(ValueError, match="abelian"):
        abelian_invariants(named("Sym", 3))


def test_abelian_invariants_agree_with_order_counts():
    for make in (lambda: named("Cyclic", 12),
                 lambda: product("Cyclic", [2], "Cyclic", [6]),
                 lambda: product("Cyclic", [4], "Cyclic", [6]),
                 lambda: named("ElemAbelian", 3, 2)):
        G = make()
        dims = abelian_invariants(G)
        assert abelian_order_counts_match(elements_of(G), dims)
    # wrong shape must fail the count comparison
    assert not abelian_order_counts_match(elements_of(named("Cyclic", 4)), (2, 2))
    assert not abelian_order_counts_match(elements_of(named("ElemAbelian", 2, 2)), (4,))


# Frozen identification of every battery member (computed once, kept pinned).
BATTERY_IDS = {
    "C1": "1", "C2": "C2", "C3": "C3", "C4": "C4", "C5": "C5", "C6": "C6",
    "C7": "C7", "C8": "C8", "C9": "C9", "C10": "C10", "C11": "C11", "C12": "C12",
    "C16": "C16", "C20": "C20", "C24": "C24", "C30": "C30",
    "D6": "D6", "D8": "D8", "D10": "D10", "D12": "D12", "D14": "D14",
    "D16": "D16", "D18": "D18", "D20": "D20", "D22": "D22", "D24": "D24",
    "D32": "D32",
    "E2^2": "E2^2", "E2^3": "E2^3", "E2^4": "E2^4", "E3^2": "E3^2",
    "E3^3": "E3^3", "E5^2": "E5^2", "E7^2": "E7^2",
    "S3": "D6", "S4": "S4", "S5": "S5",
    "A4": "A4", "A5": "A5", "A6": "A6",
    "PSL2(2)": "D6", "PSL2(3)": "A4", "PSL2(4)": "A5", "PSL2(5)": "A5",
    "PSL2(7)": "L2(7)", "PSL2(9)": "A6",
    "PGL2(2)": "D6", "PGL2(3)": "S4", "PGL2(4)": "A5", "PGL2(5)": "S5",
    "PGL2(7)": "G(336)",
    "SL2(2)": "D6", "SL2(3)": "G(24)", "SL2(4)": "A5", "SL2(5)": "G(120)",
    "SL2(7)": "G(336)",
    "C2xA5": "G(120)", "C2xS4": "G(48)", "S3xS3": "G(36)", "A4xA4": "G(144)",
    "C3xD10": "G(30)", "C4xS4": "G(96)", "D8xD8": "G(64)",
    "C2xPSL2(7)": "G(336)",
    "SylNorm_vec_SL2(4)": "A4", "SylNorm_proj_SL2(4)": "A4",
    "SylNorm_vec_SL2(8)": "G(56)", "SylNorm_proj_SL2(8)": "G(56)",
    "SylNorm_vec_SL2(9)": "G(72)", "SylNorm_proj_SL2(9)": "G(36)",
    "SylNorm_proj_SL3(4)": "G(192)",
}


def test_identify_battery_against_frozen_labels(battery500):
    assert {label for label, _ in battery500} == set(BATTERY_IDS)
    for label, G in battery500:
        gid = identify(G)
        assert str(gid) == BATTERY_IDS[label], label
        assert gid.order == G.order


def test_identify_is_cached_per_instance():
    G = named("Sym", 4)
    assert identify(G) is identify(G)


def test_group_id_forms():
    q8 = identify(quaternion())
    assert (q8.kind, str(q8)) == ("opaque", "G(8)")

    ab = identify(product("Cyclic", [2], "Cyclic", [6]))
    assert (ab.kind, ab.params, str(ab)) == ("abelian", (2, 6), "Ab(C2xC6)")

    e9 = identify(named("ElemAbelian", 3, 2))
    assert (e9.kind, str(e9)) == ("elementary_abelian", "E3^2")

    d16 = identify(named("Dihedral", 8))
    assert (d16.kind, d16.params, str(d16)) == ("dihedral", (8,), "D16")

    assert identify(named("Alt", 5)) == identify(named("PSL2", 4))


def test_identify_simple_group_outside_catalog(psl2_16):
    assert psl2_16.order == 4080
    gid = identify(psl2_16)
    assert (gid.kind, str(gid)) == ("unknown_simple", "Simple(4080)")


def test_l2_parameters():
    assert l2_parameters(identify(named("Sym", 5))) == frozenset()
    assert l2_parameters(identify(named("Alt", 5))) == frozenset({4, 5})
    assert l2_parameters(identify(named("Alt", 6))) == frozenset({9})
    assert l2_parameters(identify(named("Sym", 3))) == frozenset({2})
    assert l2_parameters(identify(named("Alt", 4))) == frozenset({3})
    assert l2_parameters(identify(named("PSL2", 7))) == frozenset({7})
    assert l2_parameters(identify(named("PSL2", 13))) == frozenset({13})
    assert l2_parameters(GroupId("symmetric", (3,), 6)) == frozenset({2})
    assert l2_parameters(identify(quaternion())) == frozenset()


def test_fingerprint_invariance_and_separation():
    a = fingerprint(named("Sym", 4))
    b = fingerprint(named("PGL2", 3))
    assert a == b
    assert fingerprint(named("Dihedral", 4)) != fingerprint(quaternion())
    G = named("Sym", 4)
    assert fingerprint(G) is fingerprint(G)


def test_fingerprint_reads_the_derived_order_the_chain_path_finds(battery500):
    """sympy finds the derived subgroup on its own stabilizer chains."""
    for label, G in battery500:
        assert fingerprint(G)[4] == sympy_group(G).derived_subgroup().order(), label


@pytest.mark.parametrize("p", [2, 3, 101])
def test_prime_order_groups_are_answered_without_a_table(p, monkeypatch):
    G = named("Cyclic", p)
    built = []
    init = ElementTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ElementTable, "__init__", counting_init)
    assert identify(G) == GroupId("cyclic", (p,), p)
    assert is_supersolvable(G) is True
    assert abelian_invariants(G) == (p,)
    assert built == []
