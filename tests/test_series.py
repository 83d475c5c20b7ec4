"""Chief series, composition factors, and the solvability predicate family."""

import pytest
from hypothesis import HealthCheck, given, settings

from csection import groups, series as series_module
from csection.gf import _is_prime
from csection.groups import CapExceededError
from csection.lattice import normal_subgroups
from csection.sections import check_conclusion
from csection.series import (chief_series, composition_factors, is_nilpotent, is_simple,
                             is_supersolvable)
from csection.tables import TableGroup

from gtools import (as_subgroup, elements_of, every_chief_series_orders, named, product, quaternion,
                    small_groups, sympy_group)
from oracles import NaiveTable, is_nilpotent_lower_central, is_supersolvable_naive


def test_chief_series_of_s4():
    G = named("Sym", 4)
    series = chief_series(G)
    assert [t.order for t in series.terms] == [24, 12, 4, 1]
    assert series.factor_orders() == [2, 3, 4]
    table = NaiveTable(elements_of(G))
    assert all(table.is_normal({table.index[t] for t in elements_of(as_subgroup(G, term))})
               for term in series.terms)
    assert [f.abelian for f in series.factors] == [True, True, True]
    assert [f.prime_power for f in series.factors] == [(2, 1), (3, 1), (2, 2)]
    assert [f.is_prime_order for f in series.factors] == [True, True, False]


def test_chief_series_is_deterministic_without_rng():
    G = named("SL", 2, 3)
    s1 = chief_series(G)
    s2 = chief_series(G)
    assert ([set(elements_of(as_subgroup(G, t))) for t in s1.terms]
            == [set(elements_of(as_subgroup(G, t))) for t in s2.terms])


@pytest.mark.parametrize("make,orders", [
    (lambda: named("Cyclic", 12), [2, 2, 3]),
    (lambda: named("Alt", 5), [60]),
    (lambda: named("SL", 2, 3), [2, 3, 4]),
    (quaternion, [2, 2, 2]),
], ids=["C12", "A5", "SL2_3", "Q8"])
def test_chief_factor_order_multisets(make, orders):
    assert sorted(chief_series(make()).factor_orders()) == orders


def test_nonabelian_chief_factor_descriptor():
    series = chief_series(named("Alt", 5))
    (f,) = series.factors
    assert not f.abelian
    assert f.prime_power is None
    assert not f.is_prime_order


@pytest.mark.parametrize("make", [
    lambda: named("Sym", 4),
    lambda: named("SL", 2, 3),
    lambda: named("Dihedral", 6),
    lambda: product("Alt", [4], "Alt", [4]),
], ids=["S4", "SL2_3", "D12", "A4xA4"])
def test_chief_factor_multiset_invariant_under_reshuffling(make):
    """Every chief series, not only the one chief_series picks, has the same
    factor orders (Jordan-Hoelder)."""
    G = make()
    series = chief_series(G)
    assert every_chief_series_orders(G) == sorted(series.factor_orders())
    assert [t.order for t in series.terms][0] == G.order
    assert [t.order for t in series.terms][-1] == 1


def test_prime_power_factor_that_is_not_abelian_raises(monkeypatch):
    G = named("Dihedral", 4)
    whole = normal_subgroups(G)[-1]
    # a wrong covering relation that puts D8, of order 8, directly above 1
    monkeypatch.setattr(series_module, "_normal_covers",
                        lambda G: {frozenset([0]): [whole]})
    with pytest.raises(RuntimeError, match="not abelian"):
        chief_series(G)


def test_composition_factors():
    assert sorted(g.order for g in composition_factors(named("Sym", 4))) == [2, 2, 2, 3]

    a5_factors = composition_factors(named("Alt", 5))
    assert [g.order for g in a5_factors] == [60]
    assert str(a5_factors[0]) == "A5"

    G = product("Cyclic", [2], "PSL2", [7])
    factors = composition_factors(G)
    assert sorted(g.order for g in factors) == [2, 168]
    big = max(factors, key=lambda g: g.order)
    assert str(big) == "L2(7)"

    assert sorted(g.order for g in composition_factors(product("Alt", [4], "Alt", [4]))) \
        == [2, 2, 2, 2, 3, 3]

    # the chief factor A5 x A5 gives two copies of its socle factor A5
    factors = composition_factors(product("Alt", [5], "Alt", [5]))
    assert [str(g) for g in factors] == ["A5", "A5"]


@pytest.mark.parametrize("make", [
    lambda: named("Sym", 4),
    lambda: named("SL", 2, 3),
    lambda: product("Alt", [4], "Alt", [4]),
], ids=["S4", "SL2_3", "A4xA4"])
def test_is_supersolvable_builds_no_group_once_normals_are_known(make, monkeypatch):
    G = make()
    normal_subgroups(G)
    built = []
    init, coset_action = groups.PermGroup.__init__, series_module.coset_action

    def counting_init(self, *args, **kwargs):
        built.append("PermGroup")
        init(self, *args, **kwargs)

    def counting_coset_action(*args, **kwargs):
        built.append("coset_action")
        return coset_action(*args, **kwargs)

    monkeypatch.setattr(groups.PermGroup, "__init__", counting_init)
    monkeypatch.setattr(series_module, "coset_action", counting_coset_action)
    assert is_supersolvable(G) is False
    assert built == []


def test_composition_factors_build_only_the_nonabelian_factor(monkeypatch):
    # the chief series is 1 < C2 < G, so the factor A5 is G/C2, a coset action
    G = product("Cyclic", [2], "Alt", [5])
    coset_action = series_module.coset_action
    built = []

    def counting(*args):
        image = coset_action(*args)
        built.append(image.order)
        return image

    monkeypatch.setattr(series_module, "coset_action", counting)
    assert sorted(f.order for f in chief_series(G).factors) == [2, 60]
    assert sorted(g.order for g in composition_factors(G)) == [2, 60]
    assert built == [60]


def test_conclusion_builds_no_cyclic_group(monkeypatch):
    """An abelian chief factor of order p^k gives k factors C_p by its order
    alone: no group of prime order is built, as a permutation group or a
    table group."""
    expected = {}
    for make in (lambda: named("Sym", 4), lambda: product("Cyclic", [2], "Alt", [5])):
        factors = composition_factors(make())
        expected[make().order] = ([str(f) for f in factors], [f.order for f in factors])
    assert expected == {24: (["C2", "C3", "C2", "C2"], [2, 3, 2, 2]),
                        120: (["A5", "C2"], [60, 2])}
    subjects = [named("Sym", 4), product("Cyclic", [2], "Alt", [5])]
    built = []
    for cls in (groups.PermGroup, TableGroup):
        def recording(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append(self.order)
        monkeypatch.setattr(cls, "__init__", recording)
    for G in subjects:
        evidence = check_conclusion(G).evidence
        assert (evidence["factor_ids"], evidence["factor_orders"]) == expected[G.order]
    assert not [n for n in built if _is_prime(n)]


SUPERSOLVABLE_CASES = [
    (lambda: named("Cyclic", 12), True),
    (lambda: named("Dihedral", 4), True),
    (quaternion, True),
    (lambda: named("Dihedral", 6), True),
    (lambda: named("Sym", 3), True),
    (lambda: product("Cyclic", [3], "Dihedral", [5]), True),
    (lambda: named("Sym", 4), False),
    (lambda: named("Alt", 4), False),
    (lambda: named("Alt", 5), False),
    (lambda: named("SL", 2, 3), False),
]


@pytest.mark.parametrize("make,expected", SUPERSOLVABLE_CASES,
                         ids=["C12", "D8", "Q8", "D12", "S3", "C3xD10",
                              "S4", "A4", "A5", "SL2_3"])
def test_supersolvable_against_naive_chain_search(make, expected):
    G = make()
    assert is_supersolvable(G) is expected
    assert is_supersolvable_naive(NaiveTable(elements_of(G))) is expected


@pytest.mark.parametrize("make,expected", [
    (lambda: named("Cyclic", 12), True),
    (lambda: named("Dihedral", 4), True),
    (quaternion, True),
    (lambda: named("ElemAbelian", 2, 3), True),
    (lambda: named("Sym", 3), False),
    (lambda: named("Dihedral", 6), False),
    (lambda: named("Sym", 4), False),
    (lambda: named("Alt", 5), False),
], ids=["C12", "D8", "Q8", "E8", "S3", "D12", "S4", "A5"])
def test_is_nilpotent(make, expected):
    assert is_nilpotent(make()) is expected


def test_is_simple():
    assert is_simple(named("Alt", 5))
    assert is_simple(named("PSL2", 7))
    assert is_simple(named("Cyclic", 7))
    assert not is_simple(named("Alt", 4))
    assert not is_simple(named("Sym", 4))
    assert not is_simple(named("Cyclic", 12))
    assert not is_simple(named("Cyclic", 1))


def test_predicate_implications_across_battery(battery200):
    for label, G in battery200:
        ss = is_supersolvable(G)
        if is_nilpotent(G):
            assert ss, f"{label}: nilpotent groups are supersolvable"
        if ss:
            assert sympy_group(G).is_solvable, f"{label}: supersolvable groups are solvable"


def test_is_nilpotent_matches_lower_central_series_and_sympy(battery200):
    nilpotent = 0
    for label, G in battery200:
        want = is_nilpotent_lower_central(G)
        assert is_nilpotent(G) is want, label
        assert sympy_group(G).is_nilpotent is want, label
        nilpotent += want
    assert nilpotent == 27  # C1 included


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_groups())
def test_is_nilpotent_matches_lower_central_series_on_random_groups(G):
    want = is_nilpotent_lower_central(G)
    assert is_nilpotent(G) is want
    assert sympy_group(G).is_nilpotent is want


def test_table_predicates_refuse_groups_above_the_bound():
    S8 = named("Sym", 8)  # 40320 elements, above the element cap
    for predicate in (is_nilpotent, is_supersolvable, is_simple):
        with pytest.raises(CapExceededError):
            predicate(S8)


def _prime_multiset(n):
    out, p = [], 2
    while n > 1:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out


def _sympy_composition_orders(S):
    """Composition factor orders of a sympy group, from sympy alone.  sympy's
    `composition_series` needs a solvable group.  Otherwise the derived
    series ends at a perfect D; each abelian factor above D gives the primes
    of its order.  The check below needs D/Z(D) simple: every element outside
    the center has normal closure D, so any normal subgroup of D lies in Z(D)
    or is D.  That holds for every perfect group of order up to 500."""
    if S.is_solvable:
        series = S.composition_series()
        return [a.order() // b.order() for a, b in zip(series, series[1:])]
    derived = S.derived_series()
    out = [p for a, b in zip(derived, derived[1:]) for p in _prime_multiset(a.order() // b.order())]
    D = derived[-1]
    Z = D.center()
    assert all(D.normal_closure(next(iter(c))).order() == D.order()
               for c in D.conjugacy_classes() if not Z.contains(next(iter(c))))
    return out + _sympy_composition_orders(Z) + [D.order() // Z.order()]


def test_chief_factors_match_sympy_composition_series(battery500):
    """An abelian chief factor of order p^k gives k composition factors of
    order p.  Below order 500 a nonabelian chief factor T^t has t = 1, since
    |T|^2 >= 3600, so it is one composition factor."""
    nonabelian = 0
    for label, G in battery500:
        orders = []
        for f in chief_series(G).factors:
            if f.abelian:
                p, k = f.prime_power
                orders += [p] * k
            else:
                orders.append(f.order)
                nonabelian += 1
        want = sorted(_sympy_composition_orders(sympy_group(G)))
        assert sorted(orders) == want, label
        assert sorted(s.order for s in composition_factors(G)) == want, label
    assert nonabelian == 15  # one nonabelian chief factor in each nonsolvable group
