"""Spec parsing diagnostics, named constructors, and the built-in battery."""

import json

import pytest

from csection import catalog
from csection.catalog import (BatteryEntry, GroupSpec, build_group, builtin_battery,
                              named_spec, parse_group_spec, product_spec,
                              spec_from_group)
from csection.groups import CapExceededError

from gtools import elements_of, quaternion


def test_parse_rejects_malformed_documents():
    with pytest.raises(ValueError, match="spec is not valid JSON"):
        parse_group_spec("{nope")
    with pytest.raises(ValueError, match="spec must be a JSON object"):
        parse_group_spec("[1, 2]")
    with pytest.raises(ValueError, match="unknown spec kind 'blah'"):
        parse_group_spec({"kind": "blah"})
    with pytest.raises(ValueError, match="unknown spec kind None"):
        parse_group_spec({})


def test_parse_rejects_malformed_perm_specs():
    with pytest.raises(ValueError, match="positive integer degree"):
        parse_group_spec({"kind": "perm", "degree": 0, "generators": []})
    with pytest.raises(ValueError, match="positive integer degree"):
        parse_group_spec({"kind": "perm", "degree": "four", "generators": []})
    with pytest.raises(ValueError, match="needs a list of generators"):
        parse_group_spec({"kind": "perm", "degree": 3, "generators": "abc"})
    with pytest.raises(ValueError, match="each generator must be a list of cycles"):
        parse_group_spec({"kind": "perm", "degree": 3, "generators": ["x"]})
    with pytest.raises(ValueError, match="nonempty list of integers"):
        parse_group_spec({"kind": "perm", "degree": 3, "generators": [[[]]]})
    with pytest.raises(ValueError, match="nonempty list of integers"):
        parse_group_spec({"kind": "perm", "degree": 3, "generators": [[["a", 2]]]})
    with pytest.raises(ValueError, match=r"out of range 1\.\.3"):
        parse_group_spec({"kind": "perm", "degree": 3, "generators": [[[1, 4]]]})
    with pytest.raises(ValueError, match=r"out of range 1\.\.3"):
        parse_group_spec({"kind": "perm", "degree": 3, "generators": [[[0, 1]]]})


def test_parse_rejects_malformed_named_specs():
    with pytest.raises(ValueError, match="unknown constructor name 'Foo'"):
        parse_group_spec({"kind": "named", "name": "Foo", "params": []})
    with pytest.raises(ValueError, match="needs a params list"):
        parse_group_spec({"kind": "named", "name": "Sym", "params": 3})
    with pytest.raises(ValueError, match="params must be integers"):
        parse_group_spec({"kind": "named", "name": "Sym", "params": ["x"]})
    with pytest.raises(ValueError, match="exactly two factors"):
        parse_group_spec({"kind": "named", "name": "DirectProduct",
                          "params": [{"name": "Sym", "params": [3]}]})
    bad_factors = [
        [{"name": "Sym", "params": [3]}, "oops"],
        [{"name": "Sym", "params": [3]},
         {"name": "DirectProduct", "params": []}],
        [{"name": "Sym", "params": [3]}, {"name": "Alt", "params": ["x"]}],
    ]
    for params in bad_factors:
        with pytest.raises(ValueError, match="flat named specs"):
            parse_group_spec({"kind": "named", "name": "DirectProduct", "params": params})


def test_parse_accepts_string_and_dict_equally():
    doc = {"kind": "perm", "degree": 4,
           "generators": [[[1, 2]], [[1, 2, 3, 4]]]}
    a = parse_group_spec(doc)
    b = parse_group_spec(json.dumps(doc))
    assert a == b
    assert build_group(a).order == 24

    named = {"kind": "named", "name": "Dihedral", "params": [6]}
    assert parse_group_spec(named) == parse_group_spec(json.dumps(named))


def test_named_builder_rejections():
    cases = [
        (("Sym", 0), "Sym needs n >= 1"),
        (("Alt", 0), "Alt needs n >= 1"),
        (("Cyclic", 0), "Cyclic needs n >= 1"),
        (("Dihedral", 2), "Dihedral needs m >= 3"),
        (("ElemAbelian", 4, 2), "ElemAbelian needs a prime p"),
        (("ElemAbelian", 3, 0), "ElemAbelian needs k >= 1"),
        (("SL", 4, 2), "SL supports dimensions 2 and 3"),
        (("Sym", 1, 2), r"Sym takes 1 parameter\(s\), got 2"),
    ]
    for params, message in cases:
        with pytest.raises(ValueError, match=message):
            build_group(named_spec(*params))


def test_build_caps():
    with pytest.raises(CapExceededError):
        build_group(named_spec("Sym", 6), max_order=500)
    with pytest.raises(CapExceededError):
        build_group(named_spec("Alt", 7), degree_cap=5)
    with pytest.raises(CapExceededError):
        build_group(parse_group_spec({"kind": "perm", "degree": 30,
                                      "generators": [[[1, 2]]]}), degree_cap=10)
    with pytest.raises(CapExceededError):
        build_group(product_spec("Sym", [4], "Sym", [4]), degree_cap=7)
    # at the bound is fine
    assert build_group(named_spec("Sym", 4), max_order=24, degree_cap=4).order == 24


CLOSED_FORM_CASES = (
    [("Sym", (n,)) for n in range(1, 8)] + [("Alt", (n,)) for n in range(1, 8)]
    + [("Cyclic", (n,)) for n in (1, 2, 12)] + [("Dihedral", (m,)) for m in (3, 4, 8)]
    + [("ElemAbelian", pk) for pk in ((2, 1), (2, 3), (3, 2))]
    + [("PSL2", (q,)) for q in (2, 3, 4, 7, 8, 9, 11, 16, 17)]
    + [("PGL2", (q,)) for q in (2, 3, 4, 7, 9, 11)]
    + [("SL", nq) for nq in ((2, 2), (2, 5), (2, 8), (2, 9), (3, 2), (3, 3), (3, 4))])


@pytest.mark.parametrize("name,params", CLOSED_FORM_CASES,
                         ids=[f"{n}{p}" for n, p in CLOSED_FORM_CASES])
def test_closed_form_size_matches_the_built_group(name, params):
    G = build_group(named_spec(name, *params))
    assert catalog._flat_size(name, params) == (G.degree, G.order)


def test_caps_refuse_a_named_group_before_it_is_built(monkeypatch):
    def unbuildable(*args):
        raise AssertionError("a group past its cap was built")

    for builder in ("_sym", "_cyclic", "_psl2"):
        monkeypatch.setattr(catalog, builder, unbuildable)
    with pytest.raises(CapExceededError, match="degree 100000 exceeds cap 5000"):
        build_group(named_spec("Cyclic", 100000), degree_cap=5000)
    with pytest.raises(CapExceededError, match="group order ~10\\^12673 exceeds cap 10000"):
        build_group(named_spec("Sym", 4000), max_order=10000, degree_cap=5000)
    with pytest.raises(CapExceededError, match="group order 495512988 exceeds cap 10000"):
        build_group(named_spec("PSL2", 997), max_order=10000)
    # a direct product adds the degrees and multiplies the orders
    with pytest.raises(CapExceededError, match="degree 11 exceeds cap 10"):
        build_group(product_spec("Sym", [8], "Cyclic", [3]), degree_cap=10)
    with pytest.raises(CapExceededError, match="group order 120960 exceeds cap 100000"):
        build_group(product_spec("Sym", [8], "Cyclic", [3]), max_order=100_000)
    # invalid parameters are left to the builder, which says why
    with pytest.raises(ValueError, match="Alt needs n >= 1"):
        build_group(named_spec("Alt", 0), max_order=10)


@pytest.mark.parametrize("params,order,degree", [
    (("PGL2", 7), 336, 8),
    (("Alt", 6), 360, 6),
    (("Sym", 6), 720, 6),
    (("SL", 2, 9), 720, 80),
    (("PSL2", 9), 360, 10),
    (("Dihedral", 16), 32, 16),
    (("ElemAbelian", 3, 3), 27, 9),
    (("Cyclic", 1), 1, 1),
    (("Sym", 1), 1, 1),
    (("Alt", 2), 1, 2),
])
def test_named_constructor_orders(params, order, degree):
    G = build_group(named_spec(*params))
    assert (G.order, G.degree) == (order, degree)


def test_direct_product_build():
    G = build_group(product_spec("Cyclic", [2], "Alt", [5]))
    assert G.degree == 2 + 5
    assert G.order == 120


def test_spec_round_trips():
    for make in (lambda: build_group(named_spec("Sym", 4)), quaternion):
        G = make()
        spec = spec_from_group(G)
        rebuilt = build_group(parse_group_spec(spec.canonical()))
        assert rebuilt.order == G.order
        assert set(elements_of(rebuilt)) == set(elements_of(G))

    for spec in (named_spec("Dihedral", 5),
                 product_spec("Cyclic", [3], "Sym", [4]),
                 spec_from_group(build_group(named_spec("Alt", 4)))):
        assert parse_group_spec(spec.canonical()) == spec
        assert parse_group_spec(spec.to_dict()) == spec
        assert " " not in spec.canonical()


def test_builtin_battery_contents():
    b500 = builtin_battery(500)
    b200 = builtin_battery(200)
    assert len(b500) == 71
    assert len(b200) == 66
    labels500 = [e.label for e in b500]
    assert len(set(labels500)) == len(labels500)
    assert set(e.label for e in b200) <= set(labels500)
    assert {e.label for e in b500} - {e.label for e in b200} == {
        "A6", "C2xPSL2(7)", "PGL2(7)", "PSL2(9)", "SL2(7)"}

    everything = builtin_battery(10 ** 9)
    assert len(everything) == 76
    assert {e.label for e in everything} - set(labels500) == {
        "S6", "PSL2(8)", "SL2(8)", "SL2(9)", "SylNorm_vec_SL3(4)"}

    by_label = {e.label: e for e in b500}
    for label, order in [("C1", 1), ("D32", 32), ("E7^2", 49), ("PSL2(9)", 360),
                         ("SylNorm_vec_SL2(9)", 72), ("SylNorm_proj_SL3(4)", 192)]:
        assert by_label[label].order == order

    for e in b500:
        assert isinstance(e, BatteryEntry)
        assert e.order <= 500
        assert build_group(e.spec).order == e.order
