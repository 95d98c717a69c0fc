"""Pair and filter lattices, closures, rebuilds, antimatroids."""

from itertools import combinations

import pytest

import quasiplanar as qp
from quasiplanar import enumeration


def test_weak_left_pairs_of_capped_diamond():
    # sorted by (sweep position of x, reverse position of y)
    assert qp.weak_left_pairs(qp.capped_diamond()) == (
        (1, 2), (1, 1), (2, 2), (3, 3), (4, 4),
    )


def test_weak_left_pairs_of_chain_are_diagonal():
    assert qp.weak_left_pairs(qp.chain(4)) == ((1, 1), (2, 2), (3, 3))


def test_filter_family_of_capped_diamond():
    fam = qp.enumerate_hco_filters(qp.capped_diamond())
    assert [sorted(f) for f in fam.filters] == [
        [4], [3, 4], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4],
    ]
    assert [sorted(f) for f in fam.left_chain] == [
        [1, 2, 3, 4], [1, 3, 4], [3, 4], [4],
    ]
    assert [sorted(f) for f in fam.right_chain] == [
        [1, 2, 3, 4], [2, 3, 4], [3, 4], [4],
    ]
    assert fam.left_steps == (2, 1, 3)
    assert fam.right_steps == (1, 2, 3)


def test_horizontal_convexity_excludes_gapped_upsets():
    # atoms 1 left of 2 left of 3: {1, 3} up-closed but skips the middle
    m3 = qp.three_atom_diamond()
    fam = qp.enumerate_hco_filters(m3)
    assert frozenset({1, 3, 4}) not in fam.filters
    assert frozenset({1, 2, 4}) in fam.filters
    assert len(fam.filters) == 7


def test_filters_and_pairs_are_equinumerous_on_fixtures():
    for d in (qp.capped_diamond(), qp.three_atom_diamond(), qp.pentagon(),
              qp.hexagon(), qp.chain(6)):
        assert len(qp.enumerate_hco_filters(d).filters) == len(
            qp.weak_left_pairs(d)
        )


def test_hco_closure_on_capped_diamond():
    d = qp.capped_diamond()
    assert qp.hco_closure(d, (1, 2)) == frozenset({1, 2, 3, 4})
    assert qp.hco_closure(d, (1,)) == frozenset({1, 3, 4})
    assert qp.hco_closure(d, (4,)) == frozenset({4})
    assert qp.hco_closure(d, ()) == frozenset({4})
    assert qp.hco_closure(d, (2,)) == frozenset({2, 3, 4})


def test_hco_closure_rejects_ground_violations():
    d = qp.capped_diamond()
    with pytest.raises(qp.InvalidGroundElement):
        qp.hco_closure(d, (0,))
    with pytest.raises(qp.InvalidGroundElement):
        qp.hco_closure(d, (9,))
    # no coercion: a float or a string is no element, even one that int() takes
    for bad in ((1.9,), ("1",)):
        with pytest.raises(qp.InvalidGroundElement):
            qp.hco_closure(d, bad)
    with pytest.raises(qp.InvalidGroundElement):
        qp.min_between(d, 1.0, 2)
    # an integer too long to print, or even to convert to text, by its size
    for huge in (10**4000, -10**5000):
        for call in (lambda: qp.hco_closure(d, (huge,)),
                     lambda: qp.min_between(d, huge, 2)):
            with pytest.raises(qp.InvalidGroundElement) as exc:
                call()
            assert len(str(exc.value)) < 200


def test_min_between():
    assert qp.min_between(qp.capped_diamond(), 1, 2) == (1, 2)
    assert qp.min_between(qp.capped_diamond(), 3, 3) == (3,)
    m3 = qp.three_atom_diamond()
    assert qp.min_between(m3, 1, 3) == (1, 2, 3)
    with pytest.raises(ValueError, match="weak left pair"):
        qp.min_between(m3, 3, 1)
    with pytest.raises(qp.InvalidGroundElement):
        qp.min_between(m3, 0, 1)


def test_pair_lattice_of_capped_diamond():
    d, labels = qp.lattice_from_pairs_labeled(qp.capped_diamond())
    assert labels == qp.weak_left_pairs(qp.capped_diamond())
    assert qp.similar(d, qp.capped_diamond())


def test_filter_lattice_of_capped_diamond():
    d, labels = qp.lattice_from_filters_labeled(qp.capped_diamond())
    assert [sorted(f) for f in labels] == [
        [4], [3, 4], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4],
    ]
    assert d.bottom == 4 and d.top == 0
    assert d.left(2, 3) and not d.left(3, 2)
    assert qp.similar(d, qp.capped_diamond())


def test_filter_lattice_of_chains_and_degenerate_sizes():
    assert qp.similar(qp.lattice_from_filters(qp.chain(4)), qp.chain(3))
    one = qp.lattice_from_filters(qp.chain(2))
    assert one.n == 1
    assert qp.to_quasiplanar(one) == qp.chain(2)


def test_transforms_reject_one_element_input():
    one = qp.validate(1, [])
    with pytest.raises(ValueError):
        qp.weak_left_pairs(one)
    with pytest.raises(ValueError):
        qp.enumerate_hco_filters(one)
    for transform_of in (
        lambda d: qp.hco_closure(d, ()),
        qp.meet_irreducible_filters,
        qp.antimatroid_of,
        qp.pair_filter_maps,
    ):
        with pytest.raises(ValueError, match="distinct bottom and top"):
            transform_of(one)


def test_pair_filter_maps_on_capped_diamond():
    to_filter, to_pair = qp.pair_filter_maps(qp.capped_diamond())
    assert to_filter[(1, 2)] == frozenset({1, 2, 3, 4})
    assert to_filter[(1, 1)] == frozenset({1, 3, 4})
    assert to_pair[frozenset({3, 4})] == (3, 3)
    assert to_pair[frozenset({1, 2, 3, 4})] == (1, 2)


def test_to_quasiplanar_on_fixtures():
    assert qp.to_quasiplanar(qp.chain(2)) == qp.chain(3)
    assert qp.similar(qp.to_quasiplanar(qp.chain(3)), qp.chain(4))
    assert qp.similar(qp.to_quasiplanar(qp.diamond()), qp.diamond())
    assert qp.similar(qp.to_quasiplanar(qp.capped_diamond()), qp.capped_diamond())


def test_to_quasiplanar_requires_slim_semimodular():
    for bad in (qp.pentagon(), qp.three_atom_diamond(), qp.hexagon()):
        with pytest.raises(qp.NotSlimSemimodular):
            qp.to_quasiplanar(bad)


def test_round_trip_through_both_lattices():
    for d in (qp.capped_diamond(), qp.pentagon(), qp.three_atom_diamond(),
              qp.hexagon()):
        assert qp.similar(qp.to_quasiplanar(qp.lattice_from_filters(d)), d)
        assert qp.similar(qp.to_quasiplanar(qp.lattice_from_pairs(d)), d)


def test_antimatroid_of_capped_diamond():
    am = qp.antimatroid_of(qp.capped_diamond())
    assert am.ground == frozenset({1, 2, 3})
    assert sorted(sorted(s) for s in am.feasible) == [
        [], [1], [1, 2], [1, 2, 3], [2],
    ]


def test_antimatroid_of_every_size_five_diagram():
    for q in qp.enumerate_quasiplanar(5):
        am = qp.antimatroid_of(q)
        assert frozenset() in am.feasible
        assert am.ground == frozenset(q.interior())


def test_meet_irreducible_filters_of_capped_diamond():
    principal = qp.meet_irreducible_filters(qp.capped_diamond())
    assert principal == {
        1: frozenset({1, 3, 4}),
        2: frozenset({2, 3, 4}),
        3: frozenset({3, 4}),
    }


def _forged_family(real):
    # the second filter replaced by the first, so one filter is listed twice
    def forged(q):
        fam = real(q)
        return qp.FilterFamily(fam.filters[:1] * 2 + fam.filters[2:], *(
            getattr(fam, k)
            for k in ("left_chain", "right_chain", "left_steps", "right_steps")
        ))
    return forged


def _forged_maps(real, change):
    def forged(q):
        return change(q, *real(q))
    return forged


def _twice_listed(q, to_filter, to_pair):
    # the pair of the second filter now maps to the first one too
    first, second = sorted(to_filter.values(), key=lambda f: (len(f), sorted(f)))[:2]
    moved = {p: first if f == second else f for p, f in to_filter.items()}
    return moved, to_pair


def _swap_incomparable(q, to_filter, to_pair):
    # exchange the filters of two incomparable pairs in both maps
    for p, r in combinations(to_filter, 2):
        fp, fr = to_filter[p], to_filter[r]
        if not (fp <= fr or fr <= fp):
            return {**to_filter, p: fr, r: fp}, {**to_pair, fp: r, fr: p}
    return to_filter, to_pair


def _forged_antimatroid(real, change):
    def forged(q):
        am = real(q)
        return qp.Antimatroid(am.ground, change(q, am))
    return forged


SELF_CHECK_FORGERIES = (
    ("pair and filter maps are reciprocal",
     "pair closures do not exhaust the filters",
     {"pair_filter_maps": lambda real: _forged_maps(real, _twice_listed)}),
    ("pair and filter maps are reciprocal",
     "round trip moved a filter",
     {"pair_filter_maps": lambda real: _forged_maps(
         real, lambda q, f, to_pair: (
             f, {g: (q.top, q.top) for g in to_pair}))}),
    # the family lists the same filter twice, so the filters are exhausted
    ("pair and filter maps are reciprocal",
     "round trip moved the pair",
     {"pair_filter_maps": lambda real: _forged_maps(real, _twice_listed),
      "enumerate_hco_filters": _forged_family}),
    ("pair and filter maps are reciprocal",
     "pair order and filter order disagree",
     {"pair_filter_maps": lambda real: _forged_maps(real, _swap_incomparable)}),
    # the complement of the ground filter is the empty set
    ("filter complements form an antimatroid",
     "empty set must be feasible",
     {"antimatroid_of": lambda real: _forged_antimatroid(
         real, lambda q, am: am.feasible - {frozenset()})}),
    ("filter complements form an antimatroid",
     "feasible sets must cover the ground set",
     {"antimatroid_of": lambda real: _forged_antimatroid(
         real, lambda q, am: am.feasible | {frozenset({q.bottom})})}),
    ("filter complements form an antimatroid",
     "escapes",
     {"antimatroid_of": lambda real: _forged_antimatroid(
         real, lambda q, am: am.feasible | {frozenset(q.interior()[-1:])})}),
    ("filter complements form an antimatroid",
     "has no removable element",
     {"antimatroid_of": lambda real: _forged_antimatroid(
         real, lambda q, am: frozenset({frozenset(), am.ground}))}),
    ("meet irreducibles carry principal filters",
     "meet-irreducible filters are not the principal interior filters",
     {"meet_irreducible_filters": lambda real: lambda q: {
         x: frozenset({q.top}) for x in q.interior()}}),
    ("meet irreducibles carry principal filters",
     "does not transport",
     {"lattice_from_filters_labeled": lambda real: lambda q: (
         qp.mirror(real(q)[0]), real(q)[1])}),
)


def test_self_checks_raise_law_violations(monkeypatch):
    # the constructions only construct; each law of the suite fails a
    # forged construction with the message of its check
    for law, message, forgeries in SELF_CHECK_FORGERIES:
        with monkeypatch.context() as m:
            for name, forge in forgeries.items():
                m.setattr(enumeration, name, forge(getattr(enumeration, name)))
            report = qp.verify_suite(5)
        witness = {r.name: r for r in report.results}[law].witness
        assert message in witness, (law, message, witness)
    assert issubclass(qp.LawViolation, ValueError)
