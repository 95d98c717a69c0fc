"""The fast constructions against their slow, definition-level versions.

A diagram is built from its two sweep positions; every construction that
used to assemble order and left masks by hand now computes positions
instead, and a diagram derives its own masks and covers on first read.
The mask-building versions live on here as oracles, next to the eager
derivation of every field of a diagram, a subset scan for the filter
family, the intersection of the filters as the closure, a minimal-bounds
search for the lattice tables, ``serialize``, which formats every pair
of every document, for the block writer that shares a block's pair
texts, the triple scan for slimness, the m² loop
for semimodularity and the table verdict for the certificate of
``to_quasiplanar``, meet representations over every meet-irreducible, the
all-pairs ``validate`` that read the order twice, the pair-list loops
that checked each component in turn and then each entry (before one
comprehension read the list), the backtracking solver that
oriented a bare order before implication classes did, and the
``diagram_from_chains`` that oriented the order and built its tables
before drawing from the support heights, the mask scans that found
the extremes of the peelings, pair keys, boundary walks, supports and
narrows before they were read off the sweeps, the sort by (size,
elements) that put the filters in label order before their masks did, and the cover masks whose
bit counts, folds and runs of maxima gave the irreducibles, ``upstar``
and the boundary walks before they read the extreme covers, and the mask
bodies of ``min_between``, ``meet_irreducible_filters``, the
join-distributive intervals, the bound lists of NotALattice and the order
test of ``diagram_from_chains`` before they read boxes of positions.  A
diagram derives neither cover nor order masks any more, so they are folded
here from its cover pairs and its positions.  Joins alone give a second α,
the Jordan–Hölder permutation.
"""

import json
import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import quasiplanar as qp
from quasiplanar import diagram, io, lattice, transform
from quasiplanar.diagram import (
    Diagram, _check_pairs, _dominance_diagram, _listed, _order, _shown, bits,
    validate,
)
from quasiplanar.enumeration import _BLOCK, _labeled_posets
from quasiplanar.errors import (
    LeftIncomplete,
    LeftOnComparable,
    MalformedDocument,
    NotAPartialOrder,
    NotBounded,
    NotLinearizable,
)

FIELDS = ("n", "up", "dn", "upcov", "dncov", "bottom", "top",
          "lam_pos", "rho_pos", "lam_order", "rho_order")


def _cover_masks(d):
    """The upper and lower cover masks of ``d``, folded from its cover pairs:
    the group a diagram derived before it read its extreme covers off the
    sweeps."""
    upcov, dncov = [0] * d.n, [0] * d.n
    for x, y in d.cover_pairs():
        upcov[x] |= 1 << y
        dncov[y] |= 1 << x
    return {"upcov": tuple(upcov), "dncov": tuple(dncov)}


@lru_cache(maxsize=1024)
def _order_fold(d):
    """The up and down masks of ``d``, read off its positions pair by pair:
    the group a diagram derived before every reader asked the sweeps.  Kept
    per diagram value, since the mask oracles read it element by element."""
    lam, rho, n = d.lam_pos, d.rho_pos, d.n
    up = tuple(
        sum(1 << y for y in range(n) if lam[x] <= lam[y] and rho[x] <= rho[y])
        for x in range(n)
    )
    dn = tuple(
        sum(1 << y for y in range(n) if lam[y] <= lam[x] and rho[y] <= rho[x])
        for x in range(n)
    )
    return {"up": up, "dn": dn}


def _minimal_in(d, mask):
    """The minimal elements of ``mask`` by a down-mask scan, in label order."""
    dn = _order_fold(d)["dn"]
    return [z for z in bits(mask) if not (dn[z] & ~(1 << z) & mask)]


def _maximal_in(d, mask):
    """The maximal elements of ``mask`` by an up-mask scan, in label order."""
    up = _order_fold(d)["up"]
    return [z for z in bits(mask) if not (up[z] & ~(1 << z) & mask)]


def _ground_mask(d):
    """Everything above the bottom, as a mask."""
    return ((1 << d.n) - 1) & ~(1 << d.bottom)


def _field(d, name):
    """Field ``name`` of ``d``, the cover and order masks by the folds."""
    if name in ("upcov", "dncov"):
        return _cover_masks(d)[name]
    return _order_fold(d)[name] if name in ("up", "dn") else getattr(d, name)


def _sides(d):
    """``lft[x]``/``rgt[x]``: the masks of the elements x is left / right of,
    read off the definition pair by pair."""
    lam, rho, n = d.lam_pos, d.rho_pos, d.n
    lft = tuple(
        sum(1 << y for y in range(n) if lam[x] < lam[y] and rho[x] > rho[y])
        for x in range(n)
    )
    rgt = tuple(
        sum(1 << y for y in range(n) if lam[x] > lam[y] and rho[x] < rho[y])
        for x in range(n)
    )
    return lft, rgt


def _masks(d):
    return d.n, _order_fold(d)["up"], _sides(d)[0]


def _relabelled(max_size):
    """Every diagram through ``max_size``, canonically labeled and shuffled."""
    for size in range(2, max_size + 1):
        for q in qp.enumerate_quasiplanar(size):
            yield q
            yield qp.relabel(q, tuple(reversed(range(size))))
            yield qp.relabel(q, tuple(range(1, size)) + (0,))


# -- Diagram(lam_pos, rho_pos) against pairwise dominance ------------------


def _dominance(lam, rho):
    """The derived fields of ``Diagram(lam, rho)`` and its four relation
    predicates, each read off the definition pair by pair."""
    n = len(lam)

    def leq(x, y):
        return lam[x] <= lam[y] and rho[x] <= rho[y]

    def mask(pred, x):
        return sum(1 << y for y in range(n) if pred(x, y))

    def covers(x, y):
        return x != y and leq(x, y) and not any(
            z not in (x, y) and leq(x, z) and leq(z, y) for z in range(n)
        )

    up = tuple(mask(leq, x) for x in range(n))
    dn = tuple(mask(lambda x, y: leq(y, x), x) for x in range(n))
    fields = {
        "n": n,
        "up": up,
        "dn": dn,
        "upcov": tuple(mask(covers, x) for x in range(n)),
        "dncov": tuple(mask(lambda x, y: covers(y, x), x) for x in range(n)),
        "bottom": next(x for x in range(n) if dn[x] == 1 << x),
        "top": next(x for x in range(n) if up[x] == 1 << x),
        "lam_pos": tuple(lam),
        "rho_pos": tuple(rho),
        "lam_order": tuple(sorted(range(n), key=lam.__getitem__)),
        "rho_order": tuple(sorted(range(n), key=rho.__getitem__)),
    }
    predicates = {
        "leq": leq,
        "lt": lambda x, y: x != y and leq(x, y),
        "left": lambda x, y: lam[x] < lam[y] and rho[x] > rho[y],
        "incomparable": lambda x, y: x != y and not leq(x, y) and not leq(y, x),
    }
    return fields, predicates


def test_positions_derive_the_dominance_order():
    valid = {}
    for n in range(1, 6):
        valid[n] = 0
        for lam in permutations(range(n)):
            lam_order = sorted(range(n), key=lam.__getitem__)
            for rho in permutations(range(n)):
                rho_order = sorted(range(n), key=rho.__getitem__)
                if (lam_order[0], lam_order[-1]) != (rho_order[0], rho_order[-1]):
                    with pytest.raises(qp.NotBounded):
                        qp.Diagram(lam, rho)
                    continue
                d = qp.Diagram(lam, rho)
                want, predicates = _dominance(lam, rho)
                assert {f: _field(d, f) for f in FIELDS} == want
                for name, pred in predicates.items():
                    query = getattr(d, name)
                    for x in range(n):
                        for y in range(n):
                            assert query(x, y) == pred(x, y), (name, x, y)
                assert d.incomparable_pairs() == tuple(
                    (x, y) for x in range(n) for y in range(x + 1, n)
                    if predicates["incomparable"](x, y)
                )
                valid[n] += 1
    # n! choices of lam_pos, (n - 2)! of rho_pos sharing its first and last
    assert valid == {1: 1, 2: 2, 3: 6, 4: 48, 5: 720}


def test_positions_are_the_identity():
    d = qp.capped_diamond()
    assert qp.Diagram(list(d.lam_pos), iter(d.rho_pos)) == d
    assert hash(qp.Diagram(d.lam_pos, d.rho_pos)) == hash(d)
    assert qp.Diagram(d.lam_pos, d.rho_pos) != qp.mirror(d)


# -- the lazily derived fields against the eager derivation ----------------


def _derived_by_definition(lam, rho):
    """Every derived field of ``Diagram(lam, rho)``, computed at once.

    This is the derivation the constructor ran eagerly before the fields
    were derived on first read: prefix masks of both sweeps, the masks from
    them, and the cover scan; the pair lists are read off the masks.
    """
    n = len(lam)
    lam_order, rho_order = [0] * n, [0] * n
    for x in range(n):
        lam_order[lam[x]] = x
        rho_order[rho[x]] = x
    before_l, before_r = [0] * n, [0] * n
    for order, before in ((lam_order, before_l), (rho_order, before_r)):
        seen = 0
        for x in order:
            before[x] = seen
            seen |= 1 << x
    full = (1 << n) - 1
    up, dn, lft = [], [], []
    for x in range(n):
        bl, br, bit = before_l[x], before_r[x], 1 << x
        al, ar = full ^ bl ^ bit, full ^ br ^ bit
        up.append(al & ar | bit)
        dn.append(bl & br | bit)
        lft.append(al & br)
    upcov, dncov = [0] * n, [0] * n
    for i, x in enumerate(lam_order):
        bound = n
        for j in range(i + 1, n):
            y = lam_order[j]
            if rho[x] < rho[y] < bound:
                upcov[x] |= 1 << y
                dncov[y] |= 1 << x
                bound = rho[y]
                if bound == rho[x] + 1:
                    break
    return {
        "up": tuple(up), "dn": tuple(dn),
        "upcov": tuple(upcov), "dncov": tuple(dncov),
        "lam_order": tuple(lam_order), "rho_order": tuple(rho_order),
        "bottom": lam_order[0], "top": lam_order[-1],
        "cover_pairs": [(x, y) for x in range(n) for y in bits(upcov[x])],
        "left_pairs": [(x, y) for x in range(n) for y in bits(lft[x])],
    }


def _assert_derived_by_definition(d):
    want = _derived_by_definition(d.lam_pos, d.rho_pos)
    names = [f for f in want if not f.endswith("_pairs")]
    # each field read first on a fresh diagram, then the rest in both orders,
    # so no group depends on another having been derived before it
    for first in names:
        fresh = Diagram(d.lam_pos, d.rho_pos)
        for f in (first, *names, *reversed(names)):
            assert _field(fresh, f) == want[f], f
    fresh = Diagram(d.lam_pos, d.rho_pos)
    for f in ("cover_pairs", "left_pairs"):
        assert list(getattr(fresh, f)()) == want[f], f
        assert list(getattr(d, f)()) == want[f], f


def test_derived_fields_match_the_eager_derivation():
    checked = 0
    for d in _relabelled(8):
        _assert_derived_by_definition(d)
        _assert_derived_by_definition(qp.mirror(d))
        checked += 2
    # (n - 2)! diagrams of each size 2..8, three labelings, with mirrors
    assert checked == 2 * 3 * 874


@settings(max_examples=30, deadline=None)
@given(st.integers(9, 60).flatmap(
    lambda n: st.tuples(
        st.permutations(range(1, n - 1)), st.permutations(range(n))
    )
))
def test_derived_fields_match_the_eager_derivation_on_samples(perms):
    perm, names = perms
    d = qp.from_canonical(perm)
    for e in (d, qp.mirror(d), qp.relabel(d, names)):
        _assert_derived_by_definition(e)


def test_left_pairs_are_listed_in_order_past_the_cached_integers():
    # a pair leaves left_pairs as divmod(x * n + y, n), so labels from 257
    # on are fresh integers there
    rng = random.Random(11)
    for n in (258, 300):
        d = qp.from_canonical(rng.sample(range(1, n - 1), n - 2))
        d = qp.relabel(d, rng.sample(range(n), n))
        lam, rho = d.lam_pos, d.rho_pos
        assert list(d.left_pairs()) == [
            (x, y) for x in range(n) for y in range(n)
            if lam[x] < lam[y] and rho[x] > rho[y]
        ]


# -- the mask-loop versions of the position-built constructions ------------


def _mirror_by_masks(d):
    return d.n, _order_fold(d)["up"], _sides(d)[1]


def _relabel_by_masks(d, new_of_old):
    n = d.n
    up = [0] * n
    lft = [0] * n
    old_lft = _sides(d)[0]
    for x in range(n):
        nx = new_of_old[x]
        for y in bits(_order_fold(d)["up"][x]):
            up[nx] |= 1 << new_of_old[y]
        for y in bits(old_lft[x]):
            lft[nx] |= 1 << new_of_old[y]
    return n, tuple(up), tuple(lft)


def _restrict_by_masks(d, members, offset):
    """Masks induced on sorted ``members``, relabeled from ``offset``."""
    new_of_old = {old: new + offset for new, old in enumerate(members)}
    m = len(members) + offset
    up = [0] * m
    lft = [0] * m
    old_lft = _sides(d)[0]
    for old in members:
        new = new_of_old[old]
        for y in bits(_order_fold(d)["up"][old]):
            if y in new_of_old:
                up[new] |= 1 << new_of_old[y]
        for y in bits(old_lft[old]):
            if y in new_of_old:
                lft[new] |= 1 << new_of_old[y]
    return up, lft


def _interval_by_masks(d, lo, hi):
    masks = _order_fold(d)
    up, lft = _restrict_by_masks(d, sorted(bits(masks["up"][lo] & masks["dn"][hi])), 0)
    return len(up), tuple(up), tuple(lft)


def _to_quasiplanar_by_masks(d):
    qp.require_slim_semimodular(d)
    t = qp.lattice_tables(d)
    up, lft = _restrict_by_masks(d, sorted(t.mir | {d.top}), 1)
    up[0] = (1 << len(up)) - 1
    return len(up), tuple(up), tuple(lft)


def test_mirror_and_relabel_match_the_mask_loops():
    for d in _relabelled(6):
        assert _masks(qp.mirror(d)) == _mirror_by_masks(d)
        n = d.n
        for new_of_old in (
            tuple(range(n)),
            tuple(reversed(range(n))),
            tuple(range(1, n)) + (0,),
            d.lam_pos,
            d.rho_pos,
        ):
            got = qp.relabel(d, new_of_old)
            assert _masks(got) == _relabel_by_masks(d, new_of_old)
        assert qp.canonical_relabel(d) == qp.relabel(d, d.lam_pos)


def test_interval_subdiagram_matches_the_mask_loop():
    for d in _relabelled(6):
        for lo in range(d.n):
            for hi in bits(_order_fold(d)["up"][lo]):
                got = qp.interval_subdiagram(d, lo, hi)
                assert _masks(got) == _interval_by_masks(d, lo, hi)


def test_to_quasiplanar_matches_the_mask_loop():
    for q in _relabelled(6):
        for lat in (qp.lattice_from_filters(q), qp.lattice_from_pairs(q)):
            for d in (lat, qp.relabel(lat, tuple(reversed(range(lat.n))))):
                assert _masks(qp.to_quasiplanar(d)) == _to_quasiplanar_by_masks(d)


# -- the two lattice constructions against their definitions ---------------


def _beta1_by_definition(q):
    pairs = qp.weak_left_pairs(q)
    keys = [(q.lam_pos[x], q.rho_pos[y]) for x, y in pairs]
    m = len(pairs)
    order = [
        (i, j)
        for i in range(m)
        for j in range(m)
        if i != j and keys[i][0] <= keys[j][0] and keys[i][1] <= keys[j][1]
    ]
    left = [
        (i, j)
        for i in range(m)
        for j in range(m)
        if keys[i][0] < keys[j][0] and keys[i][1] > keys[j][1]
    ]
    return qp.validate(m, order, left), pairs


def _beta2_by_definition(q):
    filters = qp.enumerate_hco_filters(q).filters
    m = len(filters)
    keys = []
    for f in filters:
        mins = [z for z in f if not any(q.lt(w, z) for w in f)]
        lmost = min(mins, key=q.lam_pos.__getitem__)
        rmost = max(mins, key=q.lam_pos.__getitem__)
        keys.append((q.lam_pos[lmost], q.rho_pos[rmost]))
    order = [
        (i, j)
        for i in range(m)
        for j in range(m)
        if i != j and filters[j] <= filters[i]
    ]
    left = [
        (i, j)
        for i in range(m)
        for j in range(m)
        if not (filters[j] <= filters[i] or filters[i] <= filters[j])
        and keys[i][0] < keys[j][0]
        and keys[i][1] > keys[j][1]
    ]
    return qp.validate(m, order, left), filters


def test_both_lattices_match_their_definitions():
    for q in _relabelled(7):
        for fast, slow in (
            (qp.lattice_from_pairs_labeled, _beta1_by_definition),
            (qp.lattice_from_filters_labeled, _beta2_by_definition),
        ):
            got, got_labels = fast(q)
            want, want_labels = slow(q)
            assert got_labels == want_labels
            for f in FIELDS:
                assert _field(got, f) == _field(want, f), f


# -- the filter family against the definition ------------------------------


def _convex_filters_by_scan(d):
    """Every nonempty up-set X above the bottom such that x left of y left
    of z with x, z in X puts y in X, read off the predicates."""
    ground = [x for x in range(d.n) if x != d.bottom]
    upsets = [frozenset()]
    # top first: every element above x is decided before x is
    for x in sorted(ground, key=d.lam_pos.__getitem__, reverse=True):
        above = [y for y in ground if d.lt(x, y)]
        upsets += [u | {x} for u in upsets if all(y in u for y in above)]
    return [
        u for u in upsets
        if u and not any(
            d.left(a, y) and d.left(y, b)
            for y in ground if y not in u
            for a in u for b in u
        )
    ]


def _assert_family_matches_the_scan(d):
    fam = qp.enumerate_hco_filters(d)
    want = _convex_filters_by_scan(d)
    assert set(fam.filters) == set(want)
    assert len(fam.filters) == len(want) == len(qp.weak_left_pairs(d))
    assert list(fam.filters) == sorted(want, key=lambda f: (len(f), sorted(f)))


def test_filter_family_matches_the_convexity_scan():
    for size in range(3, 9):
        for q in qp.enumerate_quasiplanar(size):
            _assert_family_matches_the_scan(q)
    for d in _relabelled(6):
        if d.n > 2:
            _assert_family_matches_the_scan(d)


@settings(max_examples=25, deadline=None)
@given(st.integers(9, 14).flatmap(
    lambda n: st.permutations(range(1, n - 1)).map(tuple)
))
def test_filter_family_matches_the_convexity_scan_on_samples(perm):
    _assert_family_matches_the_scan(qp.from_canonical(perm))


def _pair_mask(d, x, y):
    """The filter of the weak left pair (x, y) as transform built it before a
    filter was a quadrant: the up-closure, as a mask, of the elements z with
    x equal to or left of z and z equal to or left of y."""
    lft, rgt = _sides(d)
    mask = 0
    for z in bits((lft[x] | 1 << x) & (rgt[y] | 1 << y)):
        mask |= _order_fold(d)["up"][z]
    return mask


def test_filters_are_the_quadrants_of_their_pairs():
    checked = 0
    for d in _relabelled(8):
        if d.n < 3:
            continue
        found = transform._pair_filters(d)
        assert sorted(p for p, _ in found) == sorted(qp.weak_left_pairs(d))
        for (x, y), mask in found:
            want = frozenset(bits(_pair_mask(d, x, y)))
            assert transform._elements(d.n, mask) == want, (d, x, y)
            assert qp.hco_closure(d, (x, y)) == want, (d, x, y)
            checked += 1
    # every weak left pair of every diagram of sizes 3-8, three labelings each
    assert checked == 3 * 11994


# -- the label order of the filters against the sort by their elements -----


def _assert_filters_in_label_order(d):
    """Both labelled constructions list the quadrants of the weak left pairs
    sorted by (size, elements), the sort that listed every filter's elements
    before the masks were ordered, and the unlabelled β2 is the labelled
    one's diagram."""
    quadrants = (frozenset(bits(_pair_mask(d, x, y))) for x, y in qp.weak_left_pairs(d))
    want = tuple(sorted(quadrants, key=lambda f: (len(f), sorted(f))))
    beta2, filters = qp.lattice_from_filters_labeled(d)
    assert filters == want, d
    assert qp.enumerate_hco_filters(d).filters == want, d
    assert qp.lattice_from_filters(d) == beta2, d


def test_filters_come_in_label_order():
    checked = 0
    for d in _relabelled(8):
        if d.n >= 3:
            _assert_filters_in_label_order(d)
            checked += 1
    # every diagram of sizes 3-8, three labelings each
    assert checked == 3 * 873


@settings(max_examples=25, deadline=None)
@given(st.integers(9, 40).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n - 1)).map(tuple), st.permutations(range(n)).map(tuple),
)))
def test_filters_come_in_label_order_on_samples(perm_and_labels):
    perm, labels = perm_and_labels
    q = qp.from_canonical(perm)
    _assert_filters_in_label_order(q)
    _assert_filters_in_label_order(qp.relabel(q, labels))


def test_filter_lattice_of_a_40_element_diagram():
    perm = list(range(1, 39))
    random.Random(40).shuffle(perm)
    q = qp.from_canonical(perm)
    beta2, filters = qp.lattice_from_filters_labeled(q)
    assert beta2.n == len(filters) == len(qp.weak_left_pairs(q))
    assert qp.similar(beta2, qp.lattice_from_pairs(q))
    assert qp.similar(qp.to_quasiplanar(beta2), q)


# -- the closure against the intersection of the filters -------------------


def _hco_closure_by_intersection(d, elements, family):
    """The intersection of every filter of ``family`` that holds ``elements``.

    The family is intersection closed and holds the full ground set, so
    this is the closure by definition.
    """
    want = 0
    for e in elements:
        want |= 1 << e
    out = _ground_mask(d)
    for f in family.filters:
        m = 0
        for e in f:
            m |= 1 << e
        if not want & ~m:
            out &= m
    return frozenset(bits(out))


def test_hco_closure_is_the_intersection_of_the_filters_holding_it():
    checked = 0
    for size in range(2, 8):
        for q in qp.enumerate_quasiplanar(size):
            fam = qp.enumerate_hco_filters(q)
            ground = [x for x in range(q.n) if x != q.bottom]
            for r in range(4):
                for elems in combinations(ground, r):
                    assert qp.hco_closure(q, elems) == (
                        _hco_closure_by_intersection(q, elems, fam)
                    ), (qp.canonical_form(q), elems)
                    checked += 1
    assert checked == 5776


# -- the extremes off the sweeps against the mask scans they replaced -------


def _peel_by_masks(d, leftmost):
    """The peeling that picked, per step, the leftmost (rightmost) of the
    maximal elements of the complement, found by an up-mask scan."""
    ground = _ground_mask(d)
    chain = [1 << d.top]
    steps = []
    while chain[-1] != ground:
        choices = _maximal_in(d, ground & ~chain[-1])
        pick = (min if leftmost else max)(choices, key=d.lam_pos.__getitem__)
        steps.append(pick)
        chain.append(chain[-1] | (1 << pick))
    chain.reverse()
    steps.reverse()
    return chain, steps


def _pair_key_by_masks(d, fset):
    """The minimal elements of ``fset`` by a down-mask scan, then the
    leftmost and the rightmost of them."""
    mins = _minimal_in(d, sum(1 << e for e in fset))
    return min(mins, key=d.lam_pos.__getitem__), max(mins, key=d.lam_pos.__getitem__)


def _cover_walks_by_masks(d):
    """Walk up from the bottom along the leftmost, then the rightmost,
    upper cover in the cover masks."""
    upcov = _cover_masks(d)["upcov"]
    chains = []
    for pick in (min, max):
        chain = [d.bottom]
        while chain[-1] != d.top:
            chain.append(pick(bits(upcov[chain[-1]]), key=d.lam_pos.__getitem__))
        chains.append(tuple(chain))
    return tuple(chains)


def _supports_by_masks(d):
    """Supports at each element's height on the chains, counted in the up
    masks; dual supports the leftmost and rightmost minimal elements of the
    meet-irreducibles above it."""
    up = _order_fold(d)["up"]
    lsp, rsp = (
        tuple(chain[sum(up[c] >> x & 1 for c in chain) - 1] for x in range(d.n))
        for chain in _cover_walks_by_masks(d)
    )
    mir_mask = sum(1 << m for m in lattice._mir(d))
    lds, rds = [], []
    for x in range(d.n):
        mins = [x] if x == d.top else _minimal_in(d, up[x] & mir_mask)
        lds.append(min(mins, key=d.lam_pos.__getitem__))
        rds.append(max(mins, key=d.lam_pos.__getitem__))
    return lattice.SupportData(lsp, rsp, tuple(lds), tuple(rds))


def _nar_by_masks(d):
    full, masks = (1 << d.n) - 1, _order_fold(d)
    return frozenset(x for x in range(d.n) if masks["up"][x] | masks["dn"][x] == full)


def _assert_extremes_match_the_masks(d, lattice_diagram):
    for leftmost in (True, False):
        chain, steps = _peel_by_masks(d, leftmost)
        want = tuple(frozenset(bits(m)) for m in chain), tuple(steps)
        assert transform._peel(d, leftmost) == want, d
    for f in qp.enumerate_hco_filters(d).filters:
        assert transform._pair_key(d, f) == _pair_key_by_masks(d, f), (d, f)
    assert lattice._cover_walks(d) == _cover_walks_by_masks(d), d
    assert lattice._nar(d) == _nar_by_masks(d), d
    if lattice_diagram:
        assert lattice._supports(d) == _supports_by_masks(d), d


def test_extremes_off_the_sweeps_match_the_mask_scans():
    lattices = 0
    for size in range(2, 9):
        for q in qp.enumerate_quasiplanar(size):
            for d in (q, qp.relabel(q, tuple(reversed(range(size)))), qp.mirror(q)):
                # most diagrams are no lattices: no supports for them
                _assert_extremes_match_the_masks(d, False)
                for lat in (qp.lattice_from_pairs(d), qp.lattice_from_filters(d)):
                    backwards = tuple(reversed(range(lat.n)))
                    for m in (lat, qp.relabel(lat, backwards)):
                        if m.n > 1:
                            _assert_extremes_match_the_masks(m, True)
                            lattices += 1
    # beta1 and beta2 of three labelings of every diagram of sizes 3-8,
    # plain and relabeled; a one-element lattice has no filters to peel
    assert lattices == 2 * 2 * 3 * 873


def test_boundary_walks_of_non_slim_lattices_match_the_mask_walk():
    # past lattice_tables, boundary_chains still walks what the tables accept
    for d in (qp.three_atom_diamond(), _two_chains(3)):
        assert qp.is_lattice(d) and not (qp.is_slim(d) and qp.is_semimodular(d))
        assert qp.boundary_chains(d) == _cover_walks_by_masks(d)


# -- the extreme covers against the cover masks ----------------------------


def _irreducibles_by_masks(d):
    """(jir, mir): the elements with one lower, resp. upper, cover."""
    masks = _cover_masks(d)
    return tuple(
        frozenset(x for x in range(d.n) if masks[f][x].bit_count() == 1)
        for f in ("dncov", "upcov")
    )


def _upstar_by_masks(d, t):
    """The join of each element's upper covers, one cover at a time."""
    upstar = []
    for x, covers in enumerate(_cover_masks(d)["upcov"]):
        j = x
        for y in bits(covers):
            j = t.join[j][y]
        upstar.append(j)
    return tuple(upstar)


def _cover_walks_by_maxima(d):
    """The run of new reverse-position maxima along the left-to-right sweep,
    then that of new left-to-right-position maxima along the other."""
    chains = []
    for order, pos in ((d.lam_order, d.rho_pos), (d.rho_order, d.lam_pos)):
        chain, high = [], -1
        for x in order:
            if pos[x] > high:
                chain.append(x)
                high = pos[x]
        chains.append(tuple(chain))
    return tuple(chains)


def _with_lattices(max_size):
    """M3, the pentagon, then every diagram of sizes 2..max_size, its mirror
    and a relabelling, each followed by its two lattices, each of those
    plain and relabelled."""
    yield qp.three_atom_diamond()
    yield qp.pentagon()
    for size in range(2, max_size + 1):
        for q in qp.enumerate_quasiplanar(size):
            for d in (q, qp.mirror(q), qp.relabel(q, tuple(reversed(range(size))))):
                yield d
                for lat in (qp.lattice_from_pairs(d), qp.lattice_from_filters(d)):
                    yield lat
                    yield qp.relabel(lat, tuple(reversed(range(lat.n))))


def test_extreme_covers_match_the_cover_masks():
    checked = lattices = 0
    for d in _with_lattices(8):
        assert (lattice._jir(d), lattice._mir(d)) == _irreducibles_by_masks(d), d
        assert lattice._cover_walks(d) == _cover_walks_by_maxima(d), d
        checked += 1
        if qp.is_lattice(d):
            t = qp.lattice_tables(d)
            assert t.upstar == _upstar_by_masks(d, t), d
            lattices += 1
    # M3, the pentagon, three labelings of each of the 874 diagrams of sizes
    # 2-8 and four lattices of each labeling; 2001 of those diagrams are
    # lattices too
    assert (checked, lattices) == (2 + 3 * 5 * 874, 2 + 3 * 4 * 874 + 2001)


# -- the readers of positions against the mask bodies they replaced ---------


def _min_between_by_masks(d, x, y):
    """The minimal elements, by a down-mask scan, of the ground elements
    between the legs of the weak left pair (x, y)."""
    betw = 0
    for z in bits(_ground_mask(d)):
        if (z == x or d.left(x, z)) and (z == y or d.left(z, y)):
            betw |= 1 << z
    return tuple(_minimal_in(d, betw))


def _meet_irreducible_filters_by_masks(d):
    return {x: frozenset(bits(_order_fold(d)["up"][x])) for x in d.interior()}


def _join_distributive_by_masks(d, t):
    """Every interval [x, x*], read off the up and down masks, distributive."""
    masks = _order_fold(d)
    for x in range(d.n):
        interval = list(bits(masks["up"][x] & masks["dn"][t.upstar[x]]))
        for u, v, w in combinations(interval, 3):
            for a, b, c in ((u, v, w), (v, u, w), (w, u, v)):
                if t.meet[a][t.join[b][c]] != t.join[t.meet[a][b]][t.meet[a][c]]:
                    return False
    return True


def test_sweep_readers_match_their_mask_bodies():
    pairs = lattices = distributive = 0
    for d in _with_lattices(8):
        if d.n < 2:
            continue  # the one-element lattice has no ground
        for x, y in qp.weak_left_pairs(d):
            assert qp.min_between(d, x, y) == _min_between_by_masks(d, x, y), (d, x, y)
            pairs += 1
        assert qp.meet_irreducible_filters(d) == _meet_irreducible_filters_by_masks(d), d
        if qp.is_lattice(d):
            want = _join_distributive_by_masks(d, qp.lattice_tables(d))
            assert qp.is_join_distributive(d) == want, d
            lattices += 1
            distributive += want
    # the lattices of test_extreme_covers_match_the_cover_masks but the 12
    # one-element ones: four lattices of each labeling of the size-2 diagram
    assert (pairs, lattices, distributive) == (450862, 2 + 3 * 4 * 874 + 2001 - 12, 10611)


# -- α from joins alone: the Jordan–Hölder permutation ----------------------


def _jordan_hoelder(d):
    """Czédli and Schmidt's permutation of a slim semimodular lattice
    diagram, π(i) = min{j : c_i ≤ c_{i-1} ∨ d_j} for its left boundary chain
    C and its right boundary chain D, each walked in the cover masks, with
    the joins of its tables; returned as its inverse."""
    left, right = _cover_walks_by_masks(d)
    join = qp.lattice_tables(d).join
    h = len(left) - 1
    inverse = [0] * h
    for i in range(1, h + 1):
        pi = min(j for j in range(1, h + 1) if d.leq(left[i], join[left[i - 1]][right[j]]))
        inverse[pi - 1] = i
    return tuple(inverse)


def test_the_jordan_hoelder_permutation_inverts_the_canonical_form():
    # Czédli and Schmidt describe a slim semimodular lattice by this
    # permutation; read off its joins and boundary chains alone, it gives
    # a second α that shares nothing with the certificate's positions
    checked = 0
    for size in range(3, 9):
        for q in qp.enumerate_quasiplanar(size):
            for build in (qp.lattice_from_pairs, qp.lattice_from_filters):
                lat = build(q)
                for d in (lat, qp.relabel(lat, tuple(reversed(range(lat.n))))):
                    perm = _jordan_hoelder(d)
                    assert perm == qp.canonical_form(q), (q, perm)
                    assert qp.similar(qp.from_canonical(perm), qp.to_quasiplanar(d))
                    checked += 1
    # beta1 and beta2 of each of the 873 diagrams of sizes 3-8, two labelings
    assert checked == 2 * 2 * 873


# -- the lattice tables against the minimal-bounds search ------------------


def _no_bound_by_masks(d, x, y, above):
    """NotALattice's (message, witness) for x and y with its bounds listed by
    mask scans, or None when they have a join (``above``) or a meet."""
    masks = _order_fold(d)
    if above:
        found, what = _minimal_in(d, masks["up"][x] & masks["up"][y]), "minimal upper"
    else:
        found, what = _maximal_in(d, masks["dn"][x] & masks["dn"][y]), "maximal lower"
    if len(found) < 2:
        return None
    return (
        f"elements {x} and {y} have {what} bounds {found[0]} and {found[1]}",
        (x, y, found[0], found[1]),
    )


def _assert_bounds_match_the_masks(d):
    """Every pair of ``d`` without a join or a meet is named by the sweeps as
    by the mask scans; returns how many such pairs there are."""
    missing = 0
    for x, y in combinations(range(d.n), 2):
        for above in (True, False):
            want = _no_bound_by_masks(d, x, y, above)
            if want is not None:
                e = lattice._no_bound(d, x, y, above)
                assert (str(e), e.witness) == want, (d, x, y, above)
                missing += 1
    return missing


def _bounds_by_search(d):
    """Join and meet tables, or the first (message, witness) failure, by
    listing the minimal upper and maximal lower bounds of every pair."""
    n = d.n
    join = [[x] * n for x in range(n)]
    meet = [[x] * n for x in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            for table, what, bounds, lower in (
                (join, "minimal upper", lambda z: d.leq(x, z) and d.leq(y, z),
                 lambda a, b: d.lt(a, b)),
                (meet, "maximal lower", lambda z: d.leq(z, x) and d.leq(z, y),
                 lambda a, b: d.lt(b, a)),
            ):
                common = [z for z in range(n) if bounds(z)]
                best = [z for z in common if not any(lower(w, z) for w in common)]
                if len(best) > 1:
                    return (
                        f"elements {x} and {y} have {what} bounds "
                        f"{best[0]} and {best[1]}",
                        (x, y, best[0], best[1]),
                    )
                table[x][y] = table[y][x] = best[0]
    return join, meet


def test_lattice_tables_match_the_minimal_bounds_search():
    for q in _relabelled(7):
        if q.n < 3:
            continue
        for lat in (qp.lattice_from_pairs(q), qp.lattice_from_filters(q)):
            for d in (lat, qp.relabel(lat, tuple(reversed(range(lat.n))))):
                join, meet = _bounds_by_search(d)
                t = qp.lattice_tables(d)
                assert t.join == tuple(map(tuple, join))
                assert t.meet == tuple(map(tuple, meet))


def test_not_a_lattice_messages_and_witnesses_are_unchanged():
    with pytest.raises(qp.NotALattice) as exc:
        qp.lattice_tables(qp.hexagon())
    assert str(exc.value) == "elements 1 and 2 have minimal upper bounds 3 and 4"
    assert exc.value.witness == (1, 2, 3, 4)
    # a failing meet: the hexagon turned upside down
    h = qp.hexagon()
    upside_down = qp.Diagram(
        [h.n - 1 - p for p in h.rho_pos], [h.n - 1 - p for p in h.lam_pos]
    )
    with pytest.raises(qp.NotALattice) as exc:
        qp.lattice_tables(upside_down)
    assert str(exc.value) == "elements 1 and 2 have maximal lower bounds 3 and 4"
    assert exc.value.witness == (1, 2, 3, 4)
    # every pair lacking a join or a meet, not only the first, is named as
    # the mask scans named it
    missing = _assert_bounds_match_the_masks(h) + _assert_bounds_match_the_masks(upside_down)
    failures = 0
    for d in _relabelled(7):
        want = _bounds_by_search(d)
        if isinstance(want[0], str):
            failures += 1
            with pytest.raises(qp.NotALattice) as exc:
                qp.lattice_tables(d)
            assert (str(exc.value), exc.value.witness) == want
            missing += _assert_bounds_match_the_masks(d)
        else:
            assert qp.is_lattice(d)
    assert failures > 0
    assert (failures, missing) == (51, 130)


# -- slimness against the triple scan --------------------------------------


def _slim_by_triples(d):
    jir = sorted(qp.lattice_tables(d).jir)
    return not any(
        d.incomparable(a, b) and d.incomparable(a, c) and d.incomparable(b, c)
        for a, b, c in combinations(jir, 3)
    )


def test_is_slim_matches_the_triple_scan():
    checked = fat = 0
    for size in range(2, 9):
        for q in qp.enumerate_quasiplanar(size):
            for d in (q, qp.mirror(q), qp.lattice_from_filters(q)):
                if qp.is_lattice(d):
                    want = _slim_by_triples(d)
                    assert qp.is_slim(d) == want
                    checked += 1
                    fat += not want
    assert checked > 2000 and fat > 500


# -- α's certificate and Birkhoff's condition against the m² tables ---------


def _semimodular_by_all_pairs(d, t):
    """The m² definition: a∧b covered by a forces b covered by a∨b."""
    upcov = _cover_masks(d)["upcov"]
    for a in range(d.n):
        for b in range(d.n):
            m = t.meet[a][b]
            if upcov[m] & (1 << a) and not upcov[b] & (1 << t.join[a][b]):
                return False
    return True


def _rejection_by_tables(d):
    """require_slim_semimodular's message for ``d`` by the m² definition,
    or None when ``d`` is a slim semimodular lattice diagram."""
    try:
        t = qp.lattice_tables(d)
    except qp.NotALattice as e:
        return f"not a lattice: {e}"
    if not _semimodular_by_all_pairs(d, t):
        return "lattice is not semimodular"
    if not qp.is_slim(d):
        return "join-irreducibles contain a 3-element antichain"
    return None


def _through_size(last):
    """Every diagram of size 2..last, its mirror and its pair lattice."""
    for size in range(2, last + 1):
        for q in qp.enumerate_quasiplanar(size):
            yield q
            yield qp.mirror(q)
            yield qp.lattice_from_pairs(q)


def _two_chains(length):
    """A bottom and a top joined by two chains of ``length`` elements each."""
    left = [(1 + i, 1 + length + i) for i in range(length)]
    right = [(1 + length + i, 1 + i) for i in range(length)]
    end = 2 * length + 1
    return _dominance_diagram([(0, 0)] + left + right + [(end, end)])


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(name) or real(*a))


def _boundary_chains_by_definition(d):
    """The elements with nothing to their left, then those with nothing to
    their right, each bottom to top."""
    return tuple(
        tuple(x for x in d.lam_order if not beside[x]) for beside in _sides(d)[::-1]
    )


def test_certificate_verdict_matches_the_tables_through_size_9(monkeypatch):
    # every gate accepts what the tables accept, building none, and names
    # every rejection as the tables do
    fallbacks, built = [], []
    _counting(monkeypatch, transform, "_slim_semimodular_tables", fallbacks)
    _counting(monkeypatch, lattice, "_compute_tables", built)
    gates = (
        qp.require_slim_semimodular,
        qp.supports,
        lambda d: qp.lattice_isomorphic(d, d),
    )
    verdicts = {}
    for d in _through_size(9):
        # the oracle's tables go on a copy, so d reaches α without them
        copy = Diagram(d.lam_pos, d.rho_pos)
        want = _rejection_by_tables(copy)
        fallbacks.clear()
        built.clear()
        if want is None:
            alpha = qp.to_quasiplanar(d)
            for gate in gates:
                gate(d)
            assert qp.boundary_chains(d) == _boundary_chains_by_definition(d)
            # accepted by the certificate: no table path was taken
            assert fallbacks == [] and built == [] and d._tables is None
            assert _masks(alpha) == _to_quasiplanar_by_masks(copy)
            want = "accepted"
        else:
            with pytest.raises(qp.NotSlimSemimodular) as exc:
                qp.to_quasiplanar(d)
            assert fallbacks == ["_slim_semimodular_tables"]
            assert str(exc.value) == want
            for gate in gates:
                with pytest.raises(qp.NotSlimSemimodular) as exc:
                    gate(d)
                assert str(exc.value) == want
            if want.startswith("not a lattice"):
                with pytest.raises(qp.NotALattice) as exc:
                    qp.boundary_chains(d)
                with pytest.raises(qp.NotALattice) as by_tables:
                    qp.lattice_tables(copy)
                assert (str(exc.value), exc.value.witness) == (
                    str(by_tables.value), by_tables.value.witness
                )
            else:
                assert qp.boundary_chains(d) == _boundary_chains_by_definition(d)
        kind = want.split(":")[0]
        verdicts[kind] = verdicts.get(kind, 0) + 1
    assert verdicts == {
        "accepted": 6086,
        "not a lattice": 4578,
        "lattice is not semimodular": 6832,
        "join-irreducibles contain a 3-element antichain": 246,
    }


def _meet_semidistributive(d, t):
    """x∧y = x∧z forces x∧(y∨z) = x∧y, over every triple."""
    join, meet = t.join, t.meet
    return all(
        meet[x][y] != meet[x][z] or meet[x][join[y][z]] == meet[x][y]
        for x in range(d.n) for y, z in combinations(range(d.n), 2)
    )


def _has_cover_preserving_m3(d, t):
    """Some element with three upper covers whose pairwise joins are one
    element covering all three."""
    upcov = _cover_masks(d)["upcov"]
    for o in range(d.n):
        for a, b, c in combinations(bits(upcov[o]), 3):
            i = t.join[a][b]
            if t.join[a][c] == i == t.join[b][c] and all(
                upcov[e] >> i & 1 for e in (a, b, c)
            ):
                return True
    return False


def test_join_distributivity_and_slimness_match_their_characterisations():
    # Edelman (1980): join-distributive exactly when semimodular and
    # meet-semidistributive.  Czédli and Schmidt (Slim semimodular lattices
    # I): a planar semimodular lattice is slim exactly when it has no
    # cover-preserving M3 sublattice; every lattice diagram is planar.
    lattices = distributive = semimodular = slim = 0
    for d in _through_size(7):
        if not qp.is_lattice(d):
            continue
        t = qp.lattice_tables(d)
        modular = _semimodular_by_all_pairs(d, t)
        want = modular and _meet_semidistributive(d, t)
        assert qp.is_join_distributive(d) == want
        if modular:
            assert qp.is_slim(d) == (not _has_cover_preserving_m3(d, t))
            slim += qp.is_slim(d)
        lattices += 1
        distributive += want
        semimodular += modular
    assert (lattices, distributive, semimodular, slim) == (428, 202, 230, 202)


def test_birkhoff_condition_matches_the_all_pairs_definition():
    # M3 is modular; the pentagon and the six-element cycle are not
    # semimodular; the catalog's hexagon is no lattice at all
    extras = (qp.pentagon(), qp.three_atom_diamond(), _two_chains(2), qp.hexagon())
    checked = semimodular = 0
    for d in (*_through_size(9), *extras):
        if qp.is_lattice(d):
            t = qp.lattice_tables(d)
            want = _semimodular_by_all_pairs(d, t)
            assert lattice._semimodular(d, t) == want
            checked += 1
            semimodular += want
    # 13 161 lattices of size 3-9, three of size 2, three extras; among
    # them the slim semimodular ones, 246 fat semimodular ones and M3
    assert (checked, semimodular) == (13161 + 3 + 3, 6086 + 246 + 1)
    assert [qp.is_semimodular(d) for d in extras[:3]] == [False, True, False]


def test_certificate_refuses_two_long_chains_without_their_pair_lattice(monkeypatch):
    d = _two_chains(300)
    built = []
    _counting(monkeypatch, transform, "lattice_from_pairs", built)
    with pytest.raises(qp.NotSlimSemimodular) as exc:
        qp.to_quasiplanar(d)
    assert built == []
    assert str(exc.value) == _rejection_by_tables(_two_chains(300))
    assert str(exc.value) == "lattice is not semimodular"


# -- meet representations against the scan of every meet-irreducible -------


def _irredundant_meet_representations_by_full_scan(d, t, x):
    def meet_all(elems):
        m = d.top
        for e in elems:
            m = t.meet[m][e]
        return m

    reps = []
    mir = sorted(t.mir)
    for r in range(len(mir) + 1):
        for sub in combinations(mir, r):
            if meet_all(sub) != x:
                continue
            if all(meet_all(sub[:i] + sub[i + 1:]) != x for i in range(r)):
                reps.append(frozenset(sub))
    return reps


def test_meet_representations_match_the_scan_of_every_meet_irreducible():
    checked = 0
    for size in range(2, 8):
        for q in qp.enumerate_quasiplanar(size):
            d = qp.lattice_from_filters(q)
            qp.require_slim_semimodular(d)
            t = qp.lattice_tables(d)
            for x in range(d.n):
                assert qp.irredundant_meet_representations(d, t, x) == (
                    _irredundant_meet_representations_by_full_scan(d, t, x)
                )
                checked += 1
    assert checked == 1555


# -- validate against the all-pairs version that read the order twice ------


def _closure_reference(n, pairs):
    """Strict pairs -> reflexive up-set masks; rejects cycles."""
    succ = [0] * n
    for a, b in pairs:
        if a == b:
            raise NotAPartialOrder(f"self-loop at element {a}")
        succ[a] |= 1 << b
    indeg = [0] * n
    for a in range(n):
        for b in bits(succ[a]):
            indeg[b] += 1
    queue = [x for x in range(n) if indeg[x] == 0]
    topo = []
    while queue:
        x = queue.pop()
        topo.append(x)
        for y in bits(succ[x]):
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    if len(topo) != n:
        cyclic = sorted(x for x in range(n) if indeg[x] > 0)
        raise NotAPartialOrder(
            f"cover relation has a cycle through {_listed(cyclic)}"
        )
    up = [1 << x for x in range(n)]
    for x in reversed(topo):
        for y in bits(succ[x]):
            up[x] |= up[y]
    return up


def _check_pairs_reference(n, pairs, what):
    out = []
    for i, pair in enumerate(pairs):
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ValueError(f"{what}[{i}] is not a pair") from None
        a, b = int(a), int(b)
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"{what}[{i}] = ({a}, {b}) is out of range for n={n}")
        out.append((a, b))
    return out


def _validate_reference(n, covers, left=()):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    cover_list = _check_pairs_reference(n, list(covers), "covers")
    left_list = _check_pairs_reference(n, list(left), "left")
    up = _closure_reference(n, cover_list)
    dn = [0] * n
    for x in range(n):
        for y in bits(up[x]):
            dn[y] |= 1 << x
    bottoms = [x for x in range(n) if dn[x] == 1 << x]
    tops = [x for x in range(n) if up[x] == 1 << x]
    if len(bottoms) != 1:
        raise NotBounded(
            f"minimal elements {_listed(bottoms)}, expected exactly one"
        )
    if len(tops) != 1:
        raise NotBounded(f"maximal elements {_listed(tops)}, expected exactly one")
    lft = [0] * n
    for a, b in left_list:
        if a == b:
            raise LeftOnComparable(f"left pair ({a}, {b}) is reflexive")
        if up[a] & (1 << b) or up[b] & (1 << a):
            raise LeftOnComparable(
                f"left pair ({a}, {b}) relates comparable elements"
            )
        if lft[b] & (1 << a):
            raise NotLinearizable(
                f"pair ({a}, {b}) is oriented in both directions"
            )
        lft[a] |= 1 << b
    for x in range(n):
        for y in range(x + 1, n):
            if up[x] & (1 << y) or up[y] & (1 << x):
                continue
            if not (lft[x] & (1 << y) or lft[y] & (1 << x)):
                raise LeftIncomplete(
                    f"incomparable pair ({x}, {y}) carries no orientation"
                )
    # Every incomparable pair is now oriented exactly once, so a sweep is
    # linear iff its positions, n - 1 - (number of elements after x), form
    # a permutation.  In the right-to-left sweep that count is the number
    # of elements before x: those below x and those x is left of.
    ident = list(range(n))
    lam = [n - 1 - ((up[x] & ~(1 << x)) | lft[x]).bit_count() for x in range(n)]
    if sorted(lam) != ident:
        raise NotLinearizable("order + left is not a linear order")
    rho = [((dn[x] & ~(1 << x)) | lft[x]).bit_count() for x in range(n)]
    if sorted(rho) != ident:
        raise NotLinearizable("order + inverted left is not a linear order")
    return Diagram(lam, rho)


def _outcome(validate, n, covers, left):
    try:
        d = validate(n, covers, left)
    except ValueError as e:
        return type(e), str(e)
    return d.lam_pos, d.rho_pos


def _parse(n, covers, left):
    """``qp.parse`` of the document of these pairs, its locations cut off."""
    try:
        return qp.parse(json.dumps({"n": n, "covers": covers, "left": left}))
    except qp.DiagramError as e:
        if not e.location:
            raise
        prefix = f"{e.location}: "
        assert str(e).startswith(prefix), e
        raise type(e)(str(e).removeprefix(prefix)) from None


def _assert_same_outcome(n, covers, left):
    want = _outcome(_validate_reference, n, covers, left)
    for validate in (qp.validate, _parse):
        assert _outcome(validate, n, covers, left) == want, (n, covers, left)
    return want


def test_validate_matches_the_reference_on_every_small_cover_set():
    rng = random.Random(4)
    kinds = set()
    for n in range(1, 5):
        arcs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for chosen in range(1 << len(arcs)):
            covers = [p for i, p in enumerate(arcs) if chosen >> i & 1]
            try:
                up = _closure_reference(n, covers)
            except NotAPartialOrder as e:
                kinds.add(type(e))
                _assert_same_outcome(n, covers, [])
                continue
            inc = [(x, y) for x in range(n) for y in range(x + 1, n)
                   if not (up[x] >> y & 1 or up[y] >> x & 1)]
            flipped = [(y, x) for x, y in inc]
            for left in (
                [], inc, flipped, inc[:-1], inc + inc[:1], inc + flipped[:1],
                inc + covers[:1], [(n - 1, n - 1)] + inc,
                [p if rng.random() < 0.5 else p[::-1] for p in inc],
            ):
                got = _assert_same_outcome(n, covers, left)
                kinds.add(got[0] if isinstance(got[0], type) else Diagram)
            # a repeated pair standing in for a missing one, which the left
            # pair count alone would take for complete
            trap = _assert_same_outcome(n, covers, inc[:-1] + inc[:1])
            bare = _outcome(_validate_reference, n, covers, [])
            if len(inc) > 1 and bare[0] is LeftIncomplete:
                assert trap[0] is LeftIncomplete, (n, covers)
    assert kinds == {Diagram, NotAPartialOrder, NotBounded, LeftOnComparable,
                     LeftIncomplete, NotLinearizable}


def test_validate_matches_the_reference_on_every_diagram_and_its_defects():
    rng, squares = random.Random(7), 0
    for d in _relabelled(7):
        covers, left = list(d.cover_pairs()), list(d.left_pairs())
        rng.shuffle(covers)
        rng.shuffle(left)
        assert _assert_same_outcome(d.n, covers, left) == (d.lam_pos, d.rho_pos)
        cover = covers[rng.randrange(len(covers))]
        # a comparable left pair, and a cover run backwards
        _assert_same_outcome(d.n, covers, left + [cover])
        _assert_same_outcome(d.n, covers + [cover[::-1]], left)
        if left:
            i = rng.randrange(len(left))
            flipped = left[i][::-1]
            kept = left[:i] + left[i + 1:]
            # a left pair dropped, reversed, or doubled in reverse
            _assert_same_outcome(d.n, covers, kept)
            _assert_same_outcome(d.n, covers, left[:i] + [flipped] + left[i + 1:])
            _assert_same_outcome(d.n, covers, left + [flipped])
            # a dropped pair with a kept one repeated, or a cover either
            # way round, in its place: a cover there can count positions
            # that draw an order pair as a left pair
            trap = _assert_same_outcome(d.n, covers, kept + kept[:1])
            assert trap[0] is LeftIncomplete
            _assert_same_outcome(d.n, covers, kept + [cover[::-1]])
            _assert_same_outcome(d.n, covers, kept + [cover])
            # a complete list with a pair repeated is still the diagram
            repeated = _assert_same_outcome(d.n, covers, left + left[i:i + 1])
            assert repeated == (d.lam_pos, d.rho_pos)
        # x and u both left of y and v: (x, y) and (u, v) repeated in place of
        # (x, v) and (u, y) leave every count of left pairs at an element as
        # it was, so only their repetition shows that two are missing
        lefts = set(left)
        for (x, y), (u, v) in combinations(sorted(lefts), 2):
            if x != u and y != v and {(x, v), (u, y)} <= lefts:
                crossed = [p for p in left if p not in {(x, v), (u, y)}]
                trap = _assert_same_outcome(d.n, covers, crossed + [(x, y), (u, v)])
                assert trap[0] is LeftIncomplete
                squares += 1
                break
    assert squares == 168


def _closed_covers(d):
    """Every strict order pair of ``d``, non-covers included."""
    up = _order_fold(d)["up"]
    return [(x, y) for x in range(d.n) for y in bits(up[x]) if x != y]


def test_validate_builds_masks_only_to_name_a_rejection(monkeypatch):
    fallbacks = []
    _counting(monkeypatch, diagram, "_refusal", fallbacks)
    for d in _relabelled(7):
        for covers in (d.cover_pairs(), _closed_covers(d)):
            text = json.dumps({"n": d.n, "covers": covers, "left": d.left_pairs()})
            assert qp.parse(text) == d
    assert fallbacks == []
    d = qp.relabel(qp.from_canonical((3, 1, 4, 2)), (4, 0, 5, 2, 1, 3))
    covers, left = list(d.cover_pairs()), list(d.left_pairs())
    # the three atoms of M3, each left of the next round a cycle
    m3 = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    cycle = [(1, 2), (2, 3), (3, 1)]
    # each defect the left list can carry goes through the namer once; a
    # complete list with a pair repeated is certified and never reaches it
    for n, cs, ls, kind in (
        (d.n, covers, left + covers[:1], LeftOnComparable),
        (d.n, covers, left + [left[0][::-1]], NotLinearizable),
        (d.n, covers, left[1:], LeftIncomplete),
        (d.n, covers, left[1:] + left[1:2], LeftIncomplete),
        (5, m3, cycle, NotLinearizable),
        (d.n, covers, left + left[:1], None),
    ):
        fallbacks.clear()
        got = _outcome(qp.validate, n, cs, ls)
        assert got[0] is kind if kind else got == (d.lam_pos, d.rho_pos)
        assert fallbacks == (["_refusal"] if kind else [])


def test_only_refused_input_reaches_the_namer_and_it_always_raises(monkeypatch):
    # the certificate is the one accepting path: the namer runs on every
    # refusal and always raises, and valid input, a complete list with a
    # pair repeated included, never reaches it
    real, reached = diagram._refusal, []

    def namer(*args):
        reached.append(args)
        real(*args)
        raise AssertionError("the namer returned")

    monkeypatch.setattr(diagram, "_refusal", namer)
    rng, kinds = random.Random(5), set()
    for d in _relabelled(6):
        covers, left = list(d.cover_pairs()), list(d.left_pairs())
        lists = [left, left[::-1], left + covers[:1], [(d.top, d.top)] + left]
        if left:
            i = rng.randrange(len(left))
            kept, flipped = left[:i] + left[i + 1:], left[i][::-1]
            lists += [left + left[i:i + 1], kept, kept + kept[:1],
                      left + [flipped], kept + [flipped]]
        for ls in lists:
            want = _outcome(_validate_reference, d.n, covers, ls)
            reached.clear()
            got = _outcome(validate, d.n, covers, ls)
            assert got == want and len(reached) == isinstance(want[0], type)
            if want[0] is NotLinearizable:
                kinds.add(want[1] if want[1].startswith("order") else "both ways")
            else:
                kinds.add(want[0] if isinstance(want[0], type) else Diagram)
    assert kinds == {
        Diagram, LeftOnComparable, LeftIncomplete, "both ways",
        "order + left is not a linear order",
        "order + inverted left is not a linear order",
    }


def test_each_call_reads_its_order_once(monkeypatch):
    reads = []

    def counted(*args):
        reads.append(args[0])
        return _order(*args)

    monkeypatch.setattr(diagram, "_order", counted)
    monkeypatch.setattr(transform, "_order", counted)
    d = qp.lattice_from_filters(qp.from_canonical((3, 1, 4, 2)))
    covers, (lc, rc) = d.cover_pairs(), qp.boundary_chains(d)
    for call in (
        lambda: qp.validate(d.n, covers, d.left_pairs()),
        lambda: qp.order_dimension_le2(d.n, covers),
        lambda: qp.diagram_from_chains(d.n, covers, lc, rc),
        # chains the heights do not draw the order from: the solver orients it
        lambda: qp.diagram_from_chains(d.n, covers, lc, lc),
    ):
        reads.clear()
        try:
            call()
        except qp.ChainsDoNotCoverJir:
            pass
        assert reads == [d.n]


# -- _parse_pairs against the loop that checked each component in turn -----


def _parse_pairs_reference(value, key, n):
    if not isinstance(value, list):
        raise MalformedDocument(f"'{key}' must be an array", f"/{key}")
    out = []
    for i, entry in enumerate(value):
        if not isinstance(entry, list) or len(entry) != 2:
            raise MalformedDocument(
                "entry must be a two-element array", f"/{key}/{i}"
            )
        for j, v in enumerate(entry):
            if type(v) is not int:
                raise MalformedDocument(
                    "pair component must be an integer", f"/{key}/{i}/{j}"
                )
            if not 0 <= v < n:
                raise MalformedDocument(
                    f"element {_shown(v)} is out of range for n={_shown(n)}",
                    f"/{key}/{i}/{j}",
                )
        out.append(tuple(entry))
    return tuple(out)


def _parse_outcome(parse, *args):
    try:
        return parse(*args)
    except MalformedDocument as e:
        return type(e), str(e), e.location


def _bad_entries(n):
    """Entries a pair list must refuse: bad components, shapes and values."""
    components = [True, False, 1.5, 2.0, "1", None, [1], [[0, 1]], {},
                  -1, n, n + 1, 10**69, -10**69]
    for c in components:
        yield [c, 0]
        yield [n - 1, c]
        yield [c, c]
    yield [True, n]  # the first bad component is named, not the second
    yield [n, "1"]
    yield from ([], [0], [0, 1, 2], [[0, 1]], {}, {"0": 0, "1": 1}, 0, "01", None)


def test_parse_pairs_matches_the_reference_on_mutated_lists(monkeypatch):
    d = qp.relabel(qp.from_canonical((3, 1, 4, 2)), (4, 0, 5, 2, 1, 3))
    n, compared = d.n, 0
    for key, pairs in (("covers", d.cover_pairs()), ("left", d.left_pairs())):
        pairs = [list(p) for p in pairs]
        cases = [pairs, [], {}, 0, "[]", None, [pairs]]
        for bad in _bad_entries(n):
            for at in (0, len(pairs) // 2, len(pairs)):
                cases.append(pairs[:at] + [bad] + pairs[at:])
        for case in cases:
            value = json.loads(json.dumps(case))
            want = _parse_outcome(_parse_pairs_reference, value, key, n)
            assert _parse_outcome(io._parse_pairs, value, key, n) == want, case
            # and through the document, where a 70-digit n also turns up
            for m in (n, 10**69):
                doc = {"n": m, "covers": [[0, 1]], "left": []}
                doc[key] = case
                text = json.dumps(doc)
                with monkeypatch.context() as patched:
                    patched.setattr(io, "_parse_pairs", _parse_pairs_reference)
                    want = _parse_outcome(qp.parse_document, text)
                assert _parse_outcome(qp.parse_document, text) == want, (m, case)
            compared += 1
    assert compared == 2 * (7 + 3 * (3 * 14 + 2 + 9))


# -- the one-comprehension read against the per-entry pass it replaced -----


def _parse_pairs_by_entry(value, key, n):
    """The pass that read a pair list one entry at a time, handing the first
    entry it did not take to ``io._refuse_entry``."""
    if not isinstance(value, list):
        raise MalformedDocument(f"'{key}' must be an array", f"/{key}")
    out = []
    for entry in value:
        if type(entry) is list and len(entry) == 2:
            a, b = entry
            if type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n:
                out.append((a, b))
                continue
        io._refuse_entry(entry, f"/{key}/{len(out)}", n)
    return tuple(out)


def _assert_documents_read_alike(text):
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(io, "_parse_pairs", _parse_pairs_by_entry)
        want = _parse_outcome(qp.parse_document, text)
    assert _parse_outcome(qp.parse_document, text) == want, text
    return want


_Q6 = qp.relabel(qp.from_canonical((3, 1, 4, 2)), (4, 0, 5, 2, 1, 3))


@pytest.mark.parametrize("bad", [
    7, [], [1], [1, 2, 3], "ab", {"a": 0, "b": 1}, True, 1.0, None, -1,
    _Q6.n, 10**30, [[0], [1]],
], ids=repr)
def test_a_bad_entry_anywhere_is_named_as_the_per_entry_pass_names_it(bad):
    # the entry itself, and as either component of a pair
    n, named = _Q6.n, 0
    for key, pairs in (("covers", _Q6.cover_pairs()), ("left", _Q6.left_pairs())):
        pairs = [list(p) for p in pairs]
        for entry in (bad, [bad, 0], [0, bad]):
            for at in (0, len(pairs) // 2, len(pairs)):
                doc = {"n": n, "covers": [[0, 1]], "left": []}
                doc[key] = pairs[:at] + [entry] + pairs[at:]
                got = _assert_documents_read_alike(json.dumps(doc))
                assert got[0] is MalformedDocument, got
                assert got[2].startswith(f"/{key}/{at}"), got
                named += 1
    assert named == 2 * 3 * 3


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30),
    st.sampled_from(("covers", "left")),
    st.integers(0, 30),
    _json_values,
)))
def test_one_mutated_entry_is_read_as_the_per_entry_pass_reads_it(case):
    n, pairs, key, at, entry = case
    pairs = [list(p) for p in pairs]
    doc = {"n": n, "covers": [], "left": []}
    doc[key] = pairs
    valid = _assert_documents_read_alike(json.dumps(doc))
    assert getattr(valid, key) == tuple(map(tuple, pairs))
    at = min(at, len(pairs))
    doc[key] = pairs[:at] + [entry] + pairs[at:]
    _assert_documents_read_alike(json.dumps(doc))


# -- the block writer against serialize, which formats every pair ---------


def _assert_written_as_serialize(perms):
    written = io._canonical_documents(iter(perms))
    assert written == [qp.serialize(qp.from_canonical(p)) for p in perms]


def test_batch_writer_matches_serialize_on_every_diagram_through_size_9():
    written = 0
    for size in range(2, 10):
        batch = list(permutations(range(1, size - 1)))
        _assert_written_as_serialize(batch)
        for lo in range(0, len(batch), _BLOCK):
            _assert_written_as_serialize(batch[lo:lo + _BLOCK])
        written += len(batch)
    assert written == sum(qp.expected_count(size) for size in range(2, 10)) == 5914


@settings(max_examples=25, deadline=None)
@given(st.integers(10, 40).flatmap(lambda n: st.lists(
    st.permutations(range(1, n - 1)).map(tuple), min_size=1, max_size=4,
)))
def test_batch_writer_matches_serialize_on_sampled_permutations(perms):
    _assert_written_as_serialize(perms)


def test_batch_writer_keeps_each_size_to_its_own_texts():
    # a code x·n + y names another pair at another n: 6 is [1,2] at n = 4
    # and [1,1] at n = 5, so texts carried across sizes would show here
    batch = [p for size in range(2, 8) for p in permutations(range(1, size - 1))]
    random.Random(1).shuffle(batch)
    _assert_written_as_serialize(batch)
    _assert_written_as_serialize([p for p in batch if len(p) in (2, 3)])
    small, large = (1, 2), tuple(range(1, 39))
    _assert_written_as_serialize([small, large, small, large])


# -- order_dimension_le2 against the backtracking solver it replaced -------


def _order_dimension_le2_reference(n, covers):
    """Orient a bare bounded poset if its order dimension is at most two.

    Returns a valid :class:`Diagram` on the same order, or None when no
    orientation of the incomparable pairs linearizes both sweeps.  Bad
    input raises exactly what :func:`validate` raises.  Backtracking over
    pair orientations with unit propagation; meant for n up to about 12.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    cover_list = _check_pairs(n, list(covers), "covers")
    up = _order(n, cover_list)

    pairs = [
        (x, y)
        for x in range(n)
        for y in range(x + 1, n)
        if not (up[x] & (1 << y) or up[y] & (1 << x))
    ]
    index = {p: i for i, p in enumerate(pairs)}
    state = [0] * len(pairs)  # 0 undecided, 1 means x left of y, -1 reversed

    def left_arc(a, b):
        """Truth of 'a precedes b in the left-to-right sweep', or None."""
        if up[a] & (1 << b):
            return True
        if up[b] & (1 << a):
            return False
        s = state[index[(a, b)]] if a < b else -state[index[(b, a)]]
        return None if s == 0 else s > 0

    def set_left(a, b, trail):
        """Record 'a left of b'. Returns False on contradiction."""
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            cur = left_arc(a, b)
            if cur is True and not up[a] & (1 << b):
                continue
            if cur is False:
                return False
            if cur is None:
                i = index[(a, b)] if a < b else index[(b, a)]
                state[i] = 1 if a < b else -1
                trail.append(i)
            # New facts: sweep arc a->b and reverse-sweep arc b->a.
            for c in range(n):
                if c == a or c == b:
                    continue
                # left-to-right transitivity through the new arc
                if left_arc(b, c) is True and left_arc(a, c) is not True:
                    if up[c] & (1 << a) or left_arc(c, a) is True:
                        return False
                    if not up[a] & (1 << c):
                        queue.append((a, c))
                if left_arc(c, a) is True and left_arc(c, b) is not True:
                    if up[b] & (1 << c) or left_arc(b, c) is True:
                        return False
                    if not up[c] & (1 << b):
                        queue.append((c, b))
                # right-to-left transitivity: arc there is b->a
                if rho_arc(a, c) is True and rho_arc(b, c) is not True:
                    if rho_arc(c, b) is True:
                        return False
                    if not up[b] & (1 << c):
                        queue.append((c, b))
                if rho_arc(c, b) is True and rho_arc(c, a) is not True:
                    if rho_arc(a, c) is True:
                        return False
                    if not up[c] & (1 << a):
                        queue.append((a, c))
        return True

    def rho_arc(a, b):
        """Truth of 'a precedes b in the right-to-left sweep', or None."""
        if up[a] & (1 << b):
            return True
        if up[b] & (1 << a):
            return False
        got = left_arc(a, b)
        return None if got is None else not got

    def solve(k):
        while k < len(pairs) and state[k] != 0:
            k += 1
        if k == len(pairs):
            return True
        x, y = pairs[k]
        for a, b in ((x, y), (y, x)):
            trail = []
            if set_left(a, b, trail) and solve(k + 1):
                return True
            for i in trail:
                state[i] = 0
        return False

    if not solve(0):
        return None
    left = [p if state[i] > 0 else (p[1], p[0]) for i, p in enumerate(pairs)]
    return validate(n, cover_list, left)


def _bounded_covers(up):
    """A labelled poset on k points between a new bottom 0 and top k + 1."""
    k = len(up)
    covers = [(0, x + 1) for x in range(k)] + [(x + 1, k + 1) for x in range(k)]
    covers += [(x + 1, y + 1) for x in range(k) for y in bits(up[x] & ~(1 << x))]
    return k + 2, covers or [(0, 1)]


def _grid_covers(k):
    """The k x k x k grid, element (a, b, c) numbered a*k*k + b*k + c."""
    return k ** 3, [
        (i, i + s) for i in range(k ** 3) for s in (k * k, k, 1)
        if i // s % k < k - 1
    ]


def _random_two_dimensional_orders(rng):
    for n in range(20, 61, 8):
        perm = list(range(1, n - 1))
        rng.shuffle(perm)
        names = list(range(n))
        rng.shuffle(names)
        covers = list(qp.relabel(qp.from_canonical(perm), names).cover_pairs())
        rng.shuffle(covers)
        yield n, covers


def test_order_dimension_le2_matches_the_backtracking_solver():
    inputs = [_bounded_covers(up) for k in range(6) for up in _labeled_posets(k)]
    assert len(inputs) == 4474
    inputs += [_bounded_covers(up) for up in _labeled_posets(6)[::25]]
    inputs += [qp.boolean_cube_covers(), _grid_covers(3)]
    inputs += _random_two_dimensional_orders(random.Random(5))
    wider = 0
    for n, covers in inputs:
        got = qp.order_dimension_le2(n, covers)
        want = _order_dimension_le2_reference(n, covers)
        assert (got is None) == (want is None), (n, covers)
        if got is None:
            wider += 1
        else:
            assert _order_fold(got)["up"] == _order_fold(want)["up"], (n, covers)
    # 37 sampled six-point posets, the cube and the grid have dimension three
    assert wider == 39


# -- diagram_from_chains against the version that oriented the order first --


def _diagram_from_chains_reference(n, covers, left_chain, right_chain):
    """Rebuild the unique diagram of a slim semimodular lattice with the
    given boundary chains.

    ``covers`` describe the bare order (no left relation).  The two chains
    must be maximal chains that jointly contain every join-irreducible
    element; the orientation is then forced: x is left of y exactly when
    x's left support is strictly higher and its right support strictly
    lower than y's, so the diagram is drawn from the support heights.
    """
    try:
        oriented = qp.order_dimension_le2(n, covers)
    except (NotAPartialOrder, NotBounded) as e:
        raise qp.NotSlimSemimodular(f"not a lattice order: {e}") from e
    if oriented is None:
        raise qp.NotSlimSemimodular("order dimension exceeds two")
    qp.require_slim_semimodular(oriented)
    t = qp.lattice_tables(oriented)
    left_chain = tuple(left_chain)
    right_chain = tuple(right_chain)
    upcov = _cover_masks(oriented)["upcov"]
    for chain in (left_chain, right_chain):
        if not chain or chain[0] != oriented.bottom or chain[-1] != oriented.top:
            raise ValueError("chains must run from the bottom to the top")
        for a, b in zip(chain, chain[1:]):
            if not upcov[a] & (1 << b):
                raise ValueError(f"({a}, {b}) is not a covering step")
    covered = set(left_chain) | set(right_chain)
    missing = sorted(t.jir - covered)
    if missing:
        raise qp.ChainsDoNotCoverJir(
            f"join-irreducible elements {missing} lie on neither chain"
        )
    # a support's height on its chain is the number of members below x
    return _dominance_diagram([
        (sum(oriented.leq(c, x) for c in right_chain),
         sum(oriented.leq(c, x) for c in left_chain))
        for x in range(n)
    ])


def _random_chain(rng, up):
    """A random maximal chain of the bounded order with up masks ``up``."""
    x = next(x for x in range(len(up)) if up[x] == (1 << len(up)) - 1)
    chain = [x]
    while up[x] != 1 << x:
        above = up[x] & ~(1 << x)
        x = rng.choice([y for y in bits(above)
                        if not any(up[z] >> y & 1 for z in bits(above & ~(1 << y)))])
        chain.append(x)
    return tuple(chain)


def _malformed(lc, rc):
    """Three chain pairs that are not two maximal chains: a chain stopping
    short of the top, one skipping or repeating a step, one run downwards."""
    skipped = lc[:1] + lc[2:] if len(lc) > 2 else lc + lc[-1:]
    return [(lc[:-1], rc), (skipped, rc), (lc, rc[::-1])]


def _chain_inputs(max_size, rng):
    """(n, covers, left chain, right chain) for q, β1 and β2 of every
    diagram through ``max_size``, every bounded poset on at most
    ``max_size`` elements, the Boolean cube and two orders that are not
    bounded posets."""
    for size in range(2, max_size + 1):
        for q in qp.enumerate_quasiplanar(size):
            for d in (q, qp.lattice_from_pairs(q), qp.lattice_from_filters(q)):
                covers = list(d.cover_pairs())
                chains = qp.maximal_chains(d)
                pairs = [(lc, rc) for lc in chains for rc in chains]
                for lc, rc in rng.sample(pairs, min(40, len(pairs))):
                    yield d.n, covers, lc, rc
                lc, rc = rng.choice(pairs)
                for bad in _malformed(lc, rc):
                    yield (d.n, covers, *bad)
    for k in range(max_size - 1):
        for base in _labeled_posets(k):
            n, covers = _bounded_covers(base)
            up = _order(n, covers)
            for _ in range(2):
                yield n, covers, _random_chain(rng, up), _random_chain(rng, up)
            yield (n, covers, *rng.choice(_malformed(
                _random_chain(rng, up), _random_chain(rng, up)
            )))
    n, covers = qp.boolean_cube_covers()
    chains = {_random_chain(rng, _order(n, covers)) for _ in range(200)}
    assert len(chains) == 6
    for lc in chains:
        for rc in chains:
            yield n, covers, lc, rc
    yield 3, [(0, 1), (1, 0)], (0, 1), (0, 1)
    yield 3, [(0, 1)], (0, 1), (0, 1)


def _chains_outcome(rebuild, n, covers, lc, rc):
    try:
        d = rebuild(n, covers, lc, rc)
    except ValueError as e:
        return type(e), str(e)
    return d.lam_pos, d.rho_pos


def _draws_the_order_by_masks(n, covers, lc, rc):
    """Whether the support heights draw the input order, by comparing the
    drawing's up masks with the input's, as diagram_from_chains did before it
    asked the sweeps; None for input refused before the drawing."""
    try:
        cover_list, _ = diagram._checked(n, covers)
        up = _order(n, cover_list)
        lc = diagram._chain_members(n, lc, "left_chain")
        rc = diagram._chain_members(n, rc, "right_chain")
    except ValueError:
        return None
    heights = zip(transform._heights(up, rc), transform._heights(up, lc))
    return list(_order_fold(_dominance_diagram([*heights]))["up"]) == up


def _assert_chains_match_the_reference(monkeypatch, max_size, seed):
    # the solver runs exactly where the mask comparison found the drawing
    # off the input order
    kinds, solved = {}, []
    _counting(monkeypatch, transform, "_oriented", solved)
    for n, covers, lc, rc in _chain_inputs(max_size, random.Random(seed)):
        want = _chains_outcome(_diagram_from_chains_reference, n, covers, lc, rc)
        solved.clear()
        got = _chains_outcome(qp.diagram_from_chains, n, covers, lc, rc)
        assert got == want, (n, covers, lc, rc)
        draws = _draws_the_order_by_masks(n, covers, lc, rc)
        assert solved == ([] if draws in (None, True) else ["_oriented"]), (n, covers, lc, rc)
        if isinstance(want[0], type):
            kind = f"{want[0].__name__}: {want[1].split(':')[0]}"
            kind = kind if want[0] is qp.NotSlimSemimodular else want[0].__name__
        else:
            kind = "accepted"
        kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def test_diagram_from_chains_matches_the_reference_through_size_6(monkeypatch):
    # 2364 inputs
    assert _assert_chains_match_the_reference(monkeypatch, 6, seed=10) == {
        "accepted": 284,
        "ValueError": 342,
        "ChainsDoNotCoverJir": 1053,
        "NotSlimSemimodular: lattice is not semimodular": 525,
        "NotSlimSemimodular: join-irreducibles contain a 3-element antichain": 85,
        "NotSlimSemimodular: not a lattice": 37,
        "NotSlimSemimodular: order dimension exceeds two": 36,
        "NotSlimSemimodular: not a lattice order": 2,
    }


@pytest.mark.slow
def test_diagram_from_chains_matches_the_reference_through_size_7(monkeypatch):
    # 25 490 inputs
    assert _assert_chains_match_the_reference(monkeypatch, 7, seed=11) == {
        "accepted": 1292,
        "ValueError": 1785,
        "ChainsDoNotCoverJir": 9480,
        "NotSlimSemimodular: lattice is not semimodular": 10214,
        "NotSlimSemimodular: join-irreducibles contain a 3-element antichain": 836,
        "NotSlimSemimodular: not a lattice": 1845,
        "NotSlimSemimodular: order dimension exceeds two": 36,
        "NotSlimSemimodular: not a lattice order": 2,
    }
