"""The fast constructions against their slow, definition-level versions.

A diagram is built from its two sweep positions; every construction that
used to assemble order and left masks by hand now computes positions
instead.  The mask-building versions live on here as oracles, next to a
subset scan for the filter family, the intersection of the filters as
the closure, a minimal-bounds search for the lattice tables, the triple
scan for slimness, meet representations over every meet-irreducible, the
all-pairs ``validate`` that read the order twice, and the backtracking
solver that oriented a bare order before implication classes did.
"""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import quasiplanar as qp
from quasiplanar.diagram import (
    Diagram, _check_pairs, _listed, _order, bits, validate,
)
from quasiplanar.enumeration import _labeled_posets
from quasiplanar.transform import _ground_mask
from quasiplanar.errors import (
    LeftIncomplete,
    LeftOnComparable,
    NotAPartialOrder,
    NotBounded,
    NotLinearizable,
)

FIELDS = ("n", "up", "lft", "dn", "rgt", "upcov", "dncov", "bottom", "top",
          "lam_pos", "rho_pos", "lam_order", "rho_order")


def _masks(d):
    return d.n, d.up, d.lft


def _relabelled(max_size):
    """Every diagram through ``max_size``, canonically labeled and shuffled."""
    for size in range(2, max_size + 1):
        for q in qp.enumerate_quasiplanar(size):
            yield q
            yield qp.relabel(q, tuple(reversed(range(size))))
            yield qp.relabel(q, tuple(range(1, size)) + (0,))


# -- Diagram(lam_pos, rho_pos) against pairwise dominance ------------------


def _dominance(lam, rho):
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
    return {
        "n": n,
        "up": up,
        "dn": dn,
        "lft": tuple(
            mask(lambda x, y: lam[x] < lam[y] and rho[x] > rho[y], x)
            for x in range(n)
        ),
        "rgt": tuple(
            mask(lambda x, y: lam[x] > lam[y] and rho[x] < rho[y], x)
            for x in range(n)
        ),
        "upcov": tuple(mask(covers, x) for x in range(n)),
        "dncov": tuple(mask(lambda x, y: covers(y, x), x) for x in range(n)),
        "bottom": next(x for x in range(n) if dn[x] == 1 << x),
        "top": next(x for x in range(n) if up[x] == 1 << x),
        "lam_pos": tuple(lam),
        "rho_pos": tuple(rho),
        "lam_order": tuple(sorted(range(n), key=lam.__getitem__)),
        "rho_order": tuple(sorted(range(n), key=rho.__getitem__)),
    }


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
                want = _dominance(lam, rho)
                assert {f: getattr(d, f) for f in FIELDS} == want
                valid[n] += 1
    # n! choices of lam_pos, (n - 2)! of rho_pos sharing its first and last
    assert valid == {1: 1, 2: 2, 3: 6, 4: 48, 5: 720}


def test_positions_are_the_identity():
    d = qp.capped_diamond()
    assert qp.Diagram(list(d.lam_pos), iter(d.rho_pos)) == d
    assert hash(qp.Diagram(d.lam_pos, d.rho_pos)) == hash(d)
    assert qp.Diagram(d.lam_pos, d.rho_pos) != qp.mirror(d)


# -- the mask-loop versions of the position-built constructions ------------


def _mirror_by_masks(d):
    return d.n, d.up, d.rgt


def _relabel_by_masks(d, new_of_old):
    n = d.n
    up = [0] * n
    lft = [0] * n
    for x in range(n):
        nx = new_of_old[x]
        for y in bits(d.up[x]):
            up[nx] |= 1 << new_of_old[y]
        for y in bits(d.lft[x]):
            lft[nx] |= 1 << new_of_old[y]
    return n, tuple(up), tuple(lft)


def _restrict_by_masks(d, members, offset):
    """Masks induced on sorted ``members``, relabeled from ``offset``."""
    new_of_old = {old: new + offset for new, old in enumerate(members)}
    m = len(members) + offset
    up = [0] * m
    lft = [0] * m
    for old in members:
        new = new_of_old[old]
        for y in bits(d.up[old]):
            if y in new_of_old:
                up[new] |= 1 << new_of_old[y]
        for y in bits(d.lft[old]):
            if y in new_of_old:
                lft[new] |= 1 << new_of_old[y]
    return up, lft


def _interval_by_masks(d, lo, hi):
    up, lft = _restrict_by_masks(d, sorted(bits(d.up[lo] & d.dn[hi])), 0)
    return len(up), tuple(up), tuple(lft)


def _to_quasiplanar_by_masks(d):
    t = qp.require_slim_semimodular(d)
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
            for hi in bits(d.up[lo]):
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
                assert getattr(got, f) == getattr(want, f), f


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


# -- the lattice tables against the minimal-bounds search ------------------


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
    failures = 0
    for d in _relabelled(7):
        want = _bounds_by_search(d)
        if isinstance(want[0], str):
            failures += 1
            with pytest.raises(qp.NotALattice) as exc:
                qp.lattice_tables(d)
            assert (str(exc.value), exc.value.witness) == want
        else:
            assert qp.is_lattice(d)
    assert failures > 0


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
            t = qp.require_slim_semimodular(d)
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


def _assert_same_outcome(n, covers, left):
    want = _outcome(_validate_reference, n, covers, left)
    assert _outcome(qp.validate, n, covers, left) == want, (n, covers, left)
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
    assert kinds == {Diagram, NotAPartialOrder, NotBounded, LeftOnComparable,
                     LeftIncomplete, NotLinearizable}


def test_validate_matches_the_reference_on_every_diagram_and_its_defects():
    rng = random.Random(7)
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
            # a left pair dropped, reversed, or doubled in reverse
            _assert_same_outcome(d.n, covers, left[:i] + left[i + 1:])
            _assert_same_outcome(d.n, covers, left[:i] + [flipped] + left[i + 1:])
            _assert_same_outcome(d.n, covers, left + [flipped])


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
            assert got.up == want.up, (n, covers)
    # 37 sampled six-point posets, the cube and the grid have dimension three
    assert wider == 39
