"""Constructions connecting diagrams, filter families, and pair lattices.

A valid diagram Q induces, on the elements above its bottom, a family of
*horizontally convex filters*: nonempty up-closed sets X such that whenever
x and z lie in X and y sits horizontally between them (x left of y left of
z), y lies in X too.  Ordered by reverse inclusion these filters form a
slim semimodular lattice, and the same lattice appears a second way as the
set of *weak left pairs* (x, y) with x equal to or left of y, ordered
componentwise along the two sweeps.  Both constructions are built here,
together with the reciprocal maps between pairs and filters, the inverse
construction recovering Q from a slim semimodular lattice diagram, and the
antimatroid of filter complements.

The filters are never searched for: each weak left pair (x, y) yields one,
the up-closure of the elements weakly between x and y, and every filter
arises from exactly one pair.  That takes O(n) mask operations per pair
instead of a test of all 2^n subsets.  The definition-level scan lives on
in :mod:`quasiplanar.enumeration` as the oracle of the law "filters and weak
pairs are equinumerous", and :func:`pair_filter_maps` recomputes each
filter's pair independently of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import _dominance_diagram, _maximal_in, _minimal_in, bits
from .errors import InvalidGroundElement, LawViolation
from .lattice import require_slim_semimodular

WeakLeftPair = tuple[int, int]


def _ground_mask(d):
    """Everything above the bottom, as a mask."""
    return ((1 << d.n) - 1) & ~(1 << d.bottom)


def weak_left_pairs(d):
    """All pairs (x, y) with x above the bottom and x equal to or left of y.

    Sorted by (sweep position of x, reverse-sweep position of y), which is
    the left-to-right reading order of the lattice they form; see
    :func:`lattice_from_pairs`.
    """
    if d.bottom == d.top:
        raise ValueError("diagram must have distinct bottom and top")
    ground = _ground_mask(d)
    pairs = [(x, x) for x in bits(ground)]
    pairs += [
        (x, y) for x in bits(ground) for y in bits(d.lft[x] & ground)
    ]
    pairs.sort(key=lambda p: (d.lam_pos[p[0]], d.rho_pos[p[1]]))
    return tuple(pairs)


@dataclass(frozen=True)
class FilterFamily:
    """Every horizontally convex filter of a diagram, plus its two peelings.

    ``filters`` holds one filter per weak left pair, the up-closure of the
    elements weakly between its legs, sorted by (size, elements); that is
    the label order used by :func:`lattice_from_filters`.  ``left_chain``
    and ``right_chain`` run from the full ground set down to the singleton
    top, shrinking by one element per step; ``left_steps[i]`` is the
    element removed from ``left_chain[i]``, dually for the right.  Under
    reverse inclusion the chains are the two boundary chains of the filter
    lattice.
    """

    filters: tuple[frozenset[int], ...]
    left_chain: tuple[frozenset[int], ...]
    right_chain: tuple[frozenset[int], ...]
    left_steps: tuple[int, ...]
    right_steps: tuple[int, ...]


def _peel(d, leftmost):
    """Grow {top} to the full ground set one element at a time.

    Each step adds a maximal element of the complement: the leftmost one
    for the left peeling, the rightmost for the right peeling.  Returns the
    shrinking chain (ground set first) and the removed elements in step
    order.
    """
    ground = _ground_mask(d)
    chain = [1 << d.top]
    steps = []
    while chain[-1] != ground:
        rest = ground & ~chain[-1]
        choices = _maximal_in(d, rest)
        pick = (min if leftmost else max)(
            choices, key=d.lam_pos.__getitem__
        )
        steps.append(pick)
        chain.append(chain[-1] | (1 << pick))
    chain.reverse()
    steps.reverse()
    return chain, steps


def _pair_filters(d):
    """(size, elements, pair) of each weak left pair's filter, in label order.

    The filter of (x, y) is the up-closure of the elements z with x equal to
    or left of z and z equal to or left of y.
    """
    found = []
    for x, y in weak_left_pairs(d):
        mask = 0
        for z in bits((d.lft[x] | 1 << x) & (d.rgt[y] | 1 << y)):
            mask |= d.up[z]
        found.append((mask.bit_count(), list(bits(mask)), (x, y)))
    found.sort()
    return found


def enumerate_hco_filters(d):
    """Collect every horizontally convex filter of ``d`` into a family.

    Built from the weak left pairs, one filter each, in O(n) mask
    operations per pair; the law suite compares the result with a scan of
    every subset against the definition.
    """
    filters = tuple(frozenset(elems) for _, elems, _ in _pair_filters(d))
    left_chain, left_steps = _peel(d, leftmost=True)
    right_chain, right_steps = _peel(d, leftmost=False)
    return FilterFamily(
        filters,
        tuple(frozenset(bits(m)) for m in left_chain),
        tuple(frozenset(bits(m)) for m in right_chain),
        tuple(left_steps),
        tuple(right_steps),
    )


def hco_closure(d, elements, family=None):
    """The smallest horizontally convex filter containing ``elements``.

    The family is intersection closed and the full ground set belongs to
    it, so the closure is the intersection of every member containing the
    input.  Pass a precomputed ``family`` to skip re-enumeration.
    """
    want = 0
    for e in elements:
        e = int(e)
        if not 0 <= e < d.n or e == d.bottom:
            raise InvalidGroundElement(
                f"element {e} is not above the bottom of the diagram"
            )
        want |= 1 << e
    if family is None:
        family = enumerate_hco_filters(d)
    out = _ground_mask(d)
    for f in family.filters:
        m = 0
        for e in f:
            m |= 1 << e
        if not want & ~m:
            out &= m
    return frozenset(bits(out))


def min_between(d, x, y):
    """Minimal elements horizontally between the legs of a weak left pair.

    An element z counts as between when x is equal to or left of z and z is
    equal to or left of y.  The up-closure of the result is exactly
    ``hco_closure(d, (x, y))``; the test suite checks that identity on
    every enumerated diagram.
    """
    for e in (x, y):
        if not 0 <= e < d.n or e == d.bottom:
            raise InvalidGroundElement(
                f"element {e} is not above the bottom of the diagram"
            )
    if x != y and not d.left(x, y):
        raise ValueError(f"({x}, {y}) is not a weak left pair")
    betw = 0
    for z in bits(_ground_mask(d)):
        if (z == x or d.left(x, z)) and (z == y or d.left(z, y)):
            betw |= 1 << z
    return tuple(_minimal_in(d, betw))


def _pair_key(d, fset):
    """(sweep position of leftmost, reverse position of rightmost) minimal element."""
    m = 0
    for e in fset:
        m |= 1 << e
    mins = _minimal_in(d, m)
    lmost = min(mins, key=d.lam_pos.__getitem__)
    rmost = max(mins, key=d.lam_pos.__getitem__)
    return lmost, rmost


def lattice_from_pairs_labeled(d):
    """The weak-left-pair lattice of ``d`` with its element labels.

    Pair (x1, y1) lies below (x2, y2) when x1 is weakly before x2 in the
    left-to-right sweep and y1 weakly before y2 in the right-to-left sweep;
    it lies to the left when the first holds strictly and the second is
    strictly reversed.  Returns (diagram, labels) with ``labels[i]`` the
    pair carried by element i.
    """
    pairs = weak_left_pairs(d)
    keys = [(d.lam_pos[x], d.rho_pos[y]) for x, y in pairs]
    return _dominance_diagram(keys), pairs


def lattice_from_pairs(d):
    """The weak-left-pair lattice of ``d`` as a diagram."""
    return lattice_from_pairs_labeled(d)[0]


def lattice_from_filters_labeled(d):
    """The filter lattice of ``d`` with its element labels.

    Filters are ordered by reverse inclusion and drawn with F left of G
    when F's leftmost minimal element sweeps strictly before G's and F's
    rightmost minimal element strictly after G's in the reverse sweep.
    Both relations are read off the key (sweep position of the leftmost,
    reverse position of the rightmost minimal element) as in
    :func:`lattice_from_pairs`.  Each filter is built from a weak left
    pair (x, y), and x and y are its leftmost and rightmost minimal
    elements, so the key is taken straight from the pair.  That the keys
    ordered componentwise are the filters ordered by reverse inclusion,
    and that each filter's minimal elements give back its pair, is
    checked by the law "pair and filter maps are reciprocal".  Returns
    (diagram, labels) with ``labels[i]`` the filter carried by element i.
    """
    found = _pair_filters(d)
    keys = [(d.lam_pos[x], d.rho_pos[y]) for _, _, (x, y) in found]
    filters = tuple(frozenset(elems) for _, elems, _ in found)
    return _dominance_diagram(keys), filters


def lattice_from_filters(d):
    """The horizontally convex filter lattice of ``d`` as a diagram."""
    return lattice_from_filters_labeled(d)[0]


def pair_filter_maps(d):
    """The reciprocal bijections between weak left pairs and filters.

    Returns (to_filter, to_pair): the closure of a pair's two legs on one
    side, the (leftmost, rightmost) minimal elements on the other.  The
    maps are checked to invert each other and to carry the componentwise
    pair order to reverse inclusion; a failure raises LawViolation.
    """
    fam = enumerate_hco_filters(d)
    pairs = weak_left_pairs(d)
    to_filter = {p: hco_closure(d, p, fam) for p in pairs}
    to_pair = {f: _pair_key(d, f) for f in fam.filters}
    if sorted(to_filter.values(), key=sorted) != sorted(fam.filters, key=sorted):
        raise LawViolation("pair closures do not exhaust the filters")
    for p in pairs:
        if to_pair[to_filter[p]] != p:
            raise LawViolation(f"round trip moved the pair {p}")
    for f in fam.filters:
        if to_filter[to_pair[f]] != f:
            raise LawViolation(f"round trip moved a filter {sorted(f)}")
    for p1 in pairs:
        for p2 in pairs:
            below = (
                d.lam_pos[p1[0]] <= d.lam_pos[p2[0]]
                and d.rho_pos[p1[1]] <= d.rho_pos[p2[1]]
            )
            if below != (to_filter[p2] <= to_filter[p1]):
                raise LawViolation(
                    f"pair order and filter order disagree at {p1}, {p2}"
                )
    return to_filter, to_pair


def to_quasiplanar(d):
    """Rebuild the diagram whose filter lattice ``d`` is.

    Keeps the meet-irreducible elements and the top, adds a fresh bottom
    labeled 0, and restricts the order and left relation; the input must be
    a slim semimodular lattice diagram.  Labels 1.. follow the original
    label order of the kept elements.
    """
    t = require_slim_semimodular(d)
    keep = sorted(t.mir | {d.top})
    # the fresh bottom's key sorts first in both sweeps
    keys = [(-1, -1)] + [(d.lam_pos[x], d.rho_pos[x]) for x in keep]
    return _dominance_diagram(keys)


@dataclass(frozen=True)
class Antimatroid:
    """A union-closed accessible set system covering its ground set."""

    ground: frozenset[int]
    feasible: frozenset[frozenset[int]]


def antimatroid_of(d):
    """The antimatroid of filter complements of ``d``.

    Feasible sets are the complements of the horizontally convex filters
    within the ground set between bottom and top.  The four defining laws
    (empty set feasible, accessibility, union closure, covering the
    ground) are checked before returning; a failure raises LawViolation.
    """
    fam = enumerate_hco_filters(d)
    ground = frozenset(d.interior())
    full = frozenset(bits(_ground_mask(d)))
    feasible = frozenset(full - f for f in fam.filters)
    if frozenset() not in feasible:
        raise LawViolation("empty set must be feasible")
    union = frozenset()
    for a in feasible:
        union |= a
    if union != ground:
        raise LawViolation("feasible sets must cover the ground set")
    for a in feasible:
        for b in feasible:
            if a | b not in feasible:
                raise LawViolation(
                    f"union of feasible sets {sorted(a)} and {sorted(b)} escapes"
                )
    for a in feasible:
        if a and not any(a - {x} in feasible for x in a):
            raise LawViolation(
                f"feasible set {sorted(a)} has no removable element"
            )
    return Antimatroid(ground, feasible)


def meet_irreducible_filters(d):
    """Principal filters of interior elements, as the meet-irreducibles.

    The meet-irreducible elements of the filter lattice of ``d`` carry
    exactly the filters of the form "everything above x" for interior x,
    and the left relation transports along x -> that filter.  Both facts
    are checked, a failure raising LawViolation; returns {x: its principal
    filter}.
    """
    dd, filters = lattice_from_filters_labeled(d)
    t = require_slim_semimodular(dd)
    principal = {
        x: frozenset(bits(d.up[x])) for x in d.interior()
    }
    from_mir = {filters[i] for i in t.mir}
    if set(principal.values()) != from_mir:
        raise LawViolation(
            "meet-irreducible filters are not the principal interior filters"
        )
    index = {f: i for i, f in enumerate(filters)}
    for x in d.interior():
        for y in d.interior():
            if d.incomparable(x, y) and d.left(x, y) != dd.left(
                index[principal[x]], index[principal[y]]
            ):
                raise LawViolation(
                    f"left relation does not transport at ({x}, {y})"
                )
    return principal
