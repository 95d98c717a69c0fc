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
pairs are equinumerous".  The constructions here only construct; the
laws they obey are checked by :func:`~quasiplanar.enumeration.verify_suite`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .diagram import _dominance_diagram, _maximal_in, _minimal_in, bits
from .errors import InvalidGroundElement
from .lattice import require_slim_semimodular

WeakLeftPair = tuple[int, int]


def _ground_mask(d):
    """Everything above the bottom, as a mask."""
    return ((1 << d.n) - 1) & ~(1 << d.bottom)


def _check_distinct_ends(d):
    if d.bottom == d.top:
        raise ValueError("diagram must have distinct bottom and top")


def _ground_element(d, e):
    """``e`` as an integer above the bottom of ``d``, else InvalidGroundElement."""
    try:
        e = operator.index(e)
    except TypeError:
        raise InvalidGroundElement(
            f"element of type {type(e).__name__} is not an integer"
        ) from None
    if not 0 <= e < d.n or e == d.bottom:
        raise InvalidGroundElement(
            f"element {e} is not above the bottom of the diagram"
        )
    return e


def weak_left_pairs(d):
    """All pairs (x, y) with x above the bottom and x equal to or left of y.

    Sorted by (sweep position of x, reverse-sweep position of y), which is
    the left-to-right reading order of the lattice they form; see
    :func:`lattice_from_pairs`.
    """
    _check_distinct_ends(d)
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


def _pair_mask(d, x, y):
    """The filter of the weak left pair (x, y): the up-closure, as a mask, of
    the elements z with x equal to or left of z and z equal to or left of y."""
    mask = 0
    for z in bits((d.lft[x] | 1 << x) & (d.rgt[y] | 1 << y)):
        mask |= d.up[z]
    return mask


def _pair_filters(d):
    """(size, elements, pair) of each weak left pair's filter, in label order."""
    found = []
    for x, y in weak_left_pairs(d):
        mask = _pair_mask(d, x, y)
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


def hco_closure(d, elements):
    """The smallest horizontally convex filter containing ``elements``.

    That is the filter of the weak left pair (leftmost, rightmost minimal
    element of ``elements``): it holds both legs, hence every minimal
    element between them and everything above.  The closure of no elements
    is {top}, the filter of the pair (top, top).
    """
    _check_distinct_ends(d)
    elems = {_ground_element(d, e) for e in elements}
    x, y = _pair_key(d, elems) if elems else (d.top, d.top)
    return frozenset(bits(_pair_mask(d, x, y)))


def min_between(d, x, y):
    """Minimal elements horizontally between the legs of a weak left pair.

    An element z counts as between when x is equal to or left of z and z is
    equal to or left of y.  The up-closure of the result is exactly
    ``hco_closure(d, (x, y))``; the test suite checks that identity on
    every enumerated diagram.
    """
    x, y = _ground_element(d, x), _ground_element(d, y)
    if x != y and not d.left(x, y):
        raise ValueError(f"({x}, {y}) is not a weak left pair")
    betw = 0
    for z in bits(_ground_mask(d)):
        if (z == x or d.left(x, z)) and (z == y or d.left(z, y)):
            betw |= 1 << z
    return tuple(_minimal_in(d, betw))


def _pair_key(d, fset):
    """The (leftmost, rightmost) minimal elements of ``fset``."""
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

    Returns (to_filter, to_pair): each pair's filter as built by
    :func:`enumerate_hco_filters` on one side, each filter's (leftmost,
    rightmost) minimal elements on the other.  That the maps invert each
    other and carry the componentwise pair order to reverse inclusion is
    the law "pair and filter maps are reciprocal".
    """
    to_filter = {p: frozenset(elems) for _, elems, p in _pair_filters(d)}
    to_pair = {f: _pair_key(d, f) for f in to_filter.values()}
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
    within the ground set between bottom and top.  Its four defining laws
    (empty set feasible, covering the ground, union closure, accessibility)
    make up the law "filter complements form an antimatroid".
    """
    full = frozenset(bits(_ground_mask(d)))
    feasible = frozenset(full - f for f in enumerate_hco_filters(d).filters)
    return Antimatroid(frozenset(d.interior()), feasible)


def meet_irreducible_filters(d):
    """Principal filters of interior elements, as the meet-irreducibles.

    Returns {x: everything above x} for interior x.  That these filters are
    exactly the ones the meet-irreducible elements of the filter lattice
    carry, and that the left relation transports along x -> its filter, is
    the law "meet irreducibles carry principal filters".
    """
    _check_distinct_ends(d)
    return {x: frozenset(bits(d.up[x])) for x in d.interior()}
