"""Constructions connecting diagrams, filter families, and pair lattices.

A valid diagram Q induces, on the elements above its bottom, a family of
*horizontally convex filters*: nonempty up-closed sets X such that whenever
x and z lie in X and y sits horizontally between them (x left of y left of
z), y lies in X too.  Ordered by reverse inclusion these filters form a
slim semimodular lattice, and the same lattice appears a second way as the
set of *weak left pairs* (x, y) with x equal to or left of y, ordered
componentwise along the two sweeps.  Both constructions are built here,
together with the reciprocal maps between pairs and filters, the inverse
construction recovering Q from a slim semimodular lattice diagram or from
its order and boundary chains, the slim-semimodular gate that the inverse's
certificate decides with the functions that go through it (boundary chains,
supports, lattice isomorphism), and the antimatroid of filter complements.

The filters are never searched for: each weak left pair (x, y) yields one,
the up-closure of the elements weakly between x and y, and every filter
arises from exactly one pair.  That up-closure is the quadrant of the
elements at or after x in one sweep and y in the other: one AND of two masks
per pair, not a test of all 2^n subsets, and the mask is the filter until
a caller asks for its elements.  The definition-level scan lives on
in :mod:`quasiplanar.enumeration` as the oracle of the law "filters and weak
pairs are equinumerous".  The constructions here only construct; the laws
they obey are checked by :func:`~quasiplanar.enumeration.verify_suite`.
"""

from __future__ import annotations

import operator
from bisect import bisect
from dataclasses import dataclass

from .diagram import (
    _certified,
    _chain_members,
    _checked,
    _dominance_diagram,
    _extremes_in,
    _order,
    _oriented,
    _shown,
    _suffix_masks,
    bits,
    mirror,
    similar,
)
from .errors import (
    ChainsDoNotCoverJir,
    InvalidGroundElement,
    NotAPartialOrder,
    NotBounded,
    NotSlimSemimodular,
)
from .lattice import (
    _cover_walks, _jir, _mir, _nar, _slim_semimodular_tables, _supports,
    interval_subdiagram, lattice_tables,
)

WeakLeftPair = tuple[int, int]


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
            f"element {_shown(e)} is not above the bottom of the diagram"
        )
    return e


def weak_left_pairs(d):
    """All pairs (x, y) with x above the bottom and x equal to or left of y.

    Sorted by (sweep position of x, reverse-sweep position of y), which is
    the left-to-right reading order of the lattice they form; see
    :func:`lattice_from_pairs`.
    """
    _check_distinct_ends(d)
    pairs = [(x, x) for x in range(d.n) if x != d.bottom]
    pairs += d.left_pairs()  # the bottom is below everything, left of nothing
    pairs.sort(key=lambda p: (d.lam_pos[p[0]], d.rho_pos[p[1]]))
    return tuple(pairs)


@dataclass(frozen=True)
class FilterFamily:
    """Every horizontally convex filter of a diagram, plus its two peelings.

    ``filters`` holds one filter per weak left pair, the up-closure of the
    elements weakly between its legs, sorted by (size, elements); that is
    the label order of :func:`lattice_from_filters_labeled`, which
    :func:`_pair_filters` reads off the filters' masks.  ``left_chain``
    and ``right_chain`` run from the full ground set down to the singleton
    top, shrinking by one element per step; ``left_steps[i]`` is the
    element removed from ``left_chain[i]``, dually for the right.  The left
    steps are the right-to-left sweep without its two ends, and
    ``left_chain[i]`` is that sweep from position i + 1 on; the right
    peeling reads the left-to-right sweep (see :func:`_peel`).  Under
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

    The leftmost maximal element of a set is its last one in the
    right-to-left sweep: nothing later there lies above it, and each other
    maximal element, incomparable to it and earlier in that sweep, lies to
    its right.  So the left peeling adds that sweep backwards, the bottom
    and top left out, and its chain is the sweep's suffixes from position
    1 on; the right peeling does the same on the left-to-right sweep.
    """
    order = d.rho_order if leftmost else d.lam_order
    return tuple(frozenset(order[i:]) for i in range(1, d.n)), order[1:-1]


def _quadrant(d, x, y):
    """The elements at or after x in the left-to-right sweep and at or after
    y in the right-to-left sweep: the filter of the weak left pair (x, y)."""
    rho = d.rho_pos
    return frozenset(z for z in d.lam_order[d.lam_pos[x]:] if rho[z] >= rho[y])


def _pair_filters(d):
    """Each weak left pair with its filter's mask, in label order.

    The filter of (x, y) is the quadrant after x in one sweep, y in the
    other, one AND of two suffix masks.  The masks are over reversed
    labels, element z at bit n - 1 - z, so the label order (size, sorted
    elements) is (popcount, -mask): of two filters of one size, the one
    holding the lowest element the other lacks has that element's bit, the
    highest that differs, and so the larger mask.  No element is listed
    here; :func:`_elements` decodes a mask for the callers that return
    filters.
    """
    lam, rho = d.lam_pos, d.rho_pos
    after_l, after_r = _suffix_masks(lam[::-1]), _suffix_masks(rho[::-1])
    found = [(p, after_l[lam[p[0]]] & after_r[rho[p[1]]]) for p in weak_left_pairs(d)]
    found.sort(key=lambda f: (f[1].bit_count(), -f[1]))
    return found


def _elements(n, mask):
    """The filter held by a mask of :func:`_pair_filters`, whose bit n - 1 - z
    stands for element z."""
    return frozenset(n - 1 - z for z in bits(mask))


def enumerate_hco_filters(d):
    """Collect every horizontally convex filter of ``d`` into a family.

    Built from the weak left pairs, one filter each, in one mask
    operation per pair; the law suite compares the result with a scan of
    every subset against the definition.
    """
    filters = tuple(_elements(d.n, mask) for _, mask in _pair_filters(d))
    left_chain, left_steps = _peel(d, leftmost=True)
    right_chain, right_steps = _peel(d, leftmost=False)
    return FilterFamily(filters, left_chain, right_chain, left_steps, right_steps)


def hco_closure(d, elements):
    """The smallest horizontally convex filter containing ``elements``.

    That is the filter of the weak left pair (leftmost, rightmost minimal
    element of ``elements``), which :func:`_pair_key` reads as the first
    element in each sweep, so the closure is the :func:`_quadrant` at and
    after those two sweep positions: it holds both, hence every minimal
    element between them and everything above.  The closure of no elements
    is {top}, the filter of the pair (top, top).
    """
    _check_distinct_ends(d)
    elems = {_ground_element(d, e) for e in elements}
    x, y = _pair_key(d, elems) if elems else (d.top, d.top)
    return _quadrant(d, x, y)


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
    # between: from x to y in one sweep, from y to x in the other
    lam, rho = d.lam_pos, d.rho_pos
    box = range(lam[x], lam[y] + 1), range(rho[y], rho[x] + 1)
    return tuple(_extremes_in(d, *box, lowest=True))


def _pair_key(d, fset):
    """The (leftmost, rightmost) minimal elements of ``fset``.

    Nothing in ``fset`` comes before its first element of the
    left-to-right sweep in both sweeps, so that element is minimal, and
    every other minimal element comes later in that sweep: it is the
    leftmost.  Dually its first element of the right-to-left sweep is the
    rightmost.
    """
    return min(fset, key=d.lam_pos.__getitem__), min(fset, key=d.rho_pos.__getitem__)


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
    keys = [(d.lam_pos[x], d.rho_pos[y]) for (x, y), _ in found]
    return _dominance_diagram(keys), tuple(_elements(d.n, mask) for _, mask in found)


def lattice_from_filters(d):
    """The horizontally convex filter lattice of ``d`` as a diagram.

    The labelled construction without its labels: it reads the pairs of
    :func:`_pair_filters` in label order and decodes no filter.
    """
    keys = [(d.lam_pos[x], d.rho_pos[y]) for (x, y), _ in _pair_filters(d)]
    return _dominance_diagram(keys)


def pair_filter_maps(d):
    """The reciprocal bijections between weak left pairs and filters.

    Returns (to_filter, to_pair): each pair's filter as built by
    :func:`enumerate_hco_filters` on one side, each filter's (leftmost,
    rightmost) minimal elements on the other.  That the maps invert each
    other and carry the componentwise pair order to reverse inclusion is
    the law "pair and filter maps are reciprocal".
    """
    to_filter = {p: _elements(d.n, mask) for p, mask in _pair_filters(d)}
    to_pair = {f: _pair_key(d, f) for f in to_filter.values()}
    return to_filter, to_pair


def to_quasiplanar(d):
    """Rebuild the diagram whose filter lattice ``d`` is.

    Keeps the meet-irreducible elements and the top, adds a fresh bottom
    labeled 0, and restricts the order and left relation; the input must be
    a slim semimodular lattice diagram.  Labels 1.. follow the original
    label order of the kept elements.

    :func:`_rebuilt` decides without lattice tables; only a rejected ``d``
    goes to the tables, which name the failure in NotSlimSemimodular.
    """
    alpha, certified = _rebuilt(d)
    if not certified:
        _slim_semimodular_tables(d)
    return alpha


def _rebuilt(d):
    """(alpha, certified): the diagram :func:`to_quasiplanar` draws from
    ``d``, and whether ``d`` is a slim semimodular lattice diagram.

    The verdict needs no lattice tables: every pair lattice is slim
    semimodular, so ``d`` is one if alpha's pair lattice is similar to it
    (sound), and by the paper's bijection every slim semimodular ``d`` is
    (complete).  That pair lattice, one element per element above the
    bottom and per left pair, is built only if the walk of
    ``Diagram._left_codes``, cut off past ``d.n``, counts ``d.n`` of them.
    """
    keep = sorted(_mir(d) | {d.top})
    # the fresh bottom's key sorts first in both sweeps
    keys = [(-1, -1)] + [(d.lam_pos[x], d.rho_pos[x]) for x in keep]
    alpha = _dominance_diagram(keys)
    # the walk of Diagram._left_codes, counting the pairs instead of listing
    # them; a generator shared with it would slow it on serialize
    size, passed = alpha.n - 1, []
    for y in sorted(range(alpha.n), key=alpha.lam_pos.__getitem__):
        i = bisect(passed, alpha.rho_pos[y])
        size += len(passed) - i
        if size > d.n:
            break
        passed.insert(i, alpha.rho_pos[y])
    return alpha, size == d.n and similar(lattice_from_pairs(alpha), d)


def require_slim_semimodular(d):
    """Raise NotSlimSemimodular unless d is a slim semimodular lattice
    diagram; return None.  The one gate: :func:`_rebuilt`'s certificate
    decides, and the tables are built only to name a rejection."""
    if not _rebuilt(d)[1]:
        _slim_semimodular_tables(d)


def boundary_chains(d):
    """The leftmost and rightmost maximal chains of a lattice diagram.

    Walk up from the bottom, always taking the leftmost (resp. rightmost)
    upper cover.  The left chain C satisfies: every element off C that is
    incomparable to some member of C lies to its right; dually for the
    right chain.  Only a ``d`` that :func:`_rebuilt` refuses builds the
    lattice tables, once, whose NotALattice names a non-lattice.
    """
    if not _rebuilt(d)[1]:
        lattice_tables(d)
    return _cover_walks(d)


def supports(d):
    """Compute the four support maps of a slim semimodular lattice diagram.

    Past :func:`require_slim_semimodular`, no tables: x's support on a
    boundary chain is the member at x's height on it, the height
    :func:`diagram_from_chains` draws from.  That every element is the
    join of its supports and every non-top element the meet of its dual
    supports is part of the law "supports compose every element", which
    reads :func:`~quasiplanar.lattice._supports`, the body past the gate.
    """
    require_slim_semimodular(d)
    return _supports(d)


def lattice_isomorphic(d1, d2):
    """Whether two slim semimodular lattice diagrams have isomorphic lattices.

    Past :func:`require_slim_semimodular`, no tables: the narrows of each
    diagram form a chain through every diagram of the same lattice, and the
    lattices are isomorphic exactly when the interval blocks between
    consecutive narrows match up to similarity or mirror similarity.
    """
    require_slim_semimodular(d1)
    require_slim_semimodular(d2)
    # a narrow's down-set is a prefix of both sweeps, so they rise with lam_pos
    nar1 = sorted(_nar(d1), key=d1.lam_pos.__getitem__)
    nar2 = sorted(_nar(d2), key=d2.lam_pos.__getitem__)
    if len(nar1) != len(nar2):
        return False
    for (a1, b1), (a2, b2) in zip(zip(nar1, nar1[1:]), zip(nar2, nar2[1:])):
        block1 = interval_subdiagram(d1, a1, b1)
        block2 = interval_subdiagram(d2, a2, b2)
        if not (similar(block1, block2) or similar(block1, mirror(block2))):
            return False
    return True


def _heights(up, chain):
    """How many members of ``chain`` lie at or below each element, by ``up``."""
    return [sum(up[c] >> x & 1 for c in chain) for x in range(len(up))]


def diagram_from_chains(n, covers, left_chain, right_chain):
    """Rebuild the unique diagram of a slim semimodular lattice with the
    given boundary chains.

    ``covers`` describe the bare order (no left relation).  The two chains
    must be maximal chains that jointly contain every join-irreducible
    element; the orientation is then forced: x is left of y exactly when x
    is strictly higher on the left chain and lower on the right one, so the
    diagram is drawn from those heights and certified like the input of
    :func:`to_quasiplanar`.  The order is read once; the solver orients
    it only when the heights miss it, and the certificate still gates it.
    """
    cover_list, _ = _checked(n, covers)
    try:
        up = _order(n, cover_list)
    except (NotAPartialOrder, NotBounded) as e:
        raise NotSlimSemimodular(f"not a lattice order: {e}") from e
    left_chain = _chain_members(n, left_chain, "left_chain")
    right_chain = _chain_members(n, right_chain, "right_chain")
    drawn = _dominance_diagram([*zip(_heights(up, right_chain), _heights(up, left_chain))])
    steps = set(drawn.cover_pairs())
    # drawn has the input's order when it puts each input pair below and
    # draws only order pairs as covers; the checks below read the order only
    oriented = drawn
    if not (_certified(drawn, cover_list, ()) and all(up[a] >> b & 1 for a, b in steps)):
        oriented = _oriented(n, cover_list, up)
        if oriented is None:
            raise NotSlimSemimodular("order dimension exceeds two")
        steps = set(oriented.cover_pairs())
    require_slim_semimodular(oriented)
    for chain in (left_chain, right_chain):
        if not chain or chain[0] != oriented.bottom or chain[-1] != oriented.top:
            raise ValueError("chains must run from the bottom to the top")
        for a, b in zip(chain, chain[1:]):
            if (a, b) not in steps:
                raise ValueError(f"({a}, {b}) is not a covering step")
    missing = sorted(_jir(oriented) - set(left_chain) - set(right_chain))
    if missing:
        raise ChainsDoNotCoverJir(f"join-irreducible elements {missing} lie on neither chain")
    return drawn


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
    full = frozenset(range(d.n)) - {d.bottom}
    feasible = frozenset(full - _elements(d.n, mask) for _, mask in _pair_filters(d))
    return Antimatroid(frozenset(d.interior()), feasible)


def meet_irreducible_filters(d):
    """Principal filters of interior elements, as the meet-irreducibles.

    Returns {x: everything above x} for interior x, the :func:`_quadrant`
    of the pair (x, x).  That these filters are exactly the ones the
    meet-irreducible elements of the filter lattice carry, and that the
    left relation transports along x -> its filter, is the law "meet
    irreducibles carry principal filters".
    """
    _check_distinct_ends(d)
    return {x: _quadrant(d, x, x) for x in d.interior()}
