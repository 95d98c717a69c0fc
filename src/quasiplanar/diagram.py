"""Bounded poset diagrams with an explicit left-to-right orientation.

A diagram is a finite bounded poset on elements 0..n-1 together with a
relation ``left`` that orients every incomparable pair.  Validity means the
picture can be swept in both directions:

* ``order ∪ left`` is a linear order (elements read off left to right), and
* ``order ∪ left⁻¹`` is a linear order (elements read right to left),

and the two sweeps agree exactly on the order.  The sweeps form a
two-dimensional realizer, so valid diagrams are precisely the bounded posets
of order dimension at most two, each equipped with a drawing in which every
element lies on one consistent side of every maximal chain avoiding it.

A valid diagram is therefore nothing but its two sweep positions: x is below
y when it comes first in both sweeps, and left of y when it comes first in
the left-to-right sweep only.  ``Diagram(lam_pos, rho_pos)`` is the one
constructor; :func:`validate` computes the positions from raw relations and
every construction here and in the other modules computes them directly.

Diagrams are compared up to *similarity*: a bijection preserving both the
order and the left relation.  ``canonical_form`` reduces similarity to
equality of permutations of the interior elements, and ``from_canonical``
inverts it, which is what makes exhaustive enumeration by size possible.
"""

from __future__ import annotations

import operator
from bisect import bisect
from dataclasses import dataclass, field
from itertools import islice, repeat

from .errors import (
    LeftIncomplete,
    LeftOnComparable,
    NotAPartialOrder,
    NotBounded,
    NotLinearizable,
)

Chain = tuple[int, ...]
CanonicalPermutation = tuple[int, ...]


def bits(mask):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sweep_orders(d):
    """The elements of ``d`` in the order of each sweep."""
    lam_order, rho_order = [0] * d.n, [0] * d.n
    for x in range(d.n):
        lam_order[d.lam_pos[x]] = x
        rho_order[d.rho_pos[x]] = x
    return {"lam_order": tuple(lam_order), "rho_order": tuple(rho_order)}


def _suffix_masks(pos):
    """``suf[p]``, for p in 0..n: the mask of the elements at position p or
    later in the sweep ``pos``."""
    suf = [0] * (len(pos) + 1)
    for x, p in enumerate(pos):
        suf[p] = 1 << x
    for p in reversed(range(len(pos))):
        suf[p] |= suf[p + 1]
    return suf


def _order_masks(lam, rho):
    """The up and down masks of the sweep positions ``lam`` and ``rho``: what
    is after x in both sweeps, x included, and what is after it in neither."""
    n = len(lam)
    after_l, after_r = _suffix_masks(lam), _suffix_masks(rho)
    up = [after_l[lam[x]] & after_r[rho[x]] for x in range(n)]
    dn = [after_l[0] ^ (after_l[lam[x] + 1] | after_r[rho[x] + 1]) for x in range(n)]
    return up, dn


def _pairs(codes, n):
    """The pairs (x, y) of the codes x·n + y, in their order."""
    # through a list: a tuple grown from the iterator itself is resized
    # step by step, which left CLI enumerate peaking 4 MB higher
    return tuple(list(map(divmod, codes, repeat(n))))


class _Derived:
    """A field of the one derived group of a Diagram, built on first read and kept.

    A non-data descriptor: ``build(d)`` returns the whole group as a dict,
    whose fields are set on the instance, where every later read finds them
    without calling here.  A ``__getattr__`` hook would do the same but
    slow every attribute read of the class, since CPython does not
    specialise reads on a type with one; ``functools.cached_property``
    takes a lock on each first read on Python 3.10 and 3.11.
    """

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, d, owner=None):
        if d is None:
            return self
        group = self.build(d)
        for name, value in group.items():
            object.__setattr__(d, name, value)
        return group[self.name]


@dataclass(frozen=True)
class Diagram:
    """An immutable valid diagram, given by its two sweep positions.

    ``lam_pos[x]`` is the position of x in the left-to-right sweep and
    ``rho_pos[x]`` its position in the right-to-left sweep.  These two
    fields carry identity; the constructor stores them with ``n``,
    ``bottom`` and ``top`` and nothing else.  The relation queries compare
    positions, as the module docstring defines them, on elements 0..n-1
    that they do not check.  ``lam_order``/``rho_order``, the elements in
    each sweep's order, are derived together on first read and kept; no
    masks are.  Instances are hashable values, safe to share and to use as
    dict keys.

    ``Diagram(lam_pos, rho_pos)`` is the only constructor.  It raises
    NotLinearizable unless both arguments are permutations of 0..n-1 and
    NotBounded unless the two sweeps start on one element and end on one
    element; any such pair is a valid diagram.  :func:`validate` builds one
    from raw relations and :func:`from_canonical` from a permutation.
    """

    lam_pos: tuple[int, ...]
    rho_pos: tuple[int, ...]

    n: int = field(init=False, compare=False, repr=False)
    bottom: int = field(init=False, compare=False, repr=False)
    top: int = field(init=False, compare=False, repr=False)
    # lattice tables, filled in by quasiplanar.lattice.lattice_tables
    _tables: object = field(default=None, init=False, compare=False, repr=False)

    lam_order = _Derived(_sweep_orders)
    rho_order = _Derived(_sweep_orders)

    def __post_init__(self):
        lam, rho = tuple(self.lam_pos), tuple(self.rho_pos)
        n = len(lam)
        ids = list(range(n))
        if sorted(lam) != ids or sorted(rho) != ids:
            raise NotLinearizable("sweep positions must be permutations of 0..n-1")
        if not n or rho[lam.index(0)] != 0 or rho[lam.index(n - 1)] != n - 1:
            raise NotBounded("the two sweeps must share their first and last element")
        # object.__setattr__, unlike an update of __dict__, keeps the
        # attributes in the compact form the interpreter reads fastest
        store = object.__setattr__
        store(self, "lam_pos", lam)
        store(self, "rho_pos", rho)
        store(self, "n", n)
        store(self, "bottom", lam.index(0))
        store(self, "top", lam.index(n - 1))

    # -- relation queries ------------------------------------------------

    def leq(self, x, y):
        lam, rho = self.lam_pos, self.rho_pos
        return lam[x] <= lam[y] and rho[x] <= rho[y]

    def lt(self, x, y):
        return x != y and self.leq(x, y)

    def incomparable(self, x, y):
        return x != y and not self.leq(x, y) and not self.leq(y, x)

    def left(self, x, y):
        lam, rho = self.lam_pos, self.rho_pos
        return lam[x] < lam[y] and rho[x] > rho[y]

    # -- derived views ---------------------------------------------------

    def _cover_codes(self):
        """The sorted codes x·n + y of the pairs (x, y) with y covering x.

        y covers x when it follows x in both sweeps and nothing lies
        between them in both.  Walking the left-to-right sweep from x, each
        cover lowers the bound on the reverse position of the next one, and
        once the bound is rho_pos[x] + 1 no later element can be a cover.
        Integers sort several times faster than tuples, and the codes are
        all a serialized document needs.
        """
        rho, n = self.rho_pos, self.n
        order = sorted(range(n), key=self.lam_pos.__getitem__)
        rank = [rho[x] for x in order]
        codes = []
        for i in range(n):
            low, bound, base = rank[i], n, order[i] * n
            for j in range(i + 1, n):
                r = rank[j]
                if low < r < bound:
                    codes.append(base + order[j])
                    bound = r
                    if r == low + 1:
                        break
        codes.sort()
        return codes

    def _left_codes(self):
        """The sorted codes x·n + y of the pairs (x, y) with x left of y.

        x is left of y when it comes first in the left-to-right sweep and
        last in the right-to-left one.  The walk along the first sweep
        keeps the reverse positions passed so far in order, so each y
        takes its pairs by bisection, in time proportional to their number.
        """
        lam, rho, n = self.lam_pos, self.rho_pos, self.n
        at = [0] * n  # at[r]: n times the element at reverse position r
        order = [0] * n  # the left-to-right sweep
        for x in range(n):
            at[rho[x]] = x * n
            order[lam[x]] = x
        passed, codes = [], []
        for y in order:
            r = rho[y]
            i = bisect(passed, r)
            for s in passed[i:]:
                codes.append(at[s] + y)
            passed.insert(i, r)
        codes.sort()
        return codes

    def cover_pairs(self):
        """The pairs (x, y) with y covering x, sorted."""
        return _pairs(self._cover_codes(), self.n)

    def left_pairs(self):
        """The pairs (x, y) with x left of y, sorted."""
        return _pairs(self._left_codes(), self.n)

    def incomparable_pairs(self):
        """The pairs (x, y) with x < y incomparable, sorted: the left pairs."""
        return tuple(sorted((min(p), max(p)) for p in self.left_pairs()))

    def interior(self):
        return tuple(
            x for x in range(self.n) if x != self.bottom and x != self.top
        )


@dataclass(frozen=True)
class Realizer:
    """The two sweep orders of a diagram, bottom first, top last in both."""

    lam_order: tuple[int, ...]
    rho_order: tuple[int, ...]


def _listed(elements, total=None, shown=8):
    """A list for an error message, cut to its first few members.

    ``elements`` may be an iterator when ``total`` gives its length.
    """
    total = len(elements) if total is None else total
    head = list(islice(elements, shown))
    return f"{head}" if total <= shown else f"{head} and {total - shown} more"


def _shown(v):
    """A caller's value for an error message, a huge integer by its size."""
    huge = isinstance(v, int) and not -10**20 < v < 10**20
    return f"an integer of {v.bit_length()} bits" if huge else repr(v)


def _kahn(n, cover_list):
    """Kahn's algorithm over the pairs of elements 0..n-1.

    Returns the successor lists, the minimal elements (in-degree 0), a
    topological order of the elements it could place, and those left over,
    which lie on or above a cycle.
    """
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in cover_list:
        succ[a].append(b)
        indeg[b] += 1
    bottoms = [x for x in range(n) if not indeg[x]]
    topo = list(bottoms)
    for x in topo:
        for y in succ[x]:
            indeg[y] -= 1
            if not indeg[y]:
                topo.append(y)
    cyclic = [x for x in range(n) if indeg[x]] if len(topo) != n else []
    return succ, bottoms, topo, cyclic


def _order(n, cover_list):
    """Strict pairs -> reflexive up-set masks of a bounded partial order.

    Rejects a self-loop, a cycle, then more than one minimal or maximal
    element, all before any mask is built, so unbounded input costs
    O(n + pairs), and input with fewer pairs than n - 1 costs O(pairs).
    """
    for i, (a, b) in enumerate(cover_list):
        if a == b:
            raise NotAPartialOrder(f"self-loop at element {a}", f"/covers/{i}")
    # Every element but the bottom is the upper end of some pair, so fewer
    # than n - 1 pairs leave several minimal elements: then look for a cycle
    # among the elements the pairs touch, and list no n elements.
    few = len(cover_list) < n - 1
    if few:
        touched = sorted({x for pair in cover_list for x in pair})
        index = {x: i for i, x in enumerate(touched)}
        *_, cyclic = _kahn(len(touched), [(index[a], index[b]) for a, b in cover_list])
        cyclic = [touched[i] for i in cyclic]
    else:
        succ, bottoms, topo, cyclic = _kahn(n, cover_list)
    if cyclic:
        raise NotAPartialOrder(
            f"cover relation has a cycle through {_listed(cyclic)}", "/covers"
        )
    if few:
        uppers = {b for _, b in cover_list}
        bottoms = (x for x in range(n) if x not in uppers)
        shown = _listed(bottoms, n - len(uppers))
        raise NotBounded(f"minimal elements {shown}, expected exactly one")
    if len(bottoms) != 1:
        raise NotBounded(f"minimal elements {_listed(bottoms)}, expected exactly one")
    tops = [x for x in range(n) if not succ[x]]
    if len(tops) != 1:
        raise NotBounded(f"maximal elements {_listed(tops)}, expected exactly one")
    up = [1 << x for x in range(n)]
    for x in reversed(topo):
        for y in succ[x]:
            up[x] |= up[y]
    return up


def _check_pairs(n, pairs, what):
    out = []
    for i, pair in enumerate(pairs):
        # a pair is a tuple or list of two integers, not any other iterable
        try:
            if not isinstance(pair, (tuple, list)):
                raise TypeError
            a, b = map(operator.index, pair)
        except (TypeError, ValueError):
            raise ValueError(f"{what}[{i}] is not a pair of integers") from None
        if not (0 <= a < n and 0 <= b < n):
            pair = f"({_shown(a)}, {_shown(b)})"
            raise ValueError(f"{what}[{i}] = {pair} is out of range for n={_shown(n)}")
        out.append((a, b))
    return out


def _checked(n, covers, left=()):
    """validate's input checks: n, then each pair of ``covers`` and ``left``."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {_shown(n)}")
    return _check_pairs(n, covers, "covers"), _check_pairs(n, left, "left")


def validate(n, covers, left=()):
    """Check raw input and build a :class:`Diagram`.

    ``covers`` may contain any strict order pairs (redundant ones are fine);
    the order is their transitive closure and the stored covers are
    recomputed.  ``left`` must orient exactly the incomparable pairs.

    Raises ValueError (a pair not of two integers in range), then
    NotAPartialOrder, NotBounded, LeftOnComparable, LeftIncomplete, or
    NotLinearizable, in roughly that order of detection, each with the JSON
    pointer of its pair or list, if any, in ``location``.  The order is read
    once, by :func:`_order`.  Both sweep positions come from counts: x sits
    at n - 1 minus the number of elements after it, which are those above
    x and, counted over the distinct left pairs at x, those x is left of
    (in the left-to-right sweep) or right of (in the other).  The result is
    accepted when it is a diagram in which every input order pair lies
    below and every left pair to the left; the counts then force its order
    and left pairs to be the input's.  That is the one accepting path:
    other input goes on to one left mask per element, which only names the
    first failing check.

    n = 1 is allowed: the one-element diagram is the filter lattice of the
    two-element chain and turns up as a construction result.
    """
    cover_list, left_list = _checked(n, covers, left)
    return _diagram_of(n, cover_list, left_list, _order(n, cover_list))


def _diagram_of(n, cover_list, left_list, up):
    """:func:`validate` past its input checks, on ``up = _order(n, cover_list)``.

    The positions come from degree counts and are certified against the
    input, so accepted input builds no left masks; anything not certified
    goes to :func:`_refusal`, which names the failure.
    """
    above = [m.bit_count() for m in up]
    # the list unless it repeats a pair: read in a set's order, validate took 1.6x as long
    distinct = set(left_list)
    lefts = left_list if len(distinct) == len(left_list) else distinct
    outs, ins = [0] * n, [0] * n
    for a, b in lefts:
        outs[a] += 1
        ins[b] += 1
    lam = [n - above[x] - outs[x] for x in range(n)]
    try:
        d = Diagram(lam, [n - above[x] - ins[x] for x in range(n)])
    except (NotLinearizable, NotBounded):
        d = None
    if d is not None and _certified(d, cover_list, lefts):
        return d
    _refusal(n, up, left_list, lam)


def _certified(d, cover_list, lefts):
    """Whether ``d`` is the diagram of the input its positions came from.

    The loops put the input's order inside d's and the distinct left pairs
    ``lefts`` inside d's left pairs.  The positions count the elements above
    each element and the distinct left pairs at it, so d has exactly as many
    comparable and left pairs as the input: d's are exactly the input's.
    """
    lam, rho = d.lam_pos, d.rho_pos
    for a, b in cover_list:
        if not (lam[a] < lam[b] and rho[a] < rho[b]):
            return False
    for a, b in lefts:
        if not (lam[a] < lam[b] and rho[a] > rho[b]):
            return False
    return True


def _refusal(n, up, left_list, lam):
    """Raise what is wrong with input that :func:`_certified` refused.

    Builds a left and a right mask per element to name the first failing
    check.  Past them every pair is related once, so the two sweeps' counted
    positions (``lam`` and the other) score two tournaments, each transitive
    iff its scores are distinct: both being permutations would have passed.
    """
    lft, rgt = [0] * n, [0] * n
    for i, (a, b) in enumerate(left_list):
        if up[a] & (1 << b) or up[b] & (1 << a):  # up[a] holds a itself
            why = "is reflexive" if a == b else "relates comparable elements"
            raise LeftOnComparable(f"left pair ({a}, {b}) {why}", f"/left/{i}")
        if lft[b] & (1 << a):
            raise NotLinearizable(
                f"pair ({a}, {b}) is oriented in both directions", f"/left/{i}"
            )
        lft[a] |= 1 << b
        rgt[b] |= 1 << a
    # each comparable pair is counted once, at its lower end (up[x] holds x)
    if sum(m.bit_count() for m in (*up, *lft)) - n != n * (n - 1) // 2:
        for x in range(n):
            # later elements neither above x nor oriented against it
            for y in bits(~(up[x] | lft[x] | rgt[x]) & ((1 << n) - (2 << x))):
                if not up[y] & (1 << x):
                    raise LeftIncomplete(
                        f"incomparable pair ({x}, {y}) carries no orientation", "/left"
                    )
    what = "left" if sorted(lam) != list(range(n)) else "inverted left"
    raise NotLinearizable(f"order + {what} is not a linear order", "/left")


def revalidate(d):
    """Re-run the full validation battery on an existing diagram."""
    return validate(d.n, d.cover_pairs(), d.left_pairs())


def realizer(d):
    """The two linear orders whose intersection is the order.

    Bottom is first and top is last in both; x is left of y exactly when x
    precedes y in ``lam_order`` and follows it in ``rho_order``.
    """
    return Realizer(d.lam_order, d.rho_order)


def canonical_form(d):
    """Similarity invariant: a permutation of {1..n-2}.

    Relabel elements by their position in the left-to-right sweep; the
    canonical form lists, for each interior position, the position the same
    element takes in the right-to-left sweep.  Two diagrams are similar iff
    their sizes and canonical forms agree, and every permutation of
    {1..n-2} arises from a valid diagram (see :func:`from_canonical`).
    """
    rho_at = [0] * d.n
    for x in range(d.n):
        rho_at[d.lam_pos[x]] = d.rho_pos[x]
    return tuple(rho_at[1 : d.n - 1])


def from_canonical(perm):
    """Decode a permutation of {1..len(perm)} into the diagram it names."""
    perm = tuple(perm)
    n = len(perm) + 2
    try:
        return Diagram(range(n), (0, *perm, n - 1))
    except (NotLinearizable, TypeError):  # or values that do not sort
        raise ValueError(f"{perm!r} is not a permutation of 1..{n - 2}") from None


def similar(d1, d2):
    """Whether some bijection preserves both order and left."""
    return d1.n == d2.n and canonical_form(d1) == canonical_form(d2)


def mirror(d):
    """The same poset with every left pair reversed."""
    return Diagram(d.rho_pos, d.lam_pos)


def relabel(d, new_of_old):
    """Apply a bijection ``old index -> new index`` to a diagram.

    Raises ValueError unless ``new_of_old`` lists the integers 0..n-1, each
    once.
    """
    try:
        new = list(map(operator.index, new_of_old))
    except TypeError:
        new = None
    if new is None or sorted(new) != list(range(d.n)):
        raise ValueError(f"new_of_old must permute the integers 0..{d.n - 1}")
    lam = [0] * d.n
    rho = [0] * d.n
    for x, y in enumerate(new):
        lam[y] = d.lam_pos[x]
        rho[y] = d.rho_pos[x]
    return Diagram(lam, rho)


def canonical_relabel(d):
    """Relabel so that element k sits at sweep position k."""
    return relabel(d, d.lam_pos)


def _extremes_in(d, lams, rhos, lowest):
    """The minimal (``lowest``) or maximal elements, sorted by label, of the
    elements at sweep positions ``lams`` and reverse positions ``rhos``.
    Along the left-to-right sweep, such an element is minimal when its reverse
    position is below those before it, maximal when above those after it."""
    rho, found = d.rho_pos, []
    sweep = d.lam_order[lams.start:lams.stop]
    bound = rhos.stop if lowest else rhos.start - 1
    for z in sweep if lowest else reversed(sweep):
        if rho[z] in rhos and (rho[z] < bound) == lowest:
            found.append(z)
            bound = rho[z]
    return sorted(found)


def _dominance_diagram(keys):
    """The diagram of distinct keys (a, b) ordered componentwise.

    Key i lies below key j when both of its components are weakly smaller,
    and to its left when its first is smaller and its second larger: the
    left-to-right sweep sorts the keys by (a, b), the reverse one by (b, a).
    """
    lam, rho = [0] * len(keys), [0] * len(keys)
    for pos, key in ((lam, lambda i: keys[i]), (rho, lambda i: keys[i][::-1])):
        for p, i in enumerate(sorted(range(len(keys)), key=key)):
            pos[i] = p
    return Diagram(lam, rho)


def maximal_chains(d):
    """All maximal chains, bottom to top, as tuples of elements."""
    succ = [[] for _ in range(d.n)]
    for x, y in d.cover_pairs():
        succ[x].append(y)
    chains = []
    stack = [(d.bottom,)]
    while stack:
        chain = stack.pop()
        if chain[-1] == d.top:
            chains.append(chain)
            continue
        for y in succ[chain[-1]]:
            stack.append(chain + (y,))
    return chains


def _element(n, v, what):
    """``v`` as an element 0..n-1, else ValueError naming it ``what``."""
    try:
        if 0 <= operator.index(v) < n:
            return operator.index(v)
    except TypeError:
        raise ValueError(f"{what} of type {type(v).__name__} is not an integer") from None
    raise ValueError(f"{what} = {_shown(v)} is out of range for n={n}")


def _chain_members(n, chain, what):
    """``chain`` as a tuple of elements 0..n-1, else ValueError."""
    chain = tuple(chain)
    for c in chain:
        if not (type(c) is int and 0 <= c < n):  # the long way names the member
            return tuple(_element(n, c, f"{what}[{i}]") for i, c in enumerate(chain))
    return chain


def chain_side(d, chain, x):
    """Which side of a maximal chain an element falls on.

    Returns "on", "left", "right", or "mixed".  For a valid diagram and a
    maximal chain, "mixed" never occurs and the incomparable set is never
    empty for x off the chain; both facts are checked by the test suite.
    Raises ValueError unless x and every member of ``chain`` are elements
    0..n-1.
    """
    x = _element(d.n, x, "x")
    chain = _chain_members(d.n, chain, "chain")
    if x in chain:
        return "on"
    incomp = [c for c in chain if d.incomparable(x, c)]
    if not incomp:
        return "mixed"
    if all(d.left(x, c) for c in incomp):
        return "left"
    if all(d.left(c, x) for c in incomp):
        return "right"
    return "mixed"


def order_dimension_le2(n, covers):
    """Orient a bare bounded poset if its order dimension is at most two.

    Returns a valid :class:`Diagram` on the same order, or None when no
    orientation of the incomparable pairs linearizes both sweeps.  Bad
    input raises exactly what :func:`validate` raises.

    The left relation of a diagram is a transitive orientation of the
    incomparability graph (Dushnik–Miller), and orienting one pair forces
    others: if x is left of y, then x is left of every z incomparable with
    x but comparable with y, and every z incomparable with y but comparable
    with x is left of y.  The arcs forced from one arc form its implication
    class.  The loop orients one class at a time, reading "comparable" as
    "not free" (comparable, or oriented by an earlier class), and takes its
    pairs out of the free ones.  Either every pair ends up oriented, or a
    class forces some pair both ways and the dimension exceeds two
    (Golumbic's TRO theorem).  No search: each arc is grown once, in O(n)
    steps.  The order is read once, and the diagram is placed on it.
    """
    cover_list, _ = _checked(n, covers)
    return _oriented(n, cover_list, _order(n, cover_list))


def _oriented(n, cover_list, up):
    """:func:`order_dimension_le2` past its input checks, on the order ``up``."""
    dn = [0] * n
    for x in range(n):
        for y in bits(up[x]):
            dn[y] |= 1 << x
    # free[x]: the elements incomparable to x whose pair is not oriented yet
    free = [((1 << n) - 1) ^ (up[x] | dn[x]) for x in range(n)]
    left = []
    for x in range(n):
        while free[x]:
            arcs = [(x, (free[x] & -free[x]).bit_length() - 1)]
            seen = set(arcs)
            # the loop also visits the arcs it appends: the class of arcs[0]
            for a, b in arcs:
                forced = [(a, c) for c in bits(free[a] & ~(free[b] | 1 << b))]
                forced += [(c, b) for c in bits(free[b] & ~(free[a] | 1 << a))]
                for arc in forced:
                    if arc not in seen:
                        seen.add(arc)
                        arcs.append(arc)
            if any((b, a) in seen for a, b in arcs):
                return None
            for a, b in arcs:
                free[a] &= ~(1 << b)
                free[b] &= ~(1 << a)
            left += arcs
    return _diagram_of(n, cover_list, left, up)
