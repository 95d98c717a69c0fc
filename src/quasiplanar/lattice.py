"""Lattice structure on top of diagrams.

Operation tables, the structural predicates (semimodular, slim,
join-distributive) with the table verdict naming why a diagram is not slim
semimodular, the extreme covers, irreducibles, boundary walks, supports and
narrows read off the sweep positions, meet representations and intervals.
The gate and the functions that go through it live with its certificate in
:mod:`quasiplanar.transform`, which imports this module, never the other
way round.

Throughout, a "lattice diagram" is a valid diagram whose order happens to
be a lattice; the slim semimodular ones are exactly the diagrams produced
by :func:`quasiplanar.transform.lattice_from_filters`.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import combinations, groupby

from .diagram import (
    _dominance_diagram,
    _element,
    _maximal_in,
    _minimal_in,
    bits,
    canonical_relabel,
)
from .errors import NotALattice, NotSlimSemimodular


@dataclass(frozen=True)
class LatticeTables:
    """Meet/join tables and the derived element classes of a lattice diagram.

    ``jir``/``mir``/``nar`` are the join- and meet-irreducibles and the
    narrows, as :func:`_jir`, :func:`_mir` and :func:`_nar` define them for
    every caller.  ``upstar[x]`` is the join of x's upper covers (x at the top),
    that is, of its leftmost and its rightmost one.
    """

    n: int
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    jir: frozenset[int]
    mir: frozenset[int]
    nar: frozenset[int]
    upstar: tuple[int, ...]


def lattice_tables(d):
    """Compute tables for a lattice diagram, or raise NotALattice with a witness.

    The join of x and y is the first common upper bound in the
    left-to-right sweep, because the sweep lists every upper bound of the
    join after it; it is accepted when one mask test shows that it lies
    below all the others.  Dually the meet is the last common lower bound.
    A pair failing that test has no join (meet), and only then are its
    minimal upper (maximal lower) bounds listed for the witness.  That is
    O(n^2) big-integer operations; the tests compare the result with the
    minimal-bounds search for every pair.

    The tables are computed once per diagram instance and kept on it; a
    failure is not kept, so asking again raises again.
    """
    if d._tables is None:
        object.__setattr__(d, "_tables", _compute_tables(d))
    return d._tables


# One definition each: jir (mir) are not the bottom (top) and have one lower
# (upper) cover, so their two extreme ones coincide; nar are comparable with
# all.  Split so that none reads the order masks.


def _jir(d):
    return frozenset(x for x, a, b in zip(range(d.n), *_cover_ends(d, False)) if a == b != x)


def _mir(d):
    return frozenset(x for x, a, b in zip(range(d.n), *_cover_ends(d, True)) if a == b != x)


def _nar(d):
    # nothing lies left of a left chain member, nothing right of a right
    # chain member (see _cover_walks), so the members of both are the
    # elements comparable with all
    left, right = _cover_walks(d)
    return frozenset(left).intersection(right)


def _cover_ends(d, upper):
    """x's two extreme upper (``upper``) or lower covers, as two lists that
    hold x itself where it has none.

    x's first upper cover in the left-to-right sweep is the nearest element
    after x with a larger reverse position: it lies above x and nothing
    sweeping between them does, so it covers x, and every other cover comes
    later.  The covers form an antichain, which the sweeps list in opposite
    orders, so that one is the leftmost; the second list does the same along
    the other sweep, for the rightmost.  Read backwards, each sweep gives x's
    last lower cover in it: the rightmost, then the leftmost.  One monotone
    stack per sweep does every x: a new element ends the wait of those it passes.
    """
    ends = []
    for order, pos in ((d.lam_order, d.rho_pos), (d.rho_order, d.lam_pos)):
        end, waiting = list(range(d.n)), []
        for y in order if upper else reversed(order):
            while waiting and (pos[waiting[-1]] < pos[y]) == upper:
                end[waiting.pop()] = y
            waiting.append(y)
        ends.append(end)
    return ends


def _cover_walks(d):
    """The leftmost and the rightmost maximal chain, each bottom to top.

    Each walks up from the bottom along the leftmost (rightmost) upper cover
    of :func:`_cover_ends`, the next element in the left-to-right sweep with
    a larger reverse position.  That position is then the largest so far, so
    the left chain's members are the elements with nothing to their left,
    and dually the right chain's those with nothing to their right.
    """
    walks = []
    for cover in _cover_ends(d, upper=True):
        chain = [d.bottom]
        while chain[-1] != d.top:
            chain.append(cover[chain[-1]])
        walks.append(tuple(chain))
    return tuple(walks)


def _no_bound(d, x, y, above):
    """NotALattice for x and y, which lack a join (``above``) or a meet."""
    if above:
        found, what = _minimal_in(d, d.up[x] & d.up[y]), "minimal upper"
    else:
        found, what = _maximal_in(d, d.dn[x] & d.dn[y]), "maximal lower"
    return NotALattice(
        f"elements {x} and {y} have {what} bounds {found[0]} and {found[1]}",
        witness=(x, y, found[0], found[1]),
    )


def _compute_tables(d):
    """:func:`lattice_tables` from the up/down masks of ``canonical_relabel(d)``."""
    n = d.n
    order = d.lam_order
    # masks by sweep position: the first common upper bound is the lowest bit
    c = canonical_relabel(d)
    upl = [c.up[p] for p in d.lam_pos]
    dnl = [c.dn[p] for p in d.lam_pos]
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for x in range(n):
        join_x, meet_x = join[x], meet[x]
        join_x[x] = meet_x[x] = x
        up_x, dn_x = upl[x], dnl[x]
        for y in range(x + 1, n):
            # everything above a common upper bound is one too, so the
            # first one is the join exactly when nothing else is common
            common = up_x & upl[y]
            j = order[(common & -common).bit_length() - 1]
            if common != upl[j]:
                raise _no_bound(d, x, y, above=True)
            join_x[y] = join[y][x] = j
            common = dn_x & dnl[y]
            m = order[common.bit_length() - 1]
            if common != dnl[m]:
                raise _no_bound(d, x, y, above=False)
            meet_x[y] = meet[y][x] = m
    # every upper cover of x comes no later than the rightmost one in the
    # left-to-right sweep and the leftmost one in the other, so what lies
    # above those two lies above them all: their join is the join of all
    upstar = tuple(join[a][b] for a, b in zip(*_cover_ends(d, upper=True)))
    for table in (join, meet):  # row by row: no table is ever held twice
        for x in range(n):
            table[x] = tuple(table[x])
    return LatticeTables(
        n, tuple(join), tuple(meet), _jir(d), _mir(d), _nar(d), upstar,
    )


def is_lattice(d):
    try:
        lattice_tables(d)
        return True
    except NotALattice:
        return False


def _semimodular(d, t):
    """Birkhoff's condition: any two upper covers a, b of one element are
    covered by a∨b.  In a finite lattice that is equivalent to a∧b ≺ a
    forcing b ≺ a∨b, and it reads pairs of covers instead of all m² pairs."""
    pairs = d.cover_pairs()
    covers = set(pairs)
    for _, upper in groupby(pairs, key=lambda pair: pair[0]):
        for (_, a), (_, b) in combinations(upper, 2):
            j = t.join[a][b]
            if (a, j) not in covers or (b, j) not in covers:
                return False
    return True


def is_semimodular(d):
    """Whether every cover a∧b ≺ a lifts to a cover b ≺ a∨b."""
    return _semimodular(d, lattice_tables(d))


def _slim(d, t):
    # incomparable means listed in opposite orders by the two sweeps, so a
    # 3-antichain is a falling run of three reverse positions along the
    # left-to-right sweep; first/second: highest end of a run of length 1/2
    first = second = -1
    for x in d.lam_order:
        if x in t.jir:
            r = d.rho_pos[x]
            if r < second:
                return False
            if r < first:
                second = r
            else:
                first = r
    return True


def is_slim(d):
    """Whether the join-irreducible elements contain no 3-element antichain."""
    return _slim(d, lattice_tables(d))


def is_join_distributive(d):
    """Whether every interval [x, join of covers of x] is distributive."""
    t = lattice_tables(d)
    for x in range(d.n):
        interval = list(bits(d.up[x] & d.dn[t.upstar[x]]))
        for u, v, w in combinations(interval, 3):
            for a, b, c in ((u, v, w), (v, u, w), (w, u, v)):
                if t.meet[a][t.join[b][c]] != t.join[t.meet[a][b]][t.meet[a][c]]:
                    return False
    return True


def _slim_semimodular_tables(d):
    """The tables of d, or NotSlimSemimodular naming what fails: the m²
    definition that names every rejection, and the certificate's oracle."""
    try:
        t = lattice_tables(d)
    except NotALattice as e:
        raise NotSlimSemimodular(f"not a lattice: {e}") from e
    if not _semimodular(d, t):
        raise NotSlimSemimodular("lattice is not semimodular")
    if not _slim(d, t):
        raise NotSlimSemimodular("join-irreducibles contain a 3-element antichain")
    return t


@dataclass(frozen=True)
class SupportData:
    """Boundary supports of a slim semimodular lattice diagram.

    ``lsp[x]``/``rsp[x]`` are the top elements of the left/right boundary
    chain below x; every x is their join.  ``lds[x]``/``rds[x]`` are the
    leftmost/rightmost minimal meet-irreducible elements above x (top maps
    to itself); every non-top x is their meet, and that meet representation
    is the unique irredundant one from meet-irreducibles.
    """

    lsp: tuple[int, ...]
    rsp: tuple[int, ...]
    lds: tuple[int, ...]
    rds: tuple[int, ...]


def _support_on(d, chain):
    """Each element's support on a boundary chain: the highest member below
    it.  The chain rises in both sweeps, so the members below x are the
    shorter of its two prefixes that come before x in one sweep each."""
    lams = [d.lam_pos[c] for c in chain]
    rhos = [d.rho_pos[c] for c in chain]
    return tuple(
        chain[min(bisect(lams, lam), bisect(rhos, rho)) - 1]
        for lam, rho in zip(d.lam_pos, d.rho_pos)
    )


def _first_from(members, order):
    """``first[x]``: the first of ``members`` at or after x in the sweep
    ``order``, or None where there is none."""
    first, last = [None] * len(order), None
    for x in reversed(order):
        if x in members:
            last = x
        first[x] = last
    return tuple(first)


def _supports(d):
    # Past the gate d is drawn as the pair lattice of alpha: each x is a
    # weak left pair (a, b) of alpha, and the meet-irreducibles with the
    # top are the pairs (q, q).  x's dual supports, the leftmost and the
    # rightmost minimal of those above x, are the first of them above x in
    # each sweep (see transform._pair_key).  The sweeps sort the pairs by
    # the positions of (a, b) and of (b, a), so the first (q, q) at or
    # after x in them is (a, a) and (b, b), both above x.
    members = _mir(d) | {d.top}
    return SupportData(
        *(_support_on(d, chain) for chain in _cover_walks(d)),
        _first_from(members, d.lam_order),
        _first_from(members, d.rho_order),
    )


def irredundant_meet_representations(d, t, x):
    """All irredundant meet representations of x from meet-irreducibles.

    Brute force over every subset of the meet-irreducibles above x (every
    member of a representation of x lies above it): the meet must be x and
    dropping any single member must change it.  The empty subset meets to
    the top, so the top's unique representation is the empty one.
    """
    def meet_all(elems):
        m = d.top
        for e in elems:
            m = t.meet[m][e]
        return m

    reps = []
    mir = [m for m in sorted(t.mir) if d.leq(x, m)]
    for r in range(len(mir) + 1):
        for sub in combinations(mir, r):
            if meet_all(sub) != x:
                continue
            if all(meet_all(sub[:i] + sub[i + 1:]) != x for i in range(r)):
                reps.append(frozenset(sub))
    return reps


def interval_subdiagram(d, lo, hi):
    """The diagram induced on the interval [lo, hi], relabeled from 0.

    Raises ValueError unless lo and hi are elements 0..n-1 and lo lies
    below hi.
    """
    lo, hi = _element(d.n, lo, "lo"), _element(d.n, hi, "hi")
    if not d.leq(lo, hi):
        raise ValueError(f"{lo} does not lie below {hi}, so they bound no interval")
    members = [x for x in range(d.n) if d.leq(lo, x) and d.leq(x, hi)]
    return _dominance_diagram([(d.lam_pos[x], d.rho_pos[x]) for x in members])
