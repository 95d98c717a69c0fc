"""Lattice structure on top of diagrams.

Operation tables, the structural predicates (semimodular, slim,
join-distributive), boundary supports, isomorphism of the underlying
lattices, and reconstruction of a diagram from an order plus two
prescribed boundary chains.

Throughout, a "lattice diagram" is a valid diagram whose order happens to
be a lattice; the slim semimodular ones are exactly the diagrams produced
by :func:`quasiplanar.transform.lattice_from_filters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .diagram import (
    _dominance_diagram,
    _maximal_in,
    _minimal_in,
    bits,
    boundary_chains,
    mirror,
    order_dimension_le2,
    similar,
)
from .errors import (
    ChainsDoNotCoverJir,
    NotALattice,
    NotAPartialOrder,
    NotBounded,
    NotSlimSemimodular,
)


@dataclass(frozen=True)
class LatticeTables:
    """Meet/join tables and the derived element classes of a lattice diagram.

    ``jir``/``mir`` are the join-/meet-irreducible elements: exactly one
    lower (upper) cover, with the bottom (top) excluded.  ``nar`` holds the
    narrows, the elements comparable with everything.  ``upstar[x]`` is the
    join of all upper covers of x (x itself at the top).
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


def _sweep_masks(d):
    """The ``up`` and ``dn`` masks re-indexed by left-to-right sweep position.

    y >= x exactly when y comes at or after x in both sweeps, so walking
    the right-to-left sweep and cutting the positions seen so far at x's
    own position gives each mask in O(1) big-integer operations.
    """
    upl, dnl = [0] * d.n, [0] * d.n
    seen = 0
    for x in d.rho_order:
        p = d.lam_pos[x]
        seen |= 1 << p
        dnl[x] = seen & ((2 << p) - 1)
    seen = 0
    for x in reversed(d.rho_order):
        p = d.lam_pos[x]
        seen |= 1 << p
        upl[x] = seen >> p << p
    return upl, dnl


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
    n = d.n
    order = d.lam_order
    upl, dnl = _sweep_masks(d)
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
    jir = frozenset(
        x for x in range(n) if x != d.bottom and d.dncov[x].bit_count() == 1
    )
    mir = frozenset(
        x for x in range(n) if x != d.top and d.upcov[x].bit_count() == 1
    )
    full = (1 << n) - 1
    nar = frozenset(x for x in range(n) if d.up[x] | d.dn[x] == full)
    upstar = []
    for x in range(n):
        j = x
        for y in bits(d.upcov[x]):
            j = join[j][y]
        upstar.append(j)
    return LatticeTables(
        n, tuple(map(tuple, join)), tuple(map(tuple, meet)),
        jir, mir, nar, tuple(upstar),
    )


def is_lattice(d):
    try:
        lattice_tables(d)
        return True
    except NotALattice:
        return False


def _semimodular(d, t):
    # a∧b covered by a forces b covered by a∨b
    for a in range(d.n):
        for b in range(d.n):
            m = t.meet[a][b]
            if d.upcov[m] & (1 << a) and not d.upcov[b] & (1 << t.join[a][b]):
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


def require_slim_semimodular(d):
    """Tables of d, raising NotSlimSemimodular unless d is a slim semimodular lattice diagram."""
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


def supports(d):
    """Compute the four support maps of a slim semimodular lattice diagram.

    That every element is the join of its supports and every non-top
    element the meet of its dual supports is part of the law "supports
    compose every element".
    """
    t = require_slim_semimodular(d)
    left_chain, right_chain = boundary_chains(d)
    # chains run bottom to top, so the last member below x is the support
    lsp = []
    rsp = []
    for x in range(d.n):
        lsp.append([c for c in left_chain if d.leq(c, x)][-1])
        rsp.append([c for c in right_chain if d.leq(c, x)][-1])
    mir_mask = 0
    for m in t.mir:
        mir_mask |= 1 << m
    lds = []
    rds = []
    for x in range(d.n):
        if x == d.top:
            lds.append(x)
            rds.append(x)
            continue
        above = d.up[x] & mir_mask
        mins = [z for z in bits(above) if not (d.dn[z] & ~(1 << z) & above)]
        lds.append(min(mins, key=d.lam_pos.__getitem__))
        rds.append(max(mins, key=d.lam_pos.__getitem__))
    return SupportData(tuple(lsp), tuple(rsp), tuple(lds), tuple(rds))


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
    """The diagram induced on the interval [lo, hi], relabeled from 0."""
    members = sorted(bits(d.up[lo] & d.dn[hi]))
    return _dominance_diagram([(d.lam_pos[x], d.rho_pos[x]) for x in members])


def lattice_isomorphic(d1, d2):
    """Whether two slim semimodular lattice diagrams have isomorphic lattices.

    The narrows of each diagram form a chain through every diagram of the
    same lattice; the lattices are isomorphic exactly when the interval
    blocks between consecutive narrows match up to similarity or mirror
    similarity, block by block.
    """
    t1 = require_slim_semimodular(d1)
    t2 = require_slim_semimodular(d2)
    nar1 = sorted(t1.nar, key=lambda x: d1.dn[x].bit_count())
    nar2 = sorted(t2.nar, key=lambda x: d2.dn[x].bit_count())
    if len(nar1) != len(nar2):
        return False
    for (a1, b1), (a2, b2) in zip(zip(nar1, nar1[1:]), zip(nar2, nar2[1:])):
        block1 = interval_subdiagram(d1, a1, b1)
        block2 = interval_subdiagram(d2, a2, b2)
        if not (similar(block1, block2) or similar(block1, mirror(block2))):
            return False
    return True


def diagram_from_chains(n, covers, left_chain, right_chain):
    """Rebuild the unique diagram of a slim semimodular lattice with the
    given boundary chains.

    ``covers`` describe the bare order (no left relation).  The two chains
    must be maximal chains that jointly contain every join-irreducible
    element; the orientation is then forced: x is left of y exactly when
    x's left support is strictly higher and its right support strictly
    lower than y's, so the diagram is drawn from the support heights.
    """
    try:
        oriented = order_dimension_le2(n, covers)
    except (NotAPartialOrder, NotBounded) as e:
        raise NotSlimSemimodular(f"not a lattice order: {e}") from e
    if oriented is None:
        raise NotSlimSemimodular("order dimension exceeds two")
    t = require_slim_semimodular(oriented)
    left_chain = tuple(left_chain)
    right_chain = tuple(right_chain)
    for chain in (left_chain, right_chain):
        if not chain or chain[0] != oriented.bottom or chain[-1] != oriented.top:
            raise ValueError("chains must run from the bottom to the top")
        for a, b in zip(chain, chain[1:]):
            if not oriented.upcov[a] & (1 << b):
                raise ValueError(f"({a}, {b}) is not a covering step")
    covered = set(left_chain) | set(right_chain)
    missing = sorted(t.jir - covered)
    if missing:
        raise ChainsDoNotCoverJir(
            f"join-irreducible elements {missing} lie on neither chain"
        )
    # a support's height on its chain is the number of members below x
    return _dominance_diagram([
        (sum(oriented.leq(c, x) for c in right_chain),
         sum(oriented.leq(c, x) for c in left_chain))
        for x in range(n)
    ])
