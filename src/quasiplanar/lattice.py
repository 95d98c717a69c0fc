"""Lattice structure on top of diagrams.

Operation tables, the structural predicates (semimodular, slim,
join-distributive) with the table verdict naming why a diagram is not slim
semimodular, the boundary walks and supports read past the gate, meet
representations and intervals.  The gate and the functions that go through
it live with its certificate in :mod:`quasiplanar.transform`, which imports
this module, never the other way round.

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
    canonical_relabel,
)
from .errors import NotALattice, NotSlimSemimodular


@dataclass(frozen=True)
class LatticeTables:
    """Meet/join tables and the derived element classes of a lattice diagram.

    ``jir``/``mir``/``nar`` are the join- and meet-irreducibles and the
    narrows, as :func:`_jir`, :func:`_mir` and :func:`_nar` define them for
    every caller.  ``upstar[x]`` is the join of x's upper covers (x at the top).
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


# One definition each: jir (mir) have one lower (upper) cover, so not the bottom
# (top); nar are comparable with all.  Split so that jir and mir read no order masks.


def _jir(d):
    return frozenset(x for x in range(d.n) if d.dncov[x].bit_count() == 1)


def _mir(d):
    return frozenset(x for x in range(d.n) if d.upcov[x].bit_count() == 1)


def _nar(d):
    full = (1 << d.n) - 1
    return frozenset(x for x in range(d.n) if d.up[x] | d.dn[x] == full)


def _cover_walks(d):
    chains = []
    for pick in (min, max):  # the leftmost, then the rightmost cover
        chain = [d.bottom]
        while chain[-1] != d.top:
            chain.append(pick(bits(d.upcov[chain[-1]]), key=d.lam_pos.__getitem__))
        chains.append(tuple(chain))
    return tuple(chains)


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
    upstar = []
    for x in range(n):
        j = x
        for y in bits(d.upcov[x]):
            j = join[j][y]
        upstar.append(j)
    for table in (join, meet):  # row by row: no table is ever held twice
        for x in range(n):
            table[x] = tuple(table[x])
    return LatticeTables(
        n, tuple(join), tuple(meet), _jir(d), _mir(d), _nar(d), tuple(upstar),
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
    upcov = d.upcov
    for c in range(d.n):
        for a, b in combinations(bits(upcov[c]), 2):
            if not upcov[a] & upcov[b] & (1 << t.join[a][b]):
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


def _heights(up, chain):
    """How many members of ``chain`` lie at or below each element, by ``up``."""
    return [sum(up[c] >> x & 1 for c in chain) for x in range(len(up))]


def _supports(d):
    lsp, rsp = (
        tuple(chain[h - 1] for h in _heights(d.up, chain))
        for chain in _cover_walks(d)
    )
    mir_mask = sum(1 << m for m in _mir(d))
    lds, rds = [], []
    for x in range(d.n):
        # the top is its own dual support
        mins = [x] if x == d.top else _minimal_in(d, d.up[x] & mir_mask)
        lds.append(min(mins, key=d.lam_pos.__getitem__))
        rds.append(max(mins, key=d.lam_pos.__getitem__))
    return SupportData(lsp, rsp, tuple(lds), tuple(rds))


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

    Raises ValueError unless lo lies below hi.
    """
    if not d.leq(lo, hi):
        raise ValueError(f"{lo} does not lie below {hi}, so they bound no interval")
    members = sorted(bits(d.up[lo] & d.dn[hi]))
    return _dominance_diagram([(d.lam_pos[x], d.rho_pos[x]) for x in members])
