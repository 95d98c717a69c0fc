"""Exhaustive enumeration, an independent oracle, and the law suite.

``enumerate_quasiplanar`` walks every similarity class of a given size by
decoding permutations.  ``oracle_enumerate`` reproduces the same classes
the slow way: generate every labeled bounded poset, try every orientation
of its incomparable pairs, keep the valid ones, and group them by explicit
bijection search, never consulting canonical forms.  ``verify_suite`` runs
a battery of named structural laws over every diagram of a size and
returns failures as data rather than raising.  It, ``count_quasiplanar``
and CLI ``enumerate`` run the canonical ranks through one scheduler,
``_in_blocks``, which deals blocks of 120 ranks round-robin over every
available CPU.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice, permutations
from math import factorial

from .diagram import (
    Diagram,
    _dominance_diagram,
    _order_masks,
    _shown,
    bits,
    canonical_form,
    chain_side,
    from_canonical,
    maximal_chains,
    relabel,
    revalidate,
    similar,
)
from .errors import LawViolation, ShareFailed, SizeTooLarge
from .lattice import (
    _cover_walks,
    _slim_semimodular_tables,
    _supports,
    irredundant_meet_representations,
    is_join_distributive,
)
from .transform import (
    antimatroid_of,
    enumerate_hco_filters,
    hco_closure,
    lattice_from_filters,
    lattice_from_filters_labeled,
    lattice_from_pairs_labeled,
    lattice_isomorphic,
    meet_irreducible_filters,
    min_between,
    pair_filter_maps,
    to_quasiplanar,
)


def _check_size(size):
    if not isinstance(size, int) or size < 2:
        raise ValueError(f"size must be an integer >= 2, got {_shown(size)}")
    # math.factorial refuses an argument past the platform's C long
    if size - 2 > sys.maxsize:
        raise SizeTooLarge(
            f"size {_shown(size)} is too large: (size - 2)! cannot be computed"
        )


def expected_count(size):
    """How many similarity classes a size must have: (size - 2) factorial."""
    _check_size(size)
    return factorial(size - 2)


def enumerate_quasiplanar(size):
    """Yield one diagram per similarity class of the given size.

    Classes are walked in lexicographic order of their canonical
    permutations, and each yielded diagram is already canonically labeled:
    element k sits at sweep position k.
    """
    _check_size(size)
    for perm in permutations(range(1, size - 1)):
        yield from_canonical(perm)


def count_quasiplanar(size):
    """Count the similarity classes of a size by actually enumerating them.

    Every diagram is decoded, in blocks of canonical ranks run over every
    CPU this process may use (:func:`_in_blocks`; ``taskset -c 0`` gives
    one process), and each process holds at most one block.
    """
    return sum(_in_blocks(size, _decoded, "the enumeration's block"))


def _decoded(perms):
    return sum(1 for _ in map(from_canonical, perms))


# -- blocks of ranks over every CPU -----------------------------------------

# ranks per block: 5! = 120, so every size up to 7 is one block, which the
# caller runs itself, and size 8 is six; at size 10 a block's documents
# pickle to about 23 kB, within a pipe's 64 kB buffer
_BLOCK = 120


def _cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _processes(total):
    """How many processes share the blocks of ``total`` ranks.

    One, the caller, without ``os.fork``, with a second thread alive
    (forking it is unsafe), or on one CPU; else one per CPU, but no more
    than there are blocks.
    """
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    return min(_cpus(), -(-total // _BLOCK)) if forkable else 1


def _walk(size, starts, work):
    """Yield ``work`` of the permutations of each block, for ascending starts.

    One ``permutations`` iterator walks past the ranks between the blocks;
    ``work`` consumes each block's iterator to its end, which for the last
    block is the end of the ranks.
    """
    perms = permutations(range(1, size - 1))
    at = 0
    for lo in starts:
        next(islice(perms, lo - at, lo - at), None)
        yield work(islice(perms, _BLOCK))
        at = lo + _BLOCK


@contextmanager
def _no_interrupt():
    """Hold SIGINT pending while the body runs."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _fork_walk(size, starts, work, siblings):
    """Walk the blocks at ``starts`` in a forked child; returns its pid and read end.

    The child first closes its copies of the pipes of the children forked
    before it, so the caller is the one reader of every pipe, and a child
    whose pipe the caller closes fails its next write.  It sends each
    block's result as its pickle's length in 8 little-endian bytes, then
    the pickle, and leaves through ``os._exit``, with status 0 only once
    all are written.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(r)
                for _, pipe in siblings:
                    pipe.close()
                with open(w, "wb") as out:
                    for result in _walk(size, starts, work):
                        data = pickle.dumps(result)
                        out.write(len(data).to_bytes(8, "little"))
                        out.write(data)
                        out.flush()
                status = 0
            finally:
                os._exit(status)
    except OSError:
        os.close(r)
        raise
    finally:
        os.close(w)
    return pid, open(r, "rb")


def _reaped(child):
    """Close a child's pipe and wait for it; returns its exit status."""
    pid, pipe = child
    pipe.close()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _in_blocks(size, work, what):
    """Yield ``work`` of each block of a size's canonical ranks, in rank order.

    The one scheduler of ``count``, ``enumerate`` and the law suite.  The
    ranks go in blocks ``[lo, lo + _BLOCK)``, the last one short, and
    ``work`` maps an iterator over a block's permutations to a picklable
    result.  With k processes (:func:`_processes`), block i runs in process
    i mod k: the caller runs blocks 0, k, 2k, ... itself and a forked child
    each other residue, each process walking one ``permutations`` iterator
    past the blocks of the others.  The blocks are dealt from a ``range``
    of their starts, which is never listed or measured, so a size whose
    ranks no list could hold starts at once.  The caller reads the pipes in
    block order and a child's write blocks while its pipe is full, so each
    process holds at most one block's result and the results come in the
    order, and with the values, of a one-process run.  The size is checked
    when the first result is asked for.

    A child that exits non-zero or sends a truncated result raises
    ShareFailed naming ``what`` and the block's ranks.  On every way out,
    an early close of this generator included, each child not yet reaped
    is killed and reaped, with SIGINT held pending until it is.  The
    children are forked with SIGINT blocked and keep it blocked, so an
    interrupt never unwinds a child into the caller's code.
    """
    total = expected_count(size)
    starts = range(0, total, _BLOCK)
    k = _processes(total)
    mine = _walk(size, starts[::k], work)
    children = {}  # residue -> (pid, pipe) of each child not yet reaped
    try:
        if k > 1:
            with _no_interrupt():
                for j in range(1, k):
                    children[j] = _fork_walk(size, starts[j::k], work, children.values())
        for i, lo in enumerate(starts):
            if i % k:
                block = (lo, min(lo + _BLOCK, total))
                yield _received(children, i % k, block, lo + k * _BLOCK >= total, what)
            else:
                yield next(mine)
    finally:
        if children:
            with _no_interrupt():
                for pid, _ in children.values():
                    os.kill(pid, signal.SIGKILL)
                for child in children.values():
                    _reaped(child)


def _retired(children, j):
    """Reap child j, then drop it from ``children``; returns its exit status.

    A child leaves ``children`` only once reaped, so an interrupt during
    the wait leaves it to the ``finally`` of :func:`_in_blocks`.
    """
    status = _reaped(children[j])
    del children[j]
    return status


def _received(children, j, block, last, what):
    """The result child j sends for ``block``.

    The child is reaped after its last block, when its pipe ends short, and
    when its result does not unpickle; a child that may still be running
    is killed first.
    """
    pid, pipe = children[j]
    head = pipe.read(8)
    length = int.from_bytes(head, "little")
    data = pipe.read(length) if len(head) == 8 else b""
    got = len(head) + len(data)
    whole = got == 8 + length
    status = _retired(children, j) if last or not whole else None
    lo, hi = block
    if status:
        raise ShareFailed(
            f"{what} of ranks [{lo}, {hi}) ended with exit status {status}",
            block, status,
        )
    try:
        if whole:
            return pickle.loads(data)
    except (pickle.UnpicklingError, EOFError):
        pass
    if status is None:  # a whole message from a live child that does not unpickle
        os.kill(pid, signal.SIGKILL)
        status = _retired(children, j)
    raise ShareFailed(
        f"{what} of ranks [{lo}, {hi}) sent a truncated result of {got} bytes "
        f"and ended with exit status {status}", block, status,
    )


# -- the independent oracle -----------------------------------------------


def _labeled_posets(k):
    """Every partial order on k labeled points, as reflexive up masks.

    Built by adding point k-1 to each order on k-1 points: choose the
    down-set D of points placed below it and an up-closed U inside the
    common strict up-set of D, so transitivity comes for free and each
    order arises exactly once.
    """
    if k == 0:
        return [()]
    out = []
    full = (1 << (k - 1)) - 1
    for base in _labeled_posets(k - 1):
        strictup = [base[x] & ~(1 << x) for x in range(k - 1)]
        strictdn = [0] * (k - 1)
        for x in range(k - 1):
            for y in bits(strictup[x]):
                strictdn[y] |= 1 << x
        downsets = [
            m for m in range(1 << (k - 1))
            if all(not strictdn[x] & ~m for x in bits(m))
        ]
        for dmask in downsets:
            allowed = full
            for x in bits(dmask):
                allowed &= strictup[x]
            umask = allowed
            while True:
                if all(not strictup[x] & ~umask for x in bits(umask)):
                    up = list(base)
                    for x in bits(dmask):
                        up[x] |= 1 << (k - 1)
                    up.append((1 << (k - 1)) | umask)
                    out.append(tuple(up))
                if umask == 0:
                    break
                umask = (umask - 1) & allowed
    return out


def _invariants(d, respect_left):
    up, dn = _order_masks(d.lam_pos, d.rho_pos)
    if respect_left:
        # x is left of what follows it in the left-to-right sweep but not above it
        return [
            (up[x].bit_count(), dn[x].bit_count(), d.n - d.lam_pos[x] - up[x].bit_count())
            for x in range(d.n)
        ]
    return [(up[x].bit_count(), dn[x].bit_count()) for x in range(d.n)]


def _bijection_search(d1, d2, respect_left):
    """Look for a structure-preserving bijection by plain backtracking."""
    if d1.n != d2.n:
        return False
    inv1 = _invariants(d1, respect_left)
    inv2 = _invariants(d2, respect_left)
    if sorted(inv1) != sorted(inv2):
        return False
    n = d1.n
    cands = [[u for u in range(n) if inv2[u] == inv1[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: len(cands[x]))
    image = [-1] * n
    used = [False] * n

    def place(i):
        if i == n:
            return True
        x = order[i]
        for u in cands[x]:
            if used[u]:
                continue
            ok = True
            for j in range(i):
                y = order[j]
                v = image[y]
                if d1.leq(x, y) != d2.leq(u, v) or d1.leq(y, x) != d2.leq(v, u):
                    ok = False
                    break
                if respect_left and (
                    d1.left(x, y) != d2.left(u, v)
                    or d1.left(y, x) != d2.left(v, u)
                ):
                    ok = False
                    break
            if ok:
                image[x] = u
                used[u] = True
                if place(i + 1):
                    return True
                used[u] = False
                image[x] = -1
        return False

    return place(0)


def similar_by_search(d1, d2):
    """Similarity decided by bijection search instead of canonical forms."""
    return _bijection_search(d1, d2, respect_left=True)


def order_isomorphic_by_search(d1, d2):
    """Whether some bijection preserves the order, ignoring left."""
    return _bijection_search(d1, d2, respect_left=False)


def oracle_enumerate(size):
    """One representative per similarity class, computed the slow way.

    Exhausts labeled bounded posets (bottom 0, top size-1, free interior)
    and all 2^t orientations of their t incomparable pairs, keeps the
    orientations whose two sweeps are linear, and deduplicates with
    :func:`similar_by_search`.  Exists to cross-check the permutation
    decoder, so it shares none of its machinery.
    """
    _check_size(size)
    if size > 6:
        raise SizeTooLarge(f"oracle enumeration is limited to size 6, got {size}")
    n = size
    k = n - 2
    reps = []
    buckets = {}
    for base in _labeled_posets(k):
        up = [0] * n
        up[0] = (1 << n) - 1
        up[n - 1] = 1 << (n - 1)
        for x in range(k):
            up[x + 1] = (base[x] << 1) | (1 << (n - 1))
        incomp = [
            (x, y)
            for x in range(1, n - 1)
            for y in range(x + 1, n - 1)
            if not (up[x] & (1 << y) or up[y] & (1 << x))
        ]
        for sel in range(1 << len(incomp)):
            lft = [0] * n
            rgt = [0] * n
            for i, (x, y) in enumerate(incomp):
                if sel >> i & 1:
                    lft[x] |= 1 << y
                    rgt[y] |= 1 << x
                else:
                    lft[y] |= 1 << x
                    rgt[x] |= 1 << y
            # sweep position = n - 1 - (number of elements after x)
            lam = [
                n - 1 - ((up[x] & ~(1 << x)) | lft[x]).bit_count()
                for x in range(n)
            ]
            if sorted(lam) != list(range(n)):
                continue
            rho = [
                n - 1 - ((up[x] & ~(1 << x)) | rgt[x]).bit_count()
                for x in range(n)
            ]
            if sorted(rho) != list(range(n)):
                continue
            d = Diagram(lam, rho)
            sig = tuple(sorted(_invariants(d, respect_left=True)))
            bucket = buckets.setdefault(sig, [])
            if not any(similar_by_search(d, r) for r in bucket):
                bucket.append(d)
                reps.append(d)
    return tuple(reps)


def dissimilar_same_order_witness(size):
    """Two enumerated diagrams sharing a poset but with different lattices.

    Returns the first pair (in enumeration order) that is order isomorphic
    yet has non-isomorphic filter lattices, or None when the size admits
    none.  The smallest size with a witness is 6: orientation genuinely
    changes the lattice, not just the drawing.
    """
    ds = list(enumerate_quasiplanar(size))
    lats = [lattice_from_filters(d) for d in ds]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            if order_isomorphic_by_search(ds[i], ds[j]) and not (
                lattice_isomorphic(lats[i], lats[j])
            ):
                return ds[i], ds[j]
    return None


# -- the law suite ---------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named law over one whole size."""

    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class EnumerationReport:
    """Everything verify_suite learned about one size."""

    size: int
    count: int
    expected: int
    results: tuple[CheckResult, ...]
    elapsed: float
    processes: int = 1  # how many processes ran blocks of the diagrams

    @property
    def passed(self):
        return self.count == self.expected and all(r.passed for r in self.results)


class _Ctx:
    """Shared per-diagram artifacts, built lazily so failures stay local."""

    def __init__(self, q):
        self.q = q
        self._closures = {}

    @cached_property
    def fam(self):
        return enumerate_hco_filters(self.q)

    @property
    def pairs(self):
        return self.beta1_labeled[1]

    @cached_property
    def beta1_labeled(self):
        return lattice_from_pairs_labeled(self.q)

    @cached_property
    def beta2_labeled(self):
        return lattice_from_filters_labeled(self.q)

    @property
    def beta1(self):
        return self.beta1_labeled[0]

    @property
    def beta2(self):
        return self.beta2_labeled[0]

    @cached_property
    def tables(self):
        # by the definition, not the certificate: the suite is its oracle
        return _slim_semimodular_tables(self.beta2)

    # past the gate: alpha2 certifies beta2, and tables check it by definition
    @cached_property
    def chains(self):
        return _cover_walks(self.beta2)

    @cached_property
    def alpha2(self):
        return to_quasiplanar(self.beta2)

    @cached_property
    def maps(self):
        return pair_filter_maps(self.q)

    @cached_property
    def support_data(self):
        return _supports(self.beta2)

    @cached_property
    def up_masks(self):  # of q, for the definition side of the filter laws
        return _order_masks(self.q.lam_pos, self.q.rho_pos)[0]

    @cached_property
    def filter_index(self):
        return {f: i for i, f in enumerate(self.beta2_labeled[1])}

    def closure(self, elems):
        key = frozenset(elems)
        if key not in self._closures:
            self._closures[key] = hco_closure(self.q, key)
        return self._closures[key]


def _require(holds, message, *args):
    """Raise LawViolation(message.format(*args)) unless ``holds``.

    A law body states each check with this, never with ``assert``, so the
    suite still checks under ``python -O``.  The message is formatted only
    on failure.
    """
    if not holds:
        raise LawViolation(message.format(*args))


def _require_same_positions(got, want, message):
    """Require two diagrams on one ground set to be equal.

    A diagram is its two sweep positions, so on failure ``message`` is
    formatted with the first element the two place differently.
    """
    if got != want:
        raise LawViolation(message.format(next(
            x for x in range(want.n)
            if (got.lam_pos[x], got.rho_pos[x]) != (want.lam_pos[x], want.rho_pos[x])
        )))


def _is_hco_filter(up, ground, mask, lft, rgt):
    """Whether ``mask`` is a horizontally convex filter, by the definition."""
    for x in bits(mask):
        if up[x] & ~mask:
            return False
    for y in bits(ground & ~mask):
        if rgt[y] & mask and lft[y] & mask:
            return False
    return True


def _hco_filters_by_definition(d, up):
    """Every horizontally convex filter of ``d`` (up masks ``up``), by testing all 2^n sets.

    The reference for :func:`~quasiplanar.transform.enumerate_hco_filters`,
    which builds one filter per weak left pair instead.
    """
    lft, rgt = [0] * d.n, [0] * d.n
    for x, y in d.left_pairs():
        lft[x] |= 1 << y
        rgt[y] |= 1 << x
    ground = ((1 << d.n) - 1) & ~(1 << d.bottom)
    return {
        frozenset(bits(m)) for m in range(1, 1 << d.n)
        if not m & ~ground and _is_hco_filter(up, ground, m, lft, rgt)
    }


def _check_validation(c):
    _require(revalidate(c.q) == c.q, "revalidation changed the diagram")


def _check_filter_lattice_structure(c):
    c.tables  # NotSlimSemimodular names what fails
    _require(is_join_distributive(c.beta2), "filter lattice is not join distributive")


def _check_pair_lattice_structure(c):
    _slim_semimodular_tables(c.beta1)
    _require(is_join_distributive(c.beta1), "pair lattice is not join distributive")


def _check_lattices_agree(c):
    _require(similar(c.beta1, c.beta2), "pair and filter lattices are dissimilar")
    to_filter, _ = c.maps
    _, pair_labels = c.beta1_labeled
    m = [c.filter_index[to_filter[p]] for p in pair_labels]
    _require(sorted(m) == list(range(c.beta2.n)), "the closure map is no bijection")
    _require_same_positions(
        relabel(c.beta1, m), c.beta2,
        "closure map moves the pair lattice off filter {}",
    )


def _check_pair_filter_maps(c):
    to_filter, to_pair = c.maps
    filters = c.fam.filters
    _require(
        sorted(to_filter.values(), key=sorted) == sorted(filters, key=sorted),
        "pair closures do not exhaust the filters",
    )
    # once the filters are exhausted, a pair round trip that holds forces
    # the filter round trip, not conversely (a filter listed twice), so the
    # filter round trip goes first and both can fail
    for f in filters:
        if to_filter.get(to_pair[f]) != f:
            raise LawViolation(f"round trip moved a filter {sorted(f)}")
    for p in c.pairs:
        _require(to_pair[to_filter[p]] == p, "round trip moved the pair {}", p)
    # the pair lattice orders the pairs componentwise along the two sweeps
    beta1, pairs = c.beta1_labeled
    by_label = [to_filter[p] for p in pairs]
    for i, f in enumerate(by_label):
        for j, g in enumerate(by_label):
            if beta1.leq(i, j) != (g <= f):
                raise LawViolation(
                    f"pair order and filter order disagree at {pairs[i]}, {pairs[j]}"
                )


def _check_closure_betweenness(c):
    for p in c.pairs:
        upmask = 0
        for z in min_between(c.q, *p):
            upmask |= c.up_masks[z]
        _require(
            c.closure(p) == frozenset(bits(upmask)),
            "closure of {} is not the up-set of its betweenness minima", p,
        )


def _check_closure_laws(c):
    q = c.q
    ground = [x for x in range(q.n) if x != q.bottom]
    for x1, x2, x3 in combinations(ground, 3):
        _require(
            x1 in c.closure((x2, x3))
            or x2 in c.closure((x1, x3))
            or x3 in c.closure((x1, x2)),
            "no element of {} closes over the other two", (x1, x2, x3),
        )
    for x1, x2 in c.pairs:
        cl = c.closure((x1, x2))
        for x3 in ground:
            if q.lt(x3, x1):
                _require(
                    x3 not in cl,
                    "{} below {} invades the closure of {}", x3, x1, (x1, x2),
                )
    # the bottom lies below everything, so no left pair holds it
    for x1, x2 in q.left_pairs():
        for x3 in range(q.n):
            if q.left(x2, x3):
                _require(
                    x1 not in c.closure((x2, x3)),
                    "{} enters the closure of {} from the left", x1, (x2, x3),
                )
                _require(
                    x3 not in c.closure((x1, x2)),
                    "{} enters the closure of {} from the right", x3, (x1, x2),
                )


def _check_rebuild_from_pairs(c):
    _require(
        similar(to_quasiplanar(c.beta1), c.q),
        "rebuilding from the pair lattice lost the diagram",
    )


def _check_rebuild_from_filters(c):
    _require(
        similar(c.alpha2, c.q),
        "rebuilding from the filter lattice lost the diagram",
    )


def _check_double_round_trip(c):
    again = lattice_from_filters(c.alpha2)
    _require(similar(again, c.beta2), "filter lattice drifts under a round trip")


def _check_antimatroid(c):
    feasible = antimatroid_of(c.q).feasible
    _require(frozenset() in feasible, "empty set must be feasible")
    _require(
        frozenset().union(*feasible) == frozenset(c.q.interior()),
        "feasible sets must cover the ground set",
    )
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


def _check_peelings(c):
    fam = c.fam
    known = set(fam.filters)
    for chain in (fam.left_chain, fam.right_chain):
        for f in chain:
            _require(f in known, "peel member {} is not a filter", sorted(f))
        for a, b in zip(chain, chain[1:]):
            _require(
                b < a and len(a - b) == 1, "peel step must remove one element"
            )
    lc = tuple(c.filter_index[f] for f in fam.left_chain)
    rc = tuple(c.filter_index[f] for f in fam.right_chain)
    _require(
        c.chains == (lc, rc),
        "peel chains are not the boundary chains",
    )


def _check_peel_intersections(c):
    fam = c.fam
    got = {a & b for a in fam.left_chain for b in fam.right_chain}
    _require(
        got == set(fam.filters),
        "filters are not exactly the peel chain intersections",
    )


def _check_counts_agree(c):
    # the family is built from the weak pairs, so it is held against the
    # definition-level scan, not only counted
    want = _hco_filters_by_definition(c.q, c.up_masks)
    _require(
        set(c.fam.filters) == want,
        "the filter family differs from the definition-level scan",
    )
    _require(
        len(c.fam.filters) == len(want) == len(c.pairs),
        "{} filters ({} by definition) against {} weak pairs",
        len(c.fam.filters), len(want), len(c.pairs),
    )


def _check_meet_irreducible_filters(c):
    q = c.q
    principal = meet_irreducible_filters(q)
    d, filters = c.beta2_labeled
    _require(
        set(principal.values()) == {filters[i] for i in c.tables.mir},
        "meet-irreducible filters are not the principal interior filters",
    )
    for x in q.interior():
        for y in q.interior():
            if q.incomparable(x, y) and q.left(x, y) != d.left(
                c.filter_index[principal[x]], c.filter_index[principal[y]]
            ):
                raise LawViolation(
                    f"left relation does not transport at ({x}, {y})"
                )


def _check_supports(c):
    sup = c.support_data
    d = c.beta2
    lc, rc = c.chains
    lrank = {x: i for i, x in enumerate(lc)}
    rrank = {x: i for i, x in enumerate(rc)}
    # the drawing diagram_from_chains makes from the support heights
    keys = [(rrank.get(sup.rsp[x]), lrank.get(sup.lsp[x])) for x in range(d.n)]
    for x, key in enumerate(keys):
        _require(None not in key, "support of element {} is off its boundary chain", x)
    _require(len(set(keys)) == d.n, "two elements share their support ranks")
    _require_same_positions(
        _dominance_diagram(keys), d, "support ranks misplace element {}"
    )
    t = c.tables
    _, to_pair = c.maps
    for i, f in enumerate(c.beta2_labeled[1]):
        _require(
            t.join[sup.lsp[i]][sup.rsp[i]] == i,
            "element is not the join of its supports",
        )
        _require(
            i == d.top or t.meet[sup.lds[i]][sup.rds[i]] == i,
            "element is not the meet of its dual supports",
        )
        lm, rm = to_pair[f]
        _require(
            sup.lds[i] == c.filter_index[frozenset(bits(c.up_masks[lm]))],
            "left dual support of element {} is not the leftmost principal filter",
            i,
        )
        _require(
            sup.rds[i] == c.filter_index[frozenset(bits(c.up_masks[rm]))],
            "right dual support of element {} is not the rightmost principal filter",
            i,
        )


def _check_meet_representations(c):
    d = c.beta2
    t = c.tables
    sup = c.support_data
    for x in range(d.n):
        reps = irredundant_meet_representations(d, t, x)
        if x == d.top:
            want = [frozenset()]
        else:
            want = [frozenset({sup.lds[x], sup.rds[x]})]
        _require(
            reps == want,
            "element {} has meet representations {}, expected {}", x, reps, want,
        )


def _check_mir_absorption(c):
    d = c.beta2
    t = c.tables
    for a in sorted(t.mir):
        for higher in (z for z in d.lam_order[d.lam_pos[a]:] if d.lt(a, z)):
            for b in range(d.n):
                if d.leq(t.meet[b][higher], a):
                    _require(
                        d.leq(b, a),
                        "meet with {} drops {} below irreducible {}", higher, b, a,
                    )


def _check_betweenness_positions(c):
    # z is between x and y when it is x or right of x, and y or left of
    # y, read off the listed left pairs; the pairs run over those listed
    # and those the positions place, so at z = x a pair the walk dropped,
    # or listed without the positions, is a witness like any other
    q = c.q
    lam, rho = q.lam_pos, q.rho_pos
    left = set(q.left_pairs())
    placed = {(x, y) for x in range(q.n) for y in range(q.n) if q.left(x, y)}
    for x, y in sorted(left | placed):
        for z in range(q.n):
            between = (z == x or (x, z) in left) and (z == y or (z, y) in left)
            sandwich = lam[x] <= lam[z] <= lam[y] and rho[y] <= rho[z] <= rho[x]
            _require(
                between == sandwich,
                "betweenness and sweep positions disagree at {}", (x, z, y),
            )


def _check_chain_sides(c):
    q = c.q
    for chain in maximal_chains(q):
        members = set(chain)
        for x in range(q.n):
            side = chain_side(q, chain, x)
            if x in members:
                _require(
                    side == "on", "element {} of the chain {} is not on it",
                    x, chain,
                )
            else:
                _require(
                    side in ("left", "right"),
                    "element {} straddles the chain {}", x, chain,
                )
    d = c.beta2
    lc, rc = c.chains
    for x in range(d.n):
        if x not in lc:
            _require(
                chain_side(d, lc, x) == "right",
                "element {} escapes the left boundary", x,
            )
        if x not in rc:
            _require(
                chain_side(d, rc, x) == "left",
                "element {} escapes the right boundary", x,
            )


_CHECKS = (
    ("validation is stable", _check_validation),
    ("filter lattice is slim semimodular", _check_filter_lattice_structure),
    ("pair lattice is slim semimodular", _check_pair_lattice_structure),
    ("pair and filter lattices agree", _check_lattices_agree),
    ("pair and filter maps are reciprocal", _check_pair_filter_maps),
    ("closures are betweenness upsets", _check_closure_betweenness),
    ("closure laws hold", _check_closure_laws),
    ("pair lattice rebuilds the diagram", _check_rebuild_from_pairs),
    ("filter lattice rebuilds the diagram", _check_rebuild_from_filters),
    ("round trip fixes the filter lattice", _check_double_round_trip),
    ("filter complements form an antimatroid", _check_antimatroid),
    ("peelings walk the boundary chains", _check_peelings),
    ("filters are peel intersections", _check_peel_intersections),
    ("filters and weak pairs are equinumerous", _check_counts_agree),
    ("meet irreducibles carry principal filters", _check_meet_irreducible_filters),
    ("supports compose every element", _check_supports),
    ("meet representations are unique", _check_meet_representations),
    ("meet irreducibles absorb from above", _check_mir_absorption),
    ("betweenness matches sweep positions", _check_betweenness_positions),
    ("no element straddles a maximal chain", _check_chain_sides),
)


_DISSIMILAR = "filter lattices are pairwise dissimilar"


def check_names():
    """The stable names of the per-diagram laws, in run order."""
    return tuple(name for name, _ in _CHECKS)


def _fail(ledger, name, witness, more=0):
    """Record a failure of a law, then ``more`` failures that followed it."""
    entry = ledger[name]
    if entry[0]:
        entry[1] += 1 + more
    else:
        entry[:] = witness, more


def _run_block(perms):
    """Run every law over the diagrams of the canonical permutations ``perms``.

    Returns the number of diagrams, a ledger ``{law: [first witness, how
    many more failures followed]}``, and in rank order the ``(filter lattice
    key, perm)`` of each diagram whose filter lattice was built.
    """
    ledger = {name: ["", 0] for name in check_names()}
    keys = []
    count = 0
    for perm in perms:
        count += 1
        ctx = _Ctx(from_canonical(perm))
        for name, fn in _CHECKS:
            try:
                fn(ctx)
            except Exception as e:
                _fail(ledger, name, f"perm {perm}: {str(e) or type(e).__name__}")
        try:
            keys.append(((ctx.beta2.n, canonical_form(ctx.beta2)), perm))
        except Exception:
            continue  # the laws above already name the failed construction
    return count, ledger, keys


def verify_suite(size):
    """Run every law over every diagram of a size; failures become data.

    Each named check gets one result covering the whole size, carrying the
    canonical permutation of the first offending diagram (and how many
    more followed).  A final result checks that the filter lattices of
    distinct diagrams are pairwise dissimilar.

    On POSIX, the diagrams run in the blocks of canonical ranks that
    :func:`_in_blocks` deals round-robin to the caller and one forked
    child per further CPU this process may use (``taskset -c 0`` gives one
    process).  Every size up to 7 is one block, which the caller runs.  The
    blocks' ledgers and lattice keys are merged in rank order, so the
    report is the same as a one-process run's but for ``elapsed`` and
    ``processes``.  A child sends back each block's ledger and lattice keys
    as it finishes it, so its own memory stays that of the caller at the
    fork plus one block's diagrams.  A child that dies or reports short
    raises ShareFailed rather than returning a report.
    """
    start = time.perf_counter()
    total = expected_count(size)
    ledger = {name: ["", 0] for name in (*check_names(), _DISSIMILAR)}
    count = 0
    perm_of_lattice = {}
    blocks = _in_blocks(size, _run_block, "the law suite's block")
    with closing(blocks):
        for block_count, block_ledger, keys in blocks:
            count += block_count
            for name, (first, more) in block_ledger.items():
                if first:
                    _fail(ledger, name, first, more)
            for key, perm in keys:
                other = perm_of_lattice.setdefault(key, perm)
                if other != perm:
                    _fail(ledger, _DISSIMILAR,
                          f"perm {perm} and perm {other} share a filter lattice")
    results = tuple(
        CheckResult(name, not first, first + (f" (and {more} more)" if more else ""))
        for name, (first, more) in ledger.items()
    )
    elapsed = time.perf_counter() - start
    return EnumerationReport(size, count, total, results, elapsed, _processes(total))
