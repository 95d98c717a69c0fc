"""The benchmark's own diagram arithmetic, independent of the program.

Every valid diagram is the dominance drawing of a permutation: put the
element at left-to-right sweep position i at right-to-left sweep position
``sigma[i]``; then x <= y when both positions are <=, and x is left of y
when the first is smaller and the second larger.  Inputs are generated from
such permutations and outputs are checked against them, so nothing here
calls into the package under test.
"""

from __future__ import annotations

import json


def full(perm):
    """Interior permutation of 1..n-2 -> sweep map with bottom and top added."""
    return (0, *perm, len(perm) + 1)


def hasse_covers(sigma):
    """Cover pairs (i, j) of the dominance drawing, in sweep labels."""
    n = len(sigma)
    out = []
    for i in range(n):
        si = sigma[i]
        best = n
        for j in range(i + 1, n):
            sj = sigma[j]
            if si < sj < best:
                out.append((i, j))
                best = sj
                if best == si + 1:
                    break
    return out


def order_pairs(sigma):
    """Every strict order pair (i, j), i < j: a transitively closed cover list."""
    n = len(sigma)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if sigma[i] < sigma[j]]


def left_pairs(sigma):
    """Every left pair (i, j): i sweeps first left to right, last right to left."""
    n = len(sigma)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]]


def text_of(n, covers, left):
    """Compact JSON in the interchange format, pairs in the order given."""
    return json.dumps(
        {"n": n, "covers": [list(p) for p in covers], "left": [list(p) for p in left]},
        separators=(",", ":"),
    )


def relabel(pairs, label):
    return [(label[a], label[b]) for a, b in pairs]


def weak_left_pair_sweep(perm):
    """The lattice of weak left pairs of the diagram ``perm`` draws.

    Elements are the pairs (x, y) with x above the bottom and x equal to or
    left of y, keyed by (sweep position of x, reverse-sweep position of y).
    Ordered componentwise the keys form a dominance drawing whose
    left-to-right sweep is the keys sorted as they are and whose
    right-to-left sweep is the keys sorted with the components swapped;
    returns its sweep map.
    """
    sigma = full(perm)
    n = len(sigma)
    keys = [
        (x, sigma[y])
        for x in range(1, n)
        for y in range(x, n)
        if y == x or sigma[x] > sigma[y]
    ]
    keys.sort()
    by_rho = sorted(range(len(keys)), key=lambda i: (keys[i][1], keys[i][0]))
    out = [0] * len(keys)
    for pos, i in enumerate(by_rho):
        out[i] = pos
    return tuple(out)


def canonical_of(text):
    """(n, canonical permutation) of a document, or None if it is not valid.

    Sweep position of x: the number of elements below x plus the number
    left of x (right of x for the reverse sweep).  A valid diagram makes
    both sweeps permutations; the canonical form lists, in left-to-right
    order, each interior element's right-to-left position.
    """
    data = json.loads(text)
    n = data["n"]
    succ = [0] * n
    for a, b in data["covers"]:
        succ[a] |= 1 << b
    indeg = [0] * n
    for a in range(n):
        for b in range(n):
            if succ[a] >> b & 1:
                indeg[b] += 1
    queue = [x for x in range(n) if indeg[x] == 0]
    below = [0] * n
    seen = 0
    while queue:
        x = queue.pop()
        seen += 1
        for y in range(n):
            if succ[x] >> y & 1:
                below[y] |= below[x] | 1 << x
                indeg[y] -= 1
                if indeg[y] == 0:
                    queue.append(y)
    if seen != n:
        return None
    n_left = [0] * n
    n_right = [0] * n
    for a, b in data["left"]:
        n_right[a] += 1
        n_left[b] += 1
    lam = [below[x].bit_count() + n_left[x] for x in range(n)]
    rho = [below[x].bit_count() + n_right[x] for x in range(n)]
    if sorted(lam) != list(range(n)) or sorted(rho) != list(range(n)):
        return None
    rho_at = [0] * n
    for x in range(n):
        rho_at[lam[x]] = rho[x]
    return n, tuple(rho_at[1 : n - 1])
