"""The four workloads: seeded inputs, the timed calls, and their checks.

A workload is a list of rounds; a round is a fixed list of operations in a
seeded order.  Every seed gives a round the same mix of operation kinds and
input sizes, so runs with different seeds measure the same amount of work
on different inputs.  The program under test sees only generated
documents (on stdin) and argv, or a plain API call for ``laws``.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import quasiplanar
import quasiplanar.cli

from . import docs


@dataclass
class Op:
    """One timed call: ``call()`` runs it, ``check(result)`` judges it untimed."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    items: int = 1


@dataclass
class Workload:
    rounds: list[list[Op]]
    warmup: list[Op]
    item: str


def run_cli(argv, stdin="", stdout=None):
    """``quasiplanar.cli.main(argv)`` in process: (exit code, stdout, stderr).

    ``main`` is looked up at call time, so a traced run sees its wrapper.
    """
    out = io.StringIO() if stdout is None else stdout
    err = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = quasiplanar.cli.main(argv)
            except SystemExit as e:
                code = e.code
    finally:
        sys.stdin = saved
    return code, out if stdout is not None else out.getvalue(), err.getvalue()


def cli_op(kind, argv, stdin, check, items=1):
    return Op(kind, lambda: run_cli(argv, stdin), check, items)


def _random_perm(rng, k):
    perm = list(range(1, k + 1))
    rng.shuffle(perm)
    return tuple(perm)


def _labels(rng, n):
    lab = list(range(n))
    rng.shuffle(lab)
    return lab


def _scrambled(rng, pairs, lab):
    out = docs.relabel(pairs, lab)
    rng.shuffle(out)
    return out


# -- laws -------------------------------------------------------------------


def laws(seed, tiny=False):
    """``verify_suite`` over a whole size; the seed does not enter."""

    def suite(size):
        expected = 1
        for k in range(2, size - 1):
            expected *= k

        def check(report):
            return report.passed is True and report.count == expected

        return Op(f"verify_suite({size})", lambda: quasiplanar.verify_suite(size),
                  check, items=expected)

    size = 5 if tiny else 8
    return Workload([[suite(size)]], [suite(size - 2)], "diagram verified")


# -- construct ----------------------------------------------------------------


def _typical_perm(rng, k):
    """A random permutation of 1..k with the mean number of inversions.

    The lattices built from it then have one size per k, (k + 1) plus the
    inversions, so seeds differ in shape but not in how much work they ask.
    """
    target = k * (k - 1) / 4
    while True:
        perm = _random_perm(rng, k)
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        if abs(inversions - target) <= 1:
            return perm


def _construct_round(rng, sizes):
    ops = []
    for n in sizes:
        perm = _typical_perm(rng, n - 2)
        sigma = docs.full(perm)
        lab = _labels(rng, n)
        diagram = docs.text_of(
            n, _scrambled(rng, docs.hasse_covers(sigma), lab),
            _scrambled(rng, docs.left_pairs(sigma), lab),
        )
        lat = docs.weak_left_pair_sweep(perm)
        m = len(lat)
        lab = _labels(rng, m)
        lattice = docs.text_of(
            m, _scrambled(rng, docs.hasse_covers(lat), lab),
            _scrambled(rng, docs.left_pairs(lat), lab),
        )

        def draws(want):
            return lambda r: r[0] == 0 and docs.canonical_of(r[1]) == want

        beta_ok = draws((m, lat[1:-1]))
        ops += [
            cli_op("beta", ["beta", "-"], diagram, beta_ok),
            cli_op("beta --variant 1", ["beta", "--variant", "1", "-"], diagram, beta_ok),
            cli_op("alpha", ["alpha", "-"], lattice, draws((n, perm))),
            cli_op("roundtrip diagram", ["roundtrip", "-"], diagram, _similar),
            cli_op("roundtrip lattice", ["roundtrip", "-"], lattice, _similar),
        ]
    rng.shuffle(ops)
    return ops


def _similar(r):
    return r[0] == 0 and json.loads(r[1])["similar"] is True


def construct(seed, tiny=False):
    """β1, β2, α and round trips on random canonical permutations, n 14-20."""
    rng = random.Random(seed)
    sizes = (6, 7) if tiny else tuple(range(14, 21))
    rounds = [_construct_round(rng, sizes) for _ in range(1 if tiny else 4)]
    return Workload(rounds, _construct_round(rng, (8,)), "document answered")


# -- ingest -------------------------------------------------------------------

ERRORS = ("NotAPartialOrder", "LeftOnComparable", "LeftIncomplete", "NotLinearizable")


def _near_chain(rng, n):
    """The chain with about n/10 disjoint adjacent interior swaps (diamonds)."""
    perm = list(range(1, n - 1))
    for i in sorted(rng.sample(range(0, n - 3, 2), max(1, n // 10))):
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def _defect(rng, error, sigma, lab):
    """Covers and left pairs of ``sigma`` with one defect raising ``error``."""
    covers = docs.hasse_covers(sigma)
    left = docs.left_pairs(sigma)
    if error == "NotAPartialOrder":
        a, b = rng.choice(covers)
        covers.append((b, a))
    elif error == "LeftOnComparable":
        left.append(rng.choice(covers))
    elif error == "LeftIncomplete":
        left.pop(rng.randrange(len(left)))
    else:
        # Reversing a left pair two or more sweep steps apart breaks the sweep;
        # adjacent ones would only swap two elements.
        i = rng.choice([k for k, (a, b) in enumerate(left) if b - a >= 2])
        a, b = left[i]
        left[i] = (b, a)
    return _scrambled(rng, covers, lab), _scrambled(rng, left, lab)


def _valid_ops(rng, kind, sigma, closed=False):
    n = len(sigma)
    lab = _labels(rng, n)
    covers = docs.order_pairs(sigma) if closed else docs.hasse_covers(sigma)
    left = docs.left_pairs(sigma)
    text = docs.text_of(n, _scrambled(rng, covers, lab), _scrambled(rng, left, lab))
    want = docs.text_of(
        n, sorted(docs.relabel(docs.hasse_covers(sigma), lab)),
        sorted(docs.relabel(left, lab)),
    ) + "\n"
    canon = {"n": n, "canonical": list(sigma[1:-1])}
    return [
        cli_op(f"validate {kind}", ["validate", "-"], text,
               lambda r: r == (0, want, "")),
        cli_op(f"canon {kind}", ["canon", "-"], text,
               lambda r: r[0] == 0 and r[2] == "" and json.loads(r[1]) == canon),
    ]


def _invalid_ops(rng, error, sigma):
    covers, left = _defect(rng, error, sigma, _labels(rng, len(sigma)))
    text = docs.text_of(len(sigma), covers, left)

    def check(r):
        return r[0] == 1 and r[1] == "" and r[2].startswith(error + ":")

    return [
        cli_op("validate invalid", ["validate", "-"], text, check),
        cli_op("canon invalid", ["canon", "-"], text, check),
    ]


def _ingest_round(rng, sizes, errors):
    chains, near, dense, bad = sizes
    ops = []
    for n in chains:
        ops += _valid_ops(rng, "chain", docs.full(range(1, n - 1)))
    for n in near:
        ops += _valid_ops(rng, "near-chain", docs.full(_near_chain(rng, n)))
    for n in dense:
        sigma = docs.full(_random_perm(rng, n - 2))
        ops += _valid_ops(rng, "dense", sigma)
        ops += _valid_ops(rng, "closed", sigma, closed=True)
    for n, error in zip(bad, errors):
        sigma = docs.full(_random_perm(rng, n - 2))
        while not any(b - a >= 2 for a, b in docs.left_pairs(sigma)):
            sigma = docs.full(_random_perm(rng, n - 2))
        ops += _invalid_ops(rng, error, sigma)
    rng.shuffle(ops)
    return ops


def ingest(seed, tiny=False):
    """validate and canon on chains, dense diagrams, and defective documents.

    A round has 18 valid documents and 2 invalid ones; two rounds cover the
    four error classes.
    """
    rng = random.Random(seed)
    if tiny:
        sizes = ((10,), (12,), (10,), (10, 12))
    else:
        sizes = (
            (100, 200, 400, 800),
            (150, 300, 600),
            (100, 120, 140, 170, 200, 240, 280),
            (150, 250),
        )
    rounds = [_ingest_round(rng, sizes, ERRORS[i:i + 2]) for i in (0, 2)]
    warm = _ingest_round(rng, ((8,), (9,), (8,), (8, 8, 8, 8)), ERRORS)
    return Workload(rounds, warm, "document answered")


# -- enumerate ----------------------------------------------------------------


class LineSink:
    """A stdout stand-in that keeps a hash per line instead of the line."""

    def __init__(self):
        self.hashes = []

    def write(self, s):
        if s != "\n":
            self.hashes.append(hash(s))
        return len(s)

    def flush(self):
        pass


def _nth_permutation(items, k):
    """The k-th permutation of ``items`` in lexicographic order."""
    items = list(items)
    out = []
    fact = [1]
    for i in range(1, len(items)):
        fact.append(fact[-1] * i)
    for i in range(len(items) - 1, -1, -1):
        q, k = divmod(k, fact[i])
        out.append(items.pop(q))
    return tuple(out)


def _enumerate_ops(rng, size, samples):
    total = 1
    for k in range(2, size - 1):
        total *= k
    picks = rng.sample(range(total), min(samples, total))
    want = {}
    for i in picks:
        sigma = docs.full(_nth_permutation(range(1, size - 1), i))
        text = docs.text_of(size, docs.hasse_covers(sigma), docs.left_pairs(sigma))
        want[i] = hash(text)

    def run_enumerate():
        return run_cli(["enumerate", "--size", str(size)], stdout=LineSink())

    def check_enumerate(r):
        code, sink, err = r
        h = sink.hashes
        return (
            code == 0 and err == "" and len(h) == total
            and len(set(h)) == total and all(h[i] == v for i, v in want.items())
        )

    def check_count(r):
        return r[0] == 0 and json.loads(r[1]) == {
            "size": size, "count": total, "expected": total,
        }

    ops = [
        Op("enumerate", run_enumerate, check_enumerate, items=total),
        cli_op("count", ["count", "--size", str(size)], "", check_count, items=total),
    ]
    rng.shuffle(ops)
    return ops


def enumerate_(seed, tiny=False):
    """CLI count and enumerate over every diagram of one size."""
    rng = random.Random(seed)
    size = 6 if tiny else 10
    rounds = [_enumerate_ops(rng, size, 64)]
    return Workload(rounds, _enumerate_ops(rng, 6, 4), "diagram emitted or counted")


WORKLOADS = {
    "laws": laws,
    "construct": construct,
    "ingest": ingest,
    "enumerate": enumerate_,
}
