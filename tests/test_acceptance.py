"""Acceptance suite: one test per shipped guarantee.

Run ``pytest -v tests/test_acceptance.py`` for a one-line pass/fail report
per criterion; add ``-s`` to see the timing and size summaries.
"""

import json
import time

import quasiplanar as qp


def test_criterion_1_count_reproduction():
    """count_quasiplanar(n) equals (n - 2)! for n = 3..9, under 2 minutes."""
    start = time.perf_counter()
    counts = [qp.count_quasiplanar(n) for n in range(3, 10)]
    elapsed = time.perf_counter() - start
    assert counts == [1, 2, 6, 24, 120, 720, 5040]
    assert elapsed < 120
    print(f"criterion 1: counts 3..9 reproduced in {elapsed:.1f}s")


def test_criterion_2_construction_round_trips():
    """Out-and-back constructions land in the same similarity class."""
    checked = 0
    for size in range(2, 8):
        for q in qp.enumerate_quasiplanar(size):
            lat = qp.lattice_from_filters(q)
            assert qp.similar(qp.to_quasiplanar(qp.lattice_from_pairs(q)), q)
            assert qp.similar(qp.to_quasiplanar(lat), q)
            assert qp.similar(qp.lattice_from_filters(qp.to_quasiplanar(lat)), lat)
            checked += 1
    assert checked == 1 + 1 + 2 + 6 + 24 + 120
    print(f"criterion 2: {checked} diagrams round-tripped three ways")


def test_criterion_3_both_constructions_agree():
    """The pair lattice and the filter lattice are similar for every input."""
    for size in range(2, 8):
        for q in qp.enumerate_quasiplanar(size):
            assert qp.similar(qp.lattice_from_pairs(q), qp.lattice_from_filters(q))
    print("criterion 3: pair and filter lattices agree through size 7")


def test_criterion_4_structural_predicates():
    """Every constructed lattice is slim, semimodular, join-distributive,
    and the filter complements form an antimatroid."""
    for size in range(2, 8):
        for q in qp.enumerate_quasiplanar(size):
            lat = qp.lattice_from_filters(q)
            assert qp.is_lattice(lat)
            assert qp.is_semimodular(lat)
            assert qp.is_slim(lat)
            assert qp.is_join_distributive(lat)
            am = qp.antimatroid_of(q)
            assert am.ground == frozenset(q.interior())
            assert frozenset() in am.feasible
            assert frozenset().union(*am.feasible) == am.ground
            assert all(a | b in am.feasible for a in am.feasible for b in am.feasible)
            assert all(
                any(a - {x} in am.feasible for x in a) for a in am.feasible if a
            )
    print("criterion 4: structural predicates hold through size 7")


def test_criterion_5_law_suites():
    """Every supporting law holds on every diagram up to size 6."""
    for size in range(2, 7):
        report = qp.verify_suite(size)
        failures = [r for r in report.results if not r.passed]
        assert report.count == report.expected
        assert failures == []
        assert report.passed
    print("criterion 5: all laws clean through size 6")


def test_criterion_6_oracle_equivalence():
    """The brute-force oracle finds the same similarity classes."""
    for size in range(2, 7):
        reps = qp.oracle_enumerate(size)
        fast = list(qp.enumerate_quasiplanar(size))
        assert len(reps) == len(fast)
        for r in reps:
            assert sum(1 for f in fast if qp.similar_by_search(r, f)) == 1
    print("criterion 6: oracle partitions agree through size 6")


def test_criterion_7_desk_fixtures():
    """The worked five-element example behaves exactly as documented."""
    q5 = qp.capped_diamond()

    # the filter lattice, recomputed from the convexity definition
    fam = qp.enumerate_hco_filters(q5)
    ground = set(q5.interior()) | {q5.top}
    recomputed = []
    for size in range(1, len(ground) + 1):
        for mask in range(1 << q5.n):
            members = {e for e in range(q5.n) if mask >> e & 1}
            if len(members) != size or not members <= ground or not members:
                continue
            up_closed = all(
                y in members
                for x in members
                for y in range(q5.n)
                if q5.lt(x, y)
            )
            convex = not any(
                x not in members
                and any(q5.left(m, x) for m in members)
                and any(q5.left(x, m) for m in members)
                for x in range(q5.n)
            )
            if up_closed and convex:
                recomputed.append(frozenset(members))
    assert [set(f) for f in fam.filters] == [set(f) for f in recomputed]
    assert [sorted(f) for f in fam.filters] == [
        [4], [3, 4], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4],
    ]

    # beta builds L5 and alpha recovers Q5
    l5 = qp.lattice_from_filters(q5)
    assert l5.n == 5
    assert qp.similar(l5, q5)
    assert qp.similar(qp.to_quasiplanar(l5), q5)

    # the closure and pair maps are mutually inverse
    to_filter, to_pair = qp.pair_filter_maps(q5)
    for pair in qp.weak_left_pairs(q5):
        f = to_filter[pair]
        assert to_pair[f] == pair
        assert f == qp.hco_closure(q5, pair)
    for f in fam.filters:
        assert to_filter[to_pair[f]] == f

    # feasible family {0, {u}, {v}, {u,v}, {u,v,w}} with u left of v below w
    am = qp.antimatroid_of(q5)
    u, v, w = 1, 2, 3
    assert q5.left(u, v) and q5.lt(u, w) and q5.lt(v, w)
    assert set(am.feasible) == {
        frozenset(),
        frozenset({u}),
        frozenset({v}),
        frozenset({u, v}),
        frozenset({u, v, w}),
    }
    print("criterion 7: desk fixtures recomputed and matched")


def test_criterion_8_cli_contract(cli, tmp_path):
    """Canonical JSON round trips and errors map to exit codes by name."""
    for size in (2, 3, 4, 5):
        for d in qp.enumerate_quasiplanar(size):
            text = qp.serialize(d)
            code, out, err = cli("validate", "-", stdin=text)
            assert (code, out) == (0, text + "\n")

    code, out, err = cli("count", "--size", "7")
    assert code == 0
    assert json.loads(out)["count"] == 120

    fixtures = [
        ('{"n":3,"covers":[[0,1],[1,2],[2,0]]}', "NotAPartialOrder"),
        ('{"n":4,"covers":[[0,2],[1,2],[2,3]],"left":[[0,1]]}', "NotBounded"),
        (
            '{"n":4,"covers":[[0,1],[0,2],[1,3],[2,3]],"left":[[0,3]]}',
            "LeftOnComparable",
        ),
        ('{"n":4,"covers":[[0,1],[0,2],[1,3],[2,3]]}', "LeftIncomplete"),
        (
            '{"n":4,"covers":[[0,1],[0,2],[1,3],[2,3]],"left":[[1,2],[2,1]]}',
            "NotLinearizable",
        ),
        ('{"n":2}', "MalformedDocument"),
    ]
    for text, error in fixtures:
        code, out, err = cli("validate", "-", stdin=text)
        assert code == 1, error
        assert error in err
    print("criterion 8: CLI contract holds")
