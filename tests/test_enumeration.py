"""Enumeration, the independent oracle, and the law suite plumbing."""

import os
import signal
import subprocess
import sys
import threading
import time
from itertools import combinations, islice, permutations
from math import factorial
from pathlib import Path

import pytest

import quasiplanar as qp
from quasiplanar import cli, enumeration, transform


def test_expected_count_is_factorial():
    assert [qp.expected_count(s) for s in range(2, 10)] == [
        1, 1, 2, 6, 24, 120, 720, 5040,
    ]
    with pytest.raises(ValueError):
        qp.expected_count(1)
    with pytest.raises(ValueError):
        qp.expected_count("6")


def test_one_size_check_with_a_bounded_message():
    checks = (
        qp.expected_count,
        lambda size: next(qp.enumerate_quasiplanar(size)),
        qp.oracle_enumerate,
    )
    for check in checks:
        for size, shown in ((1, "1"), (1.5, "1.5"), (True, "True"),
                            ("6", "'6'"), (-10**4000, "an integer of 13288 bits"),
                            (-10**5000, "an integer of 16610 bits")):
            with pytest.raises(ValueError) as exc:
                check(size)
            assert str(exc.value) == f"size must be an integer >= 2, got {shown}"


def test_enumerate_walks_canonical_permutations_in_lex_order():
    assert [qp.canonical_form(d) for d in qp.enumerate_quasiplanar(4)] == [
        (1, 2), (2, 1),
    ]
    forms = [qp.canonical_form(d) for d in qp.enumerate_quasiplanar(5)]
    assert forms == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    ]


def test_enumerated_diagrams_are_valid_and_canonically_labeled():
    for size in (2, 3, 4, 5, 6):
        for d in qp.enumerate_quasiplanar(size):
            assert d.n == size
            assert d.lam_order == tuple(range(size))
            assert qp.revalidate(d) == d


def test_enumerate_rejects_bad_sizes():
    with pytest.raises(ValueError):
        list(qp.enumerate_quasiplanar(1))
    with pytest.raises(ValueError):
        qp.count_quasiplanar(0)


def test_counts_match_the_factorial():
    assert [qp.count_quasiplanar(s) for s in range(2, 8)] == [
        1, 1, 2, 6, 24, 120,
    ]


def test_labeled_poset_generator_matches_known_counts():
    # number of partial orders on k labeled points
    assert [len(enumeration._labeled_posets(k)) for k in range(6)] == [
        1, 1, 3, 19, 219, 4231,
    ]


def test_oracle_classes_match_the_fast_enumeration():
    for size in (2, 3, 4, 5):
        reps = qp.oracle_enumerate(size)
        fast = list(qp.enumerate_quasiplanar(size))
        assert len(reps) == len(fast) == qp.expected_count(size)
        for r in reps:
            matches = [f for f in fast if qp.similar_by_search(r, f)]
            assert len(matches) == 1


def test_oracle_classes_match_at_size_six():
    reps = qp.oracle_enumerate(6)
    fast = list(qp.enumerate_quasiplanar(6))
    assert len(reps) == 24
    for r in reps:
        assert sum(1 for f in fast if qp.similar_by_search(r, f)) == 1


def test_oracle_refuses_large_sizes():
    with pytest.raises(qp.SizeTooLarge):
        qp.oracle_enumerate(7)
    with pytest.raises(ValueError):
        qp.oracle_enumerate(1)


def test_search_similarity_agrees_with_canonical_similarity():
    ds = list(qp.enumerate_quasiplanar(5))
    for a in ds:
        for b in ds:
            assert qp.similar_by_search(a, b) == qp.similar(a, b)
        m = qp.mirror(a)
        assert qp.similar_by_search(a, m) == qp.similar(a, m)


def test_order_isomorphism_search():
    d = qp.capped_diamond()
    assert qp.order_isomorphic_by_search(d, qp.mirror(d))
    assert qp.order_isomorphic_by_search(d, qp.relabel(d, (3, 1, 0, 2, 4)))
    assert not qp.order_isomorphic_by_search(d, qp.chain(5))


def test_orientation_first_changes_the_lattice_at_size_six():
    assert qp.dissimilar_same_order_witness(5) is None
    pair = qp.dissimilar_same_order_witness(6)
    assert pair is not None
    a, b = pair
    assert (qp.canonical_form(a), qp.canonical_form(b)) == (
        (3, 4, 2, 1), (4, 2, 3, 1),
    )
    assert qp.order_isomorphic_by_search(a, b)
    assert not qp.similar(a, b)
    assert not qp.lattice_isomorphic(
        qp.lattice_from_filters(a), qp.lattice_from_filters(b)
    )


def test_mirror_dissimilarity_first_appears_at_size_five():
    for size in (2, 3, 4):
        assert all(
            qp.similar(d, qp.mirror(d)) for d in qp.enumerate_quasiplanar(size)
        )
    movers = [
        qp.canonical_form(d)
        for d in qp.enumerate_quasiplanar(5)
        if not qp.similar(d, qp.mirror(d))
    ]
    assert movers == [(2, 3, 1), (3, 1, 2)]


def test_filter_lattices_are_pairwise_dissimilar_at_size_five():
    forms = {
        qp.canonical_form(qp.lattice_from_filters(d))
        for d in qp.enumerate_quasiplanar(5)
    }
    assert len(forms) == 6


def test_verify_suite_reports_clean_sizes():
    report = qp.verify_suite(5)
    assert report.size == 5
    assert report.count == report.expected == 6
    assert report.passed
    assert report.elapsed >= 0
    names = [r.name for r in report.results]
    assert names == list(qp.check_names()) + [
        "filter lattices are pairwise dissimilar"
    ]
    assert all(r.passed and r.witness == "" for r in report.results)


def test_verify_suite_builds_each_pair_list_and_peeling_where_it_is_read(monkeypatch):
    # per diagram: one weak pair list each for the filter family, β1, β2,
    # the pair/filter maps, the antimatroid, the certificates of the two
    # rebuilds and the filter lattice of α; the peelings for the family only
    calls = []
    for name in ("weak_left_pairs", "_peel"):
        real = getattr(transform, name)
        counted = lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)
        monkeypatch.setattr(transform, name, counted)
    assert qp.verify_suite(5).passed
    assert (calls.count("weak_left_pairs"), calls.count("_peel")) == (6 * 8, 6 * 2)


def test_verify_suite_carries_failures_as_data(monkeypatch):
    def broken(ctx):
        raise AssertionError("injected failure")

    monkeypatch.setattr(
        enumeration, "_CHECKS", enumeration._CHECKS + (("injected law", broken),)
    )
    report = qp.verify_suite(4)
    assert not report.passed
    injected = [r for r in report.results if r.name == "injected law"]
    assert len(injected) == 1
    assert not injected[0].passed
    assert "perm (1, 2): injected failure" in injected[0].witness
    assert "1 more" in injected[0].witness
    # the real laws still pass and the count is still right
    assert report.count == report.expected == 2
    assert all(r.passed for r in report.results if r.name != "injected law")


def _share_one_filter_lattice(monkeypatch):
    """Give every diagram the filter lattice of the first one of its size."""
    real = enumeration.lattice_from_filters_labeled
    shared = real(qp.from_canonical((1, 2, 3)))
    monkeypatch.setattr(enumeration, "lattice_from_filters_labeled", lambda d: shared)


# the laws that read the filter lattice see a foreign one on the five
# diagrams after (1, 2, 3), whose own lattice it is
_FOREIGN_LATTICE_LAWS = (
    "pair and filter lattices agree",
    "filter lattice rebuilds the diagram",
    "peelings walk the boundary chains",
    "meet irreducibles carry principal filters",
    "supports compose every element",
)


def test_verify_suite_names_the_first_shared_filter_lattice(monkeypatch):
    _share_one_filter_lattice(monkeypatch)
    report = qp.verify_suite(5)
    assert not report.passed
    assert report.count == report.expected == 6
    law = {r.name: r for r in report.results}
    assert law["filter lattices are pairwise dissimilar"].witness == (
        "perm (1, 3, 2) and perm (1, 2, 3) share a filter lattice (and 4 more)"
    )
    failed = [r.name for r in report.results if not r.passed]
    assert failed == [*_FOREIGN_LATTICE_LAWS, "filter lattices are pairwise dissimilar"]
    for name in _FOREIGN_LATTICE_LAWS:
        assert law[name].witness.startswith("perm (1, 3, 2): ")
        assert law[name].witness.endswith(" (and 4 more)")


def test_verify_suite_keeps_each_law_to_its_own_witness(monkeypatch):
    def injected(ctx):
        if qp.canonical_form(ctx.q)[0] >= 2:
            raise qp.LawViolation("injected failure")

    _share_one_filter_lattice(monkeypatch)
    monkeypatch.setattr(
        enumeration, "_CHECKS", enumeration._CHECKS + (("injected law", injected),)
    )
    report = qp.verify_suite(5)
    assert [r.name for r in report.results] == list(qp.check_names()) + [
        "filter lattices are pairwise dissimilar"
    ]
    assert qp.check_names()[-1] == "injected law"
    law = {r.name: r for r in report.results}
    assert law["injected law"] == qp.CheckResult(
        "injected law", False, "perm (2, 1, 3): injected failure (and 3 more)"
    )
    assert law["filter lattices are pairwise dissimilar"] == qp.CheckResult(
        "filter lattices are pairwise dissimilar", False,
        "perm (1, 3, 2) and perm (1, 2, 3) share a filter lattice (and 4 more)",
    )
    failed = {name for name, r in law.items() if not r.passed}
    assert failed == {
        *_FOREIGN_LATTICE_LAWS, "injected law", "filter lattices are pairwise dissimilar"
    }
    assert all(r.witness == "" for r in report.results if r.passed)


def test_corrupted_orientation_is_caught_by_validation():
    d = qp.lattice_from_filters(qp.from_canonical((3, 4, 2, 1)))
    covers = d.cover_pairs()
    left = list(d.left_pairs())
    assert len(left) >= 2
    # dropping one orientation leaves a hole
    with pytest.raises(qp.LeftIncomplete):
        qp.validate(d.n, covers, left[1:])
    # doubling one contradicts itself
    with pytest.raises(qp.NotLinearizable):
        qp.validate(d.n, covers, left + [(left[0][1], left[0][0])])


@pytest.mark.slow
def test_verify_suite_deep_tier():
    report = qp.verify_suite(7)
    assert report.passed
    assert report.count == 120
    report = qp.verify_suite(8)
    assert report.passed
    assert report.count == 720


def test_flipping_one_orientation_never_goes_unnoticed():
    # a flipped pair either breaks validity or changes the canonical form
    d = qp.lattice_from_filters(qp.from_canonical((3, 4, 2, 1)))
    covers = d.cover_pairs()
    left = list(d.left_pairs())
    for i in range(len(left)):
        flipped = left[: i] + [(left[i][1], left[i][0])] + left[i + 1:]
        try:
            redrawn = qp.validate(d.n, covers, flipped)
        except qp.DiagramError:
            continue
        assert not qp.similar(redrawn, d)


def test_equinumerous_law_holds_the_family_to_the_definition(monkeypatch):
    # swap the top filter for a set that is no filter: the count still
    # matches, the definition-level scan does not
    real = enumeration.enumerate_hco_filters

    def forged(d):
        fam = real(d)
        top = frozenset({d.top})
        bad = frozenset({d.top, d.interior()[0]})
        if bad in fam.filters:
            return fam
        filters = tuple(bad if f == top else f for f in fam.filters)
        return qp.FilterFamily(filters, *(
            getattr(fam, k)
            for k in ("left_chain", "right_chain", "left_steps", "right_steps")
        ))

    monkeypatch.setattr(enumeration, "enumerate_hco_filters", forged)
    report = qp.verify_suite(5)
    law = {r.name: r for r in report.results}["filters and weak pairs are equinumerous"]
    assert not law.passed
    assert "differs from the definition-level scan" in law.witness


def test_position_laws_name_the_first_misplaced_element(monkeypatch):
    # swap the images of two incomparable elements: the drawing moves,
    # similarity and boundedness do not
    real_maps, real_supports = enumeration.pair_filter_maps, enumeration._supports

    def forged_maps(d):
        f, to_pair = real_maps(d)
        for p, r in combinations(f, 2):
            if not (f[p] <= f[r] or f[r] <= f[p]):
                return {**f, p: f[r], r: f[p]}, to_pair
        return f, to_pair

    def forged_supports(d):
        sup = real_supports(d)
        for x, y in d.incomparable_pairs()[:1]:
            swap = {x: y, y: x}
            sup = qp.SupportData(
                tuple(sup.lsp[swap.get(z, z)] for z in range(d.n)),
                tuple(sup.rsp[swap.get(z, z)] for z in range(d.n)),
                sup.lds, sup.rds,
            )
        return sup

    monkeypatch.setattr(enumeration, "pair_filter_maps", forged_maps)
    monkeypatch.setattr(enumeration, "_supports", forged_supports)
    law = {r.name: r for r in qp.verify_suite(5).results}
    assert "closure map moves the pair lattice off filter" in (
        law["pair and filter lattices agree"].witness
    )
    assert "support ranks misplace element" in (
        law["supports compose every element"].witness
    )


def test_betweenness_law_reads_the_listed_left_pairs(monkeypatch):
    # drop the first left pair of every size-5 diagram: betweenness read
    # off the list then misses the pair that the positions still place
    real = qp.Diagram.left_pairs

    def dropped(d):
        pairs = real(d)
        return pairs[1:] if d.n == 5 else pairs

    monkeypatch.setattr(qp.Diagram, "left_pairs", dropped)
    law = {r.name: r for r in qp.verify_suite(5).results}[
        "betweenness matches sweep positions"
    ]
    assert not law.passed
    assert law.witness == (
        "perm (1, 3, 2): betweenness and sweep positions disagree at (2, 2, 3)"
        " (and 4 more)"
    )


def test_broken_law_fails_under_python_O():
    # python -O strips asserts; the law bodies must still fail, those that
    # check a construction included
    script = """
import quasiplanar as qp
from quasiplanar import enumeration, transform
assert False, "asserts are live"
real = enumeration.similar
enumeration.similar = lambda d1, d2: False
report = qp.verify_suite(5)
failed = [r.name for r in report.results if not r.passed]
enumeration.similar = real
transform._pair_key = lambda d, f: (d.top, d.top)
law = {r.name: r for r in qp.verify_suite(5).results}[
    "pair and filter maps are reciprocal"
]
print(report.passed, failed[0], law.passed, law.witness)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (
        0,
        "False pair and filter lattices agree False perm (1, 2, 3): "
        "round trip moved a filter [3, 4] (and 5 more)\n",
    ), proc.stderr


# -- the suite split over processes ----------------------------------------


def _on_cpus(monkeypatch, cpus, size, block):
    """verify_suite(size) as if this process could run on ``cpus`` CPUs,
    with ``block`` ranks to a block."""
    with monkeypatch.context() as m:
        m.setattr(enumeration, "_cpus", lambda: cpus)
        m.setattr(enumeration, "_BLOCK", block)
        return qp.verify_suite(size)


def _same_report(split, single):
    # every field but the timing and the process count
    return (split.size, split.count, split.expected, split.results) == (
        single.size, single.count, single.expected, single.results
    )


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_split_suite_reports_what_one_process_does(monkeypatch):
    # seven ranks to a block gives each process several blocks from size 6 on
    for size in range(2, 8):
        single, split = (_on_cpus(monkeypatch, k, size, 7) for k in (1, 3))
        assert split.passed and _same_report(split, single)
        blocks = -(-factorial(size - 2) // 7)
        assert (single.processes, split.processes) == (1, min(3, blocks))
    # at 120 ranks to a block, every size up to 7 is one block in the caller
    assert _on_cpus(monkeypatch, 3, 7, enumeration._BLOCK).processes == 1
    assert _no_child_left()


@pytest.mark.slow
def test_split_suite_reports_what_one_process_does_at_size_eight(monkeypatch):
    block = enumeration._BLOCK
    single, split = (_on_cpus(monkeypatch, k, 8, block) for k in (1, 3))
    assert split.passed and _same_report(split, single)
    assert (single.processes, split.processes) == (1, 3)
    assert _no_child_left()


def test_the_suite_deals_its_blocks_round_robin(monkeypatch, tmp_path):
    # on two CPUs, size 8's six blocks of 120 ranks alternate between the
    # caller and one child; a law records each diagram's process
    log = tmp_path / "pids"

    def records_its_process(ctx):
        with open(log, "a") as f:
            f.write(f"{qp.canonical_form(ctx.q)} {os.getpid()}\n")

    monkeypatch.setattr(enumeration, "_CHECKS", (("records", records_its_process),))
    report = _on_cpus(monkeypatch, 2, 8, enumeration._BLOCK)
    assert report.passed and report.processes == 2
    pid_of = dict(line.rsplit(" ", 1) for line in log.read_text().splitlines())
    ranks = [pid_of[str(perm)] for perm in permutations(range(1, 7))]
    caller, child = str(os.getpid()), ranks[120]
    assert child != caller
    assert ranks == [(caller, child)[r // 120 % 2] for r in range(720)]
    assert _no_child_left()


def test_split_suite_names_the_first_failure_across_shares(monkeypatch):
    # with three processes and ten ranks to a block, the law fails on ranks
    # 24-47, in blocks 2, 3 and 4 of three processes, and on ranks 96-119,
    # in the last three blocks
    def injected(ctx):
        if qp.canonical_form(ctx.q)[0] in (2, 5):
            raise qp.LawViolation("injected failure")

    monkeypatch.setattr(
        enumeration, "_CHECKS", enumeration._CHECKS + (("injected law", injected),)
    )
    single, split = (_on_cpus(monkeypatch, k, 7, 10) for k in (1, 3))
    assert split.processes == 3 and _same_report(split, single)
    assert [r.name for r in split.results if not r.passed] == ["injected law"]
    assert split.results[-2].witness == (
        "perm (2, 1, 3, 4, 5): injected failure (and 47 more)"
    )
    assert _no_child_left()


def test_split_suite_replays_shared_filter_lattices_in_rank_order(monkeypatch):
    _share_one_filter_lattice(monkeypatch)
    single, split = (_on_cpus(monkeypatch, k, 7, 10) for k in (1, 3))
    assert split.processes == 3 and _same_report(split, single)
    assert split.results[-1].witness == (
        "perm (1, 2, 3, 5, 4) and perm (1, 2, 3, 4, 5) share a filter lattice"
        " (and 118 more)"
    )
    assert _no_child_left()


def _with_law(monkeypatch, name, law):
    monkeypatch.setattr(enumeration, "_CHECKS", enumeration._CHECKS + ((name, law),))


def test_a_failed_share_raises_and_leaves_no_child(monkeypatch):
    # two processes, twenty ranks to a block: the child sends block 1 and
    # dies at rank 65, in block 3, ranks [60, 80)
    caller, dying = os.getpid(), _rank(7, 65)

    def dies_in_a_child(ctx):
        if os.getpid() != caller and qp.canonical_form(ctx.q) == dying:
            os._exit(3)

    _with_law(monkeypatch, "dies in a child", dies_in_a_child)
    with pytest.raises(qp.ShareFailed) as exc:
        _on_cpus(monkeypatch, 2, 7, 20)
    assert (exc.value.ranks, exc.value.status) == ((60, 80), 3)
    assert str(exc.value) == (
        "the law suite's block of ranks [60, 80) ended with exit status 3"
    )
    assert _no_child_left()


def test_a_truncated_share_raises_and_leaves_no_child(monkeypatch):
    # two processes, twenty ranks to a block: the child's third result,
    # block 5, ranks [100, 120), is its last and goes short
    real, sent = enumeration.pickle.dumps, []

    def dumps(obj):
        sent.append(None)
        return real(obj)[:-7] if len(sent) == 3 else real(obj)

    monkeypatch.setattr(enumeration.pickle, "dumps", dumps)
    with pytest.raises(qp.ShareFailed) as exc:
        _on_cpus(monkeypatch, 2, 7, 20)
    assert (exc.value.ranks, exc.value.status) == ((100, 120), 0)
    assert "ranks [100, 120) sent a truncated result" in str(exc.value)
    assert _no_child_left()


def test_a_bad_message_from_a_live_child_kills_it_and_leaves_no_child(monkeypatch):
    # two processes, twenty ranks to a block: the child's first result,
    # block 1, ranks [20, 40), goes short while the child still has blocks
    # 3 and 5 to run; it sleeps at rank 60, so it is alive when the caller
    # reads the bad message, and must be killed rather than waited for
    real, sent = enumeration.pickle.dumps, []
    caller, sleeping = os.getpid(), _rank(7, 60)

    def dumps(obj):
        sent.append(None)
        return real(obj)[:-7] if len(sent) == 1 else real(obj)

    def sleeps_in_a_child(ctx):
        if os.getpid() != caller and qp.canonical_form(ctx.q) == sleeping:
            time.sleep(20)

    _with_law(monkeypatch, "sleeps in a child", sleeps_in_a_child)
    monkeypatch.setattr(enumeration.pickle, "dumps", dumps)
    with pytest.raises(qp.ShareFailed) as exc:
        _on_cpus(monkeypatch, 2, 7, 20)
    assert (exc.value.ranks, exc.value.status) == ((20, 40), -signal.SIGKILL)
    assert "ranks [20, 40) sent a truncated result" in str(exc.value)
    assert _no_child_left()


def test_an_interrupted_caller_kills_and_reaps_its_children(monkeypatch):
    caller = os.getpid()

    def interrupts_the_caller(ctx):
        if os.getpid() == caller:
            raise KeyboardInterrupt

    _with_law(monkeypatch, "interrupts the caller", interrupts_the_caller)
    with pytest.raises(KeyboardInterrupt):
        _on_cpus(monkeypatch, 3, 7, 10)
    assert _no_child_left()


def test_suite_runs_in_process_without_a_safe_fork(monkeypatch):
    single = _on_cpus(monkeypatch, 1, 7, 10)

    def forbidden():
        raise AssertionError("forked")

    monkeypatch.setattr(enumeration, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", forbidden)
    # one block runs in the caller
    report = qp.verify_suite(7)
    assert report.processes == 1 and _same_report(report, single)
    monkeypatch.setattr(enumeration, "_BLOCK", 10)
    # a second live thread makes fork unsafe
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        report = qp.verify_suite(7)
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()
    assert report.processes == 1 and _same_report(report, single)
    monkeypatch.delattr(os, "fork")
    report = qp.verify_suite(7)
    assert report.processes == 1 and _same_report(report, single)


# -- count and enumerate in blocks over processes --------------------------


def _forks(monkeypatch):
    """The pids of the children forked from here on."""
    forked, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forked


def _enumerated(monkeypatch, capsys, cpus, block, *args):
    """In-process CLI ``enumerate`` as if on ``cpus`` CPUs with ``block`` ranks
    to a block; returns (exit code, stdout, stderr)."""
    with monkeypatch.context() as m:
        m.setattr(enumeration, "_cpus", lambda: cpus)
        m.setattr(enumeration, "_BLOCK", block)
        code = cli.main(["enumerate", *args])
    return (code, *capsys.readouterr())


def _rank(size, r):
    return next(islice(permutations(range(1, size - 1)), r, None))


def _decoding(monkeypatch, module, perm, in_caller, effect):
    """Make ``module.from_canonical(perm)`` call ``effect`` in the caller or in a child."""
    caller, real = os.getpid(), module.from_canonical

    def decode(p):
        if p == perm and (os.getpid() == caller) == in_caller:
            effect()
        return real(p)

    monkeypatch.setattr(module, "from_canonical", decode)


def test_split_enumerate_prints_what_one_process_does(monkeypatch, capsys):
    # seven ranks to a block gives each process several blocks, with skips
    # between them and a short last block, from size 6 on
    forked = _forks(monkeypatch)
    for size in range(2, 9):
        for block in (7, enumeration._BLOCK):
            argv = ("--size", str(size))
            single = _enumerated(monkeypatch, capsys, 1, block, *argv)
            assert forked == []
            split = _enumerated(monkeypatch, capsys, 3, block, *argv)
            assert single[0] == 0 and single[2] == "" and split == single
            blocks = -(-factorial(size - 2) // block)
            assert len(forked) == min(3, blocks) - 1
            forked.clear()
    assert _no_child_left()


@pytest.mark.slow
def test_split_enumerate_prints_what_one_process_does_at_size_nine(monkeypatch, capsys):
    forked = _forks(monkeypatch)
    block = enumeration._BLOCK
    single, split = (_enumerated(monkeypatch, capsys, k, block, "--size", "9") for k in (1, 3))
    assert single[0] == 0 and split == single and len(forked) == 2
    assert _no_child_left()


def test_split_enumerate_writes_the_same_files(monkeypatch, capsys, tmp_path):
    files = []
    for cpus in (1, 3):
        out = tmp_path / str(cpus)
        code, text, err = _enumerated(monkeypatch, capsys, cpus, 7, "--size", "8", "--out", str(out))
        assert (code, err) == (0, "")
        assert text == f'{{"size":8,"count":720,"out":"{out}"}}\n'
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert files[0] == files[1] and len(files[0]) == 720
    assert _no_child_left()


def test_split_count_counts_what_one_process_does(monkeypatch):
    forked = _forks(monkeypatch)
    monkeypatch.setattr(enumeration, "_BLOCK", 7)
    monkeypatch.setattr(enumeration, "_cpus", lambda: 3)
    assert [qp.count_quasiplanar(s) for s in range(2, 9)] == [
        factorial(s - 2) for s in range(2, 9)
    ]
    # sizes 6, 7 and 8 have more than one block of seven ranks
    assert len(forked) == 6
    assert _no_child_left()


def test_a_child_dying_mid_block_raises_and_leaves_no_child(monkeypatch, capsys):
    # three processes, ten ranks to a block: block 4, ranks [40, 50), is the
    # first child's second, and the child dies at rank 45; the CLI names the
    # ShareFailed in one line and exits 1
    _decoding(monkeypatch, cli, _rank(7, 45), False, lambda: os._exit(3))
    code, out, err = _enumerated(monkeypatch, capsys, 3, 10, "--size", "7")
    assert (code, err) == (1, (
        "ShareFailed: the enumeration's block of ranks [40, 50) ended with exit status 3\n"
    ))
    # the blocks before it were printed in rank order
    assert out == "".join(
        qp.serialize(d) + "\n" for d in islice(qp.enumerate_quasiplanar(7), 40)
    )
    assert _no_child_left()


def test_a_truncated_block_raises_and_leaves_no_child(monkeypatch, capsys):
    real = enumeration.pickle.dumps
    monkeypatch.setattr(enumeration.pickle, "dumps", lambda obj: real(obj)[:-7])
    code, out, err = _enumerated(monkeypatch, capsys, 3, 10, "--size", "7")
    assert code == 1 and err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith(
        "ShareFailed: the enumeration's block of ranks [10, 20) sent a truncated result of "
    )
    assert _no_child_left()


def _interrupt():
    raise KeyboardInterrupt


def test_an_interrupted_enumeration_kills_and_reaps_its_children(monkeypatch, capsys):
    # rank 35 is in block 3, the caller's second
    _decoding(monkeypatch, cli, _rank(7, 35), True, _interrupt)
    code, out, err = _enumerated(monkeypatch, capsys, 3, 10, "--size", "7")
    assert (code, out.count("\n"), err) == (130, 30, "interrupted\n")
    assert _no_child_left()


def test_an_interrupted_count_kills_and_reaps_its_children(monkeypatch):
    _decoding(monkeypatch, enumeration, _rank(7, 35), True, _interrupt)
    monkeypatch.setattr(enumeration, "_BLOCK", 10)
    monkeypatch.setattr(enumeration, "_cpus", lambda: 3)
    with pytest.raises(KeyboardInterrupt):
        qp.count_quasiplanar(7)
    assert _no_child_left()


class _Stops:
    """A stdout that raises ``error`` on writing its ``lines``-th line end."""

    def __init__(self, error, lines):
        self.error, self.lines = error, lines

    def write(self, s):
        self.lines -= s == "\n"
        if not self.lines:
            raise self.error
        return len(s)

    def flush(self):
        pass


@pytest.mark.parametrize("error, code, err", [
    (BrokenPipeError(32, "Broken pipe"), 1, "BrokenPipeError: [Errno 32] Broken pipe\n"),
    (KeyboardInterrupt(), 130, "interrupted\n"),
], ids=["closed", "interrupted"])
def test_a_closed_or_interrupted_stdout_leaves_no_child(monkeypatch, capsys, error, code, err):
    # line 15 is in block 1, a child's; the generator is left suspended
    monkeypatch.setattr(sys, "stdout", _Stops(error, 15))
    assert _enumerated(monkeypatch, capsys, 3, 10, "--size", "7") == (code, "", err)
    assert _no_child_left()
