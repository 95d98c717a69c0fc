"""Core diagram type: validation, canonical forms, chains, dimension."""

import os
import re
import subprocess
import sys
import tracemalloc
from itertools import permutations
from pathlib import Path

import pytest

import quasiplanar as qp

Q5_COVERS = ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4))


def test_validate_accepts_catalog_fixtures():
    for d in (qp.chain(2), qp.chain(5), qp.diamond(), qp.capped_diamond(),
              qp.three_atom_diamond(), qp.pentagon(), qp.hexagon()):
        assert qp.revalidate(d) == d


def test_validate_closes_redundant_order_pairs():
    # passing the full strict order instead of covers changes nothing
    sparse = qp.validate(3, [(0, 1), (1, 2)])
    dense = qp.validate(3, [(0, 1), (1, 2), (0, 2)])
    assert sparse == dense
    assert dense.cover_pairs() == ((0, 1), (1, 2))


def test_validate_one_element_diagram():
    d = qp.validate(1, [])
    assert d.bottom == d.top == 0
    assert d.interior() == ()


def test_validate_rejects_bad_n():
    with pytest.raises(ValueError):
        qp.validate(0, [])
    with pytest.raises(ValueError):
        qp.validate(-3, [])
    with pytest.raises(ValueError):
        qp.validate("5", [])


def test_validate_rejects_malformed_pairs():
    with pytest.raises(ValueError):
        qp.validate(3, [(0, 5)])
    with pytest.raises(ValueError):
        qp.validate(3, [(0,)])
    with pytest.raises(ValueError):
        qp.validate(3, [(0, 1)], left=[(9, 0)])
    # components are integers, never truncated or parsed
    for covers, left, where in (
        ([(0, 1.9), (1.2, 2)], [], "covers[0]"),
        ([(0, 1), (1, 2.0)], [], "covers[1]"),
        ([("0", "1"), (1, 2)], [], "covers[0]"),
        ([(None, 1), (1, 2)], [], "covers[0]"),
        ([(0, 1), (1, 2)], [(0, 2), (1, 0.5)], "left[1]"),
        # only a tuple or a list is a pair, never bytes or a dict
        ([b"\x00\x01", {1: "a", 2: "b"}], [], "covers[0]"),
        ([(0, 1), {1: "a", 2: "b"}], [], "covers[1]"),
        ([(0, 1), (1, 2)], [b"\x00\x02"], "left[0]"),
    ):
        with pytest.raises(ValueError, match=rf"^{re.escape(where)} ") as exc:
            qp.validate(3, covers, left)
        assert type(exc.value) is ValueError


def test_validate_rejects_self_loop():
    with pytest.raises(qp.NotAPartialOrder):
        qp.validate(3, [(0, 1), (1, 1)])


def test_validate_rejects_cycle():
    with pytest.raises(qp.NotAPartialOrder):
        qp.validate(2, [(0, 1), (1, 0)])


def test_validate_rejects_two_minima():
    with pytest.raises(qp.NotBounded):
        qp.validate(3, [(0, 2), (1, 2)])


def test_validate_rejects_two_maxima():
    with pytest.raises(qp.NotBounded):
        qp.validate(3, [(0, 1), (0, 2)])


def test_validate_rejects_left_on_comparable():
    with pytest.raises(qp.LeftOnComparable):
        qp.validate(5, Q5_COVERS, [(1, 2), (0, 1)])
    with pytest.raises(qp.LeftOnComparable):
        qp.validate(5, Q5_COVERS, [(1, 1)])


def test_validate_rejects_double_orientation():
    with pytest.raises(qp.NotLinearizable):
        qp.validate(5, Q5_COVERS, [(1, 2), (2, 1)])


def test_validate_rejects_missing_orientation():
    with pytest.raises(qp.LeftIncomplete):
        qp.validate(5, Q5_COVERS, [])


def test_validate_rejects_cyclic_orientation():
    # 1 left of 2 left of 3 left of 1 cannot be swept in one pass
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    with pytest.raises(qp.NotLinearizable):
        qp.validate(5, covers, [(1, 2), (2, 3), (3, 1)])


def test_relation_queries_on_capped_diamond():
    d = qp.capped_diamond()
    assert d.bottom == 0 and d.top == 4
    assert d.leq(0, 4) and d.leq(1, 3) and not d.leq(1, 2)
    assert d.lt(0, 1) and not d.lt(1, 1)
    assert d.incomparable(1, 2) and not d.incomparable(1, 3)
    assert d.left(1, 2) and not d.left(2, 1)
    assert d.interior() == (1, 2, 3)
    assert d.incomparable_pairs() == ((1, 2),)
    assert set(d.cover_pairs()) == set(Q5_COVERS)


def test_sweep_orders_on_capped_diamond():
    d = qp.capped_diamond()
    assert d.lam_order == (0, 1, 2, 3, 4)
    assert d.rho_order == (0, 2, 1, 3, 4)
    r = qp.realizer(d)
    assert r.lam_order == d.lam_order and r.rho_order == d.rho_order


def test_canonical_forms_of_fixtures():
    assert qp.canonical_form(qp.chain(2)) == ()
    assert qp.canonical_form(qp.chain(3)) == (1,)
    assert qp.canonical_form(qp.diamond()) == (2, 1)
    assert qp.canonical_form(qp.capped_diamond()) == (2, 1, 3)
    assert qp.canonical_form(qp.three_atom_diamond()) == (3, 2, 1)


def test_from_canonical_round_trips_every_small_permutation():
    for k in range(5):
        for perm in permutations(range(1, k + 1)):
            assert qp.canonical_form(qp.from_canonical(perm)) == perm


def test_from_canonical_decodes_fixtures():
    assert qp.from_canonical(()) == qp.chain(2)
    assert qp.from_canonical((1,)) == qp.chain(3)
    assert qp.similar(qp.from_canonical((2, 1, 3)), qp.capped_diamond())


def test_from_canonical_rejects_non_permutations():
    for bad in ((0, 1), (1, 1), (2, 3), (2,), ("a", "b"), (1, None)):
        # the constructor's check, whatever it raises, becomes this ValueError
        with pytest.raises(ValueError) as exc:
            qp.from_canonical(bad)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"{bad!r} is not a permutation of 1..{len(bad)}"


def test_similar_is_label_independent():
    d = qp.capped_diamond()
    shuffled = qp.relabel(d, (4, 0, 1, 2, 3))
    assert shuffled != d
    assert qp.similar(shuffled, d)
    assert not qp.similar(d, qp.chain(5))


def test_relabel_rejects_maps_that_are_no_permutation():
    d = qp.capped_diamond()
    for bad in (
        [0, 0, 1, 2, 3], [1, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5],
        [0, 1, 2, 3, 3], [0.0, 1, 2, 3, 4], [0, 1, 2],
    ):
        with pytest.raises(ValueError) as exc:
            qp.relabel(d, bad)
        assert type(exc.value) is ValueError
        # the map itself is not echoed
        assert str(exc.value) == "new_of_old must permute the integers 0..4"


def test_mirror_is_an_involution():
    d = qp.capped_diamond()
    assert qp.mirror(qp.mirror(d)) == d


def test_mirror_inverts_the_canonical_permutation():
    d = qp.from_canonical((2, 3, 1))
    assert qp.canonical_form(qp.mirror(d)) == (3, 1, 2)
    assert not qp.similar(d, qp.mirror(d))
    # involutions are exactly the self-mirror diagrams
    e = qp.from_canonical((2, 1, 3))
    assert qp.similar(e, qp.mirror(e))


def test_canonical_relabel_sorts_by_sweep_position():
    d = qp.relabel(qp.capped_diamond(), (4, 0, 1, 2, 3))
    c = qp.canonical_relabel(d)
    assert c.lam_order == tuple(range(5))
    assert qp.canonical_relabel(c) == c
    assert qp.similar(c, d)


def test_boundary_chains_of_fixtures():
    assert qp.boundary_chains(qp.capped_diamond()) == ((0, 1, 3, 4), (0, 2, 3, 4))
    assert qp.boundary_chains(qp.diamond()) == ((0, 1, 3), (0, 2, 3))
    assert qp.boundary_chains(qp.chain(4)) == ((0, 1, 2, 3), (0, 1, 2, 3))


def test_boundary_chains_need_a_lattice():
    with pytest.raises(qp.NotALattice) as exc:
        qp.boundary_chains(qp.hexagon())
    assert exc.value.witness == (1, 2, 3, 4)


def test_maximal_chains_of_capped_diamond():
    chains = qp.maximal_chains(qp.capped_diamond())
    assert sorted(chains) == [(0, 1, 3, 4), (0, 2, 3, 4)]


def test_chain_side_classification():
    d = qp.capped_diamond()
    left = (0, 1, 3, 4)
    assert qp.chain_side(d, left, 1) == "on"
    assert qp.chain_side(d, left, 2) == "right"
    assert qp.chain_side(d, (0, 2, 3, 4), 1) == "left"


def test_chain_side_names_an_argument_that_is_no_element():
    d = qp.capped_diamond()
    for chain, x, message in (
        ((0, 1, 3, 4), -3, "x = -3 is out of range for n=5"),
        ((0, 1, 3, 4), 5, "x = 5 is out of range for n=5"),
        ((0, 1, 3, 4), 2.0, "x of type float is not an integer"),
        ((0, 1, -2, 4), 2, "chain[2] = -2 is out of range for n=5"),
        ((0, 1, 3, 5), 2, "chain[3] = 5 is out of range for n=5"),
        ((0, "1", 3, 4), 2, "chain[1] of type str is not an integer"),
    ):
        with pytest.raises(ValueError) as exc:
            qp.chain_side(d, chain, x)
        assert type(exc.value) is ValueError
        assert str(exc.value) == message


def test_chain_side_never_mixed_on_enumerated_diagrams():
    for d in qp.enumerate_quasiplanar(5):
        for chain in qp.maximal_chains(d):
            for x in range(d.n):
                assert qp.chain_side(d, chain, x) != "mixed"


def test_order_dimension_two_orients_the_diamond():
    d = qp.order_dimension_le2(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert d is not None
    assert qp.canonical_form(d) in ((2, 1),)
    assert d.up == qp.diamond().up


def _grid_covers(k):
    """The k x k x k grid, element (a, b, c) numbered a*k*k + b*k + c."""
    return k ** 3, [
        (i, i + s) for i in range(k ** 3) for s in (k * k, k, 1)
        if i // s % k < k - 1
    ]


def test_order_dimension_two_rejects_the_cube():
    n, covers = qp.boolean_cube_covers()
    assert qp.order_dimension_le2(n, covers) is None
    assert qp.order_dimension_le2(*_grid_covers(3)) is None


def test_order_dimension_two_on_chains_and_antichains():
    d = qp.order_dimension_le2(3, [(0, 1), (1, 2)])
    assert d.left_pairs() == ()
    # wide antichain still fine: dimension two suffices for 0 + k + 1 layers
    covers = [(0, x) for x in (1, 2, 3)] + [(x, 4) for x in (1, 2, 3)]
    d = qp.order_dimension_le2(5, covers)
    assert d is not None and d.up == qp.three_atom_diamond().up
    # 60 elements, 1770 pairs, each its own implication class: no recursion
    covers = [(0, x) for x in range(1, 61)] + [(x, 61) for x in range(1, 61)]
    d = qp.order_dimension_le2(62, covers)
    assert d is not None and len(d.left_pairs()) == 1770


def test_order_dimension_two_requires_bounds():
    with pytest.raises(qp.NotBounded):
        qp.order_dimension_le2(3, [])
    with pytest.raises(ValueError):
        qp.order_dimension_le2(0, [])


def test_validate_messages_stay_short_on_huge_input():
    with pytest.raises(qp.NotBounded) as exc:
        qp.validate(3, [(0, 2), (1, 2)])
    assert str(exc.value) == "minimal elements [0, 1], expected exactly one"
    with pytest.raises(qp.NotBounded) as exc:
        qp.validate(3000, [])
    assert len(str(exc.value)) < 200 and "and 2992 more" in str(exc.value)
    cycle = [(i, (i + 1) % 3000) for i in range(3000)]
    with pytest.raises(qp.NotAPartialOrder) as exc:
        qp.validate(3000, cycle)
    assert len(str(exc.value)) < 200 and "and 2992 more" in str(exc.value)
    # an integer too long to print, or even to convert to text, by its size
    for n, covers in (
        (3, [(0, 10**4000)]), (3, [(0, 10**5000)]), (10**5000, [(0, -1)]),
    ):
        with pytest.raises(ValueError, match=r"^covers\[0\] ") as exc:
            qp.validate(n, covers)
        assert type(exc.value) is ValueError and len(str(exc.value)) < 200
    with pytest.raises(ValueError, match="^n must be a positive") as exc:
        qp.validate(-10**5000, [])
    assert len(str(exc.value)) < 200


def test_validate_refuses_a_huge_unbounded_order_in_small_memory():
    # no mask is built before the order is known to be bounded
    tracemalloc.start()
    try:
        with pytest.raises(qp.NotBounded) as exc:
            qp.validate(200000, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (
        "minimal elements [0, 1, 2, 3, 4, 5, 6, 7] and 199992 more, "
        "expected exactly one"
    )
    assert peak < 64 * 2**20


def test_validate_refuses_a_huge_n_with_few_covers_in_bounded_memory():
    # a child process under an address-space limit, so that a regression
    # fails there instead of exhausting the host
    script = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import quasiplanar as qp
for attempt in (
    lambda: qp.validate(10**12, [(5, 5)]),
    lambda: qp.validate(10**12, [(5, 6), (6, 5)]),
    lambda: qp.validate(10**12, [(5, 6), (7, 6)]),
    lambda: qp.parse('{"n":1000000000000,"covers":[]}'),
):
    try:
        attempt()
    except qp.DiagramError as e:
        print(type(e).__name__, e, e.location)
"""
    proc = _run_python(script)
    assert proc.stdout.splitlines() == [
        "NotAPartialOrder self-loop at element 5 /covers/0",
        "NotAPartialOrder cover relation has a cycle through [5, 6] /covers",
        "NotBounded minimal elements [0, 1, 2, 3, 4, 5, 7, 8] and 999999999991 "
        "more, expected exactly one None",
        "NotBounded minimal elements [0, 1, 2, 3, 4, 5, 6, 7] and 999999999992 "
        "more, expected exactly one None",
    ], proc.stderr


def test_count_builds_no_masks(monkeypatch):
    built = []

    def counted(build):
        def wrapper(d):
            built.append(build.__name__)
            return build(d)
        return wrapper

    names = ("lam_order", "rho_order", "up", "dn")
    for name in names:
        field = vars(qp.Diagram)[name]
        monkeypatch.setattr(field, "build", counted(field.build))
    assert qp.count_quasiplanar(8) == 720
    assert built == []
    # the first read of a field builds its whole group, once
    d = qp.from_canonical((2, 1, 3))
    for name in names:
        getattr(d, name)
    assert built == ["_sweep_orders", "_order_masks"]


def test_a_diagram_of_20000_elements_stores_no_masks():
    tracemalloc.start()
    try:
        d = qp.Diagram(range(20000), range(20000))
        peak = tracemalloc.get_traced_memory()[1]
        # the relation queries, chain sides, intervals and the realizer
        # read positions
        assert d.leq(0, 1) and d.lt(0, 1) and not d.leq(1, 0)
        assert not d.left(0, 1) and not d.incomparable(0, 1)
        assert qp.chain_side(d, (0, 19999), 1) == "mixed"
        assert qp.interval_subdiagram(d, d.bottom, d.top).n == 20000
        assert qp.realizer(d).rho_order[-1] == 19999
        peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert "up" not in vars(d)
    assert d.cover_pairs()[-1] == (19998, 19999)
    assert peak < 8 * 2**20


def test_cli_refuses_a_huge_unbounded_document_in_one_line(cli):
    code, out, err = cli("validate", "-", stdin='{"n":200000,"covers":[]}')
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert err.startswith("NotBounded: minimal elements [0, 1,")


@pytest.mark.parametrize(
    "text",
    [
        '{"n":3,"covers":[[0,%s]]}' % ("9" * 4000),
        '{"n":3,"covers":[[0,%s]]}' % ("9" * 5000),
        "[" * 100000,
        pytest.param(
            '{"%s":1,"n":3,"covers":[]}' % ("k" * 100000), id="long-unknown-key"
        ),
        pytest.param('{"a\\nb":1,"n":1,"covers":[]}', id="key-with-newline"),
        pytest.param('{"a\\rb":1,"n":1,"covers":[]}', id="key-with-return"),
        pytest.param('{"a\\tb":1,"n":1,"covers":[]}', id="key-with-tab"),
        pytest.param(
            '{"\\n%s":1,"n":3,"covers":[]}' % ("k" * 100), id="long-key-with-newline"
        ),
    ],
)
def test_cli_rejects_hostile_documents_in_one_line(cli, text):
    code, out, err = cli("validate", "-", stdin=text)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert err.startswith("MalformedDocument: ")
    assert err[:-1].isprintable()


def test_constructor_rejects_bad_positions_under_python_O():
    # python -O strips asserts; the constructor's checks must not be asserts
    script = """
import quasiplanar as qp
assert False, "asserts are live"
cases = [
    (qp.Diagram, ((0, 0, 2), (0, 1, 2)), qp.NotLinearizable),
    (qp.Diagram, ((0, 1, 2), (0, 1, 3)), qp.NotLinearizable),
    (qp.Diagram, ((0, 1), (0, 1, 2)), qp.NotLinearizable),
    (qp.Diagram, ((0, 1, 2), (1, 0, 2)), qp.NotBounded),
    (qp.Diagram, ((0, 1, 2), (0, 2, 1)), qp.NotBounded),
    (qp.Diagram, ((), ()), qp.NotBounded),
    (qp.Diagram, (3, (7, 6, 4), (2, 0, 0)), TypeError),
    (qp.from_canonical, ((2, 2, 1),), ValueError),
]
for build, args, error in cases:
    try:
        build(*args)
    except error:
        continue
    raise SystemExit(f"{build.__name__}{args} was not refused with {error.__name__}")
print("refused", len(cases))
"""
    proc = _run_python(script, "-O")
    assert (proc.returncode, proc.stdout) == (0, "refused 8\n"), proc.stderr


def _run_python(script, *options):
    """Run a script in a child interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *options, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
