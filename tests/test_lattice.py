"""Lattice tables, predicates, supports, isomorphism, chain reconstruction."""

import random
import time
from dataclasses import replace

import pytest

import quasiplanar as qp
from quasiplanar import diagram, enumeration, lattice, transform


def _up(d):
    """The up masks of ``d``, read off its positions pair by pair."""
    return tuple(sum(1 << y for y in range(d.n) if d.leq(x, y)) for x in range(d.n))


def test_tables_of_capped_diamond():
    d = qp.capped_diamond()
    t = qp.lattice_tables(d)
    assert t.join[1][2] == 3 and t.join[0][1] == 1 and t.join[1][4] == 4
    assert t.meet[1][2] == 0 and t.meet[3][4] == 3 and t.meet[0][3] == 0
    assert t.jir == frozenset({1, 2, 4})
    assert t.mir == frozenset({1, 2, 3})
    assert t.nar == frozenset({0, 3, 4})
    assert t.upstar == (3, 3, 3, 4, 4)


def test_tables_reject_the_hexagon():
    with pytest.raises(qp.NotALattice) as exc:
        qp.lattice_tables(qp.hexagon())
    x, y, b1, b2 = exc.value.witness
    assert (x, y) == (1, 2) and {b1, b2} == {3, 4}


def test_structural_predicates_on_fixtures():
    assert qp.is_lattice(qp.capped_diamond())
    assert not qp.is_lattice(qp.hexagon())

    # pentagon: a lattice, slim, but the cover a^b < a does not lift
    n5 = qp.pentagon()
    assert qp.is_lattice(n5) and qp.is_slim(n5)
    assert not qp.is_semimodular(n5)

    # three-atom diamond: semimodular but three incomparable join-irreducibles
    m3 = qp.three_atom_diamond()
    assert qp.is_semimodular(m3)
    assert not qp.is_slim(m3)
    assert not qp.is_join_distributive(m3)

    assert qp.is_join_distributive(qp.diamond())
    assert qp.is_join_distributive(qp.capped_diamond())
    assert qp.is_join_distributive(qp.chain(5))


def test_require_slim_semimodular_names_the_failure():
    with pytest.raises(qp.NotSlimSemimodular, match="not a lattice"):
        qp.require_slim_semimodular(qp.hexagon())
    with pytest.raises(qp.NotSlimSemimodular, match="semimodular"):
        qp.require_slim_semimodular(qp.pentagon())
    with pytest.raises(qp.NotSlimSemimodular, match="antichain"):
        qp.require_slim_semimodular(qp.three_atom_diamond())
    d = qp.capped_diamond()
    assert qp.require_slim_semimodular(d) is None
    t = qp.lattice_tables(d)
    assert t.mir == frozenset({1, 2, 3})


def test_supports_of_capped_diamond():
    sup = qp.supports(qp.capped_diamond())
    assert sup.lsp == (0, 1, 0, 3, 4)
    assert sup.rsp == (0, 0, 2, 3, 4)
    assert sup.lds == (1, 1, 2, 3, 4)
    assert sup.rds == (2, 1, 2, 3, 4)


def test_supports_require_slim_semimodular():
    with pytest.raises(qp.NotSlimSemimodular):
        qp.supports(qp.pentagon())


def test_meet_representations_are_the_dual_supports():
    d = qp.capped_diamond()
    t = qp.lattice_tables(d)
    assert qp.irredundant_meet_representations(d, t, 0) == [frozenset({1, 2})]
    assert qp.irredundant_meet_representations(d, t, 1) == [frozenset({1})]
    assert qp.irredundant_meet_representations(d, t, 3) == [frozenset({3})]
    assert qp.irredundant_meet_representations(d, t, 4) == [frozenset()]


def test_interval_subdiagram():
    d = qp.capped_diamond()
    block = qp.interval_subdiagram(d, 0, 3)
    assert qp.similar(block, qp.diamond())
    assert qp.interval_subdiagram(d, 3, 4) == qp.chain(2)
    assert qp.similar(qp.interval_subdiagram(d, 0, 4), d)


def test_interval_subdiagram_names_a_pair_that_bounds_no_interval():
    d = qp.capped_diamond()
    for lo, hi in ((1, 2), (4, 0)):
        with pytest.raises(ValueError) as exc:
            qp.interval_subdiagram(d, lo, hi)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"{lo} does not lie below {hi}, so they bound no interval"


def test_interval_subdiagram_names_a_bound_that_is_no_element():
    d = qp.capped_diamond()
    for lo, hi, message in (
        (-1, 4, "lo = -1 is out of range for n=5"),
        (0, 5, "hi = 5 is out of range for n=5"),
        (0, 10**30, "hi = an integer of 100 bits is out of range for n=5"),
        (None, 4, "lo of type NoneType is not an integer"),
        (0, 4.0, "hi of type float is not an integer"),
    ):
        with pytest.raises(ValueError) as exc:
            qp.interval_subdiagram(d, lo, hi)
        assert type(exc.value) is ValueError
        assert str(exc.value) == message


def test_lattice_isomorphic_ignores_the_drawing():
    d = qp.capped_diamond()
    assert qp.lattice_isomorphic(d, qp.mirror(d))
    assert qp.lattice_isomorphic(d, qp.relabel(d, (4, 0, 1, 2, 3)))
    assert not qp.lattice_isomorphic(qp.diamond(), qp.chain(4))


def test_lattice_isomorphic_separates_the_size_six_witness():
    a = qp.from_canonical((3, 4, 2, 1))
    b = qp.from_canonical((4, 2, 3, 1))
    assert qp.order_isomorphic_by_search(a, b)
    la = qp.lattice_from_filters(a)
    lb = qp.lattice_from_filters(b)
    assert not qp.lattice_isomorphic(la, lb)


def test_diagram_from_chains_rebuilds_capped_diamond():
    d = qp.capped_diamond()
    lc, rc = qp.boundary_chains(d)
    assert qp.diagram_from_chains(d.n, d.cover_pairs(), lc, rc) == d
    # swapping the chains forces the mirror orientation
    assert qp.diagram_from_chains(d.n, d.cover_pairs(), rc, lc) == qp.mirror(d)


def test_diagram_from_chains_rebuilds_every_size_six_lattice():
    for q in qp.enumerate_quasiplanar(6):
        d = qp.lattice_from_filters(q)
        lc, rc = qp.boundary_chains(d)
        assert qp.diagram_from_chains(d.n, d.cover_pairs(), lc, rc) == d


def test_diagram_from_chains_rebuilds_both_lattices_through_size_eight():
    rebuilt = 0
    for size in range(2, 9):
        for q in qp.enumerate_quasiplanar(size):
            for d in (qp.lattice_from_pairs(q), qp.lattice_from_filters(q)):
                lc, rc = qp.boundary_chains(d)
                got = qp.diagram_from_chains(d.n, d.cover_pairs(), lc, rc)
                assert (got.lam_pos, got.rho_pos) == (d.lam_pos, d.rho_pos)
                rebuilt += 1
    assert rebuilt == 1748


def test_diagram_from_chains_validates_the_chains():
    d = qp.capped_diamond()
    lc, rc = qp.boundary_chains(d)
    with pytest.raises(ValueError, match="bottom to the top"):
        qp.diagram_from_chains(d.n, d.cover_pairs(), (1, 3, 4), rc)
    with pytest.raises(ValueError, match="covering step"):
        qp.diagram_from_chains(d.n, d.cover_pairs(), (0, 3, 4), rc)


def test_diagram_from_chains_requires_covering_the_irreducibles():
    d4 = qp.diamond()
    with pytest.raises(qp.ChainsDoNotCoverJir):
        qp.diagram_from_chains(4, d4.cover_pairs(), (0, 1, 3), (0, 1, 3))


def test_diagram_from_chains_rejects_unfit_orders():
    n5 = qp.pentagon()
    with pytest.raises(qp.NotSlimSemimodular):
        qp.diagram_from_chains(5, n5.cover_pairs(), (0, 1, 3, 4), (0, 2, 4))
    n, covers = qp.boolean_cube_covers()
    with pytest.raises(qp.NotSlimSemimodular, match="dimension"):
        qp.diagram_from_chains(n, covers, (0, 1, 3, 7), (0, 4, 6, 7))


def test_diagram_from_chains_names_a_member_that_is_no_element():
    # checked before the order's verdict, so the pentagon's chains are named
    d = qp.capped_diamond()
    covers, rc = d.cover_pairs(), qp.boundary_chains(d)[1]
    for chain, message in (
        ((0, "a", 4), "left_chain[1] of type str is not an integer"),
        ((0, 1.0, 4), "left_chain[1] of type float is not an integer"),
        ((0, -1, 4), "left_chain[1] = -1 is out of range for n=5"),
        ((0, 99, 4), "left_chain[1] = 99 is out of range for n=5"),
        ((0, 10**12, 4), "left_chain[1] = 1000000000000 is out of range for n=5"),
        ((0, 10**4999, 4), "left_chain[1] = an integer of 16607 bits is out of range"),
    ):
        with pytest.raises(ValueError) as exc:
            qp.diagram_from_chains(5, covers, chain, rc)
        assert str(exc.value).startswith(message) and len(str(exc.value)) < 80
    with pytest.raises(ValueError, match=r"^right_chain\[3\] = 5 is out of range"):
        qp.diagram_from_chains(5, qp.pentagon().cover_pairs(), (0, 1, 4), (0, 2, 3, 5))
    # an integer type other than int is taken as its index
    got = qp.diagram_from_chains(5, covers, (False, True, 3, 4), rc)
    assert got == d


def test_diagram_from_chains_draws_without_the_solver_or_tables(monkeypatch):
    calls = []
    for module, name in ((transform, "_oriented"),
                         (lattice, "_compute_tables")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    for q in qp.enumerate_quasiplanar(6):
        for d in (qp.lattice_from_pairs(q), qp.lattice_from_filters(q)):
            lc, rc = qp.boundary_chains(d)
            calls.clear()
            assert qp.diagram_from_chains(d.n, d.cover_pairs(), lc, rc) == d
            assert calls == []
    n, covers = qp.boolean_cube_covers()
    with pytest.raises(qp.NotSlimSemimodular, match="order dimension exceeds two"):
        qp.diagram_from_chains(n, covers, (0, 1, 3, 7), (0, 4, 6, 7))
    assert calls == ["_oriented"]


def test_diagram_from_chains_rebuilds_a_547_element_lattice_within_a_second():
    perm = random.Random(1).sample(range(1, 46), 45)
    d = qp.lattice_from_filters(qp.from_canonical(perm))
    covers, (lc, rc) = d.cover_pairs(), qp.boundary_chains(d)
    start = time.perf_counter()
    got = qp.diagram_from_chains(d.n, covers, lc, rc)
    assert time.perf_counter() - start < 1.0
    assert d.n == 547 and (got.lam_pos, got.rho_pos) == (d.lam_pos, d.rho_pos)


def test_gates_pass_a_547_element_lattice_without_tables(monkeypatch):
    built = []
    compute = lattice._compute_tables
    monkeypatch.setattr(
        lattice, "_compute_tables", lambda d: built.append(d) or compute(d)
    )
    perm = random.Random(1).sample(range(1, 46), 45)
    d = qp.lattice_from_filters(qp.from_canonical(perm))
    twin = qp.Diagram(d.lam_pos, d.rho_pos)
    for gate in (
        qp.require_slim_semimodular,
        qp.boundary_chains,
        qp.supports,
        lambda d: qp.lattice_isomorphic(d, twin),
    ):
        start = time.perf_counter()
        gate(d)
        assert time.perf_counter() - start < 1.0
    assert d.n == 547 and built == []
    assert qp.lattice_isomorphic(d, twin)
    # a rejection is still named by the tables
    capped = qp.capped_diamond()
    for bad, message in (
        (qp.pentagon(), "lattice is not semimodular"),
        (qp.three_atom_diamond(), "join-irreducibles contain a 3-element antichain"),
    ):
        for gate in (
            qp.supports,
            lambda b: qp.lattice_isomorphic(b, capped),
            lambda b: qp.lattice_isomorphic(capped, b),
        ):
            with pytest.raises(qp.NotSlimSemimodular) as exc:
                gate(bad)
            assert str(exc.value) == message


def test_tables_are_built_once_per_diagram_instance(monkeypatch):
    built = []
    compute = lattice._compute_tables
    monkeypatch.setattr(
        lattice, "_compute_tables", lambda d: built.append(d) or compute(d)
    )
    d = qp.capped_diamond()
    t = qp.lattice_tables(d)
    qp.require_slim_semimodular(d)
    qp.boundary_chains(d)
    qp.supports(d)
    assert qp.lattice_tables(d) is t and len(built) == 1
    # kept on the instance, not in a shared cache: an equal diagram builds anew
    twin = qp.Diagram(d.lam_pos, d.rho_pos)
    assert twin == d and qp.lattice_tables(twin) == t and len(built) == 2
    # a failure is not kept
    h = qp.hexagon()
    for _ in range(2):
        with pytest.raises(qp.NotALattice):
            qp.lattice_tables(h)
    assert len(built) == 4


def test_constructions_past_the_gate_build_no_order_masks(monkeypatch):
    # the walks, supports, narrows, peelings and pair keys read their
    # extremes off the sweep positions, so no order mask is built by any
    # module that binds the builder
    built = []
    for module in (diagram, lattice, enumeration):
        real = module._order_masks
        monkeypatch.setattr(
            module, "_order_masks", lambda *a, real=real: built.append(a) or real(*a)
        )
    q = qp.from_canonical(random.Random(30).sample(range(1, 29), 28))
    d = qp.lattice_from_filters(q)
    lc, rc = qp.boundary_chains(d)
    sup = qp.supports(d)
    assert qp.lattice_isomorphic(d, qp.Diagram(d.lam_pos, d.rho_pos))
    assert qp.similar(qp.to_quasiplanar(d), q)
    fam = qp.enumerate_hco_filters(q)
    to_filter, to_pair = qp.pair_filter_maps(q)
    assert qp.hco_closure(q, fam.left_steps[-1:]) == fam.left_chain[-2]
    assert built == []
    assert (lc[0], lc[-1], rc[0], rc[-1]) == (d.bottom, d.top, d.bottom, d.top)
    assert all(d.leq(sup.lsp[x], x) and d.leq(x, sup.lds[x]) for x in range(d.n))
    assert all(to_filter[to_pair[f]] == f for f in fam.filters)
    # the count sees a build
    t = qp.lattice_tables(d)
    assert t.join[d.bottom][d.top] == d.top and len(built) == 1


def test_boundary_chains_builds_the_tables_once_and_names_nothing(monkeypatch):
    # the certificate's verdict gates the walk; a refused d builds its
    # tables once, so a non-lattice fails as lattice_tables does
    built = []
    compute = lattice._compute_tables
    monkeypatch.setattr(
        lattice, "_compute_tables", lambda d: built.append(d) or compute(d)
    )
    with pytest.raises(qp.NotALattice) as exc:
        qp.boundary_chains(qp.hexagon())
    assert len(built) == 1
    with pytest.raises(qp.NotALattice) as by_tables:
        qp.lattice_tables(qp.hexagon())
    assert (str(exc.value), exc.value.witness) == (
        str(by_tables.value), by_tables.value.witness
    )
    built.clear()
    m3 = qp.three_atom_diamond()
    assert qp.boundary_chains(m3) == ((0, 1, 4), (0, 3, 4)) and len(built) == 1


def test_verify_suite_certifies_each_lattice_once(monkeypatch):
    # per diagram, one certificate each for β1 and β2 (the two rebuilds);
    # the chains and supports of β2 read it past the gate
    calls = []
    real = transform._rebuilt
    monkeypatch.setattr(transform, "_rebuilt", lambda d: calls.append(d) or real(d))
    assert qp.verify_suite(5).passed
    assert len(calls) == 6 * 2


def test_diagram_from_chains_draws_the_order_and_the_chains():
    # every pair of maximal chains covering the join-irreducibles draws the
    # given order with exactly those chains as its boundary
    cases = 0
    for size in range(2, 8):
        for q in qp.enumerate_quasiplanar(size):
            d = qp.lattice_from_filters(q)
            jir = qp.lattice_tables(d).jir
            chains = qp.maximal_chains(d)
            for lc in chains:
                for rc in chains:
                    if not jir <= set(lc) | set(rc):
                        continue
                    got = qp.diagram_from_chains(d.n, d.cover_pairs(), lc, rc)
                    assert _up(got) == _up(d)
                    assert qp.boundary_chains(got) == (tuple(lc), tuple(rc))
                    cases += 1
    # 321 through sizes 3-7, and the one-element lattice of size 2
    assert cases == 322


def test_self_checks_raise_law_violations(monkeypatch):
    # supports only construct; the law fails forged join and meet tables,
    # and a right chain that misses the right supports, with the message of
    # each check
    real = enumeration._slim_semimodular_tables
    chains = enumeration._cover_walks
    for name, forged, message in (
        ("_slim_semimodular_tables",
         lambda d: replace(real(d), join=real(d).meet),
         "element is not the join of its supports"),
        ("_slim_semimodular_tables",
         lambda d: replace(real(d), meet=real(d).join),
         "element is not the meet of its dual supports"),
        ("_cover_walks",
         lambda d: (chains(d)[0],) * 2,
         "perm (1, 3, 2): support of element 2 is off its boundary chain"),
    ):
        monkeypatch.setattr(enumeration, name, forged)
        law = {r.name: r for r in qp.verify_suite(5).results}[
            "supports compose every element"
        ]
        assert message in law.witness, law.witness
        monkeypatch.undo()
