"""End-to-end command line tests plus in-process exit code checks."""

import argparse
import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quasiplanar as qp
from quasiplanar import cli, lattice, transform

Q5_TEXT = '{"n":5,"covers":[[0,1],[0,2],[1,3],[2,3],[3,4]],"left":[[1,2]]}'
ENUM4_LINES = [
    '{"n":4,"covers":[[0,1],[1,2],[2,3]],"left":[]}',
    '{"n":4,"covers":[[0,1],[0,2],[1,3],[2,3]],"left":[[1,2]]}',
]


@pytest.fixture
def q5_file(tmp_path):
    path = tmp_path / "q5.json"
    path.write_text(Q5_TEXT)
    return str(path)


@pytest.fixture
def n5_file(tmp_path):
    path = tmp_path / "n5.json"
    path.write_text(qp.serialize(qp.pentagon()))
    return str(path)


def test_validate_echoes_the_canonical_document(cli, q5_file):
    code, out, err = cli("validate", q5_file)
    assert (code, out, err) == (0, Q5_TEXT + "\n", "")


def test_validate_reads_stdin_with_a_dash(cli):
    scrambled = '{"left":[[1,2]],"covers":[[3,4],[2,3],[0,2],[1,3],[0,1]],"n":5}'
    code, out, err = cli("validate", "-", stdin=scrambled)
    assert (code, out) == (0, Q5_TEXT + "\n")


def test_validate_rejects_bad_json(cli):
    code, out, err = cli("validate", "-", stdin="{nope")
    assert code == 1
    assert out == ""
    assert "MalformedDocument" in err


def test_validate_rejects_invalid_diagrams_with_the_error_name(cli):
    missing = '{"n":4,"covers":[[0,1],[0,2],[1,3],[2,3]]}'
    code, out, err = cli("validate", "-", stdin=missing)
    assert code == 1
    assert "LeftIncomplete" in err


def test_validate_reports_missing_files(cli, tmp_path):
    code, out, err = cli("validate", str(tmp_path / "absent.json"))
    assert code == 1
    assert "Error" in err or "No such file" in err


def test_canon_prints_the_permutation(cli, q5_file):
    code, out, err = cli("canon", q5_file)
    assert code == 0
    assert json.loads(out) == {"n": 5, "canonical": [2, 1, 3]}


def test_beta_variants_agree_byte_for_byte(cli, q5_file):
    code2, out2, err2 = cli("beta", q5_file)
    code1, out1, err1 = cli("beta", q5_file, "--variant", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out2)
    assert doc["n"] == 5
    # the lattice of the capped diamond has exactly one incomparable pair
    assert len(doc["left"]) == 1


def test_alpha_inverts_beta_exactly(cli, q5_file):
    _, lattice_doc, _ = cli("beta", q5_file)
    code, out, err = cli("alpha", "-", stdin=lattice_doc)
    assert code == 0
    assert out == Q5_TEXT + "\n"


def test_alpha_rejects_inputs_without_the_structure(cli, n5_file):
    code, out, err = cli("alpha", n5_file)
    assert code == 1
    assert "NotSlimSemimodular" in err


def test_roundtrip_picks_the_lattice_direction_for_lattices(cli, q5_file):
    code, out, err = cli("roundtrip", q5_file)
    assert code == 0
    assert json.loads(out) == {"mode": "lattice", "similar": True}


def test_roundtrip_falls_back_to_the_diagram_direction(cli, n5_file):
    code, out, err = cli("roundtrip", n5_file)
    assert code == 0
    assert json.loads(out) == {"mode": "diagram", "similar": True}


def test_roundtrip_direction_can_be_forced(cli, q5_file):
    code, out, err = cli("roundtrip", q5_file, "--direction", "diagram")
    assert code == 0
    assert json.loads(out) == {"mode": "diagram", "similar": True}


def test_enumerate_streams_documents(cli):
    code, out, err = cli("enumerate", "--size", "4")
    assert code == 0
    assert out.splitlines() == ENUM4_LINES


def test_enumerate_output_is_pinned_at_size_8(cli):
    # the bytes the eager-mask Diagram wrote; deriving fields lazily and
    # reading pairs from positions must not change them
    code, out, err = cli("enumerate", "--size", "8")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a6b6c268db8eeb59fc2906a2f7f4825d901b4948668c40bd8e17202c089c77a1"
    )


def test_enumerate_writes_one_file_per_diagram(cli, tmp_path):
    out_dir = str(tmp_path / "docs")
    code, out, err = cli("enumerate", "--size", "4", "--out", out_dir)
    assert code == 0
    assert json.loads(out) == {"size": 4, "count": 2, "out": out_dir}
    files = sorted(p.name for p in (tmp_path / "docs").iterdir())
    assert files == ["q4-0.json", "q4-1.json"]
    texts = [
        (tmp_path / "docs" / name).read_text() for name in files
    ]
    assert texts == [line + "\n" for line in ENUM4_LINES]


def test_enumerate_refuses_a_bad_size_before_making_the_directory(cli, tmp_path):
    out_dir = tmp_path / "docs"
    code, out, err = cli("enumerate", "--size", "1", "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err == "ValueError: size must be an integer >= 2, got 1\n"
    assert not out_dir.exists()


def test_count_reports_the_factorial(cli):
    code, out, err = cli("count", "--size", "7")
    assert code == 0
    assert out == '{"size":7,"count":120,"expected":120}\n'


def test_count_rejects_undersized_requests(cli):
    code, out, err = cli("count", "--size", "0")
    assert code == 1
    assert "ValueError" in err


def test_verify_reports_every_law_and_keeps_timing_off_stdout(cli):
    code, out, err = cli("verify", "--size", "4")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 4
    assert data["count"] == data["expected"] == 2
    assert data["passed"] is True
    assert "elapsed" not in data
    assert len(data["checks"]) == len(qp.check_names()) + 1
    assert all(c["passed"] and c["witness"] == "" for c in data["checks"])
    assert re.fullmatch(r"elapsed \d+\.\d\ds in 1 process\n", err), err
    code2, out2, _ = cli("verify", "--size", "4")
    assert (code2, out2) == (code, out)


def test_verify_rejects_undersized_requests(cli):
    code, out, err = cli("verify", "--size", "1")
    assert code == 1


def test_render_emits_dot(cli, q5_file):
    code, out, err = cli("render", q5_file)
    assert code == 0
    assert out.startswith("digraph ")
    assert out.endswith("}\n")
    assert out.count(" -> ") == 5


def test_usage_errors_exit_three(cli, q5_file):
    assert cli()[0] == 3
    assert cli("frobnicate", q5_file)[0] == 3
    assert cli("render", q5_file, "--format", "svg")[0] == 3
    assert cli("enumerate")[0] == 3
    assert cli("beta", q5_file, "--variant", "3")[0] == 3


@pytest.mark.parametrize("argv", [
    ["count", "--size", "12"],
    ["enumerate", "--size", "12"],
    ["verify", "--size", "9"],
], ids=["count", "enumerate", "verify"])
def test_an_interrupt_exits_130_with_one_line(argv):
    # each of these runs for many seconds
    assert _interrupted(argv) == (130, "interrupted\n")


def _interrupted(argv, after=0.5, preexec_fn=None):
    """Exit code and stderr of CLI ``argv``, sent SIGINT ``after`` seconds in.

    The child names itself ready once the package is imported, so the
    interrupt lands inside main.
    """
    script = (
        "import os, sys; from quasiplanar.cli import main; "
        "os.write(int(sys.argv[1]), b'.'); sys.exit(main(sys.argv[2:]))"
    )
    r, w = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(w), *argv], pass_fds=(w,),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        preexec_fn=preexec_fn,
    )
    os.close(w)
    with open(r, "rb") as ready:
        assert ready.read(1) == b"."
    time.sleep(after)
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


def _address_space_of_200_mb():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 200 * 2**20
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def test_a_size_past_any_list_of_blocks_starts_in_bounded_memory():
    # size 30 has 28! ranks: a list of their blocks fills 200 MB of address
    # space within a second and dies of a MemoryError, and len() of a range
    # of them overflows, so the blocks must be dealt as they run
    argv = ["count", "--size", "30"]
    assert _interrupted(argv, 1.5, _address_space_of_200_mb) == (130, "interrupted\n")


def test_count_mismatch_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(cli, "count_quasiplanar", lambda size: 7)
    code = cli.main(["count", "--size", "5"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out) == {"size": 5, "count": 7, "expected": 6}


def test_roundtrip_mismatch_exits_two(monkeypatch, capsys, q5_file):
    monkeypatch.setattr(cli, "similar", lambda a, b: False)
    code = cli.main(["roundtrip", q5_file])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out) == {"mode": "lattice", "similar": False}


def test_roundtrip_checks_a_lattice_once(monkeypatch, capsys):
    # α certifies the lattice with one pair lattice and builds no tables
    calls = []
    for module, name in ((lattice, "_compute_tables"), (transform, "lattice_from_pairs")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
        )
    monkeypatch.setattr("sys.stdin", io.StringIO(Q5_TEXT))
    code = cli.main(["roundtrip", "-"])
    assert (code, capsys.readouterr().out) == (
        0, '{"mode":"lattice","similar":true}\n'
    )
    assert calls == ["lattice_from_pairs"]


def _two_chains(k):
    """A bottom, two k-element chains side by side, and a top."""
    return qp.Diagram(
        range(2 * k + 2), (0, *range(k + 1, 2 * k + 1), *range(1, k + 1), 2 * k + 1)
    )


@pytest.mark.parametrize("d, message", [
    (qp.three_atom_diamond(), "join-irreducibles contain a 3-element antichain"),
    (_two_chains(30), "lattice is not semimodular"),
])
def test_roundtrip_auto_takes_the_verdict_without_tables(
    monkeypatch, capsys, tmp_path, d, message
):
    # auto picks the diagram direction from the certificate alone; only a
    # refusal shown to the user, under --direction lattice, is named
    built = []
    compute = lattice._compute_tables
    monkeypatch.setattr(
        lattice, "_compute_tables", lambda d: built.append(d) or compute(d)
    )
    path = tmp_path / "lattice.json"
    path.write_text(qp.serialize(d))
    assert cli.main(["roundtrip", str(path)]) == 0
    assert capsys.readouterr().out == '{"mode":"diagram","similar":true}\n'
    assert built == []
    assert cli.main(["roundtrip", "--direction", "lattice", str(path)]) == 1
    assert capsys.readouterr() == ("", f"NotSlimSemimodular: {message}\n")


def test_one_parser_serves_every_call_in_a_process(monkeypatch, capsys, q5_file):
    calls = [
        ["canon", q5_file],
        ["count", "--size", "0"],
        ["beta", "--variant", "3", q5_file],
        ["alpha", q5_file],
        ["validate", q5_file],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        return code, out, err

    cli._build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 3, 0, 0]


def test_failed_verification_exits_two(monkeypatch, capsys):
    from quasiplanar.enumeration import CheckResult, EnumerationReport

    report = EnumerationReport(
        4, 2, 2, (CheckResult("law", False, "perm (1, 2): boom"),), 0.0
    )
    monkeypatch.setattr(cli, "verify_suite", lambda size: report)
    code = cli.main(["verify", "--size", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "elapsed 0.00s in 1 process\n"
    data = json.loads(captured.out)
    assert data["passed"] is False
    assert data["checks"][0]["witness"] == "perm (1, 2): boom"
    # the process count goes to stderr only
    report = dataclasses.replace(report, elapsed=13.337, processes=2)
    assert cli.main(["verify", "--size", "4"]) == 2
    assert capsys.readouterr() == (captured.out, "elapsed 13.34s in 2 processes\n")


def test_readme_command_table_lists_the_parser_subcommands_in_order():
    (sub,) = (
        a for a in cli._build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Command line", 1)[1].split("\n\n")[2]
    rows = table.splitlines()[2:]
    assert [row.split("`")[1].split()[0] for row in rows] == list(sub.choices)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector's state before main runs; restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv, stdin, interrupt, code", [
    (["validate", "-"], Q5_TEXT, False, 0),
    (["validate", "-"], '{"n":3,"covers":[[0,1],[1]]}', False, 1),
    (["alpha", "-"], qp.serialize(qp.three_atom_diamond()), False, 1),
    (["validate", "-"], Q5_TEXT, True, 130),
], ids=["exit-0", "malformed", "alpha-m3", "interrupt"])
def test_main_leaves_the_collector_as_it_found_it(
    monkeypatch, capsys, collector, argv, stdin, interrupt, code
):
    seen = []

    def interrupted(d):
        seen.append(gc.isenabled())
        raise KeyboardInterrupt

    if interrupt:
        monkeypatch.setattr(cli, "serialize", interrupted)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert cli.main(argv) == code
    assert gc.isenabled() is collector
    # the handler ran with the collector paused
    assert seen == ([False] if interrupt else [])
    capsys.readouterr()


def test_a_sized_command_runs_with_the_collector_on(monkeypatch, capsys, collector):
    seen = []
    monkeypatch.setattr(
        cli, "count_quasiplanar", lambda size: seen.append(gc.isenabled()) or 6
    )
    assert cli.main(["count", "--size", "5"]) == 0
    assert (seen, gc.isenabled()) == ([collector], collector)
    capsys.readouterr()


def test_document_commands_leave_no_cyclic_garbage(monkeypatch, capsys):
    # the paused collector has nothing to find: every document command, on
    # accepted and refused input alike, builds only what reference counting
    # frees.  The diagram is shuffled in blocks of seven, so that beta of
    # its 62-element beta2 document stays small (198 elements)
    rng = random.Random(5)
    perm = [x for s in (1, 8, 15, 22) for x in rng.sample(range(s, s + 7), 7)]
    d = qp.relabel(qp.from_canonical(perm), rng.sample(range(30), 30))
    inputs = [
        (None, qp.serialize(d)),
        (None, qp.serialize(qp.lattice_from_filters(d))),
        (None, qp.serialize(qp.three_atom_diamond())),
        ("MalformedDocument", '{"n":3,"covers":[[0,1],[1]]}'),
        ("NotAPartialOrder", '{"n":3,"covers":[[0,1],[1,2],[2,0]]}'),
        ("NotBounded", '{"n":3,"covers":[[0,1],[0,2]]}'),
        ("LeftOnComparable", '{"n":4,"covers":[[0,1],[0,2],[1,3],[2,3]],"left":[[0,3]]}'),
        ("LeftIncomplete", '{"n":4,"covers":[[0,1],[0,2],[1,3],[2,3]],"left":[]}'),
    ]
    commands = [
        ["validate"], ["canon"], ["alpha"], ["beta", "--variant", "1"],
        ["beta", "--variant", "2"], ["roundtrip", "--direction", "auto"],
        ["roundtrip", "--direction", "lattice"],
        ["roundtrip", "--direction", "diagram"], ["render"],
    ]

    def run(argv, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = cli.main([*argv, "-"])
        return code, capsys.readouterr().err

    run(["validate"], Q5_TEXT)  # the first call builds the parser
    gc.collect()
    codes = []
    for argv in commands:
        for error, text in inputs:
            code, err = run(argv, text)
            assert gc.collect() == 0, (argv, text[:60])
            if error:
                assert (code, err.split(":")[0]) == (1, error), argv
            codes.append(code)
    # alpha, beta and roundtrip --direction lattice refuse M3
    assert (len(codes), codes.count(0)) == (72, 9 * 2 + 5)
