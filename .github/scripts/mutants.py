#!/usr/bin/env python3
"""Each mutant of the package must fail the tests named for it.

    python .github/scripts/mutants.py

Run from the root of a checkout with pytest and hypothesis installed; it
uses nothing else outside the standard library.  Each row of ``MUTANTS``
names a file under src/quasiplanar/, a text that must occur there exactly
once, the text that replaces it, and the test node ids that must catch the
change.  The script copies src/ to a temporary directory and first requires
every named test to pass against that unmutated copy.  Then, for each row,
it applies the one replacement to a fresh copy and requires the row's tests
to fail against it within ``TIMEOUT_S`` seconds; a run the timeout cuts
short counts as failing, and its whole process group is killed.  It prints
one line per row and exits 1 if a row's text does not occur exactly once
or its mutant survives.  A surviving mutant is a finding to report, not a
row to drop.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT_S = 300

ORACLES = "tests/test_oracles.py::"

# (file, old text, new text, test node ids)
MUTANTS = (
    (  # the staircase keeps each element whose reverse position falls
        "diagram.py",
        "(rho[z] < bound) == lowest",
        "(rho[z] > bound) == lowest",
        (ORACLES + "test_sweep_readers_match_their_mask_bodies",
         ORACLES + "test_not_a_lattice_messages_and_witnesses_are_unchanged"),
    ),
    (  # the interval [x, x*] ends at x* in the left-to-right sweep; ending
        # it one place earlier drops only x*, which is in no failing triple
        "lattice.py",
        "d.lam_order[lam[x]:lam[s] + 1]",
        "d.lam_order[lam[x]:lam[s] - 1]",
        (ORACLES + "test_sweep_readers_match_their_mask_bodies",),
    ),
    (  # a quadrant, and so a principal filter, holds its own corner
        "transform.py",
        "if rho[z] >= rho[y])",
        "if rho[z] > rho[y])",
        (ORACLES + "test_sweep_readers_match_their_mask_bodies",
         "tests/test_transform.py::test_meet_irreducible_filters_of_capped_diamond"),
    ),
    (  # of two filters of one size, the one holding the lowest element the
        # other lacks has the larger mask over reversed labels, and comes first
        "transform.py",
        "(f[1].bit_count(), -f[1])",
        "(f[1].bit_count(), f[1])",
        (ORACLES + "test_filters_come_in_label_order",
         "tests/test_acceptance.py::test_criterion_7_desk_fixtures",
         "tests/test_transform.py::test_filter_family_of_capped_diamond",
         "tests/test_transform.py::test_filter_lattice_of_capped_diamond"),
    ),
    (  # a filter mask holds element z at bit n - 1 - z
        "transform.py",
        "_suffix_masks(lam[::-1]), _suffix_masks(rho[::-1])",
        "_suffix_masks(lam), _suffix_masks(rho)",
        (ORACLES + "test_filters_are_the_quadrants_of_their_pairs",
         ORACLES + "test_filters_come_in_label_order",
         "tests/test_transform.py::test_filter_family_of_capped_diamond"),
    ),
    (  # the drawing has the input's order only if its covers are order pairs
        "transform.py",
        "_certified(drawn, cover_list, ()) and all(up[a] >> b & 1 for a, b in steps)",
        "_certified(drawn, cover_list, ())",
        (ORACLES + "test_diagram_from_chains_matches_the_reference_through_size_6",),
    ),
    (  # the certificate builds alpha's pair lattice only at the right count
        "transform.py",
        "size == d.n and similar(lattice_from_pairs(alpha), d)",
        "similar(lattice_from_pairs(alpha), d)",
        (ORACLES + "test_certificate_refuses_two_long_chains_without_their_pair_lattice",),
    ),
    (  # validation certifies each input order pair below in both sweeps
        "diagram.py",
        "if not (lam[a] < lam[b] and rho[a] < rho[b]):",
        "if not lam[a] < lam[b]:",
        (ORACLES + "test_validate_matches_the_reference_on_every_diagram_and_its_defects",),
    ),
    (  # an extreme cover is the next element past x's reverse position
        "lattice.py",
        "while waiting and (pos[waiting[-1]] < pos[y]) == upper:",
        "while waiting and (pos[waiting[-1]] > pos[y]) == upper:",
        (ORACLES + "test_extreme_covers_match_the_cover_masks",),
    ),
    (  # the rightmost minimal element comes first in the right-to-left sweep
        "transform.py",
        "min(fset, key=d.rho_pos.__getitem__)",
        "max(fset, key=d.rho_pos.__getitem__)",
        (ORACLES + "test_extremes_off_the_sweeps_match_the_mask_scans",),
    ),
    (  # a process walks past the blocks of the others
        "enumeration.py",
        "        next(islice(perms, lo - at, lo - at), None)\n",
        "",
        ("tests/test_enumeration.py::test_split_enumerate_prints_what_one_process_does",),
    ),
    (  # a child that exits non-zero is named by its exit status, not as
        # a short result
        "enumeration.py",
        "    if status:\n        raise ShareFailed(",
        "    if False:\n        raise ShareFailed(",
        ("tests/test_enumeration.py::test_a_child_dying_mid_block_raises_and_leaves_no_child",
         "tests/test_enumeration.py::test_a_failed_share_raises_and_leaves_no_child"),
    ),
    (  # a child whose whole message does not unpickle may still be
        # running: it is killed, not waited for
        "enumeration.py",
        "        os.kill(pid, signal.SIGKILL)\n        status = _retired(children, j)\n",
        "        status = _retired(children, j)\n",
        ("tests/test_enumeration.py::"
         "test_a_bad_message_from_a_live_child_kills_it_and_leaves_no_child",),
    ),
    (  # every way out of the scheduler reaps the children it killed
        "enumeration.py",
        "                for child in children.values():\n                    _reaped(child)\n",
        "",
        ("tests/test_enumeration.py::test_an_interrupted_caller_kills_and_reaps_its_children",
         "tests/test_enumeration.py::test_an_interrupted_enumeration_kills_and_reaps_its_children",
         "tests/test_enumeration.py::test_a_closed_or_interrupted_stdout_leaves_no_child"),
    ),
    (  # an entry of the wrong length fails to unpack with a ValueError,
        # which sends the list to the locating pass
        "io.py",
        "    except (TypeError, ValueError):",
        "    except TypeError:",
        (ORACLES + "test_a_bad_entry_anywhere_is_named_as_the_per_entry_pass_names_it",
         ORACLES + "test_parse_pairs_matches_the_reference_on_mutated_lists"),
    ),
    (  # the fast read of a pair list takes exact ints only
        "io.py",
        "            if type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n\n"
        "        ]",
        "            if 0 <= a < n and 0 <= b < n\n"
        "        ]",
        (ORACLES + "test_parse_pairs_matches_the_reference_on_mutated_lists",),
    ),
    (  # the collector comes back on every way out of a document command
        "cli.py",
        "    try:\n        yield\n    finally:\n        if was_on:\n            gc.enable()\n",
        "    yield\n    if was_on:\n        gc.enable()\n",
        ("tests/test_cli.py::test_main_leaves_the_collector_as_it_found_it",),
    ),
)


def _env(src):
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def _passes(src, tests):
    """Whether ``tests`` pass against the package under ``src``."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(src), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        return proc.wait(TIMEOUT_S) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def _copy(tmp, name):
    src = Path(tmp) / name
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main():
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy(tmp, "clean")
        found = subprocess.run(
            [sys.executable, "-c", "import quasiplanar; print(quasiplanar.__file__)"],
            cwd=ROOT, env=_env(clean), capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(found).is_relative_to(clean):
            print(f"the copy is not what imports: quasiplanar comes from {found}")
            return 1
        tests = sorted({t for *_, ids in MUTANTS for t in ids})
        if not _passes(clean, tests):
            print("the named tests fail on the unmutated copy")
            return 1
        for i, (name, old, new, ids) in enumerate(MUTANTS):
            src = _copy(tmp, f"mutant{i}")
            path = src / "quasiplanar" / name
            text = path.read_text(encoding="utf-8")
            count = text.count(old)
            if count != 1:
                verdict = f"text occurs {count} times, not once"
            else:
                path.write_text(text.replace(old, new), encoding="utf-8")
                verdict = "caught" if not _passes(src, ids) else "SURVIVED"
            print(f"{name}: {old.strip()[:60]!r}: {verdict}")
            if verdict != "caught":
                failed.append(i)
            shutil.rmtree(src)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
