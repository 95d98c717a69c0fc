"""Command line interface.

Results go to stdout as JSON (DOT text for render); diagnostics go to
stderr.  Exit codes: 0 success, 1 unusable input (including unmet
preconditions) or a child process that failed, 2 a verification that ran
and failed, 3 usage errors, 130 an interrupt.

A command that reads a document runs its read, parse and handler with the
cyclic garbage collector paused, since all it builds are trees; the sized
commands (enumerate, count, verify) run unbounded and keep it on.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from contextlib import closing, contextmanager
from itertools import chain

from .diagram import canonical_form, canonical_relabel, from_canonical, similar
from .enumeration import _in_blocks, count_quasiplanar, expected_count, verify_suite
from .errors import ShareFailed
from .io import _COMPACT, _serialized, parse, render_dot, serialize
from .transform import _rebuilt, lattice_from_filters, lattice_from_pairs, to_quasiplanar


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 3 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off, then restore it.

    A document command builds trees (the parsed JSON, the diagram, its
    tables and the output), which reference counting frees, so the
    collector's passes over the objects of a large document find nothing.
    A caller that had turned it off keeps it off.
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as f:
        return f.read()


def _emit(data):
    print(_COMPACT.encode(data))


def _cmd_validate(d, args):
    print(serialize(d))


def _cmd_canon(d, args):
    _emit({"n": d.n, "canonical": list(canonical_form(d))})


def _cmd_alpha(d, args):
    print(serialize(canonical_relabel(to_quasiplanar(d))))


def _cmd_beta(d, args):
    build = lattice_from_pairs if args.variant == 1 else lattice_from_filters
    print(serialize(canonical_relabel(build(d))))


def _cmd_roundtrip(d, args):
    mode = args.direction
    if mode == "lattice":
        alpha = to_quasiplanar(d)  # a refusal is shown, so it is named
    elif mode == "auto":
        # the certificate's verdict picks the direction; no tables are built
        alpha, certified = _rebuilt(d)
        mode = "lattice" if certified else "diagram"
    if mode == "lattice":
        back = lattice_from_filters(alpha)
    else:
        back = to_quasiplanar(lattice_from_filters(d))
    ok = similar(back, d)
    _emit({"mode": mode, "similar": ok})
    return ok


def _documents(perms):
    # one block's documents share one memo of pair texts, at most n² of them
    return _serialized(map(from_canonical, perms))


def _cmd_enumerate(args):
    # the size is checked here, before DIR is made; the blocks run over
    # every CPU and come back in rank order
    total = expected_count(args.size)
    blocks = _in_blocks(args.size, _documents, "the enumeration's block")
    with closing(blocks):
        docs = chain.from_iterable(blocks)
        if args.out is None:
            for text in docs:
                print(text)
            return
        width = len(str(max(total - 1, 0)))
        os.makedirs(args.out, exist_ok=True)
        count = 0
        for i, text in enumerate(docs):
            name = f"q{args.size}-{i:0{width}d}.json"
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as f:
                f.write(text + "\n")
            count += 1
    _emit({"size": args.size, "count": count, "out": args.out})


def _cmd_count(args):
    count = count_quasiplanar(args.size)
    expected = expected_count(args.size)
    _emit({"size": args.size, "count": count, "expected": expected})
    return count == expected


def _cmd_verify(args):
    report = verify_suite(args.size)
    _emit(
        {
            "size": report.size,
            "count": report.count,
            "expected": report.expected,
            "passed": report.passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "witness": r.witness}
                for r in report.results
            ],
        }
    )
    n = report.processes
    plural = "es" if n != 1 else ""
    print(f"elapsed {report.elapsed:.2f}s in {n} process{plural}", file=sys.stderr)
    return report.passed


def _cmd_render(d, args):
    sys.stdout.write(render_dot(d))


# one row per subcommand, in help order; a handler of a sized subcommand
# takes the arguments, any other the parsed document and the arguments,
# and one that verifies returns whether it held
_COMMANDS = (
    ("validate", "check a document and echo it canonically", _cmd_validate),
    ("canon", "print size and canonical permutation", _cmd_canon),
    ("alpha", "rebuild the diagram whose filter lattice the input draws", _cmd_alpha),
    ("beta", "build the filter (or pair) lattice diagram", _cmd_beta),
    ("roundtrip", "run the construction out and back, reporting similarity", _cmd_roundtrip),
    ("enumerate", "emit every diagram of a size", _cmd_enumerate),
    ("count", "count diagrams of a size by enumeration", _cmd_count),
    ("verify", "run the law suite over a whole size", _cmd_verify),
    ("render", "render a document for Graphviz", _cmd_render),
)
_SIZED = ("enumerate", "count", "verify")


@functools.cache
def _build_parser():
    parser = _Parser(
        prog="quasiplanar",
        description=(
            "Validate, canonicalize, transform, enumerate, and verify "
            "diagrams in the interchange JSON format."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, summary, fn in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        if name in _SIZED:
            p.add_argument("--size", type=int, required=True)
        else:
            p.add_argument("file", help="path to a JSON document, or - for stdin")
        p.set_defaults(fn=fn)
    sub.choices["beta"].add_argument(
        "--variant",
        type=int,
        choices=(1, 2),
        default=2,
        help="1 builds from weak left pairs, 2 from filters (default)",
    )
    sub.choices["roundtrip"].add_argument(
        "--direction",
        choices=("auto", "lattice", "diagram"),
        default="auto",
        help=(
            "lattice: rebuild then take its filter lattice; diagram: take "
            "the filter lattice then rebuild; auto picks by structure"
        ),
    )
    sub.choices["enumerate"].add_argument(
        "--out", help="directory for one file per diagram"
    )
    sub.choices["render"].add_argument("--format", choices=("dot",), default="dot")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if "file" in args:
            with _collector_paused():
                held = args.fn(parse(_read(args.file)), args)
        else:
            held = args.fn(args)
    except (ValueError, OSError, ShareFailed) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return 2 if held is False else 0


if __name__ == "__main__":
    sys.exit(main())
