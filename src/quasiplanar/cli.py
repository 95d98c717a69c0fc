"""Command line interface.

Results go to stdout as JSON (DOT text for render); diagnostics go to
stderr.  Exit codes: 0 success, 1 unusable input (including unmet
preconditions), 2 a verification that ran and failed, 3 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .diagram import canonical_form, canonical_relabel, similar
from .enumeration import (
    count_quasiplanar,
    enumerate_quasiplanar,
    expected_count,
    verify_suite,
)
from .io import _COMPACT, parse, render_dot, serialize
from .transform import _rebuilt, lattice_from_filters, lattice_from_pairs, to_quasiplanar


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 3 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as f:
        return f.read()


def _emit(data):
    print(_COMPACT.encode(data))


def _cmd_validate(args):
    d = parse(_read(args.file))
    print(serialize(d))
    return 0


def _cmd_canon(args):
    d = parse(_read(args.file))
    _emit({"n": d.n, "canonical": list(canonical_form(d))})
    return 0


def _cmd_alpha(args):
    d = parse(_read(args.file))
    print(serialize(canonical_relabel(to_quasiplanar(d))))
    return 0


def _cmd_beta(args):
    d = parse(_read(args.file))
    build = lattice_from_pairs if args.variant == 1 else lattice_from_filters
    print(serialize(canonical_relabel(build(d))))
    return 0


def _cmd_roundtrip(args):
    d = parse(_read(args.file))
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
    return 0 if ok else 2


def _cmd_enumerate(args):
    docs = (serialize(d) for d in enumerate_quasiplanar(args.size))
    if args.out is None:
        for text in docs:
            print(text)
        return 0
    os.makedirs(args.out, exist_ok=True)
    total = expected_count(args.size)
    width = len(str(max(total - 1, 0)))
    count = 0
    for i, text in enumerate(docs):
        name = f"q{args.size}-{i:0{width}d}.json"
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as f:
            f.write(text + "\n")
        count += 1
    _emit({"size": args.size, "count": count, "out": args.out})
    return 0


def _cmd_count(args):
    count = count_quasiplanar(args.size)
    expected = expected_count(args.size)
    _emit({"size": args.size, "count": count, "expected": expected})
    return 0 if count == expected else 2


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
    print(f"elapsed {report.elapsed:.2f}s", file=sys.stderr)
    return 0 if report.passed else 2


def _cmd_render(args):
    d = parse(_read(args.file))
    sys.stdout.write(render_dot(d))
    return 0


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

    p = sub.add_parser("validate", help="check a document and echo it canonically")
    p.add_argument("file", help="path to a JSON document, or - for stdin")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("canon", help="print size and canonical permutation")
    p.add_argument("file", help="path to a JSON document, or - for stdin")
    p.set_defaults(fn=_cmd_canon)

    p = sub.add_parser(
        "alpha",
        help="rebuild the diagram whose filter lattice the input draws",
    )
    p.add_argument("file", help="path to a JSON document, or - for stdin")
    p.set_defaults(fn=_cmd_alpha)

    p = sub.add_parser("beta", help="build the filter (or pair) lattice diagram")
    p.add_argument("file", help="path to a JSON document, or - for stdin")
    p.add_argument(
        "--variant",
        type=int,
        choices=(1, 2),
        default=2,
        help="1 builds from weak left pairs, 2 from filters (default)",
    )
    p.set_defaults(fn=_cmd_beta)

    p = sub.add_parser(
        "roundtrip",
        help="run the construction out and back, reporting similarity",
    )
    p.add_argument("file", help="path to a JSON document, or - for stdin")
    p.add_argument(
        "--direction",
        choices=("auto", "lattice", "diagram"),
        default="auto",
        help=(
            "lattice: rebuild then take its filter lattice; diagram: take "
            "the filter lattice then rebuild; auto picks by structure"
        ),
    )
    p.set_defaults(fn=_cmd_roundtrip)

    p = sub.add_parser("enumerate", help="emit every diagram of a size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", help="directory for one file per diagram")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("count", help="count diagrams of a size by enumeration")
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("verify", help="run the law suite over a whole size")
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("render", help="render a document for Graphviz")
    p.add_argument("file", help="path to a JSON document, or - for stdin")
    p.add_argument("--format", choices=("dot",), default="dot")
    p.set_defaults(fn=_cmd_render)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
