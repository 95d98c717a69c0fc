"""Reading, writing, and rendering diagrams.

The interchange format is a small JSON object: ``n`` (element count),
``covers`` and ``left`` (arrays of two-element arrays), and an optional
``name``.  Serialization is canonical: fixed key order, sorted pair lists,
compact separators, so equal diagrams produce byte-equal documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from operator import floordiv, mod

from .diagram import _diagram_of, _order, _shown, validate
from .errors import DiagramError, MalformedDocument

_KEYS = ("n", "covers", "left", "name")

# json.dumps builds a new encoder on every call given separators; one will do
_COMPACT = json.JSONEncoder(separators=(",", ":"))


@dataclass(frozen=True)
class DiagramDocument:
    """The raw content of an interchange document, unvalidated."""

    n: int
    covers: tuple[tuple[int, int], ...]
    left: tuple[tuple[int, int], ...] = ()
    name: str | None = None


def _parse_pairs(value, key, n):
    if not isinstance(value, list):
        raise MalformedDocument(f"'{key}' must be an array", f"/{key}")
    out = []
    # json.loads makes exact lists and ints, so exact type tests suffice
    # and refuse a bool; the first entry that fails them is examined again
    for entry in value:
        if type(entry) is list and len(entry) == 2:
            a, b = entry
            if type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n:
                out.append((a, b))
                continue
        _refuse_entry(entry, f"/{key}/{len(out)}", n)
    return tuple(out)


def _refuse_entry(entry, at, n):
    """Raise the error for a pair-list entry ``_parse_pairs`` did not take."""
    if not isinstance(entry, list) or len(entry) != 2:
        raise MalformedDocument("entry must be a two-element array", at)
    for j, v in enumerate(entry):
        if type(v) is not int:
            raise MalformedDocument("pair component must be an integer", f"{at}/{j}")
        if not 0 <= v < n:
            raise MalformedDocument(
                f"element {_shown(v)} is out of range for n={_shown(n)}", f"{at}/{j}"
            )


def parse_document(text):
    """Decode JSON text into a :class:`DiagramDocument`, or explain why not.

    Raises :class:`MalformedDocument` with a JSON-pointer-style location
    for the first offending entry.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        # a decode error, an integer too long to convert, or too deep nesting
        raise MalformedDocument(f"not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise MalformedDocument("document must be a JSON object")
    for key in data:
        if key not in _KEYS:
            # a key comes from outside: a long one is named by its start,
            # and the location escapes it as repr does, to keep one line
            shown, cut = repr(key[:40]), "..." if len(key) > 40 else ""
            more = f" ({len(key)} characters)" if cut else ""
            raise MalformedDocument(
                f"unknown key {shown}{cut}{more}", f"/{shown[1:-1]}{cut}"
            )
    if "n" not in data:
        raise MalformedDocument("missing key 'n'", "/n")
    n = data["n"]
    if type(n) is not int:
        raise MalformedDocument("'n' must be an integer", "/n")
    if n < 1:
        raise MalformedDocument("'n' must be positive", "/n")
    if "covers" not in data:
        raise MalformedDocument("missing key 'covers'", "/covers")
    covers = _parse_pairs(data["covers"], "covers", n)
    left = _parse_pairs(data.get("left", []), "left", n)
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise MalformedDocument("'name' must be a string", "/name")
    return DiagramDocument(n, covers, left, name)


def to_diagram(doc):
    """Validate a document, pairs included: one built by hand is unchecked."""
    return validate(doc.n, doc.covers, doc.left)


def parse(text):
    """Parse and validate in one step, checking each pair once.

    A validation error's ``location`` goes in front of its message.
    """
    doc = parse_document(text)
    try:
        return _diagram_of(doc.n, doc.covers, doc.left, _order(doc.n, doc.covers))
    except DiagramError as e:
        if e.location:
            raise type(e)(f"{e.location}: {e}", e.location) from None
        raise


def document_of(d, name=None):
    """The canonical document for a diagram: sorted covers, sorted left."""
    return DiagramDocument(d.n, d.cover_pairs(), d.left_pairs(), name)


def _pairs_text(codes, n):
    """The JSON array of the pairs of the sorted codes x·n + y, compact."""
    k = len(codes)
    flat = [0] * (2 * k)
    flat[::2] = map(floordiv, codes, repeat(n))
    flat[1::2] = map(mod, codes, repeat(n))
    return "[" + ("[%d,%d]," * k)[:-1] % tuple(flat) + "]"


def serialize(doc, pretty=False):
    """Render a document (or diagram) as canonical JSON text.

    Key order is fixed, pair lists are sorted, and the compact form uses
    no whitespace, so equality of diagrams means equality of bytes.  A
    diagram is written straight from the sorted pair codes of its two
    walks, with the bytes the ``json`` module would write; a document,
    whose pairs are unchecked and sorted here, and pretty output go
    through ``json``.
    """
    if not isinstance(doc, DiagramDocument):
        if not pretty:
            n = doc.n
            return '{"n":%d,"covers":%s,"left":%s}' % (
                n, _pairs_text(doc._cover_codes(), n), _pairs_text(doc._left_codes(), n)
            )
        doc = document_of(doc)
    # json writes a tuple as an array
    data = {"n": doc.n, "covers": sorted(doc.covers), "left": sorted(doc.left)}
    if doc.name is not None:
        data["name"] = doc.name
    if pretty:
        return json.dumps(data, indent=2) + "\n"
    return _COMPACT.encode(data)


def grid_layout(d):
    """Integer drawing coordinates from the two sweep positions.

    x is the position difference, y the sum, so y strictly increases along
    every cover edge and equal-height elements spread left to right in
    sweep order.
    """
    return tuple(
        (d.lam_pos[x] - d.rho_pos[x], d.lam_pos[x] + d.rho_pos[x])
        for x in range(d.n)
    )


def render_dot(d, name=None):
    """A Graphviz document with pinned coordinates, bottom at the bottom.

    Covers point upward; render with a layout engine that honors pos
    (for example neato -n). Output is byte-deterministic.
    """
    coords = grid_layout(d)
    lines = [f"digraph {json.dumps(name or 'diagram')} {{"]
    lines.append("  rankdir=BT;")
    lines.append('  node [shape=circle, fontsize=10, width=0.3];')
    lines.append("  edge [arrowhead=none];")
    for x in range(d.n):
        cx, cy = coords[x]
        lines.append(f'  v{x} [label="{x}", pos="{cx},{cy}!"];')
    for a, b in d.cover_pairs():
        lines.append(f"  v{a} -> v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
