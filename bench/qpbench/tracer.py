"""Spans around the package's public functions, installed from outside.

Each public function of the six layers is replaced, at every module
attribute of the package that binds it, by a wrapper that records a span
(name, start, end, parent).  Nothing in the package changes on disk.
Spans stay in flat arrays while the run goes and are written out at the
end; self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("diagram", "transform", "lattice", "enumeration", "io", "cli")

# Functions whose distinct argument diagrams are counted per round.
_DISTINCT = ("transform.enumerate_hco_filters", "lattice.lattice_tables")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.calls = []
        self.counts = {}
        self.seen = {name: set() for name in _DISTINCT}
        self._bound = []

    def intern(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self.name_ids[name]

    def add(self, counter, value):
        self.counts[counter] = self.counts.get(counter, 0) + value

    # -- spans ---------------------------------------------------------------

    def open(self, nid):
        i = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name):
        nid = self.intern(name)
        before, after = self._hooks(name)
        calls, open_, close = self.calls, self.open, self.close

        if inspect.isgeneratorfunction(fn):
            # One span per resume, so the consumer's work between items is
            # not charged to the generator.
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                gen = fn(*args, **kwargs)
                while True:
                    i = open_(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(i)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                if before:
                    before(args, kwargs)
                i = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(i)
                if after:
                    after(result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _hooks(self, name):
        add = self.add
        if name == "diagram.validate":
            def before(args, kwargs):
                for pairs in (*args[1:3], *kwargs.values()):
                    if hasattr(pairs, "__len__"):
                        add("diagram.validate.pairs_in", len(pairs))
            return before, None
        if name in _DISTINCT:
            seen = self.seen[name]

            def before(args, kwargs):
                seen.add(args[0])
                if name == "lattice.lattice_tables":
                    add("lattice.table_cells", args[0].n ** 2)

            def after(result):
                if name == "transform.enumerate_hco_filters":
                    add("transform.filters_out", len(result.filters))

            return before, after
        if name == "io.parse_document":
            return lambda args, kwargs: add("io.bytes_in", len(args[0])), None
        if name == "io.serialize":
            return None, lambda result: add("io.bytes_out", len(result))
        return None, None

    # -- installing ------------------------------------------------------------

    def install(self):
        """Wrap every public function of the layers wherever it is bound."""
        import quasiplanar
        import quasiplanar.cli

        targets = {}
        for fn in [getattr(quasiplanar, n) for n in quasiplanar.__all__] + [
            quasiplanar.cli.main
        ]:
            if inspect.isfunction(fn):
                layer = fn.__module__.rpartition(".")[2]
                if layer in LAYERS:
                    targets[id(fn)] = self.wrap(fn, f"{layer}.{fn.__name__}")
        modules = [m for k, m in sys.modules.items()
                   if k == "quasiplanar" or k.startswith("quasiplanar.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and inspect.isfunction(value):
                    self._bind(mod, attr, targets[id(value)])
        diagram = quasiplanar.Diagram
        self._bind(diagram, "__post_init__",
                   self.wrap(diagram.__post_init__, "diagram.Diagram.init"))

    def _bind(self, owner, attr, wrapper):
        self._bound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._bound):
            setattr(owner, attr, original)
        self._bound.clear()

    def new_round(self):
        """Forget the distinct-argument sets: distinct_frac is per round."""
        distinct = {name: len(s) for name, s in self.seen.items()}
        for s in self.seen.values():
            s.clear()
        return distinct

    # -- reading ---------------------------------------------------------------

    def self_times(self):
        """Self seconds per span name."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = [0.0] * len(self.names)
        for i in range(n):
            out[self.span_name[i]] += end[i] - start[i] - child[i]
        return {name: out[k] for k, name in enumerate(self.names)}

    def write(self, path):
        """All spans as gzip'd TSV: id, parent, name, start, end (seconds)."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("id\tparent\tname\tstart\tend\n")
            names, t0 = self.names, self.start[0] if self.start else 0.0
            for i in range(len(self.span_name)):
                f.write(
                    f"{i}\t{self.parent[i]}\t{names[self.span_name[i]]}\t"
                    f"{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}\n"
                )
