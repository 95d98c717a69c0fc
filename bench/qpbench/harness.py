"""One workload run: set up, warm up, time complete rounds, check, report.

Load is a closed loop: a single client issues each call after the previous
one returns.  A run times whole rounds until the time spent inside calls
reaches the budget, so every run measures the same mix.  Checks run between
calls, outside the timed interval.  A traced run alternates an untraced and
a traced pass over each round; the per-layer numbers come from the traced
passes and the overhead from comparing the two.

The machines this was tuned on drift in speed by 10-30 % from one round to
the next and over minutes (other tenants share the cores), more than a run
of this length averages away.  So during the untraced passes a timer signal
every SAMPLE_S seconds times a fixed reference job: the benchmark's own
canonical form of one seeded 60-element document (pure Python in the
package's idiom, none of its code), run once untimed first so that what
the interrupted call left in the caches does not count.  Handler time is
taken out of the call it interrupted.  Each call's time is divided by the
mean reference time around it (the samples taken during it, at least NEAR
of the nearest) over REFERENCE_S, so the timed-phase metrics read as on a
machine where that job takes REFERENCE_S; the unscaled values and the
median factor are kept in the record.  Set-up time is scaled the same way,
by the reference samples taken before, during and after each repetition.
"""

from __future__ import annotations

import hashlib
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from . import docs
from .tracer import LAYERS, Tracer
from .workloads import WORKLOADS

SETUP_REPEATS = 3
# Seconds of warm-up calls repeated before timing starts: the first second
# or so of load runs measurably slower on the machines this was tuned on.
BURN_IN_S = 1.0
# Seconds the reference job takes at nominal speed; only the ratio matters.
REFERENCE_S = 0.0012
SAMPLE_S = 0.1
NEAR = 5

# (name, unit) of every metric, in report order.
END_TO_END = (
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_FUNCTIONS = {
    "diagram": ("validate", "from_canonical", "Diagram.init", "boundary_chains",
                "canonical_form"),
    "transform": ("enumerate_hco_filters", "lattice_from_filters_labeled",
                  "lattice_from_pairs_labeled", "to_quasiplanar", "hco_closure",
                  "pair_filter_maps", "antimatroid_of", "meet_irreducible_filters"),
    "lattice": ("lattice_tables", "require_slim_semimodular", "is_join_distributive",
                "supports", "irredundant_meet_representations"),
    "enumeration": ("verify_suite", "enumerate_quasiplanar"),
    "io": ("parse_document", "serialize", "document_of"),
    "cli": ("main",),
}
_CALLS = ("diagram.validate", "diagram.Diagram.init",
          "transform.enumerate_hco_filters", "lattice.lattice_tables")
_COUNTERS = (
    ("diagram.validate.pairs_in", "count"),
    ("transform.filters_out", "count"),
    ("lattice.table_cells", "count"),
    ("io.bytes_in", "B"),
    ("io.bytes_out", "B"),
)


def per_layer_names():
    """(name, unit) of every per-layer metric; all are per traced round."""
    out = []
    for layer, fns in _FUNCTIONS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            if name in _CALLS:
                out.append((f"{name}.calls", "count"))
            out.append((f"{name}.self_s", "s"))
            if name in ("transform.enumerate_hco_filters", "lattice.lattice_tables"):
                out.append((f"{name}.distinct_frac", "ratio"))
    out += list(_COUNTERS)
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [("trace.overhead_frac", "ratio"), ("trace.spans", "count")]
    return tuple(out)


def environment(root, seed):
    """Interpreter, machine, seed, and which code was measured."""
    commit = None
    try:
        got = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=30,
        )
        top, head = got.stdout.split()
        if got.returncode == 0 and Path(top).resolve() == Path(root).resolve():
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((Path(root) / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class _Speed:
    """Reference-job times sampled from SIGALRM while the timed phase runs."""

    def __init__(self):
        rng = random.Random(0)
        perm = list(range(1, 59))
        rng.shuffle(perm)
        sigma = docs.full(perm)
        self.text = docs.text_of(60, docs.hasse_covers(sigma), docs.left_pairs(sigma))
        self.samples = []
        self.spent = 0.0

    def sample(self):
        t = perf_counter()
        docs.canonical_of(self.text)
        u = perf_counter()
        docs.canonical_of(self.text)
        self.samples.append(perf_counter() - u)
        self.spent += perf_counter() - t
        return self.samples[-1]

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)


def _execute(op, tracer=None, speed=None):
    """Time one call; check it afterwards.  Returns (seconds, passed)."""
    span = tracer.open(tracer.intern(f"op.{op.kind}")) if tracer else None
    spent = speed.spent if speed else 0.0
    t = perf_counter()
    try:
        result = op.call()
        raised = False
    except Exception:
        raised = True
    dt = perf_counter() - t - ((speed.spent - spent) if speed else 0.0)
    if tracer:
        tracer.close(span)
    if raised:
        return dt, False
    try:
        return dt, bool(op.check(result))
    except Exception:
        return dt, False


class _Tally:
    def __init__(self, speed):
        self.speed = speed
        self.latencies = []
        self.windows = []  # reference samples [a, b) taken during each call
        self.items = []  # items each call completed: 0 when it failed
        self.busy = 0.0
        self.by_kind = {}

    def run_round(self, ops, tracer=None):
        for op in ops:
            first = len(self.speed.samples)
            dt, ok = _execute(op, tracer, self.speed)
            self.windows.append((first, len(self.speed.samples)))
            self.latencies.append(dt)
            self.items.append(op.items if ok else 0)
            self.by_kind.setdefault(op.kind, []).append(dt)
            self.busy += dt

    @property
    def failed(self):
        return self.items.count(0)

    def slowdowns(self):
        """Per call: mean reference time near it (at least NEAR samples) over REFERENCE_S."""
        samples = self.speed.samples
        if not samples:
            samples.append(self.speed.sample())
        out = []
        for a, b in self.windows:
            lo = max(0, min(a, len(samples) - NEAR))
            out.append(statistics.fmean(samples[lo:max(b, lo + NEAR)]) / REFERENCE_S)
        return out


def _quantiles(values):
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def run(workload, seed, seconds, trace, t0, root, tiny=False, spans_path=None):
    """Run one workload; returns the result record."""
    t_ready = monotonic()
    speed = _Speed()
    setups = []
    with speed:
        for _ in range(SETUP_REPEATS):
            first = len(speed.samples)
            speed.sample()
            spent = speed.spent
            t = perf_counter()
            wl = WORKLOADS[workload](seed, tiny)
            for op in wl.warmup:
                _execute(op)
            body = perf_counter() - t - (speed.spent - spent)
            speed.sample()
            slowdown = statistics.fmean(speed.samples[first:]) / REFERENCE_S
            setups.append(((t_ready - t0) + body) / slowdown)
    setup_s = statistics.median(setups)
    burn_in = perf_counter() + BURN_IN_S
    while perf_counter() < burn_in:
        for op in wl.warmup:
            _execute(op)

    plain = _Tally(speed)
    traced = _Tally(speed)  # sampling is off here: ticks would land in spans
    tracer = Tracer() if trace else None
    rounds = 0
    distinct = {}
    calls_in_rounds = {}
    while rounds == 0 or plain.busy + traced.busy < seconds:
        ops = wl.rounds[rounds % len(wl.rounds)]
        with speed:
            plain.run_round(ops)
        if tracer:
            before = list(tracer.calls)
            tracer.install()
            try:
                traced.run_round(ops, tracer)
            finally:
                tracer.uninstall()
            for name, k in tracer.new_round().items():
                nid = tracer.intern(name)
                calls = tracer.calls[nid] - (before[nid] if nid < len(before) else 0)
                distinct[name] = distinct.get(name, 0) + k
                calls_in_rounds[name] = calls_in_rounds.get(name, 0) + calls
        rounds += 1
    attempted = len(plain.latencies) + len(traced.latencies)
    failed = plain.failed + traced.failed
    record = {
        "workload": workload,
        "env": environment(root, seed),
        "seconds": seconds,
        "trace": int(bool(trace)),
        "rounds": rounds,
        "ops_per_round": len(wl.rounds[0]),
        "item": wl.item,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "samples": len(plain.latencies),
        "op_median_ms_by_kind": {
            kind: 1000 * statistics.median(v) for kind, v in sorted(plain.by_kind.items())
        },
    }
    if not tracer:
        p50, p90 = _quantiles(plain.latencies)
        raw = {
            "items_per_s": sum(plain.items) / plain.busy,
            "op_p50_ms": 1000 * p50,
            "op_p90_ms": 1000 * p90,
        }
        slow = plain.slowdowns()
        scaled = [dt / f for dt, f in zip(plain.latencies, slow)]
        p50, p90 = _quantiles(scaled)
        values = {
            "items_per_s": sum(plain.items) / sum(scaled),
            "op_p50_ms": 1000 * p50,
            "op_p90_ms": 1000 * p90,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        record["unscaled"] = raw
        record["slowdown"] = statistics.median(slow)
        record["reference_samples"] = len(speed.samples)
        return record

    per_round = 1 / rounds
    selfs = tracer.self_times()
    values = {}
    for layer, fns in _FUNCTIONS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            nid = tracer.intern(name)
            values[f"{name}.calls"] = tracer.calls[nid] * per_round
            values[f"{name}.self_s"] = selfs.get(name, 0.0) * per_round
            if name in distinct:
                calls = calls_in_rounds[name]
                values[f"{name}.distinct_frac"] = distinct[name] / calls if calls else 0.0
    for name, _ in _COUNTERS:
        values[name] = tracer.counts.get(name, 0) * per_round
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in selfs.items():
        layer = name.partition(".")[0]
        if layer in layer_self:
            layer_self[layer] += s
    for layer, s in layer_self.items():
        values[f"{layer}.self_s"] = s * per_round
    values["trace.overhead_frac"] = traced.busy / plain.busy - 1
    values["trace.spans"] = len(tracer.span_name) * per_round
    record["metrics"] = {n: {"value": values[n], "unit": u} for n, u in per_layer_names()}

    total = traced.busy
    functions = {
        name: s / total for name, s in selfs.items()
        if name.partition(".")[0] in LAYERS
    }
    top = max(functions, key=functions.get)
    record["shares"] = {
        "dominant_function": top,
        "functions": dict(sorted(functions.items(), key=lambda kv: -kv[1])),
        "layers": {layer: s / total for layer, s in layer_self.items()},
    }
    if spans_path:
        tracer.write(spans_path)
        record["spans_file"] = Path(spans_path).relative_to(root).as_posix()
    return record
