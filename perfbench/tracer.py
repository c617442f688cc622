"""Outside-in tracing of one boxcount CLI invocation.

Run as ``python perfbench/tracer.py OUT.json <cli arguments...>`` from the
repository root with ``PYTHONPATH=src``.  Before the CLI starts, probes
replace public functions of each module at the module attribute where their
callers look them up (``fock.apply_op``, ``_kernels.mul_terms``,
``formulas.macmahon``, ...).  The program itself is not changed.

Spans (name, start, end, parent) are kept in memory and written to OUT.json
when the invocation ends.  Spans of functions called thousands of times per
operation are aggregated by (name, parent name); functions called once per
box or per brick are counted but not timed.  A span's self time is its
duration minus the part of it that its children cover.

A probe whose target is missing (renamed or removed by a later change) is
skipped: the metrics that need it are reported as absent.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# Per-layer metrics, in reporting order: (name, unit).
LAYER_METRICS = [
    ("kernels.mul_terms.calls", "count"),
    ("kernels.mul_terms.s", "s"),
    ("kernels.mul_terms.pairs", "count"),
    ("kernels.scale_accumulate.calls", "count"),
    ("kernels.scale_accumulate.s", "s"),
    ("kernels.scale_accumulate.terms_in", "count"),
    ("series.macmahon.calls", "count"),
    ("series.macmahon.s", "s"),
    ("series.inverse.calls", "count"),
    ("series.inverse.s", "s"),
    ("series.pow.calls", "count"),
    ("series.pow.s", "s"),
    ("series.to_json.s", "s"),
    ("series.to_json.bytes", "bytes"),
    ("formulas.closed.s", "s"),
    ("formulas.dt.s", "s"),
    ("young.interlacing_below.calls", "count"),
    ("young.interlacing_below.s", "s"),
    ("young.interlacing_above.calls", "count"),
    ("young.interlacing_above.s", "s"),
    ("young.partitions_up_to.calls", "count"),
    ("enum3d.piles", "count"),
    ("enum3d.enumerate_s", "s"),
    ("enum3d.colour_s", "s"),
    ("enum3d.chain_cache.hits", "count"),
    ("enum3d.chain_cache.misses", "count"),
    ("colouring.colour_index.calls", "count"),
    ("pyramid.piles", "count"),
    ("pyramid.enumerate_s", "s"),
    ("pyramid.colour_index.calls", "count"),
    ("pyramid.piles_per_s", "1/s"),
    ("dtsign.sign_of.calls", "count"),
    ("dtsign.sign_of.s", "s"),
    ("fock.apply_op.calls", "count"),
    ("fock.apply_op.s", "s"),
    ("fock.live_partitions.max", "count"),
    ("fock.amp_terms.max", "count"),
    ("fock.amp_terms.sum", "count"),
    ("fock.partner_cache.misses", "count"),
    ("fock.useful_terms_ratio", "ratio"),
    ("cli.emit.s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead", "ratio"),
]

# Probes: (module, attribute path, span name, kind).  Kinds:
#   span   timed, one record per call
#   hot    timed, aggregated by (name, parent name)
#   gen    a generator; each next() is a hot span and each item is counted
#   count  counted only (called once per box or brick)
PROBES = [
    ("_kernels", "mul_terms", "kernels.mul_terms", "hot"),
    ("_kernels", "scale_accumulate", "kernels.scale_accumulate", "hot"),
    # both MacMahon products, where the closed forms look them up
    ("formulas", "macmahon", "series.macmahon", "span"),
    ("formulas", "macmahon_tilde", "series.macmahon", "span"),
    ("series", "Series.inverse", "series.inverse", "span"),
    ("series", "Series.__pow__", "series.pow", "span"),
    ("series", "Series.to_json", "series.to_json", "span"),
    ("formulas", "closed_orbifold", "formulas.closed", "span"),
    ("formulas", "closed_pyramid", "formulas.closed", "span"),
    ("formulas", "dt_orbifold", "formulas.dt", "span"),
    ("formulas", "dt_resolution", "formulas.dt", "span"),
    ("formulas", "dt_resolution_paired", "formulas.dt", "span"),
    ("young", "interlacing_below", "young.interlacing_below", "hot"),
    ("young", "interlacing_above", "young.interlacing_above", "hot"),
    ("young", "partitions_up_to", "young.partitions_up_to", "count"),
    ("enum3d", "enumerate_diagrams", "enum3d.enumerate", "gen"),
    ("enum3d", "coloured_series", "enum3d.colour", "span"),
    ("colouring", "colour_index", "colouring.colour_index", "count"),
    ("pyramid", "enumerate_pyramids", "pyramid.enumerate", "gen"),
    ("pyramid", "colour_index", "pyramid.colour_index", "count"),
    ("dtsign", "sign_of", "dtsign.sign_of", "hot"),
    ("fock", "apply_op", "fock.apply_op", "span"),
    ("cli", "_emit", "cli.emit", "span"),
]

# lru_cache statistics read when the invocation ends: (module, attribute, name)
CACHES = [
    ("enum3d", "_descending_chains", "enum3d.chain_cache"),
    ("fock", "_partners_above", "fock.partner_cache"),
    ("fock", "_partners_below", "fock.partner_cache"),
]


class _Frame:
    __slots__ = ("id", "name", "start", "parent", "owner", "child_s", "foreign")

    def __init__(self, id, name, start, parent, owner):
        self.id = id
        self.name = name
        self.start = start
        self.parent = parent
        self.owner = owner
        self.child_s = 0.0
        self.foreign = None


class _Thread:
    """Per-thread span stack, counters and hot aggregates."""

    def __init__(self, ident):
        self.ident = ident
        self.stack = []
        self.counts = defaultdict(int)
        self.maxima = {}
        self.hot = {}


class Tracer:
    """Spans and counters for one process, merged over its threads."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._ids = itertools.count(1)
        self.spans = []
        self.found = set()
        self.main = self.state()

    def state(self):
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _Thread(threading.get_ident())
            self._threads.append(st)
            return st

    def open(self, name):
        st = self.state()
        if st.stack:
            parent = st.stack[-1]
        else:
            # a worker thread's outermost span belongs to the span the main
            # thread is blocked in (the pool's submitter)
            main = self.main.stack
            parent = main[-1] if st is not self.main and main else None
        frame = _Frame(next(self._ids), name, perf_counter(), parent, st)
        st.stack.append(frame)
        return frame

    def close(self, frame, hot=False):
        end = perf_counter()
        st = frame.owner
        st.stack.pop()
        dur = end - frame.start
        covered = frame.child_s
        if frame.foreign:
            covered += _union_length(frame.foreign)
        self_s = dur - covered
        parent = frame.parent
        if parent is not None:
            if parent.owner is st:
                parent.child_s += dur
            else:
                if parent.foreign is None:
                    parent.foreign = []
                parent.foreign.append((frame.start, end))
        pname = parent.name if parent is not None else None
        if hot:
            agg = st.hot.get((frame.name, pname))
            if agg is None:
                agg = st.hot[(frame.name, pname)] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_s
        else:
            self.spans.append(
                (frame.id, frame.name, st.ident, frame.start, end,
                 parent.id if parent is not None else None, pname, self_s)
            )

    def count(self, name, n=1):
        self.state().counts[name] += n

    def maximum(self, name, value):
        maxima = self.state().maxima
        if value > maxima.get(name, value - 1):
            maxima[name] = value

    def raw(self):
        """Additive totals per span name and counter, merged over threads."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        counts = defaultdict(int)
        maxima = {}
        hot = []
        for st in self._threads:
            for (name, pname), (n, total, own) in st.hot.items():
                calls[name] += n
                incl[name] += total
                self_s[name] += own
                hot.append((name, pname, n, total, own))
            for name, n in st.counts.items():
                counts[name] += n
            for name, v in st.maxima.items():
                maxima[name] = max(v, maxima.get(name, v))
        for _id, name, _t, start, end, _pid, _pname, own in self.spans:
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += own
        return {
            "found": sorted(self.found),
            "calls": dict(calls),
            "incl": dict(incl),
            "self": dict(self_s),
            "counts": dict(counts),
            "max": maxima,
        }, hot


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _size(obj):
    try:
        return len(obj)
    except TypeError:
        return 0


# -- probe wrappers -----------------------------------------------------------


def _span_probe(tracer, fn, name, hot):
    def probe(*args, **kwargs):
        frame = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame, hot)

    return probe


def _count_probe(tracer, fn, name):
    def probe(*args, **kwargs):
        tracer.state().counts[name] += 1
        return fn(*args, **kwargs)

    return probe


def _gen_probe(tracer, fn, name):
    items = name + ".items"

    def probe(*args, **kwargs):
        it = fn(*args, **kwargs)
        try:
            while True:
                frame = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(frame, hot=True)
                tracer.count(items)
                yield item
        finally:
            it.close()

    return probe


def _mul_terms_probe(tracer, fn, name):
    timed = _span_probe(tracer, fn, name, hot=True)

    def probe(a, b, *rest):
        tracer.count(name + ".pairs", _size(a) * _size(b))
        return timed(a, b, *rest)

    return probe


def _scale_accumulate_probe(tracer, fn, name):
    timed = _span_probe(tracer, fn, name, hot=True)

    def probe(dst, src, *rest):
        tracer.count(name + ".terms_in", _size(src))
        return timed(dst, src, *rest)

    return probe


def _to_json_probe(tracer, fn, name):
    timed = _span_probe(tracer, fn, name, hot=False)

    def probe(self, *args, **kwargs):
        text = timed(self, *args, **kwargs)
        tracer.count(name + ".bytes", _size(text))
        tracer.count(name + ".terms", _size(self))
        return text

    return probe


def _apply_op_probe(tracer, fn, name):
    timed = _span_probe(tracer, fn, name, hot=False)

    def probe(*args, **kwargs):
        state = timed(*args, **kwargs)
        amps = getattr(state, "amps", None)
        if isinstance(amps, dict):
            terms = sum(map(len, amps.values()))
            tracer.maximum("fock.live_partitions.max", len(amps))
            tracer.maximum("fock.amp_terms.max", terms)
            tracer.count("fock.amp_terms.sum", terms)
        return state

    return probe


SPECIAL = {
    "kernels.mul_terms": _mul_terms_probe,
    "kernels.scale_accumulate": _scale_accumulate_probe,
    "series.to_json": _to_json_probe,
    "fock.apply_op": _apply_op_probe,
}


def _resolve(module, path):
    """(owner object, attribute name) for a dotted path, or None if missing."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, parts[-1], None)):
        return None
    return owner, parts[-1]


def install(tracer):
    """Wrap every probe target that exists; return the targets not found."""
    missing = []
    for modname, path, name, kind in PROBES:
        try:
            module = importlib.import_module(f"boxcount.{modname}")
        except ImportError:
            module = None
        target = _resolve(module, path) if module is not None else None
        if target is None:
            missing.append(f"{modname}.{path}")
            continue
        owner, attr = target
        fn = getattr(owner, attr)
        if name in SPECIAL:
            probe = SPECIAL[name](tracer, fn, name)
        elif kind == "gen":
            probe = _gen_probe(tracer, fn, name)
        elif kind == "count":
            probe = _count_probe(tracer, fn, name)
        else:
            probe = _span_probe(tracer, fn, name, hot=kind == "hot")
        setattr(owner, attr, probe)
        tracer.found.add(name)
    return missing


def read_caches(tracer):
    """Count the hits and misses of the callers' caches that exist."""
    for modname, attr, name in CACHES:
        try:
            module = importlib.import_module(f"boxcount.{modname}")
        except ImportError:
            continue
        info = getattr(getattr(module, attr, None), "cache_info", None)
        if info is None:
            continue
        stats = info()
        tracer.count(name + ".hits", stats.hits)
        tracer.count(name + ".misses", stats.misses)
        tracer.found.add(name)


# -- metrics ------------------------------------------------------------------


def merge(raws):
    """Sum per-operation raw totals into one (maxima take the maximum)."""
    out = {"found": set(), "calls": defaultdict(int), "incl": defaultdict(float),
           "self": defaultdict(float), "counts": defaultdict(int), "max": {}}
    for raw in raws:
        out["found"].update(raw["found"])
        for key in ("calls", "incl", "self", "counts"):
            for name, v in raw[key].items():
                out[key][name] += v
        for name, v in raw["max"].items():
            out["max"][name] = max(v, out["max"].get(name, v))
    return out


def layer_values(raw):
    """Per-layer metric values from merged raw totals; absent probes omitted.

    ``cli.output_bytes`` and ``trace.overhead`` are measured by the runner,
    not inside the traced process, and are not produced here.
    """
    found = raw["found"]
    calls, incl, own, counts, maxima = (
        raw["calls"], raw["incl"], raw["self"], raw["counts"], raw["max"]
    )
    out = {}

    def timed(probe, metric, what=("calls", "s")):
        if probe not in found:
            return
        if "calls" in what:
            out[f"{metric}.calls"] = calls.get(probe, 0)
        if "s" in what:
            out[f"{metric}.s"] = incl.get(probe, 0.0)

    timed("kernels.mul_terms", "kernels.mul_terms")
    if "kernels.mul_terms" in found:
        out["kernels.mul_terms.pairs"] = counts.get("kernels.mul_terms.pairs", 0)
    timed("kernels.scale_accumulate", "kernels.scale_accumulate")
    if "kernels.scale_accumulate" in found:
        out["kernels.scale_accumulate.terms_in"] = counts.get("kernels.scale_accumulate.terms_in", 0)
    timed("series.macmahon", "series.macmahon")
    timed("series.inverse", "series.inverse")
    timed("series.pow", "series.pow")
    if "series.to_json" in found:
        out["series.to_json.s"] = incl.get("series.to_json", 0.0)
        out["series.to_json.bytes"] = counts.get("series.to_json.bytes", 0)
    timed("formulas.closed", "formulas.closed", ("s",))
    timed("formulas.dt", "formulas.dt", ("s",))
    timed("young.interlacing_below", "young.interlacing_below")
    timed("young.interlacing_above", "young.interlacing_above")
    if "young.partitions_up_to" in found:
        out["young.partitions_up_to.calls"] = counts.get("young.partitions_up_to", 0)
    if "enum3d.enumerate" in found:
        out["enum3d.piles"] = counts.get("enum3d.enumerate.items", 0)
        out["enum3d.enumerate_s"] = own.get("enum3d.enumerate", 0.0)
    if "enum3d.colour" in found:
        out["enum3d.colour_s"] = own.get("enum3d.colour", 0.0)
    if "enum3d.chain_cache" in found:
        out["enum3d.chain_cache.hits"] = counts.get("enum3d.chain_cache.hits", 0)
        out["enum3d.chain_cache.misses"] = counts.get("enum3d.chain_cache.misses", 0)
    if "colouring.colour_index" in found:
        out["colouring.colour_index.calls"] = counts.get("colouring.colour_index", 0)
    if "pyramid.enumerate" in found:
        piles = counts.get("pyramid.enumerate.items", 0)
        seconds = own.get("pyramid.enumerate", 0.0)
        out["pyramid.piles"] = piles
        out["pyramid.enumerate_s"] = seconds
        if seconds > 0:
            out["pyramid.piles_per_s"] = piles / seconds
    if "pyramid.colour_index" in found:
        out["pyramid.colour_index.calls"] = counts.get("pyramid.colour_index", 0)
    timed("dtsign.sign_of", "dtsign.sign_of")
    if "fock.apply_op" in found:
        timed("fock.apply_op", "fock.apply_op")
        out["fock.live_partitions.max"] = maxima.get("fock.live_partitions.max", 0)
        out["fock.amp_terms.max"] = maxima.get("fock.amp_terms.max", 0)
        amp_sum = counts.get("fock.amp_terms.sum", 0)
        out["fock.amp_terms.sum"] = amp_sum
        if amp_sum and "fock.output_terms" in counts:
            out["fock.useful_terms_ratio"] = counts["fock.output_terms"] / amp_sum
    if "fock.partner_cache" in found:
        out["fock.partner_cache.misses"] = counts.get("fock.partner_cache.misses", 0)
    if "cli.emit" in found:
        out["cli.emit.s"] = incl.get("cli.emit", 0.0)
    return out


# -- traced invocation ----------------------------------------------------------


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    # Let each worker thread run until it blocks, so threads never compute
    # the same cache entry at once and every count repeats exactly.
    sys.setswitchinterval(1000.0)
    tracer = Tracer()
    missing = install(tracer)
    from boxcount import cli

    root = tracer.open("cli.main")
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(root)
        sys.stdout.flush()
        read_caches(tracer)
        raw, hot = tracer.raw()
        if raw["calls"].get("fock.apply_op"):
            raw["counts"]["fock.output_terms"] = raw["counts"].get("series.to_json.terms", 0)
        with open(out_path, "w") as fh:
            json.dump({"raw": raw, "missing": missing, "hot": hot, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
