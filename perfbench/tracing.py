"""The traced run: one span per package call, kept in memory until the end.

Spans are recorded from outside the package.  The pipelines in
`workloads` call the public functions through the tracer, and for the
calls the package makes internally (the label codec, and the stages of
compile_system) the tracer swaps a recording wrapper into the calling
module's namespace for the length of the run.  Every lru_cache of the
package is cleared before each pipeline starts, so each starts cold.

The suite has fixed sizes, so its counters repeat exactly for a seed.
After the traced pass the wd_feedback, catalog verification and cofree
parts run again untraced; the tracing overhead is the traced total of
those parts minus the untraced total.

The curry/uncurry round trips of the algebra_mix workload are not in
the suite: some of them fail on the package's order-blind lru_cache
keys, and the suite runs only operations that pass their oracles.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import polydyn.algebra
import polydyn.catalog
import polydyn.comonoid
import polydyn.core
import polydyn.dynamics
import polydyn.wiring
from polydyn.catalog import monoid_tables
from polydyn.core import Lens

import inputs
import workloads as W
from workloads import Tally, direct

MODULES = (
    polydyn.core,
    polydyn.algebra,
    polydyn.comonoid,
    polydyn.catalog,
    polydyn.dynamics,
    polydyn.wiring,
)

# (module, attribute, span name): package-internal calls to record.
INTERNAL = (
    (polydyn.wiring, "compile_wiring", "wiring.compile_wiring"),
    (polydyn.wiring, "compile_machines", "wiring.compile_machines"),
    (polydyn.wiring, "contractible", "comonoid.contractible"),
) + tuple(
    (m, fn, f"core.{fn}")
    for m in (polydyn.algebra, polydyn.comonoid, polydyn.dynamics, polydyn.wiring)
    for fn in ("split_fn", "split_pair")
    if hasattr(m, fn)
)
CODEC = ("core.split_fn", "core.split_pair")

# per-layer metric -> span whose self time it reports
SPAN_METRICS = {
    "wiring.parse_s": "wiring.parse",
    "wiring.validate_s": "wiring.validate",
    "wiring.compile_wiring_s": "wiring.compile_wiring",
    "wiring.compile_machines_s": "wiring.compile_machines",
    "wiring.compile_system_s": "wiring.compile_system",
    "comonoid.contractible_s": "comonoid.contractible",
    "core.lens_validate_s": "core.Lens",
    "dynamics.run_open_s": "dynamics.run_open",
    "core.split_fn_s": "core.split_fn",
    "core.split_pair_s": "core.split_pair",
    "catalog.monoid_search_s": "catalog.monoid_tables",
    "catalog.multi_object_s": "catalog.generate_categories",
    "comonoid.check_category_s": "comonoid.check_category",
    "comonoid.category_to_comonoid_s": "comonoid.category_to_comonoid",
    "comonoid.check_laws_s": "comonoid.check_laws",
    "comonoid.comonoid_to_category_s": "comonoid.comonoid_to_category",
    "comonoid.cat_isomorphic_s": "comonoid.cat_isomorphic",
    "comonoid.cofree_s": "comonoid.cofree_truncation",
}
COUNT_METRICS = (
    "wiring.inner_positions",
    "comonoid.comult_cod_positions",
    "dynamics.steps",
    "core.labels_decoded",
    "core.label_bytes",
    "catalog.monoids",
    "catalog.categories",
    "comonoid.cofree_depth",
    "comonoid.cofree_positions",
    "comonoid.cofree_label_bytes",
)
CACHE_METRICS = (
    "core.cache_hits",
    "core.cache_misses",
    "algebra.cache_hits",
    "algebra.cache_misses",
)
TRACE_METRICS = ("trace.spans", "trace.overhead_s", "trace.overhead_share")


class Tracer:
    """Spans as [name, start, end, parent index]; the `call` hook of workloads."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def __call__(self, name, fn, *args):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def wrapper(self, name, fn):
        if name in CODEC:
            def traced(label):
                self.counts["core.labels_decoded"] += 1
                self.counts["core.label_bytes"] += len(label)
                return self(name, fn, label)
        elif name == "wiring.compile_wiring":
            def traced(*args):
                lens = self(name, fn, *args)
                self.counts["wiring.inner_positions"] += lens.dom.num_positions()
                return lens
        else:
            def traced(*args):
                return self(name, fn, *args)
        return traced

    @contextmanager
    def internal_spans(self):
        saved = [(m, attr, getattr(m, attr)) for m, attr, _ in INTERNAL]
        try:
            for m, attr, name in INTERNAL:
                setattr(m, attr, self.wrapper(name, getattr(m, attr)))
            yield
        finally:
            for m, attr, fn in saved:
                setattr(m, attr, fn)

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out


class Caches:
    """Clears every lru_cache in the package, keeping hit and miss totals."""

    def __init__(self):
        self.totals = Counter()

    def clear(self) -> None:
        for m in MODULES:
            short = m.__name__.rsplit(".", 1)[-1]
            hits, misses = W.cache_totals(m)
            self.totals[f"{short}.cache_hits"] += hits
            self.totals[f"{short}.cache_misses"] += misses
            for fn in W.lru_caches(m):
                fn.cache_clear()


def wd_part(seed, sizes, tally, call, counts) -> None:
    fb = W.wd_setup(seed, sizes, call)
    W.wd_check_setup(fb, sizes, tally)
    counts["comonoid.comult_cod_positions"] += fb.system.state.comult.cod.num_positions()
    for lens in (fb.system.dynamics, fb.system.state.comult):
        rebuilt = call("core.Lens", Lens, lens.dom, lens.cod, lens.on_pos, lens.on_dir)
        tally.check(
            rebuilt.on_pos == lens.on_pos and rebuilt.on_dir == lens.on_dir,
            "a compiled lens changed when rebuilt",
        )
    state = inputs.feedback_start(fb.tables)
    for k in range(sizes.trace_chunks):
        chunk = inputs.feedback_inputs(seed, k, sizes.chunk)
        _, state = W.wd_run(fb, state, chunk, tally, call)
        counts["dynamics.steps"] += len(chunk)


def cofree_part(sizes, tally, call, counts) -> None:
    cofree = W.cofree_ladder(sizes, tally, call)
    counts["comonoid.cofree_depth"] += cofree["depth"]
    counts["comonoid.cofree_positions"] += cofree["positions"]
    counts["comonoid.cofree_label_bytes"] += cofree["label_bytes"]


def _wall(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def run_traced(seed: int, sizes=W.FULL) -> tuple:
    """Returns (per-layer metrics as name -> (value, unit), tally)."""
    tracer = Tracer()
    caches = Caches()
    tally = Tally()
    counts = tracer.counts
    traced = {}
    with tracer.internal_spans():
        caches.clear()
        traced["wd"] = _wall(wd_part, seed, sizes, tally, tracer, counts)
        caches.clear()
        for n in range(1, sizes.catalog[1] + 1):
            counts["catalog.monoids"] += len(tracer("catalog.monoid_tables", monoid_tables, n))
        cats, _ = W.catalog_generate(sizes, tally, tracer)
        counts["catalog.categories"] += len(cats)
        traced["verify"] = _wall(W.catalog_verify, cats, seed, tally, tracer)
        caches.clear()
        traced["cofree"] = _wall(cofree_part, sizes, tally, tracer, counts)
    caches.clear()
    cache_counts = dict(caches.totals)

    # The same parts untraced, each from cold caches, for the overhead.
    untraced_tally = Tally()
    untraced = {"wd": _wall(wd_part, seed, sizes, untraced_tally, direct, Counter())}
    caches.clear()
    untraced["verify"] = _wall(W.catalog_verify, cats, seed, untraced_tally, direct)
    caches.clear()
    untraced["cofree"] = _wall(cofree_part, sizes, untraced_tally, direct, Counter())
    caches.clear()

    self_times = tracer.self_times()
    metrics = {name: (self_times[span], "s") for name, span in SPAN_METRICS.items()}
    for name in COUNT_METRICS:
        metrics[name] = (counts[name], "count")
    for name in CACHE_METRICS:
        metrics[name] = (cache_counts[name], "count")
    overhead = sum(traced.values()) - sum(untraced.values())
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / sum(untraced.values()), "ratio")
    return metrics, tally
