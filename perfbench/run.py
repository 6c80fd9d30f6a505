"""Benchmark of the polydyn package on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Each workload is a batch job in one process, driven in a closed loop by
one caller:

  wd_feedback   .wd text -> parse -> validate -> compile_system, then
                run_open over seeded streams of outer inputs
  catalog_cold  generate_categories(3, 6) from cold caches, then every
                category through the category/comonoid round trip
  algebra_mix   the cofree_truncation ladder up to its size cap, then
                + x (x) o and both closures on triples from a seeded pool,
                with hom_iter lenses sent through curry/uncurry

BENCHMARK.json lists the first two.  algebra_mix runs and checks itself
the same way, but it is not a workload there, because some of its
round trips fail: the package's lru_cache keys ignore position and
direction order, so a curry/uncurry result depends on which equal but
reordered polynomial reached a cache first.  Its JSON line says
"correct": false with the failures counted, until that is fixed.

With --trace 0 the last line of output is a JSON object whose metrics
are the end-to-end ones, each the same kind of figure on every
workload:

  setup_s           time before the first measured operation (import,
                    then compile or pool), median over fresh processes
  throughput_per_s  steps/s (wd_feedback), categories verified/s
                    (catalog_cold), lens round trips/s (algebra_mix)
  peak_rss_mb       peak resident memory of the workload process

Times and rates are in reference seconds (see clock.py).  The lines before the
JSON give each figure in the workload's own terms with its wall-clock
value, the wall time of the one-call jobs (catalog_s on catalog_cold,
cofree_s on algebra_mix), size counters and every oracle failure.
With --trace 1 the run is the traced suite of tracing.py and its
metrics are the per-layer ones.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set-ups measured in fresh child processes; their median is setup_s.
SETUP_RUNS = {"wd_feedback": 6, "catalog_cold": 12, "algebra_mix": 12}
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}


def environment() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def setup(workload: str, seed: int, sizes):
    """The work before the first measured operation, after the imports."""
    import workloads as W

    if workload == "wd_feedback":
        return W.wd_setup(seed, sizes)
    if workload == "algebra_mix":
        return W.algebra_setup(seed, sizes)
    return None


def child_setup_s(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def units(seconds: float, per_s: float) -> int:
    """Timed units in a run of the given length; at least three for a median."""
    return max(3, round(seconds * per_s))


def measure_wd_feedback(fb, seed, seconds, sizes, tally) -> tuple:
    import inputs
    import workloads as W

    W.wd_check_setup(fb, sizes, tally)
    state = inputs.feedback_start(fb.tables)
    speed = clock.Speed()
    rates, rates_wall = [], []
    for k in range(units(seconds, sizes.chunks_per_s)):
        chunk = inputs.feedback_inputs(seed, k, sizes.chunk)
        dt, state = W.wd_run(fb, state, chunk, tally)
        rates_wall.append(len(chunk) / dt)
        rates.append(len(chunk) / speed.scale(dt))
    rate = statistics.median(rates)
    report = [
        ("steps_per_s", rate, statistics.median(rates_wall), "1/s",
         f"run_open over one chained stream, median of {len(rates)} calls of {sizes.chunk} inputs"),
        ("steps", sizes.chunk * len(rates), None, "count", "inputs fed and checked against the oracle"),
        ("states", len(fb.system.state.carrier.position_labels), None, "count", "system states"),
        ("comult_cod_positions", fb.system.state.comult.cod.num_positions(), None, "count",
         "positions of carrier∘carrier materialised"),
    ]
    return rate, report


def measure_catalog_cold(_, seed, seconds, sizes, tally) -> tuple:
    import workloads as W

    cats, catalog_s = W.catalog_generate(sizes, tally)
    speed = clock.Speed()
    verify = verify_wall = 0.0
    for start in range(0, len(cats), sizes.verify_slice):
        dt = W.catalog_verify(cats[start:start + sizes.verify_slice], seed, tally, start=start)
        verify_wall += dt
        verify += speed.scale(dt)
    rate = len(cats) / verify
    report = [
        ("catalog_s", catalog_s, None, "s",
         f"wall, generate_categories{sizes.catalog} from cold caches, one call"),
        ("verify_per_s", rate, len(cats) / verify_wall, "1/s",
         "categories through check, comonoid, laws, back, isomorphic"),
        ("categories", len(cats), None, "count", "categories generated"),
        ("morphisms", sum(len(k.morphisms) for k in cats), None, "count",
         "morphisms over all categories"),
    ]
    return rate, report


def measure_algebra_mix(pool, seed, seconds, sizes, tally) -> tuple:
    import inputs
    import workloads as W
    from polydyn import algebra, core

    cofree = W.cofree_ladder(sizes, tally)
    speed = clock.Speed()
    rates, rates_wall = [], []
    lenses = 0
    batches = units(seconds, sizes.batches_per_s)
    for batch in range(batches):
        dt = 0.0
        n = 0
        for triple in inputs.algebra_triples(seed, sizes.per_signature, batch, sizes.triples_per_batch):
            elapsed, sent = W.algebra_triple(pool, triple, sizes, tally)
            dt += elapsed
            n += sent
        lenses += n
        ref = speed.scale(dt)
        if n:
            rates.append(n / ref)
            rates_wall.append(n / dt)
    rate = statistics.median(rates)
    a_hits, a_misses = W.cache_totals(algebra)
    c_hits, c_misses = W.cache_totals(core)
    report = [
        ("cofree_s", cofree["seconds"], None, "s",
         "wall, cofree_truncation ladders of y^2+1 and y^2+y+1 up to the size cap"),
        ("lenses_per_s", rate, statistics.median(rates_wall), "1/s",
         f"round trips per second of triple work, median of {len(rates)} batches "
         f"of {sizes.triples_per_batch} triples"),
        ("lenses", lenses, None, "count",
         f"lenses sent through curry/uncurry over {batches * sizes.triples_per_batch} triples"),
        ("reordered_share", inputs.reordered_share(pool.specs), None, "ratio",
         "pool members equal to an earlier one but ordered differently"),
        ("cofree_depth", cofree["depth"], None, "count", "deepest depths reached, summed"),
        ("cofree_positions", cofree["positions"], None, "count", "positions of the deepest stages"),
        ("cofree_label_bytes", cofree["label_bytes"], None, "count",
         "label characters of those stages"),
        ("algebra_cache_hits", a_hits, None, "count", "lru_cache hits in polydyn.algebra"),
        ("algebra_cache_misses", a_misses, None, "count", ""),
        ("core_cache_hits", c_hits, None, "count", "lru_cache hits in polydyn.core"),
        ("core_cache_misses", c_misses, None, "count", ""),
    ]
    return rate, report


MEASURES = {
    "wd_feedback": measure_wd_feedback,
    "catalog_cold": measure_catalog_cold,
    "algebra_mix": measure_algebra_mix,
}


def print_line(name, value, wall, unit, note="") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    wall = "" if wall is None else f"wall {wall:.6g}"
    print(f"  {name:<32} {shown:>12} {unit:<6} {wall:<17} {note}".rstrip())


def main(argv, t0: float, touch: float) -> int:
    """t0: the start of set-up, before any import; touch: touch_memory() just before."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MEASURES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "polydyn" / "__init__.py").is_file():
        print(f"error: no polydyn package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        import tracing

        metrics, tally = tracing.run_traced(args.seed)
        print(f"polydyn traced suite  seed={args.seed}  (workload {args.workload})")
        print(f"  environment: {json.dumps(environment())}")
        for name, (value, unit) in metrics.items():
            print_line(name, value, None, unit)
        return finish(tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    import workloads as W

    state = setup(args.workload, args.seed, W.FULL)
    setup_wall = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": clock.scale_setup(setup_wall, touch, clock.touch_memory())}))
        return 0
    # Set-ups in fresh processes, half before and half after the
    # measurement, so that their median spans the whole run.
    children = SETUP_RUNS[args.workload]
    setups = [child_setup_s(args.workload, args.seed) for _ in range(children // 2)]
    tally = W.Tally()
    rate, report = MEASURES[args.workload](state, args.seed, args.seconds, W.FULL, tally)
    setups += [child_setup_s(args.workload, args.seed) for _ in range(children - children // 2)]
    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    print(f"polydyn benchmark  workload={args.workload}  seed={args.seed}  seconds={args.seconds:g}")
    print(f"  environment: {json.dumps(environment())}")
    print_line("setup_s", e2e["setup_s"], setup_wall, "s",
               f"median of {len(setups)} set-ups, each in a fresh process; wall is this process's")
    for row in report:
        print_line(*row)
    print_line("peak_rss_mb", e2e["peak_rss_mb"], None, "MB", "this process")
    return finish(tally, {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()})


def finish(tally, metrics) -> int:
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print_line("fail_share", share, None, "ratio",
               f"{tally.failed} failed of {tally.attempted} attempted")
    for example in tally.examples:
        print(f"  failure: {example[:300]}")
    print(json.dumps({
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    touched = clock.touch_memory()
    sys.exit(main(sys.argv[1:], time.perf_counter(), touched))
