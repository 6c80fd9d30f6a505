"""The three benchmark pipelines, each split into set-up and measured parts.

Every pipeline calls the package's public functions through a `call`
hook, `call(span_name, fn, *args)`.  The plain runs pass `direct`, which
only calls; the traced run passes a tracer that records one span per
call.  Each part checks its outputs against the oracles in `inputs`
and tallies attempted and failed operations, where a raise or an oracle
mismatch counts as a failure.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from polydyn import algebra
from polydyn.catalog import generate_categories
from polydyn.comonoid import (
    FinCat,
    cat_isomorphic,
    category_to_comonoid,
    check_category,
    check_comonoid_laws,
    cofree_truncation,
    comonoid_to_category,
)
from polydyn.core import FinSet, make_poly
from polydyn.dynamics import run_open
from polydyn.wiring import compile_system, parse, validate

import inputs


def direct(_name, fn, *args):
    return fn(*args)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    examples: list = field(default_factory=list)

    def check(self, ok: bool, what: str, n: int = 1) -> bool:
        self.attempted += n
        if not ok:
            self.fail(what, n=n, attempted=False)
        return ok

    def fail(self, what: str, n: int = 1, attempted: bool = True) -> None:
        if attempted:
            self.attempted += n
        self.failed += n
        if len(self.examples) < 5:
            self.examples.append(what)


@dataclass(frozen=True)
class Sizes:
    ctrl_states: int = 3
    plant_states: int = 2
    chunk: int = 5000  # inputs per timed run_open call
    # Timed units per second of --seconds: a run does a fixed amount of
    # work, about --seconds long on the machine this was tuned on, so two
    # versions of the package are measured on identical work.
    chunks_per_s: float = 9.0
    batches_per_s: float = 15.0
    catalog: tuple = (3, 6)  # generate_categories(max_objects, max_morphisms)
    per_signature: int = 16  # algebra pool members per signature
    triples_per_batch: int = 20
    verify_slice: int = 40  # categories per timed verification unit
    hom_cap: int = 64  # lenses taken from hom_iter per triple and product
    cofree_cap: int = inputs.COFREE_CAP
    trace_chunks: int = 8  # run_open calls of `chunk` inputs in the traced run


FULL = Sizes()


# ---------------------------------------------------------------------------
# wd_feedback


@dataclass
class Feedback:
    tables: inputs.FeedbackTables
    system: object
    start: str


def wd_setup(seed: int, sizes: Sizes, call=direct) -> Feedback:
    tables = inputs.feedback_tables(seed, sizes.ctrl_states, sizes.plant_states)
    spec = call("wiring.parse", parse, inputs.feedback_text(tables))
    report = call("wiring.validate", validate, spec)
    if not report["ok"]:
        raise ValueError(f"generated spec is invalid: {report['violations'][:3]}")
    system, start = call("wiring.compile_system", compile_system, spec)
    return Feedback(tables, system, start)


def wd_check_setup(fb: Feedback, sizes: Sizes, tally: Tally) -> None:
    states = sizes.ctrl_states * sizes.plant_states
    tally.check(
        fb.start == inputs.state_label(inputs.feedback_start(fb.tables)),
        f"start state {fb.start!r}",
    )
    got = fb.system.state.comult.cod.num_positions()
    want = inputs.contractible_comult_positions(states)
    tally.check(got == want, f"carrier∘carrier has {got} positions, expected {want}")


def wd_run(fb: Feedback, state: tuple, inputs_: list, tally: Tally, call=direct) -> tuple:
    """One run_open call from `state`, checked step by step.

    Returns (seconds in run_open, final state as a (q, p) tuple).
    """
    label = inputs.state_label(state)
    t0 = time.perf_counter()
    try:
        trace = call("dynamics.run_open", run_open, fb.system, inputs_, label)
    except Exception as exc:  # counted, and the stream restarts from the oracle
        elapsed = time.perf_counter() - t0
        tally.fail(f"run_open raised {exc!r}", n=len(inputs_))
        return elapsed, inputs.feedback_oracle(fb.tables, state, inputs_)[1]
    elapsed = time.perf_counter() - t0
    want, final = inputs.feedback_oracle(fb.tables, state, inputs_)
    got = list(trace.steps)
    if len(got) != len(want):
        tally.fail(f"trace has {len(got)} steps, expected {len(want)}", n=len(inputs_))
        return elapsed, final
    bad = sum(g != w for g, w in zip(got, want))
    bad += trace.final_state != inputs.state_label(final)
    tally.attempted += len(inputs_)
    if bad:
        tally.fail(
            f"{bad} run_open steps differ from the oracle",
            n=min(bad, len(inputs_)),
            attempted=False,
        )
    return elapsed, final


# ---------------------------------------------------------------------------
# catalog_cold


def catalog_generate(sizes: Sizes, tally: Tally, call=direct) -> tuple:
    """Every category within the size bounds; returns (categories, seconds)."""
    t0 = time.perf_counter()
    cats = call("catalog.generate_categories", generate_categories, *sizes.catalog)
    elapsed = time.perf_counter() - t0
    max_objects, max_morphisms = sizes.catalog
    one_object = {}
    for k in cats:
        if len(k.objects) == 1:
            n = len(k.morphisms)
            one_object[n] = one_object.get(n, 0) + 1
    want = {
        n: c for n, c in inputs.MONOID_CLASSES.items() if n <= max_morphisms
    } if max_objects >= 1 else {}
    tally.check(one_object == want, f"monoid classes per order {one_object}, expected {want}")
    in_bounds = all(
        len(k.objects) <= max_objects and len(k.morphisms) <= max_morphisms for k in cats
    )
    tally.check(in_bounds, "a category exceeds the size bounds")
    return cats, elapsed


def relabel(k, seed: int, index: int):
    """The category k under fresh, shuffled object and morphism names."""
    obj_name, mor_name, obj_order, mor_order = inputs.relabel_plan(
        seed, index, k.objects.elements, k.morphism_labels()
    )
    compose = {}
    for f in mor_order:
        for g in mor_order:
            if k.cod_of[f] == k.dom_of[g]:
                compose[mor_name[g], mor_name[f]] = mor_name[k.compose2(g, f)]
    return FinCat(
        FinSet(tuple(obj_name[o] for o in obj_order)),
        [(mor_name[m], obj_name[k.dom_of[m]], obj_name[k.cod_of[m]]) for m in mor_order],
        {obj_name[o]: mor_name[k.identity[o]] for o in obj_order},
        compose,
    )


def catalog_verify(cats, seed: int, tally: Tally, call=direct, start: int = 0) -> float:
    """Category → comonoid → laws → category → isomorphic to the original.

    Each category is first renamed and reordered by the seed and its
    index in the catalog, `start` being the index of cats[0].  Returns
    the seconds spent in the package.
    """
    relabeled = [relabel(k, seed, start + i) for i, k in enumerate(cats)]
    elapsed = 0.0
    for i, (k, k1) in enumerate(zip(cats, relabeled), start):
        t0 = time.perf_counter()
        try:
            axioms = call("comonoid.check_category", check_category, k1)
            c = call("comonoid.category_to_comonoid", category_to_comonoid, k1)
            laws = call("comonoid.check_laws", check_comonoid_laws, c)
            k2 = call("comonoid.comonoid_to_category", comonoid_to_category, c)
            iso = call("comonoid.cat_isomorphic", cat_isomorphic, k, k2)
        except Exception as exc:  # counted; the next category is independent
            elapsed += time.perf_counter() - t0
            tally.fail(f"category {i}: {exc!r}")
            continue
        elapsed += time.perf_counter() - t0
        tally.check(
            axioms["ok"] and laws["ok"] and iso,
            f"category {i}: axioms {axioms['ok']}, laws {laws['ok']}, isomorphic {iso}",
        )
    return elapsed


# ---------------------------------------------------------------------------
# algebra_mix


@dataclass
class Pool:
    specs: list
    polys: list


def algebra_setup(seed: int, sizes: Sizes) -> Pool:
    specs = inputs.algebra_pool(seed, sizes.per_signature)
    return Pool(specs, [make_poly(s) for s in specs])


_ROUND_TRIPS = (
    ("product", algebra.poly_product, algebra.curry_cartesian, algebra.uncurry_cartesian),
    ("tensor", algebra.poly_tensor, algebra.curry_dirichlet, algebra.uncurry_dirichlet),
)


def _shape_problems(results, expected) -> list:
    return [
        name for name, poly in results.items()
        if inputs.shape_of_poly(poly) != expected[name]
    ]


def algebra_triple(pool: Pool, triple, sizes: Sizes, tally: Tally, call=direct) -> tuple:
    """+ × ⊗ ∘ and both closures, then hom_iter lenses through curry/uncurry.

    Returns (seconds in the package, lenses sent through a round trip).
    """
    qi = triple[1]
    p, q, r = (pool.polys[i] for i in triple)
    sp, sq, sr = (inputs.shape(pool.specs[i]) for i in triple)
    expected = {
        "sum": sp + sq,
        "product": inputs.shape_product(sp, sq),
        "tensor": inputs.shape_tensor(sp, sq),
        "compose": inputs.shape_compose(sp, sq),
        "cartesian_closure": inputs.shape_cartesian_closure(sr, pool.specs[qi]),
        "dirichlet_closure": inputs.shape_dirichlet_closure(pool.specs[qi], sr),
    }
    elapsed = 0.0
    lenses = 0
    t0 = time.perf_counter()
    try:
        results = {
            "sum": call("algebra.poly_ops", algebra.poly_sum, p, q),
            "product": call("algebra.poly_ops", algebra.poly_product, p, q),
            "tensor": call("algebra.poly_ops", algebra.poly_tensor, p, q),
            "compose": call("algebra.poly_ops", algebra.poly_compose, p, q),
            "cartesian_closure": call("algebra.closure", algebra.cartesian_closure, r, q),
            "dirichlet_closure": call("algebra.closure", algebra.dirichlet_closure, q, r),
        }
    except Exception as exc:  # counted; the lens round trips need these results
        tally.fail(f"triple {triple}: {exc!r}", n=len(expected))
        return time.perf_counter() - t0, 0
    elapsed += time.perf_counter() - t0
    bad = _shape_problems(results, expected)
    tally.attempted += len(expected)
    if bad:
        tally.fail(f"triple {triple}: wrong shape for {bad}", n=len(bad), attempted=False)

    for kind, dom_of, curry, uncurry in _ROUND_TRIPS:
        want = min(sizes.hom_cap, inputs.lens_count(expected[kind], sr))
        t0 = time.perf_counter()
        try:
            hom = call("algebra.hom_iter", _take, algebra.hom_iter(dom_of(p, q), r), sizes.hom_cap)
        except Exception as exc:  # counted; nothing to round-trip
            elapsed += time.perf_counter() - t0
            tally.fail(f"triple {triple}: hom_iter {kind} raised {exc!r}")
            continue
        back = []
        for f in hom:
            try:
                g = call("algebra.curry", curry, f, p, q, r)
                back.append(call("algebra.uncurry", uncurry, g, p, q, r))
            except Exception as exc:  # counted as one failed round trip
                back.append(exc)
        elapsed += time.perf_counter() - t0
        lenses += len(hom)
        tally.check(len(hom) == want, f"triple {triple}: {len(hom)} {kind} lenses, expected {want}")
        for f, f2 in zip(hom, back):
            ok = not isinstance(f2, Exception) and (
                f2.on_pos == f.on_pos and f2.on_dir == f.on_dir
            )
            tally.check(ok, f"triple {triple}: {kind} round trip of {f.on_dir} gave {_shown(f2)}")
    return elapsed, lenses


def _shown(lens_or_error) -> str:
    if isinstance(lens_or_error, Exception):
        return repr(lens_or_error)
    return str(lens_or_error.on_dir)


def _take(it, n: int) -> list:
    return list(itertools.islice(it, n))


def cofree_ladder(sizes: Sizes, tally: Tally, call=direct) -> dict:
    """cofree_truncation at depth 1, 2, ... until the size cap refuses.

    Returns the seconds spent in the package, the deepest depth reached
    and the positions and label characters of every stage at that depth.
    """
    out = {"seconds": 0.0, "depth": 0, "positions": 0, "label_bytes": 0}
    for spec in inputs.COFREE_POLYS.values():
        p = make_poly(spec)
        want = inputs.cofree_stage_sizes(spec, sizes.cofree_cap)
        deepest = [make_poly([("*", ())])]
        for depth in range(1, len(want) + 1):
            t0 = time.perf_counter()
            try:
                stages, projections = call(
                    "comonoid.cofree_truncation", cofree_truncation, p, depth, sizes.cofree_cap
                )
            except ValueError as exc:
                out["seconds"] += time.perf_counter() - t0
                tally.check(
                    depth == len(want), f"cofree of {spec} refused at depth {depth}: {exc}"
                )
                break
            out["seconds"] += time.perf_counter() - t0
            got = [s.num_positions() for s in stages]
            tally.check(
                got == want[: depth + 1] and len(projections) == depth,
                f"cofree of {spec} at depth {depth}: stage sizes {got}",
            )
            deepest = stages
        else:
            tally.fail(f"cofree of {spec} was not refused at depth {len(want)}")
        out["depth"] += len(deepest) - 1
        out["positions"] += sum(s.num_positions() for s in deepest)
        out["label_bytes"] += sum(len(i) for s in deepest for i in s.position_labels)
    return out


def lru_caches(module):
    """The lru_cache-wrapped functions defined in a module."""
    for fn in vars(module).values():
        if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == module.__name__:
            yield fn


def cache_totals(module) -> tuple:
    """(hits, misses) summed over the lru_caches defined in a module."""
    infos = [fn.cache_info() for fn in lru_caches(module)]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)
