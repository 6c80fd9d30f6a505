"""Seeded input generators and the independent oracles that check them.

Nothing here imports polydyn: the generators build plain text and plain
tuples, and the oracles recompute expected results from those same plain
data, so a defect in the package cannot hide behind its own answer.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# wd_feedback: the feedback loop of demos/control.wd with seeded tables.

A_VALUES = ("a0", "a1")
B_VALUES = ("b0", "b1")
C_VALUES = ("c0", "c1")


@dataclass(frozen=True)
class FeedbackTables:
    """Controller: readout q -> b, update (q, c) -> q.

    Plant: readout p -> c, update (p, a, b) -> p.
    """

    ctrl_states: tuple
    plant_states: tuple
    ctrl_init: str
    plant_init: str
    ctrl_readout: dict
    plant_readout: dict
    ctrl_update: dict
    plant_update: dict


def _covering(rng: random.Random, domain, values) -> dict:
    """A seeded map domain -> values that hits every value."""
    if len(domain) < len(values):
        raise ValueError("domain too small to read out every value")
    image = list(values) + [rng.choice(values) for _ in range(len(domain) - len(values))]
    rng.shuffle(image)
    return dict(zip(domain, image))


def feedback_tables(seed: int, ctrl_states: int = 3, plant_states: int = 2) -> FeedbackTables:
    """Seeded tables whose closed loop can reach every state from every state.

    Draws until the transition graph over (q, p) under the two outer
    inputs is strongly connected, so every seed exercises every state.
    """
    rng = random.Random(f"wd_feedback/{seed}")
    qs = tuple(f"q{i}" for i in range(ctrl_states))
    ps = tuple(f"p{i}" for i in range(plant_states))
    for _ in range(100000):
        t = FeedbackTables(
            ctrl_states=qs,
            plant_states=ps,
            ctrl_init=rng.choice(qs),
            plant_init=rng.choice(ps),
            ctrl_readout=_covering(rng, qs, B_VALUES),
            plant_readout=_covering(rng, ps, C_VALUES),
            ctrl_update={(q, c): rng.choice(qs) for q in qs for c in C_VALUES},
            plant_update={
                (p, a, b): rng.choice(ps) for p in ps for a in A_VALUES for b in B_VALUES
            },
        )
        if _strongly_connected(t):
            return t
    raise ValueError("no strongly connected feedback tables found")


def _strongly_connected(t: FeedbackTables) -> bool:
    states = [(q, p) for q in t.ctrl_states for p in t.plant_states]

    def successors(state):
        q, p = state
        c = t.plant_readout[p]
        return {(t.ctrl_update[q, c], t.plant_update[p, a, t.ctrl_readout[q]]) for a in A_VALUES}

    for root in states:
        seen = {root}
        todo = [root]
        while todo:
            for nxt in successors(todo.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        if len(seen) != len(states):
            return False
    return True


def feedback_text(t: FeedbackTables) -> str:
    """The .wd program: Controller feeds Plant, Plant feeds back and out."""
    lines = [
        f"set A = {{{', '.join(A_VALUES)}}}",
        f"set B = {{{', '.join(B_VALUES)}}}",
        f"set C = {{{', '.join(C_VALUES)}}}",
        "box Controller { out b : B; in c : C; }",
        "box Plant { out c : C; in a : A; in b : B; }",
        "outer System { out c : C; in a : A; }",
        "connect Plant.c -> System.c",
        "connect Plant.c -> Controller.c",
        "connect System.a -> Plant.a",
        "connect Controller.b -> Plant.b",
        "machine Controller {",
        f"  states = {{{', '.join(t.ctrl_states)}}};",
        f"  init = {t.ctrl_init};",
    ]
    lines += [f"  readout {q} = (b = {t.ctrl_readout[q]})" for q in t.ctrl_states]
    lines += [
        f"  update {q} (c = {c}) = {t.ctrl_update[q, c]}"
        for q in t.ctrl_states
        for c in C_VALUES
    ]
    lines += [
        "}",
        "machine Plant {",
        f"  states = {{{', '.join(t.plant_states)}}};",
        f"  init = {t.plant_init};",
    ]
    lines += [f"  readout {p} = (c = {t.plant_readout[p]})" for p in t.plant_states]
    lines += [
        f"  update {p} (a = {a}, b = {b}) = {t.plant_update[p, a, b]}"
        for p in t.plant_states
        for a in A_VALUES
        for b in B_VALUES
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def feedback_inputs(seed: int, chunk: int, length: int) -> list:
    rng = random.Random(f"wd_feedback/{seed}/inputs/{chunk}")
    return [rng.choice(A_VALUES) for _ in range(length)]


def feedback_start(t: FeedbackTables) -> tuple:
    return (t.ctrl_init, t.plant_init)


def state_label(state: tuple) -> str:
    return "(" + ",".join(state) + ")"


def feedback_oracle(t: FeedbackTables, start: tuple, inputs) -> tuple:
    """Step the generator's own tables along the connections.

    Returns (steps, final state) in run_open's shape: one
    (state, output, input) per input, then (state, output, None).
    """
    q, p = start
    steps = []
    for a in inputs:
        c = t.plant_readout[p]
        steps.append((state_label((q, p)), c, a))
        q, p = t.ctrl_update[q, c], t.plant_update[p, a, t.ctrl_readout[q]]
    steps.append((state_label((q, p)), t.plant_readout[p], None))
    return steps, (q, p)


def contractible_comult_positions(states: int) -> int:
    """|S·y^S ∘ S·y^S| = |S| · |S|^|S|."""
    return states * states**states


# ---------------------------------------------------------------------------
# catalog_cold: monoid class counts and seeded relabelings of categories.

MONOID_CLASSES = {1: 1, 2: 2, 3: 7, 4: 35, 5: 228, 6: 2237}  # OEIS A058129


def relabel_plan(seed: int, index: int, objects, morphisms) -> tuple:
    """Fresh, shuffled object and morphism names for one category.

    Returns (object rename, morphism rename, object order, morphism order).
    """
    rng = random.Random(f"catalog_cold/{seed}/{index}")
    obj_order = list(objects)
    rng.shuffle(obj_order)
    mor_order = list(morphisms)
    rng.shuffle(mor_order)
    obj_name = {o: f"X{k}" for k, o in enumerate(obj_order)}
    mor_name = {m: f"f{k}" for k, m in enumerate(mor_order)}
    return obj_name, mor_name, obj_order, mor_order


# ---------------------------------------------------------------------------
# algebra_mix: a pool of small polynomials in drawn order.

POSITION_ALPHABET = ("a", "b", "c")
DIRECTION_ALPHABET = ("x", "y", "z")


# Direction counts per position, in position order: every shape with one or
# two positions of at most two directions.
SIGNATURES = tuple((m,) for m in range(3)) + tuple(itertools.product(range(3), repeat=2))


def algebra_pool(seed: int, per_signature: int) -> list:
    """Polynomials as ((position, (direction, ...)), ...) in drawn order.

    Each signature gets the same number of members; the seed draws their
    labels and orders from small alphabets, so equal polynomials recur,
    some of them ordered differently.
    """
    rng = random.Random(f"algebra_mix/{seed}/pool")
    pool = []
    for sig in SIGNATURES:
        for _ in range(per_signature):
            positions = rng.sample(POSITION_ALPHABET, len(sig))
            pool.append(
                tuple((i, tuple(rng.sample(DIRECTION_ALPHABET, m))) for i, m in zip(positions, sig))
            )
    return pool


_SCHEDULE = list(itertools.product(range(len(SIGNATURES)), repeat=3))
random.Random("algebra_mix/schedule").shuffle(_SCHEDULE)


def algebra_triples(seed: int, per_signature: int, batch: int, count: int) -> list:
    """Pool indices (p, q, r) for one batch.

    The signatures follow one fixed shuffled schedule for every seed, so a
    batch does the same shape of work whatever the seed; the seed picks
    the members.
    """
    rng = random.Random(f"algebra_mix/{seed}/triples/{batch}")
    out = []
    for k in range(batch * count, (batch + 1) * count):
        sigs = _SCHEDULE[k % len(_SCHEDULE)]
        out.append(tuple(s * per_signature + rng.randrange(per_signature) for s in sigs))
    return out


def spec_key(spec) -> frozenset:
    """What FinPoly equality sees: labels and direction sets, not order."""
    return frozenset((i, frozenset(ds)) for i, ds in spec)


def reordered_share(pool) -> float:
    """Share of pool members equal to an earlier one but ordered differently."""
    first = {}
    reordered = 0
    for spec in pool:
        seen = first.setdefault(spec_key(spec), spec)
        if seen != spec:
            reordered += 1
    return reordered / len(pool)


def shape(spec) -> Counter:
    """The multiset of direction counts: a polynomial up to isomorphism."""
    return Counter(len(ds) for _, ds in spec)


def shape_product(p: Counter, q: Counter) -> Counter:
    out = Counter()
    for (m, a), (n, b) in itertools.product(p.items(), q.items()):
        out[m + n] += a * b
    return out


def shape_tensor(p: Counter, q: Counter) -> Counter:
    out = Counter()
    for (m, a), (n, b) in itertools.product(p.items(), q.items()):
        out[m * n] += a * b
    return out


def shape_compose(p: Counter, q: Counter) -> Counter:
    """p∘q: per p-position with m directions, pick a q-position per direction."""
    q_degrees = list(q.elements())
    out = Counter()
    for m, a in p.items():
        for picks in itertools.product(q_degrees, repeat=m):
            out[sum(picks)] += a
    return out


def shape_product_many(factors) -> Counter:
    out = Counter({0: 1})
    for f in factors:
        out = shape_product(out, f)
    return out


def shape_cartesian_closure(r: Counter, q_spec) -> Counter:
    """r^q = Π over q-positions j of r∘(|q_j| + y)."""
    return shape_product_many(
        shape_compose(r, Counter({0: len(ds), 1: 1})) for _, ds in q_spec
    )


def shape_dirichlet_closure(q_spec, r: Counter) -> Counter:
    """[q, r] = Π over q-positions j of r∘(|q_j| y)."""
    return shape_product_many(
        shape_compose(r, Counter({1: len(ds)})) for _, ds in q_spec
    )


def shape_of_poly(poly) -> Counter:
    return Counter(len(poly.directions(i)) for i in poly.position_labels)


def lens_count(dom: Counter, cod: Counter) -> int:
    """Π over dom positions of Σ over cod positions of |dom_i|^|cod_j|."""
    total = 1
    for m, a in dom.items():
        total *= sum(m**n * b for n, b in cod.items()) ** a
    return total


# ---------------------------------------------------------------------------
# cofree ladder: stage sizes by arithmetic.

COFREE_CAP = 20000
COFREE_POLYS = {
    "y^2+1": (("s", ("l", "r")), ("e", ())),
    "y^2+y+1": (("s", ("l", "r")), ("u", ("n",)), ("e", ())),
}


def cofree_stage_sizes(spec, cap: int = COFREE_CAP) -> list:
    """|c_0(1)| .. |c_k(1)| for the deepest k whose stages stay within cap.

    |c_0(1)| = 1 and |c_{k+1}(1)| = Σ_i |c_k(1)|^|p_i|.
    """
    sizes = [1]
    while True:
        nxt = sum(sizes[-1] ** len(ds) for _, ds in spec)
        if nxt > cap:
            return sizes
        sizes.append(nxt)
