"""Shared helpers for the test suite.

The enumeration helpers here are deliberately naive: they go through the
definitions directly (all position maps, all direction tables) so they can
serve as independent oracles for the cleverer library code.
"""

import itertools
import random

from polydyn.comonoid import _direct_isomorphism
from polydyn.core import FinPoly, FinSet, Lens, lens_compose, lens_id, make_poly


def direct_isomorphism_labels(k1, k2):
    """_direct_isomorphism(k1, k2) read as label maps (objects, morphisms),
    or None when its search finds no map."""
    found = _direct_isomorphism(k1, k2)
    if found is None:
        return None
    obj, mor = found
    objects2, names2 = k2.objects.elements, k2._names
    return (
        {x: objects2[y] for x, y in zip(k1.objects.elements, obj)},
        {x: names2[y] for x, y in zip(k1._names, mor)},
    )


def all_maps(domain, codomain):
    """Every function domain -> codomain as a dict, in table order."""
    domain = list(domain)
    codomain = list(codomain)
    if not domain:
        yield {}
        return
    for values in itertools.product(codomain, repeat=len(domain)):
        yield dict(zip(domain, values))


def all_lenses(p: FinPoly, q: FinPoly):
    """Every lens p -> q, by brute force."""
    pos_labels = p.position_labels
    for on_pos_values in itertools.product(q.position_labels, repeat=len(pos_labels)):
        on_pos = dict(zip(pos_labels, on_pos_values))
        per_pos = []
        ok = True
        for i in pos_labels:
            choices = list(
                all_maps(q.directions(on_pos[i]).elements, p.directions(i).elements)
            )
            if not choices:
                ok = False
                break
            per_pos.append(choices)
        if not ok:
            continue
        for combo in itertools.product(*per_pos):
            yield Lens(p, q, on_pos, dict(zip(pos_labels, combo)))


def count_lenses(p: FinPoly, q: FinPoly) -> int:
    """Π_i Σ_j |p_i|^{|q_j|}, computed directly from the definition."""
    total = 1
    for i in p.position_labels:
        di = len(p.directions(i))
        total *= sum(di ** len(q.directions(j)) for j in q.position_labels)
    return total


def two_sided_inverse(f: Lens):
    """The inverse lens if f is an isomorphism, else None.

    Candidate inverses only exist when the forward map and every backward
    component are bijections; the candidate is then verified against the
    identity laws, so a non-None answer is a genuine isomorphism witness.
    """
    fwd = f.on_pos
    if len(set(fwd.values())) != len(f.cod.position_labels) or len(fwd) != len(
        f.cod.position_labels
    ):
        return None
    for i in f.dom.position_labels:
        comp = f.on_dir[i]
        if len(set(comp.values())) != len(f.dom.directions(i)):
            return None
    inv_pos = {v: k for k, v in fwd.items()}
    inv_dir = {}
    for j in f.cod.position_labels:
        i = inv_pos[j]
        inv_dir[j] = {v: k for k, v in f.on_dir[i].items()}
    g = Lens(f.cod, f.dom, inv_pos, inv_dir)
    if lens_compose(g, f) == lens_id(f.dom) and lens_compose(f, g) == lens_id(f.cod):
        return g
    return None


def iso_exists(p: FinPoly, q: FinPoly) -> bool:
    """Search for an isomorphism p ≅ q by brute force."""
    if p.num_positions() != q.num_positions():
        return False
    for f in all_lenses(p, q):
        if two_sided_inverse(f) is not None:
            return True
    return False


def random_poly(
    rng: random.Random,
    max_positions: int = 3,
    max_dirs: int = 3,
    min_positions: int = 0,
    labels=None,
) -> FinPoly:
    """A random polynomial with labels drawn from an awkward pool."""
    if labels is None:
        labels = ["a", "b", "c", "p|q", "(x)", "d:e", "u,v", "w\\z", "[m]"]
    n = rng.randint(min_positions, max_positions)
    pos_labels = rng.sample(labels, n)
    spec = []
    for lab in pos_labels:
        k = rng.randint(0, max_dirs)
        spec.append((lab, rng.sample(labels, k)))
    return make_poly(spec)


def random_lens(rng: random.Random, p: FinPoly, q: FinPoly):
    """A random lens p -> q, or None when none exists."""
    if q.num_positions() == 0 and p.num_positions() > 0:
        return None
    on_pos = {}
    on_dir = {}
    for i in p.position_labels:
        dom_dirs = p.directions(i).elements
        targets = [
            j for j in q.position_labels if len(q.directions(j)) == 0 or len(dom_dirs) > 0
        ]
        if not targets:
            return None
        j = rng.choice(targets)
        on_pos[i] = j
        on_dir[i] = {d: rng.choice(dom_dirs) for d in q.directions(j).elements}
    return Lens(p, q, on_pos, on_dir)


def enumerate_small_polys(max_positions: int = 2, max_dirs: int = 2):
    """All polynomials up to the given size with canonical-style labels."""
    out = []
    for n in range(max_positions + 1):
        for dir_counts in itertools.product(range(max_dirs + 1), repeat=n):
            spec = [
                (f"p{i}", [f"d{i}_{k}" for k in range(c)])
                for i, c in enumerate(dir_counts)
            ]
            out.append(make_poly(spec))
    return out
