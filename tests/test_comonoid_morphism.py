"""check_comonoid_morphism against the composed-lens reference.

The reference builds both sides of each square as lenses, through
carrier∘carrier and d∘d, and compares them pointwise.  The check under
test reads the squares from the comonoids' tables; its reports must be
the reference's, records and order included, lawless comonoids too.
"""

import random
import time
import tracemalloc

from conftest import all_lenses, random_lens
from polydyn.algebra import compose_map
from polydyn.catalog import generate_categories
from polydyn.comonoid import (
    Comonoid,
    category_to_comonoid,
    check_comonoid_morphism,
    contractible,
)
from polydyn.core import FinSet, Lens, lens_compose, lens_id, make_poly


def _lens_differences(law, left, right):
    """Pointwise comparison of two parallel lenses, one record per mismatch."""
    out = []
    for i in left.dom.position_labels:
        if left.on_pos[i] != right.on_pos[i]:
            out.append(
                {
                    "law": law,
                    "position": i,
                    "left": left.on_pos[i],
                    "right": right.on_pos[i],
                }
            )
            continue
        for d, v in left.on_dir[i].items():
            w = right.on_dir[i][d]
            if v != w:
                out.append(
                    {"law": law, "position": i, "direction": d, "left": v, "right": w}
                )
    return out


def composed_lens_check(phi, c, d):
    """The morphism squares as composed lenses: ε_D·φ = ε_C and δ_D·φ = (φ∘φ)·δ_C."""
    violations = _lens_differences("counit_square", lens_compose(d.counit, phi), c.counit)
    violations += _lens_differences(
        "comult_square",
        lens_compose(d.comult, phi),
        lens_compose(compose_map(phi, phi), c.comult),
    )
    return {"ok": not violations, "violations": violations}


def _copy(c, base=None, codomain=None, composite=None):
    """c rebuilt from fresh copies of its tables, some entries replaced."""
    return Comonoid._from_tables(
        c.carrier,
        dict(c.identity),
        {**{i: dict(t) for i, t in c.codomain.items()}, **(codomain or {})},
        {**{i: dict(t) for i, t in c.composite.items()}, **(composite or {})},
        {**c.base, **(base or {})},
    )


def _redrawn_composite(rng, c):
    """A copy of c with one composite entry changed, or None if none can be."""
    cells = [
        (i, key)
        for i in c.carrier.position_labels
        if len(c.carrier.directions(i)) > 1
        for key in c.composite[i]
    ]
    if not cells:
        return None
    i, key = rng.choice(cells)
    table = dict(c.composite[i])
    table[key] = rng.choice([e for e in c.carrier.directions(i).elements if e != table[key]])
    return _copy(c, composite={i: table})


def _moved_base(rng, c):
    """A copy of c whose base at one position is another position, with
    codomain and composite tables drawn at random over the new base."""
    labels = c.carrier.position_labels
    if len(labels) < 2:
        return None
    i, b = rng.sample(labels, 2)
    here = c.carrier.directions(i).elements
    codomain = {g: rng.choice(labels) for g in c.carrier.directions(b).elements}
    composite = {
        (g, h): rng.choice(here)
        for g, j in codomain.items()
        for h in c.carrier.directions(j).elements
    }
    return _copy(c, base={i: b}, codomain={i: codomain}, composite={i: composite})


def _reordered(phi):
    """phi with its domain's positions listed in reverse order."""
    dom = make_poly(
        (i, phi.dom.directions(i).elements) for i in reversed(phi.dom.position_labels)
    )
    return Lens(dom, phi.cod, phi.on_pos, phi.on_dir)


def test_table_squares_equal_the_composed_lens_reports():
    rng = random.Random(25)
    lawful = [category_to_comonoid(k) for k in generate_categories(2, 3)]
    redrawn = [v for v in (_redrawn_composite(rng, c) for c in lawful) if v is not None]
    moved = [v for v in (_moved_base(rng, c) for c in lawful) if v is not None]
    assert redrawn and moved
    variants = redrawn + moved
    pairs = [(c, d) for c in lawful for d in lawful]
    pairs += [(v, d) for v in variants for d in lawful]
    pairs += [(c, v) for c in lawful for v in variants]
    # "reordered" counts the lenses whose report a reordered domain reorders
    seen = {"counit": 0, "position": 0, "direction": 0, "ok": 0, "reordered": 0}
    for c, d in pairs:
        for phi in all_lenses(c.carrier, d.carrier):
            got = check_comonoid_morphism(phi, c, d)
            assert got == composed_lens_check(phi, c, d)
            seen["ok"] += got["ok"]
            for v in got["violations"]:
                if v["law"] == "counit_square":
                    seen["counit"] += 1
                else:
                    seen["direction" if "direction" in v else "position"] += 1
            if c.carrier.num_positions() > 1:
                again = check_comonoid_morphism(_reordered(phi), c, d)
                assert again == composed_lens_check(_reordered(phi), c, d)
                seen["reordered"] += again != got
    assert all(seen.values()), seen


def test_direction_lists_in_another_order_give_the_same_morphism():
    # polynomials are equal whatever order a position lists its directions
    # in, but those orders reach the labels of c∘c and d∘d: the composed
    # lenses report this identity as breaking the comult square when its
    # codomain is flipped, and raise when its domain is
    c = contractible(FinSet(("a", "b")))
    flipped = make_poly((i, ("b", "a")) for i in ("a", "b"))
    ident = lens_id(c.carrier)
    for dom, cod in ((c.carrier, flipped), (flipped, c.carrier)):
        lens = Lens(dom, cod, ident.on_pos, ident.on_dir)
        assert check_comonoid_morphism(lens, c, c) == {"ok": True, "violations": []}


def test_identity_on_seven_states_is_checked_without_building_a_lens():
    # carrier∘carrier of 7 states has 5,764,801 positions, above poly_compose's limit
    c = contractible(FinSet(tuple(f"s{k}" for k in range(7))))
    assert check_comonoid_morphism(lens_id(c.carrier), c, c) == {"ok": True, "violations": []}
    assert c._comult is None and c._counit is None


def test_squares_are_fast_and_flat_on_large_carriers():
    six = contractible(FinSet(tuple(f"s{k}" for k in range(6))))
    hundred = contractible(FinSet(tuple(f"s{k}" for k in range(100))))
    phi = random_lens(random.Random(7), hundred.carrier, hundred.carrier)
    for lens, c in ((lens_id(six.carrier), six), (phi, hundred)):
        start = time.perf_counter()
        report = check_comonoid_morphism(lens, c, c)
        assert time.perf_counter() - start < 0.1
        tracemalloc.start()
        try:
            check_comonoid_morphism(lens, c, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak
    assert report["violations"] and not report["ok"]
