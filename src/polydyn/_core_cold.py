"""The cold half of polydyn.core, compiled on first use.

The representables, evaluation of a polynomial at a set, the canonical
form of a polynomial, the vertical, cartesian and epi tests on lenses,
pullbacks and coequalizers of finite sets, and JSON serialization.  No
pipeline of the package calls them, so polydyn.core loads this module
only when one of these names is first read from it; import them from
polydyn.core.
"""

from __future__ import annotations

import json
from typing import Mapping

from polydyn.core import (
    UNIT_SET,
    FinPoly,
    FinSet,
    Lens,
    SetFn,
    _table_labels,
    make_poly,
    monomial,
    pair_label,
)


# ---------------------------------------------------------------------------
# Polynomials and lenses.


def representable(a) -> FinPoly:
    """y^A: a single position with direction set A."""
    return monomial(UNIT_SET, a)


def eval_poly(p: FinPoly, x: FinSet) -> FinSet:
    """Apply p to a finite set: pairs (position, function directions → X).

    The result has Σ_i |X|^{|p_i|} elements, each labeled
    "(i,[d:x,...])" with the table in direction order; above
    polydyn.algebra.COMPOSE_LIMIT this raises SizeLimitError before
    building anything.
    """
    from polydyn.algebra import _check_size, _compose_positions

    _check_size("eval_poly", _compose_positions(p, len(x)))
    out = []
    for i, dirs in p._dirs.items():
        out.extend(_table_labels(i, dirs.elements, x.elements))
    return FinSet(out)


def canonical_form(p: FinPoly) -> FinPoly:
    """Canonical representative of p's isomorphism class.

    Positions are sorted by direction count (descending) then original
    label, and renamed "0", "1", ...; direction sets become "0".."n-1".
    Two polynomials are isomorphic iff their canonical forms are equal.
    """
    order = sorted(p._dirs.items(), key=lambda pair: (-len(pair[1]), pair[0]))
    return FinPoly(
        (str(k), FinSet(str(j) for j in range(len(dirs)))) for k, (_, dirs) in enumerate(order)
    )


def is_vertical(f: Lens) -> bool:
    """True when on_pos is the identity on a shared position set."""
    if set(f.dom.position_labels) != set(f.cod.position_labels):
        return False
    return all(f.on_pos[i] == i for i in f.dom.position_labels)


def is_cartesian(f: Lens) -> bool:
    """True when every on_dir component is a bijection."""
    for i in f.dom.position_labels:
        comp = f.on_dir[i]
        if len(set(comp.values())) != len(comp):
            return False
        if len(comp) != len(f.dom.directions(i)):
            return False
    return True


def is_epi(f: Lens) -> bool:
    """True when f is an epimorphism.

    Concretely: on_pos is surjective, and over each cod position the
    direction components are jointly injective (distinct cod directions
    stay distinct in the tuple of pullbacks across the fiber).
    """
    fibers: dict[str, list[str]] = {j: [] for j in f.cod.position_labels}
    for i in f.dom.position_labels:
        fibers[f.on_pos[i]].append(i)
    for j, fiber in fibers.items():
        if not fiber:
            return False
        seen = set()
        for d in f.cod.directions(j).elements:
            sig = tuple(f.on_dir[i][d] for i in fiber)
            if sig in seen:
                return False
            seen.add(sig)
    return True


# ---------------------------------------------------------------------------
# Set-level limits and colimits used by the polynomial ones.


def pullback_set(f: SetFn, g: SetFn) -> tuple[FinSet, SetFn, SetFn]:
    """Matching pairs {(a,b) : f(a)=g(b)} with the two projections."""
    if f.cod != g.cod:
        raise ValueError("pullback needs a shared codomain")
    elems = []
    p1 = {}
    p2 = {}
    for a in f.dom.elements:
        for b in g.dom.elements:
            if f.mapping[a] == g.mapping[b]:
                e = pair_label(a, b)
                elems.append(e)
                p1[e] = a
                p2[e] = b
    apex = FinSet(elems)
    return apex, SetFn(apex, f.dom, p1), SetFn(apex, g.dom, p2)


def coequalizer_set(f: SetFn, g: SetFn) -> tuple[FinSet, SetFn]:
    """Quotient of cod by the equivalence closure of f(x) ~ g(x)."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("coequalizer needs parallel functions")
    parent = {e: e for e in f.cod.elements}
    rank = dict.fromkeys(f.cod.elements, 0)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1

    for x in f.dom.elements:
        union(f.mapping[x], g.mapping[x])
    # canonical representative: earliest member in cod order
    rep: dict[str, str] = {}
    for e in f.cod.elements:
        r = find(e)
        if r not in rep:
            rep[r] = e
    quot_elems = []
    seen = set()
    clsmap = {}
    for e in f.cod.elements:
        r = rep[find(e)]
        clsmap[e] = r
        if r not in seen:
            seen.add(r)
            quot_elems.append(r)
    quot = FinSet(quot_elems)
    return quot, SetFn(f.cod, quot, clsmap)


# ---------------------------------------------------------------------------
# JSON serialization.


def _json_node(node, kind: str):
    """node when it is a JSON object; otherwise a ValueError naming the
    JSON kind, as for a missing key."""
    if not isinstance(node, Mapping):
        raise ValueError(f"expected an object in {kind} JSON, got {type(node).__name__}")
    return node


def _json_array(node, kind: str):
    """node when it is a JSON array; otherwise a ValueError naming the
    JSON kind."""
    if not isinstance(node, (list, tuple)):
        raise ValueError(f"expected an array in {kind} JSON, got {type(node).__name__}")
    return node


def _json_nodes(node, kind: str):
    """node when it is a JSON array of objects; otherwise a ValueError
    naming the JSON kind."""
    for entry in _json_array(node, kind):
        _json_node(entry, kind)
    return node


def finset_to_json(a: FinSet) -> dict:
    return {"label": a.label, "elements": list(a.elements)}


def finset_from_json(data: dict) -> FinSet:
    try:
        data = _json_node(data, "finite set")
        elements = _json_array(data["elements"], "finite set")
    except KeyError as exc:
        raise ValueError(f"missing key in finite set JSON: {exc}") from exc
    return FinSet(tuple(elements), data.get("label", ""))


def setfn_to_json(f: SetFn) -> dict:
    return {
        "dom": finset_to_json(f.dom),
        "cod": finset_to_json(f.cod),
        "mapping": dict(f.mapping),
    }


def setfn_from_json(data: dict) -> SetFn:
    try:
        data = _json_node(data, "function")
        dom, cod, mapping = data["dom"], data["cod"], data["mapping"]
        _json_node(mapping, "function")
    except KeyError as exc:
        raise ValueError(f"missing key in function JSON: {exc}") from exc
    return SetFn(finset_from_json(dom), finset_from_json(cod), mapping)


def poly_to_json(p: FinPoly) -> dict:
    return {
        "positions": [
            {"label": label, "dirs": list(dirs.elements)} for label, dirs in p._dirs.items()
        ]
    }


def poly_from_json(data: dict) -> FinPoly:
    try:
        data = _json_node(data, "polynomial")
        positions = [
            (entry["label"], _json_array(entry["dirs"], "polynomial"))
            for entry in _json_nodes(data["positions"], "polynomial")
        ]
    except KeyError as exc:
        raise ValueError(f"missing key in polynomial JSON: {exc}") from exc
    return make_poly(positions)


def lens_to_json(f: Lens) -> dict:
    return {
        "dom": poly_to_json(f.dom),
        "cod": poly_to_json(f.cod),
        "onPos": dict(f.on_pos),
        "onDir": {i: dict(comp) for i, comp in f.on_dir.items()},
    }


def lens_from_json(data: dict) -> Lens:
    try:
        data = _json_node(data, "lens")
        dom, cod, on_pos, on_dir = data["dom"], data["cod"], data["onPos"], data["onDir"]
        _json_node(on_pos, "lens")
        for comp in _json_node(on_dir, "lens").values():
            _json_node(comp, "lens")
    except KeyError as exc:
        raise ValueError(f"missing key in lens JSON: {exc}") from exc
    return Lens(poly_from_json(dom), poly_from_json(cod), on_pos, on_dir)


def canonical_json(data) -> str:
    """The one serialization format: sorted keys, 2-space indent, newline."""
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
