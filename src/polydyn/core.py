"""Finite sets, functions, polynomials, and lenses.

A polynomial here is a finite coproduct of representables: a list of
positions, each carrying a finite set of directions.  A lens is a morphism
of polynomials: a forward map on positions together with a backward map on
directions over each domain position.

Everything is immutable after construction and safe to share.  Composite
constructions elsewhere in the package build structured labels out of the
labels found here; the encoding helpers at the top of this module define
that bracket syntax and its (unambiguous) decoding.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

__all__ = [
    "FinSet",
    "SetFn",
    "FinPoly",
    "Lens",
    "make_poly",
    "constant",
    "linear",
    "representable",
    "monomial",
    "ZERO",
    "ONE",
    "Y",
    "UNIT_SET",
    "eval_poly",
    "canonical_form",
    "is_monomial",
    "lens_id",
    "lens_compose",
    "is_vertical",
    "is_cartesian",
    "is_epi",
    "pullback_set",
    "coequalizer_set",
    "pair_label",
    "split_pair",
    "tag_label",
    "split_tag",
    "fn_label",
    "split_fn",
    "poly_to_json",
    "poly_from_json",
    "lens_to_json",
    "lens_from_json",
    "finset_to_json",
    "finset_from_json",
    "setfn_to_json",
    "setfn_from_json",
    "canonical_json",
    "SizeLimitError",
]


class SizeLimitError(ValueError):
    """A construction would exceed its fixed size limit.

    Raised from the predicted size, before anything is allocated.
    """

    def __init__(self, operation: str, predicted: int, limit: int):
        super().__init__(
            f"{operation} would build {predicted} positions, above the limit of {limit}"
        )
        self.operation = operation
        self.predicted = predicted
        self.limit = limit


# ---------------------------------------------------------------------------
# Structured labels.
#
# Composite polynomials need labels built from constituent labels.  Three
# shapes cover everything in the package: tuples "(a,b)", tagged values
# "tag|value", and finite function tables "[d:v,...]".  Components are
# escaped so arbitrary user labels (including ones containing the bracket
# characters) decode unambiguously.

_SPECIALS = "(),[]:|\\"
_ESCAPE_TABLE = {ord(ch): "\\" + ch for ch in _SPECIALS}


def _escape(s: str) -> str:
    return s.translate(_ESCAPE_TABLE)


def _split_top(body: str, sep: str) -> list[str]:
    """Split on unescaped separators and unescape the pieces."""
    if "\\" not in body:
        return body.split(sep)
    parts = []
    cur = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body):
                raise ValueError(f"dangling escape in label {body!r}")
            cur.append(body[i + 1])
            i += 2
        elif ch == sep:
            parts.append("".join(cur))
            cur = []
            i += 1
        else:
            cur.append(ch)
            i += 1
    parts.append("".join(cur))
    return parts


@lru_cache(maxsize=65536)
def pair_label(*parts: str) -> str:
    """Render a tuple of labels, e.g. pair_label("a", "b") == "(a,b)"."""
    return "(" + ",".join(_escape(p) for p in parts) + ")"


@lru_cache(maxsize=65536)
def split_pair(label: str) -> tuple[str, ...]:
    if not (label.startswith("(") and label.endswith(")")):
        raise ValueError(f"not a tuple label: {label!r}")
    body = label[1:-1]
    if body == "":
        return ()
    return tuple(_split_top(body, ","))


@lru_cache(maxsize=65536)
def tag_label(tag: str, value: str) -> str:
    """Render a tagged-union element, e.g. tag_label("0", "d") == "0|d"."""
    return _escape(tag) + "|" + _escape(value)


@lru_cache(maxsize=65536)
def split_tag(label: str) -> tuple[str, str]:
    if "\\" not in label:
        tag, sep, value = label.partition("|")
        if not sep:
            raise ValueError(f"not a tagged label: {label!r}")
        return tag, value
    i = 0
    while i < len(label):
        if label[i] == "\\":
            i += 2
            continue
        if label[i] == "|":
            tag = _split_top(label[:i], "\x00")[0]
            value = _split_top(label[i + 1 :], "\x00")[0]
            return tag, value
        i += 1
    raise ValueError(f"not a tagged label: {label!r}")


def fn_label(mapping: Mapping[str, str], domain_order: Sequence[str]) -> str:
    """Render a function as a table in domain order: "[d:v,e:w]"."""
    entries = []
    for d in domain_order:
        entries.append(_escape(d) + ":" + _escape(mapping[d]))
    return "[" + ",".join(entries) + "]"


def split_fn(label: str) -> dict[str, str]:
    if not (label.startswith("[") and label.endswith("]")):
        raise ValueError(f"not a function label: {label!r}")
    body = label[1:-1]
    if body == "":
        return {}
    if "\\" not in body:
        out = {}
        for item in body.split(","):
            key, colon, value = item.partition(":")
            if not colon:
                raise ValueError(f"bad entry {item!r} in function label")
            out[key] = value
        return out
    out: dict[str, str] = {}
    i = 0
    key: list[str] = []
    val: list[str] = []
    cur = key
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            cur.append(body[i + 1])
            i += 2
            continue
        if ch == ":" and cur is key:
            cur = val
        elif ch == ",":
            out["".join(key)] = "".join(val)
            key, val = [], []
            cur = key
        else:
            cur.append(ch)
        i += 1
    out["".join(key)] = "".join(val)
    return out


# ---------------------------------------------------------------------------
# Finite sets and functions.


class FinSet:
    """A finite set with ordered, distinct string elements.

    Order matters for serialization and for the deterministic label
    constructions, never for equality: two FinSets are equal when they have
    the same elements.
    """

    def __init__(self, elements: Iterable[str], label: str = ""):
        if isinstance(elements, str):
            raise TypeError("elements must be an iterable of strings, not a string")
        elems = tuple(elements)
        for e in elems:
            if not isinstance(e, str):
                raise TypeError(f"element labels must be strings, got {e!r}")
        if len(set(elems)) != len(elems):
            raise ValueError(f"duplicate element labels in {elems!r}")
        self.label = label
        self.elements = elems
        self._set = frozenset(elems)

    def __contains__(self, x: str) -> bool:
        return x in self._set

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FinSet):
            return NotImplemented
        return self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        name = f" {self.label!r}" if self.label else ""
        return f"FinSet{name}({list(self.elements)!r})"

    def require(self, x: str) -> None:
        if x not in self._set:
            raise ValueError(f"{x!r} is not an element of {self!r}")


UNIT_SET = FinSet(("*",), "1")


class SetFn:
    """A total function between finite sets, stored as a table."""

    def __init__(self, dom: FinSet, cod: FinSet, mapping: Mapping[str, str]):
        missing = [e for e in dom.elements if e not in mapping]
        if missing:
            raise ValueError(f"mapping not defined on {missing!r}")
        extra = [k for k in mapping if k not in dom]
        if extra:
            raise ValueError(f"mapping defined outside dom on {extra!r}")
        for e in dom.elements:
            if mapping[e] not in cod:
                raise ValueError(
                    f"mapping sends {e!r} to {mapping[e]!r}, not an element of cod"
                )
        self.dom = dom
        self.cod = cod
        self.mapping = {e: mapping[e] for e in dom.elements}

    @classmethod
    def identity(cls, a: FinSet) -> "SetFn":
        return cls(a, a, {e: e for e in a.elements})

    def __call__(self, x: str) -> str:
        if x not in self.dom:
            raise ValueError(f"{x!r} not in dom of {self!r}")
        return self.mapping[x]

    def after(self, other: "SetFn") -> "SetFn":
        """self ∘ other."""
        if other.cod != self.dom:
            raise ValueError("composition mismatch: cod of inner != dom of outer")
        return SetFn(
            other.dom, self.cod, {e: self.mapping[other.mapping[e]] for e in other.dom}
        )

    def is_injective(self) -> bool:
        return len(set(self.mapping.values())) == len(self.dom)

    def is_surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.cod.elements)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def inverse(self) -> "SetFn":
        if not self.is_bijective():
            raise ValueError("only bijections invert")
        return SetFn(self.cod, self.dom, {v: k for k, v in self.mapping.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetFn):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and self.mapping == other.mapping
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, tuple(sorted(self.mapping.items()))))

    def __repr__(self) -> str:
        return f"SetFn({self.mapping!r})"


# ---------------------------------------------------------------------------
# Polynomials.


class FinPoly:
    """A finite polynomial: ordered positions, each with a direction set.

    Equality is strict (same position labels, same direction sets per label);
    isomorphism in the category is tested via canonical_form instead.
    """

    def __init__(self, positions: Iterable[tuple[str, FinSet]]):
        pos = tuple((label, dirs) for label, dirs in positions)
        labels = [label for label, _ in pos]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate position labels in {labels!r}")
        for label, dirs in pos:
            if not isinstance(label, str):
                raise TypeError(f"position labels must be strings, got {label!r}")
            if not isinstance(dirs, FinSet):
                raise TypeError(f"directions at {label!r} must be a FinSet")
        self.positions = pos
        self._dirs = {label: dirs for label, dirs in pos}
        self._labels = tuple(labels)
        self._hash = hash(frozenset((label, dirs._set) for label, dirs in pos))

    @property
    def position_labels(self) -> tuple[str, ...]:
        return self._labels

    def directions(self, label: str) -> FinSet:
        if label not in self._dirs:
            raise ValueError(f"no position {label!r} in {self!r}")
        return self._dirs[label]

    def positions_set(self) -> FinSet:
        return FinSet(self.position_labels, "positions")

    def num_positions(self) -> int:
        return len(self.positions)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FinPoly):
            return NotImplemented
        if set(self._dirs) != set(other._dirs):
            return False
        return all(self._dirs[i] == other._dirs[i] for i in self._dirs)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.positions:
            return "0"
        degrees: dict[int, int] = {}
        for _, dirs in self.positions:
            degrees[len(dirs)] = degrees.get(len(dirs), 0) + 1
        terms = []
        for n in sorted(degrees, reverse=True):
            c = degrees[n]
            coeff = "" if c == 1 and n > 0 else str(c)
            if n == 0:
                terms.append(str(c))
            elif n == 1:
                terms.append(f"{coeff}y")
            else:
                terms.append(f"{coeff}y^{n}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        body = [(label, list(dirs.elements)) for label, dirs in self.positions]
        return f"FinPoly({body!r})"


def make_poly(spec: Iterable[tuple[str, Iterable[str]]]) -> FinPoly:
    """Build a polynomial from (position label, direction labels) pairs."""
    positions = []
    for label, dirs in spec:
        if isinstance(dirs, FinSet):
            positions.append((label, dirs))
        else:
            positions.append((label, FinSet(tuple(dirs))))
    return FinPoly(positions)


def _as_finset(a) -> FinSet:
    if isinstance(a, FinSet):
        return a
    return FinSet(tuple(a))


def monomial(b, a) -> FinPoly:
    """By^A: one position per element of B, each with direction set A."""
    b = _as_finset(b)
    a = _as_finset(a)
    return FinPoly(tuple((e, a) for e in b.elements))


def constant(a) -> FinPoly:
    """The constant polynomial A: |A| positions, no directions."""
    return monomial(a, FinSet(()))


def linear(a) -> FinPoly:
    """Ay: |A| positions, one direction each."""
    return monomial(a, UNIT_SET)


def representable(a) -> FinPoly:
    """y^A: a single position with direction set A."""
    return monomial(UNIT_SET, a)


ZERO = FinPoly(())
ONE = constant(UNIT_SET)
Y = monomial(UNIT_SET, UNIT_SET)


def eval_poly(p: FinPoly, x: FinSet) -> FinSet:
    """Apply p to a finite set: pairs (position, function directions → X).

    The result has Σ_i |X|^{|p_i|} elements, each labeled
    "(i,[d:x,...])" with the table in direction order.
    """
    out = []
    for i, dirs in p.positions:
        for choice in _all_maps(dirs.elements, x.elements):
            out.append(pair_label(i, fn_label(choice, dirs.elements)))
    return FinSet(out)


def _all_maps(domain: Sequence[str], codomain: Sequence[str]):
    """All functions domain → codomain as dicts, lexicographic in the table."""
    if not domain:
        yield {}
        return
    import itertools

    for values in itertools.product(codomain, repeat=len(domain)):
        yield dict(zip(domain, values))


def canonical_form(p: FinPoly) -> FinPoly:
    """Canonical representative of p's isomorphism class.

    Positions are sorted by direction count (descending) then original
    label, and renamed "0", "1", ...; direction sets become "0".."n-1".
    Two polynomials are isomorphic iff their canonical forms are equal.
    """
    order = sorted(p.positions, key=lambda pair: (-len(pair[1]), pair[0]))
    return FinPoly(
        tuple(
            (str(k), FinSet(tuple(str(j) for j in range(len(dirs)))))
            for k, (_, dirs) in enumerate(order)
        )
    )


def is_monomial(p: FinPoly) -> bool:
    """True when every position has the same direction set."""
    if not p.positions:
        return False
    first = p.positions[0][1]
    return all(dirs == first for _, dirs in p.positions)


# ---------------------------------------------------------------------------
# Lenses.


class Lens:
    """A morphism of polynomials.

    on_pos maps dom positions to cod positions; on_dir[i] maps the cod
    directions at on_pos[i] back to the dom directions at i.
    """

    def __init__(
        self,
        dom: FinPoly,
        cod: FinPoly,
        on_pos: Mapping[str, str],
        on_dir: Mapping[str, Mapping[str, str]],
    ):
        for i in dom.position_labels:
            if i not in on_pos:
                raise ValueError(f"on_pos missing dom position {i!r}")
            if on_pos[i] not in cod._dirs:
                raise ValueError(f"on_pos sends {i!r} to unknown position {on_pos[i]!r}")
        extra = [i for i in on_pos if i not in dom._dirs]
        if extra:
            raise ValueError(f"on_pos defined outside dom positions: {extra!r}")
        norm_dir: dict[str, dict[str, str]] = {}
        for i in dom.position_labels:
            if i not in on_dir:
                raise ValueError(f"on_dir missing component at {i!r}")
            comp = on_dir[i]
            cod_dirs = cod.directions(on_pos[i])
            dom_dirs = dom.directions(i)
            for d in cod_dirs.elements:
                if d not in comp:
                    raise ValueError(
                        f"on_dir[{i!r}] missing cod direction {d!r} at {on_pos[i]!r}"
                    )
                if comp[d] not in dom_dirs:
                    raise ValueError(
                        f"on_dir[{i!r}] sends {d!r} to {comp[d]!r}, "
                        f"not a direction at {i!r}"
                    )
            bad = [d for d in comp if d not in cod_dirs]
            if bad:
                raise ValueError(f"on_dir[{i!r}] defined outside cod directions: {bad!r}")
            norm_dir[i] = {d: comp[d] for d in cod_dirs.elements}
        extra = [i for i in on_dir if i not in dom._dirs]
        if extra:
            raise ValueError(f"on_dir has components outside dom positions: {extra!r}")
        self.dom = dom
        self.cod = cod
        self.on_pos = {i: on_pos[i] for i in dom.position_labels}
        self.on_dir = norm_dir

    @classmethod
    def _make(
        cls,
        dom: FinPoly,
        cod: FinPoly,
        on_pos: dict[str, str],
        on_dir: dict[str, dict[str, str]],
    ) -> "Lens":
        """Internal constructor for data already known to be well formed.

        Callers must pass complete, in-range mappings; nothing is checked.
        """
        lens = object.__new__(cls)
        lens.dom = dom
        lens.cod = cod
        lens.on_pos = on_pos
        lens.on_dir = on_dir
        return lens

    def pos(self, i: str) -> str:
        if i not in self.on_pos:
            raise ValueError(f"{i!r} is not a dom position")
        return self.on_pos[i]

    def dir(self, i: str, d: str) -> str:
        if i not in self.on_dir:
            raise ValueError(f"{i!r} is not a dom position")
        comp = self.on_dir[i]
        if d not in comp:
            raise ValueError(f"{d!r} is not a cod direction at {self.on_pos[i]!r}")
        return comp[d]

    def on_pos_fn(self) -> SetFn:
        return SetFn(self.dom.positions_set(), self.cod.positions_set(), self.on_pos)

    def on_dir_fn(self, i: str) -> SetFn:
        return SetFn(
            self.cod.directions(self.on_pos[i]),
            self.dom.directions(i),
            self.on_dir[i],
        )

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Lens):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and self.on_pos == other.on_pos
            and self.on_dir == other.on_dir
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.dom,
                self.cod,
                tuple(sorted(self.on_pos.items())),
                tuple(sorted((i, tuple(sorted(c.items()))) for i, c in self.on_dir.items())),
            )
        )

    def __repr__(self) -> str:
        return f"Lens({self.dom} -> {self.cod}, on_pos={self.on_pos!r})"


def lens_id(p: FinPoly) -> Lens:
    return Lens._make(
        p,
        p,
        {i: i for i in p.position_labels},
        {i: {d: d for d in p.directions(i).elements} for i in p.position_labels},
    )


def lens_compose(g: Lens, f: Lens) -> Lens:
    """g after f.  Positions compose forward, directions backward."""
    if f.cod != g.dom:
        raise ValueError("interface mismatch: cod of f != dom of g")
    on_pos = {i: g.on_pos[f.on_pos[i]] for i in f.dom.position_labels}
    on_dir = {}
    for i in f.dom.position_labels:
        j = f.on_pos[i]
        gcomp = g.on_dir[j]
        fcomp = f.on_dir[i]
        on_dir[i] = {d: fcomp[gcomp[d]] for d in g.cod.directions(g.on_pos[j]).elements}
    return Lens._make(f.dom, g.cod, on_pos, on_dir)


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


def finset_to_json(a: FinSet) -> dict:
    return {"label": a.label, "elements": list(a.elements)}


def finset_from_json(data: dict) -> FinSet:
    return FinSet(tuple(data["elements"]), data.get("label", ""))


def setfn_to_json(f: SetFn) -> dict:
    return {
        "dom": finset_to_json(f.dom),
        "cod": finset_to_json(f.cod),
        "mapping": dict(f.mapping),
    }


def setfn_from_json(data: dict) -> SetFn:
    return SetFn(
        finset_from_json(data["dom"]),
        finset_from_json(data["cod"]),
        data["mapping"],
    )


def poly_to_json(p: FinPoly) -> dict:
    return {
        "positions": [
            {"label": label, "dirs": list(dirs.elements)} for label, dirs in p.positions
        ]
    }


def poly_from_json(data: dict) -> FinPoly:
    if "positions" not in data:
        raise ValueError('polynomial JSON needs a "positions" key')
    return make_poly((entry["label"], entry["dirs"]) for entry in data["positions"])


def lens_to_json(f: Lens) -> dict:
    return {
        "dom": poly_to_json(f.dom),
        "cod": poly_to_json(f.cod),
        "onPos": dict(f.on_pos),
        "onDir": {i: dict(comp) for i, comp in f.on_dir.items()},
    }


def lens_from_json(data: dict) -> Lens:
    return Lens(
        poly_from_json(data["dom"]),
        poly_from_json(data["cod"]),
        data["onPos"],
        data["onDir"],
    )


def canonical_json(data) -> str:
    """The one serialization format: sorted keys, 2-space indent, newline."""
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
