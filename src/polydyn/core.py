"""Finite sets, functions, polynomials, and lenses.

A polynomial here is a finite coproduct of representables: a list of
positions, each carrying a finite set of directions.  A lens is a morphism
of polynomials: a forward map on positions together with a backward map on
directions over each domain position.

Everything is immutable after construction and safe to share.  Composite
constructions elsewhere in the package build structured labels out of the
labels found here; the encoding helpers at the top of this module define
that bracket syntax and its (unambiguous) decoding.

No pipeline of the package calls the following, so their code sits in
polydyn._core_cold and is compiled only when one of their names is first
read from this module (_lazy_names, which the package's other modules
use for their own cold parts too):
  representable, eval_poly and canonical_form
  the lens tests is_vertical, is_cartesian and is_epi
  pullback_set and coequalizer_set
  JSON serialization (the *_to_json and *_from_json pairs, canonical_json)
"""

from __future__ import annotations

import importlib
import itertools
import re
import sys
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


# What an operation's predicted size counts, where it is not positions.
_COUNTED = {
    "tensor_many": "positions plus direction labels",
    "product_many": "positions plus direction labels",
    "eval_poly": "elements",
    "hom_enumerate": "lenses",
    "contractible": "composite entries",
}


class SizeLimitError(ValueError):
    """A construction would exceed its fixed size limit.

    Raised from the predicted size, before anything is allocated.  The
    message says what would be built, unless the caller words it; a
    prediction too long for str() is given by its number of digits, and
    .predicted keeps it exact.
    """

    def __init__(self, operation: str, predicted: int, limit: int, message: str | None = None):
        if message is None:
            counted = _COUNTED.get(operation, "positions")
            amount = _amount(predicted)
            message = f"{operation} would build {amount} {counted}, above the limit of {limit}"
        super().__init__(message)
        self.operation = operation
        self.predicted = predicted
        self.limit = limit


def _amount(n: int) -> str:
    """n in decimal, or "a D-digit number of" when str(n) would pass the
    interpreter's limit on the digits it converts."""
    most = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before 3.11
    if not most or n < 10**most:
        return str(n)
    # 2^(b-1) <= n < 2^b, so n has this many digits or one more
    digits = int((n.bit_length() - 1) * 0.30102999566398120) + 1
    if n >= 10**digits:
        digits += 1
    return f"a {digits}-digit number of"


def _lazy_names(namespace: dict, source: str, names: str) -> tuple:
    """The PEP 562 hooks of a module some of whose names live elsewhere.

    namespace is the module's globals(); names, separated by whitespace,
    are defined in the module named source, which is imported only when
    one of them is first read from this one.  That first read stores every
    one of them in namespace, so later reads do not come back here.  Any
    other missing name raises the usual AttributeError, and dir() lists
    the names before they are loaded.

    A module __getattr__ serves attribute reads and `from ... import`,
    never a bare global read inside a function: code in the module itself
    imports such a name where it calls it.

    Returns (the names as a frozenset, __getattr__, __dir__).
    """
    table = frozenset(names.split())
    module = namespace["__name__"]

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        cold = importlib.import_module(source)
        for lazy in table:
            namespace[lazy] = getattr(cold, lazy)
        return namespace[name]

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table)

    return table, __getattr__, __dir__


# ---------------------------------------------------------------------------
# Structured labels.
#
# Composite polynomials need labels built from constituent labels.  Three
# shapes cover everything in the package: tuples "(a,b)", tagged values
# "tag|value", and finite function tables "[d:v,...]".  Each part is
# embedded once, in time and space linear in its length: a non-empty part
# with none of the special characters (),[]:|\{ is written as it is, so
# flat labels such as "(q0,p0)" read naturally, and any other part,
# the empty one included, is written "{n}" followed by its n characters
# unchanged, so pair_label("") == "({0})" differs from pair_label() == "()".
# A nested label therefore grows by a few bytes per level, not
# by doubled backslashes.  The decoders also read the older form, in which
# a special character inside a part was escaped with a backslash at every
# level; an old part that starts with "{" is read as a length prefix.
# This section is the only code that knows the format: other modules build
# and read labels through these functions.  A nested "(i,[d:x,...])" label
# is written one at a time by algebra._compose_label and read back by
# algebra._split_compose; the listings of eval_poly and poly_compose come
# from _table_labels, which writes the same bytes in bulk.

_NEEDS_PREFIX = re.compile(r"[(),\[\]:|\\{]").search
# the next backslash or separator of a run, per set of separators ending it
_RUN_END = {
    stops: re.compile("[" + re.escape(stops) + r"\\]").search for stops in ("", ",", "|", ":,")
}


def _part(s: str) -> str:
    """Embed one part of a structured label."""
    if s and _NEEDS_PREFIX(s) is None:
        return s
    return f"{{{len(s)}}}{s}"


def _read_part(s: str, i: int, stops: str) -> tuple[str, int]:
    """Read the part of s that starts at i: a "{n}" chunk, or a run up to
    the first unescaped character of stops in which a backslash escapes the
    next character.  Returns the part and the index just after it."""
    if s.startswith("{", i):
        close = s.find("}", i)
        digits = s[i + 1 : close]
        if close < 0 or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad length prefix at {i} in label {s!r}")
        end = close + 1 + int(digits)
        if end > len(s):
            raise ValueError(f"truncated part at {i} in label {s!r}")
        return s[close + 1 : end], end
    m = _RUN_END[stops](s, i)
    if m is None:
        return s[i:], len(s)
    j = m.start()
    if s[j] != "\\":
        return s[i:j], j
    out = [s[i:j]]
    while j < len(s):
        ch = s[j]
        if ch == "\\":
            if j + 1 == len(s):
                raise ValueError(f"dangling escape in label {s!r}")
            out.append(s[j + 1])
            j += 2
        elif ch in stops:
            break
        else:
            out.append(ch)
            j += 1
    return "".join(out), j


def _split_top(body: str, sep: str, maxsplit: int = -1) -> list[str]:
    """Split body into its parts at sep, at most maxsplit times as in
    str.split, and decode each part."""
    if "\\" not in body and "{" not in body:
        return body.split(sep, maxsplit)
    parts = []
    i = 0
    while True:
        last = len(parts) == maxsplit
        part, i = _read_part(body, i, "" if last else sep)
        parts.append(part)
        if i == len(body):
            return parts
        if last or body[i] != sep:
            raise ValueError(f"unexpected {body[i]!r} at {i} in label {body!r}")
        i += 1


@lru_cache(maxsize=65536)
def pair_label(*parts: str) -> str:
    """Render a tuple of labels, e.g. pair_label("a", "b") == "(a,b)"."""
    return "(" + ",".join(map(_part, parts)) + ")"


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
    return _part(tag) + "|" + _part(value)


@lru_cache(maxsize=65536)
def split_tag(label: str) -> tuple[str, str]:
    parts = _split_top(label, "|", 1)
    if len(parts) != 2:
        raise ValueError(f"not a tagged label: {label!r}")
    return parts[0], parts[1]


def fn_label(mapping: Mapping[str, str], domain_order: Sequence[str]) -> str:
    """Render a function as a table in domain order: "[d:v,e:w]"."""
    return "[" + ",".join(_part(d) + ":" + _part(mapping[d]) for d in domain_order) + "]"


def _table_labels(i: str, domain: Sequence[str], values: Sequence[str]):
    """pair_label(i, fn_label(t, domain)) for every table t, in _all_maps order.

    The bulk form of algebra._compose_label(i, t, domain), byte for byte.
    Each "d:v" entry is embedded once, not once per label it appears in,
    and the tables that differ only in their last entry share one joined
    prefix.  A table is always the pair's length-prefixed second part.
    """
    entries = [[_part(d) + ":" + _part(v) for v in values] for d in domain]
    head = "(" + _part(i) + ","
    if not entries:
        yield head + "{2}[])"
        return
    *init, last = entries
    for row in itertools.product(*init):
        prefix = ",".join((*row, ""))
        size = len(prefix) + 2
        for x in last:
            yield f"{head}{{{size + len(x)}}}[{prefix}{x}])"


def split_fn(label: str) -> dict[str, str]:
    if not (label.startswith("[") and label.endswith("]")):
        raise ValueError(f"not a function label: {label!r}")
    body = label[1:-1]
    if body == "":
        return {}
    out = {}
    if "\\" not in body and "{" not in body:
        for item in body.split(","):
            key, colon, value = item.partition(":")
            if not colon:
                raise ValueError(f"bad entry {item!r} in function label")
            out[key] = value
        return out
    i = 0
    while True:
        start = i
        key, i = _read_part(body, i, ":,")
        if i == len(body) or body[i] != ":":
            raise ValueError(f"bad entry {body[start:i]!r} in function label")
        value, i = _read_part(body, i + 1, ",")
        out[key] = value
        if i == len(body):
            return out
        if body[i] != ",":
            raise ValueError(f"bad entry {body[start:i + 1]!r} in function label")
        i += 1


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
        self._set = frozenset(elems)
        if len(self._set) != len(elems):
            raise ValueError(f"duplicate element labels in {elems!r}")
        self.label = label
        self.elements = elems

    @classmethod
    def _make(cls, elements: tuple, label: str = "") -> "FinSet":
        """Internal constructor for a tuple of distinct strings, taken over
        unchecked."""
        s = object.__new__(cls)
        s._set = frozenset(elements)
        s.label = label
        s.elements = elements
        return s

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

    The one store is the label → directions mapping, in position order:
    a dict, or for p∘q a read-only view (polydyn.algebra._ComposeView)
    that answers its size, membership and directions(label) from p and q
    and lists its positions the first time it is read whole.
    num_positions and directions(label) read the store; position_labels
    is the tuple of its labels, taken with a dict and on first read from
    a view; positions is a tuple of (label, FinSet) pairs built on each
    access, for callers that want one.
    """

    def __init__(self, positions: Iterable[tuple[str, FinSet]]):
        # One pass straight into the dict, checking each entry; the hash
        # waits for its first use.  After a duplicate the remaining labels
        # are still collected (and their entries checked) so the message
        # can list them all.
        table: dict[str, FinSet] = {}
        labels = None
        for label, dirs in positions:
            if not isinstance(label, str):
                raise TypeError(f"position labels must be strings, got {label!r}")
            if not isinstance(dirs, FinSet):
                raise TypeError(f"directions at {label!r} must be a FinSet")
            if labels is not None:
                labels.append(label)
            elif label in table:
                labels = list(table) + [label]
            else:
                table[label] = dirs
        if labels is not None:
            raise ValueError(f"duplicate position labels in {labels!r}")
        self._adopt(table)

    @classmethod
    def _make(cls, table: Mapping) -> "FinPoly":
        """Internal constructor for a label → FinSet dict, or read-only
        Mapping, of string labels, taken over unchecked."""
        p = object.__new__(cls)
        p._adopt(table)
        return p

    def _adopt(self, table: Mapping) -> None:
        self._dirs = table
        self._labels = tuple(table) if type(table) is dict else None
        self._hash: int | None = None

    @property
    def positions(self) -> tuple[tuple[str, FinSet], ...]:
        return tuple(self._dirs.items())

    @property
    def position_labels(self) -> tuple[str, ...]:
        if self._labels is None:
            self._labels = tuple(self._dirs)
        return self._labels

    def directions(self, label: str) -> FinSet:
        try:
            return self._dirs[label]
        except KeyError:
            # counted, not listed: the polynomial may have millions of positions
            raise ValueError(
                f"no position {label!r} among the {len(self._dirs)} of this polynomial"
            ) from None

    def positions_set(self) -> FinSet:
        return FinSet._make(self.position_labels, "positions")

    def num_positions(self) -> int:
        return len(self._dirs)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FinPoly):
            return NotImplemented
        if len(self._dirs) != len(other._dirs) or self._dirs.keys() != other._dirs.keys():
            return False
        return all(self._dirs[i] == other._dirs[i] for i in self._dirs)

    def __hash__(self) -> int:
        # order-blind, like __eq__
        if self._hash is None:
            self._hash = hash(frozenset((i, dirs._set) for i, dirs in self._dirs.items()))
        return self._hash

    def __getstate__(self) -> dict:
        # the kept hash is not pickled: string hashes differ between processes
        return {**self.__dict__, "_hash": None}

    def __str__(self) -> str:
        if not self._dirs:
            return "0"
        degrees: dict[int, int] = {}
        for dirs in self._dirs.values():
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
        body = [(label, list(dirs.elements)) for label, dirs in self._dirs.items()]
        return f"FinPoly({body!r})"


def make_poly(spec: Iterable[tuple[str, Iterable[str]]]) -> FinPoly:
    """Build a polynomial from (position label, direction labels) pairs."""
    return FinPoly((label, _as_finset(dirs)) for label, dirs in spec)


def _require(value, cls, name: str) -> None:
    """Refuse an argument that is not a cls, naming it.  A bool is not
    taken for an int, though Python makes it one."""
    if not isinstance(value, cls) or (cls is int and isinstance(value, bool)):
        kind = cls.__name__
        article = "an" if kind[0] in "AEIOUaeiou" else "a"
        raise TypeError(f"{name} must be {article} {kind}, not {type(value).__name__}")


def _as_finset(a) -> FinSet:
    if isinstance(a, FinSet):
        return a
    return FinSet(a)


def monomial(b, a) -> FinPoly:
    """By^A: one position per element of B, each with direction set A."""
    b = _as_finset(b)
    a = _as_finset(a)
    return FinPoly((e, a) for e in b.elements)


def constant(a) -> FinPoly:
    """The constant polynomial A: |A| positions, no directions."""
    return monomial(a, FinSet(()))


def linear(a) -> FinPoly:
    """Ay: |A| positions, one direction each."""
    return monomial(a, UNIT_SET)


ZERO = FinPoly(())
ONE = constant(UNIT_SET)
Y = monomial(UNIT_SET, UNIT_SET)


def _all_maps(domain: Sequence[str], codomain: Sequence[str]):
    """All functions domain → codomain as dicts, lexicographic in the table."""
    for values in itertools.product(codomain, repeat=len(domain)):
        yield dict(zip(domain, values))


def is_monomial(p: FinPoly) -> bool:
    """True when every position has the same direction set."""
    if not p._dirs:
        return False
    first = p._dirs[p.position_labels[0]]
    return all(dirs == first for dirs in p._dirs.values())


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



# ---------------------------------------------------------------------------
# The sections kept in polydyn._core_cold, loaded on first use.

_COLD_NAMES, __getattr__, __dir__ = _lazy_names(
    globals(),
    "polydyn._core_cold",
    """
    representable eval_poly canonical_form is_vertical is_cartesian is_epi
    pullback_set coequalizer_set _json_node _json_array _json_nodes
    finset_to_json finset_from_json setfn_to_json setfn_from_json
    poly_to_json poly_from_json lens_to_json lens_from_json canonical_json
    """,
)
