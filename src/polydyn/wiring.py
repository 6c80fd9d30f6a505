"""A textual wiring-diagram language compiled to lenses and systems.

A program declares finite sets, inner boxes with typed ports, an outer
boundary, connections, per-port default values, optional mode blocks
keyed by one designated box's output, and optional machine tables.  A
box with out-ports typed B1..Bm and in-ports typed A1..An presents the
monomial interface (B1x..xBm)y^(A1x..xAn); the whole diagram compiles
to a lens from the tensor of the box interfaces (in declaration order)
to the outer interface.  The forward direction projects outer outputs
from inner outputs along the connections; the backward direction routes
every inner input from its driver in the active mode, falling back to
declared defaults.  Machine tables compile to MooreMachine values bound
to their boxes, and a fully tabulated diagram compiles to a runnable
closed or open system.

Grammar (comments run from "#" to end of line, identifiers are ASCII
word runs):

    file     := stmt*
    stmt     := "set" ID "=" "{" ID ("," ID)* "}"
              | "box" ID "{" portdecl* "}"
              | "outer" ID "{" portdecl* "}"
              | "connect" ID "." ID "->" ID "." ID
              | "default" ID "." ID "=" ID
              | "modes" "from" ID "{" ("mode" ID "{" connect* "}")+ "}"
              | "machine" ID "{" "states" "=" "{" ID ("," ID)* "}" ";"
                                "init" "=" ID ";"
                                ("readout" ID "=" valuation)*
                                ("update" ID valuation "=" ID)* "}"
    portdecl := ("in" | "out") ID ":" ID ";"
    valuation := "(" (ID "=" ID ("," ID "=" ID)*)? ")"

No pipeline of the package calls the pretty-printer (print_spec) or the
generator of random specs for fuzzing (random_spec), so their code sits
in polydyn._wiring_cold and is compiled only when one of their names is
first read from this module.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Optional, Sequence

from polydyn.core import (
    FinPoly,
    FinSet,
    Lens,
    UNIT_SET,
    Y,
    _lazy_names,
    monomial,
    pair_label,
    split_pair,
)
from polydyn.algebra import tensor_many
from polydyn.comonoid import contractible
from polydyn.dynamics import MDDS, MooreMachine

__all__ = [
    "WiringSyntaxError",
    "SetDecl",
    "PortDecl",
    "BoxDecl",
    "OuterDecl",
    "Connect",
    "Default",
    "ModeBlock",
    "ModesDecl",
    "ReadoutRow",
    "UpdateRow",
    "MachineDecl",
    "WiringSpec",
    "parse",
    "print_spec",
    "validate",
    "compile_wiring",
    "compile_machines",
    "compile_system",
    "random_spec",
]


# ---------------------------------------------------------------------------
# Tokens.

_KEYWORDS = frozenset(
    "set box outer connect default modes from mode machine "
    "states init readout update in out".split()
)

_TOKEN_RE = re.compile(r"->|[{}().,:;=]|[A-Za-z0-9_]+")


class WiringSyntaxError(ValueError):
    """A parse failure, carrying the 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_Token = namedtuple("_Token", "kind value line col")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch.isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise WiringSyntaxError(
                    f"unexpected character {ch!r}", lineno, pos + 1
                )
            value = m.group()
            if value[0].isalnum() or value[0] == "_":
                kind = "kw" if value in _KEYWORDS else "id"
            else:
                kind = value
            tokens.append(_Token(kind, value, lineno, pos + 1))
            pos = m.end()
    last = tokens[-1] if tokens else None
    tokens.append(
        _Token("eof", "", last.line if last else 1, last.col + len(last.value) if last else 1)
    )
    return tokens


# ---------------------------------------------------------------------------
# Syntax tree.  Source spans are (line, column) pairs and never take part
# in equality, so parse(print_spec(ast)) == ast holds.

_set_field = object.__setattr__


class _Node:
    """An immutable record whose fields are named in _fields.

    Construction takes the fields positionally or by keyword, and a field
    named in _defaults may be left out.  Equality, hashing and repr read
    every field but span; equality holds only between nodes of one class.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults = {"span": None}

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields
        cls._compared = tuple(f for f in cls._fields if f != "span")

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__}() takes {len(names)} arguments "
                f"but {len(args)} were given"
            )
        for name, value in zip(names, args):
            _set_field(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            _set_field(self, name, value)
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{type(self).__name__}() got {problem} argument {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SetDecl(_Node):
    __slots__ = _fields = ("name", "elements", "span")


class PortDecl(_Node):
    __slots__ = _fields = ("kind", "name", "set_name", "span")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.kind not in ("in", "out"):
            raise ValueError(f"port kind must be 'in' or 'out', got {self.kind!r}")


class BoxDecl(_Node):
    __slots__ = _fields = ("name", "ports", "span")


class OuterDecl(_Node):
    __slots__ = _fields = ("name", "ports", "span")


class Connect(_Node):
    __slots__ = _fields = ("src_owner", "src_port", "dst_owner", "dst_port", "span")


class Default(_Node):
    __slots__ = _fields = ("owner", "port", "value", "span")


class ModeBlock(_Node):
    __slots__ = _fields = ("label", "connects", "span")


class ModesDecl(_Node):
    __slots__ = _fields = ("box", "blocks", "span")


class ReadoutRow(_Node):
    __slots__ = _fields = ("state", "valuation", "span")


class UpdateRow(_Node):
    __slots__ = _fields = ("state", "valuation", "next_state", "span")


class MachineDecl(_Node):
    __slots__ = _fields = ("box", "states", "init", "readouts", "updates", "span")


class WiringSpec(_Node):
    __slots__ = _fields = ("statements",)
    _defaults = {"statements": ()}

    def sets(self) -> dict[str, SetDecl]:
        return {s.name: s for s in self.statements if isinstance(s, SetDecl)}

    def boxes(self) -> dict[str, BoxDecl]:
        return {b.name: b for b in self.statements if isinstance(b, BoxDecl)}

    def outer(self) -> Optional[OuterDecl]:
        for s in self.statements:
            if isinstance(s, OuterDecl):
                return s
        return None

    def connects(self) -> tuple[Connect, ...]:
        return tuple(s for s in self.statements if isinstance(s, Connect))

    def defaults(self) -> tuple[Default, ...]:
        return tuple(s for s in self.statements if isinstance(s, Default))

    def modes(self) -> Optional[ModesDecl]:
        for s in self.statements:
            if isinstance(s, ModesDecl):
                return s
        return None

    def machines(self) -> tuple[MachineDecl, ...]:
        return tuple(s for s in self.statements if isinstance(s, MachineDecl))


# ---------------------------------------------------------------------------
# Parsing.


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str) -> "WiringSyntaxError":
        t = self.peek()
        return WiringSyntaxError(message, t.line, t.col)

    def expect(self, kind: str, what: str = "") -> _Token:
        t = self.peek()
        if t.kind != kind:
            shown = what or f"{kind!r}"
            got = "end of input" if t.kind == "eof" else repr(t.value)
            raise self.fail(f"expected {shown}, got {got}")
        return self.advance()

    def expect_kw(self, word: str) -> _Token:
        t = self.peek()
        if t.kind != "kw" or t.value != word:
            got = "end of input" if t.kind == "eof" else repr(t.value)
            raise self.fail(f"expected {word!r}, got {got}")
        return self.advance()

    def ident(self, what: str = "an identifier") -> _Token:
        # keywords are reserved and never double as names
        return self.expect("id", what)

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.value == word

    # -- grammar productions

    def file(self) -> WiringSpec:
        stmts = []
        while self.peek().kind != "eof":
            stmts.append(self.statement())
        return WiringSpec(tuple(stmts))

    def statement(self):
        t = self.peek()
        if t.kind != "kw":
            raise self.fail(f"expected a statement keyword, got {t.value!r}")
        if t.value == "set":
            return self.set_decl()
        if t.value == "box":
            return self.box_decl(outer=False)
        if t.value == "outer":
            return self.box_decl(outer=True)
        if t.value == "connect":
            return self.connect()
        if t.value == "default":
            return self.default_decl()
        if t.value == "modes":
            return self.modes_decl()
        if t.value == "machine":
            return self.machine_decl()
        raise self.fail(f"unexpected keyword {t.value!r}")

    def id_list(self) -> tuple[str, ...]:
        self.expect("{")
        names = [self.ident("an element name").value]
        while self.peek().kind == ",":
            self.advance()
            names.append(self.ident("an element name").value)
        self.expect("}")
        return tuple(names)

    def set_decl(self) -> SetDecl:
        t = self.expect_kw("set")
        name = self.ident("a set name").value
        self.expect("=")
        return SetDecl(name, self.id_list(), span=(t.line, t.col))

    def box_decl(self, outer: bool):
        t = self.advance()
        name = self.ident("a box name").value
        self.expect("{")
        ports = []
        while self.at_kw("in") or self.at_kw("out"):
            kt = self.advance()
            pname = self.ident("a port name").value
            self.expect(":")
            sname = self.ident("a set name").value
            self.expect(";")
            ports.append(PortDecl(kt.value, pname, sname, span=(kt.line, kt.col)))
        self.expect("}")
        cls = OuterDecl if outer else BoxDecl
        return cls(name, tuple(ports), span=(t.line, t.col))

    def connect(self) -> Connect:
        t = self.expect_kw("connect")
        so = self.ident("a source box").value
        self.expect(".")
        sp = self.ident("a source port").value
        self.expect("->")
        do = self.ident("a target box").value
        self.expect(".")
        dp = self.ident("a target port").value
        return Connect(so, sp, do, dp, span=(t.line, t.col))

    def default_decl(self) -> Default:
        t = self.expect_kw("default")
        owner = self.ident("a box name").value
        self.expect(".")
        port = self.ident("a port name").value
        self.expect("=")
        value = self.ident("an element name").value
        return Default(owner, port, value, span=(t.line, t.col))

    def modes_decl(self) -> ModesDecl:
        t = self.expect_kw("modes")
        self.expect_kw("from")
        box = self.ident("a box name").value
        self.expect("{")
        blocks = []
        while self.at_kw("mode"):
            mt = self.advance()
            label = self.ident("a mode label").value
            self.expect("{")
            conns = []
            while self.at_kw("connect"):
                conns.append(self.connect())
            self.expect("}")
            blocks.append(ModeBlock(label, tuple(conns), span=(mt.line, mt.col)))
        if not blocks:
            raise self.fail("a modes block needs at least one mode")
        self.expect("}")
        return ModesDecl(box, tuple(blocks), span=(t.line, t.col))

    def valuation(self) -> tuple[tuple[str, str], ...]:
        self.expect("(")
        entries = []
        if self.peek().kind == "id":
            while True:
                port = self.ident("a port name").value
                self.expect("=")
                entries.append((port, self.ident("an element name").value))
                if self.peek().kind != ",":
                    break
                self.advance()
        self.expect(")")
        return tuple(entries)

    def machine_decl(self) -> MachineDecl:
        t = self.expect_kw("machine")
        box = self.ident("a box name").value
        self.expect("{")
        self.expect_kw("states")
        self.expect("=")
        states = self.id_list()
        self.expect(";")
        self.expect_kw("init")
        self.expect("=")
        init = self.ident("a state name").value
        self.expect(";")
        readouts = []
        while self.at_kw("readout"):
            rt = self.advance()
            state = self.ident("a state name").value
            self.expect("=")
            readouts.append(
                ReadoutRow(state, self.valuation(), span=(rt.line, rt.col))
            )
        updates = []
        while self.at_kw("update"):
            ut = self.advance()
            state = self.ident("a state name").value
            val = self.valuation()
            self.expect("=")
            nxt = self.ident("a state name").value
            updates.append(UpdateRow(state, val, nxt, span=(ut.line, ut.col)))
        self.expect("}")
        return MachineDecl(
            box, states, init, tuple(readouts), tuple(updates), span=(t.line, t.col)
        )


def _at(span) -> str:
    if span is None:
        return ""
    return f"line {span[0]}: "


def _structural_problems(spec: WiringSpec) -> list[tuple[str, Optional[tuple]]]:
    """Duplicate declarations and undeclared set references."""
    problems = []
    set_names = set()
    owner_names = set()
    machine_boxes = set()
    seen_outer = False
    seen_modes = False
    declared_sets = {s.name for s in spec.statements if isinstance(s, SetDecl)}
    for s in spec.statements:
        if isinstance(s, SetDecl):
            if s.name in set_names:
                problems.append((f"duplicate set declaration {s.name!r}", s.span))
            set_names.add(s.name)
            seen_el = set()
            for e in s.elements:
                if e in seen_el:
                    problems.append(
                        (f"duplicate element {e!r} in set {s.name!r}", s.span)
                    )
                seen_el.add(e)
        elif isinstance(s, (BoxDecl, OuterDecl)):
            if s.name in owner_names:
                problems.append((f"duplicate declaration {s.name!r}", s.span))
            owner_names.add(s.name)
            if isinstance(s, OuterDecl):
                if seen_outer:
                    problems.append(("duplicate outer declaration", s.span))
                seen_outer = True
            seen_ports = set()
            for p in s.ports:
                if p.name in seen_ports:
                    problems.append(
                        (f"duplicate port {p.name!r} on {s.name!r}", p.span)
                    )
                seen_ports.add(p.name)
                if p.set_name not in declared_sets:
                    problems.append((f"undeclared set {p.set_name!r}", p.span))
        elif isinstance(s, ModesDecl):
            if seen_modes:
                problems.append(("duplicate modes declaration", s.span))
            seen_modes = True
            seen_labels = set()
            for b in s.blocks:
                if b.label in seen_labels:
                    problems.append((f"duplicate mode {b.label!r}", b.span))
                seen_labels.add(b.label)
        elif isinstance(s, MachineDecl):
            if s.box in machine_boxes:
                problems.append(
                    (f"duplicate machine declaration for box {s.box!r}", s.span)
                )
            machine_boxes.add(s.box)
    return problems


def parse(text: str) -> WiringSpec:
    """Parse program text; raises WiringSyntaxError with line and column.

    Besides grammar errors this rejects duplicate declarations and
    references to undeclared sets, so a parsed spec always names its
    port types meaningfully.
    """
    spec = _Parser(_tokenize(text)).file()
    problems = _structural_problems(spec)
    if problems:
        msg, span = problems[0]
        line, col = span if span is not None else (1, 1)
        raise WiringSyntaxError(msg, line, col)
    return spec


# ---------------------------------------------------------------------------
# Name resolution and validation.


class _Resolved:
    """Lookup tables for a structurally sound spec, and its connections'
    problems: checked holds (mode label or None, connection, problems) for
    every connection statement, base ones first.  drivers maps each mode
    label (None alone without usable modes) to a table from (owner, port)
    to the well-formed connections into it, base ones first, in order.
    """

    def __init__(self, spec: WiringSpec):
        # duplicates are reported elsewhere; dedupe so lookups still work
        self.sets = {
            name: FinSet(tuple(dict.fromkeys(decl.elements)))
            for name, decl in spec.sets().items()
        }
        self.boxes = spec.boxes()
        self.box_order = list(self.boxes)
        self.outer = spec.outer()
        self.outer_name = self.outer.name if self.outer is not None else None
        owners = dict(self.boxes)
        if self.outer is not None:
            owners[self.outer_name] = self.outer
        self.in_ports = {n: [p for p in d.ports if p.kind == "in"] for n, d in owners.items()}
        self.out_ports = {n: [p for p in d.ports if p.kind == "out"] for n, d in owners.items()}
        # an owner's first in port of a name, else its first out port
        self.ports = {}
        for table in (self.in_ports, self.out_ports):
            for owner, decls in table.items():
                for p in decls:
                    self.ports.setdefault((owner, p.name), p)
        self.defaults = {(d.owner, d.port): d.value for d in spec.defaults()}
        self.modes = spec.modes()

        blocks = self.modes.blocks if self.modes is not None else ()
        self.checked = [(None, c, _connect_problems(self, c)) for c in spec.connects()]
        self.checked += [
            (b.label, c, _connect_problems(self, c)) for b in blocks for c in b.connects
        ]
        base, by_mode = {}, {}
        for label, c, problems in self.checked:
            if not problems:
                table = base if label is None else by_mode.setdefault(label, {})
                key = (c.dst_owner, c.dst_port)
                table[key] = table.get(key, ()) + (c,)
        labels = [None]
        if self.modes is not None:
            outs = self.out_ports.get(self.modes.box, [])
            if len(outs) == 1 and outs[0].set_name in self.sets:
                labels = self.sets[outs[0].set_name].elements
        self.drivers = {}
        for label in labels:
            table = dict(base)
            for key, conns in by_mode.get(label, {}).items():
                table[key] = table.get(key, ()) + conns
            self.drivers[label] = table


def _connect_problems(r: _Resolved, c: Connect) -> list[str]:
    problems = []
    loc = _at(c.span)
    for owner, port in ((c.src_owner, c.src_port), (c.dst_owner, c.dst_port)):
        if owner not in r.in_ports:
            problems.append(f"{loc}undeclared box {owner!r}")
        elif (owner, port) not in r.ports:
            problems.append(f"{loc}undeclared port {owner}.{port}")
    if problems:
        return problems
    src = r.ports[(c.src_owner, c.src_port)]
    dst = r.ports[(c.dst_owner, c.dst_port)]
    src_is_outer = c.src_owner == r.outer_name
    dst_is_outer = c.dst_owner == r.outer_name
    if (src.kind == "out") == src_is_outer:
        want = "an outer in port" if src_is_outer else "a box out port"
        problems.append(
            f"{loc}connection source {c.src_owner}.{c.src_port} must be {want}"
        )
    if (dst.kind == "in") == dst_is_outer:
        want = "an outer out port" if dst_is_outer else "a box in port"
        problems.append(
            f"{loc}connection target {c.dst_owner}.{c.dst_port} must be {want}"
        )
    if src_is_outer and dst_is_outer:
        problems.append(
            f"{loc}direct connection from outer input {c.src_port} to outer "
            f"output {c.dst_port} is forbidden"
        )
    if not problems and src.set_name != dst.set_name:
        problems.append(
            f"{loc}type mismatch: {c.src_owner}.{c.src_port} : {src.set_name} "
            f"-> {c.dst_owner}.{c.dst_port} : {dst.set_name}"
        )
    return problems


def _require_spec(spec) -> None:
    """Refuse anything but a parsed spec, naming the argument."""
    if not isinstance(spec, WiringSpec):
        raise TypeError(
            f"spec must be a WiringSpec, not {type(spec).__name__}; "
            "parse(text) turns program text into one"
        )


def validate(spec: WiringSpec) -> dict:
    """Check every AST invariant; returns {"ok": bool, "violations": [...]}.

    All violations are reported, not just the first: structural
    duplicates, dangling references, ill-directed or ill-typed
    connections, and, per mode, fan-in and missing drivers.  Raises
    TypeError when spec is not a WiringSpec, such as unparsed text.
    """
    _require_spec(spec)
    violations = _violations(spec, _Resolved(spec))
    return {"ok": not violations, "violations": violations}


def _violations(spec: WiringSpec, r: _Resolved) -> list[str]:
    """validate's report for spec, read from its resolution r."""
    violations = [_at(span) + msg for msg, span in _structural_problems(spec)]
    for label, _, problems in r.checked:
        if label is None:
            violations.extend(problems)
    for d in spec.defaults():
        loc = _at(d.span)
        if d.owner not in r.boxes:
            violations.append(f"{loc}default on undeclared box {d.owner!r}")
            continue
        p = r.ports.get((d.owner, d.port))
        if p is None:
            violations.append(f"{loc}default on undeclared port {d.owner}.{d.port}")
        elif p.kind != "in":
            violations.append(
                f"{loc}default on {d.owner}.{d.port}, which is not an in port"
            )
        elif p.set_name in r.sets and d.value not in r.sets[p.set_name]:
            violations.append(
                f"{loc}default value {d.value!r} is not in set {p.set_name!r}"
            )

    modes = r.modes
    if modes is not None:
        loc = _at(modes.span)
        if modes.box not in r.boxes:
            violations.append(f"{loc}modes from undeclared box {modes.box!r}")
        else:
            outs = r.out_ports[modes.box]
            if len(outs) != 1:
                violations.append(
                    f"{loc}mode box {modes.box!r} must have exactly one out port, "
                    f"has {len(outs)}"
                )
            else:
                elements = r.sets.get(outs[0].set_name, FinSet(()))
                for b in modes.blocks:
                    if b.label not in elements:
                        violations.append(
                            f"{_at(b.span)}mode {b.label!r} is not a position of "
                            f"box {modes.box!r}"
                        )
        for label, _, problems in r.checked:
            if label is not None:
                violations.extend(f"{p} (mode {label})" for p in problems)

    for m in spec.machines():
        if m.box not in r.boxes:
            violations.append(
                f"{_at(m.span)}machine bound to undeclared box {m.box!r}"
            )

    # driver analysis, one pass per mode, over well-formed connections only
    targets = []
    for name in r.box_order:
        targets.extend((name, p, True) for p in r.in_ports[name])
    if r.outer is not None:
        targets.extend((r.outer_name, p, False) for p in r.out_ports[r.outer_name])
    for label, table in r.drivers.items():
        suffix = f" in mode {label}" if label is not None else ""
        for owner, decl, is_inner in targets:
            port = decl.name
            drivers = table.get((owner, port), ())
            if len(drivers) > 1:
                violations.append(f"{_at(decl.span)}fan-in at {owner}.{port}{suffix}")
            elif not drivers:
                if is_inner and (owner, port) in r.defaults:
                    continue
                kind = "no driver or default" if is_inner else "no driver"
                violations.append(f"{_at(decl.span)}{kind} for {owner}.{port}{suffix}")
    return violations


# ---------------------------------------------------------------------------
# Compilation.


def _product_set(sets: Sequence[FinSet]) -> FinSet:
    if not sets:
        return UNIT_SET
    if len(sets) == 1:
        return sets[0]
    elements = [()]
    for s in sets:
        elements = [prefix + (e,) for prefix in elements for e in s.elements]
    return FinSet(tuple(pair_label(*combo) for combo in elements))


def _join(values: Sequence[str]) -> str:
    if not values:
        return "*"
    if len(values) == 1:
        return values[0]
    return pair_label(*values)


def _split(label: str, n: int) -> tuple[str, ...]:
    if n == 0:
        return ()
    if n == 1:
        return (label,)
    return split_pair(label)


def _box_poly(r: _Resolved, name: str) -> FinPoly:
    outs = _product_set([r.sets[p.set_name] for p in r.out_ports[name]])
    ins = _product_set([r.sets[p.set_name] for p in r.in_ports[name]])
    return monomial(outs, ins)


def _outer_poly(r: _Resolved) -> FinPoly:
    return Y if r.outer is None else _box_poly(r, r.outer_name)


def _inner_poly(r: _Resolved) -> FinPoly:
    polys = [_box_poly(r, name) for name in r.box_order]
    if not polys:
        return Y
    if len(polys) == 1:
        return polys[0]
    return tensor_many(polys)


def compile_wiring(spec: WiringSpec) -> Lens:
    """The lens from the tensor of box interfaces to the outer interface.

    Forward: at each tuple of box positions, read every outer out port
    from its driver under the active mode.  Backward: split the outer
    direction into outer in-port values, route every box in port from
    its driver (an inner out port or an outer in port) under the active
    mode, falling back to its default, and rebuild each box's direction.
    The active mode is the designated mode box's component of the
    position; without modes the base connections apply everywhere.
    """
    _require_spec(spec)
    r = _Resolved(spec)
    violations = _violations(spec, r)
    if violations:
        raise ValueError(f"invalid wiring spec: {violations[0]}")
    dom = _inner_poly(r)
    cod = _outer_poly(r)
    outer_ins = r.in_ports.get(r.outer_name, [])
    outer_outs = r.out_ports.get(r.outer_name, [])
    outer_in_keys = [(r.outer_name, p.name) for p in outer_ins]
    # the active mode is the mode box's out value
    mode_key = (r.modes.box, r.out_ports[r.modes.box][0].name) if r.modes else None

    on_pos = {}
    on_dir = {}
    for pos in dom.position_labels:
        parts = _split(pos, len(r.box_order))
        out_vals = {}
        for name, part in zip(r.box_order, parts):
            ports = r.out_ports[name]
            for p, v in zip(ports, _split(part, len(ports))):
                out_vals[(name, p.name)] = v
        # a valid spec drives every port at most once in each mode
        table = r.drivers[out_vals[mode_key] if mode_key else None]

        sources = [table[(r.outer_name, p.name)][0] for p in outer_outs]
        on_pos[pos] = _join([out_vals[(c.src_owner, c.src_port)] for c in sources])

        row = {}
        for d in cod.directions(on_pos[pos]).elements:
            values = dict(out_vals)
            values.update(zip(outer_in_keys, _split(d, len(outer_ins))))
            box_dirs = []
            for name in r.box_order:
                vals = []
                for p in r.in_ports[name]:
                    drivers = table.get((name, p.name))
                    if drivers is None:
                        vals.append(r.defaults[(name, p.name)])
                    else:
                        vals.append(values[drivers[0].src_owner, drivers[0].src_port])
                box_dirs.append(_join(vals))
            row[d] = _join(box_dirs)
        on_dir[pos] = row
    return Lens(dom, cod, on_pos, on_dir)


def compile_machines(spec: WiringSpec) -> list[tuple[str, MooreMachine]]:
    """Build one MooreMachine per machine table, bound to its box.

    Raises with a full account of what is wrong: undeclared boxes, bad
    states, mistyped valuations, and every missing (state, input) row.
    """
    _require_spec(spec)
    r = _Resolved(spec)
    problems = []
    out = []
    for m in spec.machines():
        name = m.box
        loc = _at(m.span)
        before = len(problems)
        if name not in r.boxes:
            problems.append(f"{loc}machine bound to undeclared box {name!r}")
            continue
        states = list(dict.fromkeys(m.states))
        if len(states) != len(m.states):
            problems.append(f"{loc}machine {name!r}: duplicate states")
        if m.init not in states:
            problems.append(f"{loc}machine {name!r}: init {m.init!r} is not a state")
            continue
        out_ports = r.out_ports[name]
        in_ports = r.in_ports[name]

        def valuation_label(rows, ports, what, row_state, span):
            given = dict(rows)
            want = [p.name for p in ports]
            if len(given) != len(rows) or sorted(given) != sorted(want):
                problems.append(
                    f"{_at(span)}machine {name!r}: {what} for {row_state!r} must "
                    f"assign exactly the ports {want!r}"
                )
                return None
            vals = []
            for p in ports:
                v = given[p.name]
                if v not in r.sets[p.set_name]:
                    problems.append(
                        f"{_at(span)}machine {name!r}: {v!r} is not in set "
                        f"{p.set_name!r}"
                    )
                    return None
                vals.append(v)
            return _join(vals)

        readout = {}
        for row in m.readouts:
            if row.state not in states:
                problems.append(
                    f"{_at(row.span)}machine {name!r}: readout for unknown state "
                    f"{row.state!r}"
                )
                continue
            if row.state in readout:
                problems.append(
                    f"{_at(row.span)}machine {name!r}: duplicate readout for "
                    f"{row.state!r}"
                )
                continue
            v = valuation_label(row.valuation, out_ports, "readout", row.state, row.span)
            if v is not None:
                readout[row.state] = v
        for s in states:
            if s not in readout:
                problems.append(f"{loc}machine {name!r}: missing readout for {s!r}")

        update = {}
        for row in m.updates:
            if row.state not in states:
                problems.append(
                    f"{_at(row.span)}machine {name!r}: update for unknown state "
                    f"{row.state!r}"
                )
                continue
            if row.next_state not in states:
                problems.append(
                    f"{_at(row.span)}machine {name!r}: next state "
                    f"{row.next_state!r} is not a state"
                )
                continue
            v = valuation_label(row.valuation, in_ports, "update", row.state, row.span)
            if v is None:
                continue
            if (v, row.state) in update:
                problems.append(
                    f"{_at(row.span)}machine {name!r}: duplicate update for "
                    f"({row.state!r}, {v!r})"
                )
                continue
            update[(v, row.state)] = row.next_state
        input_set = _product_set([r.sets[p.set_name] for p in in_ports])
        for a in input_set.elements:
            for s in states:
                if (a, s) not in update:
                    problems.append(
                        f"{loc}machine {name!r}: missing update for ({s!r}, {a!r})"
                    )
        if len(problems) > before:
            continue

        output_set = _product_set([r.sets[p.set_name] for p in out_ports])
        machine = MooreMachine.from_tables(
            states, input_set, output_set, readout, update, m.init
        )
        out.append((name, machine))
    if problems:
        raise ValueError("; ".join(problems))
    return out


def compile_system(spec: WiringSpec) -> tuple[MDDS, str]:
    """A runnable system for a fully tabulated diagram, plus its start state.

    Every box must carry a machine table.  The system's state comonoid
    is contractible on the product of the machine state sets, and the
    start state is the tuple of init states.  The dynamics is the wiring
    lens after the tensor of the machine lenses, read one state tuple at
    a time: the machines' readouts pick a position of the wiring lens,
    whose outer directions route to per-box inputs, and the machines'
    updates give the next state tuple.  That tensor of machine lenses,
    with a row over every inner direction at each state tuple, is never
    built; the wiring lens from compile_wiring still is, so its inner
    interface bounds the size that compiles.
    """
    wiring = compile_wiring(spec)
    machines = dict(compile_machines(spec))
    decls = spec.boxes()
    missing = [name for name in decls if name not in machines]
    if missing:
        box = decls[missing[0]]
        raise ValueError(f"{_at(box.span)}no machine table for box {box.name!r}")
    boxes = [machines[name] for name in decls]
    n = len(boxes)
    state = contractible(_product_set([m.states for m in boxes]))
    on_pos = {}
    on_dir = {}
    for s in state.carrier.position_labels:
        parts = _split(s, n)
        pos = _join([m.readout(p) for m, p in zip(boxes, parts)])
        on_pos[s] = wiring.on_pos[pos]
        row = {}
        for d, e in wiring.on_dir[pos].items():
            row[d] = _join(
                [m.update(pair_label(a, p)) for m, a, p in zip(boxes, _split(e, n), parts)]
            )
        on_dir[s] = row
    dynamics = Lens(state.carrier, wiring.cod, on_pos, on_dir)
    return MDDS(state, wiring.cod, dynamics), _join([m.initial for m in boxes])


# ---------------------------------------------------------------------------
# The sections kept in polydyn._wiring_cold, loaded on first use.

_COLD_NAMES, __getattr__, __dir__ = _lazy_names(
    globals(),
    "polydyn._wiring_cold",
    "_print_ports _print_valuation print_spec random_spec",
)
