"""The cold half of polydyn.wiring, compiled on first use.

The pretty-printer (print_spec) and the generator of random well-formed
specs for fuzzing the compiler (random_spec).  No pipeline of the package
calls them, so polydyn.wiring loads this module only when one of these
names is first read from it; import them from polydyn.wiring.
"""

from __future__ import annotations

import random
from typing import Sequence

from polydyn.wiring import (
    BoxDecl,
    Connect,
    Default,
    MachineDecl,
    ModeBlock,
    ModesDecl,
    OuterDecl,
    PortDecl,
    SetDecl,
    WiringSpec,
)


# ---------------------------------------------------------------------------
# Pretty-printing.  parse(print_spec(spec)) == spec for any valid AST.


def _print_ports(ports: Sequence[PortDecl]) -> list[str]:
    return [f"  {p.kind} {p.name} : {p.set_name};" for p in ports]


def _print_valuation(valuation: Sequence[tuple[str, str]]) -> str:
    return "(" + ", ".join(f"{p} = {v}" for p, v in valuation) + ")"


def print_spec(spec: WiringSpec) -> str:
    """Render an AST back to canonical program text."""
    chunks = []
    for s in spec.statements:
        if isinstance(s, SetDecl):
            chunks.append(f"set {s.name} = {{{', '.join(s.elements)}}}")
        elif isinstance(s, (BoxDecl, OuterDecl)):
            kw = "outer" if isinstance(s, OuterDecl) else "box"
            lines = [f"{kw} {s.name} {{"] + _print_ports(s.ports) + ["}"]
            chunks.append("\n".join(lines))
        elif isinstance(s, Connect):
            chunks.append(
                f"connect {s.src_owner}.{s.src_port} -> {s.dst_owner}.{s.dst_port}"
            )
        elif isinstance(s, Default):
            chunks.append(f"default {s.owner}.{s.port} = {s.value}")
        elif isinstance(s, ModesDecl):
            lines = [f"modes from {s.box} {{"]
            for b in s.blocks:
                lines.append(f"  mode {b.label} {{")
                for c in b.connects:
                    lines.append(
                        f"    connect {c.src_owner}.{c.src_port} -> "
                        f"{c.dst_owner}.{c.dst_port}"
                    )
                lines.append("  }")
            lines.append("}")
            chunks.append("\n".join(lines))
        elif isinstance(s, MachineDecl):
            lines = [f"machine {s.box} {{"]
            lines.append(f"  states = {{{', '.join(s.states)}}};")
            lines.append(f"  init = {s.init};")
            for r in s.readouts:
                lines.append(f"  readout {r.state} = {_print_valuation(r.valuation)}")
            for u in s.updates:
                lines.append(
                    f"  update {u.state} {_print_valuation(u.valuation)} = {u.next_state}"
                )
            lines.append("}")
            chunks.append("\n".join(lines))
        else:
            raise ValueError(f"unknown statement {s!r}")
    return "\n\n".join(chunks) + ("\n" if chunks else "")


# ---------------------------------------------------------------------------
# Random well-formed specs, for fuzzing the compiler.


def random_spec(rng: random.Random) -> WiringSpec:
    """A random valid spec: every input driven or defaulted in every mode."""
    stmts = []
    sets = []
    for i in range(rng.randint(1, 3)):
        elements = tuple(f"e{i}{j}" for j in range(rng.randint(1, 2)))
        sets.append(SetDecl(f"T{i}", elements))
    stmts.extend(sets)
    set_names = [s.name for s in sets]
    elements_of = {s.name: s.elements for s in sets}

    boxes = []
    for i in range(rng.randint(1, 3)):
        ports = []
        for j in range(rng.randint(0, 2)):
            ports.append(PortDecl("out", f"o{j}", rng.choice(set_names)))
        for j in range(rng.randint(0, 2)):
            ports.append(PortDecl("in", f"i{j}", rng.choice(set_names)))
        boxes.append(BoxDecl(f"B{i}", tuple(ports)))
    stmts.extend(boxes)

    out_sources = {}
    for b in boxes:
        for p in b.ports:
            if p.kind == "out":
                out_sources.setdefault(p.set_name, []).append((b.name, p.name))

    outer_ports = []
    for j in range(rng.randint(0, 2)):
        outer_ports.append(PortDecl("in", f"x{j}", rng.choice(set_names)))
    candidates = [t for t in set_names if t in out_sources]
    for j in range(rng.randint(0, 2) if candidates else 0):
        outer_ports.append(PortDecl("out", f"y{j}", rng.choice(candidates)))
    outer = OuterDecl("Top", tuple(outer_ports))
    stmts.append(outer)

    in_sources = {}
    for p in outer_ports:
        if p.kind == "in":
            in_sources.setdefault(p.set_name, []).append((outer.name, p.name))

    mode_candidates = [
        b for b in boxes if len([p for p in b.ports if p.kind == "out"]) == 1
    ]
    mode_box = None
    mode_labels = []
    if mode_candidates and rng.random() < 0.5:
        mode_box = rng.choice(mode_candidates)
        port = next(p for p in mode_box.ports if p.kind == "out")
        mode_labels = list(elements_of[port.set_name])

    base = []
    per_mode = {label: [] for label in mode_labels}
    defaults = []
    for b in boxes:
        for p in b.ports:
            if p.kind != "in":
                continue
            sources = out_sources.get(p.set_name, []) + in_sources.get(
                p.set_name, []
            )
            style = rng.random()
            if not sources or style < 0.3:
                defaults.append(
                    Default(b.name, p.name, rng.choice(elements_of[p.set_name]))
                )
            elif mode_labels and style < 0.6:
                for label in mode_labels:
                    so, sp = rng.choice(sources)
                    per_mode[label].append(Connect(so, sp, b.name, p.name))
            else:
                so, sp = rng.choice(sources)
                base.append(Connect(so, sp, b.name, p.name))
    for p in outer_ports:
        if p.kind == "out":
            so, sp = rng.choice(out_sources[p.set_name])
            base.append(Connect(so, sp, outer.name, p.name))
    stmts.extend(base)
    stmts.extend(defaults)
    if mode_labels:
        blocks = tuple(
            ModeBlock(label, tuple(per_mode[label])) for label in mode_labels
        )
        stmts.append(ModesDecl(mode_box.name, blocks))
    return WiringSpec(tuple(stmts))
