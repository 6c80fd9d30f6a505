"""Moore machines, mode-dependent dynamical systems, and simulation.

A dynamical system here is a state comonoid together with a lens from its
carrier to an interface polynomial: the lens emits the current position
(the mode) and pulls each direction legal at that position back to a
direction of the carrier, which the comultiplication resolves to the next
state.  Moore machines are the special case of a contractible state
comonoid and a monomial interface, where every input is legal in every
state and directions simply are states.

Runs produce Trace values (one step per consumed direction plus a final
readout) and unrolling produces StrategyTree values, the finite-depth
observation trees whose structured labels are exactly the elements of
the iterated substitution power of the interface.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from polydyn.core import (
    FinPoly,
    FinSet,
    Lens,
    SetFn,
    Y,
    fn_label,
    is_monomial,
    lens_compose,
    monomial,
    pair_label,
    tag_label,
)
from polydyn.algebra import (
    poly_product,
    poly_tensor,
    product_pair,
    tensor_map,
)
from polydyn.comonoid import Comonoid, comonoid_tensor, contractible

__all__ = [
    "MooreMachine",
    "MDDS",
    "StrategyTree",
    "Trace",
    "input_state_pairs",
    "moore_to_lens",
    "lens_to_moore",
    "moore_to_mdds",
    "run_moore",
    "step",
    "unroll",
    "overlay",
    "juxtapose",
    "apply_wiring",
    "run_closed",
    "run_open",
    "trace_history",
    "trace_to_json",
    "trace_to_csv",
    "strategy_tree_to_json",
    "strategy_tree_to_dot",
]


def input_state_pairs(inputs: FinSet, states: FinSet) -> FinSet:
    """The product set A×S with elements pair_label(a, s), inputs outermost."""
    return FinSet(
        tuple(pair_label(a, s) for a in inputs.elements for s in states.elements)
    )


class MooreMachine:
    """States, inputs, outputs, a readout S→B, an update A×S→S, a start state.

    The update's domain is the product set from input_state_pairs, so its
    table is keyed by pair labels "(a,s)".  from_tables accepts plain
    (a, s) tuples and builds that encoding.
    """

    def __init__(
        self,
        states: FinSet,
        inputs: FinSet,
        outputs: FinSet,
        readout: SetFn,
        update: SetFn,
        initial: str,
    ):
        if readout.dom != states or readout.cod != outputs:
            raise ValueError("readout must be a function states → outputs")
        if update.dom != input_state_pairs(inputs, states) or update.cod != states:
            raise ValueError("update must be a function inputs×states → states")
        if initial not in states:
            raise ValueError(f"initial state {initial!r} is not a state")
        self.states = states
        self.inputs = inputs
        self.outputs = outputs
        self.readout = readout
        self.update = update
        self.initial = initial

    @classmethod
    def from_tables(
        cls,
        states: Iterable[str],
        inputs: Iterable[str],
        outputs: Iterable[str],
        readout: Mapping[str, str],
        update: Mapping[tuple[str, str], str],
        initial: str,
    ) -> "MooreMachine":
        s = FinSet(tuple(states))
        a = FinSet(tuple(inputs))
        b = FinSet(tuple(outputs))
        r = SetFn(s, b, dict(readout))
        table = {pair_label(x, q): v for (x, q), v in update.items()}
        u = SetFn(input_state_pairs(a, s), s, table)
        return cls(s, a, b, r, u, initial)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MooreMachine):
            return NotImplemented
        return (
            self.states == other.states
            and self.inputs == other.inputs
            and self.outputs == other.outputs
            and self.readout == other.readout
            and self.update == other.update
            and self.initial == other.initial
        )

    def __hash__(self) -> int:
        return hash((self.states, self.inputs, self.outputs, self.readout, self.update, self.initial))

    def __repr__(self) -> str:
        return (
            f"MooreMachine(|S|={len(self.states)}, |A|={len(self.inputs)}, "
            f"|B|={len(self.outputs)}, initial={self.initial!r})"
        )


class MDDS:
    """A mode-dependent dynamical system: state comonoid, interface, dynamics.

    Only the shape is enforced: the dynamics lens runs from the comonoid
    carrier to the interface.  There is no built-in start state; the run
    functions take one explicitly.
    """

    def __init__(self, state: Comonoid, interface: FinPoly, dynamics: Lens):
        if dynamics.dom != state.carrier:
            raise ValueError("dynamics must start at the state comonoid's carrier")
        if dynamics.cod != interface:
            raise ValueError("dynamics must land in the interface")
        self.state = state
        self.interface = interface
        self.dynamics = dynamics

    def __eq__(self, other) -> bool:
        if not isinstance(other, MDDS):
            return NotImplemented
        return (
            self.state == other.state
            and self.interface == other.interface
            and self.dynamics == other.dynamics
        )

    def __hash__(self) -> int:
        return hash((self.state, self.interface, self.dynamics))

    def __repr__(self) -> str:
        return f"MDDS(states={self.state.carrier!s}, interface={self.interface!s})"


class StrategyTree:
    """A uniform-depth observation tree over an interface.

    The depth-0 tree is empty (no position).  A tree of depth k ≥ 1 has a
    position and one branch per direction available there, each of depth
    k−1; at depth 1 all branches point at the empty tree.  The branch
    insertion order is the interface's direction order, which to_label
    relies on to reproduce the structured element labels of the iterated
    substitution power.
    """

    __slots__ = ("depth", "position", "branches")

    def __init__(self, depth: int, position=None, branches=None):
        depth = int(depth)
        if depth < 0:
            raise ValueError("depth must be non-negative")
        if depth == 0:
            if position is not None or branches is not None:
                raise ValueError("the depth-0 tree has no position and no branches")
            self.depth = 0
            self.position = None
            self.branches = None
            return
        if not isinstance(position, str):
            raise ValueError("a tree of positive depth needs a position label")
        branches = dict(branches if branches is not None else {})
        for d, t in branches.items():
            if not isinstance(t, StrategyTree):
                raise ValueError(f"branch {d!r} is not a StrategyTree")
            if t.depth != depth - 1:
                raise ValueError(
                    f"branch {d!r} has depth {t.depth}, expected {depth - 1}"
                )
        self.depth = depth
        self.position = position
        self.branches = branches

    @classmethod
    def empty(cls) -> "StrategyTree":
        return cls(0)

    def to_label(self) -> str:
        """The structured element label this tree denotes.

        Depth 0 is the unique element "*", depth 1 is the bare position,
        and deeper trees render as pair(position, branch table).
        """
        if self.depth == 0:
            return "*"
        if self.depth == 1:
            return self.position
        table = {d: t.to_label() for d, t in self.branches.items()}
        return pair_label(self.position, fn_label(table, list(self.branches)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StrategyTree):
            return NotImplemented
        return (
            self.depth == other.depth
            and self.position == other.position
            and self.branches == other.branches
        )

    def __hash__(self) -> int:
        if self.depth == 0:
            return hash((0,))
        return hash((self.depth, self.position, frozenset(self.branches.items())))

    def __repr__(self) -> str:
        if self.depth == 0:
            return "StrategyTree(0)"
        return f"StrategyTree(depth={self.depth}, position={self.position!r})"


class Trace:
    """A run record: one step per consumed direction, then a final readout.

    steps is a tuple of (state, emitted position, consumed direction); the
    last entry has direction None and repeats nothing — it is the final
    state's readout with no input consumed, so a run over n inputs yields
    n+1 entries and len(trace) == n.  history, when present, is the label
    of the state-category morphism the run traced out.

    The public constructor checks the invariants every trace keeps: at
    least one entry, each entry a triple and not a str (TypeError), the
    last entry's direction None and no other entry's, and final_state the
    state of the last entry.
    run_open and run_closed build their traces with _from_run instead,
    which relies on these holding by construction and checks nothing.
    """

    __slots__ = ("steps", "final_state", "history")

    def __init__(self, steps: Sequence[tuple], final_state: str, history=None):
        steps = tuple(steps)
        for j, entry in enumerate(steps):
            # tuple() would split a string into its characters
            if isinstance(entry, str):
                raise TypeError(f"trace entry {j} is a str, not a triple: {entry!r}")
        # tuple() hands back an exact tuple as it is, so a run's shared
        # entries are not copied; unpacking still demands three items each
        steps = tuple(map(tuple, steps))
        if not steps:
            raise ValueError("a trace records at least the final readout")
        directions = [d for _, _, d in steps]
        if directions.pop() is not None:
            raise ValueError("the last trace entry consumes no direction")
        if None in directions:
            raise ValueError("only the last trace entry may lack a direction")
        if final_state != steps[-1][0]:
            raise ValueError("final_state must agree with the last entry")
        self.steps = steps
        self.final_state = final_state
        self.history = history

    @classmethod
    def _from_run(cls, steps: list, final_state: str, history: str) -> "Trace":
        """Internal constructor for the run loop's entries: no check.

        It relies on what _run guarantees by construction: steps holds at
        least the final readout; every entry is an exact tuple
        (s, on_pos[s], x) whose direction x is a legal input, an element
        of the interface's FinSet or run_closed's "*", so a str and never
        None; the final entry's direction is None; and final_state is the
        state of that final entry, both written at once.
        """
        t = object.__new__(cls)
        t.steps = tuple(steps)
        t.final_state = final_state
        t.history = history
        return t

    def __len__(self) -> int:
        return len(self.steps) - 1

    def states(self) -> tuple:
        return tuple(s for s, _, _ in self.steps)

    def positions(self) -> tuple:
        return tuple(b for _, b, _ in self.steps)

    def directions(self) -> tuple:
        return tuple(d for _, _, d in self.steps[:-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.steps == other.steps
            and self.final_state == other.final_state
            and self.history == other.history
        )

    def __hash__(self) -> int:
        return hash((self.steps, self.final_state, self.history))

    def __repr__(self) -> str:
        return f"Trace(len={len(self)}, final_state={self.final_state!r})"


# ---------------------------------------------------------------------------
# Moore machines as lenses.


def moore_to_lens(m: MooreMachine) -> Lens:
    """The lens S·y^S → B·y^A: forward is the readout, backward the update."""
    dom = monomial(m.states, m.states)
    cod = monomial(m.outputs, m.inputs)
    on_pos = {s: m.readout(s) for s in m.states.elements}
    on_dir = {
        s: {a: m.update(pair_label(a, s)) for a in m.inputs.elements}
        for s in m.states.elements
    }
    return Lens(dom, cod, on_pos, on_dir)


def lens_to_moore(f: Lens, initial: str) -> MooreMachine:
    """Recover the machine from a lens S·y^S → B·y^A.

    The lens carries no start state, so the caller supplies one; with
    that fixed, this inverts moore_to_lens exactly.
    """
    states = f.dom.positions_set()
    for i in f.dom.position_labels:
        if f.dom.directions(i) != states:
            raise ValueError("domain must be S·y^S: every direction set is the state set")
    if not is_monomial(f.cod):
        raise ValueError("codomain must be a monomial B·y^A")
    outputs = f.cod.positions_set()
    if f.cod.num_positions() == 0:
        inputs = FinSet(())
    else:
        inputs = f.cod.directions(f.cod.position_labels[0])
    readout = SetFn(states, outputs, dict(f.on_pos))
    table = {
        pair_label(a, s): f.on_dir[s][a]
        for a in inputs.elements
        for s in states.elements
    }
    update = SetFn(input_state_pairs(inputs, states), states, table)
    return MooreMachine(states, inputs, outputs, readout, update, initial)


def moore_to_mdds(m: MooreMachine) -> MDDS:
    """Wrap a machine as a system: contractible state, monomial interface."""
    return MDDS(
        contractible(m.states), monomial(m.outputs, m.inputs), moore_to_lens(m)
    )


def run_moore(m: MooreMachine, inputs: Sequence[str]) -> Trace:
    """Feed a finite input stream through the machine from its start state."""
    s = m.initial
    steps = []
    for a in inputs:
        if a not in m.inputs:
            raise ValueError(f"unknown input element {a!r}")
        steps.append((s, m.readout(s), a))
        s = m.update(pair_label(a, s))
    steps.append((s, m.readout(s), None))
    return Trace(tuple(steps), s, tag_label(m.initial, s))


# ---------------------------------------------------------------------------
# Stepping and unrolling a general system.


def _check_state(sys: MDDS, s: str) -> None:
    if s not in sys.state.carrier._dirs:
        raise ValueError(f"unknown state {s!r}")


def _pull_direction(sys: MDDS, s: str, d: str) -> str:
    b = sys.dynamics.on_pos[s]
    if d not in sys.interface.directions(b):
        raise ValueError(f"direction {d!r} is not available at position {b!r}")
    return sys.dynamics.on_dir[s][d]


def step(sys: MDDS, s: str, d: str) -> tuple[str, str]:
    """One move of a system with contractible state: emit, then update.

    Returns (emitted position, next state).  Raises when d is not legal
    at the emitted position — which directions are available depends on
    the position, and that is the whole point of mode dependence.
    """
    if not sys.state.is_contractible():
        raise ValueError("step needs a contractible state comonoid")
    _check_state(sys, s)
    b = sys.dynamics.on_pos[s]
    return b, _pull_direction(sys, s, d)


def unroll(sys: MDDS, s: str, depth: int) -> StrategyTree:
    """The depth-n observation tree of a state.

    Root carries the emitted position; the branch at each direction is
    the unrolling of the state that direction leads to, one level
    shallower.  The tree's to_label() is exactly the value the n-step
    behavior map assigns to s.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    _check_state(sys, s)
    f = sys.dynamics
    p = sys.interface
    base = sys.state.base
    codomain = sys.state.codomain
    empty = StrategyTree.empty()

    def grow(state: str, k: int) -> StrategyTree:
        if k == 0:
            return empty
        if k == 1:
            b = f.on_pos[state]
            return StrategyTree(
                1, b, {d: empty for d in p.directions(b).elements}
            )
        s1 = base[state]
        phi = codomain[state]
        b = f.on_pos[s1]
        pulled = f.on_dir[s1]
        branches = {
            d: grow(phi[pulled[d]], k - 1) for d in p.directions(b).elements
        }
        return StrategyTree(k, b, branches)

    return grow(s, depth)


# ---------------------------------------------------------------------------
# Combining systems.


def overlay(sys1: MDDS, sys2: MDDS) -> MDDS:
    """Run two systems on one shared state: the interface product pairing."""
    if sys1.state != sys2.state:
        raise ValueError("overlay needs a shared state comonoid")
    return MDDS(
        sys1.state,
        poly_product(sys1.interface, sys2.interface),
        product_pair(sys1.dynamics, sys2.dynamics),
    )


def juxtapose(sys1: MDDS, sys2: MDDS) -> MDDS:
    """Place two systems side by side: tensor of states and interfaces."""
    return MDDS(
        comonoid_tensor(sys1.state, sys2.state),
        poly_tensor(sys1.interface, sys2.interface),
        tensor_map(sys1.dynamics, sys2.dynamics),
    )


def apply_wiring(w: Lens, sys: MDDS) -> MDDS:
    """Re-house a system behind a wiring lens; plain lens composition."""
    if w.dom != sys.interface:
        raise ValueError("wiring domain must equal the system interface")
    return MDDS(sys.state, w.cod, lens_compose(w, sys.dynamics))


# ---------------------------------------------------------------------------
# Running systems.


# Key under which each row of _run records its own (state, history); no
# input can equal it.
_AT = object()


def _run(sys: MDDS, legal: Sequence[str], inputs: Iterable[str], start: str) -> Trace:
    """The stepping loop of run_open and run_closed.

    Read per state, the system is the coalgebra S → B × S^A.  The loop
    walks rows keyed by the pair (state, history), where the history is
    the state-category morphism traced so far: each row maps an input a
    to (trace entry, next row), so a step is one dict lookup.  A row
    records its own (state, history) under a private key, which the end
    of the loop reads for the final readout.  Keying by the pair, not by
    the history alone, keeps the run right when a caller has changed a
    table so that a history no longer fixes its state.

    A row entry is filled the first time the run reads that input there,
    from two lazier tables.  Each state gets one transition row, filled
    on the first visit: for every legal input x, ((s, b, x), pulled-back
    direction e, next state).  An illegal input is a missing key there
    (ValueError).  The history is folded through the start's composite
    table curried by direction: the fold of e maps a history acc to
    composite[acc, e], and each of its entries is filled the first time
    the run meets that pair, where a pair missing from the table raises
    its KeyError.  All of these belong to this call alone, so a table
    changed between calls is read afresh by the next one, and the work on
    the composite table grows only with the distinct (history, direction)
    pairs the run meets.
    """
    on_pos = sys.dynamics.on_pos
    on_dir = sys.dynamics.on_dir
    codomain = sys.state.codomain
    composite = sys.state.composite[start]
    transitions = {}
    folds = {}
    rows = {}

    def visit(s: str, a: str) -> tuple:
        row = transitions.get(s)
        if row is None:
            b = on_pos[s]
            pulled = on_dir[s]
            succ = codomain[s]
            row = transitions[s] = {}
            for x in legal:
                e = pulled[x]
                row[x] = ((s, b, x), e, succ[e])
        if a not in row:
            raise ValueError(f"unknown input element {a!r}")
        return row[a]

    def fill(here: dict, a: str) -> tuple:
        s, acc = here[_AT]
        entry, e, t = visit(s, a)
        fold = folds.setdefault(e, {})
        if acc in fold:
            acc = fold[acc]
        else:
            # a pair missing from the table raises here; targets bind
            # left to right, so the fold is keyed by the old acc
            fold[acc] = acc = composite[acc, e]
        there = rows.get((t, acc))
        if there is None:
            there = rows[t, acc] = {_AT: (t, acc)}
        here[a] = move = (entry, there)
        return move

    at = (start, sys.state.identity[start])
    here = rows[at] = {_AT: at}
    out = []
    append = out.append
    for a in inputs:
        try:
            entry, here = here[a]
        except KeyError:
            entry, here = fill(here, a)
        append(entry)
    s, acc = here[_AT]
    append((s, on_pos[s], None))
    return Trace._from_run(out, s, tag_label(start, acc))


def run_closed(sys: MDDS, steps: int, start: str) -> Trace:
    """Iterate a closed system (interface y) for a number of steps.

    Each step consumes the unique direction "*"; the successor state is
    read off the state category's codomain table, so any lawful state
    comonoid works.
    """
    if sys.interface != Y:
        raise ValueError("run_closed needs the closed interface y")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    _check_state(sys, start)
    return _run(sys, ("*",), itertools.repeat("*", steps), start)


def run_open(sys: MDDS, inputs: Iterable[str], start: str) -> Trace:
    """Feed an input stream to a system with a monomial interface B·y^A.

    inputs is an iterable of input labels; a str is refused with a
    TypeError rather than run as its characters.
    """
    if isinstance(inputs, str):
        raise TypeError("inputs must be an iterable of input labels, not a str")
    if not is_monomial(sys.interface):
        raise ValueError("run_open needs a monomial interface B·y^A")
    _check_state(sys, start)
    # a monomial interface offers the same inputs at every position
    return _run(sys, sys.interface.directions(sys.interface.position_labels[0]).elements, inputs, start)


def trace_history(sys: MDDS, s0: str, directions: Sequence[str]) -> str:
    """The state-category morphism a direction sequence traces out.

    With no directions this is the identity morphism at s0; otherwise the
    composite of the pulled-back directions, folded through the state
    category's composite table.  The result is the morphism's label in
    comonoid_to_category(sys.state).
    """
    _check_state(sys, s0)
    composite = sys.state.composite[s0]
    s = s0
    acc = sys.state.identity[s0]
    for d in directions:
        e = _pull_direction(sys, s, d)
        acc = composite[(acc, e)]
        s = sys.state.codomain[s][e]
    return tag_label(s0, acc)


# ---------------------------------------------------------------------------
# Exports.


def trace_to_json(t: Trace) -> dict:
    """A plain-dict rendering, ready for json.dumps."""
    return {
        "steps": [
            {"state": s, "position": b, "direction": d} for s, b, d in t.steps
        ],
        "final_state": t.final_state,
        "history": t.history,
    }


def trace_to_csv(t: Trace) -> str:
    """Rows step,state,position,direction; the final row consumes nothing."""
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["step", "state", "position", "direction"])
    for k, (s, b, d) in enumerate(t.steps):
        w.writerow([k, s, b, "" if d is None else d])
    return buf.getvalue()


def strategy_tree_to_json(t: StrategyTree) -> dict:
    if t.depth == 0:
        return {"depth": 0}
    return {
        "depth": t.depth,
        "position": t.position,
        "branches": {d: strategy_tree_to_json(sub) for d, sub in t.branches.items()},
    }


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def strategy_tree_to_dot(t: StrategyTree) -> str:
    """Graphviz text: nodes show positions, edges show directions."""
    lines = ["digraph strategy {"]
    counter = itertools.count()

    def walk(node: StrategyTree) -> str:
        nid = f"n{next(counter)}"
        lines.append(f"  {nid} [label={_dot_quote(node.position)}];")
        for d, child in node.branches.items():
            if child.depth >= 1:
                cid = walk(child)
                lines.append(f"  {nid} -> {cid} [label={_dot_quote(d)}];")
        return nid

    if t.depth >= 1:
        walk(t)
    lines.append("}")
    return "\n".join(lines) + "\n"
