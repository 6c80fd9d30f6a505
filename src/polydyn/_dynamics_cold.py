"""The cold half of polydyn.dynamics, compiled on first use.

Strategy trees with stepping and unrolling, Moore machines as lenses and
run_moore, combining systems (overlay, juxtapose, apply_wiring),
trace_history, and the exports of traces and strategy trees.  No pipeline
of the package calls them, so polydyn.dynamics loads this module only
when one of these names is first read from it; import them from
polydyn.dynamics.
"""

from __future__ import annotations

from typing import Sequence

from polydyn.core import (
    FinSet,
    Lens,
    _require,
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
from polydyn.comonoid import _observation_label, _observations, comonoid_tensor, contractible
from polydyn.dynamics import (
    MDDS,
    MooreMachine,
    Trace,
    _check_state,
    _run,
)


# ---------------------------------------------------------------------------
# Observation trees.


class StrategyTree:
    """A uniform-depth observation tree over an interface.

    The depth-0 tree is empty (no position).  A tree of depth k ≥ 1 has a
    position and one branch per direction available there, each of depth
    k−1; at depth 1 all branches point at the empty tree.  The branch
    insertion order is the interface's direction order, which to_label
    relies on to reproduce the structured element labels of the iterated
    substitution power.  Trees are read-only: unroll builds one node per
    (state, depth) and hangs it under every branch that reaches it, so a
    node keeps its hash once computed.  ==, hash, to_label, the JSON and
    dot exports, pickle and copy.deepcopy visit each distinct node once,
    without recursion; a pickled or copied tree shares its nodes as the
    original does.
    """

    __slots__ = ("depth", "position", "branches", "_hash")

    def __init__(self, depth: int, position=None, branches=None):
        # unlike the entry points, a node takes a bool depth as the int it
        # stands for
        if isinstance(depth, bool):
            depth = int(depth)
        _require(depth, int, "depth")
        if depth < 0:
            raise ValueError("depth must be non-negative")
        self._hash = None
        if depth == 0:
            if position is not None or branches is not None:
                raise ValueError("the depth-0 tree has no position and no branches")
            self.depth, self.position, self.branches = 0, None, None
            return
        if not isinstance(position, str):
            raise ValueError("a tree of positive depth needs a position label")
        branches = dict(branches if branches is not None else {})
        for d, t in branches.items():
            _require(d, str, "direction")
            if not isinstance(t, StrategyTree):
                raise ValueError(f"branch {d!r} is not a StrategyTree")
            if t.depth != depth - 1:
                raise ValueError(f"branch {d!r} has depth {t.depth}, expected {depth - 1}")
        self.depth, self.position, self.branches = depth, position, branches

    @classmethod
    def empty(cls) -> "StrategyTree":
        return cls(0)

    def _upwards(self, done) -> list:
        """The distinct nodes reachable from this one without passing a
        node for which done(node) holds, shallowest first."""
        found, stack = {}, [self]
        while stack:
            t = stack.pop()
            if id(t) not in found and not done(t):
                found[id(t)] = t
                if t.depth:
                    stack.extend(t.branches.values())
        return sorted(found.values(), key=lambda t: t.depth)

    def _nodes(self) -> list:
        """Each distinct node reachable from this one, once, as (depth,
        position, branches), every branch an index into the list; nodes
        come shallowest first, so each follows its branches, this one last."""
        nodes = self._upwards(lambda t: False)
        index = {id(t): i for i, t in enumerate(nodes)}
        return [
            (t.depth, t.position, t.branches and {d: index[id(u)] for d, u in t.branches.items()})
            for t in nodes
        ]

    @classmethod
    def _from_nodes(cls, nodes: list) -> "StrategyTree":
        """The tree a _nodes listing describes, each node built once."""
        built = []
        for depth, position, branches in nodes:
            branches = branches and {d: built[i] for d, i in branches.items()}
            built.append(cls(depth, position, branches))
        return built[-1]

    def to_label(self) -> str:
        """The structured element label this tree denotes.

        Depth 0 is the unique element "*", depth 1 is the bare position,
        and deeper trees render as pair(position, branch table).
        """
        labels = []
        for depth, position, branches in self._nodes():
            table = branches and {d: labels[i] for d, i in branches.items()}
            labels.append(_observation_label(depth, position, table))
        return labels[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, StrategyTree):
            return NotImplemented
        # compare each pair of nodes once, however many paths reach it
        seen = set()
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if a.depth != b.depth or a.position != b.position:
                return False
            if a.depth:
                if a.branches.keys() != b.branches.keys():
                    return False
                pairs.extend((t, b.branches[d]) for d, t in a.branches.items())
        return True

    def __hash__(self) -> int:
        if self._hash is None:
            # the branches are hashed first, so no hash recurses
            for t in self._upwards(lambda t: t._hash is not None):
                if t.depth == 0:
                    t._hash = hash((0,))
                else:
                    items = frozenset(t.branches.items())
                    t._hash = hash((t.depth, t.position, items))
        return self._hash

    def __reduce__(self):
        # no recursion, shared nodes stay shared, and the kept hash is left
        # out: string hashes differ between processes
        return StrategyTree._from_nodes, (self._nodes(),)

    def __repr__(self) -> str:
        if self.depth == 0:
            return "StrategyTree(0)"
        return f"StrategyTree(depth={self.depth}, position={self.position!r})"


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
    update = {(a, s): f.on_dir[s][a] for a in inputs.elements for s in states.elements}
    return MooreMachine.from_tables(states, inputs, outputs, f.on_pos, update, initial)


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
# Stepping, unrolling and tracing a general system.


def step(sys: MDDS, s: str, d: str) -> tuple[str, str]:
    """One move of a system: emit, then update.

    Returns (emitted position, next state): the first entry's position
    and the final state of the run from s over the one direction d, so
    any state comonoid works and the next state is the codomain of the
    pulled-back direction.  Raises when d is not legal at the emitted
    position — which directions are available depends on the position,
    and that is the whole point of mode dependence.
    """
    t = _run(sys, (d,), s)
    return t.steps[0][1], t.final_state


def unroll(sys: MDDS, s: str, depth: int) -> StrategyTree:
    """The depth-n observation tree of a state.

    Root carries the emitted position; the branch at each direction is
    the unrolling of the state that direction leads to, one level
    shallower.  The tree's to_label() is exactly the value the n-step
    behavior map assigns to s: both are built by _observations, once
    per (state, depth), so the tree has at most |S|·depth distinct nodes.
    """
    _require(depth, int, "depth")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    _check_state(sys, s)
    empty = StrategyTree.empty()
    return _observations(sys.state, sys.dynamics, sys.interface, empty, StrategyTree)(s, depth)


def trace_history(sys: MDDS, s0: str, directions: Sequence[str]) -> str:
    """The state-category morphism a direction sequence traces out.

    This is the history of the run from s0 over the directions: the same
    loop (_run) as run_open, so a direction not available at the position
    the current state emits raises its ValueError, and a str of
    directions its TypeError.  With no directions it is the identity
    morphism at s0; otherwise the composite of the pulled-back
    directions.  The result is the morphism's label in
    comonoid_to_category(sys.state).
    """
    return _run(sys, directions, s0).history


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
    """The tree as {"depth": n, "nodes": [...]}: each distinct node once,
    as {"depth": 0} or {"depth", "position", "branches"}, each branch the
    index of its node.  Nodes follow their branches, and the root is last.
    """
    nodes = [
        {"depth": k, "position": b, "branches": bs} if k else {"depth": 0}
        for k, b, bs in t._nodes()
    ]
    return {"depth": t.depth, "nodes": nodes}


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def strategy_tree_to_dot(t: StrategyTree) -> str:
    """Graphviz text: nodes show positions, edges show directions.

    Each distinct node of positive depth is written once, numbered from
    the root n0, then the edges between them.
    """
    nodes = t._nodes()
    # numbered root first; the depth-0 nodes, listed first, are left out
    names = {i: f"n{len(nodes) - 1 - i}" for i, (depth, _, _) in enumerate(nodes) if depth}
    lines = ["digraph strategy {"]
    lines += [f"  {names[i]} [label={_dot_quote(nodes[i][1])}];" for i in reversed(names)]
    lines += [f"  {names[i]} -> {names[j]} [label={_dot_quote(d)}];"
              for i in reversed(names) for d, j in nodes[i][2].items() if j in names]
    lines.append("}")
    return "\n".join(lines) + "\n"
