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
the iterated substitution power of the interface.  One loop, _run,
checks and steps every run: run_open, run_closed, step and trace_history
all call it, and at each state it accepts the directions at the position
that state emits, so what a run may consume next depends on its mode.

No pipeline of the package calls the following, so their code sits in
polydyn._dynamics_cold and is compiled only when one of their names is
first read from this module:
  strategy trees (StrategyTree, step, unroll)
  Moore machines as lenses (moore_to_lens, lens_to_moore, moore_to_mdds)
  and run_moore
  combining systems (overlay, juxtapose, apply_wiring) and trace_history
  the exports (trace_to_json, trace_to_csv, strategy_tree_to_json,
  strategy_tree_to_dot)
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
    _as_finset,
    _lazy_names,
    _require,
    pair_label,
    tag_label,
)
from polydyn.comonoid import Comonoid

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
        s = _as_finset(states)
        a = _as_finset(inputs)
        b = _as_finset(outputs)
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
    The run loop, _run, builds its traces with _from_run instead, which
    relies on these holding by construction and checks nothing.
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
        (s, on_pos[s], x) whose direction x is one of the interface's
        directions at the position on_pos[s], so a str and never None;
        the final entry's direction is None; and final_state is the state
        of that final entry, both written at once.
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
# Running systems.


def _check_state(sys: MDDS, s: str) -> None:
    if s not in sys.state.carrier._dirs:
        raise ValueError(f"unknown state {s!r}")


# Key under which each row of _run records its own (state, history); no
# input can equal it.
_AT = object()


def _run(sys: MDDS, inputs: Iterable[str], start: str) -> Trace:
    """The one loop of run_open, run_closed, step and trace_history.

    It refuses a str of inputs (TypeError) and an unknown start state
    (ValueError).  Read per state, the system is the coalgebra
    S → B × S^A.  The loop walks rows keyed by the pair (state, history),
    where the history is the state-category morphism traced so far: each
    row maps an input a to (trace entry, next row), so a step is one dict
    lookup.  A row records its own (state, history) under a private key,
    which the end of the loop reads for the final readout.  Keying by the
    pair, not by the history alone, keeps the run right when a caller has
    changed a table so that a history no longer fixes its state.

    A row entry is filled the first time the run reads that input there,
    from two lazier tables.  Each state gets one transition row, filled
    on the first visit: for every direction x at the position b the state
    emits, ((s, b, x), pulled-back direction e, next state).  So the
    inputs legal at a state are those of its mode, and any other input is
    a missing key there (ValueError naming the input and the position).
    The history is folded through the start's composite table curried by
    direction: the fold of e maps a history acc to composite[acc, e], and
    each of its entries is filled the first time the run meets that pair,
    where a pair missing from the table raises its KeyError.  All of these belong to this call alone, so a table
    changed between calls is read afresh by the next one, and the work on
    the composite table grows only with the distinct (history, direction)
    pairs the run meets.
    """
    if isinstance(inputs, str):
        raise TypeError("inputs must be an iterable of input labels, not a str")
    _check_state(sys, start)
    on_pos = sys.dynamics.on_pos
    on_dir = sys.dynamics.on_dir
    dirs = sys.interface._dirs
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
            for x in dirs[b].elements:
                e = pulled[x]
                row[x] = ((s, b, x), e, succ[e])
        if a not in row:
            raise ValueError(
                f"unknown input element {a!r}: not available at position {on_pos[s]!r}"
            )
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
    _require(steps, int, "steps")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    return _run(sys, itertools.repeat("*", steps), start)


def run_open(sys: MDDS, inputs: Iterable[str], start: str) -> Trace:
    """Feed an input stream to a system, whatever its interface.

    Each input must be a direction at the position the current state
    emits, so what is legal follows the mode.  A str is refused with a
    TypeError rather than run as its characters.
    """
    return _run(sys, inputs, start)


# ---------------------------------------------------------------------------
# The sections kept in polydyn._dynamics_cold, loaded on first use.

_COLD_NAMES, __getattr__, __dir__ = _lazy_names(
    globals(),
    "polydyn._dynamics_cold",
    """
    StrategyTree moore_to_lens lens_to_moore moore_to_mdds run_moore
    step unroll overlay juxtapose apply_wiring trace_history
    trace_to_json trace_to_csv strategy_tree_to_json _dot_quote
    strategy_tree_to_dot
    """,
)
