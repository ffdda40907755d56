"""One home per validity rule, checked as a contract with Hypothesis.

``parse_config`` refuses a graph or a signal exactly when the constructor
it builds (``from_edges``, ``AutonomousLinear``, ``PiecewiseConstantRandom``
with its held-value ceiling) refuses the same values, with the
constructor's message under the config path; otherwise it builds what the
constructor builds.  Draws include bools, strings, signed zeros, +-inf and
NaN, integers too large for a float, repeated and reversed edge pairs and
defective transitions.
"""
import copy
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dduio.config import parse_config
from dduio.errors import ConfigError, ConnectivityError, GraphError
from dduio.network import from_edges
from dduio.plant import step_count
from dduio.signals import AutonomousLinear, PiecewiseConstantRandom, held_index

CONTRACT = settings(derandomize=True, max_examples=200, deadline=None, database=None)
PRESET = parse_config({}).resolved_dict()
SEED = 3
TIMES = np.linspace(0.0, 1.0, 101)

# what YAML can put where a number belongs
NON_NUMBERS = st.one_of(st.booleans(), st.none(), st.text(max_size=2), st.just([1.0]),
                        st.just(10 ** 400))
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


def _outcome(build):
    """(the built object, None) or (None, the ValueError or GraphError it raised)."""
    try:
        return build(), None
    except (ValueError, GraphError) as exc:
        return None, exc


def _parsed(raw):
    try:
        return parse_config(raw), None
    except ConfigError as exc:
        return None, exc


# -- graph ------------------------------------------------------------------

SIZE = len(PRESET["plant"]["nodes"])
RING = [[k, k + 1] for k in range(SIZE - 1)]
NODE = st.integers(0, SIZE - 1)
# pairs of nodes: chords, self-loops, and repeats of the ring's pairs, also reversed
PAIR = st.one_of(st.tuples(NODE, NODE).map(list),
                 st.tuples(NODE, NODE, st.floats(0.1, 5.0)).map(list))
INDEX = st.one_of(st.integers(-1, SIZE), st.booleans(), st.sampled_from([1.0, "1"]))
WEIGHT = st.one_of(SPECIAL_FLOATS, NON_NUMBERS, st.integers(-1, 3))
MALFORMED = st.one_of(st.tuples(INDEX, INDEX).map(list), st.tuples(NODE, NODE, WEIGHT).map(list),
                      st.lists(NODE, max_size=4), st.integers(0, SIZE), st.none(),
                      st.text(max_size=2))
CHORD = st.tuples(st.sampled_from([[0, 2], [3, 0], [1, 3], [4, 1], [2, 4]]),
                  st.sampled_from([[], [0.5], [2.0]])).map(lambda pw: pw[0] + pw[1])
ENTRY = st.one_of(CHORD, CHORD, PAIR, PAIR, MALFORMED)
EDGES = st.tuples(st.booleans(), st.lists(ENTRY, max_size=3)).map(
    lambda drawn: (copy.deepcopy(RING) if drawn[0] else []) + drawn[1])


@CONTRACT
@given(edges=EDGES, weight=st.floats(0.1, 5.0))
def test_graph_is_refused_exactly_when_from_edges_refuses(edges, weight):
    graph, refusal = _outcome(lambda: from_edges(SIZE, edges, weight))
    cfg, error = _parsed({"graph": {"size": SIZE, "edges": edges, "weight": weight}})
    if refusal is None:
        assert error is None, error
        assert cfg.graph.adjacency.tobytes() == graph.adjacency.tobytes()
    elif isinstance(refusal, ConnectivityError):
        assert str(error) == f"graph.edges: {refusal}"
    else:
        # each entry name from_edges opens with takes the config path; the values it
        # quotes stay as given
        names, joined, rest = str(refusal).partition(" both join ")
        assert str(error) == (names.replace("edges[", "graph.edges[") + joined + rest if joined
                              else f"graph.{refusal}")


# -- held random signal ----------------------------------------------------

NUMBER = st.one_of(st.floats(-1.0, 1.0), st.integers(-1, 1), SPECIAL_FLOATS)
ORDERED = st.tuples(NUMBER, NUMBER).map(sorted)  # sorted puts a NaN anywhere
BOUNDS = st.one_of(ORDERED, ORDERED, st.tuples(st.one_of(NUMBER, NON_NUMBERS),
                                               st.one_of(NUMBER, NON_NUMBERS)))
HOLD = st.one_of(st.none(), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0), NON_NUMBERS,
                 SPECIAL_FLOATS, st.sampled_from([1, -0.5, 1e-9, 1e-300]))


@CONTRACT
@given(bounds=BOUNDS, hold=HOLD)
def test_held_signal_is_refused_exactly_when_its_generator_refuses(bounds, hold):
    low, high = bounds
    raw = copy.deepcopy(PRESET)
    raw["seed"], raw["run"]["horizon"] = SEED, 1.0
    raw["plant"]["disturbances"][0] = {"kind": "piecewise-constant-random", "low": low,
                                       "high": high, "hold": hold}
    dt = raw["run"]["dt"]
    child = np.random.SeedSequence([SEED, 2]).spawn(1)[0]

    def build():
        gen = PiecewiseConstantRandom(low, high, dt if hold is None else hold, child)
        held_index(step_count(1.0, dt) * dt, gen.hold)  # the run's last sample time
        return gen
    gen, refusal = _outcome(build)
    cfg, error = _parsed(raw)
    if refusal is None:
        assert error is None, error
        (built,) = cfg.build_disturbances(SEED)
        assert built.sample(TIMES).tobytes() == gen.sample(TIMES).tobytes()
    else:
        assert str(error) == f"plant.disturbances[0].{refusal}"


# -- autonomous linear signal ----------------------------------------------

ABSENT = object()
SCALAR = st.one_of(st.floats(-2.0, 2.0), st.integers(-2, 2))
ENTRY_VALUE = st.one_of(SCALAR, SCALAR, SCALAR, SCALAR, SCALAR,
                        st.sampled_from([math.nan, math.inf, True, "1", "x", None]))


def _transition(k: int):
    square = st.lists(st.lists(ENTRY_VALUE, min_size=k, max_size=k), min_size=k, max_size=k)
    # a Jordan block whenever b is nonzero
    defective = st.tuples(SCALAR, st.sampled_from([1.0, 1e-3, -0.0, 0.0])).map(
        lambda ab: [[ab[0], ab[1]], [0.0, ab[0]]])
    odd = st.sampled_from([[[1, 2]], [[1, 2], [3]], [], -0.5, [[[1.0]]], "x"])
    return st.one_of(square, square, square, defective, odd)


def _initial(k: int):
    fits = st.lists(SCALAR, min_size=k, max_size=k)
    odd = st.one_of(st.lists(SCALAR, max_size=3),
                    st.sampled_from([1.0, -0.0, "x", [[1.0], [2.0]], None, ["1"]]))
    return st.one_of(fits, fits, fits, odd)


COMPONENT = st.one_of(st.just(ABSENT), st.just(ABSENT), st.integers(-1, 2), NON_NUMBERS,
                      st.just(1.0))
AUTONOMOUS = st.integers(1, 2).flatmap(lambda k: st.tuples(_transition(k), _initial(k),
                                                           COMPONENT))


@CONTRACT
@given(drawn=AUTONOMOUS)
def test_autonomous_signal_is_refused_exactly_when_its_generator_refuses(drawn):
    transition, initial, component = drawn
    spec = {"kind": "autonomous-linear", "transition": transition, "initial": initial}
    if component is not ABSENT:
        spec["component"] = component
    raw = copy.deepcopy(PRESET)
    raw["seed"], raw["plant"]["inputs"][0] = SEED, spec
    gen, refusal = _outcome(lambda: AutonomousLinear(
        transition, initial, 0 if component is ABSENT else component))
    cfg, error = _parsed(raw)
    if refusal is None:
        assert error is None, error
        built = cfg.build_inputs(SEED)[0]
        assert built.sample(TIMES).tobytes() == gen.sample(TIMES).tobytes()
    else:
        assert str(error) == f"plant.inputs[0].{refusal}"
