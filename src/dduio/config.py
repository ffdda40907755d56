"""Experiment configuration: schema, validation, and resolution.

One YAML file drives the whole pipeline.  Unknown keys are rejected and
every default is recorded into the resolved configuration that commands
write next to their outputs, so any run is reproducible from its
artifacts alone.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .datagen import DEFAULT_SAMPLE_INTERVAL, DEFAULT_SUBSTEPS
from .design_data import DEFAULT_RESIDUAL_RTOL
from .design_model import DEFAULT_DECAY, DEFAULT_GAMMA_MARGIN
from .errors import ConfigError, ConnectivityError, DimensionError, RankError
from .linalg import DEFAULT_RANK_MULTIPLIER
from .network import GENERATORS, SensorGraph, build_laplacian, from_edges
from .plant import PlantModel
from .signals import AutonomousLinear, PiecewiseConstantRandom, Sinusoid, Zero

# Required and optional parameter keys of each signal kind.
_SIGNAL_KEYS = {
    "sinusoid": (("amplitude", "frequency"), ("phase",)),
    "autonomous-linear": (("transition", "initial"), ("component",)),
    "piecewise-constant-random": (("low", "high"), ("hold",)),
    "zero": ((), ()),
}
# Signal parameters that must be finite numbers whenever they are given.
_NUMERIC_PARAMS = ("amplitude", "frequency", "phase", "low", "high")
DESIGN_METHODS = ("model", "data", "id")
_Z0_POLICIES = ("zero", "matched")


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _check_keys(section, required: tuple, optional: tuple, where: str) -> None:
    """Reject a non-mapping, unknown keys, and missing required keys."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping, got {section!r}")
    _require_keys(section, {*required, *optional}, where)
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {missing}")


def _matrix(value, where: str) -> np.ndarray:
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: not a numeric matrix: {exc}") from exc
    return m


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Each kind of valid value, keyed by the wording of the error that rejects
# any other value; NaN fails every comparison.
_KINDS = {
    "a positive integer": lambda v: _is_int(v) and v > 0,
    "an integer >= 0": lambda v: _is_int(v) and v >= 0,
    "a finite number": lambda v: _is_number(v) and -math.inf < v < math.inf,
    "a finite number > 0": lambda v: _is_number(v) and 0 < v < math.inf,
    "a finite number >= 0": lambda v: _is_number(v) and 0 <= v < math.inf,
    "null or a finite number > 0": lambda v: v is None or (_is_number(v) and 0 < v < math.inf),
    "true or false": lambda v: isinstance(v, bool),
    f"one of {list(_Z0_POLICIES)}": lambda v: v in _Z0_POLICIES,
}


def _check(value, kind: str, where: str) -> None:
    if not _KINDS[kind](value):
        raise ConfigError(f"{where} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class SignalSpec:
    """Declarative form of one scalar signal channel."""

    kind: str
    params: dict = field(default_factory=dict)

    def build(self, seed, default_hold: float):
        p = self.params
        if self.kind == "zero":
            return Zero()
        if self.kind == "sinusoid":
            return Sinusoid(p["amplitude"], p["frequency"], p.get("phase", 0.0))
        if self.kind == "autonomous-linear":
            initial = p["initial"]
            if isinstance(initial, dict):
                lo, hi = initial["uniform"]
                k = np.atleast_2d(np.asarray(p["transition"], dtype=float)).shape[0]
                initial = np.random.default_rng(seed).uniform(lo, hi, k)
            return AutonomousLinear(p["transition"], initial, p.get("component", 0))
        if self.kind == "piecewise-constant-random":
            hold = default_hold if p.get("hold") is None else p["hold"]
            return PiecewiseConstantRandom(p["low"], p["high"], hold, seed)
        raise ConfigError(f"unknown signal kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}


def _check_range(value, where: str) -> None:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(_KINDS["a finite number"], value)) and value[0] <= value[1]):
        raise ConfigError(f"{where} must be two finite numbers lo <= hi, got {value!r}")


def _check_autonomous(spec: dict, where: str) -> None:
    """A square transition, with an initial state and a component that fit it."""
    shape = np.atleast_2d(_matrix(spec["transition"], f"{where}.transition")).shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ConfigError(f"{where}.transition must be a square matrix, "
                          f"got {spec['transition']!r}")
    k, initial, component = shape[0], spec["initial"], spec.get("component", 0)
    if isinstance(initial, dict):
        _check_keys(initial, ("uniform",), (), f"{where}.initial")
        _check_range(initial["uniform"], f"{where}.initial.uniform")
    elif np.atleast_1d(_matrix(initial, f"{where}.initial")).shape != (k,):
        raise ConfigError(f"{where}.initial must be {k} numbers, got {initial!r}")
    if not (_is_int(component) and 0 <= component < k):
        raise ConfigError(f"{where}.component must be an integer in [0, {k}), got {component!r}")


def _parse_signal(spec: dict, where: str) -> SignalSpec:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where}: a signal needs a 'kind' field")
    kind = spec["kind"]
    if kind not in _SIGNAL_KEYS:
        raise ConfigError(f"{where}: unknown signal kind {kind!r}; "
                          f"choose from {tuple(_SIGNAL_KEYS)}")
    required, optional = _SIGNAL_KEYS[kind]
    _check_keys(spec, ("kind", *required), optional, where)
    if kind == "autonomous-linear":
        _check_autonomous(spec, where)
    for key in _NUMERIC_PARAMS:
        if key in spec:
            _check(spec[key], "a finite number", f"{where}.{key}")
    if kind == "piecewise-constant-random":
        if spec["low"] > spec["high"]:
            raise ConfigError(f"{where}: low {spec['low']!r} exceeds high {spec['high']!r}")
        # null holds the signal for one run.dt
        _check(spec.get("hold"), "null or a finite number > 0", f"{where}.hold")
    return SignalSpec(kind=kind, params={k: v for k, v in spec.items() if k != "kind"})


# The paper's numerical example in the explicit plant form: a four-state
# two-mass-spring system observed by five nodes.  Input 0 is known to
# every node, input 1 to none; each node sees that unknown column through
# its own scale.  The known input follows u(k+1) = 0.5 u(k) between
# samples, i.e. u' = ln(0.5) u.
PRESETS = {
    "two-mass-spring": {
        "A": [[0.0, 1.0, 0.0, 0.0],
              [-5.3333, 0.0, 2.6667, 0.0],
              [0.0, 0.0, 0.0, 1.0],
              [2.6667, 0.0, -2.6667, 0.0]],
        "B": [[0.0, 1.0], [1.3333, 1.0], [0.0, 1.0], [0.0, 1.0]],
        "E": [[0.1], [0.0], [0.1], [0.0]],
        "nodes": [
            {"C": c, "known_input_indices": [0], "unknown_scales": [scale]}
            for c, scale in (
                ([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], 1.0),
                ([[0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1]], 0.5),
                ([[0, 0, 1, 1], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]], 0.33),
                ([[1, 0, 1, 1], [0, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]], 0.25),
                ([[1, 0, 1, 0], [0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]], 0.2))],
        "inputs": [
            {"kind": "autonomous-linear", "transition": [[math.log(0.5)]],
             "initial": {"uniform": [0.0, 1.0]}},
            {"kind": "sinusoid", "amplitude": 0.2, "frequency": 0.2, "phase": 2.0}],
        # Uniform noise held for one integration step (run.dt).
        "disturbances": [
            {"kind": "piecewise-constant-random", "low": -0.1, "high": 0.1, "hold": None}],
    },
}


def _parse_plant(section: dict) -> tuple:
    """The plant model and its input and disturbance signal specs."""
    if isinstance(section, dict) and section.get("preset"):
        name = section["preset"]
        if name not in PRESETS:
            raise ConfigError(f"unknown plant preset {name!r}; choose from {sorted(PRESETS)}")
        extra = set(section) - {"preset"}
        if extra:
            raise ConfigError(f"plant preset does not accept extra keys {sorted(extra)}")
        # A private copy: parsed signal parameters must not alias the preset.
        section = copy.deepcopy(PRESETS[name])
    _check_keys(section, ("A", "B", "E", "nodes", "inputs"), ("preset", "disturbances"),
                "plant")
    matrices = [_matrix(section[key], f"plant.{key}") for key in "ABE"]
    node_specs = []
    for k, node in enumerate(section["nodes"]):
        where = f"plant.nodes[{k}]"
        _check_keys(node, ("C", "known_input_indices"), ("unknown_scales",), where)
        scales = node.get("unknown_scales")
        node_specs.append((_matrix(node["C"], f"{where}.C"), node["known_input_indices"],
                           None if scales is None else _matrix(scales, f"{where}.unknown_scales")))
    try:
        model = PlantModel.assemble(*matrices, node_specs)
    except (DimensionError, RankError) as exc:
        raise ConfigError(f"plant.{exc}") from exc
    inputs = tuple(_parse_signal(s, f"plant.inputs[{k}]")
                   for k, s in enumerate(section["inputs"]))
    dist = tuple(_parse_signal(s, f"plant.disturbances[{k}]")
                 for k, s in enumerate(section.get("disturbances", [])))
    if len(inputs) != model.n_u:
        raise ConfigError(f"plant: {model.n_u} input channels need {model.n_u} "
                          f"input signals, got {len(inputs)}")
    if len(dist) != model.n_d:
        raise ConfigError(f"plant: {model.n_d} disturbance channels need signals, "
                          f"got {len(dist)}")
    return model, inputs, dist


@dataclass(frozen=True)
class GraphSection:
    generator: str | None
    size: int
    edges: tuple | None
    weight: float = 1.0

    def build_graph(self) -> SensorGraph:
        if self.generator is not None:
            return GENERATORS[self.generator](self.size, self.weight)
        return from_edges(self.size, self.edges)


def _check_edge(edge, size: int, where: str) -> tuple:
    """An (i, j) or (i, j, weight) entry: distinct in-range nodes, positive weight."""
    if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
        raise ConfigError(f"{where} must be [i, j] or [i, j, weight], got {edge!r}")
    i, j = edge[:2]
    if not all(_is_int(v) and 0 <= v < size for v in (i, j)) or i == j:
        raise ConfigError(f"{where} needs two distinct node indices in [0, {size}), "
                          f"got {edge!r}")
    if len(edge) == 3:
        _check(edge[2], "a finite number > 0", f"{where} weight")
    return tuple(edge)


def _parse_graph(section: dict) -> GraphSection:
    _require_keys(section, {"generator", "size", "edges", "weight"}, "graph")
    size, weight = section.get("size", 5), section.get("weight", 1.0)
    _check(size, "a positive integer", "graph.size")
    _check(weight, "a finite number > 0", "graph.weight")
    if section.get("edges") is not None:
        if "size" not in section:
            raise ConfigError("graph: explicit edges need 'size'")
        if not isinstance(section["edges"], list):
            raise ConfigError(f"graph.edges must be a list, got {section['edges']!r}")
        return GraphSection(generator=None, size=size, edges=tuple(
            _check_edge(e, size, f"graph.edges[{k}]") for k, e in enumerate(section["edges"])))
    gen = section.get("generator") or "ring"
    if gen not in GENERATORS:
        raise ConfigError(f"graph: unknown generator {gen!r}; choose from {sorted(GENERATORS)}")
    return GraphSection(generator=gen, size=size, edges=None, weight=float(weight))


@dataclass(frozen=True)
class DataSection:
    N: int = 50
    sample_interval: float = DEFAULT_SAMPLE_INTERVAL
    substeps: int = DEFAULT_SUBSTEPS
    restarts: int = 1
    jitter: bool = False
    u_amplitude: float = 1.0
    d_amplitude: float = 0.1
    noise_amplitude: float = 0.0


@dataclass(frozen=True)
class DesignSection:
    decay: float = DEFAULT_DECAY
    gamma_margin: float = DEFAULT_GAMMA_MARGIN
    gamma_override: float | None = None
    rank_multiplier: float = DEFAULT_RANK_MULTIPLIER
    residual_rtol: float = DEFAULT_RESIDUAL_RTOL


@dataclass(frozen=True)
class RunSection:
    horizon: float = 40.0
    dt: float = 1e-3
    z0: str = "zero"
    x0: tuple | None = None
    x0_range: tuple[float, float] = (-1.0, 1.0)
    disturbance: bool = True


@dataclass(frozen=True)
class CompareSection:
    K: int = 10
    methods: tuple[str, ...] = DESIGN_METHODS


def _parse_simple(section: dict, cls, where: str):
    fields = {f for f in cls.__dataclass_fields__}
    _require_keys(section, fields, where)
    kwargs = {}
    for key, value in section.items():
        if key in ("methods", "x0", "x0_range") and not (key == "x0" and value is None):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{where}.{key} must be a list, got {value!r}")
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


# The kind of every section value that would otherwise fail, or be
# silently misread, deep inside a command.
_RULES = {
    "data": {"N": "a positive integer", "sample_interval": "a finite number > 0",
             "substeps": "a positive integer", "jitter": "true or false",
             "u_amplitude": "a finite number >= 0", "d_amplitude": "a finite number >= 0",
             "noise_amplitude": "a finite number >= 0"},
    "design": {"decay": "a finite number", "gamma_margin": "a finite number",
               "gamma_override": "null or a finite number > 0",
               "rank_multiplier": "a finite number > 0",
               "residual_rtol": "a finite number > 0"},
    "run": {"dt": "a finite number > 0", "z0": f"one of {list(_Z0_POLICIES)}",
            "disturbance": "true or false"},
    "compare": {"K": "a positive integer"},
}


def _validate(sections: dict) -> None:
    """Reject values that would otherwise fail deep inside a command."""
    for where, kinds in _RULES.items():
        for name, kind in kinds.items():
            _check(getattr(sections[where], name), kind, f"{where}.{name}")
    data, run, compare = sections["data"], sections["run"], sections["compare"]
    if not (_is_int(data.restarts) and 1 <= data.restarts <= data.N):
        raise ConfigError(f"data.restarts must be an integer in [1, data.N={data.N}], "
                          f"got {data.restarts!r}")
    if not (_is_number(run.horizon) and run.dt <= run.horizon < math.inf):
        raise ConfigError(f"run.horizon must be a number of at least run.dt={run.dt!r}, "
                          f"got {run.horizon!r}")
    _check_range(list(run.x0_range), "run.x0_range")
    if not compare.methods or any(m not in DESIGN_METHODS for m in compare.methods):
        raise ConfigError(f"compare.methods must be a non-empty list drawn from "
                          f"{list(DESIGN_METHODS)}, got {list(compare.methods)}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    model: PlantModel
    inputs: tuple[SignalSpec, ...]
    disturbances: tuple[SignalSpec, ...]
    graph: GraphSection
    data: DataSection
    design: DesignSection
    run: RunSection
    compare: CompareSection

    def __post_init__(self):
        # here, not in parse_config, so a seed replaced later is checked too
        _check(self.seed, "an integer >= 0", "seed")

    def build_model(self) -> PlantModel:
        return self.model

    def build_graph(self) -> SensorGraph:
        return self.graph.build_graph()

    def build_inputs(self, seed) -> list:
        children = np.random.SeedSequence([int(seed), 1]).spawn(len(self.inputs))
        return [spec.build(children[k], self.run.dt)
                for k, spec in enumerate(self.inputs)]

    def build_disturbances(self, seed) -> list:
        if not self.run.disturbance:
            return [Zero() for _ in self.disturbances]
        children = np.random.SeedSequence([int(seed), 2]).spawn(
            max(len(self.disturbances), 1))
        return [spec.build(children[k], self.run.dt)
                for k, spec in enumerate(self.disturbances)]

    def draw_x0(self, seed) -> np.ndarray:
        if self.run.x0 is not None:
            return np.asarray(self.run.x0, dtype=float)
        lo, hi = self.run.x0_range
        return np.random.default_rng(np.random.SeedSequence([int(seed), 3])).uniform(
            lo, hi, self.model.n_x)

    def initial_observer_states(self, x0, model, gains) -> np.ndarray:
        if self.run.z0 == "zero":
            return np.zeros((model.M, model.n_x))
        # "matched": z_i(0) = x0 - H_i y_i(0) makes the initial estimate exact.
        return np.vstack([x0 - gains.H[i] @ (model.nodes[i].C @ x0) for i in range(model.M)])

    def resolved_dict(self) -> dict:
        # Emitted in the explicit form (presets expanded) so the resolved
        # file reloads through the same parser and reproduces the run.
        m = self.model
        plant = {
            "preset": None,
            "A": m.A.tolist(),
            "B": m.B.tolist(),
            "E": m.E_dist.tolist(),
            "nodes": [{"C": n.C.tolist(), "known_input_indices": list(n.known_input_indices),
                       "unknown_scales": n.unknown_input_scales.tolist()} for n in m.nodes],
            "inputs": [s.to_dict() for s in self.inputs],
            "disturbances": [s.to_dict() for s in self.disturbances],
        }
        graph = {"generator": self.graph.generator, "size": self.graph.size,
                 "weight": self.graph.weight,
                 "edges": None if self.graph.edges is None else
                 [list(e) for e in self.graph.edges]}
        def section_dict(obj):
            out = {}
            for name in obj.__dataclass_fields__:
                v = getattr(obj, name)
                out[name] = list(v) if isinstance(v, tuple) else v
            return out
        return {
            "seed": self.seed,
            "plant": plant,
            "graph": graph,
            "data": section_dict(self.data),
            "design": section_dict(self.design),
            "run": section_dict(self.run),
            "compare": section_dict(self.compare),
        }


def parse_config(raw: dict) -> ExperimentConfig:
    if raw is None:
        raw = {}
    _require_keys(raw, {"seed", "plant", "graph", "data", "design", "run", "compare"},
                  "top level")
    model, inputs, disturbances = _parse_plant(raw.get("plant", {"preset": "two-mass-spring"}))
    graph = _parse_graph(raw.get("graph", {}))
    sections = {where: _parse_simple(raw.get(where, {}), cls, where)
                for where, cls in (("data", DataSection), ("design", DesignSection),
                                   ("run", RunSection), ("compare", CompareSection))}
    _validate(sections)
    x0, n_x = sections["run"].x0, model.n_x
    if x0 is not None and not (len(x0) == n_x and all(map(_KINDS["a finite number"], x0))):
        raise ConfigError(f"run.x0 must be null or a list of {n_x} finite numbers, "
                          f"got {list(x0)!r}")
    if graph.size != model.M:
        raise ConfigError(f"graph.size is {graph.size} but the plant has "
                          f"{model.M} nodes; they must be equal")
    try:
        build_laplacian(graph.build_graph())
    except ConnectivityError as exc:
        raise ConfigError(f"graph.edges: {exc}") from exc
    return ExperimentConfig(seed=raw.get("seed", 0), model=model, inputs=inputs,
                            disturbances=disturbances, graph=graph, **sections)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return parse_config(raw)


def write_resolved(config: ExperimentConfig, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        yaml.safe_dump(config.resolved_dict(), fh, sort_keys=True)
