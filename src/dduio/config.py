"""Experiment configuration: schema, validation, and resolution.

One YAML file drives the whole pipeline.  Unknown keys are rejected and
every default is recorded into the resolved configuration that commands
write next to their outputs, so any run is reproducible from its
artifacts alone.
"""
from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .datagen import DataSection
from .design_model import DESIGN_METHODS, DesignSection
from .errors import (ConfigError, ConnectivityError, DimensionError, GraphError, NumericsError,
                     RankError)
from .network import GENERATORS, SensorGraph, from_edges
from .plant import PlantModel, step_count
from .signals import (AutonomousLinear, PiecewiseConstantRandom, Sinusoid, Zero, float_array,
                      held_index, is_finite_number, transition_modes)

# Required and optional parameter keys of each signal kind.
_SIGNAL_KEYS = {
    "sinusoid": (("amplitude", "frequency"), ("phase",)),
    "autonomous-linear": (("transition", "initial"), ("component",)),
    "piecewise-constant-random": (("low", "high"), ("hold",)),
    "zero": ((), ()),
}
# Sinusoid parameters, which must be finite numbers whenever they are given.
_NUMERIC_PARAMS = ("amplitude", "frequency", "phase")
_Z0_POLICIES = ("zero", "matched")
# Parse-time builds draw from this one generator, so no parse pays for seeding
# one; nothing they draw is kept.
_PARSE_RNG = np.random.default_rng(0)


def _check_keys(section, required: tuple, optional: tuple, where: str) -> None:
    """Reject a non-mapping, unknown keys, and missing required keys."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping, got {section!r}")
    allowed = {*required, *optional}
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {missing}")


def _matrix(value, where: str) -> np.ndarray:
    try:
        return float_array(value, where)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Each kind of valid value, keyed by the wording of the error that rejects
# any other value; "finite" is signals.is_finite_number, which also refuses
# an integer past a float's range.
_KINDS = {
    "a positive integer": lambda v: _is_int(v) and v > 0,
    "an integer >= 0": lambda v: _is_int(v) and v >= 0,
    "a finite number": is_finite_number,
    "a finite number > 0": lambda v: is_finite_number(v) and v > 0,
    "a finite number >= 0": lambda v: is_finite_number(v) and v >= 0,
    "a finite number > -1": lambda v: is_finite_number(v) and v > -1,
    "null or a finite number > 0": lambda v: v is None or (is_finite_number(v) and v > 0),
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
                # its row count only: AutonomousLinear then refuses any faulty transition
                k = np.atleast_2d(float_array(p["transition"], "transition")).shape[0]
                initial = np.random.default_rng(seed).uniform(*initial["uniform"], k)
            return AutonomousLinear(p["transition"], initial, p.get("component", 0))
        if self.kind == "piecewise-constant-random":
            hold = default_hold if p.get("hold") is None else p["hold"]
            return PiecewiseConstantRandom(p["low"], p["high"], hold, seed)
        raise ConfigError(f"unknown signal kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}


def _check_range(value, where: str) -> None:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(is_finite_number, value)) and value[0] <= value[1]):
        raise ConfigError(f"{where} must be two finite numbers lo <= hi, got {value!r}")


def _parse_signal(spec: dict, where: str) -> SignalSpec:
    """Syntax here; every value rule is the generator's, met by building it once."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where}: a signal needs a 'kind' field")
    kind = spec["kind"]
    if kind not in _SIGNAL_KEYS:
        raise ConfigError(f"{where}: unknown signal kind {kind!r}; "
                          f"choose from {tuple(_SIGNAL_KEYS)}")
    required, optional = _SIGNAL_KEYS[kind]
    _check_keys(spec, ("kind", *required), optional, where)
    for key in _NUMERIC_PARAMS:
        if key in spec:
            _check(spec[key], "a finite number", f"{where}.{key}")
    signal = SignalSpec(kind=kind, params={k: v for k, v in spec.items() if k != "kind"})
    try:
        if isinstance(spec.get("initial"), dict):
            try:
                _check_keys(spec["initial"], ("uniform",), (), f"{where}.initial")
                _check_range(spec["initial"]["uniform"], f"{where}.initial.uniform")
            except ConfigError:
                transition_modes(spec["transition"])  # a faulty transition is named first
                raise
        # a null hold stands for run.dt; parse_config checks holds against the run
        signal.build(_PARSE_RNG, default_hold=1.0)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from exc
    return signal


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
    except (DimensionError, NumericsError, RankError) as exc:
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


def _parse_graph(section) -> SensorGraph:
    """The sensor graph, from a generator or from explicit edges, never both."""
    _check_keys(section, (), ("generator", "size", "edges", "weight"), "graph")
    size, weight = section.get("size", 5), section.get("weight", 1.0)
    _check(size, "a positive integer", "graph.size")
    _check(weight, "a finite number > 0", "graph.weight")
    edges = section.get("edges")
    try:
        if edges is None:
            gen = section.get("generator") or "ring"
            if gen not in GENERATORS:
                raise ConfigError(f"graph: unknown generator {gen!r}; "
                                  f"choose from {sorted(GENERATORS)}")
            return GENERATORS[gen](size, weight)
        if "size" not in section:
            raise ConfigError("graph: explicit edges need 'size'")
        if section.get("generator") is not None:
            raise ConfigError(f"graph: give 'generator' or 'edges', not both; "
                              f"got generator {section['generator']!r}")
        if not isinstance(edges, list):
            raise ConfigError(f"graph.edges must be a list, got {edges!r}")
        return from_edges(size, edges, weight)
    except GraphError as exc:
        if edges is None or isinstance(exc, ConnectivityError):
            raise ConfigError(f"{'graph' if edges is None else 'graph.edges'}: {exc}") from exc
        # from_edges opens its message with the entry, or two for a repeated pair, as edges[k]
        message = re.sub(r"^(edges\[\d+\] and )edges\[", r"\1graph.edges[", str(exc))
        raise ConfigError(f"graph.{message}") from exc


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


def _parse_simple(section, cls, where: str):
    _check_keys(section, (), tuple(cls.__dataclass_fields__), where)
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
    "design": {"decay": "a finite number >= 0", "gamma_margin": "a finite number > -1",
               "gamma_override": "null or a finite number > 0",
               "rank_multiplier": "a finite number > 0",
               "residual_rtol": "a finite number > 0"},
    "run": {"dt": "a finite number > 0", "z0": f"one of {list(_Z0_POLICIES)}",
            "disturbance": "true or false"},
    "compare": {"K": "a positive integer"},
}


def _validate(sections: dict) -> int:
    """Refuse values that would fail deep inside a command; return the run's step count."""
    for where, kinds in _RULES.items():
        for name, kind in kinds.items():
            _check(getattr(sections[where], name), kind, f"{where}.{name}")
    data, run, compare = sections["data"], sections["run"], sections["compare"]
    if not (_is_int(data.restarts) and 1 <= data.restarts <= data.N):
        raise ConfigError(f"data.restarts must be an integer in [1, data.N={data.N}], "
                          f"got {data.restarts!r}")
    if not _is_number(run.horizon):
        raise ConfigError(f"run.horizon must be a number of at least run.dt={run.dt!r}, "
                          f"got {run.horizon!r}")
    try:
        n_steps = step_count(run.horizon, run.dt)
    except DimensionError as exc:
        raise ConfigError(f"run.horizon: {exc}") from exc
    _check_range(list(run.x0_range), "run.x0_range")
    if not compare.methods or any(m not in DESIGN_METHODS for m in compare.methods):
        raise ConfigError(f"compare.methods must be a non-empty list drawn from "
                          f"{list(DESIGN_METHODS)}, got {list(compare.methods)}")
    for k, method in enumerate(compare.methods):
        j = compare.methods.index(method)
        if j != k:
            raise ConfigError(f"compare.methods[{j}] and compare.methods[{k}] both name "
                              f"{method!r}; list each method once")
    return n_steps


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    model: PlantModel
    inputs: tuple[SignalSpec, ...]
    disturbances: tuple[SignalSpec, ...]
    graph: SensorGraph
    data: DataSection
    design: DesignSection
    run: RunSection
    compare: CompareSection

    def build_model(self) -> PlantModel:
        return self.model

    def build_graph(self) -> SensorGraph:
        return self.graph

    def _build_signals(self, specs, stream: int, seed) -> list:
        children = np.random.SeedSequence([int(seed), stream]).spawn(len(specs))
        return [spec.build(child, self.run.dt) for spec, child in zip(specs, children)]

    def build_inputs(self, seed) -> list:
        return self._build_signals(self.inputs, 1, seed)

    def build_disturbances(self, seed) -> list:
        if not self.run.disturbance:
            return [Zero() for _ in self.disturbances]
        return self._build_signals(self.disturbances, 2, seed)

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
        # Emitted in the explicit form (presets expanded, the graph as its
        # weighted edges) so the resolved file reloads through the same
        # parser and reproduces the run.
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
        a, size = self.graph.adjacency, self.graph.M
        graph = {"size": size, "edges": [[i, j, float(a[i, j])] for i in range(size)
                                         for j in range(i + 1, size) if a[i, j] != 0]}
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
    _check_keys(raw, (), ("seed", "plant", "graph", "data", "design", "run", "compare"),
                "top level")
    seed = raw.get("seed", 0)
    _check(seed, "an integer >= 0", "seed")
    model, inputs, disturbances = _parse_plant(raw.get("plant", {"preset": "two-mass-spring"}))
    graph = _parse_graph(raw.get("graph", {}))
    sections = {where: _parse_simple(raw.get(where, {}), cls, where)
                for where, cls in (("data", DataSection), ("design", DesignSection),
                                   ("run", RunSection), ("compare", CompareSection))}
    n_steps = _validate(sections)
    x0, n_x = sections["run"].x0, model.n_x
    if x0 is not None and not (len(x0) == n_x and all(map(is_finite_number, x0))):
        raise ConfigError(f"run.x0 must be null or a list of {n_x} finite numbers, "
                          f"got {list(x0)!r}")
    if graph.M != model.M:
        raise ConfigError(f"graph.size is {graph.M} but the plant has "
                          f"{model.M} nodes; they must be equal")
    # An explicit hold must keep its held values within the ceiling up to the
    # run's last sample; disturbances the run leaves out are never sampled.
    run = sections["run"]
    sampled = (("inputs", inputs), ("disturbances", disturbances if run.disturbance else ()))
    for name, specs in sampled:
        for k, spec in enumerate(specs):
            if spec.params.get("hold") is not None:
                try:
                    held_index(n_steps * run.dt, spec.params["hold"])
                except ValueError as exc:
                    raise ConfigError(f"plant.{name}[{k}].{exc}") from exc
    return ExperimentConfig(seed=seed, model=model, inputs=inputs,
                            disturbances=disturbances, graph=graph, **sections)


def write_resolved(config: ExperimentConfig, path: str) -> None:
    import yaml  # imported here, so that a command that writes no YAML never loads it
    # libyaml's emitter where PyYAML was built with it; its output is safe_dump's
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    with open(path, "w", newline="\n") as fh:
        yaml.dump(config.resolved_dict(), fh, Dumper=dumper, sort_keys=True)
