"""Configuration schema: validation, defaults, preset expansion."""
import numpy as np
import pytest
import yaml

from dduio.cli import main
from dduio.config import load_config, parse_config, write_resolved
from dduio.errors import ConfigError
from dduio.signals import AutonomousLinear, PiecewiseConstantRandom, Sinusoid


def test_defaults_expand_to_benchmark():
    cfg = parse_config({})
    model = cfg.build_model()
    assert model.M == 5
    assert np.array_equal(model.A, [[0.0, 1.0, 0.0, 0.0],
                                    [-5.3333, 0.0, 2.6667, 0.0],
                                    [0.0, 0.0, 0.0, 1.0],
                                    [2.6667, 0.0, -2.6667, 0.0]])
    assert np.array_equal(model.B, [[0.0, 1.0], [1.3333, 1.0], [0.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(model.E_dist, [[0.1], [0.0], [0.1], [0.0]])
    assert [n.known_input_indices for n in model.nodes] == [(0,)] * 5
    assert [n.unknown_input_scales.tolist() for n in model.nodes] == \
        [[1.0], [0.5], [0.33], [0.25], [0.2]]
    assert np.array_equal(model.nodes[2].C, [[0, 0, 1, 1], [0, 1, 0, 0],
                                             [1, 0, 1, 0], [0, 1, 1, 0]])
    assert [s.to_dict() for s in cfg.inputs] == [
        {"kind": "autonomous-linear", "transition": [[np.log(0.5)]],
         "initial": {"uniform": [0.0, 1.0]}},
        {"kind": "sinusoid", "amplitude": 0.2, "frequency": 0.2, "phase": 2.0}]
    assert [s.to_dict() for s in cfg.disturbances] == [
        {"kind": "piecewise-constant-random", "low": -0.1, "high": 0.1, "hold": None}]
    inputs, (dist,) = cfg.build_inputs(0), cfg.build_disturbances(0)
    assert isinstance(inputs[0], AutonomousLinear) and isinstance(inputs[1], Sinusoid)
    assert isinstance(dist, PiecewiseConstantRandom) and dist.hold == cfg.run.dt
    graph = cfg.build_graph()
    assert graph.M == 5
    assert cfg.data.N == 50
    assert cfg.design.decay == 0.5
    assert cfg.run.horizon == 40.0


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"plnt": {}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"data": {"samples": 10}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"plant": {"preset": "two-mass-spring"},
                      "design": {"decya": 1.0}})


def test_unknown_preset_and_signal_kind():
    with pytest.raises(ConfigError, match="preset"):
        parse_config({"plant": {"preset": "pendulum"}})
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"plant": {
            "A": [[0.0]], "B": [[1.0]], "E": [],
            "nodes": [{"C": [[1.0]], "known_input_indices": [0]}],
            "inputs": [{"kind": "sawtooth"}]}})


def test_explicit_plant_form():
    cfg = parse_config({"plant": {
        "A": [[0.0, 1.0], [-1.0, 0.0]],
        "B": [[1.0, 0.0], [0.0, 1.0]],
        "E": [],
        "nodes": [{"C": [[1.0, 0.0]], "known_input_indices": [0]},
                  {"C": [[0.0, 1.0]], "known_input_indices": [0],
                   "unknown_scales": [2.0]}],
        "inputs": [{"kind": "sinusoid", "amplitude": 1.0, "frequency": 0.5},
                   {"kind": "zero"}],
        "disturbances": []},
        "graph": {"generator": "complete", "size": 2}})
    model = cfg.build_model()
    assert model.M == 2
    assert model.nodes[1].B_p.shape == (2, 1)
    assert np.allclose(model.nodes[1].B_p[:, 0], [0.0, 2.0])


def test_graph_edges_form():
    cfg = parse_config({"graph": {"size": 5, "edges": [[0, 1], [1, 2, 0.5], [2, 3], [3, 4]]}})
    g = cfg.build_graph()
    assert g.adjacency[1, 2] == 0.5
    assert g.adjacency[0, 1] == 1.0


def test_resolved_config_contains_all_defaults(tmp_path):
    cfg = parse_config({"seed": 7})
    d = cfg.resolved_dict()
    for section in ("plant", "graph", "data", "design", "run", "compare"):
        assert section in d
    assert d["design"]["gamma_margin"] == 0.1
    assert d["run"]["dt"] == 1e-3
    path = tmp_path / "resolved.yaml"
    write_resolved(cfg, path)
    reloaded = load_config(path)
    assert reloaded.seed == 7
    for name in ("A", "B", "E_dist"):
        assert np.array_equal(getattr(reloaded.model, name), getattr(cfg.model, name))
    assert reloaded.model.M == cfg.model.M == 5
    for node_r, node in zip(reloaded.model.nodes, cfg.model.nodes):
        assert np.array_equal(node_r.C, node.C)
        assert node_r.known_input_indices == node.known_input_indices
        assert np.array_equal(node_r.unknown_input_scales, node.unknown_input_scales)
    assert reloaded.resolved_dict() == d
    ts = np.linspace(0.0, 5.0, 101)
    for got, want in ((reloaded.build_inputs(3), cfg.build_inputs(3)),
                      (reloaded.build_disturbances(3), cfg.build_disturbances(3))):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g.sample(ts), w.sample(ts))


def test_preset_is_not_aliased_by_parsed_configs():
    a = parse_config({})
    a.inputs[0].params["initial"]["uniform"][1] = 9.0
    a.inputs[1].params["amplitude"] = 9.0
    b = parse_config({})
    assert b.inputs[0].params["initial"] == {"uniform": [0.0, 1.0]}
    assert b.inputs[1].params["amplitude"] == 0.2


def _one_node_plant(node=None, inputs=None):
    return {"plant": {
        "A": [[0.0]], "B": [[1.0]], "E": [],
        "nodes": [node or {"C": [[1.0]], "known_input_indices": [0]}],
        "inputs": inputs or [{"kind": "zero"}]}}


@pytest.mark.parametrize("raw, field", [
    (_one_node_plant(inputs=[{"kind": "sinusoid", "frequency": 1.0}]), "amplitude"),
    (_one_node_plant(inputs=[{"kind": "piecewise-constant-random", "low": -1.0}]), "high"),
    (_one_node_plant(inputs=[{"kind": "autonomous-linear", "initial": [1.0]}]),
     "transition"),
    (_one_node_plant(inputs=[{"kind": "autonomous-linear", "transition": [[-1.0]],
                              "initial": {}}]), "uniform"),
    (_one_node_plant(node={"C": [[1.0]]}), "known_input_indices"),
    (_one_node_plant(node={"known_input_indices": [0]}), "C"),
    ({"plant": {"A": [[0.0]], "B": [[1.0]], "E": [], "inputs": [{"kind": "zero"}]}},
     "nodes"),
])
def test_incomplete_plant_rejected_at_parse_time(raw, field):
    with pytest.raises(ConfigError, match=f"missing required key.*'{field}'"):
        parse_config(raw)


def test_cli_reports_incomplete_signal(tmp_path, capsys):
    raw = parse_config({"compare": {"K": 1}}).resolved_dict()
    del raw["plant"]["inputs"][1]["amplitude"]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["compare", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error: plant.inputs[1]: missing required key(s) ['amplitude']" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _preset_signal(section="disturbances", index=0, **params):
    raw = parse_config({}).resolved_dict()
    raw["plant"][section][index].update(params)
    return raw


@pytest.mark.parametrize("raw, message", [
    pytest.param(_preset_signal("inputs", 1, amplitude="big"),
                 r"plant\.inputs\[1\]\.amplitude must be a finite number", id="text"),
    pytest.param(_preset_signal("inputs", 1, frequency=None),
                 r"plant\.inputs\[1\]\.frequency must be a finite number", id="null"),
    pytest.param(_preset_signal("inputs", 1, phase=True),
                 r"plant\.inputs\[1\]\.phase must be a finite number", id="bool"),
    pytest.param(_preset_signal("inputs", 1, amplitude=float("nan")),
                 r"plant\.inputs\[1\]\.amplitude must be a finite number", id="nan"),
    pytest.param(_preset_signal(low="-0.1"),
                 r"plant\.disturbances\[0\]\.low must be a finite number", id="low-text"),
    pytest.param(_preset_signal(high=[0.1]),
                 r"plant\.disturbances\[0\]\.high must be a finite number", id="high-list"),
    pytest.param(_preset_signal(low=0.2, high=0.1),
                 r"plant\.disturbances\[0\]: low 0\.2 exceeds high 0\.1", id="low-above-high"),
    pytest.param(_preset_signal(hold=-0.5),
                 r"plant\.disturbances\[0\]\.hold must be null", id="hold-negative"),
    pytest.param(_preset_signal(hold=0),
                 r"plant\.disturbances\[0\]\.hold must be null", id="hold-zero"),
    pytest.param(_preset_signal(hold="0.1"),
                 r"plant\.disturbances\[0\]\.hold must be null", id="hold-text"),
    pytest.param(_preset_signal("inputs", 0, transition=[[1, 2]]),
                 r"plant\.inputs\[0\]\.transition must be a square matrix",
                 id="transition-not-square"),
    pytest.param(_preset_signal("inputs", 0, transition=[[1, 2], [3]]),
                 r"plant\.inputs\[0\]\.transition: not a numeric matrix",
                 id="transition-ragged"),
    pytest.param(_preset_signal("inputs", 0, initial=[1.0, 2.0]),
                 r"plant\.inputs\[0\]\.initial must be 1 numbers", id="initial-length"),
    pytest.param(_preset_signal("inputs", 0, initial={"uniform": [1.0]}),
                 r"plant\.inputs\[0\]\.initial\.uniform must be two finite numbers",
                 id="uniform-short"),
    pytest.param(_preset_signal("inputs", 0, initial={"uniform": [1.0, 0.0]}),
                 r"plant\.inputs\[0\]\.initial\.uniform must be two finite numbers lo <= hi",
                 id="uniform-reversed"),
    pytest.param(_preset_signal("inputs", 0, component=1),
                 r"plant\.inputs\[0\]\.component must be an integer in \[0, 1\)",
                 id="component-out-of-range"),
])
def test_bad_signal_values_rejected_at_parse_time(raw, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(raw)


def test_held_signal_keeps_an_explicit_hold():
    cfg = parse_config(_preset_signal(hold=0.25, low=0.1, high=0.1))
    (dist,) = cfg.build_disturbances(3)
    assert dist.hold == 0.25 and dist.sample(np.array([0.3])) == 0.1


def test_graph_size_must_match_the_plant():
    with pytest.raises(ConfigError, match="graph.size is 5 but the plant has 1 nodes"):
        parse_config(_one_node_plant())
    with pytest.raises(ConfigError, match="graph.size is 4 but the plant has 5 nodes"):
        parse_config({"graph": {"size": 4, "edges": [[0, 1], [1, 2], [2, 3]]}})
    assert parse_config({**_one_node_plant(), "graph": {"size": 1, "edges": []}}) \
        .build_graph().M == 1
    # the default ring generator on one node: no self-loop
    assert np.array_equal(parse_config({**_one_node_plant(), "graph": {"size": 1}})
                          .build_graph().adjacency, np.zeros((1, 1)))


@pytest.mark.parametrize("raw, message", [
    pytest.param({"data": {"sample_interval": -0.1}}, r"data\.sample_interval must be",
                 id="sample-interval-negative"),
    pytest.param({"data": {"substeps": 0}}, r"data\.substeps must be", id="substeps-zero"),
    pytest.param({"data": {"substeps": 2.5}}, r"data\.substeps must be", id="substeps-float"),
    pytest.param({"data": {"restarts": 0}}, r"data\.restarts must be", id="restarts-zero"),
    pytest.param({"data": {"N": 40, "restarts": 41}}, r"data\.restarts must be",
                 id="restarts-above-N"),
    pytest.param({"data": {"u_amplitude": -1}}, r"data\.u_amplitude must be",
                 id="u-amplitude-negative"),
    pytest.param({"data": {"d_amplitude": float("inf")}}, r"data\.d_amplitude must be",
                 id="d-amplitude-inf"),
    pytest.param({"data": {"noise_amplitude": "big"}}, r"data\.noise_amplitude must be",
                 id="noise-amplitude-text"),
    pytest.param({"data": {"jitter": "maybe"}}, r"data\.jitter must be", id="jitter-text"),
    pytest.param({"design": {"decay": "x"}}, r"design\.decay must be", id="decay-text"),
    pytest.param({"design": {"gamma_margin": float("nan")}}, r"design\.gamma_margin must be",
                 id="gamma-margin-nan"),
    pytest.param({"design": {"gamma_override": 0}}, r"design\.gamma_override must be",
                 id="gamma-override-zero"),
    pytest.param({"design": {"rank_multiplier": -1}}, r"design\.rank_multiplier must be",
                 id="rank-multiplier-negative"),
    pytest.param({"design": {"residual_rtol": 0}}, r"design\.residual_rtol must be",
                 id="residual-rtol-zero"),
    pytest.param({"run": {"disturbance": "no"}}, r"run\.disturbance must be",
                 id="disturbance-text"),
    pytest.param({"compare": {"K": 0}}, r"compare\.K must be", id="K-zero"),
    pytest.param({"compare": {"K": 1.5}}, r"compare\.K must be", id="K-float"),
    pytest.param({"graph": {"size": 5.9}}, r"graph\.size must be", id="graph-size-float"),
    pytest.param({"graph": {"size": 0}}, r"graph\.size must be", id="graph-size-zero"),
    pytest.param({"graph": {"weight": "x"}}, r"graph\.weight must be", id="graph-weight-text"),
    pytest.param({"graph": {"weight": -1.0}}, r"graph\.weight must be",
                 id="graph-weight-negative"),
    pytest.param({"graph": {"size": 5, "edges": "ring"}}, r"graph\.edges must be a list",
                 id="edges-text"),
    pytest.param({"graph": {"size": 5, "edges": [[0, 7]]}},
                 r"graph\.edges\[0\] needs two distinct node indices", id="edge-out-of-range"),
    pytest.param({"graph": {"size": 5, "edges": [[0, 1], [2, 2]]}},
                 r"graph\.edges\[1\] needs two distinct node indices", id="edge-self-loop"),
    pytest.param({"graph": {"size": 5, "edges": [[0, 1.5]]}},
                 r"graph\.edges\[0\] needs two distinct node indices", id="edge-float-node"),
    pytest.param({"graph": {"size": 5, "edges": [[0]]}},
                 r"graph\.edges\[0\] must be \[i, j\]", id="edge-too-short"),
    pytest.param({"graph": {"size": 5, "edges": [[0, 1, 0.0]]}},
                 r"graph\.edges\[0\] weight must be", id="edge-weight-zero"),
    pytest.param({"compare": {"methods": 5}}, r"compare\.methods must be a list",
                 id="methods-number"),
    pytest.param({"compare": {"methods": None}}, r"compare\.methods must be a list",
                 id="methods-null"),
    pytest.param({"run": {"x0": 5}}, r"run\.x0 must be a list", id="x0-number"),
    pytest.param({"run": {"x0": [1, 2]}},
                 r"run\.x0 must be null or a list of 4 finite numbers", id="x0-short"),
    pytest.param({"run": {"x0": [0, 0, 0, float("nan")]}},
                 r"run\.x0 must be null or a list of 4 finite numbers", id="x0-nan"),
    pytest.param({"run": {"x0_range": [1]}},
                 r"run\.x0_range must be two finite numbers", id="x0-range-short"),
    pytest.param({"run": {"x0_range": [1, -1]}},
                 r"run\.x0_range must be two finite numbers lo <= hi", id="x0-range-reversed"),
    pytest.param({"run": {"x0_range": [0, "1"]}},
                 r"run\.x0_range must be two finite numbers", id="x0-range-text"),
    pytest.param({"run": {"x0_range": None}}, r"run\.x0_range must be a list",
                 id="x0-range-null"),
    pytest.param({"seed": "abc"}, r"seed must be an integer >= 0", id="seed-text"),
    pytest.param({"seed": 1.5}, r"seed must be an integer >= 0", id="seed-float"),
    pytest.param({"seed": -1}, r"seed must be an integer >= 0", id="seed-negative"),
    pytest.param(_one_node_plant(node={"C": [[1.0]], "known_input_indices": [0, 0]}),
                 r"plant\.nodes\[0\]\.known_input_indices must be distinct integers "
                 r"in \[0, 1\)", id="known-repeated"),
    pytest.param(_one_node_plant(node={"C": [[1.0]], "known_input_indices": [3]}),
                 r"plant\.nodes\[0\]\.known_input_indices must be distinct integers",
                 id="known-out-of-range"),
    pytest.param(_one_node_plant(node={"C": [[1.0]], "known_input_indices": [True]}),
                 r"plant\.nodes\[0\]\.known_input_indices must be distinct integers",
                 id="known-bool"),
    pytest.param(_one_node_plant(node={"C": [[1.0]], "known_input_indices": 0}),
                 r"plant\.nodes\[0\]\.known_input_indices must be distinct integers",
                 id="known-not-a-list"),
])
def test_bad_section_values_rejected_at_parse_time(raw, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(raw)


def test_boundary_section_values_accepted():
    cfg = parse_config({
        "seed": 0,
        "data": {"N": 40, "restarts": 40, "jitter": True, "u_amplitude": 0,
                 "d_amplitude": 0.0, "noise_amplitude": 0.0},
        "design": {"decay": 0.0, "gamma_margin": 0.0, "gamma_override": 2.5},
        "run": {"disturbance": False, "x0": [0, 0.5, -1, 2], "x0_range": [0.5, 0.5]},
        "graph": {"size": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0, 2.5]]}})
    assert cfg.data.restarts == 40 and cfg.design.gamma_override == 2.5
    assert cfg.build_graph().adjacency[4, 0] == 2.5
    assert cfg.draw_x0(1).tolist() == [0, 0.5, -1, 2]
    assert parse_config({"run": {"x0_range": [0.5, 0.5]}}).draw_x0(1).tolist() == [0.5] * 4


@pytest.mark.parametrize("command, raw, message", [
    pytest.param("compare", _preset_signal(hold=-0.5),
                 "error: plant.disturbances[0].hold must be null", id="hold"),
    pytest.param("collect", _one_node_plant(),
                 "error: graph.size is 5 but the plant has 1 nodes", id="graph-size"),
    pytest.param("collect", {"data": {"substeps": 0}},
                 "error: data.substeps must be a positive integer", id="substeps"),
    pytest.param("collect", {"graph": {"size": 5, "edges": [[0, 7]]}},
                 "error: graph.edges[0] needs two distinct node indices", id="graph-edge"),
    pytest.param("compare", {"compare": {"methods": 5}},
                 "error: compare.methods must be a list", id="methods"),
    pytest.param("compare", {"run": {"x0": 5}}, "error: run.x0 must be a list", id="x0-number"),
    pytest.param("compare", {"run": {"x0": [1, 2]}},
                 "error: run.x0 must be null or a list of 4 finite numbers", id="x0-short"),
    pytest.param("compare", {"run": {"x0_range": [1]}},
                 "error: run.x0_range must be two finite numbers", id="x0-range"),
    pytest.param("collect", {"seed": "abc"}, "error: seed must be an integer >= 0",
                 id="seed"),
    pytest.param("collect", {**_one_node_plant(node={"C": [[1.0]],
                                                     "known_input_indices": [0, 0]}),
                             "graph": {"size": 1}},
                 "error: plant.nodes[0].known_input_indices must be distinct", id="known-repeated"),
    pytest.param("collect", {**_one_node_plant(node={"C": [[1.0]], "known_input_indices": [3]}),
                             "graph": {"size": 1}},
                 "error: plant.nodes[0].known_input_indices must be distinct",
                 id="known-out-of-range"),
    pytest.param("compare", {**_one_node_plant(inputs=[{"kind": "autonomous-linear",
                                                        "transition": [[1, 2]],
                                                        "initial": [1.0]}]),
                             "graph": {"size": 1}},
                 "error: plant.inputs[0].transition must be a square matrix", id="transition"),
    pytest.param("collect --seed -1", {}, "error: seed must be an integer >= 0, got -1",
                 id="cli-seed-negative"),
    pytest.param("collect", {"graph": {"size": 5, "edges": [[0, 1], [2, 3], [3, 4]]}},
                 "error: graph.edges: graph is not connected", id="graph-disconnected"),
])
def test_cli_rejects_bad_values_before_any_work(tmp_path, capsys, command, raw, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main([*command.split(), "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


def _preset_plant(**changes):
    """The explicit preset plant with top-level matrices or node 0's fields replaced."""
    raw = parse_config({}).resolved_dict()
    for key, value in changes.items():
        target = raw["plant"]["nodes"][0] if key in ("C", "unknown_scales") else raw["plant"]
        target[key] = value
    return raw


@pytest.mark.parametrize("raw, message", [
    pytest.param(_preset_plant(A=[[0.0] * 3] * 4),
                 r"plant\.A must be a square matrix, got shape \(4, 3\)", id="A-4x3"),
    pytest.param(_preset_plant(A=1.0), r"plant\.A must be a square matrix, got shape \(\)",
                 id="A-scalar"),
    pytest.param(_preset_plant(B=[0.0, 1.3333, 0.0, 0.0]),
                 r"plant\.B must be a matrix with 4 rows, got shape \(4,\)", id="B-1d"),
    pytest.param(_preset_plant(E=[[0.1], [0.0]]),
                 r"plant\.E must be a matrix with 4 rows, got shape \(2, 1\)", id="E-rows"),
    pytest.param(_preset_plant(C=[1, 0, 1, 0]),
                 r"plant\.nodes\[0\]\.C must be a matrix with 4 columns, got shape \(4,\)",
                 id="C-1d"),
    pytest.param(_preset_plant(C=[[1, 0, 1]] * 4),
                 r"plant\.nodes\[0\]\.C must be a matrix with 4 columns, got shape \(4, 3\)",
                 id="C-width"),
    pytest.param(_preset_plant(unknown_scales=[1.0, 2.0]),
                 r"plant\.nodes\[0\]\.unknown_scales must be 1 nonzero numbers, "
                 r"got \[1\.0, 2\.0\]", id="scales-length"),
    pytest.param(_preset_plant(unknown_scales=[0.0]),
                 r"plant\.nodes\[0\]\.unknown_scales must be 1 nonzero numbers, got \[0\.0\]",
                 id="scale-zero"),
    pytest.param(_preset_plant(B=[[0.0, 0.0]] * 4),
                 r"plant\.nodes\[0\]\.B_p must have full column rank 2", id="B_p-rank"),
])
def test_bad_plant_rejected_at_parse_time_by_every_command(tmp_path, capsys, raw, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(raw)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    # check would exit 4 on the missing dataset directory had it read the data first
    for argv in (["collect", "--out", str(out)], ["check", "--data", str(out)]):
        assert main([*argv, "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: plant.")
        assert not out.exists()


def test_signal_builders_are_seed_deterministic():
    cfg = parse_config({})
    a = cfg.build_inputs(5)
    b = cfg.build_inputs(5)
    ts = np.linspace(0.0, 3.0, 11)
    assert np.array_equal(a[0].sample(ts), b[0].sample(ts))
    da = cfg.build_disturbances(5)
    db = cfg.build_disturbances(5)
    assert np.array_equal(da[0].sample(ts), db[0].sample(ts))
    dc = cfg.build_disturbances(6)
    assert not np.array_equal(da[0].sample(ts), dc[0].sample(ts))


def test_z0_policies(model_gains, bench_model):
    cfg = parse_config({"run": {"z0": "matched"}})
    x0 = np.array([0.1, 0.2, 0.3, 0.4])
    z0 = cfg.initial_observer_states(x0, bench_model, model_gains)
    xhat0 = z0[0] + model_gains.H[0] @ (bench_model.nodes[0].C @ x0)
    assert np.allclose(xhat0, x0, atol=1e-12)
    with pytest.raises(ConfigError):
        parse_config({"run": {"z0": "warm"}}).initial_observer_states(
            x0, bench_model, model_gains)


def test_negative_dt_rejected():
    with pytest.raises(ConfigError, match="run.dt"):
        parse_config({"run": {"dt": -1}})


def test_horizon_shorter_than_dt_rejected():
    with pytest.raises(ConfigError, match="run.horizon"):
        parse_config({"run": {"horizon": 5e-4, "dt": 1e-3}})


def test_nonpositive_sample_count_rejected():
    with pytest.raises(ConfigError, match="data.N"):
        parse_config({"data": {"N": -3}})


def test_unknown_compare_method_rejected():
    with pytest.raises(ConfigError, match="compare.methods"):
        parse_config({"compare": {"methods": ["bogus"]}})


def test_retired_grant_couplings_key_rejected():
    # the id baseline always reads each node's B_p; the old knob is an unknown key
    for value in ("plant", "none"):
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['grant_couplings'\] in design"):
            parse_config({"design": {"grant_couplings": value}})


def test_unknown_z0_policy_rejected():
    with pytest.raises(ConfigError, match="run.z0"):
        parse_config({"run": {"z0": "nope"}})
