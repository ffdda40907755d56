"""Command-line pipeline: exit codes, file contracts, reproducibility."""
import argparse
import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import dduio
from dduio import cli
from dduio.cli import main
from dduio.config import PRESETS, parse_config
from dduio.design_model import DuioGains
from dduio.network import SensorGraph, ring

from conftest import decomposition_spy, load_bench_module, repeated

FAST_CONFIG = {
    "seed": 5,
    "run": {"horizon": 2.0, "dt": 2e-3},
    "compare": {"K": 2},
    "design": {"gamma_override": 5.0},
}
RUN_FILES = ("t.npy", "x.npy", "xhat.npy", "error_norms.npy", "spread.npy",
             "summary.json", "config.resolved.yaml")


@pytest.fixture(scope="module")
def fast_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.yaml"
    path.write_text(yaml.safe_dump(FAST_CONFIG))
    return str(path)


@pytest.fixture(scope="module")
def collected(tmp_path_factory, fast_config_path):
    out = str(tmp_path_factory.mktemp("data") / "ds")
    assert main(["collect", "--config", fast_config_path, "--out", out]) == 0
    return out


def _tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            out[os.path.relpath(p, root)] = Path(p).read_bytes()
    return out


def test_collect_outputs(collected):
    dirs = sorted(d for d in os.listdir(collected) if d.startswith("node_"))
    assert len(dirs) == 5
    for d in dirs:
        for f in ("U.csv", "Y.csv", "Ydot.csv", "X.csv", "Xdot.csv",
                  "times.csv", "meta.json"):
            assert os.path.exists(os.path.join(collected, d, f))
    assert os.path.exists(os.path.join(collected, "config.resolved.yaml"))


def test_collect_byte_identical_rerun(tmp_path, capsys, fast_config_path, collected):
    again = str(tmp_path / "ds2")
    assert main(["collect", "--config", fast_config_path, "--out", again]) == 0
    assert _tree_bytes(collected) == _tree_bytes(again)
    # [U; W; X] of the preset has n_m + r + n_x = 1 + 2 + 4 rows
    assert capsys.readouterr().out.splitlines() == [
        f"node {i}: N=50 rank 7/7 [ok]" for i in range(5)]


def test_collect_insufficient_samples(tmp_path, fast_config_path):
    cfg = dict(FAST_CONFIG)
    cfg["data"] = {"N": 3}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["collect", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("key, block", [("u_amplitude", "known-input rows U"),
                                        ("d_amplitude", "unknown-input rows W")])
def test_signed_zero_amplitude_collects_as_zero(tmp_path, capsys, key, block):
    # -0.0 once reached numpy's uniform as high = -0.0 below low = 0.0
    errors = []
    for amplitude in (0.0, -0.0):
        path = tmp_path / "zero.yaml"
        path.write_text(yaml.safe_dump({**FAST_CONFIG, "data": {key: amplitude}}))
        assert main(["collect", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (f"error: node 0: data remain rank-deficient after 8 "
                                      f"attempts; deficient block: {block}\n")


def test_check_passes_and_explains(collected, capsys):
    assert main(["check", "--data", collected]) == 0
    out = capsys.readouterr().out
    assert "leader: node 0" in out
    assert main(["check", "--data", collected, "--explain"]) == 0
    out = capsys.readouterr().out
    assert "sv[" in out


def test_check_explain_prints_the_spectra_its_tests_ranked(monkeypatch, capsys, collected):
    # --explain prints the singular values the rank decisions were read
    # from; it decomposes no matrix of its own
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    counts, outputs = [], []
    for extra in ([], ["--explain"]):
        calls.clear()
        assert main(["check", "--data", collected, *extra]) == 0
        counts.append(len(calls))
        outputs.append(capsys.readouterr().out.splitlines())
    assert counts[0] == counts[1] > 0
    names = [line.split(":")[0].strip() for line in outputs[1] if line.startswith("  sv[")]
    assert names == ["sv[U;Ydot;X]", "sv[U;X;Xdot]", "sv[X]"] * 5
    assert [line for line in outputs[1] if not line.startswith("  sv[")] == outputs[0]


def test_each_command_builds_one_sensor_graph(monkeypatch, tmp_path, fast_config_path,
                                              collected, gains_path):
    # the graph, and with it the Laplacian, is built once, when the config is parsed
    built = []
    init = SensorGraph.__post_init__
    monkeypatch.setattr(SensorGraph, "__post_init__", lambda self: built.append(1) or init(self))
    for argv in (["collect", "--out", str(tmp_path / "d")],
                 ["check", "--data", collected],
                 ["design", "--method", "model", "--out", str(tmp_path / "m.json")],
                 ["design", "--method", "data", "--data", collected,
                  "--out", str(tmp_path / "d.json")],
                 ["run", "--gains", gains_path, "--out", str(tmp_path / "r")],
                 ["compare", "--k", "1", "--out", str(tmp_path / "c")]):
        built.clear()
        assert main([*argv, "--config", fast_config_path]) == 0
        assert len(built) == 1, argv


def test_each_command_decomposes_each_matrix_once(tmp_path):
    # the preset with a short run and the coupling gain from its bound
    path = tmp_path / "preset.yaml"
    path.write_text(yaml.safe_dump({"seed": 5, "run": {"horizon": 2.0, "dt": 2e-3}}))
    data, gains = str(tmp_path / "d"), str(tmp_path / "model.json")
    commands = {"collect": ["collect", "--out", data],
                "check": ["check", "--data", data],
                "run": ["run", "--gains", gains, "--out", str(tmp_path / "r")]}
    for method in ("model", "data", "id"):
        commands[f"design {method}"] = ["design", "--method", method, "--data", data,
                                        "--out", str(tmp_path / f"{method}.json")]
    for name in ("collect", "check", "design model", "design data", "design id", "run"):
        with decomposition_spy() as calls:
            assert main([*commands[name], "--config", str(path)]) == 0
        assert calls, name
        assert repeated(calls) == {}, name
        # the coupled 20 x 20 matrix is never factored; the bound certifies the
        # design, and design's abscissa factors the 16 x 16 follower block F once
        # (its ceiling lies above the leader's abscissa), by eigvals alone
        assert all(shape != (20, 20) for shape, _ in calls), name
        follower = [kind for (shape, _), kind in zip(calls, calls.kinds) if shape == (16, 16)]
        assert follower == (["eigvals"] if name.startswith("design") else []), name
    # compare repeats only what its methods share: the X and [U; X] whose SVDs
    # give both data and id the output map and the regression of Xdot on [U; X];
    # the graph keeps the reduced Laplacian's lambda_min for every method
    with decomposition_spy() as calls:
        assert main(["compare", "--k", "1", "--config", str(path),
                     "--out", str(tmp_path / "c")]) == 0
    assert {key[0] for key in repeated(calls)} == {(4, 50), (5, 50)}
    assert ((4, 4), ring(5).laplacian[1:, 1:].tobytes()) in calls
    assert ((4, 4), ring(5).laplacian[1:, 1:].tobytes()) not in repeated(calls)
    # 93 decompositions (71 SVDs) before data and id shared one regression and
    # the leader tests ranked one pencil per conjugate pair; 87 (65 SVDs) until
    # the graph kept lambda_min; 84 or 85, as rounding split a leader's double
    # zero eigenvalue into a pair or two reals, until the leader tests ranked
    # eigenvalues within DETECT_TOL once; 83 since.  The spy sees Cholesky
    # factorizations too, so a dense certificate would add three.
    assert len(calls) == 83


def test_check_missing_dir(tmp_path):
    assert main(["check", "--data", str(tmp_path / "nowhere")]) == 4


def test_check_corrupted_derivatives(tmp_path, collected):
    broken = tmp_path / "broken"
    shutil.copytree(collected, broken)
    # zero out one sample's output derivative
    ydot = broken / "node_00" / "Ydot.csv"
    lines = ydot.read_text().splitlines()
    lines[2] = ",".join("0" for _ in lines[2].split(","))
    ydot.write_text("\n".join(lines) + "\n")
    assert main(["check", "--data", str(broken)]) == 3


def test_datasets_load_in_node_order(tmp_path, capsys, fast_config_path, collected):
    # node_8 .. node_12 sort as text as 10, 11, 12, 8, 9; by index they are nodes 0-4
    renamed = Path(shutil.copytree(collected, tmp_path / "renamed"))
    for k in range(5):
        (renamed / f"node_{k:02d}").rename(renamed / f"node_{k + 8}")
    outputs = []
    for data in (collected, renamed):
        for method in ("data", "id"):
            out = tmp_path / f"{method}.json"
            assert main(["design", "--config", fast_config_path, "--method", method,
                         "--data", str(data), "--out", str(out)]) == 0
            outputs.append(json.loads(out.read_text())["gains"])
        assert main(["check", "--config", fast_config_path, "--data", str(data),
                     "--explain"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[:3] == outputs[3:]


@pytest.mark.parametrize("defect", ["gap", "duplicate"])
def test_datasets_out_of_node_order_are_named(tmp_path, capsys, fast_config_path,
                                              collected, defect):
    data = Path(shutil.copytree(collected, tmp_path / "ds"))
    if defect == "gap":
        shutil.rmtree(data / "node_02")
        culprit = data / "node_03"
    else:
        culprit = data / "node_1"
        shutil.copytree(data / "node_01", culprit)
    assert main(["check", "--config", fast_config_path, "--data", str(data)]) == 1
    index = 3 if defect == "gap" else 1
    assert capsys.readouterr().err == (f"error: dataset {culprit} holds node {index} "
                                       f"but is dataset 2 in node order\n")


@pytest.mark.parametrize("defect", ["meta-key", "meta-json", "short-row", "missing-row",
                                    "nan", "inf", "short-of-meta-n"])
def test_malformed_dataset_is_named(tmp_path, capsys, fast_config_path, collected, defect):
    data = Path(shutil.copytree(collected, tmp_path / "ds"))
    node = data / "node_03"
    code = 1
    if defect == "meta-key":
        meta = json.loads((node / "meta.json").read_text())
        del meta["n_m"]
        (node / "meta.json").write_text(json.dumps(meta))
        want = f"dataset file {node / 'meta.json'} is missing the key 'n_m'\n"
    elif defect == "meta-json":
        (node / "meta.json").write_text("{not json")
        want = f"dataset file {node / 'meta.json'} is malformed: Expecting property name"
    elif defect == "short-row":
        lines = (node / "X.csv").read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]
        (node / "X.csv").write_text("\n".join(lines) + "\n")
        want = f"dataset file {node / 'X.csv'} is malformed: "
    elif defect in ("nan", "inf"):
        # a non-finite entry would otherwise stop the rank tests' SVD
        lines = (node / "X.csv").read_text().splitlines()
        fields = lines[5].split(",")
        fields[2] = defect
        lines[5] = ",".join(fields)
        (node / "X.csv").write_text("\n".join(lines) + "\n")
        want = f"dataset file {node / 'X.csv'} is malformed: data row 5, column 3 is {defect}\n"
    elif defect == "short-of-meta-n":
        # every file one sample short agrees with the others but not with meta.json
        for name in ("U", "Y", "Ydot", "X", "Xdot", "times"):
            lines = (node / f"{name}.csv").read_text().splitlines()
            (node / f"{name}.csv").write_text("\n".join(lines[:-1]) + "\n")
        code, want = 6, f"dataset {node}: meta.json has N=50, the files hold 49 samples\n"
    else:
        # a file one sample short is a dimension mismatch, exit 6
        lines = (node / "U.csv").read_text().splitlines()
        (node / "U.csv").write_text("\n".join(lines[:-1]) + "\n")
        code, want = 6, f"dataset {node}: U must have one column per sample (50)\n"
    for argv in (["check", "--data", str(data)],
                 *(["design", "--method", method, "--data", str(data),
                    "--out", str(tmp_path / "g.json")] for method in ("data", "id"))):
        assert main([*argv, "--config", fast_config_path]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {want}"), err
        assert err.count("\n") == 1
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("key, value", [("n_m", "1"), ("node_index", 1.0), ("node_index", True),
                                        ("n_x", -4), ("N", None), ("seed", 2.5)])
def test_mistyped_meta_json_is_named(tmp_path, capsys, fast_config_path, collected, key, value):
    # a string n_m used to be blamed on U.csv, and a float node_index passed the order check
    data = Path(shutil.copytree(collected, tmp_path / "ds"))
    meta_path = data / "node_01" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    want = (f"error: dataset file {meta_path} is malformed: "
            f"{key!r} must be a nonnegative integer, got {value!r}\n")
    for argv in (["check", "--data", str(data)],
                 ["design", "--method", "data", "--data", str(data),
                  "--out", str(tmp_path / "g.json")]):
        assert main([*argv, "--config", fast_config_path]) == 1
        assert capsys.readouterr().err == want
    assert not (tmp_path / "g.json").exists()


def test_meta_json_seed_may_be_null(tmp_path, fast_config_path, collected):
    data = Path(shutil.copytree(collected, tmp_path / "ds"))
    meta_path = data / "node_01" / "meta.json"
    meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), "seed": None}))
    assert main(["check", "--config", fast_config_path, "--data", str(data)]) == 0


@pytest.mark.parametrize("method, multiplier, code, message", [
    # the first node whose decoupling condition fails at 5e13 is node 0
    ("model", 5.0e13, 5, "node 0: rank(C B_p) < rank(B_p), decoupling unsolvable"),
    ("id", 1.0e13, 5, "stacked [U; X] is row-rank deficient; identification is ill-posed"),
], ids=["model", "id"])
def test_rank_multiplier_reaches_each_design_path(tmp_path, capsys, collected, method,
                                                  multiplier, code, message):
    path = tmp_path / "strict.yaml"
    path.write_text(yaml.safe_dump({"seed": 5, "design": {"rank_multiplier": multiplier}}))
    out = tmp_path / "gains.json"
    assert main(["design", "--config", str(path), "--method", method, "--data", collected,
                 "--out", str(out)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_rank_deficient_state_data_fail_the_check_and_the_data_designs(
        tmp_path, capsys, fast_config_path, collected):
    # one entry of 1e160 leaves node 0's X numerically of rank one
    data = Path(shutil.copytree(collected, tmp_path / "ds"))
    x_csv = data / "node_00" / "X.csv"
    lines = x_csv.read_text().splitlines()
    lines[1] = ",".join(["1e160"] + lines[1].split(",")[1:])
    x_csv.write_text("\n".join(lines) + "\n")
    assert main(["check", "--config", fast_config_path, "--data", str(data)]) == 3
    # node 0's failure is recorded in its report: every node's verdict and the
    # leader, which moves on to node 1, are still printed; equal ranks below
    # the floor n_m + n_x are no solvability verdict
    verdicts = [f"node {i}: solvability rank test 7 == 7 [ok]" for i in range(1, 5)]
    assert capsys.readouterr() == (
        "\n".join(["node 0: solvability rank test 1 == 1, below n_m + n_x = 5 [FAIL]",
                   *verdicts, "leader: node 1 passed the detectability test", ""]),
        "FAIL: node 0 failed the solvability rank test\n")
    out = tmp_path / "gains.json"
    for method, message in (("data", "node 0: data solvability rank test failed"),
                            ("id", "stacked [U; X] is row-rank deficient; "
                                   "identification is ill-posed")):
        assert main(["design", "--config", fast_config_path, "--method", method,
                     "--data", str(data), "--out", str(out)]) == 5
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_rank_multiplier_below_the_crossover_keeps_the_model_gains(tmp_path):
    payloads = []
    for name, design in (("default", {}), ("loose", {"rank_multiplier": 1.0e13})):
        path, out = tmp_path / f"{name}.yaml", tmp_path / f"{name}.json"
        path.write_text(yaml.safe_dump({"seed": 5, "design": design}))
        assert main(["design", "--config", str(path), "--method", "model",
                     "--out", str(out)]) == 0
        payloads.append(json.loads(out.read_text()))
    assert payloads[0]["gains"] == payloads[1]["gains"]
    assert payloads[0]["verification"] == payloads[1]["verification"]
    assert payloads[1]["resolved_config"]["design"]["rank_multiplier"] == 1.0e13


def test_design_methods_and_outputs(tmp_path, fast_config_path, collected):
    for method, needs_data in (("model", False), ("data", True), ("id", True)):
        out = tmp_path / f"gains_{method}.json"
        argv = ["design", "--config", fast_config_path, "--method", method,
                "--out", str(out)]
        if needs_data:
            argv += ["--data", collected]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["verification"]["spectral_abscissa"] < 0
        assert len(payload["gains"]["nodes"]) == 5
        if method in ("model", "id"):
            assert "decoupling" in payload["verification"]


# Node 0's decoupled pair is (diag(-0.2, 0), [0 1]): the mode at -0.2 is
# unobservable, so a Riccati shift above 0.2 can have no stabilizing solution.
SHALLOW_PLANT = {
    "plant": {"A": [[-0.2, 0.0], [0.0, 1.0]], "B": [[1.0], [1.0]], "E": [[0.0], [1.0]],
              "nodes": [{"C": [[0.0, 1.0]], "known_input_indices": [0]}] * 2,
              "inputs": [{"kind": "zero"}], "disturbances": [{"kind": "zero"}]},
    "graph": {"size": 2, "edges": [[0, 1]]},
}


@pytest.mark.parametrize("case, shift", [("preset", 0.5), ("shallow", 0.125)])
def test_design_reports_the_riccati_shift_it_used(tmp_path, case, shift):
    path, out = tmp_path / "cfg.yaml", tmp_path / "gains.json"
    path.write_text(yaml.safe_dump({"seed": 5} if case == "preset" else SHALLOW_PLANT))
    assert main(["design", "--config", str(path), "--method", "model", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["verification"]
    assert report["decay_shift"] == shift
    assert report["spectral_abscissa"] < -shift


def _sweep_config(nodes: int | None = None) -> dict:
    """The design sweep's first plant of seed 1, cut to its first ``nodes`` nodes."""
    raw = load_bench_module("workloads").sweep_plant_config(1, 0)
    if nodes is not None:
        raw["plant"]["nodes"] = raw["plant"]["nodes"][:nodes]
        raw["graph"] = {"size": nodes, "edges": []}
    return raw


@pytest.mark.parametrize("case", ["preset", "preset-gamma-4", "sweep", "one-node"])
def test_design_reports_what_set_the_abscissa(tmp_path, case):
    raw = {"seed": 5} if case.startswith("preset") else _sweep_config(
        1 if case == "one-node" else None)
    path, out = tmp_path / "cfg.yaml", tmp_path / "gains.json"
    path.write_text(yaml.safe_dump(raw))
    argv = ["design", "--config", str(path), "--method", "model", "--out", str(out)]
    assert main(argv + (["--gamma", "4"] if case == "preset-gamma-4" else [])) == 0
    report = json.loads(out.read_text())["verification"]
    gains = DuioGains.from_json_dict(json.loads(out.read_text())["gains"])
    leader = float(np.max(np.linalg.eigvals(gains.E_obs[gains.leader]).real))
    if case == "one-node":
        assert report["coupling_bound"] is None and report["follower_ceiling"] is None
        assert report["abscissa_block"] == "leader"
        assert report["spectral_abscissa"] == pytest.approx(leader, abs=1e-12)
        return
    bound, ceiling = report["coupling_bound"], report["follower_ceiling"]
    lam = parse_config(raw).graph.lambda_min_reduced(gains.leader)
    assert ceiling == pytest.approx((bound - report["gamma"]) * lam, rel=1e-12)
    if case == "preset-gamma-4":
        # below the bound (12.07): the followers' abscissa -1.53 tops the leader's -1.76
        assert report["gamma"] == 4.0 < bound
        assert report["abscissa_block"] == "followers"
        assert leader < report["spectral_abscissa"] < 0
        return
    # the design's own gamma is 1.1 x the bound, reported beside it
    assert report["gamma"] == pytest.approx(1.1 * bound, rel=1e-12)
    assert report["abscissa_block"] == "leader"
    assert report["spectral_abscissa"] == pytest.approx(leader, abs=1e-12)
    if case == "preset":
        # the ceiling -0.461 lies above the leader's -1.761, so F is factored:
        # its abscissa, -5.07, is below the leader's
        assert ceiling == pytest.approx(-0.461, abs=1e-3)
        assert report["spectral_abscissa"] == pytest.approx(-1.761, abs=1e-3)
    else:
        # the ceiling alone puts the followers below the leader
        assert ceiling < report["spectral_abscissa"] - 1e-8


def test_design_gamma_override(tmp_path, fast_config_path, collected):
    out = tmp_path / "gains.json"
    assert main(["design", "--config", fast_config_path, "--method", "data",
                 "--data", collected, "--gamma", "5.0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["gains"]["gamma"] == 5.0


def test_design_without_data(tmp_path, fast_config_path):
    assert main(["design", "--config", fast_config_path, "--method", "data",
                 "--out", str(tmp_path / "g.json")]) == 5
    assert not (tmp_path / "g.json").exists()


def test_id_method_is_named_id_in_gains_and_summary(tmp_path, fast_config_path, collected):
    gains = tmp_path / "id.json"
    assert main(["design", "--config", fast_config_path, "--method", "id",
                 "--data", collected, "--out", str(gains)]) == 0
    assert json.loads(gains.read_text())["gains"]["method"] == "id"
    out = tmp_path / "r"
    assert main(["run", "--config", fast_config_path, "--gains", str(gains),
                 "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["method"] == "id"


def _other_plant(kind: str) -> dict:
    """The preset with one output per node dropped, or a three-state plant."""
    plant = copy.deepcopy(PRESETS["two-mass-spring"])
    if kind == "three-output":
        for node in plant["nodes"]:
            node["C"] = node["C"][:3]
    else:
        plant.update(A=[[0.0, 1.0, 0.0], [-2.0, -1.0, 1.0], [1.0, 0.0, -1.0]],
                     B=[[0.0, 1.0], [1.0, 1.0], [0.0, 1.0]], E=[[0.1], [0.0], [0.0]],
                     nodes=[{"C": np.eye(3).tolist(), "known_input_indices": [0]}] * 5)
    return plant


@pytest.mark.parametrize("kind, want", [
    ("three-state", "node 0: dataset (n_x, n_m, n_y) = (3, 1, 3), configured plant (4, 1, 4)"),
    ("three-output", "node 0: dataset (n_x, n_m, n_y) = (4, 1, 3), configured plant (4, 1, 4)"),
    ("four-nodes", "4 datasets for a plant of 5 nodes")])
def test_id_design_names_datasets_of_another_plant(tmp_path, capsys, fast_config_path,
                                                   collected, kind, want):
    data = tmp_path / "d"
    if kind == "four-nodes":
        shutil.copytree(collected, data)
        shutil.rmtree(data / "node_04")
    else:
        other = tmp_path / "other.yaml"
        other.write_text(yaml.safe_dump({**FAST_CONFIG, "plant": _other_plant(kind)}))
        assert main(["collect", "--config", str(other), "--out", str(data)]) == 0
    capsys.readouterr()
    argv = ["design", "--config", fast_config_path, "--data", str(data),
            "--out", str(tmp_path / "g.json")]
    assert main([*argv, "--method", "id"]) == 6
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not (tmp_path / "g.json").exists()
    if kind != "four-nodes":
        # the data-driven design reads only the datasets, never the configured plant
        assert main([*argv, "--method", "data"]) == 0


def test_datasets_of_two_plants_are_refused_by_every_data_command(tmp_path, capsys,
                                                                   fast_config_path, collected):
    # four preset nodes and a node_04 of a three-state plant: the data design
    # would meet blocks of two sizes
    data, other = tmp_path / "mixed", tmp_path / "other.yaml"
    shutil.copytree(collected, data)
    shutil.rmtree(data / "node_04")
    other.write_text(yaml.safe_dump({**FAST_CONFIG, "plant": _other_plant("three-state")}))
    assert main(["collect", "--config", str(other), "--out", str(tmp_path / "three")]) == 0
    shutil.copytree(tmp_path / "three" / "node_04", data / "node_04")
    capsys.readouterr()
    gains = tmp_path / "g.json"
    for argv, want in [
            (["check"], "node 4: dataset n_x = 3, node 0's n_x = 4"),
            (["design", "--method", "data", "--out", str(gains)],
             "node 4: dataset n_x = 3, node 0's n_x = 4"),
            (["design", "--method", "id", "--out", str(gains)],
             "node 4: dataset (n_x, n_m, n_y) = (3, 1, 3), configured plant (4, 1, 4)")]:
        assert main([*argv, "--config", fast_config_path, "--data", str(data)]) == 6
        assert capsys.readouterr() == ("", f"error: {want}\n")
        assert not gains.exists()


def test_design_deterministic(tmp_path, fast_config_path, collected):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert main(["design", "--config", fast_config_path, "--method", "data",
                     "--data", collected, "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def gains_path(tmp_path_factory, fast_config_path, collected):
    out = tmp_path_factory.mktemp("gains") / "gains.json"
    assert main(["design", "--config", fast_config_path, "--method", "data",
                 "--data", collected, "--out", str(out)]) == 0
    return str(out)


def test_run_outputs_and_determinism(tmp_path, fast_config_path, gains_path):
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    for d in (d1, d2):
        assert main(["run", "--config", fast_config_path, "--gains", gains_path,
                     "--out", d]) == 0
    for f in RUN_FILES:
        assert os.path.exists(os.path.join(d1, f))
        assert Path(d1, f).read_bytes() == Path(d2, f).read_bytes()
    summary = json.loads(Path(d1, "summary.json").read_text())
    assert "mse" in summary and "final_error_norms" in summary
    # horizon 2.0 at dt 2e-3: 1001 samples of the 4 states at 5 nodes
    shapes = {"t": (1001,), "x": (1001, 4), "xhat": (1001, 5, 4),
              "error_norms": (1001, 5), "spread": (1001,)}
    arrays = {}
    for field, shape in shapes.items():
        arrays[field] = np.load(os.path.join(d1, f"{field}.npy"), allow_pickle=False)
        assert arrays[field].dtype == np.float64 and arrays[field].shape == shape
    assert arrays["t"].tobytes() == (np.arange(1001) * 2e-3).tobytes()
    assert arrays["error_norms"][-1].tolist() == summary["final_error_norms"]
    assert arrays["spread"][-1] == summary["final_spread"]
    # xhat.npy, the only way the estimates leave run, gives the norms and the spread
    x, xhat = arrays["x"], arrays["xhat"]
    assert np.allclose(np.linalg.norm(xhat - x[:, None], axis=2), arrays["error_norms"],
                       rtol=1e-12, atol=0)
    far = np.linalg.norm(xhat[:, :, None] - xhat[:, None], axis=3).max(axis=(1, 2))
    assert np.allclose(far, arrays["spread"], rtol=1e-12, atol=0)


def test_run_output_directory_holds_exactly_the_run_files(tmp_path, fast_config_path,
                                                          gains_path):
    out = tmp_path / "r"
    assert main(["run", "--config", fast_config_path, "--gains", gains_path,
                 "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(RUN_FILES)


@pytest.fixture(scope="module")
def preset_gains_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("preset") / "gains.json"
    assert main(["design", "--seed", "1", "--method", "model", "--out", str(out)]) == 0
    return out


def test_run_command_holds_no_full_length_estimate_array(tmp_path, preset_gains_path):
    # the preset's 40 s run; the estimates go to xhat.npy one chunk at a time
    def run_into(name):
        out = tmp_path / name
        assert main(["run", "--seed", "1", "--gains", str(preset_gains_path),
                     "--out", str(out)]) == 0
        return out

    run_into("warm-up")
    tracemalloc.start()
    try:
        out = run_into("traced")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    model = parse_config({}).build_model()
    kept = {f: np.load(out / f"{f}.npy") for f in ("t", "x", "error_norms", "spread")}
    rows = kept["t"].size
    table = (2 * rows - 1) * (model.n_u + model.n_d) * 8
    held = sum(a.nbytes for a in kept.values()) + table
    xhat = rows * model.M * model.n_x * 8
    assert np.load(out / "xhat.npy", mmap_mode="r").nbytes == xhat
    # beyond what the command must hold, less than half of one full xhat
    assert peak - held < xhat // 2


@pytest.mark.parametrize("out", ["r", "new/r", "existing"],
                         ids=["new-dir", "new-parents", "existing-dir"])
def test_diverging_run_leaves_no_file_behind(tmp_path, capsys, preset_gains_path, out):
    payload = json.loads(preset_gains_path.read_text())
    for node in payload["gains"]["nodes"]:
        node["E"] = np.eye(len(node["E"])).tolist()
    gains = tmp_path / "diverging.json"
    gains.write_text(json.dumps(payload))
    (tmp_path / "existing").mkdir()
    capsys.readouterr()
    assert main(["run", "--seed", "1", "--gains", str(gains), "--out", str(tmp_path / out)]) == 1
    assert re.fullmatch(r"error: state magnitude \S+ exceeded 1e\+12 at t=26\.949\n",
                        capsys.readouterr().err)
    # nothing, as when no estimate was written during the pass: not even a directory
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diverging.json", "existing"]
    assert list((tmp_path / "existing").iterdir()) == []


def test_gains_file_has_no_k_and_ignores_an_old_one(tmp_path, fast_config_path, gains_path):
    # K follows from gamma and leader, so a K key of an older file is ignored
    payload = json.loads(Path(gains_path).read_text())
    assert sorted(payload["gains"]) == ["gamma", "leader", "method", "nodes"]
    assert all(sorted(node) == ["E", "F", "H", "L"] for node in payload["gains"]["nodes"])
    rng = np.random.default_rng(3)
    for node in payload["gains"]["nodes"]:
        node["K"] = rng.normal(size=(4, 4)).tolist()
    with_k = tmp_path / "with_k.json"
    with_k.write_text(json.dumps(payload))
    for gains, out in ((gains_path, "plain"), (with_k, "with_k")):
        assert main(["run", "--config", fast_config_path, "--gains", str(gains),
                     "--out", str(tmp_path / out)]) == 0
    assert _tree_bytes(tmp_path / "plain") == _tree_bytes(tmp_path / "with_k")


# A malformed value, set into the gains object (node 2's block for a node
# key), and the message naming it.
MALFORMED_GAINS = {
    "ragged": ("E", [[1, 2], [3]], "node 2 'E' is not a numeric matrix"),
    "text": ("H", [["a", "b"]], "node 2 'H' is not a numeric matrix"),
    "nan-block": ("F", [[float("nan")]] * 4, "node 2 'F' has a non-finite entry"),
    "nan-gamma": ("gamma", float("nan"), "'gamma' must be a finite number, got nan"),
    "text-gamma": ("gamma", "5", "'gamma' must be a finite number, got '5'"),
    "text-leader": ("leader", "first", "'leader' must be an integer, got 'first'"),
    "float-leader": ("leader", 0.5, "'leader' must be an integer, got 0.5"),
    "nodes": ("nodes", [1, 2], "'nodes' must be a list of objects"),
    "list-method": ("method", [1], "'method' must be one of ['model', 'data', 'id'], got [1]"),
    "other-method": ("method", "kalman",
                     "'method' must be one of ['model', 'data', 'id'], got 'kalman'"),
}


@pytest.mark.parametrize("drop", ["gamma", "L", "gains", "json", "utf-8", *MALFORMED_GAINS])
def test_run_names_a_missing_gains_key(tmp_path, capsys, fast_config_path, gains_path, drop):
    payload = json.loads(Path(gains_path).read_text())
    bad = tmp_path / "bad_gains.json"
    if drop == "json":
        bad.write_text("nope")
        want = f"error: gains file {bad} is not JSON: Expecting value"
    elif drop == "utf-8":
        bad.write_bytes(b'{"gains": "\xff"}')
        want = f"error: gains file {bad} is not JSON: 'utf-8' codec can't decode byte 0xff"
    elif drop == "gains":
        bad.write_text(json.dumps({"verification": payload["verification"]}))
        want = f"error: gains file {bad} has no top-level 'gains' object\n"
    elif drop in MALFORMED_GAINS:
        key, value, message = MALFORMED_GAINS[drop]
        holder = payload["gains"] if key in payload["gains"] else payload["gains"]["nodes"][2]
        holder[key] = value
        bad.write_text(json.dumps(payload))
        want = f"error: gains file {message}\n"
    else:
        holder = payload["gains"] if drop in payload["gains"] else payload["gains"]["nodes"][2]
        del holder[drop]
        bad.write_text(json.dumps(payload))
        want = f"error: gains file is missing the key {drop!r}\n"
    assert main(["run", "--config", fast_config_path, "--gains", str(bad),
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    # The decoder's own text follows the JSON message; every other message is the whole line.
    assert err.startswith(want) if drop in ("json", "utf-8") else err == want
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("text, detail", [
    (b"seed: [1, 2\n", "while parsing a flow sequence"),
    (b"seed: \xe9\n", "unacceptable character #x00e9: invalid continuation byte"),
], ids=["malformed", "not-utf-8"])
def test_unreadable_config_file_is_named(tmp_path, capsys, text, detail):
    path = tmp_path / "bad.yaml"
    path.write_bytes(text)
    assert main(["collect", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: config file {path} is not YAML: {detail}")
    assert not (tmp_path / "out").exists()


def test_exponent_floats_in_a_config_file_are_floats(tmp_path, capsys, gains_path):
    # YAML 1.1 reads 1e-3 and .0001e1 as strings; they mean what 0.001 means
    trees, configs = [], []
    for dt in ("1e-3", ".0001e1", "0.001"):
        path = tmp_path / f"{dt}.yaml"
        path.write_text(f"seed: 5\nrun:\n  horizon: 0.5\n  dt: {dt}\n")
        configs.append(cli._get_config(argparse.Namespace(config=str(path))).resolved_dict())
        out = tmp_path / f"run-{dt}"
        assert main(["run", "--config", str(path), "--gains", gains_path, "--out", str(out)]) == 0
        trees.append(_tree_bytes(out))
    assert configs[0] == configs[1] == configs[2] and configs[0]["run"]["dt"] == 0.001
    assert trees[0] == trees[1] == trees[2]
    assert sorted(trees[0]) == sorted(RUN_FILES)
    capsys.readouterr()
    quoted = tmp_path / "quoted.yaml"
    quoted.write_text("run:\n  dt: '1e-3'\n")
    assert main(["run", "--config", str(quoted), "--gains", gains_path,
                 "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == "error: run.dt must be a finite number > 0, got '1e-3'\n"
    assert not (tmp_path / "r").exists()


def test_gains_without_a_method_run_as_model(tmp_path, fast_config_path, gains_path):
    # files written before the method key existed stay readable
    payload = json.loads(Path(gains_path).read_text())
    del payload["gains"]["method"]
    old = tmp_path / "old_gains.json"
    old.write_text(json.dumps(payload))
    assert main(["run", "--config", fast_config_path, "--gains", str(old),
                 "--out", str(tmp_path / "r")]) == 0
    assert json.loads((tmp_path / "r" / "summary.json").read_text())["method"] == "model"


def test_run_dimension_mismatch(tmp_path, fast_config_path, gains_path):
    payload = json.loads(Path(gains_path).read_text())
    payload["gains"]["nodes"] = payload["gains"]["nodes"][:4]
    bad = tmp_path / "bad_gains.json"
    bad.write_text(json.dumps(payload))
    assert main(["run", "--config", fast_config_path, "--gains", str(bad),
                 "--out", str(tmp_path / "r")]) == 6


def test_compare_outputs(tmp_path, fast_config_path):
    out = str(tmp_path / "cmp")
    assert main(["compare", "--config", fast_config_path, "--out", out,
                 "--k", "3", "--seed", "6"]) == 0
    # the resolved config records the overrides the run used
    resolved = yaml.safe_load(Path(out, "config.resolved.yaml").read_text())
    assert (resolved["compare"]["K"], resolved["seed"]) == (3, 6)
    table = Path(out, "table1.csv").read_text().splitlines()
    assert table[0] == "method,mse,mae"
    assert len(table) == 4
    assert os.path.exists(os.path.join(out, "table1.md"))
    assert os.path.exists(os.path.join(out, "experiments", "k_000", "metrics.json"))
    assert os.path.exists(os.path.join(out, "experiments", "k_001", "metrics.json"))
    assert sorted(os.listdir(os.path.join(out, "experiments"))) == ["k_000", "k_001", "k_002"]


def _python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this dduio, run with ``args``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dduio.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_python_dash_m_runs_the_cli():
    assert _python("-m", "dduio", "--version").stdout.strip() == dduio.__version__


NO_SCIPY_PIPELINE = """
import json, sys
import dduio.cli
cfg, out = sys.argv[1:]
ds, gains = out + "/ds", out + "/gains.json"
codes = [dduio.cli.main(argv) for argv in (
    ["collect", "--config", cfg, "--out", ds],
    ["check", "--config", cfg, "--data", ds],
    ["design", "--config", cfg, "--method", "data", "--data", ds, "--out", gains],
    ["run", "--config", cfg, "--gains", gains, "--out", out + "/run"],
    ["compare", "--config", cfg, "--out", out + "/compare", "--k", "1"])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_no_command_path_loads_scipy(tmp_path, fast_config_path):
    proc = _python("-c", NO_SCIPY_PIPELINE, fast_config_path, str(tmp_path))
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0]
    assert loaded == []


NO_YAML_COMMANDS = """
import json, sys
import dduio.cli
data, out = sys.argv[1:]
loaded = ["yaml" in sys.modules]
for argv in (["check", "--data", data],
             ["design", "--method", "data", "--data", data, "--out", out + "/data.json"],
             ["design", "--method", "model", "--out", out + "/model.json"]):
    loaded.append((dduio.cli.main(argv), "yaml" in sys.modules))
print(json.dumps(loaded))
"""


def test_only_config_files_load_yaml(tmp_path):
    # import dduio.cli, check and design without --config never parse or
    # write YAML; collect, run and compare still write the resolved config
    # as safe_dump does
    data, gains = str(tmp_path / "data"), str(tmp_path / "model.json")
    assert main(["collect", "--out", data]) == 0
    proc = _python("-c", NO_YAML_COMMANDS, data, str(tmp_path))
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, [0, False], [0, False],
                                                        [0, False]]
    assert main(["run", "--gains", gains, "--out", str(tmp_path / "run")]) == 0
    assert main(["compare", "--k", "1", "--out", str(tmp_path / "compare")]) == 0
    for out, raw in (("data", {}), ("run", {}), ("compare", {"compare": {"K": 1}})):
        want = yaml.safe_dump(parse_config(raw).resolved_dict(), sort_keys=True)
        assert (tmp_path / out / "config.resolved.yaml").read_text() == want, out
