"""Command-line pipeline: exit codes, file contracts, reproducibility."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import dduio
from dduio.cli import main

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


def test_collect_byte_identical_rerun(tmp_path, fast_config_path, collected):
    again = str(tmp_path / "ds2")
    assert main(["collect", "--config", fast_config_path, "--out", again]) == 0
    assert _tree_bytes(collected) == _tree_bytes(again)


def test_collect_insufficient_samples(tmp_path, fast_config_path):
    cfg = dict(FAST_CONFIG)
    cfg["data"] = {"N": 3}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["collect", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def test_check_passes_and_explains(collected, capsys):
    assert main(["check", "--data", collected]) == 0
    out = capsys.readouterr().out
    assert "leader: node 0" in out
    assert main(["check", "--data", collected, "--explain"]) == 0
    out = capsys.readouterr().out
    assert "sv[" in out


def test_check_missing_dir(tmp_path):
    assert main(["check", "--data", str(tmp_path / "nowhere")]) == 4


def test_check_corrupted_derivatives(tmp_path, collected):
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(collected, broken)
    # zero out one sample's output derivative
    ydot = broken / "node_00" / "Ydot.csv"
    lines = ydot.read_text().splitlines()
    lines[2] = ",".join("0" for _ in lines[2].split(","))
    ydot.write_text("\n".join(lines) + "\n")
    assert main(["check", "--data", str(broken)]) == 3


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


def test_run_output_directory_holds_exactly_the_run_files(tmp_path, fast_config_path,
                                                          gains_path):
    out = tmp_path / "r"
    assert main(["run", "--config", fast_config_path, "--gains", gains_path,
                 "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(RUN_FILES)


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


@pytest.mark.parametrize("drop", ["gamma", "L"])
def test_run_names_a_missing_gains_key(tmp_path, capsys, fast_config_path, gains_path, drop):
    payload = json.loads(Path(gains_path).read_text())
    holder = payload["gains"] if drop in payload["gains"] else payload["gains"]["nodes"][2]
    del holder[drop]
    bad = tmp_path / "bad_gains.json"
    bad.write_text(json.dumps(payload))
    assert main(["run", "--config", fast_config_path, "--gains", str(bad),
                 "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: gains file is missing the key {drop!r}\n"
    assert not (tmp_path / "r").exists()


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
                 "--k", "2"]) == 0
    table = Path(out, "table1.csv").read_text().splitlines()
    assert table[0] == "method,mse,mae"
    assert len(table) == 4
    assert os.path.exists(os.path.join(out, "table1.md"))
    assert os.path.exists(os.path.join(out, "experiments", "k_000", "metrics.json"))
    assert os.path.exists(os.path.join(out, "experiments", "k_001", "metrics.json"))


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dduio.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "dduio", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == dduio.__version__
