"""Identification-based baseline, error metrics, and the comparison harness.

The baseline is granted each node's unknown-input coupling B_p but not the
unknown-input samples, so its least-squares identification absorbs the
unknown-input term as unmodeled error; the comparison quantifies how
much that costs against the model-based and data-driven designs.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from ._csvio import format_float, write_json
from .datagen import NodeDataset, collect
from .design_data import analyze_datasets, build_data_driven_gains, recover_output_map
from .design_model import (DEFAULT_DECAY, DEFAULT_GAMMA_MARGIN, DuioGains,
                           assemble_from_node_matrices, build_model_based_gains)
from .errors import DesignError, EmptyRunError, RankError
from .linalg import numerical_rank, pinv
from .network import SensorGraph
from .observer_sim import RunResult, run
from .plant import PlantModel

METHOD_LABELS = {"model": "model-based", "data": "data-driven", "id": "identification-based"}


def identify_least_squares(ds: NodeDataset, multiplier: float | None = None):
    """Least-squares fit of (A, B_m, C) ignoring the unknown input.

    The regression solves Xdot ~ A X + B_m U, so any active unknown input
    biases the estimate.  Returns (A_hat, B_m_hat, C_hat).
    """
    regressors = np.vstack([ds.X, ds.U])
    if numerical_rank(regressors, multiplier) < ds.n_x + ds.n_m:
        raise RankError("stacked [X; U] is row-rank deficient; identification is ill-posed")
    theta = ds.Xdot @ pinv(regressors, multiplier)
    a_hat = theta[:, :ds.n_x]
    b_m_hat = theta[:, ds.n_x:]
    c_hat = recover_output_map(ds, multiplier)
    return a_hat, b_m_hat, c_hat


def build_identified_gains(datasets, granted_B_p, graph: SensorGraph,
                           decay: float = DEFAULT_DECAY,
                           gamma_margin: float = DEFAULT_GAMMA_MARGIN,
                           gamma_override: float | None = None,
                           multiplier: float | None = None) -> DuioGains:
    """Observer gains from identified (A, B_m, C) plus each node's granted B_p."""
    node_mats = []
    for ds, b_p in zip(datasets, granted_B_p):
        a_hat, b_m_hat, c_hat = identify_least_squares(ds, multiplier)
        node_mats.append((a_hat, b_m_hat, np.asarray(b_p, dtype=float), c_hat))
    return assemble_from_node_matrices(node_mats, graph, decay, gamma_margin,
                                       gamma_override, method="id")


@dataclass(frozen=True)
class MethodMetrics:
    """Time-averaged error metrics of one closed-loop run."""

    mse: float
    mae: float
    mse_per_node: np.ndarray
    mae_per_node: np.ndarray

    def to_json_dict(self) -> dict:
        return {"mse": self.mse, "mae": self.mae,
                "mse_per_node": self.mse_per_node.tolist(),
                "mae_per_node": self.mae_per_node.tolist()}


def compute_mse_mae(result: RunResult) -> MethodMetrics:
    """Per-node (1/T) integrals of the squared and absolute error norms."""
    if result.t.size < 2:
        raise EmptyRunError("metrics need at least two samples")
    horizon = float(result.t[-1])
    mse_nodes = trapezoid(result.error_norms ** 2, result.t, axis=0) / horizon
    mae_nodes = trapezoid(result.error_norms, result.t, axis=0) / horizon
    return MethodMetrics(mse=float(mse_nodes.mean()), mae=float(mae_nodes.mean()),
                         mse_per_node=mse_nodes, mae_per_node=mae_nodes)


@dataclass(frozen=True)
class MetricSummary:
    """Aggregate of one method over all Monte-Carlo experiments."""

    method: str
    mse: float
    mae: float
    mse_per_node: np.ndarray
    mae_per_node: np.ndarray
    per_experiment_mse: np.ndarray
    per_experiment_mae: np.ndarray
    experiments: int
    seed: int


def _derived_seed(*parts) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def design_for_method(method: str, config, model: PlantModel, graph: SensorGraph,
                      datasets=None) -> DuioGains:
    """Dispatch one design method from a resolved configuration."""
    d = config.design
    kwargs = dict(decay=d.decay, gamma_margin=d.gamma_margin,
                  gamma_override=d.gamma_override)
    if method == "model":
        return build_model_based_gains(model, graph, **kwargs)
    if datasets is None:
        raise DesignError(f"method {method!r} needs offline datasets")
    views = [ds.design_view() for ds in datasets]
    if method == "data":
        reports, _ = analyze_datasets(views, rtol=d.residual_rtol,
                                      multiplier=d.rank_multiplier)
        return build_data_driven_gains(reports, graph, **kwargs)
    if method == "id":
        return build_identified_gains(views, [node.B_p for node in model.nodes], graph,
                                      multiplier=d.rank_multiplier, **kwargs)
    raise DesignError(f"unknown design method {method!r}")


def collect_all_nodes(config, model: PlantModel, seed: int):
    """One offline dataset per node with per-node derived seeds."""
    d = config.data
    return [collect(model, i, d.N, seed=_derived_seed(seed, 10, i),
                    sample_interval=d.sample_interval, substeps=d.substeps,
                    restarts=d.restarts, jitter=d.jitter,
                    u_amplitude=d.u_amplitude, d_amplitude=d.d_amplitude,
                    noise_amplitude=d.noise_amplitude,
                    rank_multiplier=config.design.rank_multiplier)
            for i in range(model.M)]


def monte_carlo_compare(config, K: int, master_seed: int,
                        artifacts_dir: str | None = None) -> list[MetricSummary]:
    """Seeded repeated comparison of the design methods on one plant.

    Every experiment draws a fresh initial state, fresh online signal
    realizations, and fresh offline datasets (for the data-driven and
    identification methods), then runs all methods on the identical
    online scenario.  Identical seeds reproduce identical summaries.
    When ``artifacts_dir`` is given, per-experiment metrics are written
    under it as k_###/metrics.json.
    """
    methods = config.compare.methods
    model = config.build_model()
    graph = config.build_graph()

    model_gains = design_for_method("model", config, model, graph) \
        if "model" in methods else None

    per_method: dict[str, list[MethodMetrics]] = {m: [] for m in methods}
    for k in range(K):
        exp_seed = _derived_seed(master_seed, 1000 + k)
        datasets = None
        if any(m in methods for m in ("data", "id")):
            datasets = collect_all_nodes(config, model, exp_seed)
        x0 = config.draw_x0(exp_seed)
        inputs = config.build_inputs(exp_seed)
        disturbances = config.build_disturbances(exp_seed)
        experiment_record = {"experiment": k, "seed": exp_seed, "methods": {}}
        for method in methods:
            if method == "model":
                gains = model_gains
            else:
                gains = design_for_method(method, config, model, graph, datasets)
            z0 = config.initial_observer_states(x0, model, gains)
            result = run(model, graph, gains, x0, inputs, disturbances,
                         horizon=config.run.horizon, dt=config.run.dt, z0=z0)
            metrics = compute_mse_mae(result)
            per_method[method].append(metrics)
            experiment_record["methods"][method] = metrics.to_json_dict()
        if artifacts_dir is not None:
            exp_dir = os.path.join(artifacts_dir, f"k_{k:03d}")
            os.makedirs(exp_dir, exist_ok=True)
            write_json(os.path.join(exp_dir, "metrics.json"), experiment_record)
    summaries = []
    for method in methods:
        runs = per_method[method]
        mse_k = np.array([m.mse for m in runs])
        mae_k = np.array([m.mae for m in runs])
        summaries.append(MetricSummary(
            method=method,
            mse=float(mse_k.mean()), mae=float(mae_k.mean()),
            mse_per_node=np.mean([m.mse_per_node for m in runs], axis=0),
            mae_per_node=np.mean([m.mae_per_node for m in runs], axis=0),
            per_experiment_mse=mse_k, per_experiment_mae=mae_k,
            experiments=K, seed=int(master_seed)))
    return summaries


def write_comparison_table(summaries, out_dir: str) -> None:
    """Emit table1.csv and table1.md (method x {MSE, MAE})."""
    os.makedirs(out_dir, exist_ok=True)
    path_csv = os.path.join(out_dir, "table1.csv")
    with open(path_csv, "w", newline="\n") as fh:
        fh.write("method,mse,mae\n")
        for s in summaries:
            fh.write(f"{METHOD_LABELS.get(s.method, s.method)},"
                     f"{format_float(s.mse)},{format_float(s.mae)}\n")
    path_md = os.path.join(out_dir, "table1.md")
    with open(path_md, "w", newline="\n") as fh:
        fh.write("| Method | MSE | MAE |\n|---|---|---|\n")
        for s in summaries:
            fh.write(f"| {METHOD_LABELS.get(s.method, s.method)} "
                     f"| {s.mse:.4f} | {s.mae:.4f} |\n")
