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

from ._csvio import format_float, write_json
from .datagen import NodeDataset, collect
from .design_data import (analyze_datasets, build_data_driven_gains, recover_output_map,
                          regress_on_known)
from .design_model import (DesignSection, DuioGains, assemble_from_node_matrices,
                           build_model_based_gains)
from .errors import DesignError, DimensionError, EmptyRunError, RankError
from .network import SensorGraph
from .observer_sim import RunResult, error_norm_chunks, run
from .plant import PlantModel

METHOD_LABELS = {"model": "model-based", "data": "data-driven", "id": "identification-based"}


def identify_least_squares(ds: NodeDataset, multiplier: float | None = None):
    """Least-squares fit of (A, B_m, C) ignoring the unknown input.

    The regression is the data design's fit of Xdot on [U; X], so any active
    unknown input biases the estimate.  Returns (A_hat, B_m_hat, C_hat).
    """
    theta, known = regress_on_known(ds, multiplier)
    if known.rank < ds.n_m + ds.n_x:
        raise RankError("stacked [U; X] is row-rank deficient; identification is ill-posed")
    return theta[:, ds.n_m:], theta[:, :ds.n_m], recover_output_map(ds, multiplier)[0]


def build_identified_gains(datasets, granted_B_p, graph: SensorGraph,
                           design: DesignSection = DesignSection()) -> DuioGains:
    """Observer gains from identified (A, B_m, C) plus each node's granted B_p."""
    node_mats = []
    for ds, b_p in zip(datasets, granted_B_p):
        a_hat, b_m_hat, c_hat = identify_least_squares(ds, design.rank_multiplier)
        node_mats.append((a_hat, b_m_hat, np.asarray(b_p, dtype=float), c_hat))
    return assemble_from_node_matrices(node_mats, graph, design, method="id")


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


def trapezoid_weights(t: np.ndarray) -> np.ndarray:
    """The weights (t_{k+1} - t_{k-1}) / 2 of the samples at ``t`` (uneven grids
    included), over t[-1]: a (1/T) trapezoid integral is their dot product with
    the samples."""
    if t.size < 2:
        raise EmptyRunError("metrics need at least two samples")
    weights = np.empty(t.size)
    weights[0], weights[-1] = t[1] - t[0], t[-1] - t[-2]
    weights[1:-1] = t[2:] - t[:-2]
    weights *= 0.5 / t[-1]
    return weights


def _fold_metrics(t: np.ndarray, chunks) -> MethodMetrics:
    """Per-node (1/T) integrals of the squared and absolute error norms, folded
    over ``chunks`` of the norms on the grid ``t``, (first row, rows).

    Both are trapezoid integrals, sums over the samples with one weight
    vector (``trapezoid_weights``): each chunk adds one weight product for
    each, ``w @ (norms * norms)`` and ``w @ norms``, so the largest
    temporary is one chunk's squares.
    """
    weights = trapezoid_weights(t)
    mse_nodes = mae_nodes = 0.0
    for r0, norms in chunks:
        w = weights[r0:r0 + norms.shape[0]]
        mse_nodes = mse_nodes + w @ (norms * norms)
        mae_nodes = mae_nodes + w @ norms
    return MethodMetrics(mse=float(mse_nodes.mean()), mae=float(mae_nodes.mean()),
                         mse_per_node=mse_nodes, mae_per_node=mae_nodes)


def compute_mse_mae(result: RunResult) -> MethodMetrics:
    """Per-node (1/T) integrals of a run's squared and absolute error norms:
    ``_fold_metrics`` of its norms as one chunk."""
    return _fold_metrics(result.t, [(0, result.error_norms)])


@dataclass(frozen=True)
class MetricSummary:
    """Aggregate of one method over all Monte-Carlo experiments."""

    method: str
    mse: float
    mae: float
    per_experiment_mse: np.ndarray
    per_experiment_mae: np.ndarray
    experiments: int


def run_experiment(config, model: PlantModel, graph: SensorGraph, gains: DuioGains,
                   seed: int, xhat_file=None) -> RunResult:
    """``run`` of ``gains`` on ``seed``'s scenario, drawn from the seed as
    ``experiment_metrics`` draws it (``_experiment``), its estimates written
    to ``xhat_file`` when given."""
    ((gains, z0),), scenario = _experiment(config, model, [gains], seed)
    return run(model, graph, gains, *scenario, z0=z0, xhat_file=xhat_file)


def experiment_metrics(config, model: PlantModel, graph: SensorGraph, designs, seed: int):
    """An iterator of the metrics of each design's ``run_experiment``, all in one
    pass over ``seed``'s scenario.

    The metrics' sums are folded chunk by chunk from the pass
    (``error_norm_chunks``), so no network's full-length arrays are made.
    """
    observers, scenario = _experiment(config, model, designs, seed)
    for t, chunks in error_norm_chunks(model, graph, observers, *scenario):
        yield _fold_metrics(t, chunks)


def _experiment(config, model: PlantModel, designs, seed: int):
    """Each design with its initial observer states, and ``seed``'s scenario:
    the initial state, the signals, the horizon and the step."""
    x0 = config.draw_x0(seed)
    return ([(g, config.initial_observer_states(x0, model, g)) for g in designs],
            (x0, config.build_inputs(seed), config.build_disturbances(seed),
             config.run.horizon, config.run.dt))


def _derived_seed(*parts) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _check_datasets_fit(datasets, model: PlantModel) -> None:
    """One dataset per node of ``model``, each with its node's (n_x, n_m, n_y)."""
    if len(datasets) != model.M:
        raise DimensionError(f"{len(datasets)} datasets for a plant of {model.M} nodes")
    for i, (ds, node) in enumerate(zip(datasets, model.nodes)):
        have, want = (ds.n_x, ds.n_m, ds.n_y), (model.n_x, node.n_m, node.n_y)
        if have != want:
            raise DimensionError(f"node {i}: dataset (n_x, n_m, n_y) = {have}, "
                                 f"configured plant {want}")


def design_for_method(method: str, config, model: PlantModel, graph: SensorGraph,
                      datasets=None) -> DuioGains:
    """Dispatch one design method from a resolved configuration."""
    d = config.design
    if method == "model":
        return build_model_based_gains(model, graph, d)
    if datasets is None:
        raise DesignError(f"method {method!r} needs offline datasets")
    views = [ds.design_view() for ds in datasets]
    if method == "data":
        reports, _ = analyze_datasets(views, rtol=d.residual_rtol,
                                      multiplier=d.rank_multiplier)
        return build_data_driven_gains(reports, graph, d)
    if method == "id":
        _check_datasets_fit(views, model)
        return build_identified_gains(views, [node.B_p for node in model.nodes], graph, d)
    raise DesignError(f"unknown design method {method!r}")


def collect_all_nodes(config, model: PlantModel, seed: int):
    """One offline dataset per node with per-node derived seeds."""
    return [collect(model, i, config.data, seed=_derived_seed(seed, 10, i),
                    rank_multiplier=config.design.rank_multiplier)
            for i in range(model.M)]


def monte_carlo_compare(config, K: int, master_seed: int,
                        artifacts_dir: str | None = None) -> list[MetricSummary]:
    """Seeded repeated comparison of the design methods on one plant.

    Every experiment draws a fresh initial state, fresh online signal
    realizations, and fresh offline datasets (for the data-driven and
    identification methods), designs every method, then runs them all in
    one pass over the identical online scenario (``experiment_metrics``).
    Identical seeds reproduce identical summaries.
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
        designs = [model_gains if method == "model"
                   else design_for_method(method, config, model, graph, datasets)
                   for method in methods]
        experiment_record = {"experiment": k, "seed": exp_seed, "methods": {}}
        for method, metrics in zip(methods, experiment_metrics(config, model, graph, designs,
                                                               exp_seed)):
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
            per_experiment_mse=mse_k, per_experiment_mae=mae_k, experiments=K))
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
