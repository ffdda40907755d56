"""Command-line orchestration of the collect/check/design/run/compare pipeline.

Every command is a pure function of (config, seed, input files); repeated
invocations with the same seed produce byte-identical outputs.  Exit
codes: 2 excitation failure, 3 failed data check, 4 I/O error, 5 design
failure, 6 dimension mismatch, 1 anything else.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from ._csvio import write_json
from .baselines import (collect_all_nodes, design_for_method, monte_carlo_compare,
                        write_comparison_table, compute_mse_mae)
from .config import (DESIGN_METHODS, ExperimentConfig, load_config, parse_config,
                     write_resolved)
from .datagen import check_excitation_rank, load_dataset, save_dataset
from .design_data import analyze_datasets, rank_spectra
from .design_model import DuioGains
from .errors import (ConsistencyError, DesignError, DimensionError, DuioError,
                     ExcitationError, NumericsError, SolvabilityError)
from .observer_sim import error_dynamics_matrix, export_run, run, verify_decoupling


def _get_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = parse_config({})
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _node_dirs(data_dir: str) -> list[str]:
    if not os.path.isdir(data_dir):
        raise FileNotFoundError(f"dataset directory not found: {data_dir}")
    subdirs = sorted(d for d in os.listdir(data_dir) if d.startswith("node_"))
    if not subdirs:
        raise FileNotFoundError(f"no node_* dataset directories under {data_dir}")
    return [os.path.join(data_dir, d) for d in subdirs]


def cmd_collect(args) -> int:
    cfg = _get_config(args)
    model = cfg.build_model()
    datasets = collect_all_nodes(cfg, model, cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    for i, ds in enumerate(datasets):
        save_dataset(ds, os.path.join(args.out, f"node_{i:02d}"))
        report = check_excitation_rank(ds, cfg.design.rank_multiplier)
        verdict = "ok" if report.ok else "RANK-DEFICIENT"
        print(f"node {i}: N={ds.N} rank {report.rank}/{report.required} [{verdict}]")
    write_resolved(cfg, os.path.join(args.out, "config.resolved.yaml"))
    return 0


def cmd_check(args) -> int:
    cfg = _get_config(args)
    datasets = [load_dataset(d) for d in _node_dirs(args.data)]
    try:
        reports, leader = analyze_datasets(datasets, rtol=cfg.design.residual_rtol,
                                           multiplier=cfg.design.rank_multiplier)
    except ConsistencyError as exc:
        print(f"FAIL data consistency: {exc}", file=sys.stderr)
        return 3
    status = 0
    first_failure = None
    for rep in reports:
        mark = "ok" if rep.solvable else "FAIL"
        print(f"node {rep.node_index}: solvability rank test "
              f"{rep.rank_with_output_derivs} == {rep.rank_with_state_derivs} [{mark}]")
        if not rep.solvable and first_failure is None:
            first_failure = f"node {rep.node_index} failed the solvability rank test"
        if args.explain:
            for name, sv in rank_spectra(datasets[rep.node_index]).items():
                print(f"  sv[{name}]: " + " ".join(f"{v:.3e}" for v in sv))
    if leader is None:
        if first_failure is None:
            first_failure = "no node passed the detectability test"
        print("leader: none", file=sys.stderr)
    else:
        print(f"leader: node {leader} passed the detectability test")
    if first_failure is not None:
        print(f"FAIL: {first_failure}", file=sys.stderr)
        status = 3
    return status


def cmd_design(args) -> int:
    cfg = _get_config(args)
    if args.gamma is not None:
        cfg = dataclasses.replace(
            cfg, design=dataclasses.replace(cfg.design, gamma_override=args.gamma))
    model, graph = cfg.build_model(), cfg.build_graph()
    datasets = None
    if args.method in ("data", "id"):
        if not args.data:
            raise DesignError(f"method {args.method!r} needs --data")
        datasets = [load_dataset(d) for d in _node_dirs(args.data)]
        if args.explain:
            for ds in datasets:
                for name, sv in rank_spectra(ds).items():
                    print(f"node {ds.node_index} sv[{name}]: "
                          + " ".join(f"{v:.3e}" for v in sv))
    gains = design_for_method(args.method, cfg, model, graph, datasets)
    _, abscissa = error_dynamics_matrix(gains, graph)
    verification = {"spectral_abscissa": abscissa, "gamma": gains.gamma,
                    "leader": gains.leader}
    if args.method in ("model", "id"):
        verification["decoupling"] = verify_decoupling(model, gains).to_json_dict()
    payload = {"gains": gains.to_json_dict(), "verification": verification,
               "resolved_config": cfg.resolved_dict()}
    write_json(args.out, payload)
    print(f"method={args.method} leader={gains.leader} gamma={gains.gamma:.6g} "
          f"abscissa={abscissa:.6g}")
    return 0


def cmd_run(args) -> int:
    cfg = _get_config(args)
    model = cfg.build_model()
    graph = cfg.build_graph()
    with open(args.gains) as fh:
        gains = DuioGains.from_json_dict(json.load(fh)["gains"])
    seed = cfg.seed
    x0 = cfg.draw_x0(seed)
    inputs = cfg.build_inputs(seed)
    disturbances = cfg.build_disturbances(seed)
    z0 = cfg.initial_observer_states(x0, model, gains)
    result = run(model, graph, gains, x0, inputs, disturbances,
                 horizon=cfg.run.horizon, dt=cfg.run.dt, z0=z0)
    metrics = compute_mse_mae(result)
    os.makedirs(args.out, exist_ok=True)
    export_run(result, args.out, extra_summary={
        **metrics.to_json_dict(), "seed": seed, "method": gains.method})
    write_resolved(cfg, os.path.join(args.out, "config.resolved.yaml"))
    print(f"final error norms: "
          + " ".join(f"{v:.3e}" for v in result.final_error_norms)
          + f"  spread: {result.final_spread:.3e}")
    return 0


def cmd_compare(args) -> int:
    cfg = _get_config(args)
    k = args.k if args.k is not None else cfg.compare.K
    summaries = monte_carlo_compare(cfg, K=k, master_seed=cfg.seed,
                                    artifacts_dir=os.path.join(args.out, "experiments"))
    write_comparison_table(summaries, args.out)
    write_resolved(cfg, os.path.join(args.out, "config.resolved.yaml"))
    for s in summaries:
        print(f"{s.method}: MSE={s.mse:.6g} MAE={s.mae:.6g} (K={s.experiments})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dduio",
        description="Design and simulate distributed unknown-input observers")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment configuration (YAML)")
        p.add_argument("--seed", type=int, help="override the configured seed")

    p = sub.add_parser("collect", help="collect offline datasets per node")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("check", help="run the data-driven existence checks")
    common(p)
    p.add_argument("--data", required=True, help="directory of node_* datasets")
    p.add_argument("--explain", action="store_true",
                   help="print singular-value spectra of every rank test")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("design", help="design observer gains")
    common(p)
    p.add_argument("--method", required=True, choices=DESIGN_METHODS)
    p.add_argument("--data", help="datasets for the data/id methods")
    p.add_argument("--out", required=True, help="output gains JSON path")
    p.add_argument("--gamma", type=float, help="override the coupling gain")
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("run", help="simulate the closed loop with given gains")
    common(p)
    p.add_argument("--gains", required=True, help="gains JSON from 'design'")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="Monte-Carlo comparison of the methods")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k", type=int, help="number of experiments")
    p.set_defaults(func=cmd_compare)
    return parser


# The exit code of each error family; the first matching entry wins.
EXIT_CODES = (
    (ExcitationError, 2),
    (ConsistencyError, 3),
    (OSError, 4),
    ((DesignError, SolvabilityError, NumericsError), 5),
    (DimensionError, 6),
    (DuioError, 1),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DuioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
