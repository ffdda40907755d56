"""Command-line orchestration of the collect/check/design/run/compare pipeline.

Every command is a pure function of (config, seed, input files); repeated
invocations with the same seed produce byte-identical outputs.  Exit
codes: 2 excitation failure, 3 failed data check, 4 I/O error, 5 design
failure, 6 dimension mismatch, 1 anything else.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from ._csvio import write_json
from .baselines import (collect_all_nodes, compute_mse_mae, design_for_method,
                        monte_carlo_compare, run_experiment, write_comparison_table)
from .config import DESIGN_METHODS, ExperimentConfig, parse_config, write_resolved
from .datagen import load_dataset, save_dataset
from .design_data import analyze_datasets
from .design_model import DuioGains, coupled_abscissa
from .errors import (ConfigError, ConsistencyError, DesignError, DimensionError, DuioError,
                     ExcitationError, NumericsError, RankError, SolvabilityError)
from .observer_sim import export_run, verify_decoupling, xhat_writer


# Each flag that overrides one config key: (flag, section or None, key).
_OVERRIDES = (("seed", None, "seed"), ("gamma", "design", "gamma_override"),
              ("k", "compare", "K"))


def _get_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with the override flags written in.

    The flags go into the raw mapping, so each meets its key's parse rule.
    """
    raw = None
    if getattr(args, "config", None):
        import yaml  # only a config file needs the parser
        # bytes, so that the parser reads the encoding as YAML defines it
        with open(args.config, "rb") as fh:
            try:
                raw = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ConfigError(f"config file {args.config} is not YAML: {exc}") from None
    if raw is None:  # no file, or an empty one
        raw = {}
    for flag, section, key in _OVERRIDES:
        value = getattr(args, flag, None)
        if value is None or not isinstance(raw, dict):
            continue
        holder = raw if section is None else raw.setdefault(section, {})
        if isinstance(holder, dict):
            holder[key] = value
    return parse_config(raw)


def _load_datasets(data_dir: str) -> list:
    """The node_<i> datasets under ``data_dir`` by index; the k-th must hold node k."""
    if not os.path.isdir(data_dir):
        raise FileNotFoundError(f"dataset directory not found: {data_dir}")
    subdirs = sorted((d for d in os.listdir(data_dir)
                      if d.startswith("node_") and d[5:].isdecimal()),
                     key=lambda d: (int(d[5:]), d))
    if not subdirs:
        raise FileNotFoundError(f"no node_* dataset directories under {data_dir}")
    paths = [os.path.join(data_dir, d) for d in subdirs]
    datasets = [load_dataset(path) for path in paths]
    for position, (path, ds) in enumerate(zip(paths, datasets)):
        if ds.node_index != position:
            raise DuioError(f"dataset {path} holds node {ds.node_index!r} "
                            f"but is dataset {position} in node order")
    return datasets


def cmd_collect(args) -> int:
    cfg = _get_config(args)
    model = cfg.build_model()
    # collect returns only datasets whose [U; W; X] passed the full-row-rank test
    datasets = collect_all_nodes(cfg, model, cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    for i, ds in enumerate(datasets):
        save_dataset(ds, os.path.join(args.out, f"node_{i:02d}"))
        rank = ds.n_m + len(ds.W_validation) + ds.n_x
        print(f"node {i}: N={ds.N} rank {rank}/{rank} [ok]")
    write_resolved(cfg, os.path.join(args.out, "config.resolved.yaml"))
    return 0


def cmd_check(args) -> int:
    cfg = _get_config(args)
    datasets = _load_datasets(args.data)
    try:
        reports, leader = analyze_datasets(datasets, rtol=cfg.design.residual_rtol,
                                           multiplier=cfg.design.rank_multiplier)
    except ConsistencyError as exc:
        print(f"FAIL data consistency: {exc}", file=sys.stderr)
        return 3
    failures = [rep.rank_error for rep in reports if rep.rank_error is not None]
    failures += [f"node {rep.node_index} failed the solvability rank test"
                 for rep in reports if not rep.solvable]
    for rep in reports:
        print(f"node {rep.node_index}: solvability rank test {rep.ranks['U;Ydot;X'].rank} == "
              f"{rep.ranks['U;X;Xdot'].rank} [{'ok' if rep.solvable else 'FAIL'}]")
        if rep.rank_error is not None:
            print(f"node {rep.node_index}: {rep.rank_error} [FAIL]")
        if args.explain:
            for name, decision in rep.ranks.items():
                print(f"  sv[{name}]: " + " ".join(f"{v:.3e}" for v in decision.singular_values))
    if leader is None:
        failures.append("no node passed the detectability test")
        print("leader: none", file=sys.stderr)
    else:
        print(f"leader: node {leader} passed the detectability test")
    if failures:
        print(f"FAIL: {failures[0]}", file=sys.stderr)
        return 3
    return 0


def cmd_design(args) -> int:
    cfg = _get_config(args)
    model, graph = cfg.build_model(), cfg.build_graph()
    datasets = None
    if args.method in ("data", "id"):
        if not args.data:
            raise DesignError(f"method {args.method!r} needs --data")
        datasets = _load_datasets(args.data)
    gains = design_for_method(args.method, cfg, model, graph, datasets)
    spectrum = coupled_abscissa(gains, graph)
    abscissa = spectrum.abscissa
    verification = {"spectral_abscissa": abscissa, "abscissa_block": spectrum.block,
                    "gamma": gains.gamma, "coupling_bound": spectrum.bound,
                    "decay_shift": gains.decay_shift,
                    "follower_ceiling": spectrum.ceiling, "leader": gains.leader}
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
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DuioError(f"gains file {args.gains} is not JSON: {exc}") from None
    if not (isinstance(payload, dict) and isinstance(payload.get("gains"), dict)):
        raise DuioError(f"gains file {args.gains} has no top-level 'gains' object")
    gains = DuioGains.from_json_dict(payload["gains"])
    # the estimates go to xhat.npy chunk by chunk, so no (T, M, n_x) array is held
    with xhat_writer(args.out) as xhat_file:
        result = run_experiment(cfg, model, graph, gains, cfg.seed, xhat_file)
    metrics = compute_mse_mae(result)
    export_run(result, args.out, extra_summary={
        **metrics.to_json_dict(), "seed": cfg.seed, "method": gains.method})
    write_resolved(cfg, os.path.join(args.out, "config.resolved.yaml"))
    print(f"final error norms: "
          + " ".join(f"{v:.3e}" for v in result.final_error_norms)
          + f"  spread: {result.final_spread:.3e}")
    return 0


def cmd_compare(args) -> int:
    cfg = _get_config(args)
    summaries = monte_carlo_compare(cfg, K=cfg.compare.K, master_seed=cfg.seed,
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
    ((DesignError, SolvabilityError, NumericsError, RankError), 5),
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
