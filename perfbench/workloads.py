"""The three benchmark workloads: inputs from a seed, operations, checks.

Each workload drives dduio only through its public functions and
``cli.main``.  Module functions are looked up on the module object at call
time (``baselines.design_for_method``, not a name imported once), so the
traced run sees every call through the names the tracer rebinds.

A workload has a timed ``setup``, an untimed ``prepare_checks`` that
computes the oracle side of the correctness checks, and operations grouped
into rounds: ``round_keys(r)`` names the operations of round ``r``,
``op(key)`` runs one and returns its output, ``check(key, output)`` lists
what is wrong with it (empty when correct), and ``signature(output)`` is
the exact value the traced and untraced runs must agree on.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

MC_REFERENCE_FILE = "mc_reference.json"
MC_REFERENCE_SIZE = 32
# The exact-propagator rewrite of the closed loop moves the trajectory by
# at most about 1e-12 and the MSE/MAE by less than 1e-10 relative; a
# second-order integrator at dt = 1e-3 moves them by far more than this.
MC_REFERENCE_RTOL = 1e-8
# Noise-free offline data make the data-driven and model-based designs
# coincide to rounding; the acceptance suite compares them with this tie.
MC_TIE_RTOL = 1e-9

# (n_x, M) of the design-sweep plants, one plant per size in every round.
SWEEP_SIZES = ((16, 8), (20, 9), (24, 10), (28, 11), (32, 12))
# Bound on the normwise relative decoupling residual: each identity's
# residual over the norms of its terms.  It equals the relative residual
# the program itself allows its data equations (design.residual_rtol).  An
# absolute bound does not carry over from the 4-state preset to 32 states.
SWEEP_RESIDUAL_RTOL = 1e-6
# The acceptance suite's bound on the gain mismatch, relative here.
SWEEP_GAIN_RTOL = 1e-6
GAIN_FIELDS = ("E_obs", "F", "L", "H", "K")


def _import_dduio():
    # Imported on first use so that a worker's set-up time covers it.
    from dduio import baselines, cli, config, design_data, design_model, observer_sim
    return baselines, cli, config, design_data, design_model, observer_sim


class McCompare:
    """Monte-Carlo comparison experiments on the default preset.

    One operation is ``monte_carlo_compare(config, K=1, master_seed=s)``:
    collect five datasets, design the model, data and id gains, then three
    closed-loop 40 s runs at dt = 1e-3 and their MSE/MAE.  The master
    seeds come from the recorded reference table, in an order drawn from
    the benchmark seed, so every experiment can be checked.
    """

    name = "mc-compare"

    def __init__(self, seed: int, out_dir: str):
        order = np.random.default_rng(seed).permutation(MC_REFERENCE_SIZE)
        self.master_seeds = [int(s) for s in order]

    def setup(self) -> None:
        self.baselines, _, config, *_ = _import_dduio()
        self.config = config.parse_config({})
        self.config.build_model()
        self.config.build_graph()

    def prepare_checks(self) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, MC_REFERENCE_FILE)) as fh:
            self.reference = json.load(fh)["experiments"]

    def round_keys(self, r: int) -> list:
        return [self.master_seeds[r % len(self.master_seeds)]]

    def op(self, key):
        summaries = self.baselines.monte_carlo_compare(self.config, K=1, master_seed=key)
        return {s.method: {"mse": s.mse, "mae": s.mae} for s in summaries}

    def check(self, key, output) -> list[str]:
        return check_mc_experiment(self.reference[str(key)], output)

    @staticmethod
    def signature(output):
        return json.dumps(output, sort_keys=True)


def check_mc_experiment(reference: dict, output: dict) -> list[str]:
    """MSE/MAE against the recorded reference, and the data/model tie."""
    problems = []
    if set(output) != set(reference):
        return [f"methods {sorted(output)} differ from reference {sorted(reference)}"]
    for method, ref in reference.items():
        for stat in ("mse", "mae"):
            got, want = output[method][stat], ref[stat]
            if not abs(got - want) <= MC_REFERENCE_RTOL * abs(want):
                problems.append(f"{method} {stat} {got!r} differs from reference {want!r}")
    mse_model, mse_data = output["model"]["mse"], output["data"]["mse"]
    if not abs(mse_data - mse_model) <= MC_TIE_RTOL * abs(mse_model):
        problems.append(f"noise-free data MSE {mse_data!r} != model MSE {mse_model!r}")
    return problems


class CliPipeline:
    """``collect``, ``check``, ``design --method data`` and ``run`` via cli.main.

    One operation is one pass of the four commands on the preset with the
    benchmark seed, into a fresh directory.  The pass's output tree is
    hashed and then deleted, so disk use does not grow with the pass count.
    """

    name = "cli-pipeline"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.work_dir = os.path.join(out_dir, f"cli-{seed}-{os.getpid()}")
        self.passes = 0
        self.first_tree = None

    def setup(self) -> None:
        _, self.cli, config, *_ = _import_dduio()
        cfg = config.parse_config({})
        cfg.build_model()
        cfg.build_graph()

    def prepare_checks(self) -> None:
        pass

    def round_keys(self, r: int) -> list:
        return [r]

    def op(self, key):
        root = os.path.join(self.work_dir, f"pass_{self.passes:04d}")
        self.passes += 1
        data, gains, run_out = (os.path.join(root, p) for p in ("data", "gains.json", "run"))
        seed = ["--seed", str(self.seed)]
        commands = (["collect", *seed, "--out", data],
                    ["check", *seed, "--data", data],
                    ["design", *seed, "--method", "data", "--data", data, "--out", gains],
                    ["run", *seed, "--gains", gains, "--out", run_out])
        os.makedirs(root)
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in commands:
                codes.append(self.cli.main(argv))
                if codes[-1] != 0:
                    break
        return {"codes": codes, "tree": tree_digest(root), "root": root}

    def check(self, key, output) -> list[str]:
        shutil.rmtree(output["root"], ignore_errors=True)
        if self.first_tree is None and output["codes"] == [0, 0, 0, 0]:
            self.first_tree = output["tree"]
        return check_pipeline(output["codes"], self.first_tree, output["tree"])

    @staticmethod
    def signature(output):
        return json.dumps([output["codes"], output["tree"]], sort_keys=True)

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def tree_digest(root: str) -> dict:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    digest = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def check_pipeline(codes: list, first_tree, tree: dict) -> list[str]:
    """Every command exits 0 and the tree equals the first pass's, byte for byte."""
    if codes != [0, 0, 0, 0]:
        return [f"command exit codes {codes}, expected [0, 0, 0, 0]"]
    if first_tree is None:
        return ["no complete first pass to compare against"]
    problems = [f"{p}: missing or extra file" for p in sorted(set(tree) ^ set(first_tree))]
    problems += [f"{p}: differs from the first pass" for p in sorted(set(tree) & set(first_tree))
                 if tree[p] != first_tree[p]]
    return problems


def sweep_plant_config(seed: int, index: int) -> dict:
    """Raw config of one seeded random explicit plant of the design sweep.

    A is scaled to unit spectral radius and shifted so its abscissa is
    -0.5, so offline collection cannot diverge.  A quarter of the states
    get a known actuator shared by every node, one more input is unknown
    to every node, and there is one disturbance; every node sees three
    random outputs.  The graph is a ring with random chords.
    """
    n_x, m_nodes = SWEEP_SIZES[index]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), index]))
    n_m = n_x // 4
    a = rng.normal(size=(n_x, n_x)) / np.sqrt(n_x)
    a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n_x)
    b = rng.normal(size=(n_x, n_m + 1))
    e = 0.1 * rng.normal(size=(n_x, 1))
    nodes = [{"C": rng.normal(size=(3, n_x)).tolist(), "known_input_indices": list(range(n_m))}
             for _ in range(m_nodes)]
    edges = {(i, (i + 1) % m_nodes) for i in range(m_nodes)}
    for _ in range(m_nodes // 2):
        i, j = (int(v) for v in rng.choice(m_nodes, size=2, replace=False))
        if (j, i) not in edges:
            edges.add((i, j))
    return {
        "seed": int(rng.integers(2 ** 31)),
        "plant": {"A": a.tolist(), "B": b.tolist(), "E": e.tolist(), "nodes": nodes,
                  "inputs": [{"kind": "zero"}] * (n_m + 1),
                  "disturbances": [{"kind": "zero"}]},
        "graph": {"size": m_nodes, "edges": [list(edge) for edge in sorted(edges)]},
        "data": {"N": n_x + n_m + 2 + 10},
    }


class DesignSweep:
    """Data-side tests and the data, model and id designs on random plants.

    Set-up parses one explicit plant per size and collects its offline
    datasets.  One operation is one plant's ``analyze_datasets``, the three
    designs through ``design_for_method``, ``error_dynamics_matrix`` and
    ``verify_decoupling``; there is no closed-loop run.
    """

    name = "design-sweep"

    def __init__(self, seed: int, out_dir: str):
        self.raw = [sweep_plant_config(seed, p) for p in range(len(SWEEP_SIZES))]

    def setup(self) -> None:
        (self.baselines, _, config, self.design_data, self.design_model,
         self.observer_sim) = _import_dduio()
        self.plants = []
        for raw in self.raw:
            cfg = config.parse_config(raw)
            model, graph = cfg.build_model(), cfg.build_graph()
            datasets = self.baselines.collect_all_nodes(cfg, model, cfg.seed)
            self.plants.append((cfg, model, graph, datasets))

    def prepare_checks(self) -> None:
        dm = self.design_model
        self.expected = []
        for cfg, model, _, _ in self.plants:
            mult = cfg.design.rank_multiplier
            solvable = [dm.rank_condition(n.C, n.B_p, mult) for n in model.nodes]
            leader = next((i for i in range(model.M) if dm.check_detectability(model, i)), None)
            self.expected.append({"solvable": solvable, "leader": leader})

    def round_keys(self, r: int) -> list:
        return list(range(len(self.plants)))

    def op(self, key):
        cfg, model, graph, datasets = self.plants[key]
        d = cfg.design
        views = [ds.design_view() for ds in datasets]
        reports, leader = self.design_data.analyze_datasets(
            views, rtol=d.residual_rtol, multiplier=d.rank_multiplier)
        gains = {m: self.baselines.design_for_method(m, cfg, model, graph, datasets)
                 for m in ("data", "model", "id")}
        _, abscissa = self.observer_sim.error_dynamics_matrix(gains["data"], graph)
        decoupling = self.observer_sim.verify_decoupling(model, gains["data"])
        return {"solvable": [r.solvable for r in reports], "leader": leader,
                "gains": gains, "abscissa": abscissa,
                "residual": decoupling.max_residual,
                "rel_residual": relative_residual(model, gains["data"], decoupling)}

    def check(self, key, output) -> list[str]:
        return check_design(self.expected[key], output)

    @staticmethod
    def signature(output):
        h = hashlib.sha256()
        for method in sorted(output["gains"]):
            g = output["gains"][method]
            h.update(f"{method}:{g.leader}:{g.gamma!r};".encode())
            for field in GAIN_FIELDS:
                for block in getattr(g, field):
                    h.update(np.ascontiguousarray(block).tobytes())
        return json.dumps([output["solvable"], output["leader"], repr(output["abscissa"]),
                           repr(output["residual"]), repr(output["rel_residual"]),
                           h.hexdigest()])


def relative_residual(model, gains, report) -> float:
    """Largest decoupling residual over the norms of its identity's terms.

    ``report`` is ``verify_decoupling(model, gains)``; the terms are those
    of F = (I - H C) B_m, (I - H C) B_p = 0 and
    (I - H C) A - E (I - H C) - L C = 0, in the same Frobenius norm.
    """
    norm, worst = np.linalg.norm, 0.0
    for i, node in enumerate(model.nodes):
        ihc = norm(np.eye(model.n_x) - gains.H[i] @ node.C)
        scales = (norm(gains.F[i]) + ihc * norm(node.B_m),
                  ihc * norm(node.B_p),
                  ihc * norm(model.A) + norm(gains.E_obs[i]) * ihc + norm(gains.L[i]) * norm(node.C))
        residuals = (report.input_residuals[i], report.unknown_residuals[i],
                     report.state_residuals[i])
        for residual, scale in zip(residuals, scales):
            if residual > 0:
                worst = max(worst, residual / scale if scale > 0 else np.inf)
    return float(worst)


def check_design(expected: dict, output: dict) -> list[str]:
    """Data-side verdicts, stability, gain equality and decoupling residual."""
    problems = []
    if output["solvable"] != expected["solvable"]:
        problems.append(f"data solvability {output['solvable']} != model {expected['solvable']}")
    if output["leader"] != expected["leader"]:
        problems.append(f"data leader {output['leader']} != model leader {expected['leader']}")
    if not output["abscissa"] < 0:
        problems.append(f"coupled abscissa {output['abscissa']!r} is not negative")
    data, model = output["gains"]["data"], output["gains"]["model"]
    if data.leader != model.leader:
        problems.append(f"data gains leader {data.leader} != model gains leader {model.leader}")
    if not abs(data.gamma - model.gamma) <= SWEEP_GAIN_RTOL * max(1.0, abs(model.gamma)):
        problems.append(f"data gamma {data.gamma!r} != model gamma {model.gamma!r}")
    for field in GAIN_FIELDS:
        for i, (a, b) in enumerate(zip(getattr(data, field), getattr(model, field))):
            if not np.linalg.norm(a - b) <= SWEEP_GAIN_RTOL * max(1.0, np.linalg.norm(b)):
                problems.append(f"node {i} {field}: data gain differs from model gain")
    if not output["rel_residual"] < SWEEP_RESIDUAL_RTOL:
        problems.append(f"relative decoupling residual {output['rel_residual']:.3e} "
                        f">= {SWEEP_RESIDUAL_RTOL:g} (absolute {output['residual']:.3e})")
    return problems


WORKLOADS = {w.name: w for w in (McCompare, CliPipeline, DesignSweep)}
