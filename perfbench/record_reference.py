"""Record the mc-compare reference table from the program under src/.

Run from the repository root:

    python3 perfbench/record_reference.py

It writes perfbench/mc_reference.json: for every master seed in
``range(workloads.MC_REFERENCE_SIZE)``, the MSE and MAE of each design
method from ``monte_carlo_compare(config, K=1, master_seed=...)`` on the
default two-mass-spring preset.  The mc-compare workload checks every
experiment it runs against this table, so re-record it only when a change
is meant to alter the simulated numbers, and say so in CHANGES.md.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402  (standard library only)


def main() -> int:
    # BLAS reads its thread count when numpy loads, so set it first.
    os.environ.update({name: str(run.BLAS_THREADS) for name in run.BLAS_ENV_VARS})
    import workloads
    from dduio import baselines, config
    cfg = config.parse_config({})
    table = {}
    for master_seed in range(workloads.MC_REFERENCE_SIZE):
        summaries = baselines.monte_carlo_compare(cfg, K=1, master_seed=master_seed)
        table[str(master_seed)] = {s.method: {"mse": s.mse, "mae": s.mae} for s in summaries}
        print(f"master seed {master_seed}: " + " ".join(
            f"{s.method} mse={s.mse!r}" for s in summaries), flush=True)
    path = os.path.join(HERE, workloads.MC_REFERENCE_FILE)
    with open(path, "w", newline="\n") as fh:
        json.dump({"config": "default two-mass-spring preset", "K": 1,
                   "experiments": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
