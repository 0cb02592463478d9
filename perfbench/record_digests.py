"""Record each workload's answer digest for a set of seeds.

Usage, from the repository root::

    python3 perfbench/record_digests.py

Runs one untraced sample per workload and seed and rewrites
``digests.json``, which ``run.py`` checks every sample against.  Run
it only when a change is meant to alter the simulated results.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS, run_sample  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
SEEDS = list(range(0, 21)) + [HELD_OUT_SEED]


def main() -> int:
    digests = {
        workload: {str(seed): run_sample(workload, seed, trace=False)["digest"] for seed in SEEDS}
        for workload in WORKLOADS
    }
    document = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "digests": digests}
    with open(os.path.join(HERE, "digests.json"), "w") as out:
        json.dump(document, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
