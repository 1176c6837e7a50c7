"""Regenerate ``fingerprints.json``: the outputs of every cell and world
of each workload under the default seed, computed in-process.

    python3 perfbench/pin.py

Run it only when a change is meant to alter simulation results; the
benchmark counts any other difference from these pins as a failure.
"""

from __future__ import annotations

import json

import work
from repro.sim.runner import run_simulation
from repro.sim.world import World

#: Request grids pinned for serve-sweep (more than a measured run sends).
SERVE_PINNED_GRIDS = 256


def main() -> None:
    seed = work.DEFAULT_SEED
    figure = work.figure_pass(work.figure_grid(seed))
    large = {"world": work.fingerprint(World(work.large_config(seed)).run().as_dict())}
    serve = {}
    for k in range(-1, SERVE_PINNED_GRIDS):
        configs = work.serve_grid(seed, k)
        for label, cfg in zip(work.serve_labels(k, configs), configs):
            serve[label] = work.fingerprint(run_simulation(cfg).as_dict())
    pins = {"figure-sweep": figure, "large-world": large, "serve-sweep": serve}
    (work.HERE / "fingerprints.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
