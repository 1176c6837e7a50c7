"""The import and world-build path needs numpy only.

``import repro`` plus a first world build and run must not load scipy
or networkx: every CLI call, spawned pool worker and ``repro serve``
start pays for whatever that path imports.  ``scipy.stats`` is loaded
on the first confidence interval; ``networkx`` only by
``Topology.to_networkx``.  Each check runs in a fresh interpreter, since
the test process itself has both libraries loaded long ago.
"""

import json
import os
import subprocess
import sys

HEAVY = ("scipy", "networkx")


def _run_fresh(code):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _loaded():
    return (
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules}"
        f" & set({HEAVY!r}))))\n"
    )


def test_import_and_small_run_load_neither_scipy_nor_networkx():
    code = (
        "import repro\n"
        "import repro.cli\n"
        "from repro import SimulationConfig, run_simulation\n"
        "summary = run_simulation(SimulationConfig.small(sim_time_s=0.25 * 86400, seed=1))\n"
        "assert summary.n_recharges >= 0\n"
    ) + _loaded()
    assert _run_fresh(code) == []


def test_confidence_interval_loads_scipy_lazily_and_matches_t_ppf():
    code = (
        "import numpy as np\n"
        "from repro.utils.stats import t_confidence_interval\n"
        "before = 'scipy.stats' in sys.modules\n"
        "data = [1.0, 2.5, 2.0, 7.25, 3.0]\n"
        "got = t_confidence_interval(data, 0.9)\n"
        "from scipy import stats\n"
        "arr = np.asarray(data)\n"
        "half = float(stats.t.ppf(0.95, df=4)) * (float(arr.std(ddof=1)) / np.sqrt(5))\n"
        "m = float(arr.mean())\n"
        "print(json.dumps([before, list(got) == [m - half, m + half]]))\n"
    )
    assert _run_fresh(code) == [False, True]


def test_summarize_runs_intervals_match_t_ppf():
    import numpy as np
    from scipy import stats

    from repro.sim.config import SimulationConfig
    from repro.sim.runner import run_seeds
    from repro.utils.stats import summarize_runs

    runs = run_seeds(SimulationConfig.small(sim_time_s=0.1 * 86400), [1, 2, 3])
    out = summarize_runs(runs, confidence=0.95)
    for key, entry in out.items():
        values = np.asarray([r.as_dict()[key] for r in runs], dtype=np.float64)
        sem = float(values.std(ddof=1)) / np.sqrt(values.size)
        if sem == 0.0:
            assert entry["ci_low"] == entry["ci_high"] == entry["mean"]
            continue
        half = float(stats.t.ppf(0.975, df=values.size - 1)) * sem
        assert (entry["ci_low"], entry["ci_high"]) == (entry["mean"] - half, entry["mean"] + half)
