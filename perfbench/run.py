"""End-to-end benchmark of the WRSN reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure-sweep --seed 3 --seconds 24 --trace 0

Workloads: ``figure-sweep`` (the smoke-scale figure grid, serially),
``large-world`` (one 10 000-sensor world) and ``serve-sweep`` (``repro
serve`` driven by a closed-loop client).  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer split from a separate traced run.  See
``perfbench/README.md`` for the metric definitions.

The work happens in fresh interpreters (``work.py``) started with every
``REPRO_*`` variable removed, so set-up time and peak memory are
measured from outside and no ambient knob changes what runs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "work.py"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("figure-sweep", "large-world", "serve-sweep")
#: Set-up-only processes per run, besides the measuring one; ``setup_s``
#: is the median of all of them.
SETUP_SAMPLES = 2
#: Reported times are seconds on a host that runs the speedometer's
#: reference kernel in this long (about its time on a 2-CPU shared VM).
REF_NOMINAL_S = 0.010
#: Hard limit for one whole benchmark run.
RUN_LIMIT_S = 170.0

SELF_TIME_LAYERS = (
    "energy.advance", "energy.recompute", "energy.apply_handoffs",
    "clusters.rotate", "clusters.relocate", "gate.check",
    "world.record_metrics", "world.build", "engine.run_until",
    "fleet.dispatch", "fleet.legs", "scheduler.assign", "executor.map_configs",
)
COUNTED_LAYERS = (
    "energy.advance", "energy.recompute", "clusters.rotate", "clusters.relocate",
    "gate.check", "fleet.dispatch", "scheduler.assign",
)
POOL_COUNTS = ("tasks", "cold_starts", "warm_hits", "respawns")
STORE_COUNTS = ("hits", "misses", "puts")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, mode: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run ``work.py`` to completion; returns its JSON lines by kind plus
    ``ready_s``, the seconds from spawn until it printed ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORK), workload, mode, "--seed", str(seed),
         "--seconds", repr(seconds)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    out: dict = {}
    stderr: list = []

    def read_stdout():
        for line in proc.stdout:
            stamp = time.perf_counter()
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if row.get("kind") == "ready":
                row["ready_s"] = stamp - t0
            out[row.pop("kind")] = row

    readers = [
        threading.Thread(target=read_stdout),
        threading.Thread(target=lambda: stderr.extend(proc.stderr)),
    ]
    for thread in readers:
        thread.start()
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            # Its own session: the server and pool workers go too.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        for thread in readers:
            thread.join()
    if proc.returncode != 0 or mode not in out:
        tail = "".join(stderr[-5:]).strip()
        raise ChildFailed(f"{workload} {mode} exited {proc.returncode}: {tail}")
    return out


def latency_quantiles(values: list) -> dict:
    """p50 always; p90 only with at least 100 samples (10 beyond it)."""
    out = {"n": len(values), "p50": statistics.median(values)}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def at_reference_speed(seconds: float, ref: float) -> float:
    """``seconds`` measured right after the speedometer read ``ref``,
    scaled to a host that runs the reference kernel in ``REF_NOMINAL_S``."""
    return seconds * REF_NOMINAL_S / ref


def end_to_end(workload: str, measure: dict, setups: list) -> dict:
    # A shared host's speed can swing by 2x within a minute.  Each cell
    # of a figure pass and each serve request pair is scaled by the
    # speedometer sample taken just before it (see ``Speedometer`` in
    # work.py); the head of a pass, before its first World build, by the
    # first sample.
    if workload == "figure-sweep":
        sweep = statistics.median(
            sum(map(at_reference_speed, p["segments"], p["refs"][:1] + p["refs"]))
            for p in measure["passes"]
        )
        days_per_s = measure["world_days"] / sweep
    elif workload == "large-world":
        # The build and each slice of the run at their fastest repeat.
        fastest = [min(segment) for segment in zip(*measure["segments"])]
        sweep = sum(fastest)
        days_per_s = measure["sim_days"] / sum(fastest[1:])
    else:
        miss, hit = (
            [at_reference_speed(t, ref) for t, ref in zip(measure[kind], measure["refs"])
             if t is not None]
            for kind in ("miss", "hit")
        )
        sweep = statistics.median(miss)
        days_per_s = measure["cell_days"] * (len(miss) + len(hit)) / (sum(miss) + sum(hit))
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": measure["peak_rss_mb"], "unit": "MB"},
        "sweep_s": {"value": sweep, "unit": "s"},
        "sim_days_per_s": {"value": days_per_s, "unit": "day/s"},
    }


def per_layer(trace: dict, import_s: float) -> dict:
    runs = trace["runs"]

    def layer(run, name, key):
        return run["layers"].get(name, {}).get(key, 0)

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in SELF_TIME_LAYERS:
        put(f"{name}.self_s", statistics.mean(layer(r, name, "self_s") for r in runs), "s")
    for name in COUNTED_LAYERS:
        put(f"{name}.calls", layer(runs[0], name, "calls"), "count")
    put("engine.events", runs[0]["events"], "count")
    total, calls = runs[0]["request_nodes"]
    put("scheduler.request_nodes.mean", total / calls if calls else 0.0, "count")
    put("import.repro_s", import_s, "s")
    service = runs[0].get("service") or {}
    pool, store = service.get("pool", {}), service.get("store", {})
    for key in POOL_COUNTS:
        put(f"pool.{key}", pool.get(key, 0), "count")
    for key in STORE_COUNTS:
        put(f"store.{key}", store.get(key, 0), "count")
    looked_up = store.get("hits", 0) + store.get("misses", 0)
    put("store.hit_ratio", store.get("hits", 0) / looked_up if looked_up else 0.0, "ratio")
    put("service.miss_overhead_per_cell_s", trace.get("miss_overhead_per_cell_s", 0.0), "s")
    for kind in ("hit", "miss"):
        q = latency_quantiles(trace[kind]) if trace.get(kind) else {}
        put(f"{kind}_latency_s.p50", q.get("p50", 0.0), "s")
        put(f"{kind}_latency_s.p90", q.get("p90", 0.0), "s")
        put(f"{kind}_latency_s.n", q.get("n", 0), "count")
    put("trace.attributed_frac", statistics.mean(r["attributed_frac"] for r in runs), "ratio")
    put("trace.overhead_frac", statistics.mean(r["overhead_frac"] for r in runs), "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    attempted = failed = 0
    errors: list = []
    checks: list = []
    provenance = None

    def child(mode):
        nonlocal attempted, failed, provenance
        try:
            out = run_child(args.workload, mode, args.seed, args.seconds, deadline)
        except ChildFailed as exc:
            attempted += 1
            failed += 1
            errors.append(str(exc))
            return None
        report = out[mode]
        attempted += report["attempted"]
        failed += report["failed"]
        errors.extend(report["errors"])
        checks.extend(report["checks"])
        provenance = out.get("provenance", provenance)
        return out

    def setup_sample(out):
        ready = out["ready"]
        return ready.get("setup_s", ready["ready_s"]), ready["import_s"]

    samples = [setup_sample(out) for out in map(child, ["setup"] * SETUP_SAMPLES) if out]
    mode = "trace" if args.trace else "measure"
    out = child(mode)
    if out is None:
        print(f"perfbench: {errors[-1]}", file=sys.stderr)
        return 1
    samples.append(setup_sample(out))
    if mode == "measure":
        metrics = end_to_end(args.workload, out[mode], [s for s, _ in samples])
    else:
        metrics = per_layer(out[mode], statistics.median(i for _, i in samples))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance, "setup_samples": samples,
        "raw": out[mode], "errors": errors, "checks": checks,
    }
    (OUT_DIR / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print("provenance " + json.dumps(provenance))
    print("setup samples (s, import s) " + json.dumps(samples))
    if mode == "measure" and args.workload == "serve-sweep":
        latency = {kind: latency_quantiles([t for t in out[mode][kind] if t is not None])
                   for kind in ("hit", "miss")}
        print("serve latencies, as measured " + json.dumps(latency))
    for message in errors + checks:
        print(f"FAILED: {message}")
    print(json.dumps({
        "correct": failed == 0 and not checks,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
