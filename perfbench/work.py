"""One benchmark process: builds a workload's inputs from the seed, runs
it, checks the outputs and reports JSON lines on stdout.

``run.py`` starts it in a fresh interpreter, with the repository root as
working directory and every ``REPRO_*`` variable removed::

    python3 perfbench/work.py <workload> <mode> --seed N --seconds S

Modes: ``setup`` (get ready, report, exit), ``measure`` (untraced and
time-bounded) and ``trace`` (a fixed amount of work, once untraced for
the overhead and twice traced).  Every line is one JSON object with a
``kind`` key; ``ready`` is printed the moment the workload is ready, so
the parent can time the set-up from outside.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

DAY_S = 86400.0
#: The seed whose outputs are pinned in ``fingerprints.json``.
DEFAULT_SEED = 1
#: Scratch space (sockets, stores, span dumps), relative to the root.
WORK_DIR = Path(".perfbench")

FIGURE_DAYS = 6.0
LARGE_N = 10_000
LARGE_DAYS = 6.0
#: Slices of simulated time the large world's run is timed in, and the
#: fewest repeats whose fastest slices are summed.
LARGE_CHUNKS = 48
LARGE_REPS = 3
SERVE_JOBS = 2
SERVE_SCHEDULERS = ("greedy", "combined")
SERVE_SEEDS_PER_GRID = 4
SERVE_DAYS = 0.25
#: Request pairs (new grid, then its exact repeat) in a traced serve run.
SERVE_TRACE_PAIRS = 100
#: The traced runs must name at least this share of ``World.run``.
MIN_ATTRIBUTED = 0.95


def emit(kind: str, **payload) -> None:
    print(json.dumps({"kind": kind, **payload}), flush=True)


def fingerprint(data) -> str:
    """Hash of the canonical JSON of a summary dict (or any result)."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Speedometer:
    """Times a fixed reference kernel that does not touch the program: a
    pure-Python loop plus small numpy calls, the small worlds' kind of
    work.  Sampled just before each unit of work, its time is the host's
    speed at that moment, and ``run.py`` scales the unit's time by it: a
    shared host's speed can swing by 2x within a minute."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.a, self.b = rng.random(500), rng.random(500)
        self.idx = rng.integers(0, 500, 64)
        self.samples: list = []

    def sample(self) -> None:
        import numpy as np

        t0 = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(20_000):
            acc += (i * 7 % 13) * 0.5
            table[i & 255] = acc
        for _ in range(600):
            x = np.minimum(self.a, self.b) * 1.5 + self.a[self.idx].sum()
            acc += float(x.argmin()) + float(np.count_nonzero(x > 0.5))
        self.samples.append(time.perf_counter() - t0)

    def take(self) -> list:
        out, self.samples = self.samples, []
        return out


def provenance() -> dict:
    import numpy

    from repro.sim.soa import engine_provenance

    return {
        "engine": engine_provenance(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
    }


class Checker:
    """Counts operations and failures.  Outputs are compared with the
    pinned fingerprints under the default seed, else with the first
    repeat of the same label."""

    def __init__(self, workload: str, seed: int) -> None:
        self.pins = {}
        if seed == DEFAULT_SEED:
            pins = json.loads((HERE / "fingerprints.json").read_text())
            self.pins = pins[workload]
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        #: Failed checks on the benchmark itself (trace coverage, ...).
        self.checks: list = []

    def op(self, results=None, error=None) -> bool:
        """Record one operation with outputs ``{label: fingerprint}``, or
        one that failed with ``error``."""
        self.attempted += 1
        if error is None:
            bad = []
            for label, fp in results.items():
                want = self.pins.get(label) or self.first.setdefault(label, fp)
                if fp != want:
                    bad.append(f"{label}: {fp} != {want}")
            if bad:
                error = "mismatch: " + "; ".join(bad[:3])
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(error)
        return error is None

    def report(self) -> dict:
        return {
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors, "checks": self.checks,
        }


def trace_run(tracer, wall: float, untraced_wall: float) -> dict:
    """Per-layer numbers of one traced run of a simulation workload."""
    layers = tracer.layers()
    run = layers["world.run"]
    return {
        "layers": layers,
        "wall_s": wall,
        "overhead_frac": wall / untraced_wall - 1.0,
        "attributed_frac": 1.0 - run["self_s"] / run["total_s"],
        "events": tracer.events,
        "request_nodes": list(tracer.request_nodes),
    }


def check_traces(checker: Checker, runs: list) -> None:
    """Counts must repeat exactly across traced runs of one seed, and the
    named layers must cover ``MIN_ATTRIBUTED`` of the root."""
    def counts(run):
        calls = {name: layer["calls"] for name, layer in run["layers"].items()}
        return calls, run["events"], run["request_nodes"], run.get("service")

    if any(counts(run) != counts(runs[0]) for run in runs[1:]):
        checker.checks.append("trace counts differ between two traced runs")
    for run in runs:
        if run["attributed_frac"] < MIN_ATTRIBUTED:
            checker.checks.append(
                f"trace.attributed_frac {run['attributed_frac']:.4f} < {MIN_ATTRIBUTED}"
            )


# ---------------------------------------------------------------------
# figure-sweep: the smoke-scale figure grid, serially, in-process
# ---------------------------------------------------------------------


def figure_grid(seed: int) -> list:
    """The 32 cells ``scripts/run_experiments.py`` runs at smoke scale,
    in the groups it hands to the executor: Fig. 4 (4 cases x 3
    schemes), the ERP sweep behind Figs. 5-7 (3 schemes x 6 ERPs) and
    the two clustering-ablation cells.  Cell ``k`` gets its own
    deployment seed, ``1000 * seed + k``: the cost of one deployment
    differs by up to 40% between seeds, and 32 of them average that out
    where the suite's one shared seed would not."""
    from repro.experiments import ERP_GRID, SCHEMES
    from repro.experiments.common import ExperimentScale
    from repro.experiments.executor import grid_configs
    from repro.experiments.fig4_activity import CASES
    from repro.sim.config import HOUR_S

    scale = ExperimentScale("perfbench", days=FIGURE_DAYS, seeds=(0,))
    fig4 = [
        scale.base_config(
            scheduler=sched, erp=erp, activation=activation, target_period_s=3 * HOUR_S,
        )
        for _label, erp, activation in CASES
        for sched in SCHEMES
    ]
    _, sweep = grid_configs(scale, SCHEMES, ERP_GRID)
    ablation = [
        [scale.base_config(clustering=policy, erp=0.6, scheduler="combined")]
        for policy in ("balanced", "nearest_target")
    ]
    seeds = itertools.count(1000 * seed)
    return [
        [cfg.with_overrides(seed=next(seeds)) for cfg in group]
        for group in (fig4, sweep, *ablation)
    ]


class CellClock:
    """Samples the speedometer before every ``World`` build and notes
    when each sample started and ended, so a pass's time can be taken
    without the samples'."""

    def __init__(self, speed: Speedometer) -> None:
        from repro.sim.world import World

        self.gaps: list = []
        gaps, init = self.gaps, World.__init__

        def sampled_init(world, *args, **kwargs):
            t0 = time.perf_counter()
            speed.sample()
            gaps.append((t0, time.perf_counter()))
            init(world, *args, **kwargs)

        World.__init__ = sampled_init


def figure_pass(grid: list) -> dict:
    """One pass over the grid through the executor, serially, plus the
    static balance table; returns ``{label: fingerprint}``."""
    import repro.experiments.executor as executor
    from repro.experiments.ablation_clustering import static_balance

    fps = {}
    for group in grid:
        for cfg, summary in zip(group, executor.map_configs(group, jobs=1)):
            label = (
                f"{len(fps):02d}-{cfg.scheduler}-erp{cfg.erp}-{cfg.activation}"
                f"-{cfg.clustering}-s{cfg.seed}"
            )
            fps[label] = fingerprint(summary.as_dict())
    fps["static_balance"] = fingerprint(static_balance(seeds=10))
    return fps


def run_figure(args, checker: Checker, ready) -> None:
    from repro.sim.world import World

    # Set-up ends with the first world of the grid built.
    grid = figure_grid(args.seed)
    World(grid[0][0])
    ready()
    if args.mode == "setup":
        return

    def one_pass():
        t0 = time.perf_counter()
        fps = figure_pass(grid)
        wall = time.perf_counter() - t0
        for label, fp in fps.items():
            checker.op({label: fp})
        if checker.pins and set(fps) != set(checker.pins):
            checker.op(error="grid labels differ from the pinned grid")
        return wall, t0

    if args.mode == "measure":
        # At least two passes, so under a seed without pins the second
        # checks the first.
        speed = Speedometer()
        clock = CellClock(speed)
        passes = []
        t_start = time.perf_counter()
        while (len(passes) < 2
               or time.perf_counter() - t_start + passes[-1]["wall"] <= args.seconds):
            clock.gaps.clear()
            wall, t0 = one_pass()
            # Segment 0 runs from the pass's start to the first sample;
            # segment k from cell k's World build to the next sample, the
            # last one to the pass's end, with the static balance table.
            edges = [t0, *(t for gap in clock.gaps for t in gap), t0 + wall]
            passes.append({
                "wall": wall,
                "segments": [b - a for a, b in zip(edges[::2], edges[1::2])],
                "refs": speed.take(),
            })
        emit("measure", passes=passes, world_days=FIGURE_DAYS * sum(map(len, grid)),
             peak_rss_mb=peak_rss_mb(), **checker.report())
        return

    import tracer as tr

    untraced, _ = one_pass()
    tracer = tr.install(tr.Tracer(), tr.SIM_LAYERS)
    runs = []
    for _ in range(2):
        tracer.reset()
        wall, _ = one_pass()
        runs.append(trace_run(tracer, wall, untraced))
    tracer.save(WORK_DIR / f"trace-figure-sweep-seed{args.seed}.npz")
    check_traces(checker, runs)
    emit("trace", runs=runs, **checker.report())


# ---------------------------------------------------------------------
# large-world: one 10k-sensor combined-scheduler world
# ---------------------------------------------------------------------


def large_config(seed: int):
    from repro.sim.config import SimulationConfig

    return SimulationConfig.experiment(
        n_sensors=LARGE_N,
        n_targets=400,
        n_rvs=3,
        side_length_m=80.0 * math.sqrt(LARGE_N / 50),
        erp=0.4,
        scheduler="combined",
        sim_time_s=LARGE_DAYS * DAY_S,
        seed=seed,
    )


def run_large(args, checker: Checker, ready) -> None:
    from repro.sim.world import World

    cfg = large_config(args.seed)
    World(cfg)
    ready()
    if args.mode == "setup":
        return

    def one_run(chunks: int = 1) -> list:
        """Build and run a fresh world.  Returns the seconds of the build
        and of each of ``chunks`` equal slices of simulated time; the
        last slice goes through ``World.run()``, which also summarises."""
        edges = [time.perf_counter()]
        world = World(cfg)
        edges.append(time.perf_counter())
        for k in range(1, chunks):
            world.sim.run_until(cfg.sim_time_s * k / chunks)
            edges.append(time.perf_counter())
        summary = world.run()
        edges.append(time.perf_counter())
        checker.op({"world": fingerprint(summary.as_dict())})
        return [b - a for a, b in zip(edges, edges[1:])]

    if args.mode == "measure":
        # At least three repeats, so later ones check the first and each
        # slice can be timed at its fastest repeat.  The speedometer does
        # not track this world's speed (between two repeats of one 10k
        # world its median moved by a third, the world's time by 7%), so
        # the fastest repeat alone stands in for it.  The pinned
        # fingerprint shows that slicing leaves the result unchanged.
        t_start = time.perf_counter()
        reps = []
        while (len(reps) < LARGE_REPS
               or time.perf_counter() - t_start + sum(reps[-1]) <= args.seconds):
            reps.append(one_run(LARGE_CHUNKS))
        emit("measure", segments=reps, sim_days=LARGE_DAYS, peak_rss_mb=peak_rss_mb(),
             **checker.report())
        return

    import tracer as tr

    untraced = sum(one_run())
    tracer = tr.install(tr.Tracer(), tr.SIM_LAYERS)
    runs = []
    for _ in range(2):
        tracer.reset()
        t0 = time.perf_counter()
        one_run()
        runs.append(trace_run(tracer, time.perf_counter() - t0, untraced))
    tracer.save(WORK_DIR / f"trace-large-world-seed{args.seed}.npz")
    check_traces(checker, runs)
    emit("trace", runs=runs, **checker.report())


# ---------------------------------------------------------------------
# serve-sweep: `repro serve` driven by one closed-loop SweepClient
# ---------------------------------------------------------------------


def serve_grid(seed: int, k: int) -> list:
    """Request ``k``'s cells: 2 schedulers x 4 seeds, small preset, a
    quarter day.  ``k = -1`` is the two-cell warm-up."""
    from repro.sim.config import SimulationConfig

    base = seed * 100_000
    if k < 0:
        seeds = [(s, base + 99_990 + i) for i, s in enumerate(SERVE_SCHEDULERS)]
    else:
        seeds = [
            (s, base + SERVE_SEEDS_PER_GRID * k + j)
            for s in SERVE_SCHEDULERS for j in range(SERVE_SEEDS_PER_GRID)
        ]
    return [
        SimulationConfig.small(scheduler=s, seed=n, sim_time_s=SERVE_DAYS * DAY_S)
        for s, n in seeds
    ]


def serve_labels(k: int, configs) -> list:
    tag = "warmup" if k < 0 else f"r{k:03d}"
    return [f"{tag}-{c.scheduler}-s{c.seed}" for c in configs]


def _proc_children(pid: int) -> list:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


def _vm_hwm_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


class Server:
    """One ``repro serve --jobs 2 --store <fresh dir>`` subprocess."""

    def __init__(self, seed: int, tag: str) -> None:
        from repro.experiments.service import SweepClient

        self.seed = seed
        self.dir = WORK_DIR / f"serve-{os.getpid()}-{tag}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.socket = str(self.dir / "s.sock")
        self.client = SweepClient(self.socket, timeout_s=60.0)
        self.proc = None
        self.workers: list = []

    def start(self, checker: Checker, timeout_s: float = 60.0) -> float:
        """Launch, wait for the socket to answer, run the warm-up grid;
        returns the seconds that took."""
        t0 = time.perf_counter()
        with open(self.dir / "serve.log", "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
                 "--jobs", str(SERVE_JOBS), "--store", str(self.dir / "store")],
                stdout=log, stderr=subprocess.STDOUT,
            )
        # `repro serve` prints its listening line before the socket is
        # bound, so poll with ping() instead of waiting for that line.
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                self.client.ping()
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() - t0 > timeout_s:
                    raise TimeoutError("repro serve did not answer ping") from None
                time.sleep(0.002)
        # Two cells, one per worker: a one-cell submission runs inside
        # the server and would leave the pool unstarted.
        configs = serve_grid(self.seed, -1)
        results = self.client.submit_configs(configs).results()
        checker.op(dict(zip(serve_labels(-1, configs), _fps(results, configs))))
        self.workers = _proc_children(self.proc.pid)
        return time.perf_counter() - t0

    def rss_mb(self) -> float:
        """Peak resident memory of the server plus its pool workers."""
        pids = [self.proc.pid, *_proc_children(self.proc.pid)]
        return sum(_vm_hwm_mb(pid) for pid in pids)

    def stop(self, checker: Checker) -> None:
        """Shut down through the protocol; a server or worker left
        running counts as a failed operation."""
        if self.proc is None:
            return
        self.workers = sorted(set(self.workers) | set(_proc_children(self.proc.pid)))
        error = None
        try:
            self.client.shutdown()
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            error = f"shutdown: {type(exc).__name__}: {exc}"
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            error = error or "repro serve did not exit after shutdown"
        deadline = time.perf_counter() + 10
        for pid in self.workers:
            while _alive(pid) and time.perf_counter() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                os.kill(pid, 9)
                error = error or f"pool worker {pid} outlived the server"
        if error is not None:
            checker.op(error=error)
        self.proc = None
        shutil.rmtree(self.dir, ignore_errors=True)


def _fps(results: dict, configs) -> list:
    """Fingerprints in config order; a missing cell reads ``missing``."""
    keys = [(c.scheduler, float(c.erp), int(c.seed)) for c in configs]
    return [fingerprint(results[k].as_dict()) if k in results else "missing" for k in keys]


def serve_loop(server: Server, seed: int, checker: Checker, pairs=None, seconds=None,
               speed=None):
    """Closed loop: request ``k`` submits a new grid (store misses), then
    the exact same grid again (store hits); the next request is sent only
    after the previous reply.  Runs ``pairs`` pairs, else for ``seconds``.
    Latencies are listed per pair, ``None`` where the request failed.
    With a speedometer, it is sampled before each pair, while the server
    is idle."""
    from repro.experiments.service import ServiceError

    latency = {"miss": [], "hit": []}
    fps_by_grid = []
    t_start = time.perf_counter()
    k = 0
    while (k < pairs) if pairs is not None else (time.perf_counter() - t_start < seconds):
        if speed is not None:
            speed.sample()
        configs = serve_grid(seed, k)
        labels = serve_labels(k, configs)
        fps = None
        for kind, source in (("miss", "run"), ("hit", "store")):
            t0 = time.perf_counter()
            try:
                grid = server.client.submit_configs(configs)
                results = grid.results()
            except (OSError, ServiceError) as exc:
                checker.op(error=f"{labels[0]} {kind}: {type(exc).__name__}: {exc}")
                latency[kind].append(None)
                continue
            latency[kind].append(time.perf_counter() - t0)
            if grid.sources != {source: len(configs)}:
                checker.op(error=f"{labels[0]} {kind}: served from {grid.sources}")
                continue
            fps = _fps(results, configs)
            checker.op(dict(zip(labels, fps)))
        fps_by_grid.append((configs, fps))
        k += 1
    wall = time.perf_counter() - t_start
    return latency, wall, fps_by_grid


def run_serve(args, checker: Checker, ready) -> None:
    server = Server(args.seed, "setup")
    try:
        setup_s = server.start(checker)
        ready(setup_s=setup_s)
        if args.mode == "measure":
            speed = Speedometer()
            latency, _, _ = serve_loop(
                server, args.seed, checker, seconds=args.seconds, speed=speed
            )
            rss = server.rss_mb()
    finally:
        server.stop(checker)
    if args.mode == "setup":
        return
    if args.mode == "measure":
        emit("measure", miss=latency["miss"], hit=latency["hit"], refs=speed.take(),
             cell_days=SERVE_DAYS * len(serve_grid(args.seed, 0)),
             peak_rss_mb=rss, **checker.report())
        return

    import tracer as tr
    from repro.sim.runner import run_simulation

    def fixed_loop(tag, tracer=None):
        server = Server(args.seed, tag)
        try:
            server.start(checker)
            if tracer is not None:
                tracer.reset()  # spans cover the closed loop only
            latency, wall, grids = serve_loop(
                server, args.seed, checker, pairs=SERVE_TRACE_PAIRS
            )
            stats = server.client.stats()
        finally:
            server.stop(checker)
        return latency, wall, grids, stats

    latency, untraced, grids, _ = fixed_loop("untraced")
    tracer = tr.install(tr.Tracer(), tr.CLIENT_LAYERS, schedulers=False)
    runs = []
    for i in range(2):
        _, wall, _, stats = fixed_loop(f"traced{i}", tracer)
        layers = tracer.layers()
        named = sum(layer["self_s"] for layer in layers.values())
        runs.append({
            "layers": layers,
            "wall_s": wall,
            "overhead_frac": wall / untraced - 1.0,
            "attributed_frac": named / wall,
            "events": 0,
            "request_nodes": [0, 0],
            "service": {"pool": stats.get("pool", {}), "store": stats.get("store", {})},
        })
    tracer.save(WORK_DIR / f"trace-serve-sweep-seed{args.seed}.npz")
    # Every served cell must equal an in-process run of its config; the
    # in-process time also prices the service's per-cell overhead.
    overhead = []
    for k, ((configs, fps), miss) in enumerate(zip(grids, latency["miss"])):
        if miss is None:
            continue
        t0 = time.perf_counter()
        local = [fingerprint(run_simulation(c).as_dict()) for c in configs]
        inproc = time.perf_counter() - t0
        if fps != local:
            checker.checks.append(f"request {k}: served cells differ from in-process runs")
        overhead.append((miss - inproc / SERVE_JOBS) / len(configs))
    check_traces(checker, runs)
    ok = {kind: [t for t in times if t is not None] for kind, times in latency.items()}
    emit("trace", runs=runs, hit=ok["hit"], miss=ok["miss"],
         miss_overhead_per_cell_s=statistics.median(overhead), **checker.report())


WORKLOADS = {"figure-sweep": run_figure, "large-world": run_large, "serve-sweep": run_serve}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    WORK_DIR.mkdir(exist_ok=True)
    t_import = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t_import

    def ready(**extra):
        emit("ready", import_s=import_s, **extra)
        emit("provenance", **provenance())

    checker = Checker(args.workload, args.seed)
    WORKLOADS[args.workload](args, checker, ready)
    if args.mode == "setup":
        emit("setup", **checker.report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
