"""Golden-value regression tests.

A fixed configuration and seed must keep producing the same summary —
any drift means the simulation semantics changed, which must be a
conscious decision (update the goldens in the same commit and say why).

Golden values were recorded with repro 1.0.0.
"""

import pytest

from repro.core.activation import RoundRobinActivator
from repro.core.erc import EnergyRequestController
from repro.obs.monitors import MonitorSet
from repro.registry import ACTIVATORS, ERC_POLICIES
from repro.sim.config import DAY_S, HOUR_S, SimulationConfig
from repro.sim.runner import run_simulation
from repro.sim.world import World

GOLDEN_CONFIG = dict(
    n_sensors=50,
    n_targets=4,
    n_rvs=2,
    side_length_m=80.0,
    comm_range_m=12.0,
    sensing_range_m=10.0,
    sim_time_s=86400.0,
    target_period_s=10800.0,
    battery_capacity_j=500.0,
    initial_charge_range=(0.55, 0.9),
    dispatch_period_s=3600.0,
    scheduler="combined",
    erp=0.5,
    seed=2024,
)

# Full fixed-seed summaries for the four paper schedulers, recorded
# bit-identically against the pre-component-split engine.  Equality is
# exact (==, not approx): the component refactor must not perturb a
# single ulp of the trajectory.
GOLDEN_SUMMARIES = {
    "greedy": {
        "sim_time_s": 86400.0,
        "traveling_distance_m": 1607.669214713484,
        "traveling_energy_j": 9002.94760239551,
        "delivered_energy_j": 11930.710443047985,
        "objective_j": 2927.7628406524746,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 50.0,
        "recharging_cost_m_per_sensor": 32.15338429426968,
        "n_recharges": 42.0,
        "n_sorties": 31.0,
        "n_requests": 43.0,
        "mean_request_latency_s": 1501.6844562618207,
        "events_fired": 260.0,
    },
    "insertion": {
        "sim_time_s": 86400.0,
        "traveling_distance_m": 1162.9178148301464,
        "traveling_energy_j": 6512.339763048821,
        "delivered_energy_j": 11997.32380121371,
        "objective_j": 5484.984038164889,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 50.0,
        "recharging_cost_m_per_sensor": 23.25835629660293,
        "n_recharges": 42.0,
        "n_sorties": 19.0,
        "n_requests": 43.0,
        "mean_request_latency_s": 1681.0469371044323,
        "events_fired": 260.0,
    },
    "partition": {
        "sim_time_s": 86400.0,
        "traveling_distance_m": 1215.4774470211055,
        "traveling_energy_j": 6806.673703318191,
        "delivered_energy_j": 12082.15923761838,
        "objective_j": 5275.485534300189,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 49.999999999999986,
        "recharging_cost_m_per_sensor": 24.30954894042212,
        "n_recharges": 42.0,
        "n_sorties": 30.0,
        "n_requests": 44.0,
        "mean_request_latency_s": 1836.227306763322,
        "events_fired": 260.0,
    },
    # The combined scheme with a 2-RV fleet reduces to sequential
    # insertion here, so its trajectory coincides with "insertion".
    "combined": {
        "sim_time_s": 86400.0,
        "traveling_distance_m": 1162.9178148301464,
        "traveling_energy_j": 6512.339763048821,
        "delivered_energy_j": 11997.32380121371,
        "objective_j": 5484.984038164889,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 50.0,
        "recharging_cost_m_per_sensor": 23.25835629660293,
        "n_recharges": 42.0,
        "n_sorties": 19.0,
        "n_requests": 43.0,
        "mean_request_latency_s": 1681.0469371044323,
        "events_fired": 260.0,
    },
}

# The same 50-sensor world under the model variants the paper-scheduler
# goldens above do not reach: full-time activation (every clustered
# sensor on duty, no rotation) and charge-proportional leakage with the
# adaptive ERP controller.  Recorded while the object-walking engine
# still existed, with both engines agreeing byte for byte, so these pins
# carry that equivalence forward.  Equality is exact (==).
VARIANT_OVERRIDES = {
    "full_time": dict(activation="full_time"),
    "leaky_adaptive": dict(self_discharge_fraction_per_day=0.05, adaptive_erp=True),
}

VARIANT_SUMMARIES = {
    "full_time": {
        "sim_time_s": 86400.0,
        "traveling_distance_m": 1690.470013770354,
        "traveling_energy_j": 9466.632077113984,
        "delivered_energy_j": 23205.478030800783,
        "objective_j": 13738.8459536868,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.00011811167709198024,
        "avg_operational_sensors": 49.99409441614539,
        "recharging_cost_m_per_sensor": 33.81339403208439,
        "n_recharges": 68.0,
        "n_sorties": 17.0,
        "n_requests": 68.0,
        "mean_request_latency_s": 2447.0100957802515,
        "events_fired": 312.0,
    },
    "leaky_adaptive": {
        "sim_time_s": 86400.0,
        "traveling_distance_m": 1282.2587268393954,
        "traveling_energy_j": 7180.648870300615,
        "delivered_energy_j": 13459.297704670735,
        "objective_j": 6278.648834370119,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 50.0,
        "recharging_cost_m_per_sensor": 25.64517453678791,
        "n_recharges": 47.0,
        "n_sorties": 19.0,
        "n_requests": 48.0,
        "mean_request_latency_s": 1715.1452564346805,
        "events_fired": 270.0,
    },
}

# The calibrated ``experiment`` preset at N=500 over 3 days.  A 3 h
# target period (instead of the preset's 48 h) makes the run cross many
# relocation epochs and rotation slots, so every event that re-prices
# the draw rates (tick rotations, relocations, hand-off drains) feeds
# these numbers.  Pinned exactly (==), through the serial loop and
# through the batched engine.
EXPERIMENT_GOLDEN_OVERRIDES = dict(
    sim_time_s=3 * DAY_S,
    seed=7,
    erp=0.6,
    target_period_s=3 * HOUR_S,
)

EXPERIMENT_GOLDEN_SUMMARIES = {
    "greedy": {
        "sim_time_s": 259200.0,
        "traveling_distance_m": 7413.793882959591,
        "traveling_energy_j": 41517.24574457372,
        "delivered_energy_j": 133762.1003983431,
        "objective_j": 92244.85465376938,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 500.0000000000001,
        "recharging_cost_m_per_sensor": 14.82758776591918,
        "n_recharges": 128.0,
        "n_sorties": 41.0,
        "n_requests": 143.0,
        "mean_request_latency_s": 7228.970066041986,
        "events_fired": 732.0,
    },
    "insertion": {
        "sim_time_s": 259200.0,
        "traveling_distance_m": 7678.315269021022,
        "traveling_energy_j": 42998.565506517734,
        "delivered_energy_j": 133929.67970260468,
        "objective_j": 90931.11419608694,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 500.00000000000006,
        "recharging_cost_m_per_sensor": 15.356630538042042,
        "n_recharges": 128.0,
        "n_sorties": 20.0,
        "n_requests": 143.0,
        "mean_request_latency_s": 8441.172765809111,
        "events_fired": 732.0,
    },
    "partition": {
        "sim_time_s": 259200.0,
        "traveling_distance_m": 7039.328826479066,
        "traveling_energy_j": 39420.24142828276,
        "delivered_energy_j": 135644.92230685282,
        "objective_j": 96224.68087857007,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 499.9999999999998,
        "recharging_cost_m_per_sensor": 14.078657652958139,
        "n_recharges": 131.0,
        "n_sorties": 44.0,
        "n_requests": 141.0,
        "mean_request_latency_s": 9987.957335199542,
        "events_fired": 739.0,
    },
    "combined": {
        "sim_time_s": 259200.0,
        "traveling_distance_m": 7678.315269021022,
        "traveling_energy_j": 42998.565506517734,
        "delivered_energy_j": 133929.67970260468,
        "objective_j": 90931.11419608694,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 500.00000000000006,
        "recharging_cost_m_per_sensor": 15.356630538042042,
        "n_recharges": 128.0,
        "n_sorties": 20.0,
        "n_requests": 143.0,
        "mean_request_latency_s": 8441.172765809111,
        "events_fired": 732.0,
    },
}


def _experiment_config(scheduler):
    return SimulationConfig.experiment(
        **EXPERIMENT_GOLDEN_OVERRIDES, scheduler=scheduler
    )


def _assert_matches(got, expected, label):
    assert set(got) == set(expected)
    mismatches = {
        k: (got[k], expected[k]) for k in expected if got[k] != expected[k]
    }
    assert not mismatches, f"{label} drifted: {mismatches}"


@pytest.fixture(scope="module")
def summary():
    return run_simulation(SimulationConfig(**GOLDEN_CONFIG))


class TestGolden:
    def test_structure_is_stable(self, summary):
        d = summary.as_dict()
        assert len(d) == 15

    def test_run_reproduces_itself(self, summary):
        again = run_simulation(SimulationConfig(**GOLDEN_CONFIG))
        assert again.as_dict() == summary.as_dict()

    def test_counts_plausible_and_pinned(self, summary):
        """Count-valued metrics are pinned exactly (integers don't
        suffer float noise); update deliberately if semantics change."""
        assert summary.n_requests > 0
        assert summary.n_recharges > 0
        assert summary.n_recharges <= summary.n_requests
        # Invariants that should never drift:
        assert summary.sim_time_s == 86400.0
        assert summary.objective_j == pytest.approx(
            summary.delivered_energy_j - summary.traveling_energy_j
        )
        assert summary.traveling_energy_j == pytest.approx(
            summary.traveling_distance_m * 5.6
        )

    def test_scheduler_change_changes_outcome(self, summary):
        other = run_simulation(
            SimulationConfig(**{**GOLDEN_CONFIG, "scheduler": "greedy"})
        )
        assert other.as_dict() != summary.as_dict()


class TestGoldenPerScheduler:
    """Exact pinned summaries for every paper scheduler."""

    @pytest.mark.parametrize("scheduler", sorted(GOLDEN_SUMMARIES))
    def test_summary_bit_identical(self, scheduler):
        cfg = SimulationConfig(**{**GOLDEN_CONFIG, "scheduler": scheduler})
        got = run_simulation(cfg).as_dict()
        expected = GOLDEN_SUMMARIES[scheduler]
        assert set(got) == set(expected)
        mismatches = {
            k: (got[k], expected[k]) for k in expected if got[k] != expected[k]
        }
        assert not mismatches, f"{scheduler} drifted: {mismatches}"


class TestGoldenVariants:
    """Exact pinned summaries for full-time activation and for leakage
    with adaptive ERP."""

    @pytest.mark.parametrize("variant", sorted(VARIANT_SUMMARIES))
    def test_summary_bit_identical(self, variant):
        cfg = SimulationConfig(**{**GOLDEN_CONFIG, **VARIANT_OVERRIDES[variant]})
        _assert_matches(
            run_simulation(cfg).as_dict(), VARIANT_SUMMARIES[variant], variant
        )


class TestGoldenExecutionMatrix:
    """The pinned summaries must survive every execution mode: serial
    or process-pool (``jobs``), serial or batched engine
    (``REPRO_BATCH``).  Workers inherit the knobs through the
    environment, so the matrix covers child processes too."""

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("batch", ["0", "1"])
    def test_batched_matrix_bit_identical(self, monkeypatch, jobs, batch):
        """``REPRO_BATCH=1`` must change wall clock only: the lockstep
        multi-world engine reproduces the goldens bit-for-bit, whether
        the chunks run in-process or across pool workers."""
        from repro.experiments.executor import map_configs

        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_BATCH", batch)
        if jobs > 1:
            # One cell per chunk so the shape-batches actually fan out.
            monkeypatch.setenv("REPRO_BATCH_SIZE", "1")
        schedulers = ("greedy", "insertion")
        configs = [
            SimulationConfig(**{**GOLDEN_CONFIG, "scheduler": s}) for s in schedulers
        ]
        results = map_configs(configs, jobs=jobs)
        for scheduler, summary in zip(schedulers, results):
            got = summary.as_dict()
            expected = GOLDEN_SUMMARIES[scheduler]
            mismatches = {
                k: (got[k], expected[k]) for k in expected if got[k] != expected[k]
            }
            assert not mismatches, (
                f"{scheduler} drifted under jobs={jobs}, "
                f"REPRO_BATCH={batch}: {mismatches}"
            )

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_pool_backend_matrix_bit_identical(self, monkeypatch, jobs):
        """The warm persistent pool must reproduce the goldens exactly,
        like the serial loop — pool reuse amortizes cost, never state."""
        from repro.experiments.executor import map_configs
        from repro.experiments.pool import shutdown_warm_pool

        monkeypatch.delenv("REPRO_STORE", raising=False)
        schedulers = ("greedy", "insertion")
        configs = [
            SimulationConfig(**{**GOLDEN_CONFIG, "scheduler": s}) for s in schedulers
        ]
        try:
            results = map_configs(configs, jobs=jobs)
        finally:
            shutdown_warm_pool()
        for scheduler, summary in zip(schedulers, results):
            got = summary.as_dict()
            expected = GOLDEN_SUMMARIES[scheduler]
            mismatches = {
                k: (got[k], expected[k]) for k in expected if got[k] != expected[k]
            }
            assert not mismatches, (
                f"{scheduler} drifted under jobs={jobs}: {mismatches}"
            )


class TestExperimentGolden:
    """Exact pinned summaries for the ``experiment`` preset at N=500."""

    @pytest.mark.parametrize("scheduler", sorted(EXPERIMENT_GOLDEN_SUMMARIES))
    def test_serial_bit_identical(self, scheduler):
        got = run_simulation(_experiment_config(scheduler)).as_dict()
        _assert_matches(got, EXPERIMENT_GOLDEN_SUMMARIES[scheduler], scheduler)

    def test_batched_bit_identical(self):
        """The four configs share a shape signature, so ``run_batch``
        advances them as one lockstep batch; every world must land on
        its pinned summary."""
        from repro.obs import Instruments
        from repro.sim.runner import run_batch

        schedulers = sorted(EXPERIMENT_GOLDEN_SUMMARIES)
        obs = Instruments()
        results = run_batch(
            [_experiment_config(s) for s in schedulers], instruments=obs
        )
        assert obs.snapshot()["counters"]["batch.cells_batched"] == len(schedulers)
        for scheduler, summary in zip(schedulers, results):
            _assert_matches(
                summary.as_dict(),
                EXPERIMENT_GOLDEN_SUMMARIES[scheduler],
                f"{scheduler} (batched)",
            )


class RecordingRoundRobin(RoundRobinActivator):
    """A plugin activator: the core rotation loop, counted."""

    rotations = 0

    def rotate(self, alive):
        type(self).rotations += 1
        return super().rotate(alive)


class RecordingErc(EnergyRequestController):
    """A plugin ERC overriding ``nodes_to_release`` with the base gate."""

    releases = 0

    def nodes_to_release(self, cluster_set, below, listed):
        type(self).releases += 1
        return super().nodes_to_release(cluster_set, below, listed)


@pytest.fixture()
def plugin_activator():
    """Register a test-local activator name for the duration of a test."""
    name = "test-recording-round-robin"
    ACTIVATORS.register(name, lambda cluster_set: RecordingRoundRobin(cluster_set))
    RecordingRoundRobin.rotations = 0
    try:
        yield name
    finally:
        ACTIVATORS.unregister(name)


@pytest.fixture()
def plugin_static_erc():
    """Swap the ``static`` ERC policy for :class:`RecordingErc`, then
    restore the built-in registration."""
    spec = ERC_POLICIES.spec("static")
    ERC_POLICIES.register(
        "static", lambda config: RecordingErc(config.erp), replace=True
    )
    RecordingErc.releases = 0
    try:
        yield
    finally:
        ERC_POLICIES.unregister("static")
        ERC_POLICIES.register(
            "static", spec.factory, schema=spec.schema, doc=spec.doc
        )


def _strict_golden_run(monkeypatch, **overrides):
    monkeypatch.setenv("REPRO_STRICT_MONITORS", "1")
    monitors = MonitorSet()
    assert monitors.strict
    world = World(SimulationConfig(**{**GOLDEN_CONFIG, **overrides}), monitors=monitors)
    return world, world.run().as_dict()


class TestGoldenPluginPaths:
    """Plugins run the core object-walking code inside a full world:
    an unwrapped activator subclass runs ``repro.core.activation``'s
    loops, and an ERC that overrides ``nodes_to_release`` takes the walk
    gate checked by ``check_erc_release``.  Both reproduce the pinned
    ``combined`` summary under strict monitors."""

    def test_plugin_activator_reproduces_golden(self, monkeypatch, plugin_activator):
        world, got = _strict_golden_run(monkeypatch, activation=plugin_activator)
        assert type(world.state.activator) is RecordingRoundRobin
        assert RecordingRoundRobin.rotations > 0
        _assert_matches(got, GOLDEN_SUMMARIES["combined"], "plugin activator")

    def test_plugin_erc_reproduces_golden(self, monkeypatch, plugin_static_erc):
        world, got = _strict_golden_run(monkeypatch)
        assert type(world.gate.erc) is RecordingErc
        assert RecordingErc.releases > 0
        _assert_matches(got, GOLDEN_SUMMARIES["combined"], "plugin ERC")
