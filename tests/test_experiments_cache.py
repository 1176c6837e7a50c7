"""Store keys, summary decoding, and cells served from the result
store named by ``REPRO_STORE``."""

import json

import pytest

from repro.experiments.cache import config_key, summary_from_dict
from repro.experiments.executor import _TASK_FNS, map_configs
from repro.obs import Instruments
from repro.sim.config import SimulationConfig
from repro.sim.runner import run_simulation


def quick_cfg(**kw):
    base = dict(sim_time_s=0.2 * 86400, seed=5)
    base.update(kw)
    return SimulationConfig.small(**base)


class TestCacheKey:
    def test_stable(self):
        assert config_key(quick_cfg()) == config_key(quick_cfg())

    def test_sensitive_to_any_field(self):
        assert config_key(quick_cfg()) != config_key(quick_cfg(seed=6))
        assert config_key(quick_cfg()) != config_key(quick_cfg(erp=0.5))

    def test_sensitive_to_code_version(self, monkeypatch):
        # The key embeds the package version + git revision: a code
        # change must never replay cells produced by older code.
        from repro.experiments import cache as cache_mod

        base = config_key(quick_cfg())
        monkeypatch.setattr(
            cache_mod,
            "code_token",
            lambda: {"version": "999.0", "git_rev": "deadbeef"},
        )
        assert config_key(quick_cfg()) != base

    def test_code_token_fields(self):
        from repro.experiments.cache import code_token

        token = code_token()
        assert token["version"]
        # In this checkout the package lives in a git repo.
        assert "git_rev" in token


class TestSummaryRoundtrip:
    def test_from_dict(self):
        s = run_simulation(quick_cfg())
        rebuilt = summary_from_dict(s.as_dict())
        assert rebuilt == s
        assert isinstance(rebuilt.n_recharges, int)


def _blobs(root):
    return sorted((root / "objects").glob("*/*.json"))


def _no_rerun(config):
    raise AssertionError("a store hit re-ran the simulation")


class TestCachedRun:
    """The executor serves repeated cells from ``REPRO_STORE``."""

    @pytest.fixture(autouse=True)
    def _serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)

    def test_disabled_without_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.chdir(tmp_path)
        (s,) = map_configs([quick_cfg()])
        assert s.sim_time_s > 0
        assert not list(tmp_path.iterdir())  # nothing materialized

    def test_hit_returns_identical(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        first = map_configs([quick_cfg()])
        assert len(_blobs(tmp_path)) == 1
        second = map_configs([quick_cfg()])
        assert second == first

    def test_hit_skips_execution(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        first = map_configs([quick_cfg()])
        monkeypatch.setitem(_TASK_FNS, "run", _no_rerun)
        assert map_configs([quick_cfg()]) == first

    def test_hand_edited_entry_is_recomputed_not_served(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        cfg = quick_cfg()
        (first,) = map_configs([cfg])
        (path,) = _blobs(tmp_path)
        blob = json.loads(path.read_text())
        blob["summary"]["traveling_distance_m"] = 123456.0
        path.write_text(json.dumps(blob))
        obs = Instruments()
        (again,) = map_configs([cfg], instruments=obs)
        assert again == first
        assert obs.snapshot()["counters"]["executor.cache_misses"] == 1
        # The edited blob was quarantined and replaced by the true cell.
        (path,) = _blobs(tmp_path)
        stored = json.loads(path.read_text())["summary"]
        assert stored["traveling_distance_m"] == first.traveling_distance_m

    def test_seed_fanout_mixed_hits(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        cfg = quick_cfg()
        first = map_configs([cfg.with_overrides(seed=s) for s in (1, 2)])
        assert len(_blobs(tmp_path)) == 2
        # Seed 3 is a miss, 1 and 2 hit.
        obs = Instruments()
        out = map_configs([cfg.with_overrides(seed=s) for s in (1, 2, 3)], instruments=obs)
        assert len(out) == 3
        assert len(_blobs(tmp_path)) == 3
        assert out[0] == first[0] and out[1] == first[1]
        counters = obs.snapshot()["counters"]
        assert counters["executor.store_hits"] == 2
        assert counters["executor.cache_misses"] == 1

    def test_run_cell_uses_cache(self, monkeypatch, tmp_path):
        from repro.experiments.common import ExperimentScale, run_cell

        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        scale = ExperimentScale("micro", days=0.2, seeds=(1,))
        kwargs = dict(
            n_sensors=30, n_targets=2, side_length_m=50.0,
            battery_capacity_j=300.0, initial_charge_range=(0.5, 0.8),
        )
        a = run_cell(scale, **kwargs)
        assert _blobs(tmp_path)
        monkeypatch.setitem(_TASK_FNS, "run", _no_rerun)
        b = run_cell(scale, **kwargs)
        assert a == b
