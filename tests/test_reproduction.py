"""The fixed-seed reproduction, pinned as data.

``tests/data/results_smoke.json`` is the ``results.json`` that
``REPRO_SCALE=smoke scripts/run_experiments.py`` writes (Fig. 4, the
ERP sweep behind Figs. 5-7, the headline claims and the clustering
ablation).  Rerunning the suite must reproduce every number in it
exactly; only the wall-clock ``elapsed_s`` may differ.  The gate is
the ``repro drift`` CLI at zero tolerance, so a failure prints the
drifted metrics by name.

``docs/results/paper/results.json`` is the same file at ``paper``
scale; EXPERIMENTS.md's measured tables must be exactly what
``scripts/render_experiments_md.py`` renders from it.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED_SMOKE = ROOT / "tests" / "data" / "results_smoke.json"
PAPER_RESULTS = ROOT / "docs" / "results" / "paper" / "results.json"


def _render_script():
    path = ROOT / "scripts" / "render_experiments_md.py"
    spec = importlib.util.spec_from_file_location("render_experiments_md", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_smoke_reproduction_matches_pin(tmp_path):
    env = dict(os.environ, REPRO_SCALE="smoke")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiments.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr[-4000:]
    fresh = tmp_path / "results" / "smoke" / "results.json"
    drift = subprocess.run(
        [
            sys.executable, "-m", "repro", "drift", str(PINNED_SMOKE), str(fresh),
            "--rtol", "0", "--atol", "0", "--ignore", "bench.elapsed_s",
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert drift.returncode == 0, drift.stdout[-4000:] + drift.stderr[-2000:]
    assert "no drift across" in drift.stdout


def test_experiments_md_tables_match_paper_results():
    render = _render_script()
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    results = json.loads(PAPER_RESULTS.read_text())
    assert results["scale"] == "paper"
    assert render.render_doc(doc, results) == doc, (
        "EXPERIMENTS.md tables are stale: run scripts/render_experiments_md.py"
    )


def test_render_rejects_a_document_without_markers():
    render = _render_script()
    results = json.loads(PAPER_RESULTS.read_text())
    with pytest.raises(KeyError, match="no marked block"):
        render.render_doc("# no markers here\n", results)
