#!/usr/bin/env python
"""Render EXPERIMENTS.md's measured tables from a committed results.json.

Every measured table in EXPERIMENTS.md (the headline claims and the
Fig. 4-7 tables) sits between a pair of markers::

    <!-- generated: fig4 -->
    ...
    <!-- end generated: fig4 -->

This script rewrites the text between each pair from
``docs/results/paper/results.json`` — the output of
``REPRO_SCALE=paper python scripts/run_experiments.py`` — so the tables
are data, not prose that can go stale.  The verdicts around them are
written by hand.

Usage:
    python scripts/render_experiments_md.py            # rewrite in place
    python scripts/render_experiments_md.py --check    # exit 1 if stale
"""

import argparse
import json
import pathlib
import re
import sys
from typing import Callable, Dict, List, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "docs" / "results" / "paper" / "results.json"
DOC = ROOT / "EXPERIMENTS.md"

SCHEMES = ("greedy", "partition", "combined")

#: (headline key, claim, the paper's number in %)
HEADLINE_CLAIMS = (
    ("activity_mgmt_saving_pct",
     "activity management saves RV traveling energy", 16.0),
    ("partition_distance_saving_pct",
     "Partition-Scheme saves traveling distance vs greedy", 41.0),
    ("combined_distance_saving_pct",
     "Combined-Scheme saves traveling distance vs greedy", 13.0),
    ("partition_nonfunctional_reduction_pct",
     "Partition reduces nonfunctional nodes vs greedy", 23.0),
    ("combined_nonfunctional_reduction_pct",
     "Combined reduces nonfunctional nodes vs greedy", 52.0),
)

BLOCK = re.compile(
    r"(<!-- generated: (?P<name>[\w-]+) -->\n)(?P<body>.*?)(<!-- end generated: (?P=name) -->)",
    re.S,
)


def _table(header: Sequence[str], rows: List[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def _erp_table(
    results: dict, metric: str, fmt: str, scale: Callable[[float], float]
) -> str:
    sweep = results["sweep"]
    rows = [
        [f"{erp:.1f}"] + [format(scale(sweep[s][metric][i]), fmt) for s in SCHEMES]
        for i, erp in enumerate(results["fig5"]["erp"])
    ]
    return _table(["ERP", *SCHEMES], rows)


def _mj(joules: float) -> float:
    return joules / 1e6


def _pct(fraction: float) -> float:
    return 100.0 * fraction


def render_blocks(results: dict) -> Dict[str, str]:
    """Markdown for every generated block, keyed by block name."""
    headline = results["headline"]
    savings = results["fig4_savings_pct"]
    rows = []
    for key, claim, paper in HEADLINE_CLAIMS:
        measured = f"**{headline[key]:.1f} %**"
        if key == "activity_mgmt_saving_pct":
            lo, hi = min(savings.values()), max(savings.values())
            measured += f" ({lo:.1f}–{hi:.1f} % per scheduler)"
        rows.append([claim, f"{paper:.0f} %", measured])
    fig5 = results["fig5"]
    return {
        "headline": _table(["claim", "paper", "measured"], rows),
        "fig4": _table(
            ["case", *SCHEMES],
            [
                [case] + [f"{by_scheme[s]:.3f}" for s in SCHEMES]
                for case, by_scheme in results["fig4_mj"].items()
            ],
        ),
        "fig5": _table(
            ["ERP", "traveling energy (MJ)", "missing rate (%)"],
            [
                [f"{erp:.1f}", f"{e:.3f}", f"{m:.2f}"]
                for erp, e, m in zip(
                    fig5["erp"], fig5["traveling_energy_mj"], fig5["missing_rate_pct"]
                )
            ],
        ),
        "fig6a": _erp_table(results, "traveling_energy_j", ".3f", _mj),
        "fig6b": _erp_table(results, "avg_coverage_ratio", ".2f", _pct),
        "fig6c": _erp_table(results, "avg_nonfunctional_fraction", ".3f", _pct),
        "fig6d": _erp_table(results, "recharging_cost_m_per_sensor", ".0f", float),
        "fig7a": _erp_table(results, "delivered_energy_j", ".3f", _mj),
        "fig7b": _erp_table(results, "objective_j", ".3f", _mj),
    }


def render_doc(doc: str, results: dict) -> str:
    """``doc`` with every generated block re-rendered from ``results``."""
    blocks = render_blocks(results)
    seen = set()

    def fill(m: re.Match) -> str:
        name = m.group("name")
        if name not in blocks:
            raise KeyError(f"EXPERIMENTS.md names an unknown block {name!r}")
        seen.add(name)
        return m.group(1) + blocks[name] + "\n" + m.group(4)

    out = BLOCK.sub(fill, doc)
    missing = sorted(set(blocks) - seen)
    if missing:
        raise KeyError(f"EXPERIMENTS.md has no marked block for {missing}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the document differs from the rendering")
    parser.add_argument("--results", type=pathlib.Path, default=RESULTS)
    parser.add_argument("--doc", type=pathlib.Path, default=DOC)
    args = parser.parse_args(argv)
    doc = args.doc.read_text()
    rendered = render_doc(doc, json.loads(args.results.read_text()))
    if args.check:
        if rendered != doc:
            print(f"{args.doc} is stale: run {pathlib.Path(__file__).name}",
                  file=sys.stderr)
            return 1
        return 0
    args.doc.write_text(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
