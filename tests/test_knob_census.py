"""Every ``REPRO_*`` environment knob is documented, and every
documented knob exists.

A knob counts as *read* when its full name appears as a string literal
in the package (``os.environ.get("REPRO_X")`` or a module constant
holding the name); prose that merely mentions a knob does not count.
The reference is ``docs/api_overview.md``.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z0-9_]+")


def _knobs_read(directory):
    names = set()
    for path in (ROOT / directory).rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and KNOB.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def _knobs_documented():
    text = (ROOT / "docs" / "api_overview.md").read_text(encoding="utf-8")
    return set(KNOB.findall(text))


def test_every_knob_read_in_src_is_documented():
    undocumented = _knobs_read("src") - _knobs_documented()
    assert not undocumented, (
        f"REPRO_* knobs read under src/ but missing from "
        f"docs/api_overview.md: {sorted(undocumented)}"
    )


def test_every_documented_knob_is_read():
    read = _knobs_read("src") | _knobs_read("benchmarks")
    stale = _knobs_documented() - read
    assert not stale, (
        f"docs/api_overview.md names REPRO_* knobs that nothing reads: "
        f"{sorted(stale)}"
    )


def test_census_sees_the_package_knobs():
    # Guard against the scan silently matching nothing.
    assert {"REPRO_BATCH", "REPRO_JOBS", "REPRO_STORE"} <= _knobs_read("src")
