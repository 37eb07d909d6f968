"""Self-test of the benchmark: each workload once at reduced size.

Run from the repository root with ``python3 -m pytest perfbench``. For
every workload it checks that each metric is printed with its unit, that
no call failed, and that traced calls reproduce the untraced output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# (name, unit) of every end-to-end metric printed on a human-readable line
PRINTED = [
    ("run_s", "s"),
    ("run_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "fraction"),
    ("ap25", "AP"),
    ("ap50", "AP"),
    ("chamfer", "m2"),
    ("fscore", "0-100"),
    ("outlier_frac_filtered", "fraction"),
]


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--reduced"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def printed(lines: list[str]) -> dict[str, tuple[str, str]]:
    """``{name: (value, unit)}`` from the indented metric lines."""
    rows = {}
    for line in lines:
        if line.startswith("  "):
            fields = line.split()
            if len(fields) >= 3:
                rows[fields[0]] = (fields[1], fields[2])
    return rows


def digest_line(lines: list[str]) -> str:
    (line,) = [x for x in lines if x.startswith("digest ")]
    return line


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    lines, result = bench(workload, trace=0)
    rows = printed(lines)
    for name, unit in PRINTED:
        assert rows[name][1] == unit, name
    assert float(rows["error_rate"][0]) == 0.0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }

    traced_lines, traced = bench(workload, trace=1)
    traced_rows = printed(traced_lines)
    assert "traced reports equal untraced: True" in traced_lines
    assert traced["correct"] and traced["failed"] == 0
    assert digest_line(traced_lines) == digest_line(lines)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected
    for name, unit in expected.items():
        assert traced_rows[name][1] == unit, name
