"""Smoke tests for the scripts under ``scripts/`` on tiny settings.

Each script's ``main()`` runs in-process with a patched ``sys.argv`` and
must exit 0 and print its table.
"""

import json
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, capsys, *args) -> str:
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    assert main() == 0
    return capsys.readouterr().out


def test_frame_sweep(monkeypatch, capsys):
    out = run_script("frame_sweep.py", monkeypatch, capsys, "--frames", 1, 2)
    rows = out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["1", "2"]


def test_frame_sweep_no_matching_detection(monkeypatch, capsys):
    out = run_script(
        "frame_sweep.py", monkeypatch, capsys, "--frames", 1, "--outlier-rate", 1.0
    )
    assert out.splitlines()[1].split()[-2:] == ["n/a", "n/a"]


def test_sparsity_bench(tmp_path, monkeypatch, capsys):
    report_path = tmp_path / "sparsity.json"
    out = run_script(
        "sparsity_bench.py", monkeypatch, capsys,
        "--frames", 2, "--voxel-sizes", 0.08, 0.16, "--out", report_path,
    )
    assert len(out.splitlines()) == 4
    report = json.loads(report_path.read_text())
    assert report["voxel_size"] == 0.16
    # the full bench report: the 8x8x3 m region at the 0.16 m reference
    # is 50 * 50 * 19 cells, and the stage times are kept
    assert report["coarse_dense_cells"] == 47_500
    assert "timings_s" in report["metadata"]
