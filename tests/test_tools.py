import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def artifacts():
    return load("artifacts")


def write_tree(root, report, rows, extra=()):
    (root / "run").mkdir(parents=True)
    (root / "run" / "report.json").write_text(json.dumps(report))
    (root / "run" / "trajectory.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    (root / "same.json").write_text('{"a": 0.5}')
    for name in extra:
        (root / name).write_text("{}")


class TestCompare:
    def test_reports_float_moves_and_other_fields(self, artifacts, tmp_path, capsys):
        header = ["t", "sup_Hi"]
        write_tree(tmp_path / "base", {"r": 4.0e-13, "steps": 10, "passed": True, "error": "x", "q": math.nan},
                   [header, ["0.0", "1.0"], ["2.0", "0.5"]])
        write_tree(tmp_path / "head", {"r": 5.0e-13, "steps": 11, "passed": True, "error": "y", "q": math.nan},
                   [header, ["0.0", "1.0"], ["2.0", "0.5000001"], ["4.0", "0.25"]], ["new.json"])
        assert artifacts.main(["--compare", str(tmp_path / "base"), str(tmp_path / "head")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            f"new.json: only in {tmp_path / 'head'}",
            "run/report.json: 1 of 1 floats moved, largest abs 1e-13 (/r), largest rel 0.2 (/r)",
            "  /steps: 10 -> 11",
            "  /error: 'x' -> 'y'",
            "run/trajectory.csv: 1 of 4 floats moved, largest abs 1e-07 (line 3, sup_Hi),"
            " largest rel 2e-07 (line 3, sup_Hi)",
            "  line 4, t: '<missing>' -> 4.0",
            "  line 4, sup_Hi: '<missing>' -> 0.25",
        ]

    def test_rejects_a_missing_directory(self, artifacts, tmp_path, capsys):
        assert artifacts.main(["--compare", str(tmp_path), str(tmp_path / "absent")]) == 2
        assert "must both be directories" in capsys.readouterr().err


class TestSize:
    def test_counts_lines_and_defaults(self, tmp_path, capsys):
        package = tmp_path / "src" / "vectorhost"
        package.mkdir(parents=True)
        (package / "mod.py").write_text("def f(a, b=1, *, c=2):\n    return a + b + c\n\n")
        assert load("size").main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out == f"{tmp_path}: 3 lines in src/vectorhost, 2 parameters with defaults\n"
