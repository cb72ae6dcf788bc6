"""The reference cost tables that the README quotes stay fixed.

``scripts/cost_tables.py`` prints the estimator's numbers for the gesture
classifier family and the phase-net activation sweep.  Its whole output is
pinned by a SHA-256, and the rows the README quotes are checked in the
clear, so any change to the estimator's arithmetic shows here.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cost_tables.py"

OUTPUT_SHA256 = "b5dc63b2fc44469eb002d716957fd74d69881eef18cd35efd5bd587574fbfe7c"


def _cost_tables_output(monkeypatch, capsys) -> str:
    spec = importlib.util.spec_from_file_location("cost_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)])
    module.main()
    return capsys.readouterr().out


def test_cost_tables_output_is_pinned(monkeypatch, capsys):
    out = _cost_tables_output(monkeypatch, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256


def test_cost_tables_print_the_rows_the_readme_quotes(monkeypatch, capsys):
    out = _cost_tables_output(monkeypatch, capsys)
    row = next(line.split() for line in out.splitlines()
               if line.split()[:1] == ["180-8-5"])
    assert row == ["180-8-5", "1480", "1493", "5972", "27.53", "yes"]
    assert "666 (631 of them multiplications)" in out
