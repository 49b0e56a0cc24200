"""Every golden CLI case in ``bench/cli_golden.json``, replayed in process.

The golden file records the exact stdout and exit code of each command line
the benchmark's ``cli`` workload draws from; this test checks all of them,
where one benchmark round samples only a few.
"""
import json
from pathlib import Path

from bicomplex.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "cli_golden.json"


def test_every_golden_cli_case(capsys, monkeypatch, tmp_path):
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == 186
    monkeypatch.chdir(tmp_path)  # one case writes table.csv to the working directory
    mismatches = []
    for case in cases:
        code = main(list(case["argv"]))
        out = capsys.readouterr().out
        if (code, out) != (case["exit"], case["stdout"]):
            mismatches.append((case["argv"], case["exit"], code))
    assert mismatches == []
