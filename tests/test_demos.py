"""Every demo runs to completion, in process, against the current API.

The Python demos run as scripts; each `run ...` line of the CLI tour runs
through opdisc.cli.main from demos/, where the tour's relative paths point,
and must print byte for byte the document recorded for it in
data/cli_tour.json (command line -> stdout). A change that moves a printed
digit fails here; re-record an entry only when that change is intended.
"""

import contextlib
import io
import json
import runpy
import shlex
from pathlib import Path

import pytest

from opdisc.cli import main

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
RECORDED_TOUR = json.loads((Path(__file__).with_name("data") / "cli_tour.json").read_text(encoding="utf-8"))
DEMOS = sorted(DEMO_DIR.glob("0*.py"))
TOUR_RUNS = [
    shlex.split(line)[1:]
    for line in (DEMO_DIR / "06_cli_tour.sh").read_text(encoding="utf-8").splitlines()
    if line.startswith("run ")
]


def test_demos_are_found():
    assert DEMOS
    assert TOUR_RUNS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()


@pytest.mark.parametrize("argv", TOUR_RUNS, ids=[f"{i}-{argv[0]}" for i, argv in enumerate(TOUR_RUNS)])
def test_cli_tour_runs(argv, monkeypatch):
    monkeypatch.chdir(DEMO_DIR)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert out.getvalue() == RECORDED_TOUR[shlex.join(argv)]
