"""Cold-start guard: a campaign process loads no heavy reference library.

``scipy.signal``/``scipy.stats`` (~0.9 s), ``scipy.special``,
``scipy.sparse`` and ``networkx`` are only needed by reference paths
(the mesh solver, netlist/STA/defense graph checks) and are imported
when those are called.  These tests check *which* modules a fresh
interpreter has loaded, not how long anything took, so they hold on any
machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a campaign process must not load.
HEAVY = ("scipy.signal", "scipy.special", "scipy.stats", "scipy.sparse", "networkx")

_REPORT = (
    "import json, sys\n"
    f"print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))\n"
)


def _loaded_heavy_modules(body: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", body + _REPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_and_listing_load_no_heavy_library():
    body = (
        "import repro.cli\n"
        "from repro.experiments import registry\n"
        "registry.names()\n"
    )
    assert _loaded_heavy_modules(body) == []


@pytest.mark.parametrize("name, workers", [("fig5", 2), ("fig4", 1)])
def test_quick_campaign_loads_no_heavy_library(name, workers):
    body = (
        "from repro.experiments import registry\n"
        "from repro.experiments.registry import ExperimentConfig\n"
        f"registry.run({name!r}, ExperimentConfig("
        f"scale='quick', seed=0, workers={workers}))\n"
    )
    assert _loaded_heavy_modules(body) == []
