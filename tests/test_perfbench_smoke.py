"""perfbench's traced mode still installs on the program, and runs.

perfbench measures each layer by wrapping names inside ``src/``. A
refactor that renames or removes one of them makes the wrap vanish
quietly, so its per-layer metrics read 0. This runs perfbench's own
install steps in a fresh interpreter from the repo root and checks that
no name is reported gone beyond the known dead wraps. A wrap's callback
reads the arguments or attributes it was written for (``cells`` reads
``table.w``); a refactor that breaks one makes every traced operation
raise, so one traced operation per workload is run as well.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# wraps of names removed before this test existed; perfbench still lists them
KNOWN_GONE = {
    "hubplatoon.dense.dense_delay_row",
    "hubplatoon.dense.rounded_mean_rows",
    "hubplatoon.dense.scaled_weights",
    "hubplatoon.dense.static_table",
    "hubplatoon.dense.EntryTable.set_travel",
    "hubplatoon.dense.EntryTable.finish_travel",
    "hubplatoon.dense.EntryTable.add_track",
    "hubplatoon.game.CoordinationGame.utility",
}

SCRIPT = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
import layers, run
from tracing import Tracer
m = run.import_program()
gone = layers.install(m, Tracer())
layers.install_decide_timers(m, {})
print(json.dumps(gone))
"""


def test_traced_install_reports_only_the_known_dead_wraps():
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    gone = json.loads(done.stdout.splitlines()[-1])
    assert set(gone) <= KNOWN_GONE, sorted(set(gone) - KNOWN_GONE)


@pytest.mark.parametrize("workload", ["corridor-mc", "country-mc", "exact-plan"])
def test_one_traced_operation_runs_without_raising(workload):
    """``--seconds 0`` runs one operation. Its ``correct`` is not asserted:
    a stall of the machine can push the spans' share of its wall time
    under the check's floor."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert not re.search(r"CHECK FAILED: operation \d+ raised", done.stderr), done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["attempted"] == 1
