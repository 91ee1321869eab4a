"""perfbench's traced mode still installs on the program.

perfbench measures each layer by wrapping names inside ``src/``. A
refactor that renames or removes one of them makes the wrap vanish
quietly, so its per-layer metrics read 0. This runs perfbench's own
install steps in a fresh interpreter from the repo root and checks that
no name is reported gone beyond the known dead wraps.
"""

import json
import subprocess
import sys
from pathlib import Path

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
