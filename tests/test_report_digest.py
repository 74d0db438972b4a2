"""Report bytes: `tools/report_digest.py` on this tree gives the pinned total.

The total is the sha1 over one sha1 per `tltau verify` report (timestamp
removed) on the script's 100 fixed configs.  A change that means to alter a
report re-pins it here and says why in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOTAL = "25f2879b80ee91ce9a8f415f39908309861ff525"


def test_report_bytes_match_the_pinned_digest(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digest.py"), str(ROOT),
                           str(tmp_path / "digests.txt")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    total = done.stdout.splitlines()[-1]
    assert total == "%s  total of 100 configs" % TOTAL
