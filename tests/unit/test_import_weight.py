"""The analysis path does not load the HTTP stack.

``repro serve`` and ``ServiceClient`` live in
:mod:`repro.service.server`; importing the analysis API or the session
package must not pull in ``http.server``, ``urllib.request`` or ``ssl``
(several megabytes that no analysis uses).  A child process checks it,
so modules this test run imported earlier do not count.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

HEAVY = ("http.server", "urllib.request", "ssl")


def test_analysis_imports_leave_the_http_stack_unloaded():
    script = (
        "import sys\n"
        "import repro.api, repro.service, repro.workloads\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
        "import repro.service.server\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=env,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    analysis, server = done.stdout.splitlines()
    assert analysis == "[]"
    # The probe would notice: the server does load them.
    assert server != "[]"
