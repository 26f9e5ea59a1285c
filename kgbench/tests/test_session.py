"""A run ends every process it started, orphans included."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from kgbench import procfs

ROOT = Path(__file__).resolve().parents[2]

# A child starts a grandchild in a new session and exits at once, as the
# raylet does when it ends before its workers: the grandchild is orphaned.
SCRIPT = textwrap.dedent(
    """
    import json, os, subprocess, sys, time
    from kgbench import procfs
    from kgbench.session import become_subreaper, reap_children

    become_subreaper()
    mid = subprocess.Popen([sys.executable, "-c", (
        "import subprocess, sys;"
        "p = subprocess.Popen(['sleep', '60'], start_new_session=True,"
        " stdin=subprocess.DEVNULL, stderr=subprocess.DEVNULL, stdout=subprocess.DEVNULL);"
        "print(p.pid, flush=True)"
    )], stdout=subprocess.PIPE, text=True)
    orphan = int(mid.stdout.readline())
    mid.wait()
    time.sleep(0.2)
    found = orphan in procfs.descendants(os.getpid())
    left = reap_children(timeout=5)
    print(json.dumps({"orphan": orphan, "found": found, "left": left,
                      "alive": procfs.alive(orphan)}))
    """
)


def test_reap_children_ends_orphaned_descendants():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    try:
        assert res["found"], "the orphan was not re-parented to the subreaper"
        assert res["left"] == []
        assert not res["alive"]
    finally:
        if procfs.alive(res["orphan"]):
            os.kill(res["orphan"], 9)
