"""The benchmark's self-test (``bench/selftest.py``) runs on this
checkout's ``src/``: every check the benchmark makes passes its real
output and rejects a corrupted one.  It uses the library names the
benchmark calls, so removing or renaming one of them fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes_all_checks():
    # the script puts ROOT / "src" first on its own path
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "6/6 checks pass real outputs" in proc.stdout
