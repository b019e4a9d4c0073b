"""The benchmark imports the package's internals, so a change to ``src/``
alone can break it. Its traced run must keep working and passing its checks.

The run happens in a copy of the checkout, so that its ``.bench_out/`` does
not collide with a benchmark running in the checkout itself.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_run_is_correct(tmp_path):
    for name in ("bench", "src", "data"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "veteran-gcomp-grid",
         "--seed", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
