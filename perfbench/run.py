"""Run one benchmark workload in a fresh, single-threaded process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cells --seed 1 --seconds 25 --trace 0

The workload runs in a child process (``python3 -m perfbench.worker``) whose
environment pins ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1, so BLAS thread pools neither contend for a small
host's CPUs nor differ between runs.  The child's standard output is relayed
once it has ended: a ``{"host": ...}`` record (CPUs, load average, library
versions), then the result object as the last line.  The exit code is 0 when
a result was printed and non-zero otherwise — including when the checkout
holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The child must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *sys.argv[1:]],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: the run did not end within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if child.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(f"perfbench: the run ended with code {child.returncode} and no result", file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
