"""Quick check that the benchmark runs: ``pytest bench/test_smoke.py``.

Runs ``bench/run.py --smoke`` (every workload on small inputs, all output
checks) and checks that each workload prints exactly the metrics that
BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_runs_every_workload_with_checks():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0
    assert set(out["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert out["environment"]["path_cap_env_unset_for_run"] is True
    for w in out["workloads"].values():
        assert w["attempted"] > 0
        assert w["end_to_end"] == sorted(m["name"] for m in spec["end_to_end"])
        assert w["per_layer"] == sorted(m["name"] for m in spec["per_layer"])
