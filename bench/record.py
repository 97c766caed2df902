"""Write the baseline record, bench/baseline.json.

    python3 bench/record.py [--seed N]

Runs the smoke check, then every workload once untraced and once traced,
each in its own process for the ``run_seconds`` of BENCHMARK.json.  It
records per workload the end-to-end and named metrics (median, high
percentile, sample count), the per-layer metrics, and the operations
attempted and failed.  It also records the environment, the warm-up
policy, the known-defect probe and the map from layer metrics to the
end-to-end metrics they should move.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WARMUP_POLICY = (
    "Library calls get one untimed warm-up call before the timed loop, because "
    "path_norm_fast caches its surrogate on the architecture.  run_experiment builds "
    "all of its state per call, so the experiment workload has no warm-up.  CLI "
    "commands get none: a user pays load and build on every invocation."
)


def _run(args) -> list:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} failed:\n{proc.stdout}\n{proc.stderr}")
    return proc.stdout.splitlines()


def _detail(lines) -> dict:
    """Echo a run's readable lines and return its detail record."""
    detail = None
    for line in lines[:-1]:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
        else:
            print(line, flush=True)
    if detail is None:
        raise SystemExit("run.py printed no detail line")
    return detail


def main(argv=None) -> int:
    import run

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    smoke = json.loads(_run(["--smoke"])[-1])
    record = {
        "seed": args.seed,
        "seconds": seconds,
        "environment": smoke["environment"],
        "warmup_policy": WARMUP_POLICY,
        "smoke": {k: smoke[k] for k in ("correct", "attempted", "failed")},
        "known_defects": [smoke["probe"]],
        "layer_map": run.LAYER_MAP,
        "workloads": {},
    }
    for name in ("experiment", "conv_grid", "paths"):
        common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(seconds)]
        plain = _detail(_run(common + ["--trace", "0"]))
        traced = _detail(_run(common + ["--trace", "1"]))
        for k, (value, unit) in traced["per_layer"].items():
            print(f"  {k:<30} {value:.6g} {unit}")
        record["workloads"][name] = {
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failures": plain["failures"],
            "rounds": plain["rounds"],
            "end_to_end": plain["end_to_end"],
            "named": plain["named"],
            "traced": {
                "attempted": traced["attempted"],
                "failed": traced["failed"],
                "per_layer": {k: {"value": v[0], "unit": v[1]}
                              for k, v in traced["per_layer"].items()},
                "missing_instrumentation": traced["missing_instrumentation"],
            },
        }
    out = HERE / "baseline.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
