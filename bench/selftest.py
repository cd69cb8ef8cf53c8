"""Self-test of the traced benchmark run.

    python3 bench/selftest.py

For every workload it makes two traced runs of seed ``SEED`` and checks that

* both runs give identical call counts for every span;
* traced results equal untraced results and every oracle passes (the
  run's ``correct`` flag);
* the predicted pattern holds: ``factorize`` never runs on ``tau`` and
  ``pairing``, ``det_ring`` and ``inv_ring`` never run on ``factor``,
  and each workload does reach the layer it is there to measure.

Exits 1 and names the failed check if any does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1

ZERO = {
    "factor": ("linalg.det_ring.calls", "linalg.inv_ring.calls"),
    "tau": ("gamma.factorize.calls",),
    "pairing": ("gamma.factorize.calls",),
    "cli": (),
}
NONZERO = {
    "factor": ("gamma.factorize.calls", "laurent.inverse_windowed.calls"),
    "tau": ("linalg.det_ring.calls", "tau.tau_direct.calls", "tau.tau_schur.calls", "tau.baker.calls",
            "tau.kp_residual.calls"),
    "pairing": ("linalg.inv_ring.calls", "linalg.mat_mul_ring.calls", "pairings.commutator_pairing.calls"),
    "cli": ("cli.main.calls", "serialize.decode.calls", "serialize.encode.calls", "cli.exit_2", "cli.exit_3",
            "cli.exit_4"),
}


def traced_run(workload: str) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for workload in ZERO:
        first, second = traced_run(workload), traced_run(workload)
        counts = [{k: v["value"] for k, v in run["metrics"].items() if k.endswith(".calls")}
                  for run in (first, second)]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{workload}: call counts differ between two traced runs: {diff}")
        for run in (first, second):
            if not run["correct"]:
                problems.append(f"{workload}: traced results differ from untraced ones or an oracle failed")
        metrics = {k: v["value"] for k, v in first["metrics"].items()}
        problems += [f"{workload}: {k} should be 0, is {metrics[k]}" for k in ZERO[workload] if metrics[k]]
        problems += [f"{workload}: {k} should be > 0" for k in NONZERO[workload] if not metrics[k]]
        print(f"{workload}: {len(counts[0])} span counts compared, {sum(counts[0].values())} calls traced")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
