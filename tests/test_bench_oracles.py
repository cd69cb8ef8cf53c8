"""One sweep of each in-process benchmark workload, every oracle asserted.

The benchmark's own oracles (``bench/workloads.py``) judge factorization,
both tau routes, the wave series, the KP residual and the commutator
pairing over Q and F_5.  CI runs them as a step on Python 3.11 only;
this sweep runs them on 3.10, 3.12 and 3.13 too.  The bench files are
imported as they are, nothing is written next to them, and their
modules leave ``sys.modules`` after the sweeps."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(BENCH))
        for name in ("workloads", "inputs"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["factor", "tau", "pairing"])
def test_one_bench_sweep_passes_every_oracle(workloads, name, tmp_path):
    wl = workloads.make(name, 2026, {}, tmp_path)
    failed = []
    count = 0
    for call in wl.sweep(0):
        count += 1
        if not call.check(call.run()):
            failed.append(call.op)
    assert count and not failed, f"{name}: {len(failed)} of {count} oracles failed: {failed}"
