"""Frozen digests of what the library and the CLI return on the benchmark's
inputs, so a refactor that changes any output fails here.

The arithmetic is exact, so a change meant to keep behaviour can be held
to ``==``.  These tests run sweeps 0-2 of the benchmark's in-process
workloads (``bench/workloads.py``'s ``make``, as
``tests/test_bench_oracles.py`` does) at two seeds and compare a sha256
of the joined results with a frozen digest: the ``repr`` of each factor,
tau and pairing result, and the exit code and stdout of each CLI case run
through ``grasstau.cli.main`` in this process.  An exception in place of a
result is recorded as its type and message, so refusals are frozen too.
The sweeps run in order on one workload, since they draw from one
generator.

A change that alters an output on purpose updates the digest it changes.
The reprs and the JSON are in a fixed order, so the digests do not depend
on ``PYTHONHASHSEED``; CI runs this file under two hash seeds.
"""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SWEEPS = range(3)

# sha256 of the newline-joined outcomes of sweeps 0-2, first 16 hex digits
DIGESTS = {
    ("factor", 201): "625c84bfab330edb",
    ("factor", 202): "4d89388797aee62b",
    ("tau", 201): "a8e9b717f5bb2193",
    ("tau", 202): "2e99f70e6609b8c6",
    ("pairing", 201): "fac1475de13540d9",
    ("pairing", 202): "fe3ec5fad7eead77",
    ("cli", 201): "2ee9a468c978dbb1",
    ("cli", 202): "372f746896bda908",
}


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


def _outcome(call) -> str:
    try:
        return repr(call.run())
    except Exception as exc:  # a refusal is an output too
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_bench_outputs_match_their_digest(workloads, name, seed, tmp_path):
    wl = workloads.make(name, seed, {}, tmp_path)
    if name == "cli":
        calls = [call for index in SWEEPS for call in wl.sweep(index, in_process=True)]
    else:
        calls = [call for index in SWEEPS for call in wl.sweep(index)]
    joined = "\n".join(_outcome(call) for call in calls)
    assert hashlib.sha256(joined.encode()).hexdigest()[:16] == DIGESTS[name, seed]
