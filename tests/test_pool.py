"""The process pool: imported on first use, cancelled on a raise, no worker left behind."""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stirlingzero import config_sums
from stirlingzero._pool import ProcessPoolExecutor
from stirlingzero.algebra import ConsistencyError
from stirlingzero.config_sums import ConfigSumInstance, sum_collapsed
from stirlingzero.partitions import GroundSet

SRC = Path(__file__).resolve().parents[1] / "src"

# a monkeypatch reaches pool workers only when they are forked
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="pool workers are not forked")

# run in a fresh interpreter: what importing the package loads, then what a
# serial and a parallel sum load, and whether the two totals agree
FOOTPRINT = """
import json, sys
import stirlingzero, stirlingzero.cli
from stirlingzero import ConfigSumInstance, GroundSet, sum_collapsed

def pool_stack():
    return sorted(m for m in sys.modules
                  if m.partition(".")[0] in ("multiprocessing", "concurrent"))

at_import = pool_stack()
inst = ConfigSumInstance.make(6, 3, GroundSet.numeric([2, 3, 5, 7, 11, 13]))
serial = sum_collapsed(inst, jobs=1)
at_serial = pool_stack()
parallel = sum_collapsed(inst, jobs=2)
print(json.dumps({"at_import": at_import, "at_serial": at_serial,
                  "after_pool": pool_stack(),
                  "equal": parallel.total == serial.total}))
"""


def test_start_up_loads_no_pool_stack():
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["at_import"] == []
    assert seen["at_serial"] == []
    assert {"multiprocessing", "concurrent.futures"} <= set(seen["after_pool"])
    assert seen["equal"]


def test_a_raise_in_the_block_cancels_queued_work():
    # one worker, twenty queued sleeps: the raise must not wait for them all
    with pytest.raises(RuntimeError, match="stop"):
        with ProcessPoolExecutor(max_workers=1) as pool:
            futures = [pool.submit(time.sleep, 0.05) for _ in range(20)]
            raise RuntimeError("stop")
    assert futures[-1].cancelled()
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_failing_shard_drops_the_queued_ones(monkeypatch):
    # 64 shards on two workers; shard 0 fails at once and every other one
    # sleeps 0.1 s, so running the queue out would take over 3 s
    real = config_sums.iter_unordered_partitions

    def first_shard_fails(g, part=0, parts=1):
        if part == 0:
            raise ConsistencyError("injected fault in shard 0")
        time.sleep(0.1)
        return real(g, part, parts)

    monkeypatch.setattr(config_sums, "iter_unordered_partitions", first_shard_fails)
    monkeypatch.setattr(config_sums.os, "cpu_count", lambda: 2)
    inst = ConfigSumInstance.make(8, 6, GroundSet.numeric([2, 3, 5, 7, 11, 13, 17, 19]))
    start = time.perf_counter()
    with pytest.raises(ConsistencyError, match="injected fault in shard 0"):
        sum_collapsed(inst, jobs=64)
    assert time.perf_counter() - start < 1.5
    assert multiprocessing.active_children() == []
