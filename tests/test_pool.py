"""The process pool: imported on first use, stopped by its first error, no worker left behind."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from stirlingzero import cli, config_sums
from stirlingzero._pool import ProcessPoolExecutor
from stirlingzero.algebra import ConsistencyError
from stirlingzero.config_sums import ConfigSumInstance, sum_collapsed
from stirlingzero.partitions import GroundSet

from forking import assert_no_child_left, needs_fork

SRC = Path(__file__).resolve().parents[1] / "src"

# run in a fresh interpreter: what importing the package loads, then what a
# serial and a parallel sum load, and whether the two totals agree
FOOTPRINT = """
import json, sys
import stirlingzero, stirlingzero.cli
from stirlingzero import ConfigSumInstance, GroundSet, sum_collapsed

def pool_stack():
    return sorted(m for m in sys.modules
                  if m.partition(".")[0] in ("multiprocessing", "concurrent", "pickle"))

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
    # the pool pickles its outcomes and loads nothing of the stdlib pool
    assert seen["after_pool"] == ["pickle"]
    assert seen["equal"]


# stdout is a pipe and PYTHONUNBUFFERED is dropped, so the parent's "before"
# is still in its buffer when the workers fork: one that flushed it would
# print it again
STDOUT_ONCE = """
from stirlingzero import ConfigSumInstance, GroundSet, sum_collapsed
print("before")
sum_collapsed(ConfigSumInstance.make(5, 2, GroundSet.numeric([2, 3, 5, 7, 11])), jobs=3)
print("after")
"""


# run in a fresh interpreter held to one CPU: sum_collapsed forks one shard
# however many jobs it is asked for
ONE_CPU = """
import json, os
from stirlingzero import ConfigSumInstance, GroundSet, sum_collapsed

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
forks, real_fork = [], os.fork

def counted_fork():
    pid = real_fork()
    forks.append(pid)
    return pid

os.fork = counted_fork
inst = ConfigSumInstance.make(9, 7, GroundSet.numeric([2, 3, 5, 7, 11, 13, 17, 19, 23]))
total = sum_collapsed(inst, jobs=64).total
print(json.dumps({"forks": len(forks), "equal": total == sum_collapsed(inst).total}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity")
def test_one_usable_cpu_forks_one_shard():
    proc = subprocess.run([sys.executable, "-c", ONE_CPU], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"forks": 1, "equal": True}


def test_workers_leave_the_parents_stdout_alone():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", STDOUT_ONCE], capture_output=True,
                          text=True, env={**env, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before\nafter\n"


def test_a_raise_in_the_block_kills_the_running_child():
    # a raise in the block kills the running child instead of waiting out its sleep
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="stop"):
        with ProcessPoolExecutor() as pool:
            pool.submit(time.sleep, 30)
            raise RuntimeError("stop")
    assert time.perf_counter() - start < 1.5
    assert_no_child_left()


def test_leaving_the_block_kills_an_unread_child():
    # a block left normally does not wait for a result it never read, and
    # that result is then lost for good rather than awaited forever
    start = time.perf_counter()
    with ProcessPoolExecutor() as pool:
        unread = pool.submit(time.sleep, 30)
    assert time.perf_counter() - start < 1.5
    assert_no_child_left()
    with pytest.raises(ChildProcessError, match="killed"):
        unread.result()
    assert time.perf_counter() - start < 1.5


def _payload(i):
    return bytes([i]) * 300_000  # several pipe buffers' worth


def test_results_larger_than_a_pipe_buffer_arrive_whole():
    # each outcome longer than a pipe holds
    with ProcessPoolExecutor() as pool:
        futures = [pool.submit(_payload, i) for i in range(5)]
        assert [fut.result() for fut in futures] == [_payload(i) for i in range(5)]
    assert_no_child_left()


def test_a_child_that_ends_without_an_outcome_is_an_error():
    # an os._exit(0) in the called code: wait status 0, but an empty pipe
    with pytest.raises(ChildProcessError, match="ended without a result"):
        with ProcessPoolExecutor() as pool:
            pool.submit(os._exit, 0).result()
    assert_no_child_left()


def _fails_consistently():
    raise ConsistencyError("injected fault in the shard")


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("cannot travel")
        self.handle = lambda: None


def _fails_unpicklably():
    raise _Unpicklable()


def _raises(exc):
    raise exc


def test_a_shard_error_keeps_its_type_and_traceback():
    with pytest.raises(ConsistencyError, match="injected fault in the shard") as info:
        with ProcessPoolExecutor() as pool:
            pool.submit(_fails_consistently).result()
    # the worker's own frames, as the stdlib pool's _RemoteTraceback gave them
    assert "in _fails_consistently" in str(info.value.__cause__)
    assert_no_child_left()


def test_an_unpicklable_error_arrives_as_its_repr():
    with pytest.raises(RuntimeError, match=r"_Unpicklable\('cannot travel'\)") as info:
        with ProcessPoolExecutor() as pool:
            pool.submit(_fails_unpicklably).result()
    assert "in _fails_unpicklably" in str(info.value.__cause__)
    assert_no_child_left()


@pytest.mark.parametrize("exc", [SystemExit(0), KeyboardInterrupt()])
def test_an_exit_in_a_shard_is_an_error_and_goes_no_further(tmp_path, exc):
    # a child that let the exit unwind would run this test's code after the
    # block as well, and append its own pid
    seen = tmp_path / "pids"
    with pytest.raises(ChildProcessError, match=type(exc).__name__):
        with ProcessPoolExecutor() as pool:
            pool.submit(_raises, exc).result()
    with open(seen, "a", encoding="utf-8") as out:
        out.write(f"{os.getpid()}\n")
    assert_no_child_left()
    assert seen.read_text(encoding="utf-8") == f"{os.getpid()}\n"


@needs_fork
@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_shard_stops_the_sum_at_once(monkeypatch, failing):
    # two shards on two CPUs; one fails at once and the other sleeps 30 s,
    # so the error must not wait for it, whichever shard is read first: the
    # pool kills the sleeper
    real = config_sums.iter_unordered_partitions

    def one_shard_fails(g, part=0, parts=1):
        if part == failing:
            raise ConsistencyError(f"injected fault in shard {part}")
        time.sleep(30)
        return real(g, part, parts)

    monkeypatch.setattr(config_sums, "iter_unordered_partitions", one_shard_fails)
    monkeypatch.setattr(config_sums, "_usable_cpus", lambda: 2)
    inst = ConfigSumInstance.make(8, 6, GroundSet.numeric([2, 3, 5, 7, 11, 13, 17, 19]))
    start = time.perf_counter()
    with pytest.raises(ConsistencyError, match=f"injected fault in shard {failing}"):
        sum_collapsed(inst, jobs=64)
    assert time.perf_counter() - start < 1.5
    assert_no_child_left()


@needs_fork
def test_a_killed_worker_stops_the_run_with_exit_2(monkeypatch, tmp_path, capsys):
    # shard 1 dies by SIGKILL before it can report while shard 0 sleeps 30 s:
    # a usage-style exit 2 with a one-line error at once, not the status of a
    # nonzero verdict
    real = config_sums.iter_unordered_partitions
    parent = os.getpid()

    def second_shard_dies(g, part=0, parts=1):
        if os.getpid() != parent:
            if part == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(30)
        return real(g, part, parts)

    monkeypatch.setattr(config_sums, "iter_unordered_partitions", second_shard_dies)
    monkeypatch.setattr(config_sums, "_usable_cpus", lambda: 2)
    start = time.perf_counter()
    status = cli.main(["part1", "--g", "5", "--w", "2", "--random", "1", "--jobs", "2",
                       "--ledger", str(tmp_path / "ledger.jsonl")])
    assert time.perf_counter() - start < 1.5
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shard process ")
    assert f"wait status {signal.SIGKILL}" in err
    assert_no_child_left()


@needs_fork
def test_a_worker_that_exits_without_an_outcome_stops_the_run_with_exit_2(monkeypatch, tmp_path,
                                                                           capsys):
    # both shards exit 0 before they report: a one-line error, not the
    # traceback of an unpickled empty pipe
    monkeypatch.setattr(config_sums, "_walk", lambda *args: os._exit(0))
    monkeypatch.setattr(config_sums, "_usable_cpus", lambda: 2)
    status = cli.main(["part1", "--g", "6", "--w", "3", "--random", "1", "--jobs", "2",
                       "--ledger", str(tmp_path / "ledger.jsonl")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shard process ") and err.count("\n") == 1
    assert "ended without a result" in err and "Traceback" not in err
    assert_no_child_left()


@needs_fork
def test_a_failed_fork_kills_the_shards_already_forked(monkeypatch, tmp_path, capsys):
    # the second shard's fork fails while the first shard's worker sleeps
    # 30 s: the error stops the sum at once and that worker is killed and reaped
    real_fork, forks, parent = os.fork, [], os.getpid()
    real_partial = config_sums._collapsed_partial

    def second_fork_fails():
        forks.append(None)
        if len(forks) % 2 == 0:
            raise OSError("injected: no second fork")
        return real_fork()

    def sleeps_in_a_worker(*args):
        if os.getpid() != parent:
            time.sleep(30)
        return real_partial(*args)

    monkeypatch.setattr(os, "fork", second_fork_fails)
    monkeypatch.setattr(config_sums, "_collapsed_partial", sleeps_in_a_worker)
    monkeypatch.setattr(config_sums, "_usable_cpus", lambda: 2)
    start = time.perf_counter()
    inst = ConfigSumInstance.make(5, 2, GroundSet.numeric([2, 3, 5, 7, 11]))
    with pytest.raises(OSError, match="injected: no second fork"):
        sum_collapsed(inst, jobs=2)
    assert_no_child_left()
    status = cli.main(["part1", "--g", "5", "--w", "2", "--random", "1", "--jobs", "2",
                       "--ledger", str(tmp_path / "ledger.jsonl")])
    assert time.perf_counter() - start < 1.5
    assert (status, capsys.readouterr().err) == (2, "error: injected: no second fork\n")
    assert len(forks) == 4
    assert_no_child_left()


def test_jobs_above_one_without_fork_is_an_error(monkeypatch, tmp_path, capsys):
    monkeypatch.delattr(os, "fork", raising=False)
    args = ["part1", "--g", "4", "--w", "1", "--random", "1",
            "--ledger", str(tmp_path / "ledger.jsonl")]
    assert cli.main(args + ["--jobs", "2"]) == 2
    assert capsys.readouterr().err == "error: --jobs above 1 needs os.fork, which this platform lacks\n"
    assert cli.main(args + ["--jobs", "1"]) == 0


# ------------------------------------------------ planned entries side by side

@pytest.fixture
def pools(monkeypatch):
    """Count the pools config_sums builds on two usable CPUs: the submits of
    each, and the most open (built, not yet shut down) at one time."""
    seen = SimpleNamespace(submits=[], open=0, most_open=0)

    class CountingPool(ProcessPoolExecutor):
        def __init__(self):
            super().__init__()
            self.index = len(seen.submits)
            self.closed = False
            seen.submits.append(0)
            seen.open += 1
            seen.most_open = max(seen.most_open, seen.open)

        def submit(self, fn, /, *args, **kwargs):
            seen.submits[self.index] += 1
            return super().submit(fn, *args, **kwargs)

        def shutdown(self):
            if not self.closed:
                self.closed = True
                seen.open -= 1
            super().shutdown()

    monkeypatch.setattr(config_sums, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(config_sums, "_usable_cpus", lambda: 2)
    return seen


def _run(argv, tmp_path, capsys, name):
    path = tmp_path / f"{name}.jsonl"
    code = cli.main(argv + ["--ledger", str(path)])
    captured = capsys.readouterr()
    records = [{k: v for k, v in json.loads(line).items() if k not in ("ts", "elapsed_s")}
               for line in path.read_text(encoding="utf-8").splitlines()]
    return code, records, captured


def _g_w(records):
    return [(r["params"]["g"], r["params"]["w"], r["status"]) for r in records]


@needs_fork
@pytest.mark.parametrize("perturbed", [False, True], ids=["zero", "nonzero"])
def test_a_sweep_runs_one_single_worker_pool_per_record(pools, monkeypatch, tmp_path,
                                                        capsys, perturbed):
    # symbolic g = 2..4 and numeric g = 5; with P_1 + 1 every total at w > 0
    # is nonzero, so its record also carries the parent's double check
    if perturbed:
        def plus_one(real):
            return lambda w, t: real(w, t) + 1 if w == 1 else real(w, t)

        monkeypatch.setattr(config_sums, "eval_P", plus_one(config_sums.eval_P))
        monkeypatch.setattr(config_sums, "eval_P_symbolic",
                            plus_one(config_sums.eval_P_symbolic))
    argv = ["sweep", "--g-max", "5", "--symbolic-g-max", "4", "--seed", "3"]
    serial = _run(argv + ["--jobs", "1"], tmp_path, capsys, "serial")
    assert pools.submits == []
    side_by_side = _run(argv + ["--jobs", "2"], tmp_path, capsys, "parallel")
    assert side_by_side == serial
    code, records, _ = serial
    assert code == int(perturbed) and len(records) == 6 + 4 * 3
    assert [("oracle_total" in r["extra"]) for r in records] == [
        perturbed and r["params"]["w"] > 0 for r in records]
    assert pools.submits == [1] * len(records)
    assert pools.most_open == 2 and pools.open == 0
    assert_no_child_left()


@needs_fork
def test_a_lone_entry_is_still_sharded(pools, tmp_path, capsys):
    argv = ["part1", "--g", "5", "--w", "2", "--random", "1"]
    serial = _run(argv + ["--jobs", "1"], tmp_path, capsys, "serial")
    assert _run(argv + ["--jobs", "2"], tmp_path, capsys, "parallel") == serial
    assert pools.submits == [2]
    assert_no_child_left()


@needs_fork
def test_each_block_table_is_built_where_its_walk_runs(pools, monkeypatch, tmp_path, capsys):
    # --jobs 1 builds each entry's table here; at --jobs 2 a plan of several
    # entries builds each in the entry's one worker, and each shard of a lone
    # entry builds its own
    parent, built = os.getpid(), []
    real = config_sums._block_table

    def counted(inst):
        if os.getpid() == parent:
            built.append(inst.w)
        return real(inst)

    monkeypatch.setattr(config_sums, "_block_table", counted)
    band = ["part1", "--g", "4", "--all-w", "--random", "1"]
    serial = _run(band + ["--jobs", "1"], tmp_path, capsys, "serial")
    assert built == [0, 1, 2] and pools.submits == []
    built.clear()
    assert _run(band + ["--jobs", "2"], tmp_path, capsys, "side-by-side") == serial
    assert built == [] and pools.submits == [1, 1, 1]
    code, records, _ = _run(["part1", "--g", "4", "--w", "2", "--random", "1", "--jobs", "2"],
                            tmp_path, capsys, "lone")
    assert built == [] and pools.submits == [1, 1, 1, 2]
    assert (code, records) == (serial[0], serial[1][2:])
    assert_no_child_left()


def _fault_at(g_w, fault):
    # the walk of entry (g, w) = g_w runs fault() first; every later entry
    # sleeps 30 s in its worker, so a run that waited for one would show
    real = config_sums._collapsed_partial

    def partial(inst, table, part=0, parts=1):
        if (inst.g, inst.w) == g_w:
            fault()
        elif (inst.g, inst.w) > g_w:
            time.sleep(30)
        return real(inst, table, part, parts)
    return partial


def _injected():
    raise ConsistencyError("injected at g = 3, w = 1")


@needs_fork
@pytest.mark.parametrize("fault, error", [
    (_injected, "error: injected at g = 3, w = 1\n"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "error: shard process "),
], ids=["shard-error", "killed-worker"])
def test_a_failure_with_a_later_entry_in_flight_stops_the_run(pools, monkeypatch, tmp_path,
                                                               capsys, fault, error):
    # entries (2,0), (3,0), (3,1), (4,0), ...: when (3,1) fails, (4,0) runs
    # beside it and must be killed, not awaited
    monkeypatch.setattr(config_sums, "_collapsed_partial", _fault_at((3, 1), fault))
    start = time.perf_counter()
    code, records, captured = _run(["sweep", "--g-max", "5", "--jobs", "2"], tmp_path, capsys,
                                   "failure")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert captured.err.startswith(error) and captured.err.count("\n") == 1
    assert _g_w(records) == [(2, 0, "asserted"), (3, 0, "asserted")]
    assert pools.open == 0 and pools.most_open == 2
    assert_no_child_left()


@needs_fork
def test_a_deadline_passed_mid_run_lets_running_entries_finish(pools, monkeypatch, tmp_path,
                                                               capsys):
    # the clock config_sums reads jumps an hour once (3,0) is collected, when
    # this process builds its result; (3,1) is running by then and finishes,
    # and no later entry starts
    real_result = config_sums.ConfigSumResult
    skew = [0.0]

    def result(inst, *fields):
        if (inst.g, inst.w) == (3, 0):
            skew[0] = 3600.0
        return real_result(inst, *fields)

    clock = SimpleNamespace(perf_counter=time.perf_counter,
                            monotonic=lambda: time.monotonic() + skew[0])
    monkeypatch.setattr(config_sums, "ConfigSumResult", result)
    monkeypatch.setattr(config_sums, "time", clock)
    code, records, captured = _run(["sweep", "--g-max", "5", "--jobs", "2",
                                    "--budget-seconds", "60"], tmp_path, capsys, "budget")
    assert code == 0
    assert "warning: 7 instances not attempted" in captured.err
    assert _g_w(records) == [(2, 0, "asserted"), (3, 0, "asserted"), (3, 1, "asserted")] + [
        (g, w, "not_attempted") for g in (4, 5) for w in range(g - 1)]
    assert all(r["verdict"] == "zero" for r in records[:3])
    assert pools.submits == [1] * 3 and pools.open == 0
    assert_no_child_left()


@needs_fork
def test_closing_the_run_early_kills_the_entries_in_flight(pools, monkeypatch):
    monkeypatch.setattr(config_sums, "_collapsed_partial", _fault_at((2, 0), lambda: None))
    entries = config_sums.run_plan(config_sums.sweep_plan(4), seed=0, jobs=2)
    start = time.perf_counter()
    first = next(entries)
    assert first.result.total == 0 and pools.open == 2
    entries.close()
    assert time.perf_counter() - start < 5
    assert pools.open == 0
    assert_no_child_left()
