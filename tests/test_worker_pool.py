"""The worker pool that ``run_monte_carlo`` keeps between studies.

Each case runs in a fresh interpreter with a timeout, so a pool that hangs
fails its test instead of stalling the suite, and no case sees a pool left
by another test. The scripts print one JSON object on stdout.
"""

import json
import multiprocessing
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rmtlkit

SRC = str(Path(rmtlkit.__file__).resolve().parents[1])

PRELUDE = """
import json, multiprocessing, os, signal, sys, threading, time
from rmtlkit import simulate
from rmtlkit.errors import NumericError

SCN = simulate.load_shipped_scenario("a_null")

def report(workers, seed=7, reps=24):
    return json.dumps(simulate.run_monte_carlo(SCN, reps=reps, seed=seed,
                                               workers=workers).to_dict())
"""

# Scripts that patch the engine before the pool exists rely on forked
# workers inheriting the patch.
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="workers are not forked on this platform")


needs_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                 reason="the workers' heap setting is glibc's")


def run_script(body: str, *args: str, timeout: float = 60.0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body), *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@needs_fork
def test_consecutive_studies_share_one_executor():
    out = run_script("""
        made = []

        class Counted(simulate.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                made.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        simulate.ProcessPoolExecutor = Counted
        first = report(2)
        # the workers were forked before this patch, so it does not reach them
        samples = simulate._samples
        simulate._samples = None
        second = report(2, seed=8)
        simulate._samples = samples
        print(json.dumps({"made": made, "first": first == report(1),
                          "second": second == report(1, seed=8)}))
    """)
    assert out == {"made": [2], "first": True, "second": True}


def test_a_new_worker_count_replaces_the_pool_after_shutting_it_down():
    out = run_script("""
        events = []

        class Logged(simulate.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                # threads and worker processes alive before this pool forks
                events.append(["make", max_workers, threading.active_count(),
                               len(multiprocessing.active_children())])
                self.size = max_workers
                super().__init__(max_workers=max_workers, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                events.append(["shutdown", self.size, wait])
                super().shutdown(wait=wait, **kwargs)

        simulate.ProcessPoolExecutor = Logged
        same = [report(w) == report(1) for w in (2, 2, 3, 3, 2)]
        print(json.dumps({"events": events, "same": same}))
    """)
    assert out["same"] == [True] * 5
    assert out["events"] == [
        ["make", 2, 1, 0], ["shutdown", 2, True],
        ["make", 3, 1, 0], ["shutdown", 3, True],
        ["make", 2, 1, 0],
    ]


@needs_fork
@pytest.mark.parametrize("failure", ["worker error", "interrupt"])
def test_a_failed_study_drops_its_unstarted_blocks(failure, tmp_path):
    # 8 replications make 8 one-replication blocks at 2 workers; the
    # blocks of seed 666 are slow and logged by their start, and the block
    # of rep 0 raises NumericError in a worker, or the parent is
    # interrupted while waiting
    out = run_script("""
        failure, log = sys.argv[1], sys.argv[2]
        samples = simulate._samples

        def logged(scn, start, stop, seed, bounds):
            if seed == 666:
                with open(log, "a") as f:
                    f.write(f"{start}\\n")
                if start == 0 and failure == "worker error":
                    raise NumericError("rep 0 failed")
                time.sleep(0.3)
            return samples(scn, start, stop, seed, bounds)

        def interrupt(*_):
            raise KeyboardInterrupt

        simulate._samples = logged
        expected = report(1)
        if failure == "interrupt":
            signal.signal(signal.SIGALRM, interrupt)
            signal.setitimer(signal.ITIMER_REAL, 0.2)
        try:
            report(2, seed=666, reps=8)
            raised = None
        except (NumericError, KeyboardInterrupt) as exc:
            raised = type(exc).__name__
        after = report(2)
        with open(log) as f:
            ran = sorted(int(line) for line in f)
        print(json.dumps({"raised": raised, "same": after == expected, "ran": ran}))
    """, failure, str(tmp_path / "ran.log"))
    assert out["raised"] == ("NumericError" if failure == "worker error"
                             else "KeyboardInterrupt")
    assert out["same"]
    # blocks already handed to a worker still run; the others are cancelled
    assert len(out["ran"]) < 8


def test_a_broken_pool_is_replaced():
    out = run_script("""
        expected = report(1)
        first = report(2)
        pool = simulate._pool[2]
        os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        second = report(2)
        print(json.dumps({"broken": bool(pool._broken), "replaced": simulate._pool[2] is not pool,
                          "same": [first == expected, second == expected]}))
    """)
    assert out == {"broken": True, "replaced": True, "same": [True, True]}


def test_threads_switching_worker_counts_share_the_pool_safely():
    # four threads each run studies at 2 and 3 workers (more than this
    # host's cores), so pools are replaced while other threads use them
    out = run_script("""
        sys.setswitchinterval(1e-5)
        expected = report(1, reps=12)
        results, errors = [], []

        def run(k):
            try:
                for i in range(8):
                    results.append(report(2 + (i + k) % 2, reps=12) == expected)
            except Exception as exc:
                errors.append(repr(exc))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(50)
        print(json.dumps({"alive": any(t.is_alive() for t in threads),
                          "errors": errors, "results": results}))
    """)
    assert out == {"alive": False, "errors": [], "results": [True] * 32}


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_a_forked_child_runs_its_own_pool():
    out = run_script("""
        parent = report(2)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=lambda: queue.put(report(2)))
        child.start()
        got = queue.get(timeout=50)
        child.join(50)
        print(json.dumps({"same": got == parent, "alive": child.is_alive(),
                          "exitcode": child.exitcode, "parent_again": report(2) == parent}))
        if child.is_alive():
            child.kill()
    """)
    assert out == {"same": True, "alive": False, "exitcode": 0, "parent_again": True}


def test_an_interpreter_with_a_pool_exits_and_leaves_no_process():
    out = run_script("""
        report(2)
        print(json.dumps([p.pid for p in multiprocessing.active_children()]))
    """)
    assert len(out) == 2
    for pid in out:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@needs_fork
@needs_glibc
@pytest.mark.parametrize("censoring", [0.3, None])
def test_workers_keep_their_heap_between_studies(censoring):
    # Each worker reads its own minor page faults: the barrier holds the
    # first probe until the second has reached the other worker. Without
    # the heap setting each worker faults 3000 or more pages per study,
    # as glibc trims the heap after a block and the next block regrows
    # it; uncensored, in a fresh process, so does a worker that pins the
    # trim threshold alone.
    out = run_script("""
        import dataclasses, resource
        target = json.loads(sys.argv[1])
        scn = SCN if target is None else dataclasses.replace(
            SCN, censoring=simulate.CensoringSpec(target=target))
        barrier = multiprocessing.Barrier(2)

        def probe(_):
            barrier.wait(30)
            return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        def faults():
            return dict(simulate._pool[2].map(probe, range(2)))

        simulate.observed_power_at_n(scn, 2000, reps=150, workers=2)
        before = faults()
        for seed in range(1, 11):
            simulate.observed_power_at_n(scn, 2000, reps=150, seed=seed, workers=2)
        after = faults()
        print(json.dumps([after[pid] - before[pid] for pid in before]))
    """, json.dumps(censoring))
    assert len(out) == 2
    assert all(faults < 1000 for faults in out), out


@needs_fork
@needs_glibc
def test_the_heap_setting_runs_once_in_each_worker_and_never_in_the_caller(tmp_path):
    # the library lookup is wrapped before the pool exists, so each
    # mallopt call logs its process, arguments and result
    out = run_script("""
        import ctypes
        log, real = sys.argv[1], ctypes.CDLL

        class Logged:
            def __init__(self, name):
                self.lib = real(name)

            @property
            def mallopt(self):
                call = self.lib.mallopt

                def logged(param, value):
                    call.argtypes, call.restype = logged.argtypes, logged.restype
                    result = call(param, value)
                    with open(log, "a") as f:
                        f.write(json.dumps([os.getpid(), param, value, result]) + "\\n")
                    return result
                return logged

        ctypes.CDLL = Logged
        same = [report(2) == report(1), report(2, seed=8) == report(1, seed=8)]
        with open(log) as f:
            calls = [json.loads(line) for line in f]
        print(json.dumps({"same": same, "calls": calls, "caller": os.getpid(),
                          "workers": sorted(p.pid for p in multiprocessing.active_children())}))
    """, str(tmp_path / "calls.log"))
    assert out["same"] == [True, True]
    assert sorted({pid for pid, *_ in out["calls"]}) == out["workers"]
    assert out["caller"] not in out["workers"]
    for worker in out["workers"]:
        assert [call[1:] for call in out["calls"] if call[0] == worker] == [
            [-3, 32 << 20, 1], [-1, 64 << 20, 1]]


@needs_fork
@pytest.mark.parametrize("failure", ["no library", "no mallopt"])
def test_without_mallopt_the_workers_give_the_same_report(failure, tmp_path):
    out = run_script("""
        import ctypes
        failure, log = sys.argv[1], sys.argv[2]

        def lookup(name):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\\n")
            if failure == "no library":
                raise OSError("no C library")
            return object()

        ctypes.CDLL = lookup
        parallel = report(2)
        with open(log) as f:
            pids = sorted(int(line) for line in f)
        print(json.dumps({"same": parallel == report(1), "pids": pids, "caller": os.getpid(),
                          "workers": sorted(p.pid for p in multiprocessing.active_children())}))
    """, failure, str(tmp_path / "lookups.log"))
    assert out["same"]
    assert out["pids"] == out["workers"]
    assert out["caller"] not in out["pids"]
