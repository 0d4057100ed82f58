"""How `run_suite` spreads the fixtures over worker processes.

The outcomes must not depend on the number of workers, a worker that dies
must fail exactly the fixtures it took and did not report, and no worker may
outlive `run_suite` or the `reproduce` command.
"""

import io
import os
import select
import signal
import subprocess
import sys
import time

import pytest

import lefschetz_lab
import lefschetz_lab.reproduce as reproduce
from lefschetz_lab.cli import main
from lefschetz_lab.reproduce import Fixture, SuiteConfig, run_suite


def force_workers(monkeypatch, n):
    monkeypatch.setattr(reproduce, "_usable_cpus", lambda: n)


def without_millis(outcomes):
    return [o._replace(millis=0.0) for o in outcomes]


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_usable_cpus_is_one_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert reproduce._usable_cpus() == 1


@pytest.mark.parametrize("mode", ["probabilistic", "exact"])
def test_outcomes_do_not_depend_on_the_worker_count(monkeypatch, mode):
    def no_fork():
        raise AssertionError("one worker forks nothing")

    force_workers(monkeypatch, 1)
    with monkeypatch.context() as m:
        m.setattr(os, "fork", no_fork)
        serial = without_millis(run_suite(SuiteConfig(0, mode)))
    assert all(o.passed for o in serial)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    for n in (2, 3):
        force_workers(monkeypatch, n)
        assert without_millis(run_suite(SuiteConfig(0, mode))) == serial
    assert_no_children()
    if cpus is not None:  # the parent keeps to one CPU only while it drains the queue
        assert os.sched_getaffinity(0) == cpus


def signalled_fixtures(monkeypatch, count, in_child, in_parent):
    """`count` fixtures that run `in_child(calls, ping)` in a worker and
    `in_parent(calls, wait)` in the parent; `calls` counts the fixtures the
    process has run, `ping()` tells the parent and `wait(n)` waits for n pings."""
    parent = os.getpid()
    ping_r, ping_w = os.pipe()
    calls = [0]

    def ping():
        os.write(ping_w, b".")

    def wait(n):
        got = 0
        while got < n:
            ready, _, _ = select.select([ping_r], [], [], 60)
            assert ready, "no worker pinged"
            got += len(os.read(ping_r, n - got))

    def run(config):
        calls[0] += 1
        if os.getpid() != parent:
            return in_child(calls[0], ping)
        return in_parent(calls[0], wait)

    fixtures = [Fixture(f"signalled/{i}", 9, "signalled", run) for i in range(count)]
    monkeypatch.setattr(reproduce, "FIXTURES", fixtures)
    return ping_r, ping_w


@pytest.mark.parametrize("workers", [2, 3])
def test_a_dead_worker_fails_only_what_it_did_not_report(monkeypatch, workers):
    # each forked worker reports its first fixture and dies in its second; the
    # parent holds its first fixture until every other worker is dead
    def in_child(calls, ping):
        if calls == 1:
            return True, "reported by a worker"
        ping()
        os._exit(3)

    def in_parent(calls, wait):
        if calls == 1:
            wait(workers - 1)
        return True, "run by the parent"

    force_workers(monkeypatch, workers)
    fds = signalled_fixtures(monkeypatch, 2 * workers + 2, in_child, in_parent)
    try:
        outcomes = run_suite(SuiteConfig())
    finally:
        for fd in fds:
            os.close(fd)
    details = [o.detail for o in outcomes]
    assert details.count("reported by a worker") == workers - 1
    failed = [o for o in outcomes if not o.passed]
    assert len(failed) == workers - 1
    assert all("exit status 3" in o.detail for o in failed)
    assert len(outcomes) - details.count("run by the parent") == 2 * (workers - 1)
    assert_no_children()


def test_an_interrupt_ends_every_worker(monkeypatch):
    def in_child(calls, ping):
        ping()
        time.sleep(60)
        return True, "too late"

    def in_parent(calls, wait):
        wait(1)
        raise KeyboardInterrupt

    force_workers(monkeypatch, 2)
    fds = signalled_fixtures(monkeypatch, 4, in_child, in_parent)
    start = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_suite(SuiteConfig())
    finally:
        for fd in fds:
            os.close(fd)
    assert time.monotonic() - start < 30
    assert_no_children()


def test_the_table_is_printed_once(capfd, monkeypatch):
    # a line left in a buffered stdout at the fork is written once: the
    # workers never flush the buffer they copy from the parent
    stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w"), 1 << 16))
    monkeypatch.setattr(sys, "stdout", stdout)
    force_workers(monkeypatch, 2)
    try:
        print("before the suite")
        assert main(["reproduce"]) == 0
    finally:
        stdout.close()
    out, err = capfd.readouterr()
    assert out.count("before the suite") == 1
    assert out.count("ikeda/full") == 1
    assert out.count("40/40 fixtures passed") == 1
    assert err == ""
    assert_no_children()


def test_closed_stdout_leaves_no_worker():
    """`reproduce --mode exact | head -1` with a reader that is already gone:
    exit 1, nothing on stderr, and nothing left in the process group."""
    src = os.path.dirname(os.path.dirname(lefschetz_lab.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "lefschetz_lab", "reproduce", "--mode", "exact"],
            stdout=write, stderr=subprocess.PIPE, env=env, start_new_session=True,
        )
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
