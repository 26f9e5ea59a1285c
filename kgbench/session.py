"""The Ray session one benchmark run owns, and the measurement of the
processes in it.

A run starts exactly one local session sized at min(4, CPUs in the
affinity mask) logical CPUs with a capped object store, makes the package
importable in every worker through ``PYTHONPATH`` whatever the working
directory, and on the way out stops the session, ends and waits for every
process this run started that is still alive, and removes the session's
directory.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import procfs


MAX_CPUS = 4
MIN_CPUS = 3  # the scorer pool leaves a smaller session no CPU for its feeders
OBJECT_STORE_BYTES = 1_000_000_000


class SetupRefused(RuntimeError):
    """The host cannot run the workload; the message says why."""


def session_cpus() -> int:
    n = min(MAX_CPUS, len(os.sched_getaffinity(0)))
    if n < MIN_CPUS:
        raise SetupRefused(
            f"only {n} CPU(s) in the affinity mask; a Ray session needs at least "
            f"{MIN_CPUS} logical CPUs or the scorer actor pool holds every CPU and "
            "the job hangs without an error"
        )
    return n


class _Warm:
    """Imports what the jobs' workers import; run as tasks and as an actor
    pool so that worker processes, their imports and Ray Data's own
    per-session actors exist before the first job."""

    def __init__(self):
        import polars  # noqa: F401
        import pyarrow  # noqa: F401

        import joint_entity_and_relation_extraction_ray.pipelines.run  # noqa: F401
        import joint_entity_and_relation_extraction_ray.stages.dedup  # noqa: F401
        import joint_entity_and_relation_extraction_ray.stages.fused  # noqa: F401

    def __call__(self, batch):
        return batch


def _warm_task(batch):
    _Warm()
    return batch


class Session:
    """One Ray session with timings of its start (``init_s``) and of the
    worker warm-up (``warm_s``)."""

    def __init__(self, repo_root: Path):
        self.repo_root = repo_root
        self.num_cpus = session_cpus()
        self.init_s = self.warm_s = 0.0
        self.temp_dir: str | None = None

    def start(self) -> None:
        import ray

        path = os.pathsep.join(
            p for p in (str(self.repo_root), os.environ.get("PYTHONPATH")) if p
        )
        os.environ["PYTHONPATH"] = path
        env = {"PYTHONPATH": path, "POLARS_MAX_THREADS": "1"}
        # Ray's sockets live under its session directory and an AF_UNIX
        # path may not exceed 107 bytes, which a directory inside a
        # checkout of any depth cannot promise; a fresh directory in the
        # system temp dir always can, and is removed in stop()
        self.temp_dir = tempfile.mkdtemp(prefix="kgb-")
        t0 = time.perf_counter()
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            runtime_env={"env_vars": env},
            _temp_dir=self.temp_dir,
        )
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        self.init_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        ds = ray.data.range(64, override_num_blocks=16).map_batches(_warm_task, batch_size=4)
        ds.map_batches(_Warm, concurrency=self.num_cpus - 2, batch_size=4).materialize()
        self.warm_s = time.perf_counter() - t0

    def stop(self) -> list[int]:
        """Returns the pids that could not be ended (see ``reap_children``)."""
        import ray

        try:
            if ray.is_initialized():
                ray.shutdown()
        finally:
            left = reap_children()
            if self.temp_dir is not None:
                shutil.rmtree(self.temp_dir, ignore_errors=True)
        return left


PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Make this process the one its orphaned descendants are re-parented
    to. ``ray.shutdown()`` ends the raylet before the workers it started
    have exited; without this they would pass to init, out of reach of
    ``reap_children``, and could outlive the run."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


def reap_children(timeout: float = 10.0) -> list[int]:
    """End every descendant of this process and wait until each has ended
    and been reaped: SIGTERM first, SIGKILL from half the timeout on. The
    tree is read afresh on every pass, since orphans keep arriving as this
    process's children while their parents end. Returns the pids still
    there at the timeout (none, normally)."""
    start = time.monotonic()
    sent: dict[int, int] = {}
    while True:
        _reap_zombies()
        pids = procfs.descendants(os.getpid())
        elapsed = time.monotonic() - start
        if not pids or elapsed >= timeout:
            return pids
        sig = signal.SIGKILL if elapsed >= timeout / 2 else signal.SIGTERM
        for pid in pids:
            if sent.get(pid) != sig and procfs.alive(pid):
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
                sent[pid] = sig
        time.sleep(0.05)


def _reap_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


class ProcStat:
    """Client of ``procstat.py`` watching this process and its descendants."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("procstat.py")), str(os.getpid())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def _cmd(self, cmd: str) -> str:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def start(self) -> None:
        if self._cmd("start").strip() != "ok":
            raise RuntimeError("procstat sampler did not start")

    def stop(self) -> dict:
        return json.loads(self._cmd("stop"))

    def close(self) -> None:
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
