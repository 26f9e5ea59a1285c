"""CPU time and peak memory of a process tree, sampled from a separate
process so that the sampling itself neither holds the measured
process's interpreter lock nor counts as its CPU time.

Run as ``python3 procstat.py <root_pid>``; it reads commands from stdin,
one per line:

- ``start``: forget earlier samples and begin a measurement;
- ``stop``: end it and print one JSON line
  ``{"cpu_s": ..., "peak_mb": ..., "samples": ...}``;
- ``quit`` (or end of input): exit.

CPU is user + system time summed over the root and every descendant
except this sampler, read every ``CPU_INTERVAL_S``. The children's
cumulative times (``cutime``/``cstime``) cannot stand in for processes
that end: the raylet ignores SIGCHLD, so the kernel reaps the Ray workers
it ends without adding their times to any parent. A process that ends
during a measurement therefore keeps the last value sampled for it (a
zombie's sample is its final one); what it used after that sample, at
most one interval's worth, is not counted. Every ``SCAN_EVERY`` CPU
samples the sampler looks for new descendants and reads memory: the sum
of proportional set sizes (PSS), so pages shared by several processes —
the Ray object store above all — are counted once in total. A process
found late still reports all the CPU it used before.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import procfs


CPU_INTERVAL_S = 0.1
SCAN_EVERY = 5


class Tree:
    def __init__(self, root_pid: int):
        self.root = root_pid
        self.me = os.getpid()
        self.lock = threading.Lock()
        self.cpu0: dict[tuple[int, int], float] = {}
        self.cpu: dict[tuple[int, int], float] = {}
        self.pids: list[int] = []
        self.peak = 0
        self.samples = 0

    def sample(self, scan: bool) -> None:
        """Read the CPU of the known processes; with ``scan``, find the
        current ones first and read their memory too."""
        if scan:
            self.pids = [p for p in [self.root] + procfs.descendants(self.root) if p != self.me]
        cpu, total = {}, 0
        for pid in self.pids:
            got = procfs.cpu_and_start(pid)
            if got is None:
                continue
            cpu[(pid, got[1])] = got[0]
            if scan:
                total += procfs.pss_bytes(pid)
        with self.lock:
            self.cpu.update(cpu)
            if scan:
                self.peak = max(self.peak, total)
                self.samples += 1

    def start(self) -> None:
        with self.lock:
            self.cpu, self.peak, self.samples = {}, 0, 0
        self.sample(scan=True)
        with self.lock:
            self.cpu0 = dict(self.cpu)

    def stop(self) -> dict:
        self.sample(scan=True)
        with self.lock:
            used = sum(v - self.cpu0.get(k, 0.0) for k, v in self.cpu.items())
            return {"cpu_s": used, "peak_mb": self.peak / 1e6, "samples": self.samples}


def main() -> None:
    tree = Tree(int(sys.argv[1]))
    running = threading.Event()
    done = threading.Event()

    def loop():
        tick = 0
        while not done.wait(CPU_INTERVAL_S):
            if running.is_set():
                tick += 1
                tree.sample(scan=tick % SCAN_EVERY == 0)

    th = threading.Thread(target=loop, daemon=True)
    th.start()
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "start":
            tree.start()
            running.set()
            print("ok", flush=True)
        elif cmd == "stop":
            running.clear()
            print(json.dumps(tree.stop()), flush=True)
        elif cmd == "quit":
            break
    done.set()
    th.join(timeout=5)


if __name__ == "__main__":
    main()
