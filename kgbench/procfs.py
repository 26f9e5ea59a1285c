"""Process facts read from Linux ``/proc``: start times, descendants,
CPU times and proportional set sizes. Read-only."""

from __future__ import annotations

import os
from pathlib import Path

CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (field 3 on)."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2 :].split()


def boot_time() -> float:
    for line in Path("/proc/stat").read_text().splitlines():
        if line.startswith("btime "):
            return float(line.split()[1])
    raise RuntimeError("no btime in /proc/stat")


def start_time(pid: int) -> float:
    """Wall-clock start of ``pid`` in epoch seconds (clock-tick resolution)."""
    f = _stat(pid)
    if f is None:
        raise ProcessLookupError(pid)
    return boot_time() + int(f[19]) / CLK_TCK


def descendants(root: int) -> list[int]:
    """Every live descendant of ``root`` (not ``root`` itself)."""
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            f = _stat(int(d))
            if f is not None:
                children.setdefault(int(f[1]), []).append(int(d))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    f = _stat(pid)
    return f is not None and f[0] != "Z"


def cpu_and_start(pid: int) -> tuple[float, int] | None:
    """(user + system CPU seconds, start tick) of ``pid``, or None if gone.
    A zombie still reports its final times. The start tick tells a reused
    pid from the process sampled before."""
    f = _stat(pid)
    if f is None:
        return None
    return (int(f[11]) + int(f[12])) / CLK_TCK, int(f[19])


def pss_bytes(pid: int) -> int:
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1]) * 1024
    return 0
