"""Run one workload of the KG ingest benchmark and print its result.

    python3 kgbench/run.py --workload kg-stream --seed 1 --seconds 5 --trace 0

The last line of standard output is one JSON object
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones (set-up time,
throughput, CPU per 1000 rows and peak memory, medians over the rounds
run); with ``--trace 1`` a warm-up job, a traced job and an untraced one
run, the metrics are the per-layer ones plus host calibration and the
tracing overhead against the untraced job, and the spans are written
under ``.kgbench/traces/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "joint_entity_and_relation_extraction_ray"
WORK = ROOT / ".kgbench"
sys.path.insert(0, str(ROOT))

from kgbench import host, procfs  # noqa: E402
from kgbench.session import ProcStat, Session, SetupRefused, become_subreaper, reap_children  # noqa: E402
from kgbench.trace import Tracer  # noqa: E402
from kgbench.workloads import WORKLOADS, Steps  # noqa: E402



def units(kind: str) -> dict[str, str]:
    """Metric name → unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# A run that is still going this long after it started is abandoned: the
# job in flight counts as failed and the session is stopped (within
# CLEANUP_LIMIT_S, then up to 10 s to end what is left), so the result
# line still comes out inside three minutes.
TIME_LIMIT_S = 160
CLEANUP_LIMIT_S = 6


class RunTimeout(BaseException):
    """Not an ``Exception``, so that no per-operation handler swallows it."""


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {TIME_LIMIT_S} s")


def run_round(wl, corpus, stat: ProcStat, tracer: Tracer | None, tag: str) -> dict:
    """One timed job on a fresh output directory, then its checks."""
    out = WORK / "out" / f"{wl.name}-{os.getpid()}-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    since = len(tracer.spans) if tracer is not None else 0
    try:
        stat.start()
        t0 = time.perf_counter()
        res = wl.job(corpus, out, Steps(tracer))
        wall = time.perf_counter() - t0
        usage = stat.stop()
        bad, stats = wl.check(corpus, out, res)
        layers = wl.layers(corpus, out, res, tracer, since) if tracer is not None else {}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"wall_s": wall, **usage, "bad": bad, "stats": stats, "layers": layers}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT_S)

    if not (ROOT / PKG / "__init__.py").is_file():
        print(f"error: the program package {PKG}/ is not next to kgbench/", file=sys.stderr)
        return 2
    proc_start = procfs.start_time(os.getpid())
    wl = WORKLOADS[args.workload]
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "rounds": []}
    stat = session = None
    tracer = Tracer(f"{wl.name}-seed{args.seed}-{os.getpid()}") if args.trace else None
    try:
        become_subreaper()
        t0 = time.perf_counter()
        stat = ProcStat()
        corpus = wl.prepare(WORK / "cache", args.seed)
        gen_s = time.perf_counter() - t0
        try:
            session = Session(ROOT)
            session.start()
            __import__(f"{PKG}.pipelines.run")
            if wl.warmup_job or args.trace:
                # one untimed job on part of the input, so that the timed
                # ones find their worker processes started and code loaded;
                # a traced run warms up on every workload, since it compares
                # the traced job with an untraced one and neither may be the
                # session's first. Only a warm-up an untraced run makes too
                # counts in session.warm_s, which should move with setup_s.
                t0 = time.perf_counter()
                out = WORK / "out" / f"{wl.name}-{os.getpid()}-warmup"
                try:
                    wl.job(corpus, out, Steps(None), warmup=True)
                finally:
                    shutil.rmtree(out, ignore_errors=True)
                if wl.warmup_job:
                    session.warm_s += time.perf_counter() - t0
        except SetupRefused as e:
            print(f"error: {e}", file=sys.stderr)
            result.update(attempted=1, failed=1)
            return 1
        except Exception:
            traceback.print_exc()
            result.update(attempted=1, failed=1)
            return 1
        setup_s = time.time() - proc_start - gen_s

        rounds, failures, probe_failures = [], [], []
        n_jobs = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            # a traced run times a traced job against the untraced job right
            # after it
            cycle = (("traced", tracer), ("after", None)) if args.trace else (("plain", None),)
            for tag, tr in cycle:
                n_jobs += 1
                result["attempted"] += wl.calls_per_job
                try:
                    r = run_round(wl, corpus, stat, tr, f"{n_jobs}-{tag}")
                except Exception:
                    traceback.print_exc()
                    result["failed"] += wl.calls_per_job
                except BaseException:  # time limit, SIGTERM, interrupt
                    result["failed"] += wl.calls_per_job
                    raise
                else:
                    r["tag"] = tag
                    rounds.append(r)
                    failures += r["bad"]
                for probe in wl.probes:
                    result["attempted"] += 1
                    try:
                        bad = probe()
                    except Exception:
                        bad = [traceback.format_exc()]
                    if bad:
                        result["failed"] += 1
                        probe_failures += bad
            # a traced run needs one cycle; an untraced one min_rounds jobs
            if time.perf_counter() >= deadline and (args.trace or n_jobs >= wl.min_rounds):
                break
        record["rounds"] = rounds
        for b in sorted(set(failures)):
            print(f"check failed: {b}", file=sys.stderr)
        for b in sorted(set(probe_failures)):
            print(f"operation failed: {b}", file=sys.stderr)
        result["correct"] = bool(rounds) and not failures

        if not args.trace:
            med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
            values = {
                "setup_s": setup_s,
                "rows_per_s": med([corpus.rows / r["wall_s"] for r in rounds]),
                "cpu_s_per_krow": med([r["cpu_s"] / (corpus.rows / 1000) for r in rounds]),
                "peak_mem_mb": med([r["peak_mb"] for r in rounds]),
            }
            result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units("end_to_end").items()}
        else:
            traced = [r for r in rounds if r["tag"] == "traced"]
            after = [r for r in rounds if r["tag"] == "after"]
            values = {
                "session.init_s": session.init_s,
                "session.warm_s": session.warm_s,
                **host.calibrate(),
            }
            if traced and after:
                values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                    r["wall_s"] for r in after
                )
                for k in traced[0]["layers"]:
                    values[k] = statistics.median(r["layers"][k] for r in traced)
            # layers this workload does not exercise read 0
            result["metrics"] = {k: {"value": values.get(k, 0), "unit": u} for k, u in units("per_layer").items()}
            tracer.write(WORK / "traces" / f"{tracer.trace_id}.json")
        record["setup_s"] = setup_s
        record["gen_s"] = gen_s
        return 0 if result["correct"] else 1
    except (Exception, RunTimeout):
        traceback.print_exc()
        result["failed"] = max(result["failed"], 1)
        result["attempted"] = max(result["attempted"], result["failed"])
        result["correct"] = False
        return 1
    finally:
        signal.alarm(0)
        # a SIGTERM now would cut the clean-up short and leave processes
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        # and a stop that hangs is cut off, so the result still comes out
        signal.alarm(CLEANUP_LIMIT_S)
        try:
            if stat is not None:
                stat.close()
            left = session.stop() if session is not None else reap_children()
        except BaseException:
            traceback.print_exc()
            left = reap_children()
        signal.alarm(0)
        if left:
            print(f"error: processes still running after the run: {left}", file=sys.stderr)
        runs = WORK / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        (runs / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(
            json.dumps({**record, "result": result}, default=str)
        )
        print(json.dumps(result), flush=True)
        if left:
            return 1  # noqa: B012


if __name__ == "__main__":
    sys.exit(main())
