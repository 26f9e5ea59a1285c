"""Per-stage checkpointing with lineage fingerprints and metrics
(SURVEY.md §4.4; BASELINE.json north_rule "resumable from checkpoint with
per-partition lineage + metrics").

Layout under ``out_root``::

    <stage>/part=<k>/*.parquet     # partitioned write (run_partitioned, or
                                   # run() when the schema has `part`)
    <stage>/*.parquet              # plain write otherwise
    <stage>.manifest.json          # {fingerprint, rows, files: {path: rows},
                                   #  build_s, write_s, wall_s, schema, params}
    <stage>.manifests/<k>.json     # per-PARTITION manifest (run_partitioned):
                                   # {fingerprint, rows, files, build_s,
                                   #  write_s, wall_s, schema}
    metrics.jsonl                  # append-only per-stage(+partition) metrics
                                   # (wall_s = build_s + write_s)

Lineage = the fingerprint chain: a stage's fingerprint hashes its params +
input CONTENT digests (:func:`parquet_sig`) + code version + every
upstream fingerprint. A stage is *done* iff its manifest exists AND its
fingerprint matches the recomputed expectation — so editing an upstream
stage (or its params, or any input file's content) transitively
invalidates downstream checkpoints, while a rerun over unchanged inputs
reads parquet instead of recomputing (tested in tests/test_checkpoint.py).

``run_partitioned`` refines this to PARTITION granularity: shard k gets
its own fingerprint (its input shard's digests chain in) and its own
atomically-written ``part=<k>`` directory + manifest, so a mid-stage kill
or a single changed input shard redoes only the affected partitions — at
10^12-turn scale a stage is hours and stage-granularity resume would lose
all of it.

Writes are atomic: data lands in ``<stage>.tmp-*/`` and is renamed into
place before the manifest is written; a killed job can never leave a
half-written stage or partition that looks done (the manifest is written
last).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path
from typing import Callable

import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray.data

CODE_VERSION = "1"  # bump to invalidate every checkpoint


def fingerprint(stage: str, params: dict, deps: list[str]) -> str:
    payload = json.dumps(
        {"stage": stage, "params": params, "deps": sorted(deps),
         "code": CODE_VERSION},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def parquet_sig(path: str | Path) -> str:
    """CONTENT digest of a parquet file from its footer metadata — row
    counts, schema, per-column chunk sizes and min/max statistics. An edit
    that keeps row counts constant still changes column statistics /
    compressed sizes, so it invalidates lineage (a file-listing+row-count
    signature alone would miss it). O(footer) — never reads data pages.
    """
    md = pq.ParquetFile(path).metadata
    h = hashlib.sha256()
    h.update(f"{md.num_rows}:{md.num_row_groups}".encode())
    # str(schema) leads with the object repr (memory address) — skip it
    h.update("\n".join(str(md.schema).splitlines()[1:]).encode())
    for i in range(md.num_row_groups):
        rg = md.row_group(i)
        for j in range(rg.num_columns):
            col = rg.column(j)
            h.update(
                f"{col.total_compressed_size}:{col.total_uncompressed_size}".encode()
            )
            st = col.statistics
            if st is not None:
                h.update(
                    f"{st.null_count}:{st.min!r}:{st.max!r}".encode(
                        "utf-8", "backslashreplace"
                    )
                )
    return h.hexdigest()[:16]


def write_parquet(
    ds: ray.data.Dataset, path: str, schema, *, partition_cols=None
) -> None:
    """``ds.write_parquet(path)``, and where that wrote no file, one 0-row
    ``empty.parquet`` of ``schema`` less ``partition_cols`` (the columns a
    reader finds in the data files): Ray Data writes nothing for 0 rows
    (and reports no schema for an empty mapped Dataset), so without it an
    empty output would not read back. ``path`` is a local path or a
    filesystem URI."""
    ds.write_parquet(path, partition_cols=partition_cols)
    fs, root = pafs.FileSystem.from_uri(
        path if "://" in path else os.path.abspath(path)
    )
    found = fs.get_file_info(
        pafs.FileSelector(root, recursive=True, allow_not_found=True)
    )
    if any(f.is_file and f.path.endswith(".parquet") for f in found):
        return
    if schema is None:
        raise ValueError(
            f"{path}: the stage yielded no rows and its schema is unknown "
            "(declare the stage's output_schema)"
        )
    fs.create_dir(root)
    drop = set(partition_cols or ())
    empty = pa.schema([(f.name, f.type) for f in schema if f.name not in drop])
    pq.write_table(empty.empty_table(), f"{root}/empty.parquet", filesystem=fs)


def _write_stage(
    ds: ray.data.Dataset, tmp: Path, declared, *, partition: bool = False
) -> tuple[dict[str, int], object]:
    """Write ``ds`` to the fresh directory ``tmp`` → ({relative file:
    rows}, schema); with ``partition``, a ``part`` column becomes one
    ``part=<k>`` directory per value.

    ``declared`` (the stage's declared output schema) stands in for the
    Dataset's own schema when that is not known without executing the
    stage: ``ds.schema()`` of a lazy Dataset runs its first block, and an
    actor-pool stage spins its pool up for it. A stage that yields no rows
    still leaves one 0-row file of that schema (:func:`write_parquet`), so
    the checkpoint reads back, and its manifest lets a resubmission skip
    the stage, like any other."""
    schema = ds.schema(fetch_if_missing=False) or declared or ds.schema()
    part_cols = (
        ["part"] if partition and schema and "part" in schema.names else None
    )
    if tmp.exists():
        shutil.rmtree(tmp)
    write_parquet(ds, str(tmp), schema, partition_cols=part_cols)
    files = {
        str(f.relative_to(tmp)): pq.ParquetFile(f).metadata.num_rows
        for f in sorted(tmp.rglob("*.parquet"))
    }
    return files, schema


def _walls(t0: float, t1: float, t2: float) -> dict[str, float]:
    """A stage's timings from ``perf_counter`` reads before its build,
    after its build and after its write: ``build()`` is eager for every
    stage with a shuffle or a count, so the write alone misses that
    work; ``wall_s`` is their sum."""
    build, write = round(t1 - t0, 3), round(t2 - t1, 3)
    return {
        "build_s": build,
        "write_s": write,
        "wall_s": round(build + write, 3),
    }


def _schema_dict(schema) -> dict[str, str]:
    return dict(zip(schema.names, map(str, schema.types))) if schema else {}


class Checkpointer:
    """Runs stages with skip-if-done semantics over a shared ``out_root``."""

    def __init__(self, out_root: str | Path):
        self.root = Path(out_root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fingerprints: dict[str, str] = {}

    # -- manifest helpers ---------------------------------------------------

    def _manifest_path(self, stage: str) -> Path:
        return self.root / f"{stage}.manifest.json"

    def manifest(self, stage: str) -> dict | None:
        p = self._manifest_path(stage)
        if not p.exists():
            return None
        try:
            return json.loads(p.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def is_done(self, stage: str, fp: str) -> bool:
        m = self.manifest(stage)
        return bool(m) and m.get("fingerprint") == fp

    # -- the stage runner ---------------------------------------------------

    def run(
        self,
        stage: str,
        build: Callable[[], ray.data.Dataset],
        *,
        params: dict | None = None,
        deps: list[str] | None = None,
        schema: pa.Schema | None = None,
    ) -> ray.data.Dataset:
        """Return the stage's Dataset, computing + persisting it only if no
        valid checkpoint exists. ``deps`` are upstream STAGE NAMES already
        run through this checkpointer (their fingerprints chain in).
        ``schema`` is the stage's declared output schema (see
        :func:`_write_stage`)."""
        params = params or {}
        dep_fps = [self.fingerprints[d] for d in (deps or [])]
        fp = fingerprint(stage, params, dep_fps)
        self.fingerprints[stage] = fp
        out_dir = self.root / stage

        if self.is_done(stage, fp):
            return ray.data.read_parquet(str(out_dir))

        t0 = time.perf_counter()
        ds = build()
        t1 = time.perf_counter()
        tmp = self.root / f"{stage}.tmp-{os.getpid()}"
        files, schema = _write_stage(ds, tmp, schema, partition=True)
        walls = _walls(t0, t1, time.perf_counter())
        rows = sum(files.values())

        if out_dir.exists():
            shutil.rmtree(out_dir)
        tmp.rename(out_dir)
        self._manifest_path(stage).write_text(
            json.dumps(
                {
                    "fingerprint": fp,
                    "rows": rows,
                    "files": files,
                    **walls,
                    "schema": _schema_dict(schema),
                    "params": params,
                    "deps": {d: self.fingerprints[d] for d in (deps or [])},
                },
                indent=1,
            )
        )
        with open(self.root / "metrics.jsonl", "a") as fh:
            fh.write(
                json.dumps(
                    {"stage": stage, "rows_out": rows, **walls,
                     "fingerprint": fp, "n_files": len(files)}
                )
                + "\n"
            )
        return ray.data.read_parquet(str(out_dir))

    # -- partition-level resume (SURVEY.md §4.4) ----------------------------

    def _part_manifest_dir(self, stage: str) -> Path:
        return self.root / f"{stage}.manifests"

    def part_is_done(self, stage: str, k: int, fp: str) -> bool:
        mp = self._part_manifest_dir(stage) / f"{k}.json"
        if not mp.exists():
            return False
        try:
            m = json.loads(mp.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        return (
            m.get("fingerprint") == fp
            and (self.root / stage / f"part={k}").exists()
        )

    def run_partitioned(
        self,
        stage: str,
        build_part: Callable[[int], ray.data.Dataset],
        *,
        num_parts: int,
        params: dict | None = None,
        part_params: Callable[[int], dict] | None = None,
        deps: list[str] | None = None,
        schema: pa.Schema | None = None,
    ) -> ray.data.Dataset:
        """Partition-level skip-if-done: ``build_part(k)`` computes shard k
        of the stage; each shard writes atomically to ``part=<k>/`` with
        its own manifest, so a killed job redoes ONLY partitions whose
        manifest is missing or stale — not the whole stage (SURVEY §4.4).

        Each partition fingerprints ``params`` + its OWN
        ``part_params(k)`` (run.py passes that shard's input-file content
        digests) + upstream fingerprints — so an incremental rerun after
        one input shard changed recomputes exactly that partition, while
        the stage-level fingerprint (hash of all partition fingerprints)
        still invalidates downstream stages. Re-sharding or upstream edits
        change every partition fingerprint at once. ``schema`` as in
        :meth:`run`."""
        params = params or {}
        dep_fps = [self.fingerprints[d] for d in (deps or [])]
        base = {**params, "num_parts": num_parts}
        part_fps = [
            fingerprint(
                f"{stage}[{k}]",
                {**base, **(part_params(k) if part_params else {})},
                dep_fps,
            )
            for k in range(num_parts)
        ]
        fp = fingerprint(stage, {"parts": part_fps}, [])
        self.fingerprints[stage] = fp
        out_dir = self.root / stage
        mdir = self._part_manifest_dir(stage)
        mdir.mkdir(parents=True, exist_ok=True)

        todo = [
            k
            for k in range(num_parts)
            if not self.part_is_done(stage, k, part_fps[k])
        ]
        for k in todo:
            t0 = time.perf_counter()
            ds = build_part(k)
            t1 = time.perf_counter()
            tmp = self.root / f"{stage}.tmp-part{k}-{os.getpid()}"
            files, part_schema = _write_stage(ds, tmp, schema)
            walls = _walls(t0, t1, time.perf_counter())
            dest = out_dir / f"part={k}"
            if dest.exists():
                shutil.rmtree(dest)
            out_dir.mkdir(parents=True, exist_ok=True)
            tmp.rename(dest)
            (mdir / f"{k}.json").write_text(
                json.dumps(
                    {
                        "fingerprint": part_fps[k],
                        "partition": k,
                        "rows": sum(files.values()),
                        "files": files,
                        **walls,
                        "schema": _schema_dict(part_schema),
                    },
                    indent=1,
                )
            )
            with open(self.root / "metrics.jsonl", "a") as fh:
                fh.write(
                    json.dumps(
                        {
                            "stage": stage,
                            "partition": k,
                            "rows_out": sum(files.values()),
                            **walls,
                            "fingerprint": part_fps[k],
                        }
                    )
                    + "\n"
                )

        # roll partition manifests up into the stage-level manifest
        part_manifests = [
            json.loads((mdir / f"{k}.json").read_text())
            for k in range(num_parts)
        ]
        rows = sum(m["rows"] for m in part_manifests)
        stage_schema = part_manifests[0]["schema"] if part_manifests else {}
        self._manifest_path(stage).write_text(
            json.dumps(
                {
                    "fingerprint": fp,
                    "rows": rows,
                    "num_parts": num_parts,
                    **{
                        t: round(sum(m.get(t, 0.0) for m in part_manifests), 3)
                        for t in ("build_s", "write_s", "wall_s")
                    },
                    "schema": stage_schema,
                    "params": params,
                    "deps": {d: self.fingerprints[d] for d in (deps or [])},
                },
                indent=1,
            )
        )
        # the part=<k> directories are the shard layout, not a column:
        # without partitioning the schema comes from the file footers,
        # known without running anything
        return ray.data.read_parquet(str(out_dir), partitioning=None)


# -- iterative-algorithm state checkpoints ----------------------------------
#
# Per-stage lineage (above) resumes a PIPELINE between stages; iterative
# algorithms (PageRank, HITS, CC, HyperBall) also need resume WITHIN a
# stage — a 50-iteration rank vector over 10^10 nodes should not restart
# at iteration 0 because a node died at iteration 47. The state is one
# (small, per-node) dataset per iteration, so the checkpoint is a plain
# parquet snapshot + a manifest recording (iteration, fingerprint); the
# fingerprint covers the algorithm's PARAMETERS (the caller scopes the
# directory to the input — edge datasets have no cheap content digest).


def save_iteration(
    root: str | Path,
    stage: str,
    it: int,
    ds: "ray.data.Dataset",
    fp: str,
) -> None:
    """Atomically snapshot iteration ``it``'s state dataset: parquet to a
    tmp dir, rename into place, then manifest last — a kill at any point
    leaves either the previous valid checkpoint or this one."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    tmp = root / f".tmp-{stage}-iter{it}"
    if tmp.exists():
        shutil.rmtree(tmp)
    ds.write_parquet(str(tmp))
    final = root / f"{stage}-iter={it}"
    if final.exists():
        shutil.rmtree(final)
    tmp.rename(final)
    (root / f"{stage}.iter.manifest.json").write_text(
        json.dumps(
            {
                "stage": stage,
                "iter": it,
                "fingerprint": fp,
                "path": str(final),
                "ts": time.time(),
            }
        )
    )


def latest_iteration(
    root: str | Path, stage: str, fp: str
) -> tuple[int, str] | None:
    """(iteration, snapshot path) of the newest valid checkpoint whose
    fingerprint matches, else None (also None on a torn/garbled manifest
    or a manifest pointing at a missing snapshot — resume never trusts a
    partial write)."""
    man = Path(root) / f"{stage}.iter.manifest.json"
    if not man.exists():
        return None
    try:
        m = json.loads(man.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if m.get("fingerprint") != fp:
        return None
    path = m.get("path", "")
    if not path or not Path(path).exists():
        return None
    return int(m["iter"]), path


def _swap_partition(base: Path, k: int, tmp: Path) -> None:
    """Crash-safe ``part=<k>`` directory swap: ``tmp`` (fully written)
    replaces the live partition via a journaled two-rename. POSIX has no
    atomic directory exchange, so a crash CAN land between the renames —
    the ``.part=<k>.swap.json`` intent marker (written after ``tmp`` is
    complete, removed after the swap commits) lets
    :func:`recover_partition_swaps` roll any interrupted swap forward,
    and readers fail loudly instead of silently seeing a missing
    partition (ADVICE r3).

    A concurrent READER that lists during the instant between the two
    renames may roll the swap forward itself (it sees the marker and a
    missing partition); the second rename therefore tolerates losing
    that race — if ``tmp`` is gone but ``part_dir`` exists, the reader
    converged the exact state this function was about to create
    (ADVICE r4 high)."""
    import uuid

    part_dir = base / f"part={k}"
    trash = base / f".part={k}.trash-{uuid.uuid4().hex[:8]}"
    marker = base / f".part={k}.swap.json"
    # marker lands atomically (tmp write + replace): a torn marker would
    # otherwise crash every future recovery attempt (review r4)
    marker_tmp = base / f".part={k}.swap.json.wip-{uuid.uuid4().hex[:8]}"
    marker_tmp.write_text(
        json.dumps(
            {"part": part_dir.name, "tmp": tmp.name, "trash": trash.name}
        )
    )
    os.replace(marker_tmp, marker)
    if part_dir.exists():
        os.rename(part_dir, trash)
    try:
        os.rename(tmp, part_dir)
    except OSError:
        # a racing reader's roll-forward recovery moved tmp into place
        # first (ADVICE r4 high) — converged if the partition is live
        if not part_dir.exists():
            raise
    shutil.rmtree(trash, ignore_errors=True)
    marker.unlink(missing_ok=True)


def recover_partition_swaps(
    base_dir: str | Path, *, clean_orphans: bool = False
) -> list[str]:
    """Complete any partition swap a crash interrupted; returns the
    names of markers it resolved.

    Two caller classes (review r4):

    - READERS (the zone-map lister) call with ``clean_orphans=False``:
      they only roll forward MARKED swaps whose live partition is
      MISSING — a marker beside a LIVE partition is (from a reader's
      view) indistinguishable from a healthy writer mid-swap, so the
      reader must not touch its tmp/trash/marker at all: deleting the
      staged tmp there destroys the writer's fully-built new data
      (ADVICE r4 high). Readers also never touch unmarked hidden dirs,
      which may be a CONCURRENT writer's in-progress staging. All
      renames/unlinks tolerate losing a race to another recoverer (the
      other side converged the state first).
    - WRITERS (compact/upsert, documented single-writer per table) call
      with ``clean_orphans=True`` and additionally clean unmarked
      debris: a ``.tmp-*`` with no marker is an UNCOMMITTED build (the
      marker is written only after tmp completes) and is safely
      dropped whether or not the live partition exists; a ``.trash-*``
      with no marker beside a LIVE partition is a committed swap's
      leftover (dropped); a ``.trash-*`` with no marker and NO live
      partition cannot arise from this protocol (trash exists only
      while the marker does) — raise rather than guess.

    Marker rules: the marker is written atomically AFTER tmp completes,
    so a missing live partition rolls FORWARD to tmp (or back to trash
    if tmp is already gone). An unparseable marker (torn write despite
    os.replace — e.g. power loss reordering) is resolved best-effort by
    globbing the partition's tmp/trash dirs."""
    base = Path(base_dir)
    resolved: list[str] = []
    for marker in sorted(base.glob(".part=*.swap.json")):
        try:
            text = marker.read_text()
        except FileNotFoundError:  # lost the race to another recoverer
            continue
        pname = marker.name[1:].rsplit(".swap.json", 1)[0]
        try:
            info = json.loads(text)
            part = base / info["part"]
            tmps = [base / info["tmp"]]
            trashes = [base / info["trash"]]
        except (ValueError, KeyError):
            part = base / pname
            tmps = sorted(base.glob(f".{pname}.tmp-*"))
            trashes = sorted(base.glob(f".{pname}.trash-*"))
        if part.exists():
            if not clean_orphans:
                # READER: marker + live partition is exactly what a
                # healthy writer mid-swap looks like — touching the
                # staged tmp/trash/marker here would delete the
                # writer's new data and strand its second rename
                # (ADVICE r4 high). Leave ALL cleanup to the
                # single-writer clean_orphans path.
                continue
            # WRITER (single-writer contract — no concurrent swap can
            # be in flight): marker beside a live partition is a
            # committed swap that crashed before cleanup.
            for d in tmps + trashes:
                shutil.rmtree(d, ignore_errors=True)
            marker.unlink(missing_ok=True)
            resolved.append(marker.name)
            continue
        # live partition MISSING: roll the swap forward (prefer the new
        # tmp data; fall back to the trash copy if tmp vanished)
        src = next(
            (d for d in tmps if d.exists()),
            next((d for d in trashes if d.exists()), None),
        )
        if src is None:
            if part.exists():
                # a racing writer/recoverer committed between our two
                # checks — it owns the cleanup
                continue
            raise RuntimeError(
                f"unrecoverable partition swap journal {marker}:"
                f" {part.name} missing and neither its tmp nor "
                "trash survives"
            )
        try:
            os.rename(src, part)
        except OSError:
            # lost the race: a concurrent recoverer/writer moved a copy
            # into place first (src gone, or part now occupied)
            if not part.exists():
                raise
        # we converged a crashed (or raced) swap ourselves — the
        # marker's own debris is now committed-swap leftovers; a racing
        # writer tolerates this cleanup (see _swap_partition)
        for d in tmps + trashes:
            shutil.rmtree(d, ignore_errors=True)
        marker.unlink(missing_ok=True)
        resolved.append(marker.name)
    if clean_orphans:
        for orphan in sorted(base.glob(".part=*.tmp-*")):
            # marker-less tmp = uncommitted build — never the only copy
            shutil.rmtree(orphan, ignore_errors=True)
        for orphan in sorted(base.glob(".part=*.trash-*")):
            live = base / orphan.name.lstrip(".").split(".trash-")[0]
            if live.exists():
                shutil.rmtree(orphan, ignore_errors=True)
            else:
                raise RuntimeError(
                    f"{orphan} holds the only copy of {live.name} (no "
                    "swap journal remains) — refusing to guess; restore "
                    "the directory manually"
                )
    return resolved


def upsert_partitioned(
    base_dir: str | Path,
    updates: ray.data.Dataset,
    *,
    key: str,
    order_col: str,
    num_parts: int = 16,
) -> dict:
    """MERGE INTO for a hash-partitioned parquet table: apply an update
    batch with keep-latest-per-key semantics, REWRITING ONLY the
    ``part=<k>`` directories the batch touches — the incremental-storage
    companion to the incremental-compute ops (kg_edges_incremental,
    dedup_incremental). A daily KG refresh that touches 3 of 4096
    partitions rewrites 3 directories, not the table.

    Layout contract: ``base_dir/part=<k>/*.parquet`` with
    ``k = stable_bucket(key) % num_parts`` (the same stable hash every
    shuffle in this repo uses, so any engine process reproduces the
    routing). The newest row per key wins, "newest" = max ``order_col``
    with the update side winning exact ties; (key, order_col) is assumed
    unique within each side — the same contract as `latest_by_key`.

    Dataflow: updates stream once through a part-stamping map and a
    partitioned staging write (the shuffle medium is parquet, which is
    what a sink wants — resumable and inspectable); one Ray task per
    TOUCHED part then merges base ∪ staging vectorized in polars and
    swaps the directory atomically (tmp build → trash-rename → rename).
    Untouched partitions are never read, never written.

    Returns ``{"parts_touched": [...], "rows_written": int}``.
    """
    import uuid

    import pyarrow as pa

    from ..schema import stable_bucket

    base = Path(base_dir)
    if base.exists():
        recover_partition_swaps(base, clean_orphans=True)
    staging = base.parent / f".{base.name}.upsert-{uuid.uuid4().hex[:8]}"

    def _stamp(t: "pa.Table") -> "pa.Table":
        part = stable_bucket(
            t[key].cast(pa.string()).to_pylist(), num_parts
        )
        return t.append_column("part", pa.array(part, pa.int32()))

    updates.map_batches(
        _stamp, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(str(staging), partition_cols=["part"])

    touched = sorted(
        int(p.name.split("=", 1)[1])
        for p in staging.glob("part=*")
        if p.is_dir()
    )

    @ray.remote
    def _merge_part(k: int) -> int:
        import polars as pl
        import pyarrow.dataset as pads

        part_dir = base / f"part={k}"
        frames = []
        if part_dir.exists():
            frames.append(
                pl.from_arrow(pads.dataset(str(part_dir)).to_table())
                .with_columns(pl.lit(0).alias("_src"))
            )
        st = pads.dataset(str(staging / f"part={k}")).to_table()
        if "part" in st.column_names:  # hive writes drop it; be layout-proof
            st = st.drop_columns(["part"])
        frames.append(
            pl.from_arrow(st).with_columns(pl.lit(1).alias("_src"))
        )
        merged = (
            pl.concat(frames, how="vertical_relaxed")
            .sort([key, order_col, "_src"])
            .group_by(key, maintain_order=True)
            .last()
            .drop("_src")
        )
        tmp = base / f".part={k}.tmp-{uuid.uuid4().hex[:8]}"
        tmp.mkdir(parents=True)
        merged.write_parquet(tmp / "data.parquet")
        _swap_partition(base, k, tmp)
        return merged.height

    base.mkdir(parents=True, exist_ok=True)
    rows = sum(ray.get([_merge_part.remote(k) for k in touched]))
    shutil.rmtree(staging, ignore_errors=True)
    if touched:
        # like compaction, an upsert rewrites files — any skipping index
        # (sources/zonemap.py) over the old listing is stale; delete it
        for idx in base.glob("_zonemap.*"):
            idx.unlink()
    manifest = {
        "op": "upsert",
        "parts_touched": touched,
        "rows_written": rows,
        "ts": time.time(),
    }
    (base / "_last_upsert.json").write_text(json.dumps(manifest))
    return {"parts_touched": touched, "rows_written": rows}


def forget_convs(
    out_root: str | Path, conv_ids: list[str], *, key: str = "conv_id"
) -> dict:
    """Right-to-be-forgotten over a checkpointed run: purge every row of
    the given conversations from the DERIVED stage checkpoints under
    ``out_root``, and invalidate the aggregate stages so the next
    :func:`~..pipelines.run.run_checkpointed` rebuilds them from the
    purged row-level data.

    Mechanics — two classes of stage, decided by schema:

    * row-level (schema carries ``conv_id``: combined/mentions/triples/
      linked): each parquet file is probed by reading ONLY the key
      column; files containing a target conv rewrite in place
      (atomic ``os.replace``), untouched files are not rewritten. The
      stage manifest stays — the filtered checkpoint is deliberate and
      must keep its skip-if-done status.
    * aggregate (no ``conv_id``: canon/edges/nodes): their counts can
      embed the forgotten conversations, so their manifests are deleted
      — fingerprints still match on the next run, but ``is_done`` fails
      and they recompute from the purged upstream.

    Scope: DERIVED data only. The source transcript shards are the
    caller's storage to purge — if they still contain the conversation
    and an input-content change invalidates ``combined``, the data
    legitimately reappears (that is lineage working, not a leak). An
    audit entry appends to ``_forgotten.jsonl``.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    root = Path(out_root)
    targets = pa.array(sorted(set(conv_ids)), pa.string())
    rewritten: list[str] = []
    removed = 0
    aggregate_stages: list[str] = []

    for sdir in sorted(p for p in root.iterdir() if p.is_dir()):
        files = sorted(sdir.glob("**/*.parquet"))
        if not files:
            continue
        if key not in pq.read_schema(files[0]).names:
            aggregate_stages.append(sdir.name)
            continue
        for f in files:
            col = pq.read_table(f, columns=[key])[key]
            hit = pc.sum(
                pc.is_in(col.combine_chunks(), value_set=targets)
            ).as_py()
            if not hit:
                continue
            t = pq.read_table(f)
            keep = pc.invert(
                pc.is_in(t[key].combine_chunks(), value_set=targets)
            )
            tmp = f.with_name(f.name + ".tmp")
            pq.write_table(t.filter(keep), tmp)
            os.replace(tmp, f)
            rewritten.append(str(f.relative_to(root)))
            removed += int(hit)

    invalidated: list[str] = []
    if removed:
        for stage in aggregate_stages:
            for m in root.glob(f"{stage}*.manifest.json"):
                m.unlink()
                invalidated.append(m.name)

    entry = {
        "conv_ids": sorted(set(conv_ids)),
        "rows_removed": removed,
        "files_rewritten": rewritten,
        "invalidated": sorted(invalidated),
        "ts": time.time(),
    }
    with open(root / "_forgotten.jsonl", "a") as fh:
        fh.write(json.dumps(entry) + "\n")
    return entry


def compact_partitioned(
    base_dir: str | Path,
    *,
    target_rows_per_file: int = 1_000_000,
    min_files: int = 2,
    parts: list[int] | None = None,
    sort_by: str | list[str] | None = None,
) -> dict:
    """Small-file compaction for a hash-partitioned parquet table
    (``base_dir/part=<k>/*.parquet`` — the layout `upsert_partitioned`
    and `write_graph` produce). Incremental ingestion leaves each
    partition with one file per batch; at 100 TB that is millions of
    KB-sized files whose open/footer costs dominate every scan.
    Compaction rewrites a partition's files into
    ``ceil(rows / target_rows_per_file)`` right-sized files.

    Discipline (what makes it safe to run concurrently with readers):
    - row content is preserved EXACTLY (the row multiset of the
      partition is unchanged; order = input files sorted by name, rows
      in file order — deterministic);
    - ``sort_by`` additionally CLUSTERS each rewritten partition
      (stable sort on the given column(s) before slicing into files) so
      the output files carry disjoint value ranges — what turns a
      `sources/zonemap.py` index from best-effort into near-perfect
      file skipping on that column. Clustering changes row order only,
      never content, and forces min_files down to 1 (a single unsorted
      file still needs the rewrite);
    - partitions with fewer than ``min_files`` files are never touched
      (their directories stay byte-identical — no gratuitous churn, and
      a second compaction pass is a no-op);
    - the swap is journaled per partition (tmp build → intent marker →
      trash-rename → rename → cleanup; `_swap_partition`): POSIX has no
      atomic directory exchange, so a crash between the renames is
      POSSIBLE — but `recover_partition_swaps` (run here and by the
      zone-map reader before any listing) rolls it forward from the
      marker, and unmarked debris beside a MISSING partition raises
      instead of silently scanning partial data;
    - one Ray task per partition — compaction parallelism scales with
      partition count, and a failed run leaves every partition either
      old or new, never mixed.

    Returns ``{"parts_compacted": [...], "files_before": n,
    "files_after": n, "rows": n}``.
    """
    import uuid

    if sort_by is not None:
        min_files = min(min_files, 1)
    sort_cols = (
        [sort_by] if isinstance(sort_by, str) else list(sort_by or [])
    )

    base = Path(base_dir)
    if base.exists():
        recover_partition_swaps(base, clean_orphans=True)
    todo = []
    for pdir in sorted(base.glob("part=*")):
        if not pdir.is_dir():
            continue
        k = int(pdir.name.split("=", 1)[1])
        if parts is not None and k not in parts:
            continue
        files = sorted(f for f in pdir.glob("*.parquet"))
        if len(files) >= min_files:
            todo.append((k, len(files)))

    @ray.remote
    def _compact(k: int) -> tuple[int, int]:
        import pyarrow as pa
        import pyarrow.parquet as pq

        part_dir = base / f"part={k}"
        files = sorted(part_dir.glob("*.parquet"))
        tbl = pa.concat_tables(
            [pq.read_table(f) for f in files], promote_options="default"
        )
        if sort_cols:
            tbl = tbl.sort_by([(c, "ascending") for c in sort_cols])
        n_out = max(1, -(-tbl.num_rows // target_rows_per_file))
        step = -(-tbl.num_rows // n_out)
        tmp = base / f".part={k}.tmp-{uuid.uuid4().hex[:8]}"
        tmp.mkdir(parents=True)
        for i in range(n_out):
            pq.write_table(
                tbl.slice(i * step, step), tmp / f"compacted-{i:05d}.parquet"
            )
        _swap_partition(base, k, tmp)
        return tbl.num_rows, n_out

    results = ray.get([_compact.remote(k) for k, _ in todo])
    if todo:
        # compaction renames every file it touches — any skipping index
        # (sources/zonemap.py) built over the old listing is now wrong;
        # delete rather than leave a stale index that prunes to dead
        # paths (the probes also self-check, this makes rebuilds obvious)
        for idx in base.glob("_zonemap.*"):
            idx.unlink()
    manifest = {
        "op": "compact",
        "parts_compacted": [k for k, _ in todo],
        "files_before": sum(n for _, n in todo),
        "files_after": sum(n for _, n in results),
        "rows": sum(r for r, _ in results),
        "ts": time.time(),
    }
    (base / "_last_compact.json").write_text(json.dumps(manifest))
    return {k: manifest[k] for k in
            ("parts_compacted", "files_before", "files_after", "rows")}


def _sortkey_f64(arr) -> "object":
    """Sort column → float64 numpy for RANGE BALANCING (timestamps via
    epoch-µs int64 — Arrow has no direct timestamp→float cast). Only
    balance rides on the float projection: it is monotone, so rounding
    can merge adjacent ranges, never reorder or split equal keys."""
    import pyarrow as pa
    import pyarrow.compute as pc

    t = arr.type
    if pa.types.is_timestamp(t):
        arr = arr.cast(pa.timestamp("us")).cast(pa.int64())
    # safe=False: int64 beyond ±2^53 rounds instead of raising — fine
    # here, the float projection is balance-only (see docstring)
    return pc.cast(arr, pa.float64(), safe=False).to_numpy(
        zero_copy_only=False
    )


def _sortkey_np(arr):
    """Sort column → numpy in its EXACT routing space: int64 for
    integer/timestamp keys (epoch µs), float64 otherwise."""
    import pyarrow as pa

    t = arr.type
    if pa.types.is_timestamp(t):
        return (
            arr.cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
    if pa.types.is_integer(t):
        return arr.cast(pa.int64()).to_numpy(zero_copy_only=False)
    return arr.cast(pa.float64()).to_numpy(zero_copy_only=False)


def _bound_py(c, i: int):
    """Typed manifest bound: timestamps → epoch-µs int64, ints stay
    ints, floats stay floats — json-native at full precision, so
    `merge_sorted` routes without ever parsing strings or rounding
    int64 keys through float64 (ADVICE r3)."""
    import pyarrow as pa

    if pa.types.is_timestamp(c.type):
        return (
            c.cast(pa.timestamp("us")).cast(pa.int64())[i].as_py()
        )
    return c[i].as_py()


def write_sorted(
    ds: "ray.data.Dataset",
    col: str,
    out_dir: str | Path,
    *,
    tie_cols: list[str] | None = None,
    num_files: int = 32,
) -> dict:
    """Globally-sorted parquet export (the TeraSort sink): range-
    partition on ``col`` (numeric/timestamp), sort each range locally,
    write one file per range named in range order — concatenating
    ``sorted-00000..N`` reads back the GLOBAL sort without any merge,
    and a `sources/zonemap.py` index over the output prunes any range
    probe to one file. No single-reducer sort anywhere: boundaries come
    from per-block quantile candidates (balance only, never
    correctness — equal values always share a range), rows move once.

    Writes ``_sorted_manifest.json`` with per-file (rows, lo, hi) —
    lo/hi are stored TYPED (ints and floats json-native at full
    precision, timestamps as epoch-µs int64), so `merge_sorted` routes
    int64/timestamp keys in integer space with no 2^53 float rounding
    anywhere near a range boundary. Returns ``{"files": n, "rows":
    n}``. Ties within ``col`` are ordered by ``tie_cols`` (optional —
    omit for nondeterministic tie order within a file, the usual sink
    contract)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..functions.shuffle import _split_refs

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def _cand(t: "pa.Table") -> "pa.Table":
        # float64 is only BALANCE here: equal keys collapse to equal
        # floats, so rounding can merge ranges but never split or
        # reorder them (timestamps route through epoch-µs int64 first —
        # a direct timestamp→float cast raises in Arrow)
        v = _sortkey_f64(t[col])
        if not len(v):
            return pa.table({"c": pa.array([], pa.float64())})
        qs = np.quantile(v, np.linspace(0.0, 1.0, 33))
        return pa.table({"c": pa.array(qs, pa.float64())})

    cand_rows = ds.select_columns([col]).map_batches(
        _cand, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # O(blocks × 33) floats — tiny by construction
    cand = np.sort(np.asarray([r["c"] for r in cand_rows], dtype=np.float64))
    if len(cand):
        idx = np.linspace(0, len(cand) - 1, num_files + 1)[1:-1]
        bnd = np.unique(cand[idx.astype(np.int64)])
    else:
        bnd = np.empty(0, dtype=np.float64)
    nb = len(bnd) + 1

    # _split_refs treats a STRING key as a precomputed bucket column and
    # uses it verbatim (a callable key gets HASHED — wrong for ranges)
    def _stamp(t: "pa.Table") -> "pa.Table":
        v = _sortkey_f64(t[col])
        return t.append_column(
            "_range",
            pa.array(np.searchsorted(bnd, v, side="right"), pa.int64()),
        )

    stamped = ds.map_batches(
        _stamp, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    per_block, schema = _split_refs(stamped, "_range", nb, nb)

    sort_by = [(col, "ascending")] + [
        (c, "ascending") for c in (tie_cols or [])
    ]

    @ray.remote
    def _write(b: int, *tables):
        tt = [t for t in tables if t.num_rows]
        if not tt:
            return None
        tbl = (
            pa.concat_tables(tt, promote_options="default")
            .drop_columns(["_range"])
            .sort_by(sort_by)
        )
        path = out / f"sorted-{b:05d}.parquet"
        pq.write_table(tbl, path)
        c = tbl[col]
        return (b, tbl.num_rows, _bound_py(c, 0), _bound_py(c, -1))

    infos = [
        r
        for r in ray.get(
            [
                _write.remote(b, *[pb[b] for pb in per_block])
                for b in range(nb)
            ]
        )
        if r is not None
    ]
    manifest = {
        "op": "write_sorted",
        "col": col,
        "files": [
            {"bucket": b, "rows": n, "lo": lo, "hi": hi}
            for b, n, lo, hi in sorted(infos)
        ],
        "ts": time.time(),
    }
    (out / "_sorted_manifest.json").write_text(json.dumps(manifest))
    return {"files": len(infos), "rows": sum(n for _, n, _, _ in infos)}


def merge_sorted(
    base_dir: str | Path,
    delta: "ray.data.Dataset",
    col: str,
    *,
    tie_cols: list[str] | None = None,
) -> dict:
    """LSM-style merge into a `write_sorted` table: route the delta's
    rows to the existing range files by the manifest's boundaries,
    merge-sort ONLY the touched files, leave every other file
    byte-identical — the global sort order survives without rewriting
    the table. The sorted-table sibling of `upsert_partitioned`
    (hash layout) and `compact_partitioned` (size maintenance).

    Routing: delta values ≤ file k's recorded ``hi`` (and > file k−1's)
    merge into file k; values beyond the last hi append to the LAST
    file (its range extends — recorded back into the manifest).
    One Ray merge task per touched file; atomic per-file tmp→rename.
    Returns ``{"files_touched": n, "rows_added": n}``."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    out = Path(base_dir)
    mpath = out / "_sorted_manifest.json"
    manifest = json.loads(mpath.read_text())
    files = sorted(manifest["files"], key=lambda f: f["bucket"])
    if not files:
        raise ValueError(f"{mpath} lists no files")
    # routing boundaries: file k takes values in (hi_{k-1}, hi_k];
    # the last file is open-ended. Bounds are stored typed (ints /
    # epoch-µs / floats); integer keys route in int64 space — no 2^53
    # float rounding can shift a boundary. Legacy manifests with
    # string bounds fall back to float parsing.
    raw_his = [f["hi"] for f in files[:-1]]
    if any(isinstance(h, str) for h in raw_his):
        his = np.asarray([float(h) for h in raw_his], dtype=np.float64)
        int_space = False
    elif raw_his and all(isinstance(h, int) for h in raw_his):
        his = np.asarray(raw_his, dtype=np.int64)
        int_space = True
    else:
        his = np.asarray(raw_his, dtype=np.float64)
        int_space = False

    def _route(t: "pa.Table") -> "pa.Table":
        v = _sortkey_np(t[col])
        if not int_space:
            v = v.astype(np.float64)
        return t.append_column(
            "_file",
            pa.array(np.searchsorted(his, v, side="left"), pa.int64()),
        )

    from ..functions.shuffle import _split_refs

    routed = delta.map_batches(
        _route, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    per_block, schema = _split_refs(
        routed, "_file", len(files), len(files)
    )

    sort_by = [(col, "ascending")] + [
        (c, "ascending") for c in (tie_cols or [])
    ]

    @ray.remote
    def _merge_file(idx: int, *tables):
        tt = [t for t in tables if t.num_rows]
        if not tt:
            return None
        add = pa.concat_tables(tt, promote_options="default").drop_columns(
            ["_file"]
        )
        path = out / f"sorted-{files[idx]['bucket']:05d}.parquet"
        merged = pa.concat_tables(
            [pq.read_table(path), add], promote_options="default"
        ).sort_by(sort_by)
        tmp = path.with_suffix(".tmp")
        pq.write_table(merged, tmp)
        os.replace(tmp, path)
        c = merged[col]
        return (idx, add.num_rows, merged.num_rows, _bound_py(c, 0),
                _bound_py(c, -1))

    results = [
        r
        for r in ray.get(
            [
                _merge_file.remote(i, *[pb[i] for pb in per_block])
                for i in range(len(files))
            ]
        )
        if r is not None
    ]
    for idx, _, rows, lo, hi in results:
        files[idx]["rows"] = rows
        files[idx]["lo"] = lo
        files[idx]["hi"] = hi
    manifest["files"] = files
    manifest["ts"] = time.time()
    mpath.write_text(json.dumps(manifest))
    # zone maps over the old listing are stale only if file CONTENT
    # matters to them — ranges changed, so drop them like compaction does
    for idx_file in out.glob("_zonemap.*"):
        idx_file.unlink()
    return {
        "files_touched": len(results),
        "rows_added": sum(r[1] for r in results),
    }
