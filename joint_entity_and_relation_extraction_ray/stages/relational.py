"""Relational operators Ray Data has no primitive for — as-of join,
per-group top-k, exact distributed quantiles (SURVEY.md §2.2 "custom
operators"; the brief's canonical examples of ops to compose from the
bucket shuffle rather than hand-rolled task graphs).

All three follow the house pattern: ONE split→reduce bucket shuffle
(``functions/shuffle.py``) co-locates each key's rows, then the per-bucket
logic runs vectorized in polars/numpy. Documented partitioning
assumptions:

- ``asof_join``: one `by`-key's rows (both sides) fit in a reducer — the
  same assumption every partitioned as-of implementation makes.
- ``group_topk``: one group's rows fit in a reducer; the per-bucket
  result is ≤ k rows per group, so the collected output is small.
- ``value_quantiles``: the DISTINCT-value histogram of the column is
  driver-small (true for bounded integer metrics like document lengths
  or token counts — the intended use). The full corpus is reduced to
  (value, count) partials per block before any shuffle; raw rows never
  move.
- ``range_join``: one `by`-key's rows (both sides) fit in a reducer;
  per-bucket work is a sorted sweep (O(n log n + output)), never the
  nested-loop cross product.
- ``interval_join``: one `by`-key's rows (both sides) fit in a reducer;
  candidates come from two searchsorteds over right starts widened by
  the bucket's max right-interval length, so per-bucket work is
  O(n log n + candidates) — for keyless overlap joins, bucket on a
  time-bin key instead and dedup emissions to the bin owning
  max(l_start, r_start).
- ``rolling_window``: one `by`-key's rows fit in a reducer (the same
  assumption as every PARTITION BY window function).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.dataset import MaterializedDataset

from ..functions.shuffle import bucket_group_apply, cobucket_apply

__all__ = [
    "above_group_mean",
    "asof_join",
    "bloom_membership_join",
    "distinct_keys",
    "frame_window",
    "full_outer_join",
    "group_quantiles_cont",
    "group_ranks",
    "group_string_agg",
    "group_topk",
    "group_topk_rank",
    "grouped_rollup",
    "grouped_sets",
    "grouped_summary",
    "interval_join",
    "latest_by_key",
    "melt",
    "membership_join",
    "ntile_window",
    "pivot_counts",
    "profile_columns",
    "range_join",
    "rolling_window",
    "set_except",
    "set_intersect",
    "value_mad",
    "value_quantiles",
    "value_quantiles_approx",
    "value_quantiles_cont",
    "winsorize_values",
]

# distinct right-key sets up to this size broadcast (one ray.put, read
# zero-copy in every filter task); above it the semi/anti join falls back
# to the co-bucketed shuffle so neither side ever sits on the driver
MEMBERSHIP_BROADCAST_ROWS = 2_000_000


def distinct_keys(
    ds: ray.data.Dataset, col: str, *, num_buckets: int = 16
) -> ray.data.Dataset:
    """Reduce ``ds`` to the DISTINCT non-null values of ``col`` — a
    per-block distinct combiner first (so the shuffle carries each
    block's unique values, never rows), then one key-bucketed dedup
    shuffle. Returns a materialized single-column Dataset."""

    def _distinct(t: pa.Table) -> pa.Table:
        arr = pc.drop_null(t[col].combine_chunks()).unique()
        return pa.table({col: arr})

    keys = ds.select_columns([col]).map_batches(
        _distinct, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    if keys.schema() is None:
        # fully-empty input: Ray reports no schema at all, which the
        # house shuffle cannot bucket — the distinct key set IS empty
        return keys
    return bucket_group_apply(
        keys, col, _distinct, num_buckets=num_buckets
    ).materialize()


def membership_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    right_on: str | None = None,
    anti: bool = False,
    broadcast_threshold: int = MEMBERSHIP_BROADCAST_ROWS,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Distributed SEMI (``anti=False``) / ANTI (``anti=True``) join:
    keep the ``left`` rows whose ``on`` key does / does not appear in
    ``right``'s ``right_on`` column.

    The right side is reduced to per-block DISTINCT keys (a combiner)
    before anything moves, then deduplicated with one key-bucketed
    shuffle — so the shuffle carries distinct keys, never right rows.
    Small key sets broadcast (`ray.put` once, vectorized ``pc.is_in``
    per batch — the left side never shuffles); large ones fall back to
    a co-bucketed shuffle where each bucket filters its left rows
    against its local key set. Null left keys never match (SQL ``IN``
    semantics for the semi side; for the anti side a null key is kept,
    matching ``NOT EXISTS`` — callers wanting ``NOT IN`` null semantics
    should pre-filter)."""
    right_on = right_on or on
    if isinstance(left, MaterializedDataset) and left.count() == 0:
        # no left row to keep or drop: the left itself, whose schema a
        # map over its 0-row blocks would lose (Ray emits no block)
        return left
    keys = distinct_keys(right, right_on, num_buckets=min(num_buckets, 16))

    if keys.count() == 0:
        # empty right: ANTI keeps everything, SEMI keeps nothing (a
        # typed left-schema empty) — also the only correct behavior
        # when the empty right carries no schema at all
        if anti:
            return left
        return left.map_batches(
            lambda t: t.slice(0, 0),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    if keys.count() <= broadcast_threshold:
        from ..functions.joins import dataset_to_table

        key_tbl = dataset_to_table(keys).combine_chunks()
        ref = ray.put(key_tbl) if ray.is_initialized() else key_tbl

        def _filter(batch: pa.Table) -> pa.Table:
            tbl = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            mask = pc.is_in(batch[on], value_set=tbl[right_on])
            if anti:
                mask = pc.invert(pc.fill_null(mask, False))
            else:
                mask = pc.fill_null(mask, False)
            return batch.filter(mask)

        return left.map_batches(
            _filter, batch_format="pyarrow", zero_copy_batch=True
        )

    def _bucket_filter(lt: pa.Table, rt: pa.Table) -> pa.Table:
        mask = pc.is_in(lt[on], value_set=rt[right_on].combine_chunks())
        mask = pc.fill_null(mask, False)
        return lt.filter(pc.invert(mask) if anti else mask)

    return cobucket_apply(
        left,
        keys,
        lambda t: t[on].combine_chunks(),
        lambda t: t[right_on].combine_chunks(),
        _bucket_filter,
        num_buckets=num_buckets,
    )


def bloom_membership_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    right_on: str | None = None,
    anti: bool = False,
    fp_rate: float = 0.01,
    broadcast_threshold: int = MEMBERSHIP_BROADCAST_ROWS,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """EXACT semi/anti join with a Bloom pre-filter — the big-big path.

    When ``right``'s distinct keys outgrow the broadcast guard,
    :func:`membership_join` ships EVERY left row through the co-bucketed
    shuffle. Here a Bloom filter of the right keys (~1.2 bytes/key at 1%
    false positives — broadcastable long after the key set isn't) culls
    left rows first, so the exact shuffle only moves maybe-members:

    - SEMI: definite non-members are dropped pre-shuffle (no false
      negatives ⇒ no lost matches); false positives die in the exact
      membership stage ⇒ result identical to ``membership_join``.
    - ANTI: definite non-members (bloom says no, plus null keys — the
      ``NOT EXISTS`` rule) are KEPT pre-shuffle for free; only
      maybe-members go through the exact anti stage; the union is exact.

    Shuffle volume drops from |left| to |matches| + fp_rate·|left|."""
    from ..functions.bloom import bloom_from_dataset

    right_on = right_on or on
    keys = distinct_keys(right, right_on, num_buckets=min(num_buckets, 16))
    bloom = bloom_from_dataset(keys, right_on, fp_rate=fp_rate)
    ref = ray.put(bloom) if ray.is_initialized() else bloom

    def _pre(keep_maybe: bool):
        def _f(batch: pa.Table) -> pa.Table:
            bf = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            col = batch[on].combine_chunks()
            valid_mask = pc.is_valid(col)
            valid = valid_mask.to_numpy(zero_copy_only=False)
            maybe = np.zeros(len(col), dtype=bool)
            if valid.any():
                # filter nulls at the Arrow level FIRST — to_numpy on a
                # nullable int column widens to float64/NaN, which would
                # hash differently from the int keys the filter was built on
                vals = col.filter(valid_mask).to_numpy(zero_copy_only=False)
                maybe[valid] = bf.contains(vals)
            return batch.filter(pa.array(maybe if keep_maybe else ~maybe))

        return _f

    maybe_members = left.map_batches(
        _pre(True), batch_format="pyarrow", zero_copy_batch=True
    )
    exact = membership_join(
        maybe_members,
        keys,
        on=on,
        right_on=right_on,
        anti=anti,
        broadcast_threshold=broadcast_threshold,
        num_buckets=num_buckets,
    )
    if not anti:
        return exact
    definite_out = left.map_batches(
        _pre(False), batch_format="pyarrow", zero_copy_batch=True
    )
    return definite_out.union(exact)


def set_intersect(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    right_on: str | None = None,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """SQL ``INTERSECT`` on a key column: the DISTINCT ``on`` values of
    ``left`` that also appear in ``right``. Both sides reduce to distinct
    keys per block before anything moves; the membership filter is the
    semi-join machinery (broadcast under the guard, co-bucketed shuffle
    above it). Output column is named ``on``."""
    lkeys = distinct_keys(left, on, num_buckets=min(num_buckets, 16))
    return membership_join(
        lkeys, right, on=on, right_on=right_on, num_buckets=num_buckets
    )


def set_except(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    right_on: str | None = None,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """SQL ``EXCEPT`` on a key column: the DISTINCT ``on`` values of
    ``left`` that do NOT appear in ``right`` — ``set_intersect`` with the
    mask inverted."""
    lkeys = distinct_keys(left, on, num_buckets=min(num_buckets, 16))
    return membership_join(
        lkeys, right, on=on, right_on=right_on, anti=True,
        num_buckets=num_buckets,
    )


def melt(
    ds: ray.data.Dataset,
    *,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "variable",
    value_name: str = "value",
) -> ray.data.Dataset:
    """UNPIVOT (wide → long): one output row per (input row, value
    column). Stateless per-block transform — no shuffle, no state; the
    inverse of ``pivot_counts``'s widening."""

    def _melt(t: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(t)
            .unpivot(
                index=id_cols,
                on=value_cols,
                variable_name=var_name,
                value_name=value_name,
            )
            .to_arrow()
        )

    return ds.map_batches(_melt, batch_format="pyarrow", zero_copy_batch=True)


def _safe_col(v: object) -> str:
    s = "".join(ch if ch.isalnum() else "_" for ch in str(v)).strip("_")
    return s.lower() or "null"


def pivot_counts(
    ds: ray.data.Dataset,
    *,
    index: str,
    col: str,
    values: list | None = None,
    num_buckets: int = 16,
    max_values: int = 1_000,
) -> ray.data.Dataset:
    """Wide conditional-aggregate pivot — one output count column per
    category value of ``col`` (``n_<value>``), plus ``n_total``, grouped
    by ``index``. The SQL shape is ``count(*) FILTER (WHERE col = v)``.

    Category values are either supplied (``values``) or discovered with a
    tiny distinct pass (guarded by ``max_values`` — a pivot to millions
    of columns is a modeling error, not a scale problem). The widening
    happens per block as int indicator columns, so the whole thing is a
    ``grouped_summary``: per-block partials → one tiny merge shuffle;
    raw rows never move."""
    if values is None:
        vals_ds = distinct_keys(ds, col, num_buckets=min(num_buckets, 16))
        n = vals_ds.count()
        if n > max_values:
            raise ValueError(
                f"pivot_counts: {n} distinct values of {col!r} exceeds "
                f"max_values={max_values}"
            )
        values = sorted(r[col] for r in vals_ds.take_all())
    values = list(values)
    names = [f"n_{_safe_col(v)}" for v in values]
    if len(set(names)) != len(names):
        raise ValueError(f"pivot_counts: value names collide: {names}")

    def _ind(t: pa.Table) -> pa.Table:
        c = t[col].combine_chunks()
        cols = {index: t[index]}
        for v, name in zip(values, names):
            cols[name] = pc.cast(
                pc.fill_null(pc.equal(c, pa.scalar(v)), False), pa.int64()
            )
        return pa.table(cols)

    ind = ds.map_batches(_ind, batch_format="pyarrow", zero_copy_batch=True)
    aggs: dict = {name: (name, "sum") for name in names}
    aggs["n_total"] = (index, "count")
    return grouped_summary(
        ind, by=[index], aggs=aggs, num_buckets=num_buckets
    )


def grouped_summary(
    ds: ray.data.Dataset,
    *,
    by: list[str],
    aggs: "dict[str, tuple[str, str]]",
    num_buckets: int = 8,
) -> ray.data.Dataset:
    """Decomposable multi-column grouped aggregate (the TPC-H-Q1 shape):
    per-BLOCK partial aggregation inside ``map_batches`` (the combiner —
    one row per (block, group) moves, never the corpus), then one tiny
    key-bucketed merge shuffle.

    ``aggs`` maps output column → (input column, fn) with fn in
    {sum, count, min, max}; count re-merges by summing partial counts."""
    import polars as pl

    def _partial(t: pa.Table) -> pa.Table:
        # polars group_by on a 0-row frame returns a typed empty frame,
        # so no empty special case is needed (house style: token_counts)
        df = pl.from_arrow(t)
        exprs = []
        for out, (col, fn) in aggs.items():
            if fn == "count":
                exprs.append(pl.len().cast(pl.Int64).alias(out))
            else:
                exprs.append(getattr(pl.col(col), fn)().alias(out))
        return df.group_by(by).agg(exprs).to_arrow()

    merge_fn = {
        out: ("sum" if fn == "count" else fn) for out, (_, fn) in aggs.items()
    }

    def _merge(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        exprs = [
            getattr(pl.col(out), fn)().alias(out)
            for out, fn in merge_fn.items()
        ]
        return df.group_by(by).agg(exprs).to_arrow()

    partials = ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, by[0], _merge, num_buckets=num_buckets)


def grouped_rollup(
    ds: ray.data.Dataset,
    *,
    by: list[str],
    aggs: "dict[str, tuple[str, str]]",
    num_buckets: int = 8,
) -> ray.data.Dataset:
    """SQL ``GROUP BY ROLLUP (a, b, ...)``: the detail aggregate plus
    every prefix subtotal and the grand total, with a ``level`` column
    (0 = detail, len(by) = grand total) disambiguating NULL group keys
    exactly like SQL ``GROUPING()``.

    The corpus is scanned ONCE: the detail level is a `grouped_summary`
    (per-block combiner → tiny merge shuffle); every coarser level
    re-aggregates the already-tiny detail RESULT (count partials
    re-merge by sum — the standard decomposability argument), so
    subtotals cost G rows of work, not another corpus pass."""
    detail = grouped_summary(
        ds, by=by, aggs=aggs, num_buckets=num_buckets
    ).materialize()
    remerge = {
        out: (out, "sum" if fn == "count" else fn)
        for out, (_, fn) in aggs.items()
    }
    agg_names = list(aggs.keys())

    schema = detail.schema()
    types = dict(zip(schema.names, schema.types))

    def _with_level(level: int, keep: list[str]):
        def _f(t: pa.Table) -> pa.Table:
            cols: dict = {}
            for c in by:
                cols[c] = (
                    t[c] if c in keep else pa.nulls(t.num_rows, types[c])
                )
            cols["level"] = pa.array([level] * t.num_rows, pa.int64())
            for a in agg_names:
                cols[a] = t[a]
            return pa.table(cols)

        return _f

    out = detail.map_batches(
        _with_level(0, by), batch_format="pyarrow", zero_copy_batch=True
    )
    for i in range(1, len(by) + 1):
        sub_by = by[:-i]
        if sub_by:
            lvl = grouped_summary(
                detail, by=sub_by, aggs=remerge, num_buckets=1
            )
        else:
            # grand total: polars can't group by nothing — a constant key
            const = detail.map_batches(
                lambda t: t.append_column(
                    "_all", pa.array([0] * t.num_rows, pa.int64())
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            lvl = grouped_summary(
                const, by=["_all"], aggs=remerge, num_buckets=1
            ).drop_columns(["_all"])
        out = out.union(
            lvl.map_batches(
                _with_level(i, sub_by),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        )
    return out


def grouped_cube(
    ds: ray.data.Dataset,
    *,
    by: list[str],
    aggs: "dict[str, tuple[str, str]]",
    num_buckets: int = 8,
) -> ray.data.Dataset:
    """SQL ``GROUP BY CUBE (a, b, ...)``: every subset of ``by``
    (2^n grouping sets — ROLLUP's prefixes plus the cross cuts), with a
    ``gid`` bitmask exactly like SQL ``GROUPING(a, b, ...)``: bit set =
    that dim rolled up, ``by[0]`` the most significant bit.

    Same one-scan decomposition as :func:`grouped_rollup`: the corpus is
    aggregated once to the finest grain (per-block combiner → merge
    shuffle), then every coarser set re-aggregates the already-tiny
    detail RESULT (counts re-merge by sum). 2^n stays sane because CUBE
    is only ever asked over a handful of dims — the detail grain bounds
    all further work at G rows per set."""
    n = len(by)
    detail = grouped_summary(
        ds, by=by, aggs=aggs, num_buckets=num_buckets
    ).materialize()
    remerge = {
        out: (out, "sum" if fn == "count" else fn)
        for out, (_, fn) in aggs.items()
    }
    agg_names = list(aggs.keys())
    schema = detail.schema()
    types = dict(zip(schema.names, schema.types))

    def _with_gid(gid: int, keep: list[str]):
        def _f(t: pa.Table) -> pa.Table:
            cols: dict = {}
            for c in by:
                cols[c] = (
                    t[c] if c in keep else pa.nulls(t.num_rows, types[c])
                )
            cols["gid"] = pa.array([gid] * t.num_rows, pa.int64())
            for a in agg_names:
                cols[a] = t[a]
            return pa.table(cols)

        return _f

    out = detail.map_batches(
        _with_gid(0, by), batch_format="pyarrow", zero_copy_batch=True
    )
    for gid in range(1, 2**n):
        keep = [c for i, c in enumerate(by) if not (gid >> (n - 1 - i)) & 1]
        if keep:
            lvl = grouped_summary(detail, by=keep, aggs=remerge, num_buckets=1)
        else:
            const = detail.map_batches(
                lambda t: t.append_column(
                    "_all", pa.array([0] * t.num_rows, pa.int64())
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            lvl = grouped_summary(
                const, by=["_all"], aggs=remerge, num_buckets=1
            ).drop_columns(["_all"])
        out = out.union(
            lvl.map_batches(
                _with_gid(gid, keep),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        )
    return out


def grouped_sets(
    ds: ray.data.Dataset,
    *,
    by: list[str],
    sets: list[list[str]],
    aggs: "dict[str, tuple[str, str]]",
    num_buckets: int = 8,
) -> ray.data.Dataset:
    """SQL ``GROUP BY GROUPING SETS ((...), (...))`` with an explicit
    set list — the general form CUBE (all subsets) and ROLLUP (prefixes)
    specialize. ``gid`` is the SQL ``GROUPING(by...)`` bitmask (bit set
    = that dim rolled up, ``by[0]`` most significant); each set must be
    a distinct subset of ``by``.

    Same one-scan decomposition as :func:`grouped_cube`: aggregate the
    corpus ONCE to the finest grain (per-block combiner → one merge
    shuffle), then every requested set re-aggregates the already-tiny
    detail result (counts re-merge by sum) — the corpus is read and
    shuffled exactly once no matter how many sets are asked for."""
    if not sets:
        raise ValueError("sets must be non-empty")
    n = len(by)
    seen = set()
    for s in sets:
        key = frozenset(s)
        if not key <= set(by):
            raise ValueError(f"grouping set {s} not a subset of by={by}")
        if key in seen:
            raise ValueError(f"duplicate grouping set {s}")
        seen.add(key)

    detail = grouped_summary(
        ds, by=by, aggs=aggs, num_buckets=num_buckets
    ).materialize()
    remerge = {
        out: (out, "sum" if fn == "count" else fn)
        for out, (_, fn) in aggs.items()
    }
    agg_names = list(aggs.keys())
    schema = detail.schema()
    types = dict(zip(schema.names, schema.types))

    def _with_gid(gid: int, keep: list[str]):
        def _f(t: pa.Table) -> pa.Table:
            cols: dict = {}
            for c in by:
                cols[c] = (
                    t[c] if c in keep else pa.nulls(t.num_rows, types[c])
                )
            cols["gid"] = pa.array([gid] * t.num_rows, pa.int64())
            for a in agg_names:
                cols[a] = t[a]
            return pa.table(cols)

        return _f

    out: ray.data.Dataset | None = None
    for s in sets:
        keep = [c for c in by if c in set(s)]
        gid = 0
        for i, c in enumerate(by):
            if c not in set(s):
                gid |= 1 << (n - 1 - i)
        if gid == 0:
            lvl = detail
        elif keep:
            lvl = grouped_summary(detail, by=keep, aggs=remerge, num_buckets=1)
        else:
            const = detail.map_batches(
                lambda t: t.append_column(
                    "_all", pa.array([0] * t.num_rows, pa.int64())
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            lvl = grouped_summary(
                const, by=["_all"], aggs=remerge, num_buckets=1
            ).drop_columns(["_all"])
        piece = lvl.map_batches(
            _with_gid(gid, keep),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        out = piece if out is None else out.union(piece)
    return out


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    by: str,
    on: str,
    right_cols: list[str],
    suffix: str = "_r",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Backward as-of LEFT join: each left row picks the right row with
    the greatest ``on`` value ≤ its own, within the same ``by`` key.

    One co-bucketed shuffle on ``by`` (both sides hashed identically),
    then a sorted polars ``join_asof`` per bucket. Left rows with no
    prior right row keep nulls in the right columns. Ties on ``on``
    resolve to the LAST right row in (by, on, right_cols) sort order —
    deterministic regardless of arrival order.
    """
    import polars as pl

    def _bucket(col: str):
        def f(t: pa.Table) -> pa.Array:
            return t[col].combine_chunks()

        return f

    l_names = set(left.schema().names)
    ren = {c: (c + suffix if c in l_names else c) for c in right_cols}

    def _asof(lt: pa.Table, rt: pa.Table) -> pa.Table:
        import warnings

        # empty buckets flow through the same path so every bucket emits
        # the identical joined schema (typed empties, no concat skew)
        ldf = pl.from_arrow(lt).sort(on)
        rdf = (
            pl.from_arrow(rt)
            .select([by, on] + [c for c in right_cols if c not in (by, on)])
            .sort([on] + [c for c in right_cols if c not in (by, on)])
        )
        with warnings.catch_warnings():
            # both frames were just sorted on `on`; polars can't verify
            # per-`by`-group sortedness and warns unconditionally
            warnings.simplefilter("ignore", UserWarning)
            out = ldf.join_asof(
                rdf, on=on, by=by, strategy="backward", suffix=suffix
            )
        # polars appends suffix only on clashes; normalize to `ren` names
        for c in right_cols:
            if c in (by, on):
                continue
            have = c + suffix if c + suffix in out.columns else c
            if have != ren[c]:
                out = out.rename({have: ren[c]})
        return out.to_arrow()

    return cobucket_apply(
        left,
        right,
        _bucket(by),
        _bucket(by),
        _asof,
        num_buckets=num_buckets,
    )


def group_topk(
    ds: ray.data.Dataset,
    *,
    by: str,
    sort_col: str,
    k: int,
    descending: bool = True,
    tiebreak: str | None = None,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Top-k rows per group with a dense ``rank`` column (1-based).

    Per-BLOCK pre-truncation keeps only each block's local top-k per
    group before the shuffle (a combiner: the global top-k per group is
    a subset of the union of per-block top-ks), so at most
    blocks × groups × k rows move — never the corpus.
    """
    import polars as pl

    sort_cols = [sort_col] + ([tiebreak] if tiebreak else [])
    desc = [descending] + ([False] if tiebreak else [])

    def _local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        # nulls_last matches SQL ORDER BY ... DESC (NULLS LAST in DuckDB);
        # polars would otherwise rank a null sort value first
        df = pl.from_arrow(t).sort(sort_cols, descending=desc, nulls_last=True)
        return df.group_by(by, maintain_order=True).head(k).to_arrow()

    def _final(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).sort(sort_cols, descending=desc, nulls_last=True)
        out = (
            df.group_by(by, maintain_order=True)
            .head(k)
            .with_columns(
                pl.int_range(1, pl.len() + 1)
                .over(by)
                .cast(pl.Int64)
                .alias("rank")
            )
        )
        return out.to_arrow()

    pre = ds.map_batches(
        _local_topk, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(pre, by, _final, num_buckets=num_buckets)


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    by: str,
    left_on: str,
    right_on: str,
    lower_offset: int,
    upper_offset: int,
    left_cols: list[str],
    right_cols: list[str],
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Interval/band INNER join: emit (left, right) pairs with the same
    ``by`` key where ``l[left_on] + lower_offset <= r[right_on] <=
    l[left_on] + upper_offset`` (offsets in the column's physical units —
    microseconds for timestamp[us]).

    One co-bucketed shuffle on ``by``; each bucket runs a sorted sweep:
    both sides map (by, on) to a single int64 composite key (dense-ranked
    ``by`` x shifted ``on``), the right side sorts once, and every left
    row finds its matching right range with two vectorized searchsorteds
    — O(n log n + output), never a nested-loop cross product. Falls back
    to polars ``join_where`` in the (unreachable for sane inputs) case
    the composite key would overflow int64.
    """
    import polars as pl

    if lower_offset > upper_offset:
        raise ValueError("lower_offset must be <= upper_offset")

    def _bucket(col: str):
        def f(t: pa.Table) -> pa.Array:
            return t[col].combine_chunks()

        return f

    out_fields = [("l_" + c) for c in left_cols] + [
        ("r_" + c) for c in right_cols
    ]

    def _as_i64(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
        a = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        t = a.type
        if pa.types.is_timestamp(t) or pa.types.is_date64(t):
            a = a.cast(pa.int64())
        elif not pa.types.is_integer(t):
            raise TypeError(f"range_join `on` must be integer-like, got {t}")
        return a.cast(pa.int64()).to_numpy(zero_copy_only=False)

    def _sweep(lt: pa.Table, rt: pa.Table) -> pa.Table:
        def _empty() -> pa.Table:
            cols = {}
            for c in left_cols:
                cols["l_" + c] = pa.array([], lt.schema.field(c).type)
            for c in right_cols:
                cols["r_" + c] = pa.array([], rt.schema.field(c).type)
            return pa.table(cols)

        if lt.num_rows == 0 or rt.num_rows == 0:
            return _empty()
        l_by = lt[by].combine_chunks()
        r_by = rt[by].combine_chunks()
        l_on = _as_i64(lt[left_on])
        r_on = _as_i64(rt[right_on])

        # dense-rank `by` over the union of both sides
        uni = pc.unique(pa.chunked_array([l_by, r_by]).combine_chunks())
        l_rank = pc.index_in(l_by, uni).to_numpy(zero_copy_only=False)
        r_rank = pc.index_in(r_by, uni).to_numpy(zero_copy_only=False)

        tmin = int(min(l_on.min() + lower_offset, r_on.min()))
        tmax = int(max(l_on.max() + upper_offset, r_on.max()))
        span = tmax - tmin + 2  # +1 so hi-of-key < next rank's lo
        if (len(uni) + 1) * span >= 2**63:
            # composite key would overflow — tiny-probability fallback.
            # Comparisons run on the int64-cast `on` (`__l_on`/`__r_on`)
            # so timestamp columns never meet a raw-int arithmetic op,
            # and only the selected columns are renamed.
            l_keep = list(dict.fromkeys([by, left_on, *left_cols]))
            r_keep = list(dict.fromkeys([by, right_on, *right_cols]))
            ldf = pl.from_arrow(lt.select(l_keep)).with_columns(
                pl.Series("__l_on", l_on)
            )
            rdf = (
                pl.from_arrow(rt.select(r_keep))
                .with_columns(pl.Series("__r_on", r_on))
                .rename({c: "__r_" + c for c in r_keep})
            )
            j = ldf.join_where(
                rdf,
                pl.col(by) == pl.col("__r_" + by),
                pl.col("__r_on") >= pl.col("__l_on") + lower_offset,
                pl.col("__r_on") <= pl.col("__l_on") + upper_offset,
            )
            j = j.select(
                [pl.col(c).alias("l_" + c) for c in left_cols]
                + [pl.col("__r_" + c).alias("r_" + c) for c in right_cols]
            )
            return j.to_arrow()

        r_key = r_rank.astype(np.int64) * span + (r_on - tmin)
        order = np.argsort(r_key, kind="stable")
        r_key = r_key[order]
        l_base = l_rank.astype(np.int64) * span + (l_on - tmin)
        lo = np.searchsorted(r_key, l_base + lower_offset, side="left")
        hi = np.searchsorted(r_key, l_base + upper_offset, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return _empty()
        l_idx = np.repeat(np.arange(len(l_base)), counts)
        starts = np.repeat(lo, counts)
        run = np.arange(total) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        r_idx = order[starts + run]

        cols = {}
        li = pa.array(l_idx, pa.int64())
        ri = pa.array(r_idx, pa.int64())
        for c in left_cols:
            cols["l_" + c] = lt[c].combine_chunks().take(li)
        for c in right_cols:
            cols["r_" + c] = rt[c].combine_chunks().take(ri)
        return pa.table(cols)

    return cobucket_apply(
        left,
        right,
        _bucket(by),
        _bucket(by),
        _sweep,
        num_buckets=num_buckets,
    )


def interval_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    by: str,
    left_span: tuple[str, str],
    right_span: tuple[str, str],
    left_cols: list[str],
    right_cols: list[str],
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Interval-overlap INNER join: emit (left, right) pairs with the
    same ``by`` key whose CLOSED intervals overlap —
    ``l.start <= r.end AND r.start <= l.end`` (timestamp[us] columns
    compare in microseconds). The interval×interval sibling of
    ``range_join`` (which is point-in-band).

    One co-bucketed shuffle on ``by``; each bucket runs a sorted sweep
    over right STARTS: both sides map (by, start) to one int64 composite
    key (dense-ranked ``by`` × shifted time), the right side sorts once,
    and every left interval takes candidates whose start lies in
    ``[l.start - max_right_len, l.end]`` with two vectorized
    searchsorteds, then filters exactly on ``r.end >= l.start``. That
    bounds per-left candidates by overlap count plus the skew of right
    interval lengths — never a nested-loop cross product. Falls back to
    polars ``join_where`` if the composite key would overflow int64.
    """
    import polars as pl

    l_start, l_end = left_span
    r_start, r_end = right_span

    def _bucket(col: str):
        def f(t: pa.Table) -> pa.Array:
            return t[col].combine_chunks()

        return f

    def _as_i64(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
        a = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        t = a.type
        if pa.types.is_timestamp(t) or pa.types.is_date64(t):
            a = a.cast(pa.int64())
        elif not pa.types.is_integer(t):
            raise TypeError(
                f"interval_join span columns must be integer-like, got {t}"
            )
        return a.cast(pa.int64()).to_numpy(zero_copy_only=False)

    def _sweep(lt: pa.Table, rt: pa.Table) -> pa.Table:
        def _empty() -> pa.Table:
            cols = {}
            for c in left_cols:
                cols["l_" + c] = pa.array([], lt.schema.field(c).type)
            for c in right_cols:
                cols["r_" + c] = pa.array([], rt.schema.field(c).type)
            return pa.table(cols)

        if lt.num_rows == 0 or rt.num_rows == 0:
            return _empty()
        ls = _as_i64(lt[l_start])
        le = _as_i64(lt[l_end])
        rs = _as_i64(rt[r_start])
        re_ = _as_i64(rt[r_end])

        l_by = lt[by].combine_chunks()
        r_by = rt[by].combine_chunks()
        uni = pc.unique(pa.chunked_array([l_by, r_by]).combine_chunks())
        l_rank = pc.index_in(l_by, uni).to_numpy(zero_copy_only=False)
        r_rank = pc.index_in(r_by, uni).to_numpy(zero_copy_only=False)

        max_rlen = int((re_ - rs).max()) if len(rs) else 0
        max_rlen = max(max_rlen, 0)
        tmin = int(min(ls.min(), rs.min())) - max_rlen - 1
        tmax = int(max(le.max(), rs.max())) + 1
        span = tmax - tmin + 2
        if (len(uni) + 1) * span >= 2**63:
            # composite key would overflow — tiny-probability fallback
            l_keep = list(dict.fromkeys([by, *left_cols]))
            r_keep = list(dict.fromkeys([by, *right_cols]))
            ldf = pl.from_arrow(lt.select(l_keep)).with_columns(
                pl.Series("__ls", ls), pl.Series("__le", le)
            )
            rdf = (
                pl.from_arrow(rt.select(r_keep))
                .with_columns(pl.Series("__rs", rs), pl.Series("__re", re_))
                .rename({c: "__r_" + c for c in r_keep})
            )
            j = ldf.join_where(
                rdf,
                pl.col(by) == pl.col("__r_" + by),
                pl.col("__rs") <= pl.col("__le"),
                pl.col("__re") >= pl.col("__ls"),
            )
            j = j.select(
                [pl.col(c).alias("l_" + c) for c in left_cols]
                + [pl.col("__r_" + c).alias("r_" + c) for c in right_cols]
            )
            return j.to_arrow()

        r_key = r_rank.astype(np.int64) * span + (rs - tmin)
        order = np.argsort(r_key, kind="stable")
        r_key = r_key[order]
        l_base = l_rank.astype(np.int64) * span
        lo = np.searchsorted(r_key, l_base + (ls - max_rlen - tmin), "left")
        hi = np.searchsorted(r_key, l_base + (le - tmin), "right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return _empty()
        l_idx = np.repeat(np.arange(len(l_base)), counts)
        starts = np.repeat(lo, counts)
        run = np.arange(total) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        r_idx = order[starts + run]
        # exact overlap filter on the candidates (start bound is implied
        # by the hi searchsorted; the end bound is what the widened lo
        # window over-admits)
        keep = (re_[r_idx] >= ls[l_idx]) & (rs[r_idx] <= le[l_idx])
        l_idx = l_idx[keep]
        r_idx = r_idx[keep]
        if len(l_idx) == 0:
            return _empty()

        cols = {}
        li = pa.array(l_idx, pa.int64())
        ri = pa.array(r_idx, pa.int64())
        for c in left_cols:
            cols["l_" + c] = lt[c].combine_chunks().take(li)
        for c in right_cols:
            cols["r_" + c] = rt[c].combine_chunks().take(ri)
        return pa.table(cols)

    return cobucket_apply(
        left,
        right,
        _bucket(by),
        _bucket(by),
        _sweep,
        num_buckets=num_buckets,
    )


def rolling_window(
    ds: ray.data.Dataset,
    *,
    by: str,
    on: str,
    aggs: dict[str, tuple[str, str]],
    period_us: int,
    carry_cols: list[str] | None = None,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-row rolling time-window aggregate — SQL ``agg(x) OVER
    (PARTITION BY by ORDER BY on RANGE BETWEEN period PRECEDING AND
    CURRENT ROW)``. ``aggs`` maps output name → (source col, one of
    "count" | "min" | "max" | "sum"). The window is CLOSED on both ends
    ([t - period, t]) and includes all equal-``on`` peers, matching the
    SQL RANGE frame exactly.

    One bucket shuffle on ``by``; each bucket sorts by (by, on,
    carry_cols) and runs polars' rolling context — vectorized, one
    output row per input row. ``on`` may be temporal (``period_us`` in
    microseconds) or a plain integer column (``period_us`` in the
    column's own units).
    """
    import polars as pl

    carry = carry_cols or []

    agg_exprs = []
    for out_name, (src, kind) in aggs.items():
        if kind == "count":
            agg_exprs.append(pl.len().cast(pl.Int64).alias(out_name))
        elif kind in ("min", "max", "sum"):
            agg_exprs.append(
                getattr(pl.col(src), kind)().alias(out_name)
            )
        else:
            raise ValueError(f"unsupported rolling agg {kind!r}")

    def _roll(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).sort([by, on] + carry)
        if df.height == 0:
            # typed empty aggregates so every bucket emits one schema
            # (count → Int64, min/max/sum → the source column's dtype)
            win = df.select([by, on]).with_columns(
                [
                    pl.lit(None)
                    .cast(
                        # polars rolling agg preserves the source dtype
                        # for min/max/sum (verified on 1.42); only count
                        # is cast (to Int64, matching agg_exprs)
                        pl.Int64 if kind == "count" else df.schema[src]
                    )
                    .alias(n)
                    for n, (src, kind) in aggs.items()
                ]
            )
            out = df.select([by, on] + carry)
        else:
            # temporal index: duration syntax; integer index: "<n>i"
            period = (
                f"{period_us}us"
                if df.schema[on].is_temporal()
                else f"{period_us}i"
            )
            win = df.rolling(
                index_column=on,
                period=period,
                group_by=by,
                closed="both",
            ).agg(agg_exprs)
            # rolling emits one row per input row in (by, on) order —
            # positional alignment with the sorted frame is exact, and
            # equal-`on` peers share identical window aggregates anyway
            out = df.select([by, on] + carry)
        out = out.hstack(win.drop([by, on]))
        return out.to_arrow()

    return bucket_group_apply(ds, by, _roll, num_buckets=num_buckets)


def _value_histogram(
    ds: ray.data.Dataset, col: str, num_buckets: int
) -> tuple["pa.Array", np.ndarray]:
    """Distinct-value histogram of ``col``: per-block (value, count)
    partials → one value-bucketed sum shuffle → driver walks only the
    distinct values. Returns (sorted values, cumulative counts)."""

    def _partial(t: pa.Table) -> pa.Table:
        # quantile semantics ignore NULLs — drop before counting
        vc = pc.value_counts(pc.drop_null(t[col].combine_chunks()))
        return pa.table(
            {
                "value": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    def _sum(t: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(t)
            .group_by("value")
            .agg(pl.col("n").sum())
            .to_arrow()
        )

    partials = ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    if partials.count() == 0:  # empty input: typed empty histogram
        return pa.array([], pa.int64()), np.array([], dtype=np.int64)
    hist = bucket_group_apply(partials, "value", _sum, num_buckets=num_buckets)
    # the histogram is distinct-value-sized — driver-small by contract
    ht = pa.concat_tables(
        [ray.get(r) for r in hist.to_arrow_refs()],
        promote_options="default",
    )
    order = pc.sort_indices(ht["value"].combine_chunks())
    vals = ht["value"].combine_chunks().take(order)
    cum = np.cumsum(ht["n"].combine_chunks().take(order).to_numpy())
    return vals, cum


def value_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    *,
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Exact discrete quantiles of ``col`` → rows (q:double, value).

    Matches DuckDB ``quantile_disc``: the selected value is the element
    at index ``max(0, ceil(q*n) - 1)`` of the ascending sort (verified
    empirically for n ∈ {4, 5, 10}). Computation is decomposable via
    :func:`_value_histogram` — exact at any row count whose
    distinct-value set is bounded (integer metrics)."""
    vals, cum = _value_histogram(ds, col, num_buckets)
    n = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in qs:
        if n == 0:
            continue
        idx = max(0, math.ceil(q * n) - 1)
        pos = int(np.searchsorted(cum, idx + 1))
        out_q.append(q)
        out_v.append(vals[pos].as_py())
    return ray.data.from_arrow(
        pa.table(
            {
                "q": pa.array(out_q, pa.float64()),
                "value": pa.array(out_v, vals.type),
            }
        )
    )


def value_quantiles_cont(
    ds: ray.data.Dataset,
    col: str,
    quarters: list[int],
    *,
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Exact INTERPOLATED quantiles (SQL ``percentile_cont`` / DuckDB
    ``quantile_cont``, the R-7 rule) at quarter grid points q = k/4 —
    float-free: the result is returned ×4 as an integer.

    R-7 on integer values v: h = (n−1)·k/4, i = ⌊h⌋, r = (n−1)·k mod 4,
    interpolated = v_i + (v_{i+1} − v_i)·r/4, so 4·interpolated =
    4·v_i + (v_{i+1} − v_i)·r — exact int64. The SQL mirror
    ``round(4*quantile_cont(v, k/4.0))`` is exact too: v fits well under
    2⁵³ and r/4 is a dyadic rational, so the double math never rounds.
    Same decomposable histogram as :func:`value_quantiles` — raw rows
    never shuffle."""
    vals_arr, cum = _value_histogram(ds, col, num_buckets)
    vals = vals_arr.to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(cum[-1]) if len(cum) else 0

    def _at(idx: int) -> int:
        return int(vals[int(np.searchsorted(cum, idx + 1))])

    out_k, out_v4 = [], []
    for k in quarters:
        if n == 0:
            continue
        hk = (n - 1) * k  # h = hk/4
        i, r = divmod(hk, 4)
        lo = _at(i)
        v4 = 4 * lo + (( _at(i + 1) - lo) * r if r else 0)
        out_k.append(k)
        out_v4.append(v4)
    return ray.data.from_arrow(
        pa.table(
            {
                "q_quarters": pa.array(out_k, pa.int64()),
                "value_x4": pa.array(out_v4, pa.int64()),
            }
        )
    )


def value_mad(
    ds: ray.data.Dataset,
    col: str,
    *,
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Exact median absolute deviation (robust dispersion — the
    outlier-resistant sibling of group_outliers' σ rule). One row:
    (median, mad), both by the ``quantile_disc`` index rule.

    ONE corpus pass: the |v − median| distribution is derived from the
    same (value, count) histogram that produced the median — reorder the
    distinct values by absolute distance and walk cumulative counts.
    Raw rows never shuffle; the second "pass" is driver arithmetic on
    the distinct-value table."""
    vals_arr, cum = _value_histogram(ds, col, num_buckets)
    n = int(cum[-1]) if len(cum) else 0
    if n == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "median": pa.array([], pa.int64()),
                    "mad": pa.array([], pa.int64()),
                }
            )
        )
    vals = vals_arr.to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.diff(np.concatenate(([0], cum)))
    idx = max(0, math.ceil(0.5 * n) - 1)
    med = int(vals[int(np.searchsorted(cum, idx + 1))])
    diff = np.abs(vals - med)
    order = np.argsort(diff, kind="stable")
    cumd = np.cumsum(counts[order])
    mad = int(diff[order][int(np.searchsorted(cumd, idx + 1))])
    return ray.data.from_arrow(
        pa.table(
            {
                "median": pa.array([med], pa.int64()),
                "mad": pa.array([mad], pa.int64()),
            }
        )
    )


def above_group_mean(
    ds: ray.data.Dataset,
    *,
    by: str,
    col: str,
    keep: list[str],
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Correlated-subquery shape — rows strictly above their group's
    mean (``WHERE v > (SELECT avg(v) ... WHERE group = outer.group)``)
    — EXACT on integer columns: ``v > S/n ⟺ n·v > S``, no division
    anywhere. One ``by``-bucketed shuffle co-locates each group; the
    per-bucket test is a vectorized polars window — no stats collect to
    the driver, so group cardinality is unbounded (contrast
    events.group_outliers, which broadcasts per-group thresholds
    because its groups are few)."""

    def _filt(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t)
        out = df.filter(
            pl.col(col) * pl.len().over(by) > pl.col(col).sum().over(by)
        )
        return out.select(keep).to_arrow()

    return bucket_group_apply(
        ds.select_columns(sorted(set(keep) | {by, col})),
        by,
        _filt,
        num_buckets=num_buckets,
    )


def group_quantiles(
    ds: ray.data.Dataset,
    *,
    by: str,
    col: str,
    qs: list[float],
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Exact discrete quantiles of ``col`` PER GROUP → rows
    (by, q:double, value) — SQL ``quantile_disc(col, q) GROUP BY by``.

    Same decomposition as :func:`value_quantiles`, applied per group:
    each block collapses to (by, value, n) partials, one bucket shuffle
    on ``by`` co-locates a group's histogram, and the per-group walk
    runs on distinct-value counts — raw rows never shuffle, and skew is
    bounded by a group's DISTINCT-value count, not its row count.

    NULL ``col`` values are ignored (quantile_disc semantics); a group
    whose values are ALL null is omitted from the output (SQL would emit
    it with a NULL quantile).
    """
    import polars as pl

    def _partial(t: pa.Table) -> pa.Table:
        # quantile_disc semantics ignore NULL values
        df = pl.from_arrow(t).drop_nulls(subset=[col])
        return (
            df.group_by([by, col])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .rename({col: "value"})
            .to_arrow()
        )

    def _walk(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        if df.height == 0:
            return pa.table(
                {
                    by: pa.array([], t.schema.field(by).type),
                    "q": pa.array([], pa.float64()),
                    "value": pa.array([], t.schema.field("value").type),
                }
            )
        hist = (
            df.group_by([by, "value"])
            .agg(pl.col("n").sum())
            .sort([by, "value"])
        )
        out_b, out_q, out_v = [], [], []
        for (bval,), grp in hist.group_by([by], maintain_order=True):
            vals = grp["value"].to_list()
            cum = np.cumsum(grp["n"].to_list())
            n = int(cum[-1])
            for q in qs:
                idx = max(0, math.ceil(q * n) - 1)
                pos = int(np.searchsorted(cum, idx + 1))
                out_b.append(bval)
                out_q.append(q)
                out_v.append(vals[pos])
        return pa.table(
            {
                by: pa.array(out_b, t.schema.field(by).type),
                "q": pa.array(out_q, pa.float64()),
                "value": pa.array(out_v, t.schema.field("value").type),
            }
        )

    partials = ds.select_columns([by, col]).map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, by, _walk, num_buckets=num_buckets)


def group_mad(
    ds: ray.data.Dataset,
    *,
    by: str,
    col: str,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Robust spread per group: discrete MEDIAN and MAD (median absolute
    deviation, ``quantile_disc(abs(x − med), 0.5)``) → (by, median,
    mad). The outlier-insensitive complement to stddev — the robust
    scale estimate quality gates and winsorization thresholds should use
    when the tail is polluted.

    Single shuffle, same decomposable (by, value, count) histogram as
    :func:`group_quantiles`; the merge walks the histogram TWICE inside
    one pass (median from the value cumsum, then MAD from the
    deviation-aggregated histogram) — raw rows never shuffle, skew is
    bounded by a group's DISTINCT-value count. Discrete semantics
    (``ceil(q·n)−1``) match DuckDB's quantile_disc exactly; NULLs are
    ignored."""
    import polars as pl

    def _partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).drop_nulls(subset=[col])
        return (
            df.group_by([by, col])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .rename({col: "value"})
            .to_arrow()
        )

    def _disc(vals: "np.ndarray", counts: "np.ndarray"):
        cum = np.cumsum(counts)
        n = int(cum[-1])
        idx = max(0, math.ceil(0.5 * n) - 1)
        return vals[int(np.searchsorted(cum, idx + 1))]

    def _walk(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        vtype = t.schema.field("value").type
        if df.height == 0:
            return pa.table(
                {
                    by: pa.array([], t.schema.field(by).type),
                    "median": pa.array([], vtype),
                    "mad": pa.array([], vtype),
                }
            )
        hist = (
            df.group_by([by, "value"])
            .agg(pl.col("n").sum())
            .sort([by, "value"])
        )
        out_b, out_m, out_d = [], [], []
        for (bval,), grp in hist.group_by([by], maintain_order=True):
            vals = np.asarray(grp["value"].to_list())
            counts = np.asarray(grp["n"].to_list())
            med = _disc(vals, counts)
            dev = np.abs(vals - med)
            order = np.argsort(dev, kind="stable")
            dev, dcounts = dev[order], counts[order]
            # collapse equal deviations (two values can share one |x−med|)
            uniq, inv = np.unique(dev, return_inverse=True)
            dsum = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(dsum, inv, dcounts)
            mad = _disc(uniq, dsum)
            out_b.append(bval)
            out_m.append(med)
            out_d.append(mad)
        return pa.table(
            {
                by: pa.array(out_b, t.schema.field(by).type),
                "median": pa.array(out_m, vtype),
                "mad": pa.array(out_d, vtype),
            }
        )

    partials = ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, by, _walk, num_buckets=num_buckets)


def group_quantiles_cont(
    ds: ray.data.Dataset,
    *,
    by: str,
    col: str,
    quarters: list[int],
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Exact INTERPOLATED quantiles PER GROUP at quarter grid points —
    ``percentile_cont GROUP BY`` with the :func:`value_quantiles_cont`
    ×4-integer trick. Rows (by, q_quarters:int64, value_x4:int64).

    Same single-shuffle per-group histogram as :func:`group_quantiles`;
    the R-7 interpolation runs on distinct-value counts per group.
    Requires an integer ``col``; NULLs ignored; all-null groups omitted."""
    import polars as pl

    def _partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).drop_nulls(subset=[col])
        return (
            df.group_by([by, col])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .rename({col: "value"})
            .to_arrow()
        )

    def _walk(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        if df.height == 0:
            return pa.table(
                {
                    by: pa.array([], t.schema.field(by).type),
                    "q_quarters": pa.array([], pa.int64()),
                    "value_x4": pa.array([], pa.int64()),
                }
            )
        hist = (
            df.group_by([by, "value"])
            .agg(pl.col("n").sum())
            .sort([by, "value"])
        )
        out_b, out_k, out_v4 = [], [], []
        for (bval,), grp in hist.group_by([by], maintain_order=True):
            vals = grp["value"].to_list()
            cum = np.cumsum(grp["n"].to_list())
            n = int(cum[-1])

            def _at(idx: int) -> int:
                return int(vals[int(np.searchsorted(cum, idx + 1))])

            for k in quarters:
                i, r = divmod((n - 1) * k, 4)
                lo = _at(i)
                out_b.append(bval)
                out_k.append(k)
                out_v4.append(4 * lo + ((_at(i + 1) - lo) * r if r else 0))
        return pa.table(
            {
                by: pa.array(out_b, t.schema.field(by).type),
                "q_quarters": pa.array(out_k, pa.int64()),
                "value_x4": pa.array(out_v4, pa.int64()),
            }
        )

    partials = ds.select_columns([by, col]).map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, by, _walk, num_buckets=num_buckets)


_PROFILE_COUNTS = "\x00__counts__"

# (4 KB at p=12) per column instead — bounding the shuffle volume for a
# near-unique column at sketch-size × blocks instead of the column itself
PROFILE_VALUE_CAP = 65536


def profile_columns(
    ds: ray.data.Dataset,
    cols: list[str],
    *,
    num_buckets: int = 16,
    value_cap: int = PROFILE_VALUE_CAP,
) -> ray.data.Dataset:
    """Data-quality column profiler: ONE corpus pass → per column
    ``n_rows``, ``n_null``, ``n_distinct`` and a ``distinct_exact`` flag
    (SQL: ``count(*)``, ``count(*) - count(c)``, ``count(DISTINCT c)``).

    EXACT/SKETCH AUTO-CUTOVER (VERDICT r2 #5): exact count-distinct's
    floor is shuffling every distinct value, which for a near-unique
    column (order keys, prices) is the column itself — the scale-killer.
    Per block each column folds its distinct values into an HLL register
    array (`functions/sketch.py`, p=12 → ±1.6%) and ALSO ships the
    distinct value strings only while the block stays under ``value_cap``
    distincts. If ANY block overflows the cap, that column's global
    ``n_distinct`` comes from the merged HLL (``distinct_exact=false``);
    columns every block could enumerate stay exact
    (``distinct_exact=true``) and hash-match SQL. Low-cardinality columns
    are therefore always exact; near-unique columns degrade to a ±1.6%
    estimate with the shuffle bounded at ``value_cap`` strings + one 4 KB
    sketch per block per column. Value rows shuffle keyed by
    (col, value); sketch rows spread over salted keys so HLL merge fan-in
    is split across reducers before the tiny final merge."""
    import polars as pl

    from ..functions.sketch import (
        hll_add,
        hll_count,
        hll_empty,
        hll_merge,
    )

    reduced_schema = pa.schema(
        [
            ("col", pa.string()),
            ("n", pa.int64()),
            ("n_null", pa.int64()),
            ("nd", pa.int64()),
            ("hll", pa.binary()),
            ("trunc", pa.bool_()),
        ]
    )

    def _partial(t: pa.Table) -> pa.Table:
        outs = []
        for c in cols:
            arr = t[c].combine_chunks()
            vals = pc.drop_null(pc.cast(pc.unique(arr), pa.string()))
            nv = len(vals)
            regs = hll_add(
                hll_empty(), vals.to_numpy(zero_copy_only=False)
            )
            trunc = nv > value_cap
            if trunc:
                vals = vals.slice(0, 0)  # values stay home; sketch ships
                nv = 0
            # salt the counts key by local distinct count so sketch-merge
            # fan-in spreads over reducers (best-effort; correctness does
            # not depend on the spread)
            counts_key = f"{_PROFILE_COUNTS}\x1f{nv % num_buckets}"
            outs.append(
                pa.table(
                    {
                        "col": pa.array([c] * (nv + 1), pa.string()),
                        "value": pa.concat_arrays(
                            [vals, pa.array([counts_key], pa.string())]
                        ),
                        "n": pa.array([0] * nv + [len(arr)], pa.int64()),
                        "n_null": pa.array(
                            [0] * nv + [arr.null_count], pa.int64()
                        ),
                        "hll": pa.array(
                            [None] * nv + [regs.tobytes()], pa.binary()
                        ),
                        "trunc": pa.array(
                            [False] * nv + [trunc], pa.bool_()
                        ),
                    }
                )
            )
        t2 = pa.concat_tables(outs)
        return t2.append_column(
            "k",
            pc.binary_join_element_wise(t2["col"], t2["value"], "\x1f"),
        )

    def _merge_hlls(blobs: list) -> bytes | None:
        regs = None
        for b in blobs:
            if b is None:
                continue
            r = np.frombuffer(b, dtype=np.uint8)
            regs = r.copy() if regs is None else hll_merge(regs, r)
        return None if regs is None else regs.tobytes()

    def _reduce(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(
            t.select(["col", "value", "n", "n_null", "hll", "trunc"])
        )
        if df.height == 0:
            return reduced_schema.empty_table()
        is_counts = pl.col("hll").is_not_null()
        agg = (
            df.group_by("col")
            .agg(
                pl.col("n").filter(is_counts).sum().alias("n"),
                pl.col("n_null").filter(is_counts).sum().alias("n_null"),
                pl.col("value")
                .filter(~is_counts)
                .n_unique()
                .cast(pl.Int64)
                .alias("nd"),
                pl.col("trunc").any().alias("trunc"),
                pl.col("hll").drop_nulls().alias("hlls"),
            )
            .with_columns(
                pl.col("hlls")
                .map_elements(_merge_hlls, return_dtype=pl.Binary)
                .alias("hll")
            )
            .drop("hlls")
            .fill_null(0)
        )
        return agg.to_arrow().select(reduced_schema.names).cast(
            reduced_schema
        )

    def _final(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        out_schema = pa.schema(
            [
                ("col", pa.string()),
                ("n_rows", pa.int64()),
                ("n_null", pa.int64()),
                ("n_distinct", pa.int64()),
                ("distinct_exact", pa.bool_()),
            ]
        )
        if df.height == 0:
            return out_schema.empty_table()
        agg = (
            df.group_by("col")
            .agg(
                pl.col("n").sum().alias("n_rows"),
                pl.col("n_null").sum().alias("n_null"),
                pl.col("nd").sum().alias("nd"),
                pl.col("trunc").any().alias("trunc"),
                pl.col("hll").drop_nulls().alias("hlls"),
            )
            .sort("col")
        )
        nd_out = []
        for nd, trunc, blobs in zip(
            agg["nd"], agg["trunc"], agg["hlls"]
        ):
            if not trunc:
                nd_out.append(int(nd))
            else:
                merged = _merge_hlls(list(blobs))
                nd_out.append(
                    hll_count(np.frombuffer(merged, dtype=np.uint8))
                )
        return pa.table(
            {
                "col": agg["col"].to_arrow(),
                "n_rows": agg["n_rows"].cast(pl.Int64).to_arrow(),
                "n_null": agg["n_null"].cast(pl.Int64).to_arrow(),
                "n_distinct": pa.array(nd_out, pa.int64()),
                "distinct_exact": pa.array(
                    [not bool(x) for x in agg["trunc"]], pa.bool_()
                ),
            }
        ).cast(out_schema)

    partials = ds.select_columns(cols).map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    per_bucket = bucket_group_apply(
        partials, "k", _reduce, num_buckets=num_buckets
    )
    return bucket_group_apply(per_bucket, "col", _final, num_buckets=1)


def scd2_intervals(
    ds: ray.data.Dataset,
    *,
    key: str,
    order_by: str,
    tiebreak: str,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """SCD-2 history build (the companion to :func:`latest_by_key`'s
    SCD-1 compaction): each change-stream row becomes a VALIDITY
    INTERVAL — ``valid_from`` = its own ``order_by``, ``valid_to`` = the
    key's next row's ``order_by`` (NULL on the current row). SQL:
    ``lead(order_by) OVER (PARTITION BY key ORDER BY order_by,
    tiebreak)``. The temporal-warehouse primitive behind "what did this
    record say at time T" queries.

    One key-bucketed shuffle; inside each bucket the interval assignment
    is a vectorized sort + shift per key (polars ``shift(-1).over``) —
    no per-row loop, no second pass. The (order_by, tiebreak) pair must
    be a total order per key for the intervals to be deterministic."""
    import polars as pl

    def _intervals(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            list(t.schema)
            + [("valid_to", t.schema.field(order_by).type)]
        )
        if not t.num_rows:
            return out_schema.empty_table()
        return (
            pl.from_arrow(t)
            .sort([key, order_by, tiebreak])
            .with_columns(
                pl.col(order_by)
                .shift(-1)
                .over(key)
                .alias("valid_to")
            )
            .to_arrow()
            .cast(out_schema)
        )

    return bucket_group_apply(ds, key, _intervals, num_buckets=num_buckets)


def latest_by_key(
    ds: ray.data.Dataset,
    *,
    key: str,
    order_by: str,
    tiebreak: str,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """CDC/SCD-1 compaction: the NEWEST row per key (max ``order_by``,
    ties broken by MIN ``tiebreak`` — a total order, so the survivor is
    unique and deterministic). SQL: ``row_number() OVER (PARTITION BY key
    ORDER BY order_by DESC, tiebreak) = 1``.

    Decomposable: keep-latest is associative, so a per-BLOCK combiner
    reduces each block to ≤ one row per key BEFORE the shuffle — only
    per-block winners move, the corpus never does (a key appearing in
    every block ships block-count rows, not its row count). One tiny
    key-bucketed merge re-applies the same reduction."""
    import polars as pl

    def _keep(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        out = (
            df.group_by(key)
            .agg(
                pl.all()
                .sort_by([order_by, tiebreak], descending=[True, False])
                .first()
            )
            .to_arrow()
        )
        # polars' group_by moves `key` first; restore the caller's column
        # order so the compacted schema is presentation-identical to the
        # input (and to the SQL mirror) — VERDICT r2 #4
        return out.select(t.schema.names)

    winners = ds.map_batches(
        _keep, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(winners, key, _keep, num_buckets=num_buckets)


def group_mode(
    ds: ray.data.Dataset,
    *,
    by: str,
    col: str,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Deterministic MODE per group: the most frequent ``col`` value
    (ties → lexicographic min value), plus its count and the group's
    total rows → ``(by, mode, n_mode, n_rows)``. SQL: ``row_number()
    OVER (PARTITION BY by ORDER BY n DESC, value) = 1`` over grouped
    counts — NOT the engine-defined ``mode()`` aggregate, whose
    tie-break is unspecified.

    Decomposable: per-block (by, value, count) partials collapse each
    block to its distinct pairs before the shuffle; one key-bucketed
    merge re-sums and takes the argmax vectorized. Raw rows never
    shuffle — a group appearing in every block ships (blocks × distinct
    values) partial rows, never its row count."""
    import polars as pl

    def _part_schema(t: pa.Table) -> pa.Schema:
        return pa.schema(
            [
                (by, t.schema.field(by).type),
                (col, t.schema.field(col).type),
                ("n", pa.int64()),
            ]
        )

    def _partial(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return _part_schema(t).empty_table()
        return (
            pl.from_arrow(t.select([by, col]))
            .group_by([by, col])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .to_arrow()
            .cast(_part_schema(t))
        )

    def _merge(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                (by, t.schema.field(by).type),
                ("mode", t.schema.field(col).type),
                ("n_mode", pa.int64()),
                ("n_rows", pa.int64()),
            ]
        )
        if not t.num_rows:
            return out_schema.empty_table()
        df = (
            pl.from_arrow(t)
            .group_by([by, col])
            .agg(pl.col("n").sum())
        )
        return (
            df.sort([by, "n", col], descending=[False, True, False])
            .group_by(by, maintain_order=True)
            .agg(
                pl.col(col).first().alias("mode"),
                pl.col("n").first().alias("n_mode"),
                pl.col("n").sum().alias("n_rows"),
            )
            .to_arrow()
            .cast(out_schema)
        )

    partials = ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, by, _merge, num_buckets=num_buckets)


def group_ranks(
    ds: ray.data.Dataset,
    *,
    by: str,
    col: str,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Exact SQL rank statistics per DISTINCT value per group, as pure
    integers: ``rnk`` (SQL ``RANK()``: 1 + rows strictly below),
    ``cume_n`` (rows ≤ value — the ``CUME_DIST`` numerator) and
    ``n_rows`` (group size). ``PERCENT_RANK = (rnk-1)/(n_rows-1)`` and
    ``CUME_DIST = cume_n/n_rows`` are driver-side division — floats never
    enter the shuffle or the oracle compare.

    Same decomposable (by, value, count) histogram as
    :func:`group_quantiles`: blocks reduce to per-block value counts, one
    key-bucketed merge, then a vectorized cumsum per group. Raw rows
    never shuffle; assumes each group's DISTINCT-value histogram fits in
    a reducer (bounded integer metrics — the intended use)."""
    import polars as pl

    def _partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).drop_nulls(subset=[col])
        return (
            df.group_by([by, col])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .rename({col: "value"})
            .to_arrow()
        )

    def _walk(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        if df.height == 0:
            return pa.table(
                {
                    by: pa.array([], t.schema.field(by).type),
                    "value": pa.array([], t.schema.field("value").type),
                    "rnk": pa.array([], pa.int64()),
                    "cume_n": pa.array([], pa.int64()),
                    "n_rows": pa.array([], pa.int64()),
                }
            )
        return (
            df.group_by([by, "value"])
            .agg(pl.col("n").sum())
            .sort([by, "value"])
            .with_columns(
                cume_n=pl.col("n").cum_sum().over(by),
                n_rows=pl.col("n").sum().over(by),
            )
            .with_columns(rnk=pl.col("cume_n") - pl.col("n") + 1)
            .select([by, "value", "rnk", "cume_n", "n_rows"])
            .to_arrow()
        )

    partials = ds.select_columns([by, col]).map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partials, by, _walk, num_buckets=num_buckets)


def value_quantiles_approx(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    *,
    k: int = 256,
    merge_batch: int = 256,
) -> ray.data.Dataset:
    """Approximate quantiles via the deterministic MRL compactor-chain
    sketch (`functions/qsketch.py`) — the scale path where
    :func:`value_quantiles`'s exact distinct-value histogram would BE
    the column (unbounded-cardinality floats). Rows
    (q_permille:int64, value:float64, n:int64, err_bound:int64);
    ``err_bound`` is the sketch's worst-case rank-error certificate.

    Per-block partial sketches (O(k·log(n/k)) each, the only thing that
    ever leaves a block) → in-dataset fan-in merge (``merge_batch``
    sketches per task) → tiny driver merge of the survivors. No shuffle
    of raw rows anywhere."""
    from ..functions.qsketch import QuantileSketch

    def _partial(t: pa.Table) -> pa.Table:
        s = QuantileSketch(k)
        s.add_batch(t[col].to_numpy(zero_copy_only=False))
        return pa.table({"sk": pa.array([s.serialize()], pa.binary())})

    def _merge_batch(t: pa.Table) -> pa.Table:
        s = QuantileSketch(k)
        for blob in t["sk"].to_pylist():
            s.merge(QuantileSketch.deserialize(blob))
        return pa.table({"sk": pa.array([s.serialize()], pa.binary())})

    parts = ds.select_columns([col]).map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    fanin = parts.map_batches(
        _merge_batch,
        batch_format="pyarrow",
        batch_size=merge_batch,
        zero_copy_batch=True,
    )
    final = QuantileSketch(k)
    for row in fanin.take_all():  # ≤ blocks/merge_batch rows — tiny
        final.merge(QuantileSketch.deserialize(row["sk"]))
    return ray.data.from_arrow(
        pa.table(
            {
                "q_permille": pa.array(
                    [int(round(q * 1000)) for q in qs], pa.int64()
                ),
                "value": pa.array([final.query(q) for q in qs]),
                "n": pa.array([final.n] * len(qs), pa.int64()),
                "err_bound": pa.array(
                    [final.err_bound] * len(qs), pa.int64()
                ),
            }
        )
    )


def frame_window(
    ds: ray.data.Dataset,
    *,
    by: str,
    order_cols: list[str],
    col: str,
    k: int,
    out_col: str,
    keep_cols: list[str],
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """SQL ROWS-frame window sum — ``sum(col) OVER (PARTITION BY by
    ORDER BY order_cols ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW)``.
    The complement of :func:`rolling_window` (RANGE frame): this one
    counts ROWS, so ``order_cols`` must be a total order within each
    partition or the result is non-deterministic.

    One ``by``-bucketed shuffle (the PARTITION BY floor); per bucket a
    vectorized polars sort + per-group rolling sum, one output row per
    input row."""
    import polars as pl

    def _win(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).sort([by] + order_cols)
        return (
            df.with_columns(
                pl.col(col)
                .rolling_sum(window_size=k, min_samples=1)
                .over(by)
                .alias(out_col)
            )
            .select(keep_cols + [out_col])
            .to_arrow()
        )

    return bucket_group_apply(ds, by, _win, num_buckets=num_buckets)


def group_string_agg(
    ds: ray.data.Dataset,
    *,
    by: str,
    col: str,
    sep: str = ",",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """SQL ``string_agg(col, sep ORDER BY col)``: per group, values
    joined in ascending ``col`` order (a deterministic total order as
    long as ``col`` orders totally within each group). Rows
    (by, agg:string).

    One ``by``-bucketed shuffle — the values themselves are the payload,
    so rows must move (the same floor SQL's string_agg has); per bucket
    the sort+join is vectorized polars. Assumes one group's rows fit in a
    reducer (every PARTITION BY implementation's assumption)."""
    import polars as pl

    def _agg(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        return (
            df.sort([by, col])
            .group_by(by, maintain_order=True)
            .agg(pl.col(col).cast(pl.String).str.join(sep).alias("agg"))
            .to_arrow()
        )

    return bucket_group_apply(
        ds.select_columns([by, col]), by, _agg, num_buckets=num_buckets
    )


def full_outer_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    right_on: str,
    key_out: str,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """FULL OUTER equi-join — the one join type a broadcast CANNOT
    express (unmatched RIGHT rows need the global view), so it goes
    through ONE co-bucketed shuffle: both sides hash-bucket on their key
    and each reducer emits matches plus both sides' orphans for its key
    range. Key columns coalesce into ``key_out``."""
    import polars as pl

    def _bucket(col: str):
        def f(t: pa.Table) -> pa.Array:
            return t[col].combine_chunks()

        return f

    def _j(lt: pa.Table, rt: pa.Table) -> pa.Table:
        ldf, rdf = pl.from_arrow(lt), pl.from_arrow(rt)
        out = ldf.join(
            rdf, left_on=on, right_on=right_on, how="full"
        ).with_columns(
            pl.coalesce([pl.col(on), pl.col(right_on)]).alias(key_out)
        )
        return out.drop([c for c in (on, right_on) if c != key_out]).to_arrow()

    return cobucket_apply(
        left, right, _bucket(on), _bucket(right_on), _j,
        num_buckets=num_buckets,
    )


def group_topk_rank(
    ds: ray.data.Dataset,
    *,
    by: str,
    sort_col: str,
    k: int,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Top-k per group WITH TIES — SQL ``QUALIFY rank() OVER (PARTITION
    BY by ORDER BY sort_col DESC) <= k`` (RANK semantics: every row tied
    at the boundary survives, unlike :func:`group_topk`'s row_number
    cut). Output keeps all input columns plus ``rnk``.

    Valid per-block combiner: a row's strictly-greater count within its
    block is ≤ its global count, so every global qualifier qualifies
    locally — pre-truncation keeps supersets and the merge re-ranks."""
    import polars as pl

    def _qual(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        return (
            df.with_columns(
                rnk=pl.col(sort_col)
                .rank(method="min", descending=True)
                .over(by)
                .cast(pl.Int64)
            )
            .filter(pl.col("rnk") <= k)
            .to_arrow()
        )

    pre = ds.map_batches(_qual, batch_format="pyarrow", zero_copy_batch=True)

    def _final(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).drop("rnk")
        return (
            df.with_columns(
                rnk=pl.col(sort_col)
                .rank(method="min", descending=True)
                .over(by)
                .cast(pl.Int64)
            )
            .filter(pl.col("rnk") <= k)
            .to_arrow()
        )

    return bucket_group_apply(pre, by, _final, num_buckets=num_buckets)


def winsorize_values(
    ds: ray.data.Dataset,
    col: str,
    *,
    keep_cols: list[str],
    lo_q: float = 0.01,
    hi_q: float = 0.99,
    out_col: str = "clipped",
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Winsorization: clip ``col`` to its EXACT [lo_q, hi_q] discrete
    quantiles (the outlier-taming step before scaling/training). The
    compute-stats-then-apply broadcast pattern: one decomposable
    histogram pass yields two scalar thresholds (``value_quantiles``'s
    quantile_disc rule), which ship to a stateless clip map — the corpus
    is never shuffled."""
    qv = {
        round(r["q"], 6): r["value"]
        for r in value_quantiles(
            ds, col, [lo_q, hi_q], num_buckets=num_buckets
        ).take_all()
    }
    lo, hi = qv[round(lo_q, 6)], qv[round(hi_q, 6)]

    def _clip(t: pa.Table) -> pa.Table:
        c = pc.max_element_wise(
            pc.min_element_wise(t[col], pa.scalar(hi)), pa.scalar(lo)
        )
        return pa.table(
            {**{k: t[k] for k in keep_cols}, out_col: c}
        )

    return ds.map_batches(
        _clip, batch_format="pyarrow", zero_copy_batch=True
    )


def ntile_window(
    ds: ray.data.Dataset,
    *,
    by: str,
    order_cols: list[str],
    k: int,
    keep_cols: list[str],
    out_col: str = "tile",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """SQL ``NTILE(k) OVER (PARTITION BY by ORDER BY order_cols)`` with
    SQL's exact bucket-size rule: base = n//k rows per tile, the first
    n%k tiles get one extra. ``order_cols`` must be a total order per
    partition (include a unique tiebreak column) or the assignment is
    not deterministic — same contract as SQL.

    One `by`-bucketed shuffle; rank and tile arithmetic are vectorized
    int ops per bucket."""

    def _nt(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t).sort([by] + order_cols)
        df = df.with_columns(
            pl.int_range(1, pl.len() + 1).over(by).alias("_r"),
            pl.len().over(by).alias("_n"),
        )
        base = pl.col("_n") // k
        rem = pl.col("_n") % k
        big = rem * (base + 1)  # rows covered by the (base+1)-sized tiles
        tile = (
            pl.when(pl.col("_r") <= big)
            .then((pl.col("_r") - 1) // (base + 1) + 1)
            .otherwise(
                rem
                + (pl.col("_r") - 1 - big)
                // pl.max_horizontal(base, pl.lit(1))
                + 1
            )
            .cast(pl.Int64)
            .alias(out_col)
        )
        return df.with_columns(tile).select([by, *keep_cols, out_col]).to_arrow()

    cols = list(dict.fromkeys([by, *keep_cols, *order_cols]))
    return bucket_group_apply(
        ds.select_columns(cols), by, _nt, num_buckets=num_buckets
    )


def global_rank(
    ds: ray.data.Dataset,
    *,
    order_col: str,
    tie_col: str,
    k: int | None = None,
    num_buckets: int = 64,
    out_rank: str = "rnk",
    out_tile: str = "tile",
    keep_order: bool = False,
) -> ray.data.Dataset:
    """Exact GLOBAL ``row_number() OVER (ORDER BY order_col, tie_col)``
    (and, with ``k``, ``ntile(k)`` over the same order) — the TeraSort
    shape, with no single-reducer global sort anywhere:

    1. boundary candidates: per-block local quantiles of ``order_col``
       (a pruned single-column scan) merge into ``num_buckets-1`` range
       cut points on the driver (tiny, O(blocks × 33) floats).
       Boundaries affect BALANCE only, never correctness: bucket
       assignment uses ``order_col`` alone, so equal order values always
       share a range and the tie column never straddles buckets.
    2. per-block ``searchsorted`` range counts → driver prefix sum =
       the global rank offset of each range (``num_buckets`` ints, also
       a pruned one-column pass).
    3. rows shuffle ONCE, carrying only (order, tie, bucket); each range
       sorts locally and adds its offset — global rank without any
       cross-range coordination.

    ``tie_col`` must make (order, tie) a total order (same contract as
    deterministic SQL window ordering). NTILE uses SQL's exact rule:
    base = n//k rows per tile, the first n%k tiles get one extra."""
    proj = ds.select_columns([order_col, tie_col])

    def _cand(t: pa.Table) -> pa.Table:
        v = t[order_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if not len(v):
            return pa.table({"c": pa.array([], pa.float64())})
        qs = np.quantile(v, np.linspace(0.0, 1.0, 33))
        return pa.table({"c": pa.array(qs, pa.float64())})

    cand_parts = (
        ds.select_columns([order_col])
        .map_batches(_cand, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )  # documented tiny driver reduction: O(blocks) candidate rows
    cand = np.sort(np.asarray([r["c"] for r in cand_parts], dtype=np.float64))
    if len(cand):
        idx = np.linspace(0, len(cand) - 1, num_buckets + 1)[1:-1]
        bnd = np.unique(cand[idx.astype(np.int64)])
    else:
        bnd = np.empty(0, dtype=np.float64)

    def _counts(t: pa.Table) -> pa.Table:
        v = t[order_col].to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.searchsorted(bnd, v, side="right")
        n = np.bincount(b, minlength=len(bnd) + 1).astype(np.int64)
        return pa.table(
            {
                "b": pa.array(np.arange(len(n), dtype=np.int64)),
                "n": pa.array(n),
            }
        )

    parts = (
        ds.select_columns([order_col])
        .map_batches(_counts, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )  # tiny: num_buckets rows per block
    totals = np.zeros(len(bnd) + 1, dtype=np.int64)
    for r in parts:
        totals[r["b"]] += r["n"]
    offsets = np.concatenate(([0], np.cumsum(totals)[:-1]))
    n_total = int(totals.sum())

    def _with_bkt(t: pa.Table) -> pa.Table:
        v = t[order_col].to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.searchsorted(bnd, v, side="right")
        return t.append_column("_bkt", pa.array(b, pa.int64()))

    def _rank_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        out_schema = pa.schema(
            (
                [(order_col, t.schema.field(order_col).type)]
                if keep_order
                else []
            )
            + [
                (tie_col, t.schema.field(tie_col).type),
                (out_rank, pa.int64()),
            ]
            + ([(out_tile, pa.int64())] if k else [])
        )
        if not t.num_rows:
            return out_schema.empty_table()
        df = (
            pl.from_arrow(t)
            .sort(["_bkt", order_col, tie_col])
            .with_columns(
                (
                    pl.int_range(1, pl.len() + 1).over("_bkt")
                    + pl.col("_bkt").replace_strict(
                        {int(b): int(o) for b, o in enumerate(offsets)},
                        return_dtype=pl.Int64,
                    )
                ).alias(out_rank)
            )
        )
        if k:
            base, rem = divmod(n_total, k)
            big = rem * (base + 1)
            r = pl.col(out_rank)
            tile = (
                pl.when(r <= big)
                .then((r - 1) // (base + 1) + 1)
                .otherwise(rem + (r - 1 - big) // max(base, 1) + 1)
                .cast(pl.Int64)
                .alias(out_tile)
            )
            df = df.with_columns(tile)
        return (
            df.select([f.name for f in out_schema])
            .to_arrow()
            .cast(out_schema)
        )

    with_bkt = proj.map_batches(
        _with_bkt, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(
        with_bkt, "_bkt", _rank_bucket, num_buckets=num_buckets
    )


def equidepth_histogram(
    ds: ray.data.Dataset,
    *,
    value_col: str,
    tie_col: str,
    k: int = 8,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Equi-DEPTH histogram: SQL ``ntile(k) OVER (ORDER BY value, tie)``
    bucket boundaries — rows ``(tile, n:int64, lo, hi)`` with lo/hi the
    exact min/max VALUE inside each tile (selections, bit-exact for any
    type). The optimizer-statistics shape: equal-count bins expose
    skew that equal-width bins hide (one hot value fills whole tiles).

    Reuse of :func:`global_rank`'s rank machinery (range-partitioned,
    no single-reducer sort) with ``keep_order`` — the per-tile rollup
    is a per-block combiner over at most k partial rows followed by a
    k-row merge, so nothing but partials moves after the rank."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    ranked = global_rank(
        ds,
        order_col=value_col,
        tie_col=tie_col,
        k=k,
        num_buckets=num_buckets,
        keep_order=True,
    )

    def _schema(t: pa.Table) -> pa.Schema:
        return pa.schema(
            [
                ("tile", pa.int64()),
                ("n", pa.int64()),
                ("lo", t.schema.field(value_col).type),
                ("hi", t.schema.field(value_col).type),
            ]
        )

    def _partial(t: pa.Table) -> pa.Table:
        out_schema = _schema(t)
        if not t.num_rows:
            return out_schema.empty_table()
        return (
            pl.from_arrow(t.select(["tile", value_col]))
            .group_by("tile")
            .agg(
                pl.len().cast(pl.Int64).alias("n"),
                pl.col(value_col).min().alias("lo"),
                pl.col(value_col).max().alias("hi"),
            )
            .select(["tile", "n", "lo", "hi"])
            .to_arrow()
            .cast(out_schema)
        )

    def _merge(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("tile", pa.int64()),
                ("n", pa.int64()),
                ("lo", t.schema.field("lo").type),
                ("hi", t.schema.field("hi").type),
            ]
        )
        if not t.num_rows:
            return out_schema.empty_table()
        return (
            pl.from_arrow(t)
            .group_by("tile")
            .agg(
                pl.col("n").sum(),
                pl.col("lo").min(),
                pl.col("hi").max(),
            )
            .select(["tile", "n", "lo", "hi"])
            .to_arrow()
            .cast(out_schema)
        )

    partial = ranked.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(
        partial, "tile", _merge, num_buckets=min(k, 16)
    )


def group_corr_parts(
    ds: ray.data.Dataset,
    *,
    by: str,
    x_col: str,
    y_col: str,
    x_scale: int = 1,
    y_scale: int = 1,
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Per-group Pearson correlation kept as EXACT integer partials:
    rows ``(by, n, corr_num, corr_den_x, corr_den_y)`` where
    ``corr_num = n·Σxy − Σx·Σy`` and ``corr_den_* = n·Σ*² − (Σ*)²`` —
    ``r = corr_num / sqrt(corr_den_x · corr_den_y)`` at display time,
    ``sign(r) = sign(corr_num)`` with no floats anywhere. The same
    un-divided-moments discipline as ``events.event_trends``, lifted
    from (day, count) regression to row-level (x, y) pairs.

    x/y are scaled by the given powers of ten and rounded to int64
    (ties cannot arise when the source carries fewer decimals than the
    scale — the repo's cents convention). Fully decomposable: per-block
    six-sum partials per group, one group-bucketed merge. Overflow
    honesty: terms are bounded by n²·max|x|·max|y| — int64 holds groups
    up to ~4·10⁸ rows at (x ≤ 50, y ≤ 10)-sized domains; larger groups
    need a pre-aggregation or a wider accumulator, which this op does
    NOT silently do."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    SUMS = ["n", "sx", "sy", "sxy", "sxx", "syy"]
    PARTIAL = pa.schema(
        [(by, pa.string())] + [(c, pa.int64()) for c in SUMS]
    )
    OUT = pa.schema(
        [
            (by, pa.string()),
            ("n", pa.int64()),
            ("corr_num", pa.int64()),
            ("corr_den_x", pa.int64()),
            ("corr_den_y", pa.int64()),
        ]
    )

    def _partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select([by, x_col, y_col])).with_columns(
            x=(pl.col(x_col) * x_scale).round(0).cast(pl.Int64),
            y=(pl.col(y_col) * y_scale).round(0).cast(pl.Int64),
        )
        return (
            df.group_by(by)
            .agg(
                pl.len().cast(pl.Int64).alias("n"),
                pl.col("x").sum().alias("sx"),
                pl.col("y").sum().alias("sy"),
                (pl.col("x") * pl.col("y")).sum().alias("sxy"),
                (pl.col("x") * pl.col("x")).sum().alias("sxx"),
                (pl.col("y") * pl.col("y")).sum().alias("syy"),
            )
            .select([by] + SUMS)
            .to_arrow()
            .cast(PARTIAL)
        )

    def _merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        return (
            pl.from_arrow(t)
            .group_by(by)
            .agg([pl.col(c).sum() for c in SUMS])
            .select(
                by,
                "n",
                (pl.col("n") * pl.col("sxy") - pl.col("sx") * pl.col("sy"))
                .alias("corr_num"),
                (pl.col("n") * pl.col("sxx") - pl.col("sx") * pl.col("sx"))
                .alias("corr_den_x"),
                (pl.col("n") * pl.col("syy") - pl.col("sy") * pl.col("sy"))
                .alias("corr_den_y"),
            )
            .to_arrow()
            .cast(OUT)
        )

    partial = ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partial, by, _merge, num_buckets=num_buckets)


def group_weighted_median(
    ds: ray.data.Dataset,
    *,
    by: str,
    value_col: str,
    weight_col: str,
    value_scale: int = 1,
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Exact LOWER weighted median per group: the smallest scaled value
    v with ``2 · Σ_{u≤v} w(u) ≥ Σ w`` — rows ``(by, wmedian:int64,
    total_w:int64)``. The robust-statistics sibling of group_quantiles
    when observations carry multiplicities (revenue-weighted price
    centers, token-weighted doc stats) — no floats, no interpolation,
    SQL-mirrorable as a RANGE-framed cumulative window.

    Decomposable: per-block (group, value, Σw) partials collapse
    duplicates BEFORE the one group-bucketed shuffle (distinct values
    per group move, not rows); the reduce re-sums, sorts each group
    once and reads the crossing point off a vectorized cumsum."""
    import polars as pl

    from ..functions.shuffle import bucket_group_apply

    PARTIAL = pa.schema(
        [(by, pa.string()), ("v", pa.int64()), ("w", pa.int64())]
    )
    OUT = pa.schema(
        [(by, pa.string()), ("wmedian", pa.int64()), ("total_w", pa.int64())]
    )

    def _partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select([by, value_col, weight_col]))
            .with_columns(
                v=(pl.col(value_col) * value_scale).round(0).cast(pl.Int64),
                w=pl.col(weight_col).round(0).cast(pl.Int64),
            )
            .group_by([by, "v"])
            .agg(pl.col("w").sum())
            .select([by, "v", "w"])
            .to_arrow()
            .cast(PARTIAL)
        )

    def _median(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return OUT.empty_table()
        df = (
            pl.from_arrow(t)
            .group_by([by, "v"])
            .agg(pl.col("w").sum())
            .sort([by, "v"])
            .with_columns(
                cw=pl.col("w").cum_sum().over(by),
                tw=pl.col("w").sum().over(by),
            )
            .filter(2 * pl.col("cw") >= pl.col("tw"))
            .group_by(by)
            .agg(
                pl.col("v").min().alias("wmedian"),
                pl.col("tw").first().alias("total_w"),
            )
            .select([by, "wmedian", "total_w"])
        )
        return df.to_arrow().cast(OUT)

    partial = ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_group_apply(partial, by, _median, num_buckets=num_buckets)
