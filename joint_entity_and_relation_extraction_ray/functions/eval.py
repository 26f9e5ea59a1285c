"""Evaluation: span/triple exact-match P/R/F1 (SURVEY.md §2.1 R9/R10,
§2.2 J4 golden-diff) — distributed set intersection via joins, counts only
(never materializes the match set on the driver)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .joins import join_auto


def _distinct_on(ds: ray.data.Dataset, keys: list[str]) -> ray.data.Dataset:
    from ray.data.aggregate import Count

    return (
        ds.select_columns(keys)
        .groupby(keys)
        .aggregate(Count(alias_name="_c"))
        .select_columns(keys)
    )


def prf_counts_by(
    pred: ray.data.Dataset,
    gold: ray.data.Dataset,
    keys: list[str],
    by: str,
) -> ray.data.Dataset:
    """Per-group exact-match eval → (by, n_pred, n_gold, tp) rows.

    ``by`` must be one of ``keys``. Fully distributed: three small
    per-group count aggregates (distinct pred / distinct gold / their
    join) are unioned with zero-filled counterpart columns and summed —
    the match set itself never lands on the driver. Output is one row
    per group value seen on EITHER side (misses and spurious groups both
    appear, with tp=0)."""
    from ray.data.aggregate import Count, Sum

    if by not in keys:
        raise ValueError(f"{by!r} not in eval keys {keys}")
    p = _distinct_on(pred, keys).materialize()
    g = _distinct_on(gold, keys).materialize()
    tp = join_auto(p, g, on=tuple(keys))

    def _widen(which: str):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            z = pa.nulls(n, pa.int64()).fill_null(0)
            c = pc.cast(t["_c"], pa.int64())
            return pa.table(
                {
                    by: t[by],
                    "n_pred": c if which == "n_pred" else z,
                    "n_gold": c if which == "n_gold" else z,
                    "tp": c if which == "tp" else z,
                }
            )

        return f

    parts = []
    for ds, which in ((p, "n_pred"), (g, "n_gold"), (tp, "tp")):
        cnt = ds.groupby(by).aggregate(Count(alias_name="_c"))
        parts.append(
            cnt.map_batches(
                _widen(which), batch_format="pyarrow", zero_copy_batch=True
            )
        )
    merged = parts[0].union(parts[1], parts[2])
    out = merged.groupby(by).aggregate(
        Sum("n_pred", alias_name="n_pred"),
        Sum("n_gold", alias_name="n_gold"),
        Sum("tp", alias_name="tp"),
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                by: t[by],
                "n_pred": pc.cast(t["n_pred"], pa.int64()),
                "n_gold": pc.cast(t["n_gold"], pa.int64()),
                "tp": pc.cast(t["tp"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def prf_counts(
    pred: ray.data.Dataset, gold: ray.data.Dataset, keys: list[str]
) -> ray.data.Dataset:
    """→ one row (n_pred, n_gold, tp) of DISTINCT key-tuple counts.

    P = tp/n_pred, R = tp/n_gold (micro, exact-match) — derivable
    integers; the ≥0.95 contract checks them in pytest."""
    p = _distinct_on(pred, keys).materialize()
    g = _distinct_on(gold, keys).materialize()
    tp = join_auto(p, g, on=tuple(keys)).count()
    return ray.data.from_arrow(
        pa.table(
            {
                "n_pred": pa.array([p.count()], pa.int64()),
                "n_gold": pa.array([g.count()], pa.int64()),
                "tp": pa.array([tp], pa.int64()),
            }
        )
    )
