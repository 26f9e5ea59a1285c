"""Canonicalization: union-find connected components as iterative
groupby-aggregate shuffles (SURVEY.md §2.2 CC0–CC4; BASELINE.json:6
"iterative groupby-aggregate shuffles implementing union-find connected
components over co-referent mentions with explicit salting for hot-entity
skew").

Algorithm: **hash-to-min label propagation** (Kiveris et al., "Connected
components in MapReduce and beyond", SoCC 2014 — SURVEY.md §0.1 [CC]):

    label(v) ← min( label(v), min_{(v,u) ∈ E} label(u) )

iterated to fixpoint; converges in O(diameter) rounds. Our co-reference
graphs are stars glued at mentions (mention→entity, mention→group-rep), so
diameter ≤ 4 and the loop converges in ≤ 3 rounds; the generic loop also
handles chains/random graphs (tested vs a union-find oracle).

Skew: every per-key min-reduction is an explicitly SALTED two-phase
aggregate — groupby (key, salt) partial, then groupby (key) final — plus a
per-batch Arrow combiner, so a hot entity's million-edge fan-in reaches any
single reducer as at most ``num_salts`` rows ([SKEW], SURVEY.md §2.2 CC3).

Convergence detection is FUSED into the same per-iteration aggregate
(Min over candidate labels, Max over the old label) — no extra diff join.

Per-iteration state (the label table, one row per node) is materialized —
O(|V|), block-distributed, spillable; the symmetrized edge table is
materialized once and reused across iterations. The checkpointed pipeline
variant lands these in per-stage parquet instead (SURVEY.md §4.4).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Max, Min

from ..functions.joins import join_auto
from ..functions.text import normalize_surface_array
from ..schema import CANON, stable_bucket

# Node-id namespace prefixes: entity nodes sort before mention nodes, so a
# cluster containing a linked entity always canonicalizes to the entity.
ENT_PREFIX, MEN_PREFIX = "e:", "m:"

def default_partitions() -> int:
    """Join/shuffle partition count: ~2× cluster CPUs, min 8. Callers
    override for very large inputs (SURVEY.md §4.3 'wide shuffles')."""
    try:
        return max(8, int(ray.cluster_resources().get("CPU", 4)) * 2)
    except Exception:
        return 8


DEFAULT_PARTITIONS = 16


def _partial_min_combiner(key: str, value: str, num_salts: int):
    """Per-batch Arrow combiner + salt column: each batch emits ≤ 1 row per
    (key, salt) — the first line of defense against hot keys."""

    def _fn(batch: pa.Table) -> pa.Table:
        salt = stable_bucket(batch[value].to_pylist(), num_salts)
        t = batch.select([key, value]).append_column(
            "salt", pa.array(salt, pa.int32())
        )
        agg = t.group_by([key, "salt"]).aggregate([(value, "min")])
        return agg.select([key, "salt", f"{value}_min"]).rename_columns(
            [key, "salt", value]
        )

    return _fn


def _salted_min(
    ds: ray.data.Dataset, key: str, value: str, *, num_salts: int = 16
) -> ray.data.Dataset:
    """groupby(key).min(value) with explicit hot-key salting (CC3).

    The per-block combiner groups by (key, salt) so a hot key's rows
    shrink inside every block before anything moves; the salt column is
    then DROPPED (its job is done) and one house bucket shuffle merges
    the ≤ blocks×salts partials per key. The house shuffle — rather than
    two native ``groupby().aggregate()`` exchanges — both halves the
    exchange count per CC/BFS iteration and emits no schema-less empty
    partitions (the native aggregate's empty blocks poisoned downstream
    unions with mixed schemas: VERDICT r2 #3's residual tail)."""
    from ..functions.shuffle import bucket_group_apply

    partial = ds.map_batches(
        _partial_min_combiner(key, value, num_salts),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).map_batches(
        lambda t: t.select([key, value]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def _reduce(t: pa.Table) -> pa.Table:
        agg = t.group_by([key]).aggregate([(value, "min")])
        return agg.select([key, f"{value}_min"]).rename_columns([key, value])

    return bucket_group_apply(partial, key, _reduce)


def connected_components(
    edges: ray.data.Dataset,
    *,
    max_iters: int = 25,
    num_salts: int = 16,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """(src, dst) edge Dataset → (node, label) Dataset at fixpoint.

    Isolated nodes must appear as self-edges. Deterministic: labels are
    lexicographic component minima.
    """
    num_partitions = num_partitions or default_partitions()
    edges = edges.map_batches(
        lambda t: pa.table(
            {
                "src": pa.concat_arrays(
                    [t["src"].combine_chunks(), t["dst"].combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [t["dst"].combine_chunks(), t["src"].combine_chunks()]
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()  # reused every iteration

    # init: label(v) = min(v, neighbors(v)) — first hash-to-min step, fused
    first = edges.map_batches(
        lambda t: pa.table(
            {"node": t["src"], "label": pc.min_element_wise(t["src"], t["dst"])}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    labels = _salted_min(first, "node", "label", num_salts=num_salts).materialize()

    for it in range(max_iters):
        # candidates for v: labels of its neighbors (join on edge src);
        # broadcast when the label table is small, shuffle join at scale
        prop = join_auto(
            edges,
            labels,
            on=("src",),
            right_on=("node",),
            num_partitions=num_partitions,
        ).map_batches(
            lambda t: pa.table(
                {
                    "node": t["dst"],
                    "label": t["label"],
                    # typed to the label column so CC works for any
                    # orderable node id type (string surfaces, int64 docs)
                    "old": pa.nulls(len(t), t.schema.field("label").type),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        old = labels.map_batches(
            lambda t: pa.table(
                {"node": t["node"], "label": t["label"], "old": t["label"]}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

        def _combine(batch: pa.Table, _salts=num_salts) -> pa.Table:
            salt = stable_bucket(batch["label"].to_pylist(), _salts)
            t = batch.append_column("salt", pa.array(salt, pa.int32()))
            agg = t.group_by(["node", "salt"]).aggregate(
                [("label", "min"), ("old", "max")]
            )
            return agg.select(["node", "salt", "label_min", "old_max"]).rename_columns(
                ["node", "salt", "label", "old"]
            )

        partial = (
            prop.union(old)
            .map_batches(_combine, batch_format="pyarrow", zero_copy_batch=True)
            .map_batches(
                lambda t: t.select(["node", "label", "old"]),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        )

        def _reduce(t: pa.Table) -> pa.Table:
            # same one-exchange house-shuffle merge as _salted_min (the
            # native two-phase aggregate emits schema-less empty
            # partitions that poison the next iteration's union)
            a = t.group_by(["node"]).aggregate(
                [("label", "min"), ("old", "max")]
            )
            return a.select(["node", "label_min", "old_max"]).rename_columns(
                ["node", "label", "old"]
            )

        from ..functions.shuffle import bucket_group_apply as _bga

        agg = _bga(partial, "node", _reduce).materialize()

        changed = agg.map_batches(
            lambda t: pa.table(
                {
                    "c": [
                        pc.sum(
                            pc.cast(pc.less(t["label"], t["old"]), pa.int64())
                        ).as_py()
                        or 0
                    ]
                }
            ),
            batch_format="pyarrow",
        ).sum("c")
        labels = agg.select_columns(["node", "label"])
        if not changed:
            break

        if it == 0:
            # star-shaped graphs converge on the next round already; defer
            # the extra pointer-jump join until convergence proves slow
            continue
        # pointer jumping: label(v) ← label(label(v)). Halves label-tree
        # depth each round → O(log diameter) rounds overall instead of
        # O(diameter) (Kiveris et al. [CC] §3, pointer-doubling variant).
        jump = join_auto(
            labels,
            labels.map_batches(
                lambda t: t.rename_columns(["label", "label2"]),
                batch_format="pyarrow",
            ),
            join_type="left_outer",
            num_partitions=num_partitions,
            on=("label",),
        ).map_batches(
            lambda t: pa.table(
                {"node": t["node"], "label": pc.coalesce(t["label2"], t["label"])}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        labels = jump.materialize()
    return labels


def _canonicalize_general(
    linked: ray.data.Dataset,
    *,
    num_salts: int = 16,
    num_partitions: int | None = None,
    **cc_kwargs,
) -> ray.data.Dataset:
    """Mention-graph CC canonicalization: T3 LINKED → T4 CANON with no
    smallness assumption about which nodes glue clusters. The pipeline
    canonicalizes through the contracted fused path (stages/fused.py);
    this path is its independent cross-check in tests/test_canonical.py.

    Scale design: the mention-level co-reference graph is CONTRACTED before
    the iterative CC — mentions collapse onto their (conv_id, surface)
    group representative (the group-min mention_id), and CC runs over the
    (rep, entity) graph only. CC node count is therefore
    O(distinct surface groups), not O(mentions) — the difference between a
    tractable and an intractable shuffle at 10^12 turns. Labels then join
    back to mentions on the rep key.

    Contraction preserves components and canonical labels exactly: a
    cluster's min mention is always one of the group reps (each rep is its
    group's min), and entity nodes (ENT_PREFIX) sort before mention nodes
    (MEN_PREFIX), so a cluster containing a linked entity canonicalizes to
    the (smallest) entity id; prefixes are stripped on emit (both 2 chars).
    """
    num_partitions = num_partitions or default_partitions()

    def _grp(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            t["conv_id"].combine_chunks(),
            normalize_surface_array(t["surface"].combine_chunks()),
            "\x00",
        )
        men = pc.binary_join_element_wise(MEN_PREFIX, t["mention_id"], "")
        ent = pc.binary_join_element_wise(ENT_PREFIX, t["cand_entity_id"], "")
        return pa.table({"grp": key, "mention": men, "entity": ent})

    # materialize the branch point: `grp` feeds BOTH the rep-aggregate and
    # the join below; leaving it lazy would re-execute the upstream linker
    # actor pool once per consumer (observed: pool respawn + CPU contention).
    # In the checkpointed pipeline this boundary is a parquet write instead.
    grp = linked.map_batches(
        _grp, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    rep = _salted_min(grp, "grp", "mention", num_salts=num_salts).map_batches(
        lambda t: t.rename_columns(["grp", "rep"]), batch_format="pyarrow"
    )
    m2re = join_auto(
        grp, rep, on=("grp",), num_partitions=num_partitions
    ).materialize()  # reused: contracted edge build + label join-back

    def _contract(t: pa.Table) -> pa.Table:
        # (rep → entity) edge per linked mention, (rep → rep) self-edge
        # otherwise; per-batch distinct as a cheap combiner
        e = pa.table({"src": t["rep"], "dst": pc.coalesce(t["entity"], t["rep"])})
        return e.group_by(["src", "dst"]).aggregate([])

    contracted = m2re.map_batches(
        _contract, batch_format="pyarrow", zero_copy_batch=True
    )
    labels = connected_components(
        contracted, num_salts=num_salts, num_partitions=num_partitions, **cc_kwargs
    )

    out = join_auto(
        m2re,
        labels,
        on=("rep",),
        right_on=("node",),
        num_partitions=num_partitions,
    )

    def _emit(t: pa.Table) -> pa.Table:
        member = pc.utf8_slice_codeunits(t["mention"], len(MEN_PREFIX))
        canon = pc.utf8_slice_codeunits(t["label"], len(ENT_PREFIX))
        return pa.table({"member_id": member, "canonical_id": canon}).cast(CANON)

    return out.map_batches(_emit, batch_format="pyarrow", zero_copy_batch=True)
