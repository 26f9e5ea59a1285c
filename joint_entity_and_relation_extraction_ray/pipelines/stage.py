"""The ``Stage`` protocol — the user-extension surface (SURVEY.md §2.2).

A pipeline is DATA: an ordered list of :class:`Stage` objects, each
declaring its ``name``, upstream ``deps``, optional ``input_schema`` /
``output_schema`` contracts, and an ``apply(upstream, ctx)`` that builds a
lazy ``ray.data.Dataset``. :func:`run_pipeline` executes the list —
directly, or through a :class:`~..state.checkpoint.Checkpointer` so every
stage boundary is a resumable parquet checkpoint with lineage; stages that
declare ``num_shards`` run through partition-level resume
(``run_partitioned``).

Custom scorers / linkers / any drop-in operator extend the engine by
replacing one Stage in the list (see ``pipelines/run.py::kg_stages`` and
tests/test_stage_protocol.py) — no pipeline code changes.
"""

from __future__ import annotations

import abc
from typing import Any, Mapping

import pyarrow as pa
import ray.data


class Stage(abc.ABC):
    """One named pipeline stage.

    Attributes
    ----------
    name: unique stage name (checkpoint directory + dependency key).
    deps: upstream stage names whose outputs feed ``apply``.
    input_schema / output_schema: optional declared contracts; the runner
        asserts the output contract (declared fields present, types equal)
        after each stage — schema drift fails fast at the boundary instead
        of deep inside a downstream shuffle.
    num_shards: when set, the stage runs at PARTITION granularity through
        ``Checkpointer.run_partitioned`` via ``apply_shard(k)`` /
        ``shard_params(k)``.
    """

    name: str
    deps: tuple[str, ...] = ()
    input_schema: pa.Schema | None = None
    output_schema: pa.Schema | None = None
    num_shards: int | None = None

    def params(self, ctx: Mapping[str, Any]) -> dict:
        """Lineage parameters (content digests, knobs) fingerprinted into
        this stage's checkpoint identity."""
        return {}

    @abc.abstractmethod
    def apply(
        self, upstream: dict[str, ray.data.Dataset], ctx: Mapping[str, Any]
    ) -> ray.data.Dataset:
        """Build this stage's (lazy) output from its upstream outputs."""

    def apply_shard(
        self,
        k: int,
        upstream: dict[str, ray.data.Dataset],
        ctx: Mapping[str, Any],
    ) -> ray.data.Dataset:
        """Shard k of a ``num_shards`` stage (partition-level resume)."""
        raise NotImplementedError(f"{self.name} does not shard")

    def shard_params(self, k: int, ctx: Mapping[str, Any]) -> dict:
        """Per-shard lineage parameters (e.g. that shard's input-file
        content digests) — lets ONE changed shard invalidate only itself."""
        return {}


def check_output_schema(
    ds: ray.data.Dataset, expected: pa.Schema, stage_name: str
) -> None:
    """Declared fields must exist with exactly the declared types."""
    got = ds.schema()
    types = dict(zip(got.names, got.types))
    for field in expected:
        if field.name not in types:
            raise ValueError(
                f"stage {stage_name!r}: output missing declared column "
                f"{field.name!r} (has {got.names})"
            )
        if types[field.name] != field.type:
            raise ValueError(
                f"stage {stage_name!r}: column {field.name!r} is "
                f"{types[field.name]} but the declared contract is {field.type}"
            )


def run_pipeline(
    stages: list[Stage],
    ctx: Mapping[str, Any] | None = None,
    *,
    checkpointer=None,
) -> dict[str, ray.data.Dataset]:
    """Execute a stage list in order → {stage name: output Dataset}.

    With ``checkpointer`` every stage runs through skip-if-done resume
    (partitioned stages at partition granularity); without it, stages
    build lazily in-process. Dependencies must appear earlier in the list.
    """
    ctx = ctx or {}
    out: dict[str, ray.data.Dataset] = {}
    for st in stages:
        missing = [d for d in st.deps if d not in out]
        if missing:
            raise ValueError(
                f"stage {st.name!r} depends on {missing} which have not run "
                "(stage list must be topologically ordered)"
            )
        ups = {d: out[d] for d in st.deps}
        if checkpointer is None:
            ds = st.apply(ups, ctx)
        elif st.num_shards is not None:
            ds = checkpointer.run_partitioned(
                st.name,
                lambda k, st=st, ups=ups: st.apply_shard(k, ups, ctx),
                num_parts=st.num_shards,
                params=st.params(ctx),
                part_params=lambda k, st=st: st.shard_params(k, ctx),
                deps=list(st.deps),
                schema=st.output_schema,
            )
        else:
            ds = checkpointer.run(
                st.name,
                lambda st=st, ups=ups: st.apply(ups, ctx),
                params=st.params(ctx),
                deps=list(st.deps),
                schema=st.output_schema,
            )
        if st.output_schema is not None:
            check_output_schema(ds, st.output_schema, st.name)
        out[st.name] = ds
    return out
