"""Input guards raise real exceptions (ValueError), so they still fire
under ``python -O``, which strips ``assert`` statements."""

import pyarrow as pa
import pytest
import ray.data


def test_input_guards_raise_value_error(ray_session):
    from joint_entity_and_relation_extraction_ray.functions.eval import (
        prf_counts_by,
    )
    from joint_entity_and_relation_extraction_ray.functions.textstats import (
        hash_features,
    )
    from joint_entity_and_relation_extraction_ray.stages.relational import (
        grouped_sets,
    )

    ds = ray.data.from_arrow(pa.table({"a": ["x"], "v": [1]}))
    with pytest.raises(ValueError, match="sets must be non-empty"):
        grouped_sets(ds, by=["a"], sets=[], aggs={"n": ("v", "count")})
    with pytest.raises(ValueError, match="not in eval keys"):
        prf_counts_by(ds, ds, ["a"], by="v")
    docs = pa.table({"doc_id": ["d"], "text": ["a b"]})
    with pytest.raises(ValueError, match="k must divide 16"):
        hash_features(docs, k=3)
