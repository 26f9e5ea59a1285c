"""Graph materialize: referential integrity + rollup invariants
(FIXTURES.md F6) on the sf0.001 end-to-end run, and the partitioned write
layout (SURVEY.md §2.2 S4)."""

import pyarrow.parquet as pq
import pytest

from joint_entity_and_relation_extraction_ray.pipelines import kg
from joint_entity_and_relation_extraction_ray.schema import stable_bucket


SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def graph(ray_session):
    return kg.run_kg(SF)


def test_edges_reference_nodes(graph):
    nodes = kg.to_table(graph["nodes"]).to_pandas()
    edges = kg.to_table(graph["edges"]).to_pandas()
    ids = set(nodes["entity_id"])
    assert set(edges["subj_id"]) <= ids
    assert set(edges["obj_id"]) <= ids
    assert (edges["weight"] >= 1).all()
    assert (edges["first_ts"] <= edges["last_ts"]).all()


def test_edge_weights_sum_to_triples(graph):
    triples = kg.to_table(graph["triples"])
    edges = kg.to_table(graph["edges"]).to_pandas()
    assert edges["weight"].sum() == triples.num_rows
    # dedup: edge key is unique
    assert not edges.duplicated(["subj_id", "pred", "obj_id"]).any()


def test_node_rollup(graph):
    nodes = kg.to_table(graph["nodes"]).to_pandas()
    linked = kg.to_table(graph["linked"])
    assert nodes["mention_count"].sum() == linked.num_rows
    # aliases sorted + distinct, and contain the node's own surfaces
    for al in nodes["aliases"].head(50):
        al = list(al)
        assert al == sorted(set(al))


def test_partitioned_write_layout(graph, tmp_path):
    from joint_entity_and_relation_extraction_ray.stages.graph import write_graph

    write_graph(graph["nodes"], graph["edges"], str(tmp_path))
    node_parts = sorted((tmp_path / "nodes").glob("part=*"))
    edge_parts = sorted((tmp_path / "edges").glob("part=*"))
    assert node_parts and edge_parts
    back = pq.read_table(str(tmp_path / "edges"))
    assert back.num_rows == kg.to_table(graph["edges"]).num_rows
    # `part` is the 64-way hash of the row's entity, however many reduce
    # tasks built the rows: every row sits in its key's directory, and
    # the directory set is the keys' bucket set
    for sub, key in (("edges", "subj_id"), ("nodes", "entity_id")):
        dirs = {
            d.name: pq.read_table(str(d), partitioning=None)[key].to_pylist()
            for d in (tmp_path / sub).glob("part=*")
        }
        ids = kg.to_table(graph[sub])[key].to_pylist()
        assert set(dirs) == {f"part={b}" for b in stable_bucket(ids, 64)}
        for name, keys in dirs.items():
            assert {f"part={b}" for b in stable_bucket(keys, 64)} == {name}


def test_two_hop_pred_counts(ray_session):
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        two_hop_pred_counts,
    )

    # a -p-> b -q-> c, a -p-> b -q-> d, x -q-> a -p-> b, b -q-> c (dup pred
    # pair via distinct vertices)
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": ["a", "b", "b", "x", "c"],
                "pred": ["p", "q", "q", "q", "r"],
                "obj_id": ["b", "c", "d", "a", "a"],
            }
        )
    ).repartition(3)
    got = {
        (r["pred1"], r["pred2"]): r["n_paths"]
        for r in two_hop_pred_counts(edges, num_buckets=4).take_all()
    }
    # pairs: (p,q) via a->b->{c,d}; (q,p) via x->a->b; (r,p) via c->a->b;
    # (q,r) via b->c->a
    assert got == {("p", "q"): 2, ("q", "p"): 1, ("r", "p"): 1, ("q", "r"): 1}


def test_pagerank_matches_dense_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import pagerank

    rng = np.random.default_rng(5)
    n_nodes, n_edges = 40, 160
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    # ensure at least one dangling node (no out-edges) and one source-only
    subj = np.where(subj == 7, 8, subj)  # node 7 never a source → dangling
    names = np.array([f"n{i:02d}" for i in range(n_nodes)])
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(names[subj]),
                "obj_id": pa.array(names[obj]),
            }
        )
    ).repartition(5)

    d, iters = 0.85, 12
    got = {
        r["node"]: r["rank"]
        for r in pagerank(edges, damping=d, iters=iters, num_buckets=8).take_all()
    }

    # dense numpy oracle over the same (deduplicated-node) graph
    present = sorted(set(names[subj]) | set(names[obj]))
    idx = {v: i for i, v in enumerate(present)}
    N = len(present)
    A = np.zeros((N, N))
    for s, o in zip(names[subj], names[obj]):
        A[idx[o], idx[s]] += 1.0
    out_deg = A.sum(axis=0)
    r = np.full(N, 1.0 / N)
    for _ in range(iters):
        dangling = r[out_deg == 0].sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = A @ np.where(out_deg > 0, r / out_deg, 0.0)
        r = (1 - d) / N + d * (contrib + dangling / N)
    assert set(got) == set(present)
    for v in present:
        assert abs(got[v] - r[idx[v]]) < 1e-9, v
    assert abs(sum(got.values()) - 1.0) < 1e-9


def test_personalized_pagerank_matches_dense_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import pagerank

    rng = np.random.default_rng(11)
    n_nodes, n_edges = 30, 120
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    subj = np.where(subj == 4, 5, subj)  # node 4 dangling
    names = np.array([f"p{i:02d}" for i in range(n_nodes)])
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(names[subj]),
                "obj_id": pa.array(names[obj]),
            }
        )
    ).repartition(4)

    d, iters = 0.85, 12
    seeds = ["p00", "p04"]  # includes the dangling node
    got = {
        r["node"]: r["rank"]
        for r in pagerank(
            edges, damping=d, iters=iters, num_buckets=8, seeds=seeds
        ).take_all()
    }

    present = sorted(set(names[subj]) | set(names[obj]))
    idx = {v: i for i, v in enumerate(present)}
    N = len(present)
    A = np.zeros((N, N))
    for s, o in zip(names[subj], names[obj]):
        A[idx[o], idx[s]] += 1.0
    out_deg = A.sum(axis=0)
    e_s = np.zeros(N)
    for s in seeds:
        e_s[idx[s]] = 1.0 / len(seeds)
    r = np.full(N, 1.0 / N)  # engine initializes uniform
    for _ in range(iters):
        dangling = r[out_deg == 0].sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = A @ np.where(out_deg > 0, r / out_deg, 0.0)
        r = d * contrib + e_s * ((1 - d) + d * dangling)
    assert set(got) == set(present)
    for v in present:
        assert abs(got[v] - r[idx[v]]) < 1e-9, v
    # total mass conserved under the personalized teleport too
    assert abs(sum(got.values()) - 1.0) < 1e-9
    # restart mass concentrates rank on/near the seeds
    assert got["p00"] > np.median(list(got.values()))


def test_hits_matches_dense_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import hits

    rng = np.random.default_rng(23)
    n_nodes, n_edges = 25, 90
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    names = np.array([f"h{i:02d}" for i in range(n_nodes)])
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(names[subj]),
                "obj_id": pa.array(names[obj]),
            }
        )
    ).repartition(4)

    iters = 8
    got = {
        r["node"]: (r["hub"], r["authority"])
        for r in hits(edges, iters=iters, num_buckets=8).take_all()
    }

    # dense oracle on the DISTINCT edge set (multi-edges collapse)
    pairs = sorted(set(zip(names[subj], names[obj])))
    present = sorted({u for u, _ in pairs} | {v for _, v in pairs})
    idx = {v: i for i, v in enumerate(present)}
    N = len(present)
    M = np.zeros((N, N))
    for u, v in pairs:
        M[idx[u], idx[v]] = 1.0
    h = np.ones(N)
    for _ in range(iters):
        a = M.T @ h
        a /= np.linalg.norm(a)
        h = M @ a
        h /= np.linalg.norm(h)
    assert set(got) == set(present)
    for v in present:
        assert abs(got[v][0] - h[idx[v]]) < 1e-9, ("hub", v)
        assert abs(got[v][1] - a[idx[v]]) < 1e-9, ("authority", v)


def test_hyperball_tracks_exact_bfs_balls(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        hyperball,
    )

    rng = np.random.default_rng(31)
    n_nodes, n_edges = 30, 70
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    names = np.array([f"b{i:02d}" for i in range(n_nodes)])
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(names[subj]),
                "obj_id": pa.array(names[obj]),
            }
        )
    ).repartition(4)

    hops = 3
    got = {
        r["node"]: r["reach_est"]
        for r in hyperball(edges, hops=hops, p=10, num_buckets=8).take_all()
    }

    # exact oracle: per-node BFS ball within `hops` over the same edges
    adj = {}
    for u, v in zip(names[subj], names[obj]):
        adj.setdefault(u, set()).add(v)
    present = sorted(set(names[subj]) | set(names[obj]))
    for v in present:
        ball = {v}
        frontier = {v}
        for _ in range(hops):
            frontier = {
                w for u in frontier for w in adj.get(u, ())
            } - ball
            ball |= frontier
        exact = len(ball)
        est = got[v]
        # p=10 linear-counting regime: tiny sets estimate near-exactly
        assert abs(est - exact) <= max(1, 0.1 * exact), (v, est, exact)
    assert set(got) == set(present)


def test_harmonic_centrality_tracks_exact(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        harmonic_centrality_est,
    )

    rng = np.random.default_rng(37)
    n_nodes, n_edges = 24, 60
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    names = np.array([f"c{i:02d}" for i in range(n_nodes)])
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(names[subj]),
                "obj_id": pa.array(names[obj]),
            }
        )
    ).repartition(4)

    hops = 3
    got = {
        r["node"]: r["harmonic"]
        for r in harmonic_centrality_est(
            edges, hops=hops, p=10, num_buckets=8
        ).take_all()
    }

    # exact truncated harmonic centrality: H(v) = sum over w with
    # d(w->v) = t <= hops of 1/t  (BFS on the REVERSED graph from v)
    radj = {}
    for u, v in zip(names[subj], names[obj]):
        radj.setdefault(v, set()).add(u)
    present = sorted(set(names[subj]) | set(names[obj]))
    for v in present:
        seen = {v}
        frontier = {v}
        H = 0.0
        for t in range(1, hops + 1):
            frontier = {
                w for u in frontier for w in radj.get(u, ())
            } - seen
            seen |= frontier
            H += len(frontier) / t
        est = got[v]
        assert abs(est - H) <= max(0.75, 0.15 * H), (v, est, H)
    assert set(got) == set(present)


def test_neighborhood_function_tracks_exact(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        neighborhood_function,
    )

    rng = np.random.default_rng(41)
    n_nodes, n_edges = 26, 60
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    names = np.array([f"n{i:02d}" for i in range(n_nodes)])
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(names[subj]),
                "obj_id": pa.array(names[obj]),
            }
        )
    ).repartition(3)

    hops = 3
    got = {
        r["hop"]: r["nf_est"]
        for r in neighborhood_function(
            edges, hops=hops, p=10, num_buckets=8
        ).take_all()
    }
    assert sorted(got) == list(range(hops + 1))

    adj = {}
    for u, v in zip(names[subj], names[obj]):
        adj.setdefault(u, set()).add(v)
    present = sorted(set(names[subj]) | set(names[obj]))
    exact = {t: 0 for t in range(hops + 1)}
    for v in present:
        ball, frontier = {v}, {v}
        exact[0] += 1
        for t in range(1, hops + 1):
            frontier = {
                w for u in frontier for w in adj.get(u, ())
            } - ball
            ball |= frontier
            exact[t] += len(ball)
    # N(t) must be monotone and track the exact sums within HLL error
    prev = 0
    for t in range(hops + 1):
        assert got[t] >= prev
        prev = got[t]
        assert abs(got[t] - exact[t]) <= max(2, 0.1 * exact[t]), (
            t, got[t], exact[t],
        )


def test_weighted_pagerank_matches_dense_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import pagerank

    rng = np.random.default_rng(43)
    n_nodes, n_edges = 20, 60
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    w = rng.integers(1, 9, n_edges).astype(np.int64)
    subj = np.where(subj == 3, 6, subj)  # node 3 dangling
    names = np.array([f"w{i:02d}" for i in range(n_nodes)])
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(names[subj]),
                "obj_id": pa.array(names[obj]),
                "weight": pa.array(w, pa.int64()),
            }
        )
    ).repartition(4)

    d, iters = 0.85, 10
    got = {
        r["node"]: r["rank"]
        for r in pagerank(
            edges, damping=d, iters=iters, num_buckets=8,
            weight_col="weight",
        ).take_all()
    }

    present = sorted(set(names[subj]) | set(names[obj]))
    idx = {v: i for i, v in enumerate(present)}
    N = len(present)
    A = np.zeros((N, N))
    for s, o, wi in zip(names[subj], names[obj], w):
        A[idx[o], idx[s]] += float(wi)
    out_w = A.sum(axis=0)
    r = np.full(N, 1.0 / N)
    for _ in range(iters):
        dangling = r[out_w == 0].sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = A @ np.where(out_w > 0, r / out_w, 0.0)
        r = (1 - d) / N + d * (contrib + dangling / N)
    assert set(got) == set(present)
    for v in present:
        assert abs(got[v] - r[idx[v]]) < 1e-9, v
    assert abs(sum(got.values()) - 1.0) < 1e-9


def test_fixed_point_pagerank_bit_exact_vs_int_reference(ray_session):
    """fixed_point=True: every rank equals the brute-force int64
    simulation EXACTLY (no tolerance) in all three modes — uniform,
    weighted, personalized — and tracks the float ranks to quantization
    error. This is the bit-reproducibility contract the DuckDB
    recursive-CTE oracles (kg_pagerank / kg_pagerank_weighted / kg_ppr)
    rely on."""
    from collections import defaultdict

    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import pagerank

    rng = np.random.default_rng(11)
    n_nodes, n_edges = 40, 160
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    subj = np.where(subj == 7, 8, subj)  # node 7 dangling
    w = rng.integers(1, 9, n_edges)
    names = np.array([f"n{i:02d}" for i in range(n_nodes)])
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(names[subj]),
                "obj_id": pa.array(names[obj]),
                "weight": pa.array(w, pa.int64()),
            }
        )
    ).repartition(5)

    SCALE, iters = 10**12, 10
    el = list(zip(names[subj], names[obj], (int(x) for x in w)))
    nodes = sorted({s for s, _, _ in el} | {d for _, d, _ in el})
    n = len(nodes)

    def _sim(weighted: bool, seeds=None):
        outd: dict = defaultdict(int)
        for s, _, ww in el:
            outd[s] += ww if weighted else 1
        rank = {v: SCALE // n for v in nodes}
        for _ in range(iters):
            dmass = sum(rank[v] for v in nodes if outd[v] == 0)
            sums: dict = defaultdict(int)
            for s, d, ww in el:
                num = rank[s] * ww if weighted else rank[s]
                sums[d] += num // outd[s]
            if seeds is None:
                rank = {
                    v: (
                        85 * sums[v]
                        + 85 * (dmass // n)
                        + 15 * (SCALE // n)
                    )
                    // 100
                    for v in nodes
                }
            else:
                sb = (15 * SCALE + 85 * dmass) // (100 * len(seeds))
                rank = {
                    v: (85 * sums[v]) // 100 + (sb if v in seeds else 0)
                    for v in nodes
                }
        return rank

    for kwargs, weighted, seeds in [
        ({}, False, None),
        ({"weight_col": "weight"}, True, None),
        ({"seeds": [nodes[0]]}, False, [nodes[0]]),
    ]:
        got = {
            r["node"]: r["rank"]
            for r in pagerank(
                edges, iters=iters, num_buckets=8, fixed_point=True, **kwargs
            ).take_all()
        }
        want = _sim(weighted, seeds)
        assert got == want, kwargs
        # quantization: fixed-point tracks the float path within n/SCALE
        fl = {
            r["node"]: r["rank"]
            for r in pagerank(edges, iters=iters, num_buckets=8, **kwargs).take_all()
        }
        for v in nodes:
            assert abs(got[v] / SCALE - fl[v]) < 1e-6, (v, kwargs)


def test_fixed_point_hits_bit_exact_vs_int_reference(ray_session):
    """hits(fixed_point=True): hub/authority equal the brute-force int64
    double-step simulation EXACTLY — the contract behind the kg_hits
    recursive-CTE oracle."""
    from collections import defaultdict

    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import hits

    rng = np.random.default_rng(23)
    n_nodes, n_edges = 30, 120
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    names = np.array([f"n{i:02d}" for i in range(n_nodes)])
    edges = ray.data.from_arrow(
        pa.table(
            {"subj_id": pa.array(names[subj]), "obj_id": pa.array(names[obj])}
        )
    ).repartition(4)

    SCALE, iters = 10**12, 6
    el = sorted({(s, o) for s, o in zip(names[subj], names[obj])})
    nodes = sorted({s for s, _ in el} | {d for _, d in el})
    hub = {v: SCALE for v in nodes}
    auth = {v: 0 for v in nodes}
    for _ in range(iters):
        araw: dict = defaultdict(int)
        for s, d in el:
            araw[d] += hub[s]
        T = sum(araw.values())
        D = (T + SCALE - 1) // SCALE if T else 1
        auth = {v: (araw[v] // D if T else 0) for v in nodes}
        hraw: dict = defaultdict(int)
        for s, d in el:
            hraw[s] += auth[d]
        T2 = sum(hraw.values())
        D2 = (T2 + SCALE - 1) // SCALE if T2 else 1
        hub = {v: (hraw[v] // D2 if T2 else 0) for v in nodes}

    got = {
        r["node"]: (r["hub"], r["authority"])
        for r in hits(
            edges, iters=iters, num_buckets=8, fixed_point=True
        ).take_all()
    }
    assert got == {v: (hub[v], auth[v]) for v in nodes}


def test_pagerank_iterative_checkpoint_resume(ray_session, tmp_path):
    import json

    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import pagerank

    rng = np.random.default_rng(47)
    names = np.array([f"r{i:02d}" for i in range(15)])
    subj = rng.integers(0, 15, 40)
    obj = rng.integers(0, 15, 40)
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(names[subj]),
                "obj_id": pa.array(names[obj]),
            }
        )
    ).repartition(3)

    straight = {
        r["node"]: r["rank"]
        for r in pagerank(edges, iters=8, num_buckets=4).take_all()
    }

    ck = tmp_path / "pr_state"
    # "killed" run: 4 iterations, snapshot every 2 → leaves iter=4 state
    pagerank(
        edges, iters=4, num_buckets=4,
        checkpoint_dir=str(ck), checkpoint_every=2,
    ).take_all()
    man = json.loads((ck / "pagerank.iter.manifest.json").read_text())
    assert man["iter"] == 4

    # rerun asking for the full 8: must RESUME at 4 (manifest advances to
    # 6 then 8) and converge to the uninterrupted result
    resumed = {
        r["node"]: r["rank"]
        for r in pagerank(
            edges, iters=8, num_buckets=4,
            checkpoint_dir=str(ck), checkpoint_every=2,
        ).take_all()
    }
    man = json.loads((ck / "pagerank.iter.manifest.json").read_text())
    assert man["iter"] == 8
    assert set(resumed) == set(straight)
    for v, r in straight.items():
        assert abs(resumed[v] - r) < 1e-12, v

    # different params (damping) must NOT resume from this state: the
    # result equals a fresh straight run at that damping
    other = {
        r["node"]: r["rank"]
        for r in pagerank(
            edges, iters=3, damping=0.5, num_buckets=4,
            checkpoint_dir=str(ck), checkpoint_every=10,
        ).take_all()
    }
    fresh = {
        r["node"]: r["rank"]
        for r in pagerank(edges, iters=3, damping=0.5, num_buckets=4).take_all()
    }
    for v, r in fresh.items():
        assert abs(other[v] - r) < 1e-12, v


def test_triangle_count_closed_forms(ray_session):
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        triangle_count,
    )

    def _edges(pairs):
        return ray.data.from_arrow(
            pa.table(
                {
                    "subj_id": pa.array([p[0] for p in pairs]),
                    "pred": pa.array(["r"] * len(pairs)),
                    "obj_id": pa.array([p[1] for p in pairs]),
                }
            )
        )

    def _n(ds):
        return ds.take_all()[0]["n_triangles"]

    # K4: C(4,3) = 4 triangles; direction/duplicates/self-loops ignored
    k4 = [(a, b) for a in "abcd" for b in "abcd" if a < b]
    assert _n(triangle_count(_edges(k4), num_buckets=4)) == 4
    # duplicated + reversed + self-loop edges collapse to the same K4
    noisy = k4 + [(b, a) for a, b in k4] + [("a", "a"), ("b", "b")]
    assert _n(triangle_count(_edges(noisy), num_buckets=4)) == 4
    # star graph: no triangles
    star = [("hub", f"v{i}") for i in range(10)]
    assert _n(triangle_count(_edges(star), num_buckets=4)) == 0
    # triangle + pendant edge
    tri = [("x", "y"), ("y", "z"), ("z", "x"), ("x", "w")]
    assert _n(triangle_count(_edges(tri), num_buckets=4)) == 1


def test_triangle_count_random_vs_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        triangle_count,
    )

    rng = np.random.default_rng(5)
    src = [f"n{int(i)}" for i in rng.integers(0, 60, 500)]
    dst = [f"n{int(i)}" for i in rng.integers(0, 60, 500)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(src),
                "pred": pa.array(["r"] * 500),
                "obj_id": pa.array(dst),
            }
        )
    )
    got = triangle_count(ds, num_buckets=8).take_all()[0]["n_triangles"]
    want = duckdb.sql(
        """
        WITH e AS (SELECT unnest(?) AS s, unnest(?) AS o),
        und AS (SELECT DISTINCT least(s, o) AS a, greatest(s, o) AS b
                FROM e WHERE s <> o)
        SELECT count(*) FROM und e1
        JOIN und e2 ON e2.a = e1.a AND e2.b > e1.b
        JOIN und e3 ON e3.a = e1.b AND e3.b = e2.b
        """,
        params=[src, dst],
    ).fetchone()[0]
    assert got == want


def test_degree_histogram_random_vs_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        degree_histogram,
    )

    rng = np.random.default_rng(17)
    n = 200
    src = [f"n{v}" for v in rng.integers(0, 30, n)]
    dst = [f"n{v}" for v in rng.integers(0, 30, n)]
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(src),
                "pred": pa.array(["r"] * n),
                "obj_id": pa.array(dst),
            }
        )
    ).repartition(5)
    got = {
        r["deg"]: r["n_nodes"]
        for r in degree_histogram(edges, num_buckets=4).take_all()
    }
    want = dict(
        duckdb.sql(
            """
            WITH und AS (
                SELECT DISTINCT least(s, d) AS a, greatest(s, d) AS b
                FROM (SELECT unnest(?) s, unnest(?) d) WHERE s <> d)
            SELECT deg, count(*) FROM (
                SELECT v, count(*) AS deg FROM
                    (SELECT a AS v FROM und UNION ALL SELECT b FROM und)
                GROUP BY v)
            GROUP BY deg
            """,
            params=[src, dst],
        ).fetchall()
    )
    assert got == want


def test_bfs_distances_random_vs_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        bfs_distances,
    )

    rng = np.random.default_rng(23)
    n = 120
    src = [f"n{v:02d}" for v in rng.integers(0, 40, n)]
    dst = [f"n{v:02d}" for v in rng.integers(0, 40, n)]
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(src),
                "pred": pa.array(["r"] * n),
                "obj_id": pa.array(dst),
            }
        )
    ).repartition(4)
    got = {
        r["node"]: r["dist"]
        for r in bfs_distances(edges, max_hops=4).take_all()
    }
    want = dict(
        duckdb.sql(
            """
            WITH RECURSIVE sym AS (
                SELECT s AS src, d AS dst
                FROM (SELECT unnest(?) s, unnest(?) d)
                UNION
                SELECT d, s FROM (SELECT unnest(?) s, unnest(?) d)),
            reach(node, hop) AS (
                SELECT (SELECT min(src) FROM sym), 0
                UNION
                SELECT sy.dst, r.hop + 1
                FROM reach r JOIN sym sy ON sy.src = r.node
                WHERE r.hop < 4)
            SELECT node, min(hop) FROM reach GROUP BY node
            """,
            params=[src, dst, src, dst],
        ).fetchall()
    )
    assert got == want
    # explicit source, tiny chain: a-b-c, isolated d (self-loop only)
    chain = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": ["a", "b", "d"],
                "pred": ["r"] * 3,
                "obj_id": ["b", "c", "d"],
            }
        )
    )
    got2 = {
        r["node"]: r["dist"]
        for r in bfs_distances(chain, source="a", max_hops=2).take_all()
    }
    assert got2 == {"a": 0, "b": 1, "c": 2}


def test_node_clustering_random_vs_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        node_clustering,
    )

    rng = np.random.default_rng(83)
    n = 220
    src = [f"n{v:02d}" for v in rng.integers(0, 25, n)]
    dst = [f"n{v:02d}" for v in rng.integers(0, 25, n)]
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(src),
                "pred": pa.array(["r"] * n),
                "obj_id": pa.array(dst),
            }
        )
    ).repartition(5)
    got = {
        r["node"]: (r["deg"], r["n_triangles"])
        for r in node_clustering(edges, num_buckets=4).take_all()
    }
    want = {
        v: (d, t)
        for v, d, t in duckdb.sql(
            """
            WITH und AS (
                SELECT DISTINCT least(s, d) AS a, greatest(s, d) AS b
                FROM (SELECT unnest(?) s, unnest(?) d) WHERE s <> d),
            degs AS (
                SELECT v, count(*) AS deg FROM
                    (SELECT a AS v FROM und UNION ALL SELECT b FROM und)
                GROUP BY v),
            tris AS (
                SELECT e1.a AS x, e1.b AS y, e2.b AS z
                FROM und e1
                JOIN und e2 ON e2.a = e1.a AND e2.b > e1.b
                JOIN und e3 ON e3.a = e1.b AND e3.b = e2.b),
            pertri AS (
                SELECT v, count(*) AS t FROM
                    (SELECT x AS v FROM tris UNION ALL
                     SELECT y FROM tris UNION ALL SELECT z FROM tris)
                GROUP BY v)
            SELECT degs.v, degs.deg, coalesce(pertri.t, 0)
            FROM degs LEFT JOIN pertri ON degs.v = pertri.v
            """,
            params=[src, dst],
        ).fetchall()
    }
    assert got == want
    assert sum(t for _, t in got.values()) % 3 == 0  # 3 corners/triangle


def test_merge_edges_equals_full_rebuild(ray_session):
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        build_edges,
        merge_edges,
    )

    def _rewritten(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "subj_id": [r[0] for r in rows],
                    "pred": [r[1] for r in rows],
                    "obj_id": [r[2] for r in rows],
                    "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
                }
            )
        )

    day1 = [("a", "p", "b", 10), ("a", "p", "b", 20), ("b", "q", "c", 5)]
    day2 = [("a", "p", "b", 1), ("c", "p", "a", 7), ("b", "q", "c", 99)]

    def _key(rows):
        return {
            (r["subj_id"], r["pred"], r["obj_id"]): (
                r["weight"],
                r["first_ts"],
                r["last_ts"],
            )
            for r in rows
        }

    merged = _key(
        merge_edges(
            build_edges(_rewritten(day1), num_buckets=4),
            build_edges(_rewritten(day2), num_buckets=4),
            num_buckets=4,
        ).take_all()
    )
    full = _key(build_edges(_rewritten(day1 + day2), num_buckets=4).take_all())
    assert merged == full
    assert merged[("a", "p", "b")][0] == 3  # weights added across days


def test_latest_assertion_keep_latest_semantics(ray_session):
    """SCD-1 compaction: newest ts wins per (subj, pred); equal-ts ties
    go to the MIN obj_id; groups split across blocks still merge to one
    survivor (associativity of keep-latest)."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        latest_assertion,
    )

    rows = [
        # (subj, pred, obj, ts)
        ("a", "p", "x", 10),
        ("a", "p", "y", 20),   # newest -> survives
        ("a", "p", "z", 20),   # same ts, 'y' < 'z' -> loses
        ("a", "q", "x", 5),    # different pred: own survivor
        ("b", "p", "w", 1),
    ]

    def tbl(rs):
        return pa.table(
            {
                "subj_id": [r[0] for r in rs],
                "pred": [r[1] for r in rs],
                "obj_id": [r[2] for r in rs],
                "ts": pa.array([r[3] for r in rs], pa.timestamp("us")),
            }
        )

    # split the hot (a, p) group across blocks on purpose
    ds = ray.data.from_arrow([tbl(rows[:2]), tbl(rows[2:])])
    got = sorted(
        (r["subj_id"], r["pred"], r["obj_id"], r["ts"].timestamp() * 1e6)
        for r in latest_assertion(ds, num_buckets=4).take_all()
    )
    assert [(s, p, o, int(t)) for s, p, o, t in got] == [
        ("a", "p", "y", 20),
        ("a", "q", "x", 5),
        ("b", "p", "w", 1),
    ]


def test_kcore_matches_bruteforce_peel(ray_session):
    """Iterative distributed peel vs the sequential peel oracle on a
    graph with a known core structure: a 4-clique (3-core), a triangle
    hanging off it (2-core), a path tail and an isolated star (peel to
    nothing for k=2), plus a self-loop that must NOT count as degree."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import kcore

    und = [
        # 4-clique a-b-c-d
        ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"),
        # triangle d-e-f
        ("d", "e"), ("e", "f"), ("f", "d"),
        # tail f-g-h
        ("f", "g"), ("g", "h"),
        # star i-(j,k,l)
        ("i", "j"), ("i", "k"), ("i", "l"),
        ("h", "h"),  # self-loop: ignored
    ]

    def brute(k):
        import collections

        edges = {frozenset(e) for e in und if e[0] != e[1]}
        while True:
            deg = collections.Counter()
            for e in edges:
                for v in e:
                    deg[v] += 1
            drop = {v for v in deg if deg[v] < k}
            if not drop:
                return {v: d for v, d in deg.items()}
            edges = {e for e in edges if not (e & drop)}

    t = pa.table(
        {
            "subj_id": [e[0] for e in und],
            "obj_id": [e[1] for e in und],
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 4) for i in range(0, len(und), 4)])
    for k in (2, 3):
        got = {
            r["node"]: r["deg"]
            for r in kcore(ds, k=k, num_buckets=4).take_all()
        }
        assert got == brute(k), k


def test_jaccard_similarity_closed_form(ray_session):
    """(u, v, n_common, deg_u, deg_v) on a known graph: star + triangle.
    Degrees are of the deduped UNDIRECTED simple graph (duplicate and
    reversed input edges collapse; self-loops ignored)."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        jaccard_similarity,
    )

    und = [
        ("h", "a"), ("h", "b"), ("h", "c"),      # hub h
        ("a", "b"),                               # a-b edge
        ("a", "h"),                               # reverse dup of h-a
        ("b", "b"),                               # self-loop: ignored
        ("x", "a"), ("x", "b"),                   # x shares {a,b} with h
    ]
    t = pa.table(
        {"subj_id": [e[0] for e in und], "obj_id": [e[1] for e in und]}
    )
    ds = ray.data.from_arrow([t.slice(i, 3) for i in range(0, len(und), 3)])
    got = {
        (r["u"], r["v"]): (r["n_common"], r["deg_u"], r["deg_v"])
        for r in jaccard_similarity(ds, min_common=2, num_buckets=4).take_all()
    }
    # neighbors: h:{a,b,c}, a:{h,b,x}, b:{h,a,x}, c:{h}, x:{a,b}
    assert got == {
        ("a", "b"): (2, 3, 3),   # share {h, x}
        ("h", "x"): (2, 3, 2),   # share {a, b}
    }


def test_label_propagation_two_cliques(ray_session):
    """Deterministic sync LPA: two 4-cliques joined by one bridge edge
    settle into two communities labeled by each clique's min node; the
    bridge endpoints stay with their own cliques (3 internal neighbors
    vs 1 bridge neighbor)."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        label_propagation,
    )

    c1 = ["a", "b", "c", "d"]
    c2 = ["w", "x", "y", "z"]
    und = [(u, v) for i, u in enumerate(c1) for v in c1[i + 1 :]]
    und += [(u, v) for i, u in enumerate(c2) for v in c2[i + 1 :]]
    und.append(("d", "w"))  # bridge
    t = pa.table(
        {"subj_id": [e[0] for e in und], "obj_id": [e[1] for e in und]}
    )
    ds = ray.data.from_arrow([t.slice(i, 5) for i in range(0, len(und), 5)])
    got = {
        r["node"]: r["label"]
        for r in label_propagation(ds, num_buckets=4).take_all()
    }
    assert {n: got[n] for n in c1} == {n: "a" for n in c1}
    assert {n: got[n] for n in c2} == {n: "w" for n in c2}


def test_negative_samples_contract(ray_session):
    """Corrupt-tail negatives: never a true edge or a self-corruption,
    objects drawn from the node universe, deterministic and
    layout-independent (1-block vs 3-block inputs agree exactly)."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        negative_samples,
    )

    und = [
        ("a", "p", "b"), ("a", "p", "c"), ("b", "q", "c"),
        ("c", "p", "d"), ("d", "q", "a"), ("e", "p", "a"),
    ]
    t = pa.table(
        {
            "subj_id": [e[0] for e in und],
            "pred": [e[1] for e in und],
            "obj_id": [e[2] for e in und],
        }
    )
    one = ray.data.from_arrow(t)
    three = ray.data.from_arrow([t.slice(0, 2), t.slice(2, 2), t.slice(4, 2)])
    got1 = sorted(
        (r["subj_id"], r["pred"], r["obj_id"])
        for r in negative_samples(one, k=3, num_buckets=4).take_all()
    )
    got3 = sorted(
        (r["subj_id"], r["pred"], r["obj_id"])
        for r in negative_samples(three, k=3, num_buckets=4).take_all()
    )
    assert got1 == got3                     # layout-independent
    assert got1                             # produced something
    pos = set(und)
    nodes = {x for e in und for x in (e[0], e[2])}
    for s, p, o in got1:
        assert (s, p, o) not in pos         # never a true edge
        assert o != s                       # never a self-corruption
        assert o in nodes                   # drawn from the universe
    assert len(set(got1)) == len(got1)      # distinct


def test_pred_daily_exact_distinct_convs(ray_session):
    import datetime as dt

    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        pred_daily,
    )

    def ts(day, hour):
        return dt.datetime(2026, 1, day, hour)

    rows = [
        # (conv_id, pred, ts)
        ("c1", "works_at", ts(1, 9)),
        ("c1", "works_at", ts(1, 10)),  # same conv, same day
        ("c2", "works_at", ts(1, 23)),
        ("c2", "works_at", ts(2, 0)),   # day boundary -> new day row
        ("c3", "located_in", ts(1, 5)),
    ]
    triples = ray.data.from_arrow(
        pa.table(
            {
                "conv_id": pa.array([r[0] for r in rows], pa.string()),
                "pred": pa.array([r[1] for r in rows], pa.string()),
                "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
            }
        )
    )
    out = (
        pred_daily(triples, num_buckets=4)
        .to_pandas()
        .sort_values(["pred", "day"])
        .reset_index(drop=True)
    )
    assert list(out["pred"]) == ["located_in", "works_at", "works_at"]
    assert [d.isoformat() for d in out["day"]] == [
        "2026-01-01",
        "2026-01-01",
        "2026-01-02",
    ]
    assert list(out["n_assertions"]) == [1, 3, 1]
    assert list(out["n_convs"]) == [1, 2, 1]


def test_merge_edges_monoid(ray_session):
    import datetime as dt

    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.schema import EDGES
    from joint_entity_and_relation_extraction_ray.stages.graph import (
        merge_edges,
    )

    def edges(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "subj_id": pa.array([r[0] for r in rows], pa.string()),
                    "pred": pa.array([r[1] for r in rows], pa.string()),
                    "obj_id": pa.array([r[2] for r in rows], pa.string()),
                    "weight": pa.array([r[3] for r in rows], pa.int64()),
                    "first_ts": pa.array(
                        [dt.datetime(2026, 1, r[4]) for r in rows],
                        pa.timestamp("us"),
                    ),
                    "last_ts": pa.array(
                        [dt.datetime(2026, 1, r[5]) for r in rows],
                        pa.timestamp("us"),
                    ),
                    "part": pa.array([0] * len(rows), pa.int32()),
                }
            ).cast(EDGES)
        )

    a = edges([("e1", "p", "e2", 3, 5, 9), ("e3", "p", "e4", 1, 2, 2)])
    b = edges([("e1", "p", "e2", 2, 1, 7)])  # same edge, earlier first_ts
    out = (
        merge_edges(a, b, num_buckets=4)
        .to_pandas()
        .sort_values(["subj_id", "obj_id"])
        .reset_index(drop=True)
    )
    assert list(out["subj_id"]) == ["e1", "e3"]
    assert list(out["weight"]) == [5, 1]
    assert [t.day for t in out["first_ts"]] == [1, 2]
    assert [t.day for t in out["last_ts"]] == [9, 2]
    # part recomputed from the merged subject, same rule as build_edges
    from joint_entity_and_relation_extraction_ray.schema import stable_bucket

    import numpy as np

    expect = stable_bucket(np.array(["e1", "e3"], dtype=object), 4)
    assert list(out["part"]) == list(expect)


def test_ego_subgraph_induced_semantics(ray_session):
    import datetime as dt

    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.schema import EDGES
    from joint_entity_and_relation_extraction_ray.stages.graph import (
        ego_subgraph,
    )

    # graph: a-b, b-c, a-d, c-e  (min node 'a'; 1-hop set {a, b, d})
    rows = [("a", "b"), ("b", "c"), ("a", "d"), ("c", "e")]
    ts = dt.datetime(2026, 1, 1)
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([r[0] for r in rows], pa.string()),
                "pred": pa.array(["p"] * len(rows), pa.string()),
                "obj_id": pa.array([r[1] for r in rows], pa.string()),
                "weight": pa.array([1] * len(rows), pa.int64()),
                "first_ts": pa.array([ts] * len(rows), pa.timestamp("us")),
                "last_ts": pa.array([ts] * len(rows), pa.timestamp("us")),
                "part": pa.array([0] * len(rows), pa.int32()),
            }
        ).cast(EDGES)
    )
    out = (
        ego_subgraph(edges, hops=1)
        .to_pandas()
        .sort_values(["subj_id", "obj_id"])
        .reset_index(drop=True)
    )
    # induced on {a,b,d}: a-b and a-d stay; b-c (c outside) and c-e drop
    assert list(map(tuple, out.itertuples(index=False))) == [
        ("a", "p", "b", 1),
        ("a", "p", "d", 1),
    ]
    # explicit seed: 1 hop around 'c' -> nodes {b, c, e} -> b-c, c-e
    out2 = (
        ego_subgraph(edges, source="c", hops=1)
        .to_pandas()
        .sort_values(["subj_id", "obj_id"])
        .reset_index(drop=True)
    )
    assert list(map(tuple, out2.itertuples(index=False))) == [
        ("b", "p", "c", 1),
        ("c", "p", "e", 1),
    ]


def _scc_ds(pairs):
    import pyarrow as pa
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([a for a, _ in pairs]),
                "obj_id": pa.array([b for _, b in pairs]),
            }
        )
    )


def _tarjan(pairs):
    """Iterative Tarjan oracle → {node: min-id-of-its-SCC}."""
    adj = {}
    nodes = set()
    for a, b in pairs:
        nodes.add(a)
        nodes.add(b)
        if a != b:
            adj.setdefault(a, []).append(b)
    index, low, onstk = {}, {}, set()
    stack, out, counter = [], {}, [0]
    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstk.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstk.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                elif w in onstk:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstk.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                m = min(comp)
                for w in comp:
                    out[w] = m
    return out


def test_scc_closed_form(ray_session):
    """Two cycles joined by a one-way bridge + a chain + a self-loop:
    the bridge must NOT merge the cycles, the chain is all singletons,
    the self-loop node is its own SCC."""
    from joint_entity_and_relation_extraction_ray.stages.graph import (
        strongly_connected_components,
    )

    pairs = [
        ("a", "b"), ("b", "c"), ("c", "a"),      # cycle 1
        ("c", "p"),                                # one-way bridge
        ("p", "q"), ("q", "r"), ("r", "p"),      # cycle 2
        ("x", "y"), ("y", "z"),                  # chain
        ("s", "s"),                                # self-loop
    ]
    got = {
        r["node"]: r["scc_id"]
        for r in strongly_connected_components(_scc_ds(pairs)).take_all()
    }
    want = _tarjan(pairs)
    assert got == want
    assert got["a"] == got["b"] == got["c"] == "a"
    assert got["p"] == got["q"] == got["r"] == "p"
    assert got["x"] == "x" and got["y"] == "y" and got["z"] == "z"
    assert got["s"] == "s"


def test_scc_random_vs_tarjan(ray_session):
    """Random directed graph (cyclic by construction) vs the Tarjan
    oracle — node universe, labels and singleton handling all exact."""
    import numpy as np

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        strongly_connected_components,
    )

    rng = np.random.default_rng(47)
    n = 120
    names = [f"n{i:03d}" for i in range(n)]
    pairs = [
        (names[int(a)], names[int(b)])
        for a, b in zip(
            rng.integers(0, n, 400), rng.integers(0, n, 400)
        )
    ]
    # guarantee some non-trivial cycles
    pairs += [(names[1], names[2]), (names[2], names[3]), (names[3], names[1])]
    got = {
        r["node"]: r["scc_id"]
        for r in strongly_connected_components(
            _scc_ds(pairs), num_buckets=8
        ).take_all()
    }
    assert got == _tarjan(pairs)


def test_sssp_weighted_prefers_cheap_detour(ray_session):
    """Weighted SSSP from min node 'a': the direct a→d edge costs 10 but
    the 3-hop detour a→b→c→d costs 3 — Bellman-Ford must return 3 (BFS
    would say 1 hop); the hop cap truncates longer paths."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        sssp_distances,
    )

    def edges(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "subj_id": pa.array([r[0] for r in rows]),
                    "obj_id": pa.array([r[1] for r in rows]),
                    "weight": pa.array([r[2] for r in rows], pa.int64()),
                }
            )
        )

    rows = [
        ("a", "d", 10),
        ("a", "b", 1),
        ("b", "c", 1),
        ("c", "d", 1),
        ("d", "e", 1),
        ("x", "y", 2),  # disconnected from 'a' — must not appear
    ]
    got = {
        r["node"]: r["dist"]
        for r in sssp_distances(edges(rows), max_hops=4).take_all()
    }
    assert got == {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}

    # hop cap 2: the cheap detour to d needs 3 edges, so within 2 hops
    # the direct weight-10 edge wins; e is reachable via d (10+1)
    capped = {
        r["node"]: r["dist"]
        for r in sssp_distances(edges(rows), max_hops=2).take_all()
    }
    assert capped == {"a": 0, "b": 1, "c": 2, "d": 10, "e": 11}


def test_sssp_parallel_edges_take_min(ray_session):
    """Two parallel (pred) edges between the same pair: the min-merge
    keeps the cheaper one without any pre-aggregation."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        sssp_distances,
    )

    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": ["a", "a"],
                "obj_id": ["b", "b"],
                "weight": pa.array([7, 3], pa.int64()),
            }
        )
    )
    got = {
        r["node"]: r["dist"] for r in sssp_distances(ds, max_hops=2).take_all()
    }
    assert got == {"a": 0, "b": 3}


def _kruskal(edge_list):
    """In-process Kruskal with union-find over the SAME strict total
    order the distributed Borůvka uses: (cost, 'u|v') — the unique-MST
    perturbation; the two algorithms must emit the identical forest."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    best = {}
    for u, v, c in edge_list:
        if u == v:
            continue
        a, b = sorted((u, v))
        if (a, b) not in best or c < best[(a, b)]:
            best[(a, b)] = c
    out = []
    for (u, v), c in sorted(
        best.items(), key=lambda kv: (kv[1], f"{kv[0][0]}|{kv[0][1]}")
    ):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            out.append((u, v, c))
    return sorted(out, key=lambda e: (e[2], e[0], e[1]))


def test_mst_matches_kruskal_random(ray_session):
    import random

    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        minimum_spanning_forest,
    )

    rng = random.Random(47)
    nodes = [f"n{i:02d}" for i in range(40)]
    raw = []
    for _ in range(160):
        u, v = rng.sample(nodes, 2)
        raw.append((u, v, rng.randint(1, 9)))  # heavy cost ties
    # a few disconnected islands + parallel edges
    raw += [("z1", "z2", 3), ("z2", "z3", 3), ("z1", "z2", 7)]

    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([e[0] for e in raw]),
                "obj_id": pa.array([e[1] for e in raw]),
                "weight": pa.array([e[2] for e in raw], pa.int64()),
            }
        )
    ).repartition(7)
    got = [
        (r["u"], r["v"], r["cost"])
        for r in minimum_spanning_forest(ds).take_all()
    ]
    want = _kruskal(raw)
    assert got == want
    # forest property: |edges| = |nodes| - |components|
    comp_nodes = set()
    for u, v, _ in raw:
        comp_nodes.update((u, v))


def test_mst_on_kg_edges(graph):
    from joint_entity_and_relation_extraction_ray.stages.graph import (
        minimum_spanning_forest,
    )

    edges = graph["edges"]
    pdf = kg.to_table(edges).to_pandas()
    raw = list(zip(pdf["subj_id"], pdf["obj_id"], pdf["weight"]))
    got = [
        (r["u"], r["v"], r["cost"])
        for r in minimum_spanning_forest(edges).take_all()
    ]
    assert got == _kruskal(raw)
    assert len(got) > 0


def _ktruss_ref(pairs, k):
    """In-process k-truss by repeated support peeling (the definition)."""
    from collections import defaultdict

    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    while edges:
        adj = defaultdict(set)
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        bad = {e for e in edges if len(adj[e[0]] & adj[e[1]]) < k - 2}
        if not bad:
            break
        edges -= bad
    return sorted(edges)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_ktruss_matches_reference_random(ray_session, k):
    import random

    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import ktruss

    rng = random.Random(11)
    nodes = [f"v{i:02d}" for i in range(24)]
    pairs = set()
    while len(pairs) < 90:
        u, v = rng.sample(nodes, 2)
        pairs.add((min(u, v), max(u, v)))
    pairs = sorted(pairs)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([p[0] for p in pairs]),
                "obj_id": pa.array([p[1] for p in pairs]),
            }
        )
    ).repartition(5)
    got = [(r["a"], r["b"]) for r in ktruss(ds, k=k).take_all()]
    assert got == _ktruss_ref(pairs, k)


def test_ktruss_on_kg_edges(graph):
    from joint_entity_and_relation_extraction_ray.stages.graph import ktruss

    edges = graph["edges"]
    pdf = kg.to_table(edges).to_pandas()
    pairs = list(zip(pdf["subj_id"], pdf["obj_id"]))
    got = [(r["a"], r["b"]) for r in ktruss(edges, k=3).take_all()]
    assert got == _ktruss_ref(pairs, 3)


def test_random_walks_match_reference_simulator(ray_session):
    """The distributed walker must reproduce the md5_60(node|step|walk)
    mod-degree next-hop rule exactly on an arbitrary graph."""
    import hashlib
    import random
    from collections import defaultdict

    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        random_walks,
    )

    rng = random.Random(23)
    nodes = [f"w{i:02d}" for i in range(18)]
    pairs = set()
    while len(pairs) < 40:
        u, v = rng.sample(nodes, 2)
        pairs.add((u, v))
    pairs = sorted(pairs)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([p[0] for p in pairs]),
                "obj_id": pa.array([p[1] for p in pairs]),
            }
        )
    ).repartition(4)

    N_WALKS, LENGTH = 2, 3
    got = sorted(
        (r["start"], r["walk"], r["step"], r["node"])
        for r in random_walks(ds, n_walks=N_WALKS, length=LENGTH).take_all()
    )

    adj = defaultdict(set)
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    adj = {k: sorted(vs) for k, vs in adj.items()}
    want = []
    for start in adj:
        for w in range(N_WALKS):
            node = start
            want.append((start, w, 0, node))
            for t in range(LENGTH):
                nbrs = adj[node]
                r = (
                    int(
                        hashlib.md5(f"{node}|{t}|{w}".encode()).hexdigest()[:15],
                        16,
                    )
                    % len(nbrs)
                )
                node = nbrs[r]
                want.append((start, w, t + 1, node))
    assert got == sorted(want)


def test_random_walks_frontier_parts_share_one_schema(ray_session, monkeypatch):
    """Step 0 (built from the degree table) and the later steps (polars
    join output) must union parts of one schema: mixed string /
    large_string parts make Ray warn about mixed RefBundle schemas."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        random_walks,
    )

    schemas = []
    union = ray.data.Dataset.union

    def spy(self, *others):
        schemas.extend(d.schema() for d in (self, *others))
        return union(self, *others)

    monkeypatch.setattr(ray.data.Dataset, "union", spy)
    ds = ray.data.from_arrow(
        pa.table({"subj_id": ["a", "b", "c"], "obj_id": ["b", "c", "a"]})
    )
    assert random_walks(ds, n_walks=2, length=2).count() == 3 * 2 * 3
    assert len(schemas) == 4
    first = schemas[0]
    assert first.types == [pa.large_string(), pa.int64(), pa.int64(), pa.large_string()]
    assert all(s == first for s in schemas)


EMPTY_GRAPH_RESULTS = {
    # one row of zeros
    "triangle_count": {"n_triangles": 0},
    "degree_assortativity_sums": {"m": 0, "s_sum": 0, "s_sq": 0, "s_prod": 0},
    "triadic_closure_times": {"n_triangles": 0, "sum_close_us": 0, "max_close_us": 0},
    "triad_census": {"n_triangles": 0, "n_with_mutual": 0, "n_cyclic": 0, "n_transitive": 0},
    "rich_club_edges": {"n_club": 0, "n_within": 0, "n_possible": 0},
    # no rows, typed columns
    "node_clustering": ["node", "deg", "n_triangles"],
    "edge_support": ["a", "b", "support"],
    "jaccard_similarity": ["u", "v", "n_common", "deg_u", "deg_v"],
    "label_propagation": ["node", "label"],
    "random_walks": ["start", "walk", "step", "node"],
    "degree_histogram": ["deg", "n_nodes"],
    "common_neighbor_counts": ["u", "v", "n_common"],
    "adamic_adar": ["u", "v", "n_common", "aa_e12", "ra_e12"],
    "ktruss": ["a", "b"],
    "triangle_close_stream": ["close_us"],
}


@pytest.mark.parametrize("rows", [[], [("x", "x")]], ids=["empty", "self_loop"])
def test_graph_operators_on_a_graph_without_edges(ray_session, rows):
    """An edge table with no edge between two distinct nodes (empty, or
    self-loops only) gives every undirected-graph operator its zero row
    or a typed empty result, not a KeyError."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.schema import EDGES
    from joint_entity_and_relation_extraction_ray.stages import graph as g

    t = pa.table(
        {
            "subj_id": [s for s, _ in rows],
            "pred": ["p"] * len(rows),
            "obj_id": [o for _, o in rows],
            "weight": [1] * len(rows),
            "first_ts": [0] * len(rows),
            "last_ts": [0] * len(rows),
            "part": [0] * len(rows),
        },
        schema=EDGES,
    )
    for op, want in EMPTY_GRAPH_RESULTS.items():
        out = getattr(g, op)(ray.data.from_arrow(t))
        if isinstance(want, dict):
            assert out.take_all() == [want], op
        else:
            assert out.count() == 0, op
            assert out.schema().names == want, op


def test_object_conflicts_and_functionality(ray_session):
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        object_conflicts,
        pred_functionality,
    )

    rows = [
        # s1 capital_of: two distinct objects (conflict), one duplicated
        ("s1", "capital_of", "x"),
        ("s1", "capital_of", "y"),
        ("s1", "capital_of", "y"),
        # s2 capital_of: functional
        ("s2", "capital_of", "z"),
        # s1 likes: multi-valued by nature
        ("s1", "likes", "a"),
        ("s1", "likes", "b"),
        ("s1", "likes", "c"),
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([r[0] for r in rows]),
                "pred": pa.array([r[1] for r in rows]),
                "obj_id": pa.array([r[2] for r in rows]),
            }
        )
    ).repartition(3)

    conf = [
        (r["subj_id"], r["pred"], r["n_objs"], r["min_obj"], r["max_obj"])
        for r in object_conflicts(ds).take_all()
    ]
    assert conf == [
        ("s1", "capital_of", 2, "x", "y"),
        ("s1", "likes", 3, "a", "c"),
    ]

    fn = {
        r["pred"]: (r["n_subjects"], r["n_functional"])
        for r in pred_functionality(ds).take_all()
    }
    assert fn == {"capital_of": (2, 1), "likes": (1, 0)}


def test_widest_path_prefers_fat_detour(ray_session):
    """From a: direct a-c edge of width 1, but a-b-c has bottleneck 5 —
    widest(c) = 5; b gets its direct 7; hop cap honored."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        widest_distances,
    )

    rows = [
        ("a", "c", 1),
        ("a", "b", 7),
        ("b", "c", 5),
        ("c", "d", 9),  # widest(d) = min over best path = 5 via a-b-c-d
        ("x", "y", 3),  # disconnected island — unreachable, absent
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([r[0] for r in rows]),
                "obj_id": pa.array([r[1] for r in rows]),
                "weight": pa.array([r[2] for r in rows], pa.int64()),
            }
        )
    ).repartition(3)
    got = {
        r["node"]: r["width"]
        for r in widest_distances(ds, max_hops=4).take_all()
    }
    assert got == {"b": 7, "c": 5, "d": 5}
    # hop cap: 1 hop only reaches direct neighbors at direct widths
    got1 = {
        r["node"]: r["width"]
        for r in widest_distances(ds, max_hops=1).take_all()
    }
    assert got1 == {"b": 7, "c": 1}


def test_skipgram_pairs_window_semantics(ray_session):
    """Window-2 pairs from two tiny hand-written walks, counted."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        skipgram_pairs,
    )

    # one start, one walk: a b c  (steps 0 1 2); another walk: a b
    rows = [
        ("a", 0, 0, "a"), ("a", 0, 1, "b"), ("a", 0, 2, "c"),
        ("a", 1, 0, "a"), ("a", 1, 1, "b"),
    ]
    walks = ray.data.from_arrow(
        pa.table(
            {
                "start": pa.array([r[0] for r in rows]),
                "walk": pa.array([r[1] for r in rows], pa.int64()),
                "step": pa.array([r[2] for r in rows], pa.int64()),
                "node": pa.array([r[3] for r in rows]),
            }
        )
    ).repartition(2)
    got = {
        (r["center"], r["context"]): r["cnt"]
        for r in skipgram_pairs(walks, window=2).take_all()
    }
    assert got == {
        ("a", "b"): 2, ("a", "c"): 1,
        ("b", "a"): 2, ("b", "c"): 1,
        ("c", "a"): 1, ("c", "b"): 1,
    }


def test_path_counts_closed_form(ray_session):
    """Triangle a-b-c plus pendant d on a: walk counts from a with
    hop cap 2 are fully enumerable by hand."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        path_counts,
    )

    rows = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([r[0] for r in rows]),
                "obj_id": pa.array([r[1] for r in rows]),
            }
        )
    ).repartition(2)
    got = {
        r["node"]: r["n_paths"]
        for r in path_counts(ds, source="a", max_hops=2).take_all()
    }
    # length-1 from a: b, c, d.  length-2: a-b-{a,c}, a-c-{a,b}, a-d-a
    # → a:3, b:1+1, c:1+1, d:1
    assert got == {"a": 3, "b": 2, "c": 2, "d": 1}


def test_entity_churn_closed_form(ray_session):
    import datetime as dt

    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        entity_churn,
    )

    def ts(d):
        return dt.datetime(2025, 1, d, 12, 0)

    # day1: A-B (A,B new).  day2: A-C (C new, A active).  day3: B-C.
    rows = [("A", "p", "B", ts(1)), ("A", "p", "C", ts(2)),
            ("B", "p", "C", ts(3)), ("A", "p", "B", ts(1))]  # dup pair
    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([r[0] for r in rows]),
                "pred": pa.array([r[1] for r in rows]),
                "obj_id": pa.array([r[2] for r in rows]),
                "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
            }
        )
    ).repartition(2)
    got = [
        (str(r["day"]), r["n_active"], r["n_new"])
        for r in entity_churn(ds).take_all()
    ]
    assert got == [
        ("2025-01-01", 2, 2),
        ("2025-01-02", 2, 1),
        ("2025-01-03", 2, 0),
    ]


def test_edge_support_closed_form(ray_session):
    """K4 on {a,b,c,d}: every edge sits in 2 triangles; pendant edge
    d-e (wait, use separate node x) has support 0."""
    import itertools

    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        edge_support,
    )

    nodes = ["a", "b", "c", "d"]
    rows = list(itertools.combinations(nodes, 2)) + [("d", "x")]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([r[0] for r in rows]),
                "obj_id": pa.array([r[1] for r in rows]),
            }
        )
    ).repartition(3)
    got = {
        (r["a"], r["b"]): r["support"]
        for r in edge_support(ds).take_all()
    }
    want = {p: 2 for p in itertools.combinations(nodes, 2)}
    want[("d", "x")] = 0
    assert got == want


def test_edge_lift_closed_form(ray_session):
    """3 edges, N=6 assertions: a→b w=3, a→c w=2, d→c w=1.
    n_s: a=5, d=1; n_o: b=3, c=3.
    lift_e6(a,b) = 3·6·1e6 // (5·3) = 1_200_000
    lift_e6(a,c) = 2·6·1e6 // (5·3) =   800_000
    lift_e6(d,c) = 1·6·1e6 // (1·3) = 2_000_000 (rare pair, high lift)."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        edge_lift,
    )

    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(["a", "a", "d"]),
                "pred": pa.array(["p", "p", "q"]),
                "obj_id": pa.array(["b", "c", "c"]),
                "weight": pa.array([3, 2, 1], pa.int64()),
            }
        )
    ).repartition(2)
    out = edge_lift(ds).take_all()
    got = {(r["subj_id"], r["obj_id"]): r["lift_e6"] for r in out}
    assert got == {
        ("a", "b"): 1_200_000,
        ("a", "c"): 800_000,
        ("d", "c"): 2_000_000,
    }
    # sorted desc by lift, and the masses ride along
    assert [r["lift_e6"] for r in out] == [2_000_000, 1_200_000, 800_000]
    assert {(r["subj_id"], r["n_s"]) for r in out} == {("a", 5), ("d", 1)}


def test_effective_diameter_clique_and_bounds(ray_session):
    """On a directed clique every ball saturates at hop 1, and the
    HyperBall registers are IDENTICAL from hop 1 on — so the 9/10
    threshold is crossed at t=1 regardless of HLL estimation error.
    On a random digraph the readout stays within [0, hops] and
    nf_max equals the neighborhood function's last value."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        effective_diameter,
        neighborhood_function,
    )

    names = [f"c{i}" for i in range(8)]
    pairs = [(u, v) for u in names for v in names if u != v]
    clique = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([p[0] for p in pairs]),
                "obj_id": pa.array([p[1] for p in pairs]),
            }
        )
    ).repartition(3)
    row = effective_diameter(clique, hops=3, num_buckets=4).take_all()[0]
    assert row["eff_diameter"] == 1
    assert row["nf_at_diameter"] == row["nf_max"]

    rng = np.random.default_rng(17)
    subj = rng.integers(0, 20, 50)
    obj = rng.integers(0, 20, 50)
    g = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([f"n{i}" for i in subj]),
                "obj_id": pa.array([f"n{i}" for i in obj]),
            }
        )
    ).repartition(3)
    row = effective_diameter(g, hops=4, num_buckets=4).take_all()[0]
    assert 0 <= row["eff_diameter"] <= 4
    nf = {
        r["hop"]: r["nf_est"]
        for r in neighborhood_function(g, hops=4, num_buckets=4).take_all()
    }
    assert row["nf_max"] == nf[4]


def test_betweenness_matches_exact_brandes(ray_session):
    """With every node as a source the sampled operator IS exact
    Brandes — compare against an in-process implementation (directed-
    pair accumulation over the same undirected simple graph, identical
    source set) on a random graph; nonzero sets and values must agree."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        betweenness_centrality,
    )

    rng = np.random.default_rng(23)
    n_nodes, n_edges = 14, 26
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    names = np.array([f"v{i:02d}" for i in range(n_nodes)])
    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": pa.array(names[subj]),
                "obj_id": pa.array(names[obj]),
            }
        )
    ).repartition(3)

    # undirected simple adjacency
    adj: dict[str, set[str]] = {}
    for u, v in zip(names[subj], names[obj]):
        if u != v:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    present = sorted(adj)

    got = {
        r["node"]: r["betweenness"]
        for r in betweenness_centrality(
            ds, n_sources=len(present), max_hops=8, num_buckets=4
        ).take_all()
    }

    # exact Brandes (directed-pair accumulation, all sources)
    from collections import deque

    bc = {v: 0.0 for v in present}
    for s in present:
        dist = {s: 0}
        sigma = {s: 1}
        order = []
        dq = deque([s])
        while dq:
            u = dq.popleft()
            order.append(u)
            for w in sorted(adj[u]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    sigma[w] = 0
                    dq.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
        delta = {v: 0.0 for v in order}
        for w in reversed(order):
            for u in adj[w]:
                if dist.get(u, -2) == dist[w] - 1:
                    delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
            if w != s:
                bc[w] += delta[w]

    want = {v: b for v, b in bc.items() if b > 0}
    assert set(got) == set(want)
    for v in want:
        assert abs(got[v] - want[v]) < 1e-9, (v, got[v], want[v])


def test_temporal_two_hop_counts(ray_session):
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        temporal_two_hop_counts,
    )

    us = 1_000_000
    # a -p(t=10)-> b -q(t=20)-> c   temporal (10 <= 20)
    # a -p(t=10)-> b -q(t=5)->  d   NOT temporal (10 > 5)
    # x -q(t=7)->  a -p(t=10)-> b   temporal; equality counts: e -r(t=3)->
    # a with hop2 at t=3 too
    edges = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": ["a", "b", "b", "x", "e", "a2"],
                "pred": ["p", "q", "q", "q", "r", "r"],
                "obj_id": ["b", "c", "d", "a", "a2", "z"],
                "first_ts": pa.array(
                    [10 * us, 20 * us, 5 * us, 7 * us, 3 * us, 3 * us],
                    pa.timestamp("us"),
                ),
            }
        )
    ).repartition(3)
    got = {
        (r["pred1"], r["pred2"]): (r["n_paths"], r["n_temporal"])
        for r in temporal_two_hop_counts(edges, num_buckets=4).take_all()
    }
    assert got == {
        ("p", "q"): (2, 1),   # b->c temporal, b->d not
        ("q", "p"): (1, 1),   # x->a->b, 7 <= 10
        ("r", "r"): (1, 1),   # e->a2->z, 3 <= 3 (ties are traversable)
    }


def test_validity_intervals_scd2_semantics(ray_session):
    """SCD-2 change-point timeline: same-ts collisions collapse to the
    min obj BEFORE change detection; runs of the same object compress to
    one interval; valid_to = next change's ts (null on the open row);
    groups split across blocks still stitch into one ordered timeline."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        validity_intervals,
    )

    rows = [
        # (subj, pred, obj, ts)
        ("a", "p", "x", 10),
        ("a", "p", "x", 20),   # same obj -> compressed into [10, 30)
        ("a", "p", "y", 30),   # change -> x closes at 30
        ("a", "p", "y", 30),   # duplicate assertion, no-op
        ("a", "p", "z", 40),   # same-ts tie below:
        ("a", "p", "w", 40),   # min('w','z') = 'w' wins ts=40 entirely
        ("a", "q", "k", 5),    # different pred: own open interval
        ("b", "p", "m", 1),
    ]

    def tbl(rs):
        return pa.table(
            {
                "subj_id": [r[0] for r in rs],
                "pred": [r[1] for r in rs],
                "obj_id": [r[2] for r in rs],
                "ts": pa.array([r[3] for r in rs], pa.timestamp("us")),
            }
        )

    # split the hot (a, p) group across blocks on purpose
    ds = ray.data.from_arrow([tbl(rows[:3]), tbl(rows[3:])])
    got = sorted(
        (
            r["subj_id"],
            r["pred"],
            r["obj_id"],
            int(r["valid_from"].timestamp() * 1e6),
            None
            if r["valid_to"] is None
            else int(r["valid_to"].timestamp() * 1e6),
        )
        for r in validity_intervals(ds, num_buckets=4).take_all()
    )
    assert got == [
        ("a", "p", "w", 40, None),
        ("a", "p", "x", 10, 30),
        ("a", "p", "y", 30, 40),
        ("a", "q", "k", 5, None),
        ("b", "p", "m", 1, None),
    ]


def test_regular_path_pairs_min_hop_semantics(ray_session):
    """RPQ p1·p2* on a hand graph: paths must START with a p1 edge, then
    0..K p2 edges; other predicates never traverse; hops = MINIMAL
    matching length even when a longer walk reaches the same pair; the
    star cap truncates deeper targets."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        regular_path_pairs,
    )

    # p1 = "follows", p2 = "knows" (lexicographic min/max of the preds)
    edges = [
        ("s", "follows", "a"),
        ("a", "knows", "b"),
        ("b", "knows", "c"),
        ("c", "knows", "d"),
        ("d", "knows", "e"),    # 5 hops total from s -> beyond cap 1+3
        ("s", "knows", "b"),    # p2 FIRST edge: must NOT start a match
        ("a", "ignored", "z"),  # middle predicate: never traversed
        ("b", "follows", "c"),  # second p1 source: pairs from b too
    ]
    t = pa.table(
        {
            "subj_id": [e[0] for e in edges],
            "pred": [e[1] for e in edges],
            "obj_id": [e[2] for e in edges],
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 2) for i in range(0, len(edges), 2)])
    got = sorted(
        (r["src"], r["dst"], r["hops"])
        for r in regular_path_pairs(ds, max_star_hops=3).take_all()
    )
    assert got == [
        ("b", "c", 1),          # follows
        ("b", "d", 2),          # follows.knows
        ("b", "e", 3),          # follows.knows.knows
        ("s", "a", 1),          # follows
        ("s", "b", 2),
        ("s", "c", 3),
        ("s", "d", 4),          # cap = 1 + 3 hops; e is out of reach
    ]


def test_belief_snapshot_point_in_time(ray_session):
    """Time travel: the snapshot at T returns exactly the interval
    covering T per (subj, pred) — closed rows need valid_to > T, open
    rows extend to +inf, groups first asserted AFTER T are absent, and
    a cutoff exactly ON a change ts sees the NEW object."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        belief_snapshot,
    )

    rows = [
        # (subj, pred, obj, ts): a/p changes x@10 -> y@30 -> z@50
        ("a", "p", "x", 10),
        ("a", "p", "y", 30),
        ("a", "p", "z", 50),
        ("b", "p", "m", 5),    # open interval, covers everything >= 5
        ("c", "p", "n", 40),   # first asserted after T=30 -> absent
    ]
    t = pa.table(
        {
            "subj_id": [r[0] for r in rows],
            "pred": [r[1] for r in rows],
            "obj_id": [r[2] for r in rows],
            "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 2) for i in range(0, len(rows), 2)])

    def snap(at):
        return sorted(
            (r["subj_id"], r["obj_id"])
            for r in belief_snapshot(ds, at_us=at, num_buckets=4).take_all()
        )

    assert snap(30) == [("a", "y"), ("b", "m")]   # boundary: new obj wins
    assert snap(29) == [("a", "x"), ("b", "m")]
    assert snap(60) == [("a", "z"), ("b", "m"), ("c", "n")]
    assert snap(4) == []
    # default cutoff = (5 + 50) // 2 = 27 -> x still believed
    assert sorted(
        (r["subj_id"], r["obj_id"])
        for r in belief_snapshot(ds, num_buckets=4).take_all()
    ) == [("a", "x"), ("b", "m")]


def test_snapshot_diff_added_changed_and_reverse(ray_session):
    """Release diff: unchanged groups emit nothing; a group first
    asserted between the cutoffs is 'added'; an object switch between
    them is 'changed' with both sides; swapping the cutoffs flips the
    diff ('added' becomes 'removed' — timelines only ever extend, so a
    forward diff can never remove)."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        snapshot_diff,
    )

    rows = [
        ("a", "p", "x", 10),   # changed: x@t1 -> y@t2
        ("a", "p", "y", 30),
        ("b", "p", "m", 5),    # unchanged across both cutoffs -> silent
        ("c", "p", "n", 25),   # added between t1=20 and t2=40
    ]
    t = pa.table(
        {
            "subj_id": [r[0] for r in rows],
            "pred": [r[1] for r in rows],
            "obj_id": [r[2] for r in rows],
            "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 2) for i in range(0, len(rows), 2)])

    got = sorted(
        (r["subj_id"], r["obj_before"], r["obj_after"], r["change"])
        for r in snapshot_diff(
            ds, t1_us=20, t2_us=40, num_buckets=4
        ).take_all()
    )
    assert got == [
        ("a", "x", "y", "changed"),
        ("c", None, "n", "added"),
    ]

    rev = sorted(
        (r["subj_id"], r["obj_before"], r["obj_after"], r["change"])
        for r in snapshot_diff(
            ds, t1_us=40, t2_us=20, num_buckets=4
        ).take_all()
    )
    assert rev == [
        ("a", "y", "x", "changed"),
        ("c", "n", None, "removed"),
    ]


def test_closure_rollup_counts_and_depth(ray_session):
    """p+ rollup on a chain with a branch and an off-predicate edge:
    n_desc = distinct reachable within the hop cap, depth = farthest
    min-hop; the other predicate contributes nothing; a 2-cycle makes a
    node its own descendant."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        closure_rollup,
    )

    edges = [
        # manages-chain a -> b -> c -> d, branch b -> e
        ("a", "manages", "b"),
        ("b", "manages", "c"),
        ("c", "manages", "d"),
        ("b", "manages", "e"),
        ("a", "other", "z"),    # different predicate: invisible to p+
        ("x", "manages", "y"),  # 2-cycle: both reach themselves
        ("y", "manages", "x"),
    ]
    t = pa.table(
        {
            "subj_id": [e[0] for e in edges],
            "pred": [e[1] for e in edges],
            "obj_id": [e[2] for e in edges],
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 2) for i in range(0, len(edges), 2)])
    got = sorted(
        (r["src"], r["n_desc"], r["depth"])
        for r in closure_rollup(ds, pred="manages", max_hops=4).take_all()
    )
    assert got == [
        ("a", 4, 3),  # b, c, d, e; d at depth 3
        ("b", 3, 2),  # c, e, d
        ("c", 1, 1),
        ("x", 2, 2),  # y at 1, itself at 2
        ("y", 2, 2),
    ]


def test_validity_intervals_incremental_equals_full(ray_session):
    """Incremental maintenance contract: folding a delta (including
    LATE data that rewrites history mid-group) into an existing
    timeline equals the full recompute; untouched groups pass through."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        validity_intervals,
        validity_intervals_incremental,
    )

    def tbl(rows):
        return pa.table(
            {
                "subj_id": [r[0] for r in rows],
                "pred": [r[1] for r in rows],
                "obj_id": [r[2] for r in rows],
                "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
            }
        )

    base = [
        ("a", "p", "x", 10), ("a", "p", "y", 30),
        ("b", "p", "m", 5), ("b", "p", "n", 20),
        ("c", "q", "k", 7),
    ]
    # delta: late-arriving a@20 (splits the x interval) + new group d
    delta = [("a", "p", "z", 20), ("d", "p", "w", 1)]

    base_ds = ray.data.from_arrow(tbl(base))
    delta_ds = ray.data.from_arrow(tbl(delta))
    old = validity_intervals(base_ds, num_buckets=4)

    def norm(ds):
        return sorted(
            (
                r["subj_id"], r["pred"], r["obj_id"],
                int(r["valid_from"].timestamp() * 1e6),
                None if r["valid_to"] is None
                else int(r["valid_to"].timestamp() * 1e6),
            )
            for r in ds.take_all()
        )

    inc = validity_intervals_incremental(
        base_ds, delta_ds, old, num_buckets=4
    )
    full = validity_intervals(
        ray.data.from_arrow(tbl(base + delta)), num_buckets=4
    )
    got, want = norm(inc), norm(full)
    assert got == want
    # the late row really rewrote history: x now closes at 20, z at 30
    assert ("a", "p", "x", 10, 20) in got and ("a", "p", "z", 20, 30) in got
    # untouched groups intact
    assert ("b", "p", "m", 5, 20) in got and ("c", "q", "k", 7, None) in got


def test_cutoff_helpers_raise_on_empty_stream(ray_session):
    """Parameter-free cutoffs over an empty assertion stream must fail
    loudly (a midpoint of nothing is meaningless), not emit a bogus
    snapshot."""
    import pyarrow as pa
    import pytest
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        belief_snapshot,
    )

    empty = ray.data.from_arrow(
        pa.schema(
            [
                ("subj_id", pa.string()),
                ("pred", pa.string()),
                ("obj_id", pa.string()),
                ("ts", pa.timestamp("us")),
            ]
        ).empty_table()
    )
    with pytest.raises(ValueError, match="empty"):
        belief_snapshot(empty).take_all()
    # explicit cutoff over empty input is fine: empty result, no error
    assert belief_snapshot(empty, at_us=5).take_all() == []


def test_bowtie_decomposition_closed_form(ray_session):
    """Broder bow-tie on a hand graph: a 3-cycle core, a 2-chain IN, a
    2-chain OUT, a tendril hanging off the IN path (never reaches the
    core), and a disconnected pair — exact class counts."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        bowtie_decomposition,
    )

    edges = [
        # core: c1 -> c2 -> c3 -> c1
        ("c1", "p", "c2"), ("c2", "p", "c3"), ("c3", "p", "c1"),
        # IN: i1 -> i2 -> c1
        ("i1", "p", "i2"), ("i2", "p", "c1"),
        # OUT: c2 -> o1 -> o2
        ("c2", "p", "o1"), ("o1", "p", "o2"),
        # tendril off the IN path: i1 -> t1 (t1 reaches nothing)
        ("i1", "p", "t1"),
        # disconnected: d1 -> d2
        ("d1", "p", "d2"),
    ]
    t = pa.table(
        {
            "subj_id": [e[0] for e in edges],
            "pred": [e[1] for e in edges],
            "obj_id": [e[2] for e in edges],
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 3) for i in range(0, len(edges), 3)])
    got = {
        r["cls"]: r["n_nodes"]
        for r in bowtie_decomposition(ds, num_buckets=4).take_all()
    }
    # core {c1,c2,c3}; in {i1,i2}; out {o1,o2}; other {t1,d1,d2}
    assert got == {"core": 3, "in": 2, "out": 2, "other": 3}


def test_rich_club_edges_closed_form(ray_session):
    """Rich club on a hand graph: k=3 selects the triangle hubs (degree
    3) over the pendant spokes (degree 1); all 3 within-club edges
    found; duplicate/reversed/self-loop edges collapse first."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        rich_club_edges,
    )

    edges = [
        # triangle of hubs (each also gets a pendant -> degree 3)
        ("h1", "p", "h2"), ("h2", "p", "h3"), ("h3", "p", "h1"),
        ("h2", "p", "h1"),   # reverse duplicate: must not double-count
        ("h1", "p", "h1"),   # self-loop: ignored
        ("h1", "p", "s1"), ("h2", "p", "s2"), ("h3", "p", "s3"),
    ]
    t = pa.table(
        {
            "subj_id": [e[0] for e in edges],
            "pred": [e[1] for e in edges],
            "obj_id": [e[2] for e in edges],
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 3) for i in range(0, len(edges), 3)])
    r = rich_club_edges(ds, k=3, num_buckets=4).take_all()[0]
    assert (r["n_club"], r["n_within"], r["n_possible"]) == (3, 3, 3)


def test_triadic_closure_times_closed_form(ray_session):
    """Temporal triangles: two triangles with known edge timestamps ->
    exact (count, sum, max) closure stats; reversed-duplicate edges
    take the MIN ts; the pendant edge creates no triangle."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        triadic_closure_times,
    )

    def ts(v):
        return v

    edges = [
        # triangle 1: ts 10, 20, 35 -> close 25
        ("a", "p", "b", 10), ("b", "p", "c", 20), ("a", "p", "c", 35),
        ("c", "p", "a", 50),   # reverse dup: min(35, 50) = 35 stands
        # triangle 2: ts 100, 100, 107 -> close 7
        ("x", "p", "y", 100), ("y", "p", "z", 100), ("x", "p", "z", 107),
        ("a", "p", "q", 1),    # pendant: no triangle
    ]
    t = pa.table(
        {
            "subj_id": [e[0] for e in edges],
            "pred": [e[1] for e in edges],
            "obj_id": [e[2] for e in edges],
            "first_ts": pa.array([e[3] for e in edges], pa.timestamp("us")),
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 3) for i in range(0, len(edges), 3)])
    r = triadic_closure_times(ds, num_buckets=4).take_all()[0]
    assert (r["n_triangles"], r["sum_close_us"], r["max_close_us"]) == (
        2,
        32,
        25,
    )


def test_reciprocity_lag_closed_form(ray_session):
    """Reciprocal lag: only mutually-asserted pairs count; lag = |first
    fwd − first bwd| with min over multi-pred duplicates; one-way pairs
    and self-loops contribute nothing."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        reciprocity_lag,
    )

    edges = [
        ("a", "p", "b", 10), ("b", "p", "a", 25),   # lag 15
        ("b", "q", "a", 40),                        # dup direction: min 25 stands
        ("c", "p", "d", 5), ("d", "p", "c", 5),     # lag 0
        ("e", "p", "f", 7),                         # one-way: ignored
        ("g", "p", "g", 1),                         # self-loop: ignored
    ]
    t = pa.table(
        {
            "subj_id": [e[0] for e in edges],
            "pred": [e[1] for e in edges],
            "obj_id": [e[2] for e in edges],
            "first_ts": pa.array([e[3] for e in edges], pa.timestamp("us")),
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 2) for i in range(0, len(edges), 2)])
    r = reciprocity_lag(ds, num_buckets=4).take_all()[0]
    assert (r["n_pairs"], r["sum_lag_us"], r["max_lag_us"]) == (2, 15, 15)


def test_triad_census_closed_form(ray_session):
    """Directed motif classes on hand triangles: one cyclic
    (a→b→c→a), one transitive (x→y, y→z, x→z), one with a mutual dyad;
    opposite directions split across blocks must still merge to a
    mutual flag."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        triad_census,
    )

    edges = [
        # cyclic triangle
        ("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a"),
        # transitive triangle
        ("x", "p", "y"), ("y", "p", "z"), ("x", "p", "z"),
        # mutual-dyad triangle: m<->n (directions in DIFFERENT blocks), n->o, m->o
        ("m", "p", "n"), ("o", "p", "m"),
        ("n", "p", "m"), ("n", "p", "o"),
    ]
    t = pa.table(
        {
            "subj_id": [e[0] for e in edges],
            "pred": [e[1] for e in edges],
            "obj_id": [e[2] for e in edges],
        }
    )
    ds = ray.data.from_arrow([t.slice(i, 2) for i in range(0, len(edges), 2)])
    r = triad_census(ds, num_buckets=4).take_all()[0]
    assert (
        r["n_triangles"],
        r["n_with_mutual"],
        r["n_cyclic"],
        r["n_transitive"],
    ) == (3, 1, 1, 1)


def test_kg_squares_closed_forms(ray_session):
    """4-cycle identity: a plain square counts 1; K4 counts 3; a
    pendant edge adds none; direction and duplicate edges are
    irrelevant (undirected simple collapse)."""
    import pyarrow as pa
    import ray.data

    def run(edge_list):
        t = pa.table(
            {
                "subj_id": [e[0] for e in edge_list],
                "pred": ["p"] * len(edge_list),
                "obj_id": [e[1] for e in edge_list],
            }
        )
        # go through the same derivation as the query, but on a local
        # edge table: reuse the stage function directly
        from joint_entity_and_relation_extraction_ray.stages.graph import (
            common_neighbor_counts,
        )

        cn = common_neighbor_counts(
            ray.data.from_arrow(t), min_common=2
        ).take_all()
        s = sum(r["n_common"] * (r["n_common"] - 1) // 2 for r in cn)
        return s // 2

    square = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    assert run(square) == 1
    assert run(square + [("x", "a")]) == 1          # pendant adds none
    k4 = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    assert run(k4) == 3
    assert run(k4 + [("b", "a"), ("a", "b")]) == 3  # dups/direction ignored


def test_adamic_adar_exact_vs_bruteforce(ray_session):
    """adamic_adar: AA/RA fixed-point scores equal the brute-force int
    reference exactly (the oracle-parity contract), common-neighbor
    counts match kg_jaccard's machinery."""
    import math
    from collections import defaultdict

    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        adamic_adar,
    )

    rng = np.random.default_rng(31)
    n_nodes, n_edges = 25, 90
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    names = np.array([f"n{i:02d}" for i in range(n_nodes)])
    edges = ray.data.from_arrow(
        pa.table(
            {"subj_id": pa.array(names[subj]), "obj_id": pa.array(names[obj])}
        )
    ).repartition(4)

    SCALE = 10**12
    und = {
        (min(s, o), max(s, o))
        for s, o in zip(names[subj], names[obj])
        if s != o
    }
    adj: dict = defaultdict(set)
    for a, b in und:
        adj[a].add(b)
        adj[b].add(a)
    want = {}
    nodes = sorted(adj)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            cn = adj[u] & adj[v]
            if len(cn) >= 2:
                aa = sum(
                    int(math.floor(float(SCALE) / math.log(len(adj[z]))))
                    for z in cn
                )
                ra = sum(SCALE // len(adj[z]) for z in cn)
                want[(u, v)] = (len(cn), aa, ra)

    got = {
        (r["u"], r["v"]): (r["n_common"], r["aa_e12"], r["ra_e12"])
        for r in adamic_adar(edges, min_common=2, num_buckets=8).take_all()
    }
    assert got == want


def test_katz_centrality_exact_vs_bruteforce(ray_session):
    """katz_centrality: integer walk counts with per-term shifts equal
    the dense brute-force reference exactly."""
    from collections import defaultdict

    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        katz_centrality,
    )

    rng = np.random.default_rng(41)
    n_nodes, n_edges = 20, 70
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    names = np.array([f"n{i:02d}" for i in range(n_nodes)])
    el = list(zip(names[subj], names[obj]))  # multi-edges COUNT
    edges = ray.data.from_arrow(
        pa.table(
            {"subj_id": pa.array(names[subj]), "obj_id": pa.array(names[obj])}
        )
    ).repartition(4)

    nodes = sorted({s for s, _ in el} | {d for _, d in el})
    w = {v: 1 for v in nodes}
    katz = {v: 0 for v in nodes}
    for k in range(1, 7):
        nxt: dict = defaultdict(int)
        for s, d in el:
            nxt[d] += w[s]
        w = {v: nxt[v] for v in nodes}
        for v in nodes:
            katz[v] += w[v] >> (2 * k)
    got = {
        r["node"]: r["katz_q"]
        for r in katz_centrality(edges, hops=6, num_buckets=8).take_all()
    }
    assert got == katz


def test_fixed_point_betweenness_tracks_float(ray_session):
    """betweenness_centrality(fixed_point=True): same node set as the
    float path, values within per-contribution quantization (1/scale ×
    path count), and total mass close."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages.graph import (
        betweenness_centrality,
    )

    rng = np.random.default_rng(51)
    n_nodes, n_edges = 24, 70
    subj = rng.integers(0, n_nodes, n_edges)
    obj = rng.integers(0, n_nodes, n_edges)
    names = np.array([f"n{i:02d}" for i in range(n_nodes)])
    edges = ray.data.from_arrow(
        pa.table(
            {"subj_id": pa.array(names[subj]), "obj_id": pa.array(names[obj])}
        )
    ).repartition(4)

    fl = {
        r["node"]: r["betweenness"]
        for r in betweenness_centrality(edges, n_sources=6).take_all()
    }
    fp = {
        r["node"]: r["betweenness"]
        for r in betweenness_centrality(
            edges, n_sources=6, fixed_point=True
        ).take_all()
    }
    assert set(fl) == set(fp)
    for v in fl:
        assert abs(fl[v] - fp[v]) < 1e-3, v


def _noisy_multigraph(seed: int = 29):
    """≤ 200 directed KG edges over 24 nodes with reverse duplicates,
    self-loops and multi-pred parallel edges (each with its own ts)."""
    import random

    rng = random.Random(seed)
    rows = []
    for _ in range(120):
        u, v = (f"n{rng.randrange(24):02d}" for _ in range(2))
        rows.append((u, rng.choice("pqr"), v, rng.randrange(10_000)))
    rows += [(v, "q", u, ts + 7) for u, _, v, ts in rows[:40]]  # reverse dups
    rows += [(u, "s", v, ts + 3) for u, _, v, ts in rows[40:60]]  # parallel
    rows += [(u, "p", u, 1) for u, *_ in rows[:10]]  # self-loops
    return rows


@pytest.mark.parametrize(
    "op",
    [
        "degree_assortativity_sums",
        "edge_support",
        "triad_census",
        "triadic_closure_times",
        "rich_club_edges",
    ],
)
def test_undirected_core_operators_random_vs_reference(ray_session, op):
    """Each operator over a noisy multigraph split into 5 blocks (so the
    cross-block merges run) equals a pure-Python reference on the same
    edges."""
    import itertools

    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages import graph

    rows = _noisy_multigraph()
    tbl = pa.table(
        {
            "subj_id": [r[0] for r in rows],
            "pred": [r[1] for r in rows],
            "obj_id": [r[2] for r in rows],
            "first_ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
        }
    )
    step = -(-len(rows) // 5)
    ds = ray.data.from_arrow(
        [tbl.slice(i, step) for i in range(0, len(rows), step)]
    )

    # reference: undirected simple graph, per-pair min ts, direction bits
    ts, dirs = {}, {}
    for u, _, v, t in rows:
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        ts[e] = min(ts.get(e, t), t)
        dirs.setdefault(e, set()).add(u < v)
    nbr = {}
    for a, b in ts:
        nbr.setdefault(a, set()).add(b)
        nbr.setdefault(b, set()).add(a)
    deg = {v: len(n) for v, n in nbr.items()}
    tris = [
        (x, y, z)
        for x, y, z in itertools.combinations(sorted(nbr), 3)
        if (x, y) in ts and (x, z) in ts and (y, z) in ts
    ]
    assert tris, "the fixture must contain triangles"

    got = getattr(graph, op)(ds, num_buckets=4).take_all()
    if op == "degree_assortativity_sums":
        ends = [(deg[a], deg[b]) for a, b in ts]
        want = [
            {
                "m": len(ends),
                "s_sum": sum(j + k for j, k in ends),
                "s_sq": sum(j * j + k * k for j, k in ends),
                "s_prod": sum(j * k for j, k in ends),
            }
        ]
    elif op == "edge_support":
        want = [
            {"a": a, "b": b, "support": len(nbr[a] & nbr[b])}
            for a, b in sorted(ts)
        ]
    elif op == "triad_census":
        n_mutual = n_cyclic = 0
        for tri in tris:
            dyads = list(itertools.combinations(tri, 2))
            if any(len(dirs[d]) == 2 for d in dyads):
                n_mutual += 1
                continue
            # each asymmetric dyad points at one endpoint; cyclic ⟺ all
            # three vertices have indegree 1
            heads = {b if True in dirs[(a, b)] else a for a, b in dyads}
            n_cyclic += len(heads) == 3
        want = [
            {
                "n_triangles": len(tris),
                "n_with_mutual": n_mutual,
                "n_cyclic": n_cyclic,
                "n_transitive": len(tris) - n_mutual - n_cyclic,
            }
        ]
    elif op == "triadic_closure_times":
        close = [
            max(ts[d] for d in itertools.combinations(tri, 2))
            - min(ts[d] for d in itertools.combinations(tri, 2))
            for tri in tris
        ]
        want = [
            {
                "n_triangles": len(close),
                "sum_close_us": sum(close),
                "max_close_us": max(close),
            }
        ]
    else:  # rich_club_edges, default k = 20
        club = set(sorted(deg, key=lambda v: (-deg[v], v))[:20])
        want = [
            {
                "n_club": len(club),
                "n_within": sum(a in club and b in club for a, b in ts),
                "n_possible": len(club) * (len(club) - 1) // 2,
            }
        ]
    assert got == want


def test_triangle_free_graph_operators(ray_session):
    """A graph with edges but no triangle: zero support and zero corner
    counts, not a missing-column error from an empty closed-wedge set."""
    import pyarrow as pa
    import ray.data

    from joint_entity_and_relation_extraction_ray.stages import graph

    pairs = [("h", f"s{i}") for i in range(5)] + [("s0", "t"), ("t", "u")]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "subj_id": [p[0] for p in pairs],
                "obj_id": [p[1] for p in pairs],
            }
        )
    )
    nodes = {v for p in pairs for v in p}
    assert graph.triangle_count(ds, num_buckets=4).take_all() == [
        {"n_triangles": 0}
    ]
    assert [
        (r["a"], r["b"], r["support"])
        for r in graph.edge_support(ds, num_buckets=4).take_all()
    ] == [(min(p), max(p), 0) for p in sorted(map(sorted, pairs))]
    assert {
        r["node"]: r["n_triangles"]
        for r in graph.node_clustering(ds, num_buckets=4).take_all()
    } == dict.fromkeys(nodes, 0)
    assert graph.ktruss(ds, k=3, num_buckets=4).take_all() == []
