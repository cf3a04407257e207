import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normloc as nl
from helpers import edges_of, floyd_warshall, maximal_ball_centers


@pytest.mark.parametrize(
    "kind,params",
    [
        ("cycle", {"n": 3}),
        ("cycle", {"n": 6}),
        ("cycle", {"n": 60}),
        ("path", {"n": 1}),
        ("path", {"n": 7}),
        ("grid", {"rows": 3, "cols": 3}),
        ("grid", {"rows": 1, "cols": 9}),
        ("grid", {"rows": 8, "cols": 8}),
        ("binary_tree", {"depth": 0}),
        ("binary_tree", {"depth": 4}),
    ],
)
def test_family_metric_matches_floyd_warshall(kind, params):
    sp = nl.generate_family(kind, params)
    oracle = floyd_warshall(sp.n, edges_of(sp))
    assert np.array_equal(sp.dist, oracle)


def test_cycle_distances_explicit():
    sp = nl.generate_family("cycle", {"n": 6})
    assert sp.dist[0, 3] == 3
    assert sp.dist[0, 5] == 1
    assert sp.dist.max() == 3


def test_binary_tree_child_layout():
    sp = nl.generate_family("binary_tree", {"depth": 3})
    assert sp.n == 15
    for i in range(7):
        assert sp.dist[i, 2 * i + 1] == 1
        assert sp.dist[i, 2 * i + 2] == 1
    # leaves in different top-level subtrees are far apart
    assert sp.dist[7, 14] == 6


def test_random_regular_is_regular_connected_deterministic():
    a = nl.generate_family("random_regular", {"n": 20, "d": 3}, seed=11)
    b = nl.generate_family("random_regular", {"n": 20, "d": 3}, seed=11)
    assert np.array_equal(a.dist, b.dist)
    degrees = (a.dist == 1).sum(axis=1)
    assert (degrees == 3).all()
    assert np.isfinite(a.dist.astype(float)).all()
    oracle = floyd_warshall(a.n, edges_of(a))
    assert np.array_equal(a.dist, oracle)


# sha256 of the little-endian int64 distance table, recorded when graphs
# were still drawn by the networkx generator: a seed keeps naming its graph.
# (10, 4, 14) and (10, 7, 2) depend on the pool check's swap; the first draw
# for (7, 2, 1) is disconnected.
@pytest.mark.parametrize(
    "n, d, seed, digest",
    [
        (20, 3, 11, "753a752de3ced719da25f97d01ba7d39980d62afa70e1495a6c3b563c4071560"),
        (50, 3, 5, "6c00949802fbbffa474bdf9ff7a1061277cbd60be170a35b2af74de30dea9499"),
        (64, 4, 3, "493ffe3c531bd669783acbc13f0ac78b2506623d3dba11262e06ddebc41160f0"),
        (10, 4, 14, "4a093b28728a503fc0192ff7add5ded55e5e81fd5628a548fa4ee3b3649a1bb7"),
        (10, 7, 2, "756d998b67a2ff5c7d6bfd3bfb180dc58480889b9a7442a26275d4b26adff94b"),
        (7, 2, 1, "a13f852cba486ec749efefa84b02cdf7a7d8ecfb5882e02352b829c48e5fa3d5"),
        (40, 9, 7, "6b31c1902ffb33a3998857ece2cec14b80eda914b86ec93ad875973e3bb674d4"),
        (2, 1, 0, "db7f8e2aa97f8d230fc0a6c6d68184ecfee02f4bd2e94dcb331c0d3d54ca5fe8"),
    ],
)
def test_random_regular_graph_fixed_per_seed(n, d, seed, digest):
    sp = nl.generate_family("random_regular", {"n": n, "d": d}, seed=seed)
    assert hashlib.sha256(sp.dist.astype("<i8").tobytes()).hexdigest() == digest


def test_random_regular_different_seeds_differ():
    a = nl.generate_family("random_regular", {"n": 20, "d": 3}, seed=1)
    b = nl.generate_family("random_regular", {"n": 20, "d": 3}, seed=2)
    assert not np.array_equal(a.dist, b.dist)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("cycle", {"n": 2}),
        ("path", {"n": 0}),
        ("grid", {"rows": 0, "cols": 2}),
        ("binary_tree", {"depth": -1}),
        ("random_regular", {"n": 5, "d": 3}),
        ("nonsense", {"n": 5}),
        ("cycle", {"n": 5, "extra": 1}),
        # every draw is disconnected
        ("random_regular", {"n": 4, "d": 1}),
    ],
)
def test_generate_family_rejects_bad_params(kind, params):
    with pytest.raises(nl.InvalidParams):
        nl.generate_family(kind, params, seed=0)


def test_huge_tree_depth_is_refused_before_its_point_count():
    # 2 ** (depth + 1) is never formed, so this returns at once.
    with pytest.raises(nl.DataError, match="exceed 67108864"):
        nl.generate_family("binary_tree", {"depth": 10**8})


def test_generate_family_rejects_non_integer_params():
    with pytest.raises(nl.FormatError):
        nl.generate_family("cycle", {"n": 5.5})
    with pytest.raises(nl.FormatError):
        nl.generate_family("grid", {"rows": 2, "cols": "3"})
    with pytest.raises(nl.FormatError):
        nl.generate_family("random_regular", {"n": 20, "d": 3}, seed=2.9)


def test_random_regular_needs_seed():
    with pytest.raises(nl.InvalidParams):
        nl.generate_family("random_regular", {"n": 8, "d": 3})


def test_from_graph_rejects_bad_edges():
    with pytest.raises(nl.UnknownPoint):
        nl.from_graph(3, [(0, 3)])
    with pytest.raises(nl.InvalidParams):
        nl.from_graph(3, [(1, 1)])
    with pytest.raises(nl.DisconnectedGraph):
        nl.from_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(nl.FormatError):
        nl.from_graph(3, [(0.5, 1), (1, 2)])
    with pytest.raises(nl.FormatError):
        nl.from_graph(3.0, [(0, 1), (1, 2)])


def test_ball_contents(c6, grid3):
    assert nl.ball(c6, 0, 1).tolist() == [0, 1, 5]
    assert nl.ball(c6, 2, 0).tolist() == [2]
    assert nl.ball(grid3, 4, 1).tolist() == [1, 3, 4, 5, 7]
    with pytest.raises(nl.UnknownPoint):
        nl.ball(c6, 6, 1)
    with pytest.raises(nl.FormatError):
        nl.ball(c6, 1.7, 1)
    with pytest.raises(nl.InvalidParams):
        nl.ball(c6, 0, -1)


@pytest.mark.parametrize(
    "kind, params, radii",
    [
        ("path", {"n": 9}, (0, 1, 2, 4, 8)),
        ("binary_tree", {"depth": 4}, (0, 1, 2, 3, 5, 8)),
        ("grid", {"rows": 4, "cols": 5}, (0, 1, 2, 3, 7)),
        ("cycle", {"n": 6}, (0, 1, 2, 3)),
    ],
)
def test_ball_index_maximal_centers_match_subset_check(kind, params, radii):
    sp = nl.generate_family(kind, params)
    for radius in radii:
        index = nl.ball_index(sp, radius)
        assert index.maximal.tolist() == maximal_ball_centers(sp, radius)
        for x in range(sp.n):
            assert np.array_equal(index.balls[x], nl.ball(sp, x, radius))
        assert index.sizes.tolist() == [len(b) for b in index.balls]
        assert np.array_equal(index.member, sp.dist[index.maximal] <= radius)


def test_ball_index_collapses_equal_balls(c6, btree6):
    # every ball of radius 3 on the 6-cycle is the whole space
    assert nl.ball_index(c6, 3).maximal.tolist() == [0]
    assert nl.ball_index(btree6, 6).maximal.tolist() == [0]
    assert len(nl.ball_index(btree6, 5).maximal) == 3
    with pytest.raises(nl.InvalidParams):
        nl.ball_index(c6, -1)


def test_geometry_profile(c6, grid3, p4):
    prof = nl.geometry_profile(c6, 1)
    assert [len(b) for b in nl.ball_index(c6, 1).balls] == [3] * 6
    assert prof.max_ball == 3
    assert prof.diameter == 3
    assert nl.geometry_profile(grid3, 1).max_ball == 5
    assert nl.geometry_profile(grid3, 1).diameter == 4
    assert nl.geometry_profile(p4, 1).max_ball == 3


def test_largest_distance(c6):
    largest = nl.space.largest_distance
    far = c6.dist == 3
    assert largest(c6, far) == 3 and type(largest(c6, far)) is int
    assert largest(c6, np.ix_([0, 1], [0, 1])) == 1
    assert largest(c6, ...) == 3
    halved = nl.FiniteMetricSpace(c6.labels, c6.dist / 2)
    assert largest(halved, far) == 1.5 and type(largest(halved, far)) is float
    for sp in (c6, halved):
        none = np.zeros((6, 6), dtype=bool)
        assert largest(sp, none) == 0 and type(largest(sp, none)) is int
        assert largest(sp, np.ix_([], [])) == 0


def test_integer_distances_leave_room_for_a_sum():
    # d(y, k) + d(k, z) of two admitted distances fits in int64
    limit = 2**62
    assert 2 * (limit - 1) <= np.iinfo(np.int64).max
    for big in (limit, -limit, 2**63 - 1, -(2**63)):
        with pytest.raises(nl.FormatError, match="2\\*\\*62"):
            nl.FiniteMetricSpace(("a", "b"), np.array([[0, big], [big, 0]]))
    with pytest.raises(nl.FormatError):
        nl.FiniteMetricSpace(
            ("a", "b"), np.array([[0, 2**63], [2**63, 0]], dtype=np.uint64)
        )
    ok = nl.FiniteMetricSpace(("a", "b"), [[0, limit - 1], [limit - 1, 0]])
    assert nl.validate_metric(ok) == []


def test_from_graph_refuses_a_table_past_the_entry_bound():
    n = int(np.sqrt(nl.space.MAX_TABLE_ENTRIES)) + 1
    with pytest.raises(nl.DataError, match="exceed"):
        nl.from_graph(n, [])


# Each family just past the bound of 8192 points, so that a check that
# came too late would only build a small edge list before failing.
@pytest.mark.parametrize(
    "kind, params",
    [
        ("cycle", {"n": 8193}),
        ("path", {"n": 8193}),
        ("grid", {"rows": 91, "cols": 91}),
        ("binary_tree", {"depth": 13}),
        ("random_regular", {"n": 8194, "d": 3}),
    ],
)
def test_families_past_the_entry_bound_build_no_edges(
    monkeypatch, kind, params
):
    assert math.isqrt(nl.space.MAX_TABLE_ENTRIES) == 8192

    def unreachable(*args, **kwargs):
        raise AssertionError("edges built before the size check")

    monkeypatch.setattr(nl.space, "from_graph", unreachable)
    monkeypatch.setattr(nl.space, "_regular_edges", unreachable)
    with pytest.raises(nl.DataError, match="exceed"):
        nl.generate_family(kind, params, seed=1)


def test_validate_metric_passes_on_families(c6, grid3, btree6):
    for sp in (c6, grid3, btree6):
        assert nl.validate_metric(sp) == []


def test_validate_metric_reports_violations():
    bad_diag = nl.FiniteMetricSpace(("a", "b"), [[1, 1], [1, 0]])
    assert any(p.startswith("diagonal:") for p in nl.validate_metric(bad_diag))

    asym = nl.FiniteMetricSpace(("a", "b"), [[0, 1], [2, 0]])
    assert any(p.startswith("symmetry:") for p in nl.validate_metric(asym))

    neg = nl.FiniteMetricSpace(("a", "b"), [[0, -1], [-1, 0]])
    assert any(p.startswith("positivity:") for p in nl.validate_metric(neg))

    tri = nl.FiniteMetricSpace(
        ("a", "b", "c"), [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    )
    assert any(p.startswith("triangle:") for p in nl.validate_metric(tri))


def test_validate_metric_nonfinite():
    # a non-finite table never becomes a space, so no check reads it
    for bad in (np.nan, np.inf, -np.inf):
        table = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(nl.FormatError, match="finite"):
            nl.FiniteMetricSpace(("a", "b"), table)
        with pytest.raises(nl.FormatError, match="finite"):
            nl.space_from_json({"dist": table.tolist()})


def test_validate_metric_with_overflowing_triangle_sums():
    # Sums of two distances near the float maximum overflow to infinity,
    # which satisfies the triangle inequality without a warning.
    big = 8.98846567431158e307
    table = [[0, big, big], [big, 0, big], [big, big, 0]]
    sp = nl.FiniteMetricSpace(("a", "b", "c"), table)
    assert nl.validate_metric(sp) == []
    one = nl.FiniteMetricSpace(("a",), [[big]])
    assert [p.split(":")[0] for p in nl.validate_metric(one)] == ["diagonal"]


def test_space_json_round_trip(grid3):
    doc = nl.space_to_json(grid3)
    back = nl.space_from_json(doc)
    assert back.labels == grid3.labels
    assert back.name == grid3.name
    assert np.array_equal(back.dist, grid3.dist)


def test_space_from_graph_document():
    doc = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "name": "ring"}
    sp = nl.space_from_json(doc)
    assert sp.name == "ring"
    assert sp.dist[0, 2] == 2


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"dist": []},
        {"dist": [[0, 1], [1]]},
        {"dist": [[0, 1], [1, 0]], "labels": ["a"]},
        {"edges": [[0, 1]]},
        {"n": 3, "edges": [[0, 1, 2]]},
        {"dist": [[0, 1], [1, 0]], "labels": 5},
        {"dist": [[0, 1], [1, 0]], "labels": "ab"},
    ],
)
def test_space_from_json_rejects_malformed(doc):
    with pytest.raises(nl.FormatError):
        nl.space_from_json(doc)


def test_save_load_space(tmp_path, c6):
    path = tmp_path / "c6.json"
    path.write_text(json.dumps(nl.space_to_json(c6)))
    back = nl.load_space(str(path))
    assert np.array_equal(back.dist, c6.dist)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(nl.FormatError):
        nl.load_space(str(bad))


def test_space_constructor_rejects_bad_shapes():
    with pytest.raises(nl.FormatError):
        nl.FiniteMetricSpace(("a",), [[0, 1], [1, 0]])
    with pytest.raises(nl.FormatError):
        nl.FiniteMetricSpace(("a", "b"), [[0, 1, 2], [1, 0, 3]])


def test_distance_table_is_frozen(c6):
    with pytest.raises(ValueError):
        c6.dist[0, 0] = 5


@st.composite
def edge_lists(draw):
    """Edge lists with repeated edges, both orientations, isolated vertices."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = []
    if draw(st.booleans()):
        # a spanning tree, so that connected graphs are common
        edges += [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:
        edges += draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=10,
            )
        )
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    return n, draw(st.permutations(edges))


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_bfs_metric_matches_floyd_warshall_on_random_graphs(graph):
    n, edges = graph
    oracle = floyd_warshall(n, edges)
    if oracle.max() < n:
        assert np.array_equal(nl.from_graph(n, edges).dist, oracle)
    else:
        # some pair is unreachable (the oracle's stand-in is huge)
        with pytest.raises(nl.DisconnectedGraph):
            nl.from_graph(n, edges)


def test_json_document_for_disconnected_graph_fails():
    doc = {"n": 4, "edges": [[0, 1], [2, 3]]}
    with pytest.raises(nl.DisconnectedGraph):
        nl.space_from_json(doc)


# One fresh interpreter runs every CLI command that builds a graph or
# searches blocks, then the tree-search library path, and reports which of
# the two unused packages it loaded.  numpy 1.x loads numpy.ma on import.
_FRESH_PROCESS = """
import sys
import numpy
ma_on_import = "numpy.ma" in sys.modules
import normloc as nl
from normloc import cli
out = sys.argv[1]
commands = [
    ["space", "gen", "--kind", "cycle", "--n", "12", "--out", out + "/c.json"],
    ["space", "gen", "--kind", "binary-tree", "--depth", "3",
     "--out", out + "/t.json"],
    ["onl", "profile", "--space", out + "/c.json", "--band-radius", "1",
     "--loc-radius", "2", "--samples", "2", "--budget", "4",
     "--certificate", "ball", "--include-adjacency", "--seed", "1",
     "--out", out + "/p"],
    ["equiv", "run", "--space", out + "/c.json", "--band-radius", "1",
     "--loc-radius", "2", "--samples", "2", "--profile-samples", "1",
     "--budget", "4", "--seed", "1", "--out", out + "/e"],
    ["cb", "check", "--space", out + "/t.json", "--band-radius", "1",
     "--loc-radius", "2", "--amplification", "2", "--samples", "1",
     "--seed", "1", "--out", out + "/cb.json"],
]
codes = [cli.main(argv) for argv in commands]
tree = nl.generate_family("binary_tree", {"depth": 4})
certificate = nl.subset_to_vector(nl.tree_ray_certificate(tree, 3))
profile = nl.onl_profile(
    tree, 1, 3, samples=1, seed=5, search_budget=4, certificate=certificate
)
sample = nl.random_banded(tree, 1, profile.sample_seeds[0])
nl.power_trick_witness(sample, 3, 2)
print(codes, "networkx" in sys.modules, "numpy.ma" in sys.modules, ma_on_import)
"""


def test_import_leaves_networkx_unloaded(tmp_path):
    """No normloc run loads networkx, nor numpy.ma unless numpy does: a
    plain ``np.unique`` imports numpy.ma, so the library avoids it."""
    src = str(Path(nl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    last = done.stdout.splitlines()[-1]
    codes, networkx, ma, ma_on_import = last.rsplit(" ", 3)
    assert codes == "[0, 0, 0, 0, 0]"
    assert networkx == "False"
    assert ma == ma_on_import


def test_no_library_module_imports_networkx():
    imports = re.compile(r"^\s*(import|from)\s+networkx\b", re.MULTILINE)
    modules = sorted(Path(nl.__file__).resolve().parent.glob("*.py"))
    assert modules
    for path in modules:
        assert not imports.search(path.read_text()), path.name
