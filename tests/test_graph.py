import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import reference
from perco import graph
from perco.errors import ConfigurationError, ResourceError
from perco.graph import (
    GeomGraph,
    ball_region,
    build_graph,
    build_graphs,
    complement_region,
    connected_regions,
    connected_regions_restricted,
    dump_graph,
)
from perco.models import (
    Kernel,
    RadiusLaw,
    boolean_model,
    catalog,
    classical_model,
    custom_profile,
    demo_generalized,
    generalized_model,
    indicator_profile,
    mark_averaged_connection,
    pairwise_prob,
    polynomial_profile,
)
from perco.ppp import PointCloud, ball_window, sample_ppp
from perco.quadrature import lens_volume
from perco.rng import substream


def test_empty_and_zero_probability():
    w = reference.ball_of_volume(25.0, 2)
    cloud = sample_ppp(w, 0.0, seed=1)
    g = build_graph(cloud, catalog(2)["plain-indicator"], seed=2)
    assert g.n_edges == 0 and g.n_vertices == 0
    # custom profile that is identically zero
    dead = classical_model(2, Kernel("plain"), indicator_profile(1e-12), beta=1e-12)
    cloud2 = sample_ppp(w, 2.0, seed=3)
    g2 = build_graph(cloud2, dead, seed=4)
    assert g2.n_edges == 0


def test_two_point_deterministic_edge():
    w = ball_window(4.0 * math.sqrt(2), d=2)
    cloud = PointCloud(
        window=w,
        intensity=1.0,
        positions=np.array([[1.0, 1.0], [1.9, 1.0], [3.9, 3.9]]),
        marks=np.array([0.5, 0.6, 0.7]),
        seed=0,
    )
    m = boolean_model(2, RadiusLaw(kind="constant", radius=0.5))
    g = build_graph(cloud, m, seed=9)
    assert g.edges.tolist() == [[0, 1]]  # 0.9 < 1, others far


def _layered_models(d: int = 2) -> dict:
    """Models whose connection range is finite for every pair of marks but depends on the marks."""
    cat = catalog(d)
    return {
        "boolean-heavy": cat["boolean-heavy"],
        "product-indicator": cat["product-indicator"],
        "min-indicator": cat["min-indicator"],
        "sum-indicator": classical_model(d, Kernel("sum"), indicator_profile(0.8), tau=2.5),
        "product-custom": classical_model(
            d, Kernel("product"), custom_profile([0.4, 1.0, 1.5], [1.0, 0.6, 0.0]), tau=2.5
        ),
        "generalized-product": generalized_model(
            cat["product-indicator"], damping_radius=0.6, damping_factor=0.5
        ),
    }


def test_determinism_and_method_equivalence():
    cloud = sample_ppp(reference.ball_of_volume(144.0, 2), 1.5, seed=100)
    for name in ("boolean-fixed", "plain-indicator"):
        model = catalog(2)[name]
        g1 = build_graph(cloud, model, seed=7, method="exact")
        g2 = build_graph(cloud, model, seed=7, method="grid")
        g3 = build_graph(cloud, model, seed=7, method="exact")
        assert np.array_equal(g1.edges, g2.edges), name
        assert np.array_equal(g1.edges, g3.edges)
        # 0/1 probabilities make these graphs seed-independent by design
        g4 = build_graph(cloud, model, seed=8, method="exact")
        assert np.array_equal(g1.edges, g4.edges)
    # the mark-layered search finds the exact sweep's edges, long ones included
    for name, model in _layered_models(2).items():
        g1 = build_graph(cloud, model, seed=7, method="exact")
        g2 = build_graph(cloud, model, seed=7, method="grid")
        g3 = build_graph(cloud, model, seed=7, method="grid")
        assert g1.n_edges > 0, name
        assert np.array_equal(g1.edges, g2.edges), name
        assert np.array_equal(g2.edges, g3.edges), name
    # fractional probabilities do respond to the edge-randomness seed
    frac = catalog(2)["plain-poly"]
    cloud = sample_ppp(reference.ball_of_volume(100.0, 2), 1.0, seed=55)
    e1 = build_graph(cloud, frac, seed=1).edges
    e2 = build_graph(cloud, frac, seed=2).edges
    assert e1.shape != e2.shape or not np.array_equal(e1, e2)


def test_matches_naive_reference_all_variants():
    models = [
        catalog(2)["boolean-fixed"],
        catalog(2)["plain-indicator"],
        catalog(2)["plain-poly"],
        catalog(2)["product-indicator"],
        catalog(2)["sum-poly"],
        boolean_model(2, RadiusLaw(kind="pareto", shape=1.5, scale=0.3)),
        demo_generalized(2),
    ]
    for k, model in enumerate(models):
        for rep in range(6):
            cloud = sample_ppp(reference.ball_of_volume(36.0, 2), 1.2, seed=5000 + 97 * k + rep)
            fast = build_graph(cloud, model, seed=777 + rep, method="exact")
            slow = reference.naive_edges(cloud, model, 777 + rep)
            assert list(map(tuple, fast.edges.tolist())) == slow, (model.summary, rep)
    # grid path must agree with naive too wherever every pair's range is finite
    cloud = sample_ppp(reference.ball_of_volume(49.0, 2), 1.5, seed=444)
    for model in (catalog(2)["boolean-fixed"], demo_generalized(2), *_layered_models(2).values()):
        fast = build_graph(cloud, model, seed=3, method="grid")
        assert list(map(tuple, fast.edges.tolist())) == reference.naive_edges(cloud, model, 3), model.summary


def test_finite_range_tie_keeps_certain_pair():
    # |x-y|^3 rounds to exactly theta while |x-y| exceeds the rounded cube
    # root of theta: the pair rule gives p = 1, so no candidate search may
    # drop the pair
    model = classical_model(3, Kernel("plain"), indicator_profile(0.3157190635451505))
    positions = np.array([[0.0, 0.0, 0.0], [0.3705553386486443, 0.5150307459966047, 0.2471700617101387]])
    cloud = PointCloud(
        window=ball_window(5.0, d=3), intensity=1.0, positions=positions, marks=np.array([0.5, 0.5]), seed=0
    )
    assert reference.naive_edges(cloud, model, 1) == [(0, 1)]
    for method in ("exact", "grid"):
        assert build_graph(cloud, model, seed=1, method=method).edges.tolist() == [[0, 1]], method


def test_custom_profile_tail_edges_kept():
    # heights fall linearly to zero between the last two knots; pairs in that
    # stretch connect with positive probability
    model = classical_model(2, Kernel("plain"), custom_profile([1.0, 4.0], [1.0, 0.0]))
    cloud = sample_ppp(reference.ball_of_volume(36.0, 2), 1.0, seed=21)
    slow = reference.naive_edges(cloud, model, 5)
    lengths = [np.linalg.norm(cloud.positions[i] - cloud.positions[j]) for i, j in slow]
    assert max(lengths) > 1.0
    for method in ("exact", "grid"):
        assert list(map(tuple, build_graph(cloud, model, seed=5, method=method).edges.tolist())) == slow


# extremes, dyadic class boundaries, and the floats just below and above two of them
_EXTREME_MARKS = [1e-12, 1.0 - 1e-12, 0.5, 0.25, 0.125, 2.0**-20, 2.0**-40, 0.5 - 2.0**-54, 0.25 + 2.0**-54]


def _layered_case_models(d: int) -> list:
    return [
        catalog(d)["boolean-fixed"],
        boolean_model(d, RadiusLaw(kind="pareto", shape=max(d - 0.5, 0.4), scale=0.1)),
        *_layered_models(d).values(),
    ]


@st.composite
def _layered_cases(draw):
    d = draw(st.sampled_from([1, 2, 3, 8]))
    model = draw(st.sampled_from(_layered_case_models(d)))
    n = draw(st.integers(0, 14))
    side = draw(st.sampled_from([0.5, 2.0, 6.0]))
    coord = st.floats(0.0, side, allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    positions = np.array(rows, dtype=float)
    mark = st.one_of(st.sampled_from(_EXTREME_MARKS), st.floats(1e-12, 1.0 - 1e-12))
    marks = np.array(draw(st.lists(mark, min_size=n, max_size=n)), dtype=float)
    cloud = PointCloud(
        window=ball_window(side * math.sqrt(d), d),  # holds the cube [0, side]^d
        intensity=1.0,
        positions=positions.reshape(n, d),
        marks=marks,
        seed=0,
    )
    return model, cloud, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=250, deadline=None)
@given(_layered_cases())
def test_layered_grid_equals_exact_equals_naive(case):
    model, cloud, seed = case
    grid = build_graph(cloud, model, seed=seed, method="grid").edges
    exact = build_graph(cloud, model, seed=seed, method="exact").edges
    assert np.array_equal(grid, exact)
    assert list(map(tuple, exact.tolist())) == reference.naive_edges(cloud, model, seed)


def test_generalized_damping_tie_excludes_endpoints_by_index():
    # the midpoint of a unit-length pair is at distance 0.5 = damping_radius
    # from both endpoints; the kd-tree and a recomputed 0.5*dist test can
    # round differently there, so the endpoints must be dropped by index
    model = generalized_model(
        classical_model(2, Kernel("plain"), indicator_profile(2.0)), damping_radius=0.5, damping_factor=0.5
    )
    gen = substream(5, "ties")
    w = ball_window(10.0, d=2)
    for k in range(2000):
        a = gen.uniform(-3.0, 3.0, size=2)
        angle = gen.uniform(0.0, 2.0 * math.pi)
        b = a + np.array([math.cos(angle), math.sin(angle)])
        cloud = PointCloud(window=w, intensity=1.0, positions=np.array([a, b]), marks=np.array([0.3, 0.6]), seed=k)
        fast = build_graph(cloud, model, seed=k)
        assert list(map(tuple, fast.edges.tolist())) == reference.naive_edges(cloud, model, k), k


def _head(cloud: PointCloud, k: int) -> PointCloud:
    """The cloud's first k points, with their ids."""
    return replace(cloud, positions=cloud.positions[:k], marks=cloud.marks[:k], ids=cloud.ids[:k])


def _graph_from_edges(positions, edges) -> GeomGraph:
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    edges = np.asarray(sorted({(min(i, j), max(i, j)) for i, j in edges if i != j}), dtype=np.int64)
    return GeomGraph(cloud=_path_cloud(positions), seed=0, edges=edges.reshape(-1, 2))


@st.composite
def _edge_lists(draw, max_n=40):
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2**32 - 1))
def test_connected_regions_shuffled_long_path(n, seed):
    # a path visiting the vertices in random order builds long parent chains;
    # its two ends are the only vertices off the origin
    order = np.random.default_rng(seed).permutation(n).tolist()
    path = list(zip(order[:-1], order[1:]))
    positions = np.zeros((n, 2))
    positions[order[0]] = [-1.0, 0.0]
    positions[order[-1]] = [1.0, 0.0]
    a, b = ball_region([-1.0, 0.0], 0.5), ball_region([1.0, 0.0], 0.5)
    assert connected_regions(_graph_from_edges(positions, path), a, b) == (n > 1)
    cut = (n - 1) // 2
    assert not connected_regions(_graph_from_edges(positions, path[:cut] + path[cut + 1 :]), a, b)


@settings(max_examples=200, deadline=None)
@given(_edge_lists(max_n=30), st.integers(0, 2**32 - 1))
def test_restricted_crossing_equals_induced_subgraph_bfs(case, seed):
    n, edge_list = case
    gen = np.random.default_rng(seed)
    g = _graph_from_edges(gen.uniform(-3.0, 3.0, size=(n, 2)), edge_list)
    a = ball_region(gen.uniform(-1.0, 1.0, size=2), gen.uniform(0.2, 2.0))
    b = complement_region(gen.uniform(-1.0, 1.0, size=2), gen.uniform(0.5, 3.0))
    s = ball_region(gen.uniform(-1.0, 1.0, size=2), gen.uniform(0.5, 5.0))
    pos = g.cloud.positions
    expected = reference.bfs_path_exists(
        n,
        g.edges.tolist(),
        np.flatnonzero(a.contains(pos)).tolist(),
        np.flatnonzero(b.contains(pos)).tolist(),
        np.flatnonzero(s.contains(pos)).tolist(),
    )
    assert connected_regions_restricted(g, a, b, s) == expected
    assert connected_regions(g, a, b) == reference.bfs_path_exists(
        n,
        g.edges.tolist(),
        np.flatnonzero(a.contains(pos)).tolist(),
        np.flatnonzero(b.contains(pos)).tolist(),
        range(n),
    )


@settings(max_examples=200, deadline=None)
@given(_edge_lists(max_n=12), st.integers(0, 2**32 - 1))
def test_meeting_level_equals_least_bfs_level(case, seed):
    # overlapping endpoint sets and tied weights; the level is the least
    # weight w at which the vertices weighted at most w join the two sets
    n, edge_list = case
    gen = np.random.default_rng(seed)
    g = _graph_from_edges(np.zeros((n, 2)), edge_list)
    weights = gen.choice([0.25, 0.5, 0.75, gen.uniform()], size=n)
    in_a, in_b = gen.uniform(size=n) < 0.3, gen.uniform(size=n) < 0.3
    sources, targets = np.flatnonzero(in_a).tolist(), np.flatnonzero(in_b).tolist()
    expected = math.inf
    for w in sorted(set(weights.tolist())):
        keep = np.flatnonzero(weights <= w).tolist()
        if reference.bfs_path_exists(n, g.edges.tolist(), sources, targets, keep):
            expected = w
            break
    assert graph._meeting_level(n, g.edges, in_a, in_b, weights) == expected
    assert graph._meeting_level(n, g.edges, in_a, in_b) == (0.0 if expected < math.inf else math.inf)


def test_components_match_bfs_many_graphs():
    gen = substream(2024, "sizes")
    pick = substream(2024, "regions")  # its own stream, so the 25 graphs do not depend on the regions
    outcomes = set()
    for rep in range(25):
        lam = float(gen.uniform(0.3, 2.0))
        cloud = sample_ppp(reference.ball_of_volume(64.0, 2), lam, seed=600 + rep)
        if len(cloud) > 500:
            cloud = _head(cloud, 500)
        g = build_graph(cloud, catalog(2)["plain-indicator"], seed=rep)
        pos = cloud.positions
        for _ in range(4):
            a = ball_region(pick.uniform(-4.0, 4.0, size=2), pick.uniform(0.3, 2.0))
            b = (ball_region if pick.uniform() < 0.5 else complement_region)(
                pick.uniform(-4.0, 4.0, size=2), pick.uniform(0.3, 5.0)
            )
            expected = reference.bfs_path_exists(
                g.n_vertices,
                g.edges.tolist(),
                np.flatnonzero(a.contains(pos)).tolist(),
                np.flatnonzero(b.contains(pos)).tolist(),
                range(g.n_vertices),
            )
            assert connected_regions(g, a, b) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_edge_count_calibration_campbell():
    # classical plain indicator(1), the disc of area 100: mean edge count over replicates
    # must match the Campbell double integral (lam^2/2) int int 1{|x-y|<=1}
    lam = 1.0
    w = reference.ball_of_volume(100.0, 2)
    model = catalog(2)["plain-indicator"]
    oracle = (
        lam**2
        / 2.0
        * 2.0
        * math.pi
        * integrate.quad(lambda rho: rho * lens_volume(2, w.radius, w.radius, rho), 0.0, 1.0)[0]
    )
    reps = 600
    counts = np.array(
        [build_graph(sample_ppp(w, lam, seed=9000 + k), model, seed=9000 + k).n_edges for k in range(reps)]
    )
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - oracle) < 3 * se


def test_edge_probability_calibration_by_distance_bin():
    # bin realized pairs by distance; empirical edge frequency matches the
    # mean pair probability within 3 binomial sigma per bin
    model = catalog(2)["plain-poly"]
    cloud = sample_ppp(reference.ball_of_volume(900.0, 2), 1.2, seed=42)
    keep = min(len(cloud), 1200)
    cloud = _head(cloud, keep)
    g = build_graph(cloud, model, seed=5, method="exact")
    ii, jj = np.triu_indices(keep, k=1)
    diff = cloud.positions[ii] - cloud.positions[jj]
    dists = np.sqrt((diff**2).sum(axis=1))
    probs = np.asarray(pairwise_prob(model, cloud.marks[ii], cloud.marks[jj], dists))
    edge_set = set(map(tuple, g.edges.tolist()))
    realized = np.array([(a, b) in edge_set for a, b in zip(ii.tolist(), jj.tolist())])
    bins = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
    which = np.digitize(dists, bins)
    for b in range(1, len(bins)):
        sel = which == b
        if sel.sum() < 30:
            continue
        mean_p = probs[sel].mean()
        sigma = math.sqrt(np.sum(probs[sel] * (1 - probs[sel]))) / sel.sum()
        assert abs(realized[sel].mean() - mean_p) <= 3 * sigma + 1e-12, b


def _tile_case_models(d: int) -> list:
    """One model per kernel of the exact sweep's screen, plus a boolean and a generalized one."""
    return [
        catalog(d)["boolean-fixed"],
        classical_model(d, Kernel("plain"), polynomial_profile(2.5)),
        classical_model(d, Kernel("product"), indicator_profile(1.5), tau=2.5),
        classical_model(d, Kernel("sum"), polynomial_profile(2.5), tau=2.5),
        generalized_model(
            classical_model(d, Kernel("plain"), indicator_profile(2.0)), damping_radius=0.6, damping_factor=0.5
        ),
    ]


@st.composite
def _tile_cases(draw):
    d = draw(st.sampled_from([1, 2, 3, 8]))
    model = draw(st.sampled_from(_tile_case_models(d)))
    n = draw(st.integers(0, 40))
    side = draw(st.sampled_from([1.0, 3.0]))
    coord = st.floats(0.0, side, allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    marks = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=n, max_size=n))
    # ids out of index order: a tile orders its pairs by index, pair_uniforms by id
    ids = draw(st.permutations(range(3 * n)))[:n]
    cloud = PointCloud(
        window=ball_window(side * math.sqrt(d), d),  # holds the cube [0, side]^d
        intensity=1.0,
        positions=np.array(rows, dtype=float).reshape(n, d),
        marks=np.array(marks, dtype=float),
        seed=0,
        ids=np.array(ids, dtype=np.uint64),
    )
    return model, cloud, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(_tile_cases())
def test_exact_sweep_independent_of_tile_rows(case):
    model, cloud, seed = case
    built = []
    for rows in (1, 3, graph._TILE_ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_TILE_ROWS", rows)
            built.append(build_graph(cloud, model, seed=seed, method="exact").edges)
    assert all(np.array_equal(built[0], e) for e in built[1:])
    assert list(map(tuple, built[0].tolist())) == reference.naive_edges(cloud, model, seed)


@st.composite
def _cloud_blocks(draw):
    """Clouds in one cube, sized on both sides of the shared-screen limit (_TILE_ROWS points)."""
    d = draw(st.sampled_from([1, 2, 3]))
    # the soft model's edges all hang on their uniforms, so a pair keyed by another cloud's seed shows
    soft = classical_model(d, Kernel("plain"), polynomial_profile(2.0), beta=0.05)
    model = draw(st.sampled_from([*_tile_case_models(d), soft]))
    side = draw(st.sampled_from([1.0, 3.0]))
    coord = st.floats(0.0, side, allow_nan=False, allow_infinity=False)
    edge_sizes = st.sampled_from([0, 1, graph._TILE_ROWS, graph._TILE_ROWS + 1])
    sizes = draw(st.lists(st.one_of(edge_sizes, st.integers(0, 40)), min_size=1, max_size=4))
    clouds = []
    for n in sizes:
        rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
        marks = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=n, max_size=n))
        ids = draw(st.permutations(range(3 * n)))[:n]  # ids out of index order
        clouds.append(PointCloud(
            window=ball_window(side * math.sqrt(d), d),  # holds the cube [0, side]^d
            intensity=1.0,
            positions=np.array(rows, dtype=float).reshape(n, d),
            marks=np.array(marks, dtype=float),
            seed=0,
            ids=np.array(ids, dtype=np.uint64),
        ))
    # equal seeds side by side, and seeds that need mix's reduction to 64 bits
    seeds = draw(st.lists(st.sampled_from([0, 5, -3, 2**64 - 1, 2**63 + 7]), min_size=len(sizes), max_size=len(sizes)))
    return model, clouds, seeds


@settings(max_examples=60, deadline=None)
@given(_cloud_blocks())
def test_build_graphs_equals_naive_edges_per_cloud(case):
    # the clouds overlap in one cube, so a generalized model's damping would count the
    # other clouds' points if the block were damped as one configuration
    model, clouds, seeds = case
    graphs = build_graphs(clouds, model, seeds)
    assert len(graphs) == len(clouds)
    for g, cloud, seed in zip(graphs, clouds, seeds):
        assert g.cloud is cloud and g.seed == seed
        assert g.edges.dtype == np.int64 and g.edges.shape[1] == 2
        assert list(map(tuple, g.edges.tolist())) == reference.naive_edges(cloud, model, seed)
    with pytest.raises(ConfigurationError):
        build_graphs(clouds, model, seeds + [1])


@pytest.mark.parametrize("d", range(1, 9))
def test_tile_squared_distances_bitwise_equal_row_sums(d):
    gen = substream(11, "tile-distances", d)
    n, i0, i1 = 90, 7, 40
    # coordinates spread over many binades, so that the summation order shows in the last bits
    positions = gen.normal(size=(n, d)) * np.exp(gen.uniform(-8.0, 8.0, size=(n, d)))
    # a tile's squared distances, formed as graph._coins forms them
    tile = graph._sum_squares([x[np.s_[i0:i1, None]] - x[np.s_[None, i0:]] for x in np.ascontiguousarray(positions.T)])
    ii, jj = np.divmod(np.arange((i1 - i0) * (n - i0)), n - i0)
    diff = positions[ii + i0] - positions[jj + i0]
    want = np.sum(diff * diff, axis=1)
    assert tile.shape == (i1 - i0, n - i0)
    assert np.array_equal(tile.reshape(-1).view(np.uint64), want.view(np.uint64))


def test_pair_budget_resource_error(monkeypatch):
    cloud = sample_ppp(reference.ball_of_volume(100.0, 2), 2.0, seed=1)
    layered = catalog(2)["product-indicator"]
    exact = build_graph(cloud, layered, seed=1, method="exact")
    monkeypatch.setattr(graph, "DEFAULT_PAIR_BUDGET", 100)
    with pytest.raises(ResourceError):
        build_graph(cloud, catalog(2)["plain-poly"], seed=1, method="exact")
    monkeypatch.setattr(graph, "DEFAULT_PAIR_BUDGET", 3)
    with pytest.raises(ResourceError):
        build_graph(cloud, catalog(2)["plain-indicator"], seed=1, method="grid")
    with pytest.raises(ResourceError, match="range search finds") as info:
        build_graph(cloud, layered, seed=1, method="grid")
    # the count is exact: a cap of exactly that many candidates suffices
    found = int(str(info.value).split("finds ")[1].split()[0])
    monkeypatch.setattr(graph, "DEFAULT_PAIR_BUDGET", found - 1)
    with pytest.raises(ResourceError):
        build_graph(cloud, layered, seed=1, method="grid")
    monkeypatch.setattr(graph, "DEFAULT_PAIR_BUDGET", found)
    g = build_graph(cloud, layered, seed=1, method="grid")
    assert np.array_equal(g.edges, exact.edges)


def test_dimension_mismatch_and_bad_method():
    cloud = sample_ppp(reference.ball_of_volume(5.0, 1), 1.0, seed=1)
    with pytest.raises(ConfigurationError):
        build_graph(cloud, catalog(2)["plain-indicator"], seed=1)
    with pytest.raises(ConfigurationError, match="finite connection range for every pair of marks"):
        build_graph(cloud, catalog(1)["plain-poly"], seed=1, method="grid")
    with pytest.raises(ConfigurationError):
        build_graph(cloud, catalog(1)["plain-indicator"], seed=1, method="bogus")


def _path_cloud(positions):
    positions = np.asarray(positions, dtype=float)
    pad = positions.shape[0]
    w = ball_window(100.0, d=positions.shape[1])
    return PointCloud(
        window=w,
        intensity=1.0,
        positions=positions,
        marks=np.full(pad, 0.5),
        seed=0,
    )


def test_connected_regions_basics():
    # chain 0-1-2 with middle vertex in neither region
    cloud = _path_cloud([[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]])
    m = boolean_model(2, RadiusLaw(kind="constant", radius=0.5))
    g = build_graph(cloud, m, seed=0)
    assert g.n_edges == 2
    a = ball_region([0.0, 0.0], 0.3)
    b = ball_region([1.8, 0.0], 0.3)
    assert connected_regions(g, a, b)
    assert not connected_regions(g, a, ball_region([50.0, 0.0], 1.0))
    empty = build_graph(_path_cloud(np.empty((0, 2))), m, seed=0)
    assert not connected_regions(empty, a, b)
    # complement region: reachable point beyond radius 1.5
    assert connected_regions(g, a, complement_region([0.0, 0.0], 1.5))


def test_region_center_must_match_point_dimension():
    # numpy would broadcast a center of another dimension against the coordinates
    with pytest.raises(ConfigurationError):
        ball_region([0.0], 1.0).contains(np.array([[0.5, 3.0], [0.5, 0.5]]))
    with pytest.raises(ConfigurationError):
        complement_region([0.0, 0.0, 0.0], 1.0).contains(np.array([[0.5], [2.0]]))
    g = build_graph(_path_cloud([[0.0, 0.0], [0.9, 0.0]]), boolean_model(2, RadiusLaw(kind="constant", radius=0.5)), 0)
    with pytest.raises(ConfigurationError):
        connected_regions(g, ball_region([0.0], 0.3), ball_region([0.9, 0.0], 0.3))
    assert ball_region([0.0], 1.0).contains(np.array([[0.5], [3.0]])).tolist() == [True, False]


def test_connected_regions_restricted_semantics():
    # path 0 - 1 - 2 whose middle vertex sits off-axis, so a through-ball
    # around the endpoints can exclude it
    cloud = _path_cloud([[0.0, 0.0], [0.5, 0.85], [1.0, 0.0]])
    m = boolean_model(2, RadiusLaw(kind="constant", radius=0.5))
    g = build_graph(cloud, m, seed=0)
    assert set(map(tuple, g.edges.tolist())) == {(0, 1), (1, 2)}
    a = ball_region([0.0, 0.0], 0.1)
    b = ball_region([1.0, 0.0], 0.1)
    whole = ball_region([0.5, 0.0], 10.0)
    assert connected_regions_restricted(g, a, b, whole) == connected_regions(g, a, b) is True
    # the unrestricted query succeeds, but the path's interior vertex lies
    # outside the through-region, so the restricted query must fail
    tight = ball_region([0.5, 0.0], 0.8)
    assert not connected_regions_restricted(g, a, b, tight)
    loose = ball_region([0.5, 0.0], 1.0)
    assert connected_regions_restricted(g, a, b, loose)
    # through-region not containing the endpoints at all
    assert not connected_regions_restricted(g, a, b, ball_region([0.5, 0.85], 0.2))


def test_restriction_monotonicity_random_graphs():
    m = catalog(2)["plain-indicator"]
    for rep in range(20):
        cloud = sample_ppp(ball_window(6.0, d=2), 1.0, seed=800 + rep)
        g = build_graph(cloud, m, seed=rep)
        a = ball_region([0.0, 0.0], 1.5)
        b = complement_region([0.0, 0.0], 3.0)
        small = ball_region([0.0, 0.0], 4.0)
        large = ball_region([0.0, 0.0], 6.0)
        r_small = connected_regions_restricted(g, a, b, small)
        r_large = connected_regions_restricted(g, a, b, large)
        if r_small:
            assert r_large
        # restriction to the whole window equals the unrestricted query
        assert connected_regions_restricted(g, a, b, ball_region([0.0, 0.0], 100.0)) == connected_regions(
            g, a, b
        )


def test_restricted_matches_bfs_oracle():
    m = catalog(2)["plain-indicator"]
    for rep in range(12):
        cloud = sample_ppp(ball_window(5.0, d=2), 1.2, seed=1300 + rep)
        g = build_graph(cloud, m, seed=rep)
        a = ball_region([0.0, 0.0], 1.2)
        b = complement_region([0.0, 0.0], 2.4)
        s = ball_region([0.0, 0.0], 3.6)
        pos = cloud.positions
        allowed = np.nonzero(s.contains(pos))[0].tolist()
        sources = np.nonzero(a.contains(pos))[0].tolist()
        targets = np.nonzero(b.contains(pos))[0].tolist()
        expected = reference.bfs_path_exists(
            g.n_vertices, g.edges.tolist(), sources, targets, allowed
        )
        assert connected_regions_restricted(g, a, b, s) == expected


def test_dump_graph_roundtrip():
    cloud = sample_ppp(reference.ball_of_volume(25.0, 2), 1.0, seed=77)
    g = build_graph(cloud, catalog(2)["plain-indicator"], seed=1)
    buf = io.StringIO()
    dump_graph(g, buf)
    lines = buf.getvalue().strip().split("\n")
    point_lines = [l for l in lines if not l.startswith("#")][: g.n_vertices]
    assert len([l for l in lines if l.startswith("#")]) == 3
    first = point_lines[0].split()
    assert int(first[0]) == 0
    assert float(first[1]) == cloud.positions[0, 0]
    assert float(first[3]) == cloud.marks[0]
    edge_lines = [l for l in lines if not l.startswith("#")][g.n_vertices :]
    assert len(edge_lines) == g.n_edges


def test_heavy_tail_pareto_grid_equals_exact():
    # unbounded radii still give every pair a finite range, so the
    # mark-layered search applies and finds the exact sweep's edges
    model = boolean_model(2, RadiusLaw(kind="pareto", shape=1.5, scale=0.2))
    window = reference.ball_of_volume(64.0, 2)
    cloud = sample_ppp(window, 0.8, seed=10)
    g = build_graph(cloud, model, seed=10)
    assert np.array_equal(g.edges, build_graph(cloud, model, seed=10, method="grid").edges)
    lengths = g.edge_lengths()
    if lengths.size:
        assert lengths.max() <= 2.0 * window.radius
    # mark-average sanity: phibar(rho) <= 1 and nonincreasing on a coarse grid
    grid = np.linspace(0.1, 6.0, 12)
    vals = mark_averaged_connection(model, grid)
    assert np.all(np.diff(vals) <= 1e-12)
