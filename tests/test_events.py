"""Event semantics: constructed instances, coverage guards, exact inclusions."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from perco import events
from perco.errors import ConfigurationError, WindowCoverageError
from perco.events import (
    EventSpec,
    crossing_spec,
    local_crossing_spec,
    long_edge_hits,
    long_edge_spec,
    renorm_long_edge_spec,
)
from perco.graph import GeomGraph, ball_region, build_graph, complement_region
from perco.models import RadiusLaw, boolean_model, catalog, demo_generalized
from perco.ppp import PointCloud, ball_window, sample_ppp


def fixed_boolean(d, radius):
    return boolean_model(d=d, radius_law=RadiusLaw(kind="constant", radius=radius))


def make_cloud(positions, radius):
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    marks = np.full(n, 0.5)
    return PointCloud(
        positions=positions,
        marks=marks,
        window=ball_window(radius, d=positions.shape[1]),
        intensity=1.0,
        seed=0,
    )


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        EventSpec(kind="nope", r=1.0)
    with pytest.raises(ConfigurationError):
        EventSpec(kind="crossing", r=0.0)
    with pytest.raises(ConfigurationError):
        EventSpec(kind="long_edge", r=1.0, c=-2.0)
    # a length ratio on another kind would be ignored, so it is rejected like a stray center
    for kind, c in (("renorm_long_edge", -3.0), ("crossing", math.nan), ("local_crossing", math.inf), ("crossing", 2.0)):
        with pytest.raises(ConfigurationError, match="only a long-edge event takes a length ratio"):
            EventSpec(kind=kind, r=1.0, c=c)
    assert all(EventSpec(kind=kind, r=1.0, c=1.0).c == 1.0 for kind in ("crossing", "local_crossing", "renorm_long_edge"))


def test_window_policy_radii():
    assert long_edge_spec(2.0, 3.0).window(2).radius == pytest.approx(2.0 * 4.05)
    assert crossing_spec(1.5).window(3).radius == pytest.approx(1.5 * 2.05)
    assert renorm_long_edge_spec(0.5).window(1).radius == pytest.approx(0.5 * 21.05)
    shifted = local_crossing_spec(1.0, center=[3.0, 4.0])
    assert shifted.window(2).radius == pytest.approx(5.0 + 3.05)
    assert local_crossing_spec(1.0).window(2).radius == pytest.approx(3.05)


def _local_crossing_flips(model, window, lam: float, seeds) -> int:
    """Replicates on which the local crossing at r = 0.5 on ``window`` differs from the one on a window
    wider by the context radius + 1, whose cloud's points in ``window`` (ids kept) it reads."""
    event, d = local_crossing_spec(0.5), model.d
    wide = ball_window(window.radius + model.context_radius + 1.0, d=d)
    flips = 0
    for seed in seeds:
        cloud = sample_ppp(wide, lam, seed=seed)
        keep = np.linalg.norm(cloud.positions, axis=1) <= window.radius
        inner = replace(cloud, window=window, positions=cloud.positions[keep], marks=cloud.marks[keep], ids=cloud.ids[keep])
        flips += event.evaluate(build_graph(inner, model, seed=seed)) != event.evaluate(build_graph(cloud, model, seed=seed))
    return flips


@pytest.mark.parametrize("d", [1, 2, 3])
def test_generalized_local_crossing_needs_no_point_beyond_its_window(d):
    # a damped edge reads the points within the damping radius of its midpoint, so the
    # policy window of a generalized model's local crossing grows by that radius
    model = demo_generalized(d)
    event = local_crossing_spec(0.5)
    assert model.context_radius == model.damping_radius and catalog(d)["plain-indicator"].context_radius == 0.0
    policy = event.window(d, context=model.context_radius)
    assert policy.radius == pytest.approx(3.05 * 0.5 + model.damping_radius)
    assert _local_crossing_flips(model, policy, 1.6, range(100)) == 0
    # negative control: without the context radius, a point beyond the window damps some edge
    assert _local_crossing_flips(model, event.window(d), 1.6, range(100)) > 0


def test_truncation_radii():
    assert long_edge_spec(2.0, 3.0).truncation_radius() == 2.0
    assert crossing_spec(2.0).truncation_radius() == 4.0
    assert local_crossing_spec(2.0).truncation_radius() == 0.0
    assert renorm_long_edge_spec(2.0).truncation_radius() == 40.0


def test_long_edge_constructed():
    # boolean R=0.5 connects strictly below distance 1
    model = fixed_boolean(2, 0.5)
    cloud = make_cloud([[0.0, 0.0], [0.9, 0.0]], radius=1.5)
    graph = build_graph(cloud, model, seed=1)
    assert graph.n_edges == 1
    # edge of length 0.9 with an endpoint at the origin
    assert long_edge_spec(0.2, 1.0).evaluate(graph)
    # same edge is too short once c asks for length > 1.0
    assert not long_edge_spec(0.2, 5.0).evaluate(graph)
    # endpoint must be strictly inside B(0, r)
    far_cloud = make_cloud([[0.5, 0.0], [1.4, 0.0]], radius=2.0)
    far_graph = build_graph(far_cloud, model, seed=1)
    assert far_graph.n_edges == 1
    assert not long_edge_spec(0.5, 0.5).evaluate(far_graph)
    assert long_edge_spec(0.51, 0.5).evaluate(far_graph)


def test_crossing_constructed():
    model = fixed_boolean(2, 0.5)
    chain = make_cloud([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]], radius=1.5)
    graph = build_graph(chain, model, seed=3)
    assert crossing_spec(0.5).evaluate(graph)
    broken = make_cloud([[0.0, 0.0], [0.6, 0.0]], radius=1.5)
    assert not crossing_spec(0.5).evaluate(build_graph(broken, model, seed=3))


def test_local_crossing_ignores_detours_outside_locality():
    # s connects to the shell vertex t only through m, and m sits outside
    # B(0, 3r); the local event must not see that detour.
    model = fixed_boolean(2, 0.49)
    s = [0.38, 0.0]
    m = [1.0825, 0.625]
    t = [0.486, 1.042]
    graph = build_graph(make_cloud([s, m, t], radius=2.0), model, seed=5)
    assert graph.n_edges == 2  # s-m and m-t; s-t is 1.047 > 0.98 apart
    r = 0.4
    assert not local_crossing_spec(r).evaluate(graph)
    # the unrestricted crossing does count the detour
    assert crossing_spec(r).evaluate(graph)


def test_local_crossing_direct_path_counts():
    model = fixed_boolean(2, 0.49)
    graph = build_graph(make_cloud([[0.0, 0.0], [0.9, 0.0]], radius=2.0), model, seed=5)
    assert local_crossing_spec(0.4).evaluate(graph)
    # same event around a shifted center that the pair does not straddle
    assert not local_crossing_spec(0.4, center=[0.45, 0.0]).evaluate(graph)


def test_renorm_long_edge_constructed():
    model = fixed_boolean(2, 0.5)
    cloud = make_cloud([[0.0, 0.0], [0.9, 0.0]], radius=25.0)
    graph = build_graph(cloud, model, seed=2)
    assert renorm_long_edge_spec(0.04).evaluate(graph)  # length 0.9 > r
    assert not renorm_long_edge_spec(0.95).evaluate(graph)  # length 0.9 too short


def test_window_coverage_errors():
    model = fixed_boolean(2, 0.5)
    small = build_graph(make_cloud([[0.0, 0.0]], radius=1.0), model, seed=0)
    with pytest.raises(WindowCoverageError):
        long_edge_spec(0.6, 1.0).evaluate(small)
    with pytest.raises(WindowCoverageError):
        crossing_spec(0.6).evaluate(small)
    with pytest.raises(WindowCoverageError):
        local_crossing_spec(0.5).evaluate(small)
    with pytest.raises(WindowCoverageError):
        renorm_long_edge_spec(0.1).evaluate(small)
    with pytest.raises(WindowCoverageError):
        local_crossing_spec(0.2, center=[0.5, 0.0]).evaluate(small)
    # window equal to B(0, 2r) leaves no room for the target region
    snug = build_graph(make_cloud([[0.0, 0.0]], radius=1.0), model, seed=0)
    with pytest.raises(WindowCoverageError):
        crossing_spec(0.5).evaluate(snug)
    # the threshold routine raises the crossing event's errors, word for word
    for r in (0.6, 0.5):
        with pytest.raises(WindowCoverageError) as event_error:
            crossing_spec(r).evaluate(small)
        with pytest.raises(WindowCoverageError) as threshold_error:
            crossing_spec(r).thresholds_many([small], [np.full(1, 0.5)])
        assert str(threshold_error.value) == str(event_error.value)


def test_empty_graph_events_false():
    model = fixed_boolean(2, 0.5)
    cloud = sample_ppp(intensity=1e-12, window=ball_window(25.0, d=2), seed=11)
    graph = build_graph(cloud, model, seed=11)
    assert graph.n_vertices == 0
    assert not long_edge_spec(1.0, 1.0).evaluate(graph)
    assert not crossing_spec(1.0).evaluate(graph)
    assert not local_crossing_spec(1.0).evaluate(graph)
    assert not renorm_long_edge_spec(1.0).evaluate(graph)
    assert crossing_spec(1.0).thresholds_many([graph], [np.empty(0)])[0] == math.inf


# crossing at r = 1 in a window of radius 2.05; the radii include both region boundaries
_THRESHOLD_RADII = (0.0, 0.5, 1.0, 1.5, 2.0, 2.03)


@st.composite
def _weighted_graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    radii = draw(st.lists(st.sampled_from(_THRESHOLD_RADII), min_size=n, max_size=n))
    angles = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n, max_size=n))
    positions = np.array([[r * math.cos(a), r * math.sin(a)] for r, a in zip(radii, angles)]).reshape(n, 2)
    # few distinct weights, so ties are common
    weight = st.one_of(st.sampled_from((0.25, 0.5, 0.75)), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)), dtype=float)
    pairs = [] if n < 2 else draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    edges = np.array(sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j}), dtype=np.int64).reshape(-1, 2)
    graph = GeomGraph(cloud=make_cloud(positions, radius=2.05), seed=0, edges=edges)
    return graph, weights


@settings(max_examples=300, deadline=None)
@given(_weighted_graphs())
def test_crossing_threshold_equals_least_crossing_level(case):
    graph, weights = case
    pos = graph.cloud.positions
    inner = np.flatnonzero(ball_region(np.zeros(2), 1.0).contains(pos)).tolist()
    outer = np.flatnonzero(complement_region(np.zeros(2), 2.0).contains(pos)).tolist()
    expected = math.inf
    for w in sorted(set(weights.tolist())):
        # a path within the subgraph induced by {u < w'} for every w' in (w, next weight]
        keep = np.flatnonzero(weights < np.nextafter(w, math.inf)).tolist()
        if reference.bfs_path_exists(graph.n_vertices, graph.edges.tolist(), inner, outer, keep):
            expected = w
            break
    assert crossing_spec(1.0).thresholds_many([graph], [weights])[0] == expected


def test_bounded_range_never_long():
    # boolean with constant radius R never makes edges of length >= 2R
    model = fixed_boolean(2, 0.5)
    window = ball_window(3.15, d=2)
    hits = 0
    for rep in range(50):
        cloud = sample_ppp(intensity=3.0, window=window, seed=900 + rep)
        graph = build_graph(cloud, model, seed=900 + rep)
        hits += graph.n_edges > 0
        assert not long_edge_spec(1.5, 1.0).evaluate(graph)
    assert hits > 30  # edges did occur; the events were false on merit


def sampled_graphs(model, radius, lam, seeds):
    window = ball_window(radius, d=model.d)
    for seed in seeds:
        cloud = sample_ppp(intensity=lam, window=window, seed=seed)
        yield build_graph(cloud, model, seed=seed)


def test_inclusion_long_edge_implies_crossing():
    # window sized for L(r, 3), which also covers C(r)
    r = 1.0
    positives = 0
    for name, lam in [("boolean-heavy", 1.2), ("plain-poly", 1.2)]:
        model = catalog(d=2)[name]
        for graph in sampled_graphs(model, 4.05 * r, lam, range(3000, 3120)):
            le = long_edge_spec(r, 3.0).evaluate(graph)
            if le:
                positives += 1
                assert crossing_spec(r).evaluate(graph)
    assert positives > 5


def test_inclusion_local_implies_crossing():
    r = 1.0
    positives = 0
    for name, lam in [("plain-indicator", 1.0), ("boolean-heavy", 0.8)]:
        model = catalog(d=2)[name]
        for graph in sampled_graphs(model, 3.05 * r, lam, range(4000, 4120)):
            loc = local_crossing_spec(r).evaluate(graph)
            if loc:
                positives += 1
                assert crossing_spec(r).evaluate(graph)
    assert positives > 5


def test_renorm_event_equals_scaled_long_edge():
    # the spec agrees with the endpoint-first oracle and with the (20r, 1/20) long-edge event
    r = 0.15
    positives = 0
    for name, lam in [("boolean-heavy", 1.5), ("plain-poly", 1.5)]:
        model = catalog(d=2)[name]
        for graph in sampled_graphs(model, 21.05 * r, lam, range(5000, 5075)):
            f = renorm_long_edge_spec(r).evaluate(graph)
            assert f == reference.renorm_long_edge_endpoint_first([graph], r)[0]
            assert f == long_edge_spec(20.0 * r, 1.0 / 20.0).evaluate(graph)
            positives += f
    assert positives > 5


def test_long_edge_monotone_in_length_ratio():
    r = 0.8
    cs = [0.3, 0.6, 1.0, 2.0, 4.0]
    model = catalog(d=2)["boolean-heavy"]
    for graph in sampled_graphs(model, (1 + cs[-1] + 0.05) * r, 1.2, range(6000, 6040)):
        vals = [long_edge_spec(r, c).evaluate(graph) for c in cs]
        # indicator can only switch from True to False as c grows
        for a, b in zip(vals, vals[1:]):
            assert a or not b


def test_eventspec_evaluate_dispatch():
    model = fixed_boolean(2, 0.5)
    graph = build_graph(make_cloud([[0.0, 0.0], [0.9, 0.0]], radius=25.0), model, seed=7)
    assert EventSpec(kind="long_edge", r=0.2, c=1.0).evaluate(graph)
    assert EventSpec(kind="crossing", r=0.3).evaluate(graph)
    assert EventSpec(kind="local_crossing", r=0.35).evaluate(graph)
    assert EventSpec(kind="renorm_long_edge", r=0.04).evaluate(graph)
    assert not EventSpec(kind="crossing", r=1.0).evaluate(graph)


def _roots(n, edges):
    """Component representative of every vertex: a plain union-find, one graph at a time."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in edges:
        parent[find(i)] = find(j)
    return [find(a) for a in range(n)]


def _oracle(spec, graph):
    """The event on one graph, straight from its definition."""
    pos = graph.cloud.positions
    r = spec.r
    sq = [float(np.sum(p * p)) for p in pos]
    edges = graph.edges.tolist()

    def length(i, j):
        return float(np.sqrt(np.sum((pos[i] - pos[j]) ** 2)))

    if spec.kind == "long_edge":
        return any((sq[i] < r * r or sq[j] < r * r) and length(i, j) > spec.c * r for i, j in edges)
    if spec.kind == "renorm_long_edge":
        return any(
            (sq[i] < (20 * r) ** 2 or sq[j] < (20 * r) ** 2) and float(np.sum((pos[i] - pos[j]) ** 2)) > r * r
            for i, j in edges
        )
    center = np.zeros(pos.shape[1]) if spec.center is None else spec.center
    dist2 = [float(np.sum((p - center) ** 2)) for p in pos]
    inside = [spec.kind == "crossing" or d2 <= (3 * r) ** 2 for d2 in dist2]
    roots = _roots(len(pos), [(i, j) for i, j in edges if inside[i] and inside[j]])
    sources = {roots[v] for v, d2 in enumerate(dist2) if inside[v] and d2 <= r * r}
    return any(roots[v] in sources for v, d2 in enumerate(dist2) if inside[v] and d2 > (2 * r) ** 2)


@st.composite
def _event_blocks(draw):
    """Random graphs on points in the unit ball, and an event that the ball's window covers."""
    d = draw(st.sampled_from([1, 2, 3]))
    window = ball_window(1.0, d=d)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graphs = []
    for n in draw(st.lists(st.integers(0, 14), max_size=6)):
        pos = gen.normal(size=(n, d))
        pos *= (gen.random(n) ** (1.0 / d) / np.maximum(np.linalg.norm(pos, axis=1), 1e-12))[:, None]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = gen.random(len(pairs)) < draw(st.sampled_from([0.1, 0.3, 0.7]))
        cloud = PointCloud(window=window, intensity=1.0, positions=pos, marks=np.full(n, 0.5), seed=0)
        edges = np.array([p for p, k in zip(pairs, keep) if k], dtype=np.int64).reshape(-1, 2)
        graphs.append(GeomGraph(cloud=cloud, seed=0, edges=edges))
    kind = draw(st.sampled_from(["long_edge", "crossing", "local_crossing", "renorm_long_edge"]))
    if kind == "long_edge":
        c = draw(st.floats(0.05, 1.5))
        spec = long_edge_spec(draw(st.floats(0.02, 1.0 / (1.0 + c))), c)
    elif kind == "crossing":
        spec = crossing_spec(draw(st.floats(0.02, 0.49)))
    elif kind == "local_crossing":
        r = draw(st.floats(0.02, 0.3))
        center = None if draw(st.booleans()) else gen.uniform(-1.0, 1.0, d) * (1.0 - 3.0 * r) / math.sqrt(d)
        spec = local_crossing_spec(r, center=center)
    else:
        spec = renorm_long_edge_spec(draw(st.floats(0.002, 1.0 / 21.0)))
    return spec, graphs


@settings(max_examples=300, deadline=None)
@given(_event_blocks())
def test_evaluate_many_equals_union_find_oracle_per_graph(case):
    spec, graphs = case
    got = spec.evaluate_many(graphs)
    assert got.dtype == bool and got.shape == (len(graphs),)
    assert got.tolist() == [_oracle(spec, g) for g in graphs]
    assert [spec.evaluate(g) for g in graphs] == got.tolist()


def test_center_only_on_local_crossing():
    for kind in ("long_edge", "crossing", "renorm_long_edge"):
        with pytest.raises(ConfigurationError, match="only a local crossing takes a center"):
            EventSpec(kind=kind, r=1.0, center=[3.0, 0.0])
    assert local_crossing_spec(1.0, center=[3.0, 0.0]).center.tolist() == [3.0, 0.0]


def test_local_crossing_center_must_match_dimension():
    graph = build_graph(make_cloud([[0.0, 0.0], [0.9, 0.0]], radius=2.0), fixed_boolean(2, 0.49), seed=5)
    spec = local_crossing_spec(0.2, center=[0.1, 0.0, 0.0])
    with pytest.raises(ConfigurationError, match="needs 2 coordinates, got 3"):
        spec.evaluate(graph)
    with pytest.raises(ConfigurationError, match="needs 2 coordinates, got 3"):
        spec.window(2)


def test_threshold_weights_one_per_vertex_and_not_nan():
    graph = build_graph(make_cloud([[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]], radius=2.05), fixed_boolean(2, 0.5), seed=3)
    spec = crossing_spec(0.5)
    assert spec.thresholds_many([graph], [np.array([0.1, 0.7, 0.4])])[0] == 0.7
    for weights in (np.array([0.1, 0.7]), np.array([0.1, 0.7, 0.4, 0.2]), np.full((3, 1), 0.5)):
        with pytest.raises(ConfigurationError, match="one weight per vertex"):
            spec.thresholds_many([graph], [weights])
    with pytest.raises(ConfigurationError, match="NaN"):
        spec.thresholds_many([graph], [np.array([0.1, np.nan, 0.4])])
    with pytest.raises(ConfigurationError, match="one weight per vertex"):
        spec.thresholds_many([graph, graph], [np.zeros(3)])
    with pytest.raises(ConfigurationError, match="crossing kinds"):
        long_edge_spec(0.5, 1.0).thresholds_many([graph], [np.zeros(3)])
    assert spec.thresholds_many([], []).shape == (0,)


# a crossing at r = 1 and a local crossing at r = 0.5 around (0.5, 0), in a window of
# radius 2.05; points on the axis sit exactly on the region boundaries of both
_AXIS_COORDS = (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
_LOCAL_CENTER = (0.5, 0.0)


@st.composite
def _weighted_groups(draw):
    """Graphs of mixed sizes (empty ones included) with vertex weights, for one threshold call."""
    group = []
    for n in draw(st.lists(st.integers(0, 10), max_size=5)):
        points = []
        for _ in range(n):
            if draw(st.booleans()):
                points.append([draw(st.sampled_from(_AXIS_COORDS)), 0.0])
            else:
                rho, angle = draw(st.floats(0.0, 2.04)), draw(st.floats(0.0, 2.0 * math.pi))
                points.append([rho * math.cos(angle), rho * math.sin(angle)])
        weight = st.one_of(st.sampled_from((0.25, 0.5)), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)), dtype=float)
        pairs = [] if n < 2 else draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
        edges = np.array(sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j}), dtype=np.int64).reshape(-1, 2)
        cloud = make_cloud(np.array(points, dtype=float).reshape(n, 2), radius=2.05)
        group.append((GeomGraph(cloud=cloud, seed=0, edges=edges), weights))
    return group


def _least_crossing_level(graph, weights, spec):
    """Brute force: the least weight w at which the crossing holds on the vertices weighted at most w."""
    center = spec.center.tolist() if spec.center is not None else [0.0, 0.0]
    d2 = [sum((x - c) * (x - c) for x, c in zip(p, center)) for p in graph.cloud.positions.tolist()]
    r = spec.r
    allowed = [v for v in range(graph.n_vertices) if spec.kind == "crossing" or d2[v] <= (3 * r) * (3 * r)]
    inner = [v for v in range(graph.n_vertices) if d2[v] <= r * r]
    outer = [v for v in range(graph.n_vertices) if d2[v] > (2 * r) * (2 * r)]
    for w in sorted(set(weights.tolist())):
        keep = [v for v in allowed if weights[v] <= w]
        if reference.bfs_path_exists(graph.n_vertices, graph.edges.tolist(), inner, outer, keep):
            return w
    return math.inf


@settings(max_examples=200, deadline=None)
@given(_weighted_groups(), st.sampled_from(["crossing", "local_origin", "local_shifted"]))
def test_thresholds_many_equals_brute_force_per_graph(group, which):
    spec = {
        "crossing": crossing_spec(1.0),
        "local_origin": local_crossing_spec(0.5),
        "local_shifted": local_crossing_spec(0.5, center=_LOCAL_CENTER),
    }[which]
    graphs = [g for g, _ in group]
    weights = [w for _, w in group]
    got = spec.thresholds_many(graphs, weights)
    assert got.dtype == float and got.shape == (len(graphs),)
    assert got.tolist() == [_least_crossing_level(g, w, spec) for g, w in group]
    # without weights the levels are the events themselves
    flat = spec.thresholds_many(graphs, [np.zeros(g.n_vertices) for g in graphs])
    assert (flat < math.inf).tolist() == spec.evaluate_many(graphs).tolist()


# dyadic lattice coordinates, so endpoints exactly on a ball's sphere are common
_LATTICE = tuple(k * 0.25 for k in range(-6, 7))


@st.composite
def _long_edge_cases(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    length = draw(st.sampled_from((0.5, 1.0, 1.25, 2.0)))
    # an offset of exactly the cut length: along an axis, or a 3-4-5 triangle for 1.25
    tie = np.zeros(d)
    if length == 1.25 and d > 1:
        tie[:2] = (0.75, 1.0)
    else:
        tie[0] = length
    graphs = []
    for n in draw(st.lists(st.integers(0, 8), max_size=5)):
        pos = np.array(draw(st.lists(st.sampled_from(_LATTICE), min_size=n * d, max_size=n * d)), dtype=float)
        pos = pos.reshape(n, d)
        if n >= 2 and draw(st.booleans()):
            pos[1] = pos[0] + tie
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = np.array([p for p, k in zip(pairs, keep) if k], dtype=np.int64).reshape(-1, 2)
        graphs.append(GeomGraph(cloud=make_cloud(pos, radius=4.0), seed=0, edges=edges))
    balls = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(_LATTICE), min_size=d, max_size=d),
                st.sampled_from((0.25, 0.5, 1.0, 1.25)),
                st.booleans(),
            ),
            max_size=4,
        )
    )
    return graphs, length, balls


@settings(max_examples=300, deadline=None)
@given(_long_edge_cases())
def test_long_edge_hits_equals_brute_force(case):
    graphs, length, balls = case
    got = long_edge_hits(graphs, length, balls)
    assert got.dtype == bool and got.shape == (len(graphs), len(balls))

    def hit(graph, center, radius, closed):
        pos = graph.cloud.positions.tolist()
        d2 = [sum((x - c) * (x - c) for x, c in zip(p, center)) for p in pos]
        inside = [v <= radius * radius if closed else v < radius * radius for v in d2]
        for i, j in graph.edges.tolist():
            if math.sqrt(sum((a - b) * (a - b) for a, b in zip(pos[i], pos[j]))) > length and (inside[i] or inside[j]):
                return True
        return False

    assert got.tolist() == [[hit(g, *ball) for ball in balls] for g in graphs]
    with mock.patch.object(events, "_HIT_CELLS", 1):  # one ball per chunk
        assert long_edge_hits(graphs, length, balls).tolist() == got.tolist()
    if graphs:  # a center of another dimension would broadcast silently
        with pytest.raises(ConfigurationError, match="ball center"):
            long_edge_hits(graphs, length, [([0.0] * (graphs[0].cloud.dimension + 1), 1.0, False)])


@st.composite
def _renorm_cases(draw):
    """Graphs on dyadic lattice points, with edges of length exactly r and ends exactly on the sphere of radius 20r."""
    d = draw(st.sampled_from([1, 2, 3]))
    r = draw(st.sampled_from((0.0625, 0.125, 0.25)))
    axis = np.eye(d)[0]
    lattice = tuple(k * r for k in range(-21, 22))
    graphs = []
    for n in draw(st.lists(st.integers(0, 8), max_size=5)):
        pos = np.array(draw(st.lists(st.sampled_from(lattice), min_size=n * d, max_size=n * d)), dtype=float)
        pos = pos.reshape(n, d)
        if n >= 1 and draw(st.booleans()):
            pos[0] = 20.0 * r * axis * draw(st.sampled_from((-1.0, 1.0)))  # on the sphere of radius 20r
        if n >= 2 and draw(st.booleans()):
            pos[1] = pos[0] + r * axis * draw(st.sampled_from((-1.0, 1.0)))  # an offset of exactly r
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = np.array([p for p, k in zip(pairs, keep) if k], dtype=np.int64).reshape(-1, 2)
        graphs.append(GeomGraph(cloud=make_cloud(pos, radius=23.0 * r * math.sqrt(d)), seed=0, edges=edges))
    return r, graphs


@settings(max_examples=300, deadline=None)
@given(_renorm_cases())
def test_renorm_long_edge_equals_endpoint_first_oracle(case):
    r, graphs = case
    got = renorm_long_edge_spec(r).evaluate_many(graphs)
    assert got.dtype == bool and got.shape == (len(graphs),)
    assert got.tolist() == reference.renorm_long_edge_endpoint_first(graphs, r).tolist()
