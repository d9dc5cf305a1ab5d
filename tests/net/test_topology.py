"""Tests for overlay topologies."""

import numpy as np
import pytest

from repro.net.topology import DynamicTopology, Topology


def test_complete_graph_all_connected():
    t = Topology.complete(5)
    assert t.n == 5
    assert t.is_connected()
    for i in range(5):
        for j in range(5):
            if i != j:
                assert t.has_edge(i, j)


def test_ring_neighbors():
    t = Topology.ring(5)
    assert t.neighbors(0) == [1, 4]
    assert t.hop_distance(0, 2) == 2


def test_star_topology():
    t = Topology.star(5)
    assert t.neighbors(0) == [1, 2, 3, 4]
    assert t.neighbors(3) == [0]
    assert t.hop_distance(1, 2) == 2    # via hub


def test_star_custom_center():
    t = Topology.star(4, center=2)
    assert t.neighbors(2) == [0, 1, 3]


def test_grid():
    t = Topology.grid(2, 3)
    assert t.n == 6
    assert t.is_connected()


def test_random_geometric_deterministic():
    a = Topology.random_geometric(20, 0.5, np.random.default_rng(7))
    b = Topology.random_geometric(20, 0.5, np.random.default_rng(7))
    assert set(a.graph.edges) == set(b.graph.edges)


def test_connected_uses_paths_not_just_edges():
    t = Topology.ring(6)
    assert not t.has_edge(0, 3)
    assert t.connected(0, 3)


def test_connected_to_self():
    assert Topology.complete(2).connected(1, 1)


def test_empty_topology_rejected():
    import networkx as nx
    with pytest.raises(ValueError):
        Topology(nx.Graph())


def test_hop_distance_unreachable():
    import networkx as nx
    g = nx.Graph()
    g.add_nodes_from([0, 1])
    t = Topology(g)
    assert t.hop_distance(0, 1) == -1
    assert not t.connected(0, 1)


def test_dynamic_churn_flips_edges():
    t = DynamicTopology(Topology.complete(6).graph)
    rng = np.random.default_rng(1)
    before = set(t.graph.edges)
    flipped = t.churn(rng, flip_fraction=0.2)
    after = set(t.graph.edges)
    assert flipped == 3        # 15 pairs * 0.2
    assert before != after
    assert t.epoch == 1


def test_dynamic_churn_zero_fraction():
    t = DynamicTopology(Topology.complete(4).graph)
    assert t.churn(np.random.default_rng(0), flip_fraction=0.0) == 0
    assert t.epoch == 1


def test_dynamic_churn_validation():
    t = DynamicTopology(Topology.complete(3).graph)
    with pytest.raises(ValueError):
        t.churn(np.random.default_rng(0), flip_fraction=1.5)


def test_dynamic_add_remove_edge():
    t = DynamicTopology(Topology.ring(4).graph)
    t.add_edge(0, 2)
    assert t.has_edge(0, 2)
    t.remove_edge(0, 2)
    assert not t.has_edge(0, 2)
    t.remove_edge(0, 2)   # idempotent


def test_dynamic_does_not_mutate_source_graph():
    base = Topology.complete(4)
    t = DynamicTopology(base.graph)
    t.remove_edge(0, 1)
    assert base.has_edge(0, 1)


def test_partition_reachability_follows_churn_that_keeps_edge_count():
    """Regression: the overlay's component cache used to key on the
    edge count, so a remove + add left it answering for the old graph."""
    import networkx as nx
    from repro.net.topology import PartitionOverlay

    g = nx.Graph([(0, 1), (2, 3)])
    t = DynamicTopology(g)
    overlay = PartitionOverlay(cut_edges=[(2, 3)])
    assert overlay.connected(t, 0, 1)          # warms the cache
    t.remove_edge(0, 1)
    t.add_edge(1, 2)
    assert t.graph.number_of_edges() == 2
    assert not t.connected(0, 1)
    assert not overlay.connected(t, 0, 1)
    assert overlay.connected(t, 1, 2)
    assert not overlay.connected(t, 2, 3)      # still cut


def test_component_labels_cached_until_mutation():
    t = DynamicTopology(Topology.ring(4).graph)
    labels = t.component_labels()
    assert t.component_labels() is labels
    v = t.version
    t.remove_edge(0, 1)
    assert t.version == v + 1
    t.remove_edge(0, 1)                        # absent: nothing changes
    assert t.version == v + 1
    t.remove_edge(2, 3)
    assert t.connected(0, 3)                   # the 3-0 edge remains
    assert not t.connected(1, 3)
    t.add_edge(1, 3)
    assert t.version == v + 3
    assert t.connected(1, 3)
    t.churn(np.random.default_rng(0), flip_fraction=0.5)
    assert t.version == v + 4
    import networkx as nx

    for a in range(4):
        for b in range(4):
            assert t.connected(a, b) == nx.has_path(t.graph, a, b)


def test_connected_rejects_unknown_node():
    import networkx as nx

    with pytest.raises(nx.NodeNotFound):
        Topology.ring(3).connected(0, 7)
