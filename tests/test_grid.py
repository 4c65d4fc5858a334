"""Network model tests: PTDF values, flow conservation, node assignment."""

import dataclasses

import numpy as np
import pytest

from h2grid.errors import (EmptyNetwork, InvalidLine, NetworkDisconnected)
from h2grid.grid import (Generator, Line, Node, PowerSystem, WIND,
                         assign_to_nearest_node, compute_ptdf,
                         merge_parallel_lines)


def nodes_at(coords):
    return [Node(i, float(x), float(y)) for i, (x, y) in enumerate(coords)]


class TestPTDF:
    def test_two_node_line(self):
        # one line from 0 to 1, slack at 0: injecting at node 1 flows
        # entirely back over the line, so H = [0, -1]
        nodes = nodes_at([(0, 0), (1, 0)])
        lines = [Line(0, 0, 1, 100.0, 1.0)]
        ptdf = compute_ptdf(nodes, lines, slack=0)
        assert ptdf.entries[0, 0] == pytest.approx(0.0)
        assert ptdf.entries[0, 1] == pytest.approx(-1.0)

    def test_three_node_ring_split(self):
        # equal reactances in a triangle: injection at node 1 towards the
        # slack splits 2/3 direct and 1/3 around the long path
        nodes = nodes_at([(0, 0), (1, 0), (0, 1)])
        lines = [Line(0, 0, 1, 100.0, 1.0), Line(1, 1, 2, 100.0, 1.0),
                 Line(2, 0, 2, 100.0, 1.0)]
        ptdf = compute_ptdf(nodes, lines, slack=0)
        inj = np.array([-1.0, 1.0, 0.0])
        flows = ptdf.flows(inj)
        direct = abs(flows[list(ptdf.line_ids).index(0)])
        assert direct == pytest.approx(2.0 / 3.0)

    def test_slack_invariance(self):
        rng = np.random.default_rng(5)
        nodes = nodes_at(rng.uniform(0, 10, (6, 2)))
        lines = [Line(k, a, b, 100.0, float(rng.uniform(0.5, 2)))
                 for k, (a, b) in enumerate(
                     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                      (1, 4)])]
        inj = rng.uniform(-5, 5, 6)
        inj -= inj.mean()  # balanced
        f0 = compute_ptdf(nodes, lines, slack=0).flows(inj)
        f3 = compute_ptdf(nodes, lines, slack=3).flows(inj)
        assert np.allclose(f0, f3, atol=1e-9)

    def test_flow_conservation(self):
        # net flow out of each node equals its injection (KCL)
        rng = np.random.default_rng(11)
        nodes = nodes_at(rng.uniform(0, 10, (5, 2)))
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
        lines = [Line(k, a, b, 100.0, float(rng.uniform(0.5, 2)))
                 for k, (a, b) in enumerate(edges)]
        ptdf = compute_ptdf(nodes, lines, slack=2)
        inj = rng.uniform(-5, 5, 5)
        inj -= inj.mean()
        flows = ptdf.flows(inj)
        # merged rows are keyed by line id, not input order
        row_of = {line_id: k for k, line_id in enumerate(ptdf.line_ids)}
        for node in range(5):
            net = sum(flows[row_of[k]] * (1 if a == node else -1)
                      for k, (a, b) in enumerate(edges)
                      if node in (a, b))
            assert net == pytest.approx(inj[node], abs=1e-9)

    def test_parallel_lines_merged(self):
        lines = [Line(0, 0, 1, 100.0, 1.0), Line(1, 1, 0, 200.0, 1.0)]
        merged = merge_parallel_lines(lines)
        assert len(merged) == 1
        assert merged[0].capacity_mw == pytest.approx(300.0)
        assert merged[0].reactance_pu == pytest.approx(0.5)

    def test_disconnected_raises(self):
        nodes = nodes_at([(0, 0), (1, 0), (5, 5)])
        lines = [Line(0, 0, 1, 100.0, 1.0)]
        with pytest.raises(NetworkDisconnected):
            compute_ptdf(nodes, lines, slack=0)

    def test_line_validation(self):
        with pytest.raises(InvalidLine):
            Line(0, 1, 1, 100.0, 1.0)
        with pytest.raises(InvalidLine):
            Line(0, 0, 1, -5.0, 1.0)
        with pytest.raises(InvalidLine):
            Line(0, 0, 1, 100.0, 0.0)

    def test_empty_network(self):
        with pytest.raises(EmptyNetwork):
            compute_ptdf([], [], slack=0)


class TestNearestNode:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        nodes = nodes_at(rng.uniform(0, 100, (12, 2)))
        for _ in range(200):
            p = rng.uniform(-10, 110, 2)
            expect = min(nodes, key=lambda nd: ((nd.x - p[0]) ** 2
                                                + (nd.y - p[1]) ** 2,
                                                nd.id)).id
            assert assign_to_nearest_node(p, nodes) == expect

    def test_tie_breaks_to_lowest_id(self):
        nodes = [Node(3, 0.0, 1.0), Node(1, 0.0, -1.0), Node(2, 1.0, 0.0)]
        assert assign_to_nearest_node((0.0, 0.0), nodes) == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyNetwork):
            assign_to_nearest_node((0, 0), [])


class TestIdentity:
    """A generator, a system and a PTDF hold numpy arrays, which have no
    truth value, so they compare and hash by identity."""

    def objects(self):
        nodes = nodes_at([(0, 0), (1, 0)])
        lines = [Line(0, 0, 1, 100.0, 1.0)]
        wind = Generator(0, 1, WIND, 0.0, profile=np.array([3.0, 4.0]))
        system = PowerSystem(tuple(nodes), tuple(lines), (wind,),
                             np.ones((2, 2)), compute_ptdf(nodes, lines, 0))
        return wind, system

    def test_compare_and_hash_by_identity(self):
        wind, system = self.objects()
        copies = [dataclasses.replace(wind, profile=2 * wind.profile),
                  dataclasses.replace(wind),
                  system.with_demand(2 * system.demand),
                  dataclasses.replace(system),
                  dataclasses.replace(system.ptdf)]
        for original, copy in zip((wind, wind, system, system, system.ptdf),
                                  copies):
            assert original == original and original != copy
        assert len({wind, system, system.ptdf, *copies}) == 8
