"""Tests for the Cluster facade."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.events import Event
from repro.cluster.topology import NodeSpec


class TestFacade:
    def test_defaults_single_rack(self):
        c = Cluster(num_nodes=4)
        assert c.topology.num_racks == 1
        assert c.num_nodes == 4

    def test_clock_passthrough(self):
        c = Cluster(num_nodes=2)
        assert c.now == 0.0
        c.sim.schedule(2.5, lambda: None)
        c.run()
        assert c.now == 2.5

    def test_transfer_records_traffic(self):
        c = Cluster(num_nodes=3)
        c.transfer(0, 1, 1000, "x")
        c.run()
        assert c.meter.total("x") == 1000

    def test_compute_time_scales_with_speed(self):
        c = Cluster(num_nodes=2, node_spec=NodeSpec(cpu_speed=2.0))
        assert c.compute_time(0, 1.0) == pytest.approx(0.5)

    def test_run_quiesces(self):
        c = Cluster(num_nodes=2)
        seen = []
        c.sim.schedule(1.0, lambda: seen.append(1))
        c.sim.schedule(2.0, lambda: seen.append(2))
        c.run()
        assert seen == [1, 2]

    def test_nodes_property(self):
        c = Cluster(num_nodes=5, nodes_per_rack=2)
        assert [n.node_id for n in c.nodes] == [0, 1, 2, 3, 4]
        assert c.nodes[4].rack_id == 2

    def test_independent_meters(self):
        a = Cluster(num_nodes=2)
        b = Cluster(num_nodes=2)
        a.transfer(0, 1, 10, "t")
        a.run()
        assert b.meter.grand_total() == 0


class TestMove:
    def test_local_move_is_disk_time_off_the_fabric(self):
        c = Cluster(num_nodes=4, nodes_per_rack=2, node_spec=NodeSpec(disk_bandwidth=50e6))
        done = []
        event = c.move(1, 1, 1e6, "input", lambda: done.append(c.now))
        assert isinstance(event, Event)
        assert c.network.active_flows == []
        c.run()
        assert done == [1e6 / 50e6]
        assert c.meter.total("input") == 1e6
        assert c.meter.fabric("input") == 0

    def test_cancelling_a_local_move_stops_its_callback(self):
        c = Cluster(num_nodes=2)
        done = []
        event = c.move(0, 0, 1000, "input", lambda: done.append(1))
        event.cancel()
        c.run()
        assert done == []
        assert c.meter.total("input") == 1000

    def test_remote_move_is_a_flow(self):
        c = Cluster(num_nodes=4, nodes_per_rack=2)
        done = []
        assert c.move(0, 3, 1000, "input", done.append) is None
        c.run()
        assert len(done) == 1 and done[0].dst == 3
        assert c.meter.fabric("input") == 1000
        assert c.meter.bisection("input") == 1000
