"""Tests for the flow-level network model (max-min fair sharing)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.flows import LOCAL_COPY_BANDWIDTH
from repro.cluster.topology import GIGABIT


def make_cluster(num_nodes=8, nodes_per_rack=4, **kw) -> Cluster:
    return Cluster(num_nodes=num_nodes, nodes_per_rack=nodes_per_rack, **kw)


class TestSingleFlow:
    def test_uncontended_time_is_size_over_bandwidth(self):
        c = make_cluster()
        done = []
        c.transfer(0, 1, GIGABIT, "t", lambda f: done.append(c.now))
        c.run()
        assert done == [pytest.approx(1.0)]

    def test_cross_rack_same_speed_uncontended(self):
        c = make_cluster()
        c.transfer(0, 5, GIGABIT, "t")
        c.run()
        assert c.now == pytest.approx(1.0)

    def test_local_transfer_uses_memory_bandwidth(self):
        c = make_cluster()
        c.transfer(2, 2, LOCAL_COPY_BANDWIDTH, "t")
        c.run()
        assert c.now == pytest.approx(1.0)

    def test_zero_bytes_completes_immediately(self):
        c = make_cluster()
        done = []
        c.transfer(0, 1, 0, "t", lambda f: done.append(f))
        c.run()
        assert len(done) == 1
        assert c.now == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            make_cluster().transfer(0, 1, -5, "t")

    @pytest.mark.parametrize("nbytes", [float("nan"), float("inf")])
    @pytest.mark.parametrize("batched", [False, True], ids=["start_flow", "start_flows"])
    def test_non_finite_bytes_rejected_before_any_accounting(self, nbytes, batched):
        """NaN used to poison the meter and die later as a "wedged"
        allocation; inf used to complete at a finite time having carried
        inf bytes.  Both stop at the boundary, nothing recorded."""
        c = make_cluster()
        c.transfer(0, 5, 1000.0, "t")
        meter_before = c.meter.snapshot()
        carried_before = [link.bytes_carried for link in c.topology.links]
        with pytest.raises(ValueError, match="non-finite"):
            if batched:
                c.network.start_flows([(0, 3, nbytes, "t"), (1, 2, 10.0, "t")])
            else:
                c.network.start_flow(0, 3, nbytes, "t")
        assert c.meter.snapshot() == meter_before
        assert [link.bytes_carried for link in c.topology.links] == carried_before
        c.run()
        assert c.now == pytest.approx(1000.0 / GIGABIT)

    def test_flow_metadata(self):
        c = make_cluster()
        flow = c.transfer(0, 1, 100.0, "shuffle")
        assert flow.src == 0 and flow.dst == 1
        assert flow.category == "shuffle"
        c.run()
        assert flow.done
        assert flow.remaining == 0.0


class TestFairSharing:
    def test_two_flows_share_source_uplink(self):
        c = make_cluster()
        c.transfer(0, 1, GIGABIT, "t")
        c.transfer(0, 2, GIGABIT, "t")
        c.run()
        # Each gets half the uplink, so both finish at 2s.
        assert c.now == pytest.approx(2.0)

    def test_disjoint_flows_do_not_interact(self):
        c = make_cluster()
        c.transfer(0, 1, GIGABIT, "t")
        c.transfer(2, 3, GIGABIT, "t")
        c.run()
        assert c.now == pytest.approx(1.0)

    def test_released_bandwidth_is_reused(self):
        c = make_cluster()
        finish = {}
        c.transfer(0, 1, GIGABIT / 2, "t", lambda f: finish.__setitem__("short", c.now))
        c.transfer(0, 2, GIGABIT, "t", lambda f: finish.__setitem__("long", c.now))
        c.run()
        # Short flow: half rate until done at t=1. Long flow: 0.5 GB left
        # at t=1 at full rate -> done at 1.5s.
        assert finish["short"] == pytest.approx(1.0)
        assert finish["long"] == pytest.approx(1.5)

    def test_oversubscribed_core_is_bottleneck(self):
        c = make_cluster(oversubscription=4.0)  # rack uplink == 1 GigE
        # Four cross-rack flows from distinct sources share one rack uplink.
        for src in range(4):
            c.transfer(src, 4 + src, GIGABIT, "t")
        c.run()
        assert c.now == pytest.approx(4.0)

    def test_max_min_gives_unbottlenecked_flow_more(self):
        c = make_cluster()
        finish = {}
        # Two flows into node 1 (its downlink shared), one flow 2->3 alone.
        c.transfer(0, 1, GIGABIT, "t", lambda f: finish.__setitem__("a", c.now))
        c.transfer(2, 1, GIGABIT, "t", lambda f: finish.__setitem__("b", c.now))
        c.transfer(4, 5, GIGABIT, "t", lambda f: finish.__setitem__("c", c.now))
        c.run()
        assert finish["c"] == pytest.approx(1.0)
        assert finish["a"] == pytest.approx(2.0)
        assert finish["b"] == pytest.approx(2.0)


class TestRouteClasses:
    def test_max_min_with_multiplicities_by_hand(self):
        """Three routes carry 5, 2 and 1 flows from rack 0 to rack 1 over
        a 2 Gb/s rack uplink (edges 1 Gb/s).

        Round 1: the uplink offers 2G/8 = G/4 per flow, but node 0's edge
        carries all five flows of route A and offers only G/5 — it
        saturates first and freezes A at G/5.  Round 2: the uplink has
        2G - 8*(G/5) left for the three unfrozen flows, (2G/5)/3 more
        each, and saturates: routes B and C run at G/5 + 2G/15 = G/3."""
        c = make_cluster(num_nodes=8, nodes_per_rack=4, oversubscription=2.0)
        assert c.topology.rack_uplink_bandwidth == 2 * GIGABIT
        done = []
        size = 1e8
        routes = [(0, 4)] * 5 + [(1, 5)] * 2 + [(2, 6)]
        flows = [
            c.transfer(src, dst, size, "t", lambda f: done.append((f.flow_id, c.now)))
            for src, dst in routes
        ]
        c.network._do_recompute()
        slow = GIGABIT / 5
        fast = slow + (2 * GIGABIT - slow * 8) / 3
        assert fast == pytest.approx(GIGABIT / 3)
        assert [f.rate for f in flows] == [slow] * 5 + [fast] * 3
        # One class per route, counting its flows.
        net = c.network
        assert sorted(count for count in net._class_count if count) == [1, 2, 5]
        assert len(net._class_count) == 3
        c.run()
        # B and C drain together first (flow-id order within the batch);
        # A is edge-limited either way and keeps its rate to the end.
        assert [fid for fid, _ in done] == [5, 6, 7, 0, 1, 2, 3, 4]
        assert [t for _, t in done[:3]] == [size / fast] * 3
        assert [t for _, t in done[3:]] == [pytest.approx(size / slow)] * 5
        assert not any(net._class_count)


class TestByteConservation:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7),
                st.integers(0, 7),
                st.floats(min_value=1.0, max_value=1e9),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_all_flows_complete_and_bytes_accounted(self, specs):
        c = make_cluster()
        done = []
        total = 0.0
        for src, dst, nbytes in specs:
            c.transfer(src, dst, nbytes, "t", lambda f: done.append(f))
            total += nbytes
        c.run()
        assert len(done) == len(specs)
        assert c.meter.total("t") == pytest.approx(total)
        for flow in done:
            assert flow.remaining == 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=2,
            max_size=10,
        )
    )
    def test_completion_never_beats_line_rate(self, pairs):
        """No flow can finish faster than its uncontended transfer time."""
        c = make_cluster()
        nbytes = 1e8
        finishes = {}
        for i, (src, dst) in enumerate(pairs):
            lower = c.network.transfer_time(src, dst, nbytes)
            c.transfer(
                src, dst, nbytes, "t",
                lambda f, i=i, lo=lower: finishes.__setitem__(i, (c.now, lo)),
            )
        c.run()
        for t_finish, lower_bound in finishes.values():
            assert t_finish >= lower_bound - 1e-9


class TestBatchedRecompute:
    def test_rates_valid_after_simultaneous_starts(self):
        """Flows started in the same instant share one recomputation and
        the resulting rates never oversubscribe a link."""
        c = make_cluster()
        flows = [c.transfer(0, dst, GIGABIT, "t") for dst in (1, 2, 3)]
        c.network._do_recompute()  # what the batched event will run
        # Three flows share node 0's uplink: 1/3 capacity each.
        for flow in flows:
            assert flow.rate == pytest.approx(GIGABIT / 3)
        load = sum(f.rate for f in flows)
        assert load <= GIGABIT * (1 + 1e-9)

    def test_batched_equals_sequential_outcome(self):
        """Starting flows together or from separate events gives the
        same completion times (the batch is a pure optimization)."""
        def run_batched():
            c = make_cluster()
            done = {}
            for i, dst in enumerate((1, 2, 3)):
                c.transfer(0, dst, GIGABIT, "t",
                           lambda f, i=i: done.__setitem__(i, c.now))
            c.run()
            return done

        def run_staggered():
            c = make_cluster()
            done = {}

            def start(i, dst):
                c.transfer(0, dst, GIGABIT, "t",
                           lambda f: done.__setitem__(i, c.now))

            # Same simulated instant, separate events.
            for i, dst in enumerate((1, 2, 3)):
                c.sim.schedule(0.0, lambda i=i, dst=dst: start(i, dst))
            c.run()
            return done

        assert run_batched() == pytest.approx(run_staggered())

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=1, max_size=16,
        )
    )
    def test_no_link_oversubscribed(self, pairs):
        """After every recompute, aggregate flow rate per link stays
        within capacity (feasibility of the max-min allocation)."""
        c = make_cluster()
        for src, dst in pairs:
            c.transfer(src, dst, 1e9, "t")
        c.network._do_recompute()
        loads: dict[int, float] = {}
        for flow in c.network.active_flows:
            for link in flow.links:
                loads[link.link_id] = loads.get(link.link_id, 0.0) + flow.rate
        for link_id, load in loads.items():
            capacity = c.topology.links[link_id].capacity
            assert load <= capacity * (1 + 1e-6)

    def test_flow_added_while_others_in_progress(self):
        c = make_cluster()
        finish = {}
        c.transfer(0, 1, 2 * GIGABIT, "t", lambda f: finish.__setitem__("a", c.now))
        c.sim.schedule(1.0, lambda: c.transfer(
            2, 1, GIGABIT, "t", lambda f: finish.__setitem__("b", c.now)))
        c.run()
        # Flow a: 1s alone (1 GB done), then shares node 1 downlink ->
        # 0.5 rate for the remaining 1 GB -> finishes at 3.0s.
        assert finish["a"] == pytest.approx(3.0)
        # Flow b: 0.5 rate from t=1 while a runs; a ends at 3 with b
        # having 1 GB left? b moved 1.0 GB by t=3 -> done exactly at 3.
        assert finish["b"] == pytest.approx(3.0)


class TestBatchStart:
    """``start_flows`` is one start path: a batch is the same as one
    call per request, and a bad request starts none of its batch."""

    @pytest.mark.parametrize(
        "bad",
        [(0, 3, -5.0, "t"), (0, 3, float("nan"), "t"), (0, 99, 10.0, "t")],
        ids=["negative", "nan", "unknown-node"],
    )
    def test_bad_request_mid_batch_starts_nothing(self, bad):
        def outcome(c):
            c.run()
            carried = [link.bytes_carried for link in c.topology.links]
            return c.meter.snapshot(), carried, c.now, c.sim.events_processed

        c = make_cluster()
        c.transfer(0, 5, 1000.0, "t")
        net, sim = c.network, c.sim
        meter_before = c.meter.snapshot()
        carried_before = [link.bytes_carried for link in c.topology.links]
        queue_before = list(sim._queue)
        rows_before = net._n
        batch = [
            (0, 1, 100.0, "t"),  # fabric
            (2, 2, 50.0, "t"),  # intra-node
            (1, 6, 0.0, "t"),  # zero-byte
            bad,
            (3, 4, 10.0, "t"),
        ]
        with pytest.raises(ValueError):
            c.network.start_flows(batch)
        assert c.meter.snapshot() == meter_before
        assert [link.bytes_carried for link in c.topology.links] == carried_before
        assert sim._queue == queue_before
        assert net._n == rows_before
        # No flow id was spent on the rejected batch.
        assert c.transfer(0, 1, 10.0, "t").flow_id == 1
        # The run is the one a cluster that never saw the batch makes.
        control = make_cluster()
        control.transfer(0, 5, 1000.0, "t")
        control.transfer(0, 1, 10.0, "t")
        assert outcome(c) == outcome(control)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7),
                st.integers(0, 7),
                st.sampled_from([0.0, 1e-7, 1.0, 4096.0, 1e6, 3e8]),
            ),
            min_size=1,
            max_size=24,
        ),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_batch_equals_one_call_per_request(self, specs, at):
        """Mixed zero-byte, intra-node and fabric requests, started at
        ``at`` from inside a callback: ids, completion times and order,
        meter totals and link bytes all match per-request starts, and
        every ``on_complete`` receives its own flow."""

        def run(batched):
            c = make_cluster()
            c.transfer(0, 5, 2e8, "t")  # a flow already in progress
            got = []
            started = []

            def done(i):
                return lambda flow: got.append((i, flow, c.now))

            requests = [
                (src, dst, nbytes, "shuffle" if i % 2 else "model", done(i))
                for i, (src, dst, nbytes) in enumerate(specs)
            ]

            def start():
                if batched:
                    started.extend(c.network.start_flows(requests))
                else:
                    started.extend(c.network.start_flow(*req) for req in requests)

            c.sim.schedule(at, start)
            c.run()
            for i, flow, _ in got:
                assert flow is started[i]
            trace = [(i, flow.flow_id, now) for i, flow, now in got]
            carried = [link.bytes_carried for link in c.topology.links]
            return trace, c.meter.snapshot(), carried, c.sim.events_processed

        batched = run(True)
        assert len(batched[0]) == len(specs)
        assert batched == run(False)


class TestScaleAwareCompletionEpsilon:
    """The completion threshold must scale with flow size: one ULP of a
    multi-GB byte count exceeds the absolute epsilon, so a fixed
    threshold can strand a finished flow microscopically short of zero
    and spawn a cascade of near-zero-length completion events."""

    def test_epsilon_covers_float_spacing(self):
        import numpy as np

        from repro.cluster.flows import completion_eps

        for size in (1.0, 1e6, 2e10, 7.5e12):
            assert completion_eps(size) >= np.spacing(size)
        # Small flows keep the absolute floor.
        assert completion_eps(0.0) == 1e-6
        assert completion_eps(1.0) == 1e-6

    def test_huge_flow_completes_without_event_cascade(self):
        c = make_cluster(num_nodes=2, nodes_per_rack=2)
        done = {}
        c.transfer(0, 1, 2.5e10, "t", lambda f: done.setdefault("at", c.now))
        # Nudge the clock through several rate recomputes so ``remaining``
        # accumulates rounding error from repeated ``rate * dt`` updates.
        for i in range(1, 6):
            c.sim.schedule(i * 7.3, lambda: c.network._do_recompute())
        c.run()
        assert done["at"] == pytest.approx(2.5e10 / GIGABIT)
        # One completion horizon, not a tail of epsilon-chasing events.
        assert c.sim.events_processed <= 12


class TestLargeClockProgress:
    """A completion horizon below half an ulp of the clock rounds
    ``now + horizon`` back to ``now``: armed there, the timer fires with
    no time elapsed, drains nothing and re-arms at the same instant for
    ever.  Every batch must drain in a few events per flow, whatever the
    clock reads when it starts."""

    @settings(max_examples=60, deadline=None)
    @given(
        offset=st.floats(min_value=0.0, max_value=1e7),
        bandwidth=st.floats(min_value=1e6, max_value=1e13),
        flows=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.integers(0, 7),
                st.floats(min_value=1.0, max_value=1e10),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_batch_drains_at_any_clock(self, offset, bandwidth, flows):
        c = make_cluster(edge_bandwidth=bandwidth)
        c.sim.schedule_at(offset, lambda: None)
        c.run()
        before = c.sim.events_processed
        done = []
        c.transfer_batch(
            [(src, dst, nbytes, "t", done.append) for src, dst, nbytes in flows]
        )
        c.run(max_events=4 * len(flows) + 4)
        assert len(done) == len(flows)
        assert c.sim.events_processed - before <= 4 * len(flows) + 4
