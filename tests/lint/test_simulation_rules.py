"""PIC401/PIC402: simulated-traffic integrity.

PIC401 — a callback registered as a flow continuation must only run
when the simulated transfer completes; invoking it synchronously
delivers the payload at zero simulated cost.

PIC402 — event handlers must not reach into the private state of the
simulation substrate (Simulation, FlowNetwork, Cluster, ...) while the
event loop is dispatching.
"""

import textwrap

from repro.lint import lint_source


def rules(source):
    return [
        f.rule
        for f in lint_source(textwrap.dedent(source))
        if f.rule.startswith("PIC4")
    ]


class TestTrafficBypass:
    def test_synchronous_invocation_of_registered_continuation_flagged(self):
        src = """
        class Shuffle:
            def send(self, cluster, payload, sink):
                def on_done(flow):
                    sink.append(payload)
                cluster.transfer(0, 1, 100.0, "shuffle", on_done)
                on_done(None)
        """
        assert rules(src) == ["PIC401"]

    def test_bypass_through_callback_factory_flagged(self):
        # The continuation is built by a helper; the registration and
        # the bypassing call both go through the returned reference.
        src = """
        class Shuffle:
            def __init__(self):
                self.buf = []

            def _make_arrival(self, payload):
                def on_arrival(flow):
                    self.buf.append(payload)
                return on_arrival

            def send(self, cluster, payload):
                cb = self._make_arrival(payload)
                cluster.transfer(0, 1, 100.0, "shuffle", cb)
                cb(None)
        """
        assert rules(src) == ["PIC401"]

    def test_bypass_through_forwarding_registrar_flagged(self):
        # send_with() forwards its parameter into transfer(); callbacks
        # passed to it become continuations transitively.
        src = """
        def send_with(cluster, nbytes, done):
            cluster.transfer(0, 1, nbytes, "shuffle", done)

        class Shuffle:
            def go(self, cluster, sink):
                def fin(flow):
                    sink.append(1)
                send_with(cluster, 10.0, fin)
                fin(None)
        """
        assert rules(src) == ["PIC401"]

    def test_near_miss_registration_only_silent(self):
        src = """
        class Shuffle:
            def send(self, cluster, payload, sink):
                def on_done(flow):
                    sink.append(payload)
                cluster.transfer(0, 1, 100.0, "shuffle", on_done)
        """
        assert rules(src) == []

    def test_on_ready_continuation_invoked_synchronously_flagged(self):
        # SplitGate.on_ready(split, cb) parks cb until the split's last
        # shuffle flow lands; calling it directly merges the bucket at
        # zero simulated cost.
        src = """
        class Merger:
            def arm(self, gate, sink):
                def merge(split):
                    sink.append(split)
                gate.on_ready(3, merge)
                merge(3)
        """
        assert rules(src) == ["PIC401"]

    def test_near_miss_on_ready_registration_only_silent(self):
        src = """
        class Merger:
            def arm(self, gate, sink):
                def merge(split):
                    sink.append(split)
                gate.on_ready(3, merge)
        """
        assert rules(src) == []

    def test_near_miss_plain_helper_call_silent(self):
        # Synchronously calling a function that was never registered as
        # a continuation is ordinary control flow.
        src = """
        class Shuffle:
            def send(self, cluster, payload, sink):
                def log(flow):
                    sink.append(payload)
                cluster.transfer(0, 1, 100.0, "shuffle", None)
                log(None)
        """
        assert rules(src) == []


class TestReentrantHandlerMutation:
    def test_handler_clearing_simulator_queue_flagged(self):
        src = """
        class Driver:
            def __init__(self, sim):
                self.sim = sim

            def arm(self):
                self.sim.schedule(1.0, self._tick)

            def _tick(self):
                self.sim._queue.clear()
        """
        assert rules(src) == ["PIC402"]

    def test_mutation_reached_through_helper_flagged(self):
        src = """
        class Driver:
            def __init__(self, sim):
                self.sim = sim

            def arm(self):
                self.sim.schedule(1.0, self._tick)

            def _tick(self):
                self._drain()

            def _drain(self):
                self.sim._queue.clear()
        """
        assert rules(src) == ["PIC402"]

    def test_near_miss_handler_mutating_own_state_silent(self):
        src = """
        class Driver:
            def __init__(self, sim):
                self.sim = sim
                self._buckets = []

            def arm(self):
                self.sim.schedule(1.0, self._tick)

            def _tick(self):
                self._buckets.clear()
        """
        assert rules(src) == []

    def test_near_miss_substrate_implementation_module_exempt(self):
        # A module that defines the substrate class is its
        # implementation; touching private state there is the point.
        src = """
        class FlowNetwork:
            def __init__(self, sim):
                self.sim = sim
                self._flows = {}

            def arm(self):
                self.sim.schedule(1.0, self._sweep)

            def _sweep(self):
                self._flows.clear()
        """
        assert rules(src) == []

    def test_near_miss_public_attribute_write_silent(self):
        src = """
        class Driver:
            def __init__(self, sim):
                self.sim = sim

            def arm(self):
                self.sim.schedule(1.0, self._tick)

            def _tick(self):
                self.sim.now = 0.0
        """
        assert rules(src) == []


class TestComponentTimerBypass:
    """PIC401 for the component-scoped completion-timer registrar."""

    def test_timer_callback_invoked_synchronously_flagged(self):
        # _arm_component_timer(comp, horizon, cb) parks cb until the
        # component's soonest flow completes; calling it directly
        # finishes the transfer at zero simulated cost.
        src = """
        class Planner:
            def plan(self, net, comp, sink):
                def fire():
                    sink.append(comp)
                net._arm_component_timer(comp, 3.0, fire)
                fire()
        """
        assert rules(src) == ["PIC401"]

    def test_near_miss_timer_registration_only_silent(self):
        src = """
        class Planner:
            def plan(self, net, comp, sink):
                def fire():
                    sink.append(comp)
                net._arm_component_timer(comp, 3.0, fire)
        """
        assert rules(src) == []


class TestPartitionStateWrites:
    """PIC402 for the union-find / dirty-set partition structures."""

    def test_handler_poking_union_find_through_alias_flagged(self):
        # The partition-maintenance structures are substrate-private by
        # *leaf name*: reaching _uf_parent through an alias that is not
        # a conventional substrate name is still a reentrant write.
        src = """
        class Driver:
            def __init__(self, sim, flows):
                self.sim = sim
                self.flows = flows

            def arm(self):
                self.sim.schedule(1.0, self._tick)

            def _tick(self):
                self.flows._uf_parent[0] = 0
        """
        assert rules(src) == ["PIC402"]

    def test_handler_marking_dirty_links_flagged(self):
        # Mutator-method writes (set.add) reach the same check as
        # subscript stores.
        src = """
        class Driver:
            def __init__(self, sim, flows):
                self.sim = sim
                self.flows = flows

            def arm(self):
                self.sim.schedule(1.0, self._tick)

            def _tick(self):
                self.flows._dirty_links.add(3)
        """
        assert rules(src) == ["PIC402"]

    def test_handler_dropping_component_entry_flagged(self):
        src = """
        class Driver:
            def __init__(self, sim, flows):
                self.sim = sim
                self.flows = flows

            def arm(self):
                self.sim.schedule(1.0, self._tick)

            def _tick(self):
                self.flows._comp.clear()
        """
        assert rules(src) == ["PIC402"]

    def test_handler_editing_route_class_count_flagged(self):
        # The standing route-class table is private the same way: a
        # multiplicity that disagrees with the rows skews every rate on
        # the class's links.
        src = """
        class Driver:
            def __init__(self, sim, flows):
                self.sim = sim
                self.flows = flows

            def arm(self):
                self.sim.schedule(1.0, self._tick)

            def _tick(self):
                self.flows._class_count[0] += 1
        """
        assert rules(src) == ["PIC402"]

    def test_near_miss_same_write_outside_handler_silent(self):
        # Only handler-reachable functions are PIC402 seeds; ordinary
        # setup code touching the same attribute is out of scope here.
        src = """
        class Driver:
            def __init__(self, flows):
                self.flows = flows

            def reset(self):
                self.flows._uf_parent[0] = 0
        """
        assert rules(src) == []

    def test_near_miss_handler_writing_own_adjacency_silent(self):
        # A class may keep its *own* _adj; only reaching into another
        # object's partition state is flagged.
        src = """
        class Router:
            def __init__(self, sim):
                self.sim = sim
                self._adj = {}

            def arm(self):
                self.sim.schedule(1.0, self._tick)

            def _tick(self):
                self._adj[1] = 2
        """
        assert rules(src) == []

    def test_near_miss_flow_network_owns_its_union_find_silent(self):
        src = """
        class FlowNetwork:
            def __init__(self, sim):
                self.sim = sim
                self._uf_parent = []
                self._dirty_links = set()

            def arm(self):
                self.sim.schedule(1.0, self._sweep)

            def _sweep(self):
                self._dirty_links.clear()
                self._uf_parent[0] = 0
        """
        assert rules(src) == []
