"""Unit tests for the pipelined-execution primitives.

:class:`SplitGate` is the barrier-removal mechanism: per-split latches
whose callbacks fire the moment *that split's* prerequisites land,
instead of parking the whole job behind ``cluster.run()``.
"""

from repro.mapreduce.pipeline import SplitGate


class TestSplitGate:
    def test_ready_split_fires_immediately(self):
        gate = SplitGate(2)
        fired = []
        gate.on_ready(0, lambda: fired.append(0))
        assert fired == [0]  # no dependencies were ever registered

    def test_callback_waits_for_dependency(self):
        gate = SplitGate(2)
        done = gate.add_dependency(1)
        fired = []
        gate.on_ready(1, lambda: fired.append(1))
        assert fired == []
        done()
        assert fired == [1]

    def test_late_registration_after_completion(self):
        gate = SplitGate(1)
        done = gate.add_dependency(0)
        done()
        fired = []
        gate.on_ready(0, lambda: fired.append("late"))
        assert fired == ["late"]

    def test_multi_split_dependency(self):
        """One aggregated flow may gate several splits at once."""
        gate = SplitGate(3)
        done = gate.add_dependency(0, 2)
        fired = []
        gate.on_ready(0, lambda: fired.append(0))
        gate.on_ready(1, lambda: fired.append(1))  # no deps: immediate
        gate.on_ready(2, lambda: fired.append(2))
        assert fired == [1]
        done()
        assert sorted(fired) == [0, 1, 2]

    def test_completion_callback_is_idempotent(self):
        """Flow on_complete hooks may be invoked defensively more than
        once; the latch must count each dependency exactly once."""
        gate = SplitGate(1)
        first = gate.add_dependency(0)
        second = gate.add_dependency(0)
        fired = []
        gate.on_ready(0, lambda: fired.append(True))
        first()
        first()  # duplicate invocation: ignored
        assert fired == []
        assert gate.pending(0) == 1
        second()
        assert fired == [True]

    def test_independent_splits_progress_independently(self):
        gate = SplitGate(2)
        done0 = gate.add_dependency(0)
        done1 = gate.add_dependency(1)
        order = []
        gate.on_ready(0, lambda: order.append(0))
        gate.on_ready(1, lambda: order.append(1))
        done1()
        assert order == [1]  # split 1 did not wait for split 0
        done0()
        assert order == [1, 0]

    def test_callback_accepts_flow_argument(self):
        """Flow completion passes the flow object; the latch tolerates it."""
        gate = SplitGate(1)
        done = gate.add_dependency(0)
        fired = []
        gate.on_ready(0, lambda: fired.append(True))
        done(object())  # simulated Flow handed to on_complete
        assert fired == [True]
