"""PIC201/PIC202: byte-accounting rules.

PIC201 is a per-file rule; PIC202 is a sink of the unit-taint pass (a
value that is a record count and nothing else reaching a byte argument).
"""

import textwrap

from repro.lint import lint_source


def rules_found(source):
    return [f.rule for f in lint_source(textwrap.dedent(source))]


class TestGetsizeof:
    def test_sys_getsizeof_flagged(self):
        assert rules_found(
            """
            import sys

            def size(records):
                return sys.getsizeof(records)
            """
        ) == ["PIC201"]

    def test_from_import_flagged(self):
        assert rules_found(
            """
            from sys import getsizeof

            def size(records):
                return getsizeof(records)
            """
        ) == ["PIC201"]

    def test_sizing_helpers_are_fine(self):
        assert rules_found(
            """
            from repro.util.sizing import sizeof_records

            def size(records):
                return sizeof_records(records)
            """
        ) == []


class TestRawLenByteCount:
    def test_len_as_nbytes_kwarg_flagged(self):
        assert rules_found(
            """
            def ship(sim, records):
                sim.transfer("a", "b", nbytes=len(records))
            """
        ) == ["PIC202"]

    def test_len_as_flow_size_flagged(self):
        assert rules_found(
            """
            from repro.cluster.flows import Flow

            def ship(records):
                return Flow(src=0, dst=1, size=len(records))
            """
        ) == ["PIC202"]

    def test_len_positional_in_start_flow_flagged(self):
        assert rules_found(
            """
            def ship(net, records):
                net.start_flow("a", "b", len(records))
            """
        ) == ["PIC202"]

    def test_getsizeof_as_size_bytes_flagged(self):
        findings = rules_found(
            """
            import sys

            def ship(sim, payload):
                sim.account(size_bytes=sys.getsizeof(payload))
            """
        )
        # Both the getsizeof call itself and its use as a byte count.
        assert sorted(findings) == ["PIC201", "PIC202"]

    def test_sizeof_records_as_nbytes_is_fine(self):
        assert rules_found(
            """
            from repro.util.sizing import sizeof_records

            def ship(sim, records):
                sim.transfer("a", "b", nbytes=sizeof_records(records))
            """
        ) == []

    def test_nbytes_attribute_is_fine(self):
        assert rules_found(
            """
            def ship(sim, split):
                sim.transfer("a", "b", nbytes=split.nbytes)
            """
        ) == []

    def test_len_for_record_count_is_fine(self):
        # len() is legitimate when it counts records, not bytes.
        assert rules_found(
            """
            def count(records):
                return len(records)
            """
        ) == []

    def test_unrelated_size_kwarg_is_fine(self):
        # size= on a non-Flow constructor is not a byte count.
        assert rules_found(
            """
            def build(items):
                return Batch(size=len(items))
            """
        ) == []

    # The unit-taint pass carries the count across bindings, helpers
    # and call sites, where a check of the argument's own call cannot.

    def test_len_bound_to_a_name_flagged(self):
        assert rules_found(
            """
            def ship(sim, records):
                n = len(records)
                sim.transfer("a", "b", nbytes=n)
            """
        ) == ["PIC202"]

    def test_len_returned_by_a_helper_flagged(self):
        assert rules_found(
            """
            def payload_size(records):
                return len(records)

            def ship(net, records):
                net.start_flow("a", "b", payload_size(records))
            """
        ) == ["PIC202"]

    def test_len_passed_to_a_forwarding_helper_flagged(self):
        # send() hands its size to a byte sink; the caller passing a
        # record count is flagged at its call.
        assert rules_found(
            """
            def send(cluster, size):
                cluster.transfer("a", "b", size, "shuffle")

            def ship(cluster, records):
                send(cluster, len(records))
            """
        ) == ["PIC202"]

    def test_len_forwarded_through_two_helpers_flagged(self):
        # relay2() only forwards to send(), which hands the size to a
        # byte sink: both helpers' parameters reach it.
        assert rules_found(
            """
            def send(cluster, size):
                cluster.transfer("a", "b", size, "shuffle")

            def relay2(cluster, size):
                send(cluster, size)

            def ship(cluster, records):
                relay2(cluster, len(records))
            """
        ) == ["PIC202"]

    def test_getsizeof_bound_to_a_name_flagged(self):
        findings = rules_found(
            """
            import sys

            def ship(meter, payload):
                size = sys.getsizeof(payload)
                meter.record("shuffle", size)
            """
        )
        assert sorted(findings) == ["PIC201", "PIC202"]

    def test_len_as_transfer_time_bytes_flagged(self):
        assert rules_found(
            """
            def eta(cluster, records):
                return cluster.transfer_time(0, 1, len(records))
            """
        ) == ["PIC202"]

    def test_len_plus_bytes_is_fine(self):
        # A byte total built from len(encoded) pieces is bytes.
        assert rules_found(
            """
            def ship(sim, key, split):
                size = len(key.encode("utf-8")) + split.nbytes
                sim.transfer("a", "b", nbytes=size)
            """
        ) == []

    def test_len_scaled_to_bytes_is_fine(self):
        # count x bytes-per-record: the product commits to no unit.
        assert rules_found(
            """
            def ship(sim, records):
                sim.transfer("a", "b", nbytes=len(records) * 16)
            """
        ) == []
