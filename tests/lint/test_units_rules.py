"""PIC601/PIC602: quantity-unit taint."""

import textwrap

import pytest

from repro.lint import lint_source


def rules_found(source: str) -> list[str]:
    return sorted(
        {f.rule for f in lint_source(textwrap.dedent(source)) if f.rule[3] == "6"}
    )


class TestUnitMix:
    def test_wall_minus_sim(self):
        assert rules_found(
            """
            import time

            def lag(sim):
                started = time.perf_counter()  # noqa: PIC001
                return sim.now - started
            """
        ) == ["PIC601"]

    def test_wall_compared_to_sim(self):
        assert rules_found(
            """
            import time

            def late(sim):
                return time.monotonic() > sim.now  # noqa: PIC001
            """
        ) == ["PIC601"]

    def test_bytes_plus_sim_seconds(self):
        assert rules_found(
            """
            def nonsense(batch, sim):
                return batch.nbytes + sim.now
            """
        ) == ["PIC601"]

    def test_wall_augmented_into_sim_total(self):
        assert rules_found(
            """
            import time

            def accumulate(sim):
                total = sim.now
                total += time.perf_counter()  # noqa: PIC001
                return total
            """
        ) == ["PIC601"]

    def test_wall_minus_wall_is_clean(self):
        assert rules_found(
            """
            import time

            def elapsed():
                t0 = time.perf_counter()  # noqa: PIC001
                t1 = time.perf_counter()  # noqa: PIC001
                return t1 - t0
            """
        ) == []

    def test_sim_arithmetic_is_clean(self):
        assert rules_found(
            """
            def eta(sim, cluster):
                return sim.now + cluster.transfer_time("a", "b", 4096)
            """
        ) == []

    def test_rate_division_is_clean(self):
        # Dividing bytes by seconds builds a rate — the whole point of
        # mixed units, never a conflict.
        assert rules_found(
            """
            import time

            def throughput(nbytes):
                elapsed = time.perf_counter()  # noqa: PIC001
                return nbytes / elapsed
            """
        ) == []

    def test_len_plus_nbytes_is_clean(self):
        # Byte totals legitimately include len(encoded) pieces; a count
        # alone at a byte sink is PIC202, which this pass reports too.
        assert rules_found(
            """
            def wire_total(key, value):
                return len(key.encode("utf-8")) + value.nbytes
            """
        ) == []


class TestSimSinkTaint:
    def test_wall_delta_into_schedule(self):
        assert rules_found(
            """
            import time

            def go(sim, cb):
                t0 = time.perf_counter()  # noqa: PIC001
                t1 = time.perf_counter()  # noqa: PIC001
                sim.schedule(t1 - t0, cb)
            """
        ) == ["PIC602"]

    def test_wall_into_run_until(self):
        assert rules_found(
            """
            import time

            def go(sim):
                sim.run_until(time.monotonic())  # noqa: PIC001
            """
        ) == ["PIC602"]

    def test_wall_into_transfer_nbytes(self):
        assert rules_found(
            """
            import time

            def ship(cluster):
                stamp = time.perf_counter()  # noqa: PIC001
                cluster.transfer("a", "b", stamp, "shuffle")
            """
        ) == ["PIC602"]

    def test_helper_returning_wall_into_sink(self):
        # Interprocedural: the wall-clock unit rides the helper's
        # return summary into the sink.
        assert rules_found(
            """
            import time

            def _delay():
                return time.perf_counter()  # noqa: PIC001

            def go(sim, cb):
                sim.schedule(_delay(), cb)
            """
        ) == ["PIC602"]

    def test_param_flowing_to_sink_taints_callers(self):
        # fire() forwards its delay into sim.schedule; a caller passing
        # wall-clock through it is flagged at the call site.
        assert rules_found(
            """
            import time

            def fire(sim, delay, cb):
                sim.schedule(delay, cb)

            def go(sim, cb):
                w = time.perf_counter()  # noqa: PIC001
                fire(sim, w, cb)
            """
        ) == ["PIC602"]

    def test_param_forwarded_through_two_helpers_taints_callers(self):
        # relay() forwards its delay to fire(), which forwards it to
        # sim.schedule: relay's parameter reaches the sink too.
        assert rules_found(
            """
            import time

            def fire(sim, d, cb):
                sim.schedule(d, cb)

            def relay(sim, d, cb):
                fire(sim, d, cb)

            def go(sim, cb):
                relay(sim, time.perf_counter(), cb)  # noqa: PIC001
            """
        ) == ["PIC602"]

    @pytest.mark.parametrize(
        "imports, call",
        [
            pytest.param("import datetime", "datetime.datetime.now()", id="now"),
            pytest.param("import datetime", "datetime.datetime.utcnow()", id="utcnow"),
            pytest.param("from datetime import datetime", "datetime.today()", id="today"),
            pytest.param("from datetime import date", "date.today()", id="date.today"),
        ],
    )
    def test_every_host_clock_read_is_wall_clock(self, imports, call):
        # The pass seeds wall-clock seconds from the table PIC001 reads.
        assert rules_found(
            f"""
            {imports}

            def go(sim, cb):
                sim.schedule({call}, cb)  # noqa: PIC001
            """
        ) == ["PIC602"]

    def test_transfer_time_into_schedule_is_clean(self):
        assert rules_found(
            """
            def go(sim, cluster, cb):
                eta = cluster.transfer_time("a", "b", 4096)
                sim.schedule(eta, cb)
            """
        ) == []

    def test_sizeof_into_record_is_clean(self):
        assert rules_found(
            """
            from repro.util.sizing import sizeof_records

            def meterit(meter, records):
                meter.record("shuffle", sizeof_records(records), crosses_core=True)
            """
        ) == []

    def test_len_into_record_is_not_this_rules_business(self):
        # A count alone at a byte sink is PIC202 (test_sizing_rules.py),
        # not PIC602.
        assert rules_found(
            """
            def ship(sim, records):
                sim.transfer("a", "b", nbytes=len(records))
            """
        ) == []
