"""PIC501/PIC502/PIC503: resource-lifecycle typestate."""

import textwrap

from repro.lint import lint_source
from repro.lint.engine import lint_sources


def rules_found(source: str) -> list[str]:
    return sorted(
        {f.rule for f in lint_source(textwrap.dedent(source)) if f.rule[3] == "5"}
    )


class TestResourceLeak:
    def test_shm_leaks_on_raise_path(self):
        assert rules_found(
            """
            from multiprocessing.shared_memory import SharedMemory

            def export(payload):
                shm = SharedMemory(create=True, size=len(payload))
                shm.buf[: len(payload)] = payload
                return shm.name
            """
        ) == ["PIC501"]

    def test_file_never_closed(self):
        assert "PIC501" in rules_found(
            """
            def read_all(path):
                fh = open(path)
                return fh.read()
            """
        )

    def test_pool_never_shut_down(self):
        assert "PIC501" in rules_found(
            """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(items):
                pool = ProcessPoolExecutor(4)
                return list(pool.map(str, items))
            """
        )

    def test_try_finally_release_is_clean(self):
        assert rules_found(
            """
            from multiprocessing.shared_memory import SharedMemory

            def export(payload):
                shm = SharedMemory(create=True, size=len(payload))
                try:
                    shm.buf[: len(payload)] = payload
                    return bytes(shm.buf[: len(payload)])
                finally:
                    shm.close()
                    shm.unlink()
            """
        ) == []

    def test_with_block_is_clean(self):
        assert rules_found(
            """
            def read_all(path):
                with open(path) as fh:
                    return fh.read()
            """
        ) == []

    def test_attached_shm_needs_only_close(self):
        # No ``create=``: the mapping is borrowed, unlink is the
        # submitter's job — close alone satisfies the protocol.
        assert rules_found(
            """
            from multiprocessing.shared_memory import SharedMemory

            def peek(name):
                shm = SharedMemory(name=name)
                try:
                    return bytes(shm.buf[:8])
                finally:
                    shm.close()
            """
        ) == []

    def test_release_through_helper_is_clean(self):
        # Interprocedural: cleanup(shm) counts as close+unlink.
        assert rules_found(
            """
            from multiprocessing.shared_memory import SharedMemory

            def cleanup(shm):
                shm.close()
                shm.unlink()

            def export(payload):
                shm = SharedMemory(create=True, size=len(payload))
                try:
                    shm.buf[: len(payload)] = payload
                finally:
                    cleanup(shm)
            """
        ) == []

    def test_returning_the_resource_transfers_ownership(self):
        assert rules_found(
            """
            def open_log(path):
                fh = open(path)
                return fh
            """
        ) == []

    def test_caller_of_acquiring_helper_owns_the_result(self):
        # The helper's return transfers a fresh handle to the caller,
        # which then leaks it past a risky call.
        assert rules_found(
            """
            def open_log(path):
                return open(path)

            def summarize(path):
                fh = open_log(path)
                return len(fh.read())
            """
        ) == ["PIC501"]

    def test_storing_the_resource_is_ownership_transfer(self):
        assert rules_found(
            """
            class Holder:
                def __init__(self, path):
                    self.handles = []
                    fh = open(path)
                    self.handles.append(fh)
            """
        ) == []

    def test_exception_handler_without_binding_is_clean(self):
        # The acquisition itself failing means there is nothing to
        # release inside the handler.
        assert rules_found(
            """
            from multiprocessing.shared_memory import SharedMemory

            def export(total):
                try:
                    shm = SharedMemory(create=True, size=total)
                except OSError:
                    return None
                try:
                    return shm.name
                finally:
                    shm.close()
                    shm.unlink()
            """
        ) == []

    def test_cleanup_on_error_handler_is_clean(self):
        assert rules_found(
            """
            from multiprocessing.shared_memory import SharedMemory

            def export(payload, sink):
                shm = SharedMemory(create=True, size=len(payload))
                try:
                    shm.buf[: len(payload)] = payload
                except BaseException:
                    shm.close()
                    shm.unlink()
                    raise
                sink.adopt(shm)
            """
        ) == []


class TestCacheHandles:
    """The node-memory cache follows the same protocol: ``pin`` hands
    back a CachePin, which must see ``release()`` on every path."""

    def test_cache_pin_never_released(self):
        assert rules_found(
            """
            class Node:
                def __init__(self, cache):
                    self.cache = cache

                def warm(self, split, nbytes):
                    pin = self.cache.pin(split, nbytes)
                    self.cache.put(split, nbytes)
                    return nbytes
            """
        ) == ["PIC501"]

    def test_cache_pin_released_in_finally_is_clean(self):
        assert rules_found(
            """
            class Node:
                def __init__(self, cache):
                    self.cache = cache

                def warm(self, split, nbytes, fill):
                    pin = self.cache.pin(split, nbytes)
                    try:
                        fill(split)
                        self.cache.put(split, nbytes)
                    finally:
                        pin.release()
            """
        ) == []

    def test_cache_pin_with_block_is_clean(self):
        assert rules_found(
            """
            class Node:
                def __init__(self, cache):
                    self.cache = cache

                def warm(self, split, nbytes, fill):
                    with self.cache.pin(split, nbytes):
                        fill(split)
                        self.cache.put(split, nbytes)
            """
        ) == []


class TestDoubleRelease:
    def test_sequential_double_close(self):
        assert "PIC502" in rules_found(
            """
            def read_all(path):
                fh = open(path)
                data = fh.read()
                fh.close()
                fh.close()
                return data
            """
        )

    def test_close_in_body_and_finally(self):
        assert "PIC502" in rules_found(
            """
            def read_all(path):
                fh = open(path)
                try:
                    data = fh.read()
                    fh.close()
                finally:
                    fh.close()
                return data
            """
        )

    def test_branch_release_then_join_is_not_double(self):
        # Only one branch closes: the post-join state is "may be
        # closed", so a later close is not certainly a double release.
        assert "PIC502" not in rules_found(
            """
            def maybe_close(path, early):
                fh = open(path)
                if early:
                    fh.close()
                else:
                    fh.read()
                fh.close()
            """
        )

    def test_close_then_unlink_is_clean(self):
        assert rules_found(
            """
            from multiprocessing.shared_memory import SharedMemory

            def export(total):
                shm = SharedMemory(create=True, size=total)
                shm.close()
                shm.unlink()
            """
        ) == []


class TestUseAfterRelease:
    def test_read_after_close(self):
        assert rules_found(
            """
            def read_all(path):
                fh = open(path)
                fh.close()
                return fh.read()
            """
        ) == ["PIC503"]

    def test_buf_access_after_close(self):
        assert "PIC503" in rules_found(
            """
            from multiprocessing.shared_memory import SharedMemory

            def peek(name):
                shm = SharedMemory(name=name)
                shm.close()
                return bytes(shm.buf[:8])
            """
        )

    def test_benign_attribute_after_close_is_clean(self):
        # .name/.closed stay valid after release.
        assert rules_found(
            """
            def read_all(path):
                fh = open(path)
                fh.close()
                return fh.name
            """
        ) == []

    def test_rebinding_resets_the_state(self):
        assert rules_found(
            """
            def reopen(path):
                fh = open(path)
                fh.close()
                fh = open(path)
                try:
                    return fh.read()
                finally:
                    fh.close()
            """
        ) == []

    def test_conditional_close_does_not_flag_later_use(self):
        # released() is a *must* fact; a close on one branch only is
        # not certain, so the later read stays silent.
        assert "PIC503" not in rules_found(
            """
            def maybe(path, early):
                fh = open(path)
                if early:
                    fh.close()
                return fh.read()
            """
        )


class TestCrossModule:
    def test_release_helper_in_another_module(self):
        findings, errors = lint_sources(
            {
                "pkg/util.py": textwrap.dedent(
                    """
                    def cleanup(shm):
                        shm.close()
                        shm.unlink()
                    """
                ),
                "pkg/exporter.py": textwrap.dedent(
                    """
                    from multiprocessing.shared_memory import SharedMemory

                    from pkg.util import cleanup

                    def export(payload):
                        shm = SharedMemory(create=True, size=len(payload))
                        try:
                            shm.buf[: len(payload)] = payload
                        finally:
                            cleanup(shm)
                    """
                ),
            }
        )
        assert errors == []
        assert [f for f in findings if f.rule.startswith("PIC5")] == []
