"""Tests for the concurrency/lifecycle rules (ASYNC001/LEAK001/RACE002).

Each rule gets a triggering fixture, a clean fixture, and a
``# repro: noqa`` suppression; ASYNC001 additionally covers a blocking
call two frames below a coroutine and one written directly in it.
"""

from __future__ import annotations

import textwrap

from repro.devtools.analyzer import Analyzer


def check(source: str, module: str = "repro.serving.app") -> list:
    return Analyzer().analyze_source(
        textwrap.dedent(source),
        path=f"{module.replace('.', '/')}.py",
        module=module,
    )


def rule_ids(findings: list) -> set[str]:
    return {finding.rule_id for finding in findings}


# -- ASYNC001 ---------------------------------------------------------------------

TWO_DEEP_BLOCKING = """
    import time

    async def view(request):
        return handler(request)

    def handler(request):
        return helper(request)

    def helper(request):
        time.sleep(0.2)
        return request
"""


def test_async001_catches_blocking_call_two_frames_deep():
    findings = check(TWO_DEEP_BLOCKING)
    assert rule_ids(findings) == {"ASYNC001"}
    finding = findings[0]
    assert "time.sleep" in finding.message
    assert "view" in finding.message


def test_async001_finds_what_the_syntactic_srv001_misses():
    # A purely syntactic check of ``async def`` bodies cannot see the
    # transitive call; the call-graph walk must.
    findings = check(TWO_DEEP_BLOCKING)
    assert "SRV001" not in rule_ids(findings)
    assert "ASYNC001" in rule_ids(findings)


def test_async001_trace_walks_the_call_chain():
    findings = check(TWO_DEEP_BLOCKING)
    trace = findings[0].trace
    # coroutine root -> view calls handler -> handler calls helper ->
    # the blocking call itself.
    assert len(trace) == 4
    assert "event loop" in trace[0].message
    assert "blocks" in trace[-1].message
    payload = findings[0].to_dict()
    assert len(payload["trace"]) == 4


def test_async001_executor_hop_is_clean():
    findings = check(
        """
        import asyncio
        import time

        async def view(request):
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, handler, request)

        def handler(request):
            time.sleep(0.2)
            return request
        """
    )
    assert "ASYNC001" not in rule_ids(findings)


def test_async001_suppressed_by_noqa():
    findings = check(
        """
        import time

        async def view(request):
            return handler(request)

        def handler(request):
            time.sleep(0.2)  # repro: noqa[ASYNC001]
            return request
        """
    )
    assert "ASYNC001" not in rule_ids(findings)


# The depth-0 fixtures of the deleted syntactic SRV001 rule: ASYNC001
# covers a blocking call written directly in a view as well.


def test_async001_flags_blocking_calls_made_directly_in_a_view():
    findings = check(
        """
        import sqlite3
        import time

        async def view(request):
            time.sleep(0.1)
            connection = sqlite3.connect("index.db")
            return connection
        """
    )
    assert rule_ids(findings) == {"ASYNC001"}
    assert len(findings) == 2
    assert all("event loop" in finding.message for finding in findings)


def test_async001_executor_dispatch_and_sync_helpers_are_clean():
    findings = check(
        """
        import asyncio
        import sqlite3
        import time

        def query(path):
            # sync helper: runs on an executor thread, blocking is fine
            connection = sqlite3.connect(path)
            time.sleep(0)
            return connection

        async def view(request):
            loop = asyncio.get_running_loop()
            return await asyncio.wait_for(
                loop.run_in_executor(None, query, "index.db"), timeout=5.0
            )
        """
    )
    assert findings == []


def test_async001_nested_sync_def_inside_async_view_is_exempt():
    findings = check(
        """
        import sqlite3

        async def view(request):
            def connect():
                return sqlite3.connect("index.db")
            return connect
        """
    )
    assert findings == []


# -- LEAK001 ----------------------------------------------------------------------

EXCEPTION_PATH_LEAK = """
    import sqlite3
    from contextlib import closing

    def load(path):
        conn = sqlite3.connect(path)
        try:
            rows = conn.execute("SELECT 1").fetchall()
        except sqlite3.Error:
            return []
        conn.close()
        return rows
"""


def test_leak001_flags_the_exception_path_leak():
    # The swallow-and-return handler also trips FLOW002; this test only
    # pins down the lifecycle finding.
    findings = [
        f
        for f in check(EXCEPTION_PATH_LEAK, module="repro.db.store")
        if f.rule_id == "LEAK001"
    ]
    assert len(findings) == 1
    assert "some paths" in findings[0].message


def test_leak001_closed_on_every_path_is_clean():
    findings = check(
        """
        import sqlite3

        def load(path):
            conn = sqlite3.connect(path)
            try:
                return conn.execute("SELECT 1").fetchall()
            finally:
                conn.close()
        """,
        module="repro.db.store",
    )
    assert "LEAK001" not in rule_ids(findings)


def test_leak001_suppressed_by_noqa():
    findings = check(
        """
        import sqlite3

        def load(path):
            conn = sqlite3.connect(path)  # repro: noqa[LEAK001]
            return conn
        """,
        module="repro.db.store",
    )
    assert "LEAK001" not in rule_ids(findings)


# -- RACE002 ----------------------------------------------------------------------

LOOP_THREAD_RACE = """
    import threading

    class Index:
        def __init__(self):
            self._pending = []
            self._lock = threading.Lock()

        def start(self):
            thread = threading.Thread(target=self._worker)
            thread.start()

        def _worker(self):
            self._pending.append("job")

        async def view(self, request):
            return len(self._pending)
"""


def test_race002_flags_unlocked_shared_attribute():
    findings = check(LOOP_THREAD_RACE)
    assert "RACE002" in rule_ids(findings)
    finding = next(f for f in findings if f.rule_id == "RACE002")
    assert "_pending" in finding.message
    assert len(finding.trace) >= 2


def test_race002_locked_mutation_is_clean():
    findings = check(
        """
        import threading

        class Index:
            def __init__(self):
                self._pending = []
                self._lock = threading.Lock()

            def start(self):
                thread = threading.Thread(target=self._worker)
                thread.start()

            def _worker(self):
                with self._lock:
                    self._pending.append("job")

            async def view(self, request):
                return len(self._pending)
        """
    )
    assert "RACE002" not in rule_ids(findings)


def test_race002_suppressed_by_noqa():
    findings = check(
        """
        import threading

        class Index:
            def __init__(self):
                self._pending = []

            def start(self):
                thread = threading.Thread(target=self._worker)
                thread.start()

            def _worker(self):
                self._pending.append("job")  # repro: noqa[RACE002]

            async def view(self, request):
                return len(self._pending)
        """
    )
    assert "RACE002" not in rule_ids(findings)
