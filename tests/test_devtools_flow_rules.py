"""Trigger / clean / sanitized matrices for the flow rules.

Every rule gets at least one fixture that must fire, one that must not,
and one where a sanitizer/guard launders the flow.
"""

from __future__ import annotations

import textwrap

from repro.devtools.analyzer import Analyzer


def _findings(source: str, module: str, select: "set[str] | None" = None):
    analyzer = Analyzer(select=select)
    return analyzer.analyze_source(
        textwrap.dedent(source), path=f"{module.replace('.', '/')}.py", module=module
    )


def _rule_ids(source: str, module: str, select: "set[str] | None" = None):
    return [f.rule_id for f in _findings(source, module, select)]


# -- FLOW001: resource response -> cache write --------------------------------------


def test_flow001_raw_query_to_put_fires():
    ids = _rule_ids(
        """
        class R:
            def _query(self, term):
                return [term]

            def fetch(self, term):
                result = self._query(term)
                self.cache.put("ns", term, result)
        """,
        "repro.resources.fake",
        select={"FLOW001"},
    )
    assert ids == ["FLOW001"]


def test_flow001_sanitized_response_is_clean():
    ids = _rule_ids(
        """
        def validate_context_terms(raw):
            return tuple(x for x in raw if x)

        class R:
            def _query(self, term):
                return [term]

            def fetch(self, term):
                result = validate_context_terms(self._query(term))
                self.cache.put("ns", term, result)
        """,
        "repro.resources.fake",
        select={"FLOW001"},
    )
    assert ids == []


def test_flow001_unrelated_value_is_clean():
    ids = _rule_ids(
        """
        class R:
            def fetch(self, term):
                result = (term,)
                self.cache.put("ns", term, result)
        """,
        "repro.resources.fake",
        select={"FLOW001"},
    )
    assert ids == []


def test_flow001_taint_survives_tuple_and_helper_return():
    # One level inter-procedural: _wrapped returns the raw response, so
    # its call sites are tainted even though they never call _query.
    ids = _rule_ids(
        """
        class R:
            def _query(self, term):
                return [term]

            def _wrapped(self, term):
                return self._query(term)

            def fetch(self, term):
                result = tuple(self._wrapped(term))
                self.cache.put("ns", term, result)
        """,
        "repro.resources.fake",
        select={"FLOW001"},
    )
    assert ids == ["FLOW001"]


def test_flow001_branch_that_skips_validation_still_fires():
    ids = _rule_ids(
        """
        def validate_context_terms(raw):
            return tuple(raw)

        class R:
            def _query(self, term):
                return [term]

            def fetch(self, term, clean):
                result = self._query(term)
                if clean:
                    result = validate_context_terms(result)
                self.cache.put("ns", term, result)
        """,
        "repro.resources.fake",
        select={"FLOW001"},
    )
    assert ids == ["FLOW001"]


def test_flow001_out_of_scope_module_is_ignored():
    ids = _rule_ids(
        """
        class R:
            def _query(self, term):
                return [term]

            def fetch(self, term):
                self.cache.put("ns", term, self._query(term))
        """,
        "repro.core.fake",
        select={"FLOW001"},
    )
    assert ids == []


_BATCH_ENGINE = """
def validate_context_terms(raw):
    return tuple(x for x in raw if x)

class R:
    def _run_batch_query(self, terms):
        answers = self.query_many(terms)
        return answers, [False] * len(terms)

    def resolve(self, keys):
        answers, no_persist = self._run_batch_query(keys)
        for position, key in enumerate(keys):
            raw = answers[position]
            value = self._seen.get(id(raw))
            if value is None:
                value = %s
            self._memory_put(key, value)
"""


def test_flow001_unvalidated_bulk_answer_fires():
    """The batch engine's shape: a ``query_many`` answer returned through
    a helper and cached on the one branch that skips validation."""
    ids = _rule_ids(
        _BATCH_ENGINE % "raw", "repro.resources.fake", select={"FLOW001"}
    )
    assert ids == ["FLOW001"]


def test_flow001_validated_bulk_answer_is_clean():
    ids = _rule_ids(
        _BATCH_ENGINE % "validate_context_terms(raw)",
        "repro.resources.fake",
        select={"FLOW001"},
    )
    assert ids == []


def test_flow001_suppressed_by_noqa():
    ids = _rule_ids(
        """
        class R:
            def _query(self, term):
                return [term]

            def fetch(self, term):
                result = self._query(term)
                self.cache.put("ns", term, result)  # repro: noqa[FLOW001]
        """,
        "repro.resources.fake",
        select={"FLOW001"},
    )
    assert ids == []


# -- FLOW002: silent exception swallow ----------------------------------------------


def test_flow002_bare_pass_handler_fires():
    ids = _rule_ids(
        """
        def f():
            try:
                g()
            except ValueError:
                pass
        """,
        "repro.resources.fake",
        select={"FLOW002"},
    )
    assert ids == ["FLOW002"]


def test_flow002_logged_reraised_degraded_and_captured_are_clean():
    ids = _rule_ids(
        """
        def a():
            try:
                g()
            except ValueError:
                log.warning("a.failed")

        def b():
            try:
                g()
            except ValueError:
                raise RuntimeError("wrapped") from None

        def c(self):
            try:
                g()
            except ValueError as exc:
                self._degrade(exc)

        def d():
            last = None
            try:
                g()
            except ValueError as exc:
                last = exc
            return last
        """,
        "repro.resources.fake",
        select={"FLOW002"},
    )
    assert ids == []


def test_flow002_suppressable_with_noqa():
    ids = _rule_ids(
        """
        def f():
            try:
                g()
            except ValueError:  # repro: noqa[FLOW002]
                pass
        """,
        "repro.resources.fake",
        select={"FLOW002"},
    )
    assert ids == []


# -- DET002: data-flow unordered-iteration tracking ---------------------------------


def _det002(source: str):
    return _findings(source, "repro.core.fake", select={"DET002"})


def test_det002_rebinding_through_sorted_launders_every_path():
    assert (
        _det002(
            """
            def f(xs):
                s = set(xs)
                s = sorted(s)
                return [x for x in s]
            """
        )
        == []
    )


def test_det002_alias_of_a_set_stays_unordered():
    findings = _det002(
        """
        def f(xs):
            s = set(xs)
            t = s
            return [x for x in t]
        """
    )
    assert [f.rule_id for f in findings] == ["DET002"]


def test_det002_partial_rebind_still_fires():
    findings = _det002(
        """
        def f(xs, c):
            s = set(xs)
            if c:
                s = sorted(s)
            return [x for x in s]
        """
    )
    assert [f.rule_id for f in findings] == ["DET002"]


def test_det002_augmented_union_keeps_setness():
    findings = _det002(
        """
        def f(xs, ys):
            s = set(xs)
            s |= set(ys)
            return [x for x in s]
        """
    )
    assert [f.rule_id for f in findings] == ["DET002"]


def test_det002_for_loop_without_ordered_output_is_clean():
    assert (
        _det002(
            """
            def f(xs):
                total = 0
                seen = set()
                for x in set(xs):
                    seen.add(x)
                return total
            """
        )
        == []
    )
