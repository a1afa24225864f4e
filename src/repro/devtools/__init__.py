"""repro.devtools — whole-program static analysis for project invariants.

``python -m repro lint`` runs an AST-based analyzer as a blocking CI
job.  It never imports the code it checks.  Eight of its nine rules
found a real bug in this tree; SQL001 guards the SQL the storage layer
is still changing.  They run on a project model with a cross-module
call graph, per-function control-flow graphs with reaching-definitions
data-flow, a declarative taint framework, a must-close lifecycle
analysis, and a database of the SQL, payload-schema and config
contracts the code declares.

This package re-exports nothing: import from the submodule that defines
a name.  Importing ``repro.devtools`` (or building the ``lint``
subparser through :mod:`repro.devtools.cli`) loads no analysis code.

Layout
------
:mod:`~repro.devtools.findings`
    :class:`Severity`, the immutable :class:`Finding` record and its
    :class:`TraceStep` explanation path.
:mod:`~repro.devtools.imports`
    Lightweight per-module import tracker used to resolve qualified
    names (``Span`` → ``repro.observability.tracing.Span``) without
    executing any code.
:mod:`~repro.devtools.context`
    :class:`ModuleContext`: one parsed module plus everything rules
    need — parent links, ``# repro: noqa[...]`` suppressions, and
    ``# order:`` determinism comments.
:mod:`~repro.devtools.project`
    :class:`ProjectModel`: symbol table and kind-aware call graph over
    the whole tree, parsed once.
:mod:`~repro.devtools.cfg` / :mod:`~repro.devtools.dataflow`
    Basic-block control-flow graphs and the reaching-definitions
    solver the flow rules run on.
:mod:`~repro.devtools.taint`
    Declarative source → sanitizer → sink propagation
    (:class:`TaintSpec`), one level inter-procedural via call-graph
    summaries.
:mod:`~repro.devtools.lifecycle`
    Path-sensitive must-close analysis: acquire/close/escape lattice
    over the CFG with exception edges (:class:`LifecycleAnalysis`).
:mod:`~repro.devtools.contracts`
    Static extraction of SQL DDL and queries, versioned payload
    schemas and config fields into the deterministic contracts
    database the contract rules check.
:mod:`~repro.devtools.rules`
    The self-registering :class:`Rule` base class and the rule table;
    the rules live in :mod:`~repro.devtools.flow_rules` (DET002,
    FLOW001, FLOW002), :mod:`~repro.devtools.concurrency_rules`
    (ASYNC001, LEAK001, RACE002) and
    :mod:`~repro.devtools.contract_rules` (SQL001, SCHEMA001, CFG002).
:mod:`~repro.devtools.analyzer`
    :class:`Analyzer`: module rules per file, project rules per
    program, suppression filtering, timing stats.
:mod:`~repro.devtools.reporting` / :mod:`~repro.devtools.sarif`
    Text/JSON reporters and deterministic SARIF 2.1.0 output.
:mod:`~repro.devtools.cli`
    The ``python -m repro lint`` entry point.

Suppression syntax: a trailing ``# repro: noqa`` silences every rule on
that line; ``# repro: noqa[LEAK001,FLOW002]`` silences just those rules.
DET002 additionally honours an explicit ordering comment — ``# order:
<why this iteration is order-safe>`` on the line or the line above.
"""
