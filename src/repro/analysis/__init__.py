"""``dsolint`` — AST-based invariant linter for the oracle stack.

The correctness story of this reproduction rests on invariants that
pytest only sees when they break at runtime: a build must produce
bitwise-identical snapshot bytes and cache keys under any hash seed
(which depends on every set that feeds serialized output being
iterated under ``sorted``), the serving plane ships callables and fault plans across
process boundaries under both fork and spawn start methods, and the
message protocol encodes per-query errors as a NaN sentinel that must
never meet ``==``.  ``dsolint`` checks those invariants statically, on
every file, on every commit.

Rule families (full catalogue in :mod:`repro.analysis.rules` and
DESIGN.md §10):

* ``DSO1xx`` determinism — unordered iteration feeding ordered output,
  unseeded randomness, wall-clock time in library code.
* ``DSO2xx`` multiprocessing safety — unpicklable callables at process
  dispatch points, module-global mutable state written in
  worker-reachable code.
* ``DSO3xx`` float/sentinel hazards — ``==`` against NaN sentinels or
  non-integral float literals.
* ``DSO4xx`` protocol hygiene — bare ``except``, swallowed broad
  exceptions, silent pass-only handlers in worker loops.
* ``DSO5xx`` inter-procedural dataflow — unordered/unpicklable/NaN
  taints chased across call boundaries over the project call graph
  (:mod:`repro.analysis.dataflow`, DESIGN.md §15).
* ``DSO6xx`` protocol conformance — write-then-stamp ordering,
  epoch-fenced cache admission, lock/field coverage
  (:mod:`repro.analysis.protocol`).

Findings are suppressed inline with a justified comment::

    risky_line()  # dsolint: disable=DSO101 -- order provably irrelevant

Entry points: ``repro-dso lint [PATHS]`` on the command line,
:func:`lint_paths` / :func:`lint_source` from Python, and the
``tests/test_lint_clean.py`` gate that keeps ``src/`` finding-free.
"""

from __future__ import annotations

from repro.analysis.config import (
    DEFAULT_CONFIG,
    LintConfig,
    Profile,
    profile_for_path,
)
from repro.analysis.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.callgraph import Project, module_name_for
from repro.analysis.engine import (
    LintReport,
    changed_files,
    lint_paths,
    lint_source,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.reporting import to_json, to_sarif, to_text
from repro.analysis.rules import RULES, RULE_CATALOGUE_VERSION, rule_catalogue
from repro.analysis.summaries import SummaryCache

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintReport",
    "Profile",
    "Project",
    "RULES",
    "RULE_CATALOGUE_VERSION",
    "SummaryCache",
    "apply_baseline",
    "changed_files",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "module_name_for",
    "profile_for_path",
    "rule_catalogue",
    "to_json",
    "to_sarif",
    "to_text",
    "write_baseline",
    "Severity",
]
