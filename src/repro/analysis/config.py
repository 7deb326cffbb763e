"""Path-scoped lint configuration.

Different layers of the repo make different promises, so they get
different rule sets:

* ``worker`` — ``src/repro/serving``: code that runs inside (or
  dispatches to) worker processes.  Every rule is on,
  including DSO403, which bans *silent* pass-only exception handlers in
  favour of the per-query error channel.
* ``core`` — the rest of the library (``oracle``, ``overlay``,
  ``graph``, ``pathing``, ``cover``, ``landmarks``, ``workload``):
  every rule except the worker-loop-specific DSO403.
* ``experiments`` — ``src/repro/experiments``, ``benchmarks/``,
  ``examples/``: report/bench scripts may legitimately read the wall
  clock (DSO104 off) and are not worker loops (DSO403 off); the
  determinism rules stay on because formatted tables are serialized
  output too.
* ``tests`` — ``tests/``: only the rules whose violations are bugs in
  *any* code: NaN-sentinel comparison (DSO301), bare except (DSO401),
  and unpicklable dispatch (DSO201).  Tests monkeypatch, seed ad hoc,
  and intentionally provoke failures, so the stricter families would
  drown the signal.

A file that matches no scope gets ``core`` — strict by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePosixPath


@dataclass(frozen=True)
class Profile:
    """One named rule set.

    ``disabled`` turns individual rules off; ``enabled_only``, when
    non-empty, wins and turns everything else off.
    """

    name: str
    disabled: frozenset[str] = frozenset()
    enabled_only: frozenset[str] = frozenset()

    def rule_enabled(self, rule_id: str) -> bool:
        if self.enabled_only:
            return rule_id in self.enabled_only
        return rule_id not in self.disabled


@dataclass(frozen=True)
class LintConfig:
    """An ordered list of ``(path scope, profile)`` pairs.

    A scope is a ``/``-separated part sequence (e.g.
    ``"src/repro/serving"``); it matches a file whose path contains
    those parts contiguously, which keeps matching independent of the
    directory the linter is invoked from.  First match wins, so list
    specific scopes before general ones.
    """

    scopes: tuple[tuple[str, Profile], ...] = ()
    default: Profile = field(default_factory=lambda: Profile("core"))

    def profile_for(self, path: str) -> Profile:
        parts = PurePosixPath(str(path).replace("\\", "/")).parts
        for scope, profile in self.scopes:
            scope_parts = PurePosixPath(scope).parts
            width = len(scope_parts)
            if width == 0:
                continue
            for start in range(len(parts) - width + 1):
                if parts[start : start + width] == scope_parts:
                    return profile
        return self.default


WORKER_PROFILE = Profile("worker")
CORE_PROFILE = Profile("core", disabled=frozenset({"DSO403"}))
EXPERIMENTS_PROFILE = Profile(
    "experiments", disabled=frozenset({"DSO104", "DSO403"})
)
TESTS_PROFILE = Profile(
    "tests", enabled_only=frozenset({"DSO201", "DSO301", "DSO401"})
)

DEFAULT_CONFIG = LintConfig(
    scopes=(
        ("src/repro/serving", WORKER_PROFILE),
        ("src/repro/experiments", EXPERIMENTS_PROFILE),
        ("benchmarks", EXPERIMENTS_PROFILE),
        ("examples", EXPERIMENTS_PROFILE),
        ("tests", TESTS_PROFILE),
    ),
    default=CORE_PROFILE,
)


def profile_for_path(path: str, config: LintConfig | None = None) -> Profile:
    """The profile ``config`` (default config) applies to ``path``."""
    return (config or DEFAULT_CONFIG).profile_for(path)
