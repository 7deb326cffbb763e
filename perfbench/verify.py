"""Answer verification and per-phase failure accounting.

Every served answer is compared with the in-process frozen oracle of
the snapshot epoch it was served under: bitwise, because the workers
run that same frozen engine on the same data, and the sharded plane is
bitwise-equal to it on the unit-weight graph it serves.  A seeded
sample is also compared with Dijkstra on G minus F, the paper's
definition of exact, which also covers the frozen engine itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from perfbench.inputs import FailureModel

#: Tolerance of the Dijkstra spot check on float-weight graphs, where
#: the oracle and the reference search add edge weights in different
#: orders.  Unit-weight graphs are compared exactly.
REL_TOL = 1e-9


@dataclass
class Served:
    """One ``run()`` call: its phase, snapshot epoch, input and report."""

    phase: str
    epoch: int
    queries: list
    report: object


def new_tally() -> dict:
    return {
        "attempted": 0, "ok": 0, "errored": 0, "shed": 0, "lost": 0,
        "wrong": 0,
    }


def failed_count(tally: dict) -> int:
    return tally["errored"] + tally["shed"] + tally["lost"] + tally["wrong"]


def reference_answers(served: list[Served], references: list) -> dict:
    """``(epoch, query) -> answer`` from each epoch's frozen oracle."""
    by_epoch: dict[int, dict] = {}
    for item in served:
        by_epoch.setdefault(item.epoch, {}).update(dict.fromkeys(item.queries))
    answers = {}
    for epoch, queries in by_epoch.items():
        ordered = list(queries)
        values, _ = references[epoch].answer_many(ordered)
        answers.update(
            ((epoch, query), value) for query, value in zip(ordered, values)
        )
    return answers


def check_answers(served: list[Served], references: list, expected=None):
    """Tally every query per phase; returns ``(tallies, wrong examples)``.

    A query fails when it errored, was shed, came back without an
    answer (lost) or disagrees with the reference (wrong).
    """
    if expected is None:
        expected = reference_answers(served, references)
    tallies: dict[str, dict] = {}
    wrong: list[str] = []
    for item in served:
        tally = tallies.setdefault(item.phase, new_tally())
        report = item.report
        tally["attempted"] += len(item.queries)
        if len(report.answers) != len(item.queries):
            tally["lost"] += len(item.queries)
            continue
        for query, answer, status in zip(
            item.queries, report.answers, report.statuses
        ):
            if status == "shed":
                tally["shed"] += 1
            elif status == "error":
                tally["errored"] += 1
            elif math.isnan(answer):
                tally["lost"] += 1
            elif answer != expected[(item.epoch, query)]:
                tally["wrong"] += 1
                if len(wrong) < 5:
                    wrong.append(
                        f"{item.phase} epoch {item.epoch} {query[:2]}: served "
                        f"{answer!r}, reference {expected[(item.epoch, query)]!r}"
                    )
            else:
                tally["ok"] += 1
    return tallies, wrong


def spot_check(
    served: list[Served], graphs: list, rng: random.Random, count: int,
    exact: bool,
) -> dict:
    """Compare a seeded sample of answers with Dijkstra on G minus F."""
    candidates = [
        (item.phase, item.epoch, query, answer)
        for item in served
        for query, answer, status in zip(
            item.queries, item.report.answers, item.report.statuses
        )
        if status == "ok"
    ]
    sample = rng.sample(candidates, min(count, len(candidates)))
    models: dict[int, FailureModel] = {}
    mismatches = []
    for phase, epoch, (source, target, failed), answer in sample:
        if epoch not in models:
            models[epoch] = FailureModel.from_graph(graphs[epoch])
        truth = models[epoch].distance(source, target, failed)
        agrees = answer == truth if exact else math.isclose(
            answer, truth, rel_tol=REL_TOL
        )
        if not agrees:
            mismatches.append((
                phase,
                f"dijkstra epoch {epoch} {(source, target)}: served "
                f"{answer!r}, G minus F gives {truth!r}",
            ))
    return {"checked": len(sample), "mismatches": mismatches}
