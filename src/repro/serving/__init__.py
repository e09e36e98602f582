"""``repro.serving`` — the goal-directed query-serving front door.

One API, :func:`answer`, serves certain-answer requests on the unified
engine stack: goal-directed chase with incremental per-round probes and
query-relevance rule pruning, UCQ piece-rewriting, or the hybrid of
both — each returning an :class:`AnswerResult`
whose verdict says exactly how much to trust the answer.  See
``src/repro/serving/README.md`` for the strategy decision table.
"""

from repro.serving.answer import STRATEGIES, AnswerResult, answer
from repro.serving.goal import GoalDirectedPolicy, GoalProbe
from repro.serving.relevance import (
    goal_predicates,
    relevant_closure,
    relevant_rules,
)
from repro.serving.stats import SERVING_STATS, ServingStats

__all__ = [
    "STRATEGIES",
    "AnswerResult",
    "GoalDirectedPolicy",
    "GoalProbe",
    "SERVING_STATS",
    "ServingStats",
    "answer",
    "goal_predicates",
    "relevant_closure",
    "relevant_rules",
]
