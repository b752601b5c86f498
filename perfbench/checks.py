"""Answer checks, run after the timed phases.

Every answer the server gave during a run is checked against the
program's own scoring path, called directly:

* an OK answer must equal ``ScoringPipeline.score_features`` on that
  request;
* a CACHED answer must equal the direct answer of an OK request with
  the same ``(plan_signature, requested_tokens)`` key (with two clients,
  send order does not prove which request filled the cache, so any OK
  request of the run with that key qualifies);
* a FALLBACK answer is allowed only where direct scoring raises or the
  breaker was open;
* a REJECTED answer, a timeout or an exception is a failed request.

Direct answers are scored in chunks of :data:`CHUNK` requests. Scoring
is elementwise per request (one power-law fit per job, one tree walk per
row), so a chunk gives each request the answer it gets alone; a chunk
that raises is rescored one request at a time.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import ReproError
from repro.scope.signatures import plan_signature
from repro.tasq.pipeline import featurize

CHUNK = 64


@dataclasses.dataclass
class CheckReport:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    by_status: dict[str, int] = dataclasses.field(default_factory=dict)
    by_reason: dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
        else:
            self.problems[-1] = f"... and more ({text})"


def _direct(pipeline, items):
    """Direct answers for ``(plan, tokens)`` items; ReproError -> None."""
    answers = []
    for start in range(0, len(items), CHUNK):
        chunk = items[start:start + CHUNK]
        features = [featurize(plan) for plan, _ in chunk]
        try:
            answers.extend(
                pipeline.score_features(
                    [plan.job_id for plan, _ in chunk],
                    [tokens for _, tokens in chunk],
                    features,
                )
            )
            continue
        except ReproError:
            pass
        for (plan, tokens), feats in zip(chunk, features):
            try:
                answers.append(
                    pipeline.score_features([plan.job_id], [tokens], [feats])[0]
                )
            except ReproError:
                answers.append(None)
    return answers


def check_answers(pipeline, records) -> CheckReport:
    """Check ``records``: ``(plan, tokens, response, error, counted)``.

    Every answer is checked; only ``counted`` records add to
    ``attempted`` and ``failed``.
    """
    report = CheckReport()
    # Each distinct (job, tokens) is scored directly once.
    needed: dict[tuple[str, int], tuple[object, int]] = {}
    for plan, tokens, response, error, counted in records:
        if response is None:
            continue
        status = response.status.value
        if status == "ok" or (
            status == "fallback" and response.reason == "model_error"
        ):
            needed.setdefault((plan.job_id, int(tokens)), (plan, int(tokens)))
    keys = list(needed)
    direct = dict(zip(keys, _direct(pipeline, [needed[k] for k in keys])))

    signatures: dict[str, str] = {}

    def cache_key(plan, tokens) -> tuple[str, int]:
        if plan.job_id not in signatures:
            signatures[plan.job_id] = plan_signature(plan)
        return signatures[plan.job_id], int(tokens)

    # Direct answers of OK requests per cache key, job id blanked.
    filled: dict[tuple[str, int], set] = {}
    for plan, tokens, response, error, counted in records:
        if response is not None and response.status.value == "ok":
            answer = direct[(plan.job_id, int(tokens))]
            if answer is not None:
                filled.setdefault(cache_key(plan, tokens), set()).add(
                    dataclasses.replace(answer, job_id="")
                )

    for plan, tokens, response, error, counted in records:
        report.attempted += counted
        if response is None:
            report.failed += counted
            report.by_status["error"] = report.by_status.get("error", 0) + 1
            continue
        status = response.status.value
        report.by_status[status] = report.by_status.get(status, 0) + 1
        if response.reason:
            report.by_reason[response.reason] = (
                report.by_reason.get(response.reason, 0) + 1
            )
        job = (plan.job_id, int(tokens))
        if status == "rejected":
            report.failed += counted
        elif status == "ok":
            expected = direct[job]
            if expected is None:
                report.problem(f"{plan.job_id}: OK answer where direct scoring raises")
            elif response.recommendation != expected:
                report.problem(f"{plan.job_id}: OK answer differs from direct scoring")
        elif status == "cached":
            answer = dataclasses.replace(response.recommendation, job_id="")
            if (
                response.recommendation.job_id != plan.job_id
                or answer not in filled.get(cache_key(plan, tokens), ())
            ):
                report.problem(
                    f"{plan.job_id}: cached answer matches no OK answer"
                )
        elif status == "fallback":
            if response.reason == "breaker_open":
                continue
            if response.reason != "model_error" or direct[job] is not None:
                report.problem(
                    f"{plan.job_id}: fallback ({response.reason}) where the "
                    "model answers"
                )
    return report
