"""Parity: ``batch`` and ``serve`` run the same job list to the same outcomes.

Both job runners — :class:`~repro.service.BatchExecutor` and the server's
:class:`~repro.server.pool.WarmVerifierPool` behind a
:class:`~repro.server.pool.JobDispatcher` — apply the rules of
:mod:`repro.service.executor`: the budget precedence, the verdict-cache
front and store, the ``(fingerprint, budget)`` dedup key and the follower
result.  One job list goes through both, and every job must come back with
the same status, verdict, cache provenance, dedup mark and error kind.

The batch consults the verdict cache once, before anything runs, while the
server consults it when each request runs; so a verdict stored during the
run is visible to later server requests but not to the rest of the batch.
The pair run under two budgets is therefore an erroring one, whose outcome
is never cached and so cannot be served from the cache on either side.
"""

import asyncio

from repro.server.pool import JobDispatcher, WarmVerifierPool
from repro.service import BatchExecutor, JobStatus, ResultCache, VerificationJob

ORIGINAL = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = 0; k < N; k++)
s1:     B[k] = A[k] + A[k+1];
}
"""

TRANSFORMED = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = N-1; k >= 0; k--)
t1:     B[k] = A[k+1] + A[k];
}
"""

BROKEN = "not a program"


def job(name, original, transformed, timeout=None):
    return VerificationJob(
        name=name, original_source=original, transformed_source=transformed, timeout=timeout
    )


def seed_job():
    """The pair whose verdict is in the cache before the list runs."""
    return job("seed", ORIGINAL, ORIGINAL)


def job_list():
    return [
        job("cache-hit", ORIGINAL, ORIGINAL),
        job("miss", ORIGINAL, TRANSFORMED),
        job("duplicate", ORIGINAL, TRANSFORMED),
        job("error-budget-30", BROKEN, ORIGINAL, timeout=30.0),
        job("error-budget-60", BROKEN, ORIGINAL, timeout=60.0),
        job("error-duplicate", BROKEN, ORIGINAL, timeout=60.0),
    ]


def run_batch():
    executor = BatchExecutor(cache=ResultCache(), workers=1)
    executor.run([seed_job()])
    return executor.run(job_list())


def run_server():
    pool = WarmVerifierPool(workers=1, cache=ResultCache())
    dispatcher = JobDispatcher(pool)

    async def scenario():
        await dispatcher.run(seed_job())
        # All requests are in flight together, as a pipelined `batch --server`
        # sends them: a duplicate arrives while its leader still runs.
        return await asyncio.gather(*(dispatcher.run(entry) for entry in job_list()))

    try:
        return list(asyncio.run(scenario()))
    finally:
        pool.close()


def summary(outcome):
    error_kind = outcome.error.split(":", 1)[0] if outcome.error else None
    return (
        outcome.name,
        outcome.status,
        outcome.equivalent,
        outcome.cache_hit,
        bool(outcome.metadata.get("deduplicated")),
        error_kind,
    )


def test_batch_and_server_agree_per_job():
    batch = [summary(outcome) for outcome in run_batch()]
    server = [summary(outcome) for outcome in run_server()]
    assert batch == server


def test_the_list_covers_every_rule():
    by_name = {outcome.name: summary(outcome) for outcome in run_batch()}
    assert by_name["cache-hit"][1:5] == (JobStatus.OK, True, True, False)
    assert by_name["miss"][1:5] == (JobStatus.OK, True, False, False)
    assert by_name["duplicate"][1:5] == (JobStatus.OK, True, False, True)
    # Two budgets: two executions, neither a follower of the other.
    assert by_name["error-budget-30"][1:5] == (JobStatus.ERROR, None, False, False)
    assert by_name["error-budget-60"][1:5] == (JobStatus.ERROR, None, False, False)
    # Same budget: the failure fans out to the duplicate.
    assert by_name["error-duplicate"][1:5] == (JobStatus.ERROR, None, False, True)
    assert by_name["error-duplicate"][5] == by_name["error-budget-60"][5] is not None
