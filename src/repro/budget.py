"""The wall-clock budget of the job running on the current thread.

:func:`repro.service.executor.call_with_timeout` enforces a job's budget
with a watchdog whose :class:`JobTimeoutError` surfaces at the next Python
bytecode, so it cannot cut a call that blocks outside the interpreter.  The
one such call in the checker is an external SMT solver process
(:mod:`repro.solvers.smtlib`); it reads the deadline recorded here to bound
its wait and to report an overrun as a timeout.
"""

from __future__ import annotations

import threading
import time
from typing import Optional


class JobTimeoutError(BaseException):
    # BaseException, not Exception: the checker (e.g. the presburger closure
    # heuristics) uses broad `except Exception` internally, which must not
    # swallow the timeout and let a job run past its budget.
    pass


_local = threading.local()


def set_deadline(deadline: Optional[float]) -> Optional[float]:
    """Record the calling thread's ``time.monotonic()`` deadline; return the previous one."""
    previous = getattr(_local, "deadline", None)
    _local.deadline = deadline
    return previous


def remaining(limit: float) -> float:
    """*limit* seconds, cut to what is left of the calling thread's budget."""
    deadline = getattr(_local, "deadline", None)
    if deadline is None:
        return limit
    return max(0.0, min(limit, deadline - time.monotonic()))


def check() -> None:
    """Raise :class:`JobTimeoutError` if the calling thread's budget is spent."""
    if remaining(1.0) <= 0.0:
        raise JobTimeoutError()
