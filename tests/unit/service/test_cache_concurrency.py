"""Stress test: the verdict cache's memory LRU under thread contention.

The verification server's worker threads share one
:class:`~repro.service.cache.ResultCache`.  A memory hit is a lookup followed
by ``move_to_end``, and a store inserts and then evicts with ``popitem``; an
unguarded interleaving evicts a key between the lookup and the
``move_to_end`` (``KeyError``) or drops counter increments.  Every thread
mostly reads one shared hot verdict and now and then stores its own, which
evicts the hot one from a one-entry LRU; the per-thread periods differ so the
threads do not run in lockstep.  With a lookup that yields the GIL and a
one-microsecond thread switch interval, an unguarded LRU fails every run.
"""

import sys
import threading
import time
from collections import OrderedDict

from repro.checker import EquivalenceResult
from repro.service import ResultCache

THREADS = 8
CALLS = 2000


class YieldingOrderedDict(OrderedDict):
    """An ``OrderedDict`` whose ``get`` lets another thread run before returning."""

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0)
        return value


def test_memory_lru_and_stats_are_thread_safe():
    cache = ResultCache(None, memory_entries=1)
    cache._memory = YieldingOrderedDict()
    result = EquivalenceResult(equivalent=True)
    errors = []
    barrier = threading.Barrier(THREADS + 1)

    def churn(seed):
        barrier.wait()
        try:
            for step in range(CALLS):
                key = "hot" if step % (seed + 2) else str(seed)
                if cache.get(key) is None:
                    cache.put(key, result)
        except BaseException as error:  # reported by the assertions below
            errors.append(error)

    threads = [threading.Thread(target=churn, args=(seed,)) for seed in range(THREADS)]
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(previous_interval)
    assert not errors, f"{len(errors)} thread(s) failed, first: {errors[0]!r}"
    assert not any(thread.is_alive() for thread in threads)
    stats = cache.stats
    # No lost counter increments: every get is a hit or a miss, every miss stores.
    assert stats.hits + stats.misses == THREADS * CALLS
    assert stats.stores == stats.misses
    assert stats.hits == stats.memory_hits
    assert len(cache) == 1
