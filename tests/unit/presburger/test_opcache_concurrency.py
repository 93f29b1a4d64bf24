"""Stress test: the process-wide operation cache under thread contention.

The verification server's worker threads share one
:class:`~repro.presburger.opcache.OpCache`.  Its LRU bookkeeping (lookup,
``move_to_end``, insert, ``popitem``) and its counters are read-modify-write
sequences, so an unguarded interleaving can evict a key between the
membership test and the read (``KeyError``) or drop counter increments.  A
tiny cache, shared keys and a one-microsecond thread switch interval make
those interleavings frequent.
"""

import sys
import threading

from repro.presburger import opcache

THREADS = 8
CALLS = 20000
KEYS = 12


def test_memoized_is_thread_safe_under_eviction():
    previous_size = opcache.cache().maxsize
    previous_interval = sys.getswitchinterval()
    opcache.reset()
    opcache.configure(maxsize=4)
    errors = []
    barrier = threading.Barrier(THREADS + 1)

    def memoize(seed):
        barrier.wait()
        try:
            for step in range(CALLS):
                key = (seed + step) % KEYS
                value = opcache.memoized("stress", key, lambda k=key: k * 3)
                assert value == key * 3
        except BaseException as error:  # reported by the assertions below
            errors.append(error)

    def resize():
        # configure()'s eviction loop races with memoized() unless guarded.
        barrier.wait()
        try:
            for step in range(CALLS // 10):
                opcache.configure(maxsize=2 + step % 4)
        except BaseException as error:  # reported by the assertions below
            errors.append(error)

    threads = [threading.Thread(target=memoize, args=(seed,)) for seed in range(THREADS - 1)]
    threads.append(threading.Thread(target=resize))
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(previous_interval)
        opcache.configure(maxsize=previous_size)
    stats = opcache.stats()
    hits, misses = stats.per_op.get("stress", (0, 0))
    opcache.reset()
    assert not errors, f"{len(errors)} thread(s) failed, first: {errors[0]!r}"
    assert not any(thread.is_alive() for thread in threads)
    # No lost counter increments: every call is either a hit or a miss.
    assert hits + misses == (THREADS - 1) * CALLS
    assert stats.hits + stats.misses == (THREADS - 1) * CALLS


def test_timeouts_never_leave_the_lock_held():
    # A job budget delivers JobTimeoutError into the checking thread at any
    # bytecode boundary, including the one right after the cache lock is
    # taken; the lock must still be released every time.
    from repro.service.executor import JobTimeoutError, call_with_timeout

    opcache.reset()

    def churn():
        step = 0
        while True:
            opcache.memoized("budget", step % KEYS, lambda k=step: k)
            step += 1

    try:
        for _ in range(300):
            try:
                call_with_timeout(churn, 0.0005)
            except JobTimeoutError:
                pass
            assert not opcache.cache()._lock.locked()
        assert opcache.memoized("budget", "after", lambda: 42) == 42
    finally:
        if opcache.cache()._lock.locked():
            opcache.cache()._lock.release()  # let the rest of the suite run
        opcache.reset()
