"""The bounded, ordered thread map of apply_policy, model_report, compare_schedules and dequantize."""

from __future__ import annotations

import functools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator


def _map(fn: Callable, items: Iterable, threads: int) -> Iterator:
    """fn(x) for x in items, lazily and in item order, on up to `threads` worker threads.

    Items are pulled on the consuming thread and never more than `threads`
    ahead of the results it has taken, so at most `threads` items are in
    flight: a streamed input holds at most that many tensors and their
    results at once.  An exception from fn(x) is raised when x's result is
    due, after the tasks already running have finished.
    """
    if threads <= 1:
        return map(fn, items)
    return _bounded_map(fn, items, threads)


def _bounded_map(fn: Callable, items: Iterable, threads: int) -> Iterator:
    # threads tasks at most: each starts at once, so leaving the pool waits
    # only for tasks already running
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        # map() hands each item to submit without a name bound to it here, so a
        # pulled item lives only as long as its task
        for future in map(functools.partial(pool.submit, fn), items):
            pending.append(future)
            if len(pending) == threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
