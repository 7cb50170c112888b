"""The unit of work and memory of every command: one block of one tensor.

A streamed tensor is its `TensorSpec` with a lazy iterator of its blocks;
`_map_blocks` runs one bounded, ordered thread map over the (tensor, block)
items of a whole stream, so at most `threads + _QUEUED` blocks are in
flight and one large tensor keeps every thread busy.
"""

from __future__ import annotations

import functools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator

_BLOCK_ELEMS = 1 << 18  # elements per block: analyze's, and about a block of groups elsewhere
# items queued beyond one per worker thread, so the workers stay busy while the
# consuming thread handles a result and reads the next item
_QUEUED = 2
_END = object()         # end-of-stream marker, never an item of a stream


def _map(fn: Callable, items: Iterable, threads: int) -> Iterator:
    """fn(x) for x in items, lazily and in item order, on up to `threads` worker threads.

    With one thread this is plain `map`.  Otherwise items are pulled on the
    consuming thread and never more than `threads + _QUEUED` ahead of the
    results it has taken, so at most that many items are in flight: a
    streamed input holds at most that many blocks and their results at
    once.  An exception from fn(x) is raised when x's result is due, after
    the tasks already running have finished.  When the consumer stops early
    or a task raises, the items not yet started are never computed.
    """
    if threads <= 1:
        return map(fn, items)
    return _bounded_map(fn, items, threads)


def _bounded_map(fn: Callable, items: Iterable, threads: int) -> Iterator:
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        pending: deque = deque()
        # map() hands each item to submit without a name bound to it here, so a
        # pulled item lives only as long as its task
        for future in map(functools.partial(pool.submit, fn), items):
            pending.append(future)
            if len(pending) == threads + _QUEUED:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        # an early exit cancels the queued tasks and waits only for the running ones
        pool.shutdown(cancel_futures=True)


def _map_blocks(fn: Callable[[Any, Any], Any], tensors: Iterable[tuple[Any, Iterable]],
                threads: int) -> Iterator[tuple[Any, Iterator]]:
    """fn(spec, block) over every block of every (spec, blocks) tensor, as one _map.

    Lazily yields (spec, results) per tensor, in order; `results` yields
    fn's results for that tensor's blocks in block order.  Taking the next
    tensor skips whatever the consumer left of the last one's results.
    """
    def items() -> Iterator:
        for spec, blocks in tensors:
            for block in blocks:
                yield spec, block
            yield spec, _END

    def work(item: tuple) -> tuple:
        spec, block = item
        return spec, block if block is _END else fn(spec, block)

    results = _map(work, items(), threads)

    def rest(value: Any) -> Iterator:
        while value is not _END:
            yield value
            _, value = next(results)

    for spec, first in results:
        tensor = rest(first)
        yield spec, tensor
        deque(tensor, maxlen=0)
