"""The unit of work and memory of every command: one block of one tensor.

A streamed tensor is its `TensorSpec` with a lazy iterator of its blocks;
`_map_blocks` runs one bounded, ordered thread map over the (tensor, block)
items of a whole stream, so at most `threads` blocks are in flight and one
large tensor keeps every thread busy.
"""

from __future__ import annotations

import functools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator

_BLOCK_ELEMS = 1 << 18  # elements per block: analyze's, and about a block of groups elsewhere
_END = object()         # end-of-stream marker, never an item of a stream


def _map(fn: Callable, items: Iterable, threads: int) -> Iterator:
    """fn(x) for x in items, lazily and in item order, on up to `threads` worker threads.

    Items are pulled on the consuming thread and never more than `threads`
    ahead of the results it has taken, so at most `threads` items are in
    flight: a streamed input holds at most that many blocks and their
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
