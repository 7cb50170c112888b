"""The unit of work and memory of every command: one block of one tensor.

A streamed tensor is its `TensorSpec` with a lazy iterator of its blocks;
`_map_blocks` runs one bounded, ordered thread map over the (tensor, block)
items of a whole stream, so at most `threads + _QUEUED` blocks are in
flight and one large tensor keeps every thread busy.

Every map on `threads` threads runs on one pool of that many worker
threads, made at its first use and kept for the life of the process, so a
map costs no thread start-up and many small maps (one per synthetic
tensor, say) share the same workers.  Maps on the same pool may run at
once and interleave.  A mapped function must never itself map on the pool
it runs on: its task would wait for tasks queued behind it on the same
workers, and with every worker waiting so, the pool deadlocks.
`_default_threads` is the one rule for a thread count not given:
BENQ_THREADS, else every core.  `concurrent.futures` is imported at the
first map on more than one thread, so a run on one thread never loads it.
A job beside the map, such as hashing a file, runs on a plain thread of
its own (`_Background`) that never outlives its with-block.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple

from .errors import ConfigError

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

_BLOCK_ELEMS = 1 << 18  # elements per block: analyze's, and about a block of groups elsewhere
# items queued beyond one per worker thread, so the workers stay busy while the
# consuming thread handles a result and reads the next item
_QUEUED = 2
_END = object()         # end-of-stream marker, never an item of a stream


class TensorSpec(NamedTuple):
    """What a file's header says of one tensor, known before any tensor is read.

    `dtype` is the stored dtype, None for a quantized .benq tensor.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str | None


def _thread_count(text: str) -> int:
    """A thread count: an integer of at least 1; ValueError otherwise."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"expected an integer of at least 1, got {text!r}")
    return n


def _default_threads() -> int:
    """The thread count when none is given: BENQ_THREADS, else every core."""
    env = os.environ.get("BENQ_THREADS")
    if env:
        try:
            return _thread_count(env)
        except ValueError as e:
            raise ConfigError(f"BENQ_THREADS: {e}") from None
    return os.cpu_count() or 1


_POOLS: dict[int, ThreadPoolExecutor] = {}  # the pool of each thread count, for the process
_POOLS_LOCK = threading.Lock()


def _workers(threads: int) -> ThreadPoolExecutor:
    """The process's pool of `threads` worker threads, made at its first use."""
    from concurrent.futures import ThreadPoolExecutor

    with _POOLS_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            pool = _POOLS[threads] = ThreadPoolExecutor(max_workers=threads,
                                                        thread_name_prefix=f"benq-{threads}")
        return pool


class _Background:
    """fn(stopped) on a thread of its own named `name`, for one with-block.

    Entering starts the thread; leaving sets the event `stopped`, at which
    fn should return soon, and joins the thread, so it never outlives the
    block.  result() waits for fn and returns its value, or raises what fn
    raised, on the thread that reads it.
    """

    def __init__(self, fn: Callable[[threading.Event], Any], name: str):
        self._stopped = threading.Event()
        self._value: Any = None
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._run, args=(fn,), name=name)

    def _run(self, fn: Callable[[threading.Event], Any]) -> None:
        try:
            self._value = fn(self._stopped)
        except Exception as e:  # raised again by result()
            self._error = e

    def __enter__(self) -> _Background:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stopped.set()
        self._thread.join()

    def result(self) -> Any:
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._value


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
    from concurrent.futures import wait

    pending: deque = deque()
    try:
        # map() hands each item to submit without a name bound to it here, so a
        # pulled item lives only as long as its task
        for future in map(functools.partial(_workers(threads).submit, fn), items):
            pending.append(future)
            if len(pending) == threads + _QUEUED:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        # an early exit cancels this map's queued tasks and waits only for its
        # running ones; other maps on the pool go on
        for future in pending:
            future.cancel()
        wait(pending)


def _map_blocks(fn: Callable[[TensorSpec, Any], Any],
                tensors: Iterable[tuple[TensorSpec, Iterable]],
                threads: int) -> Iterator[tuple[TensorSpec, Iterator]]:
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
