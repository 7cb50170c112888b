"""The ordered thread map of apply_policy, model_report, compare_schedules and dequantize."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence


def _map(fn: Callable, items: Sequence, threads: int) -> list:
    """[fn(x) for x in items], on up to `threads` worker threads; results keep item order."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]
