"""Deterministic parallel map owned by the harness.

Work items are dispatched to a thread pool (numpy releases the GIL in the
heavy kernels) and results are reassembled in input order, so reductions see
exactly the same operand sequence whatever the worker count or scheduling.
All randomness in the modules is counter-based, never shared state.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def parallel_map(fn, items, workers: int = 1) -> list:
    """[fn(x) for x in items], spread over ``workers`` threads, in input order."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    out = [None] * len(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, it): i for i, it in enumerate(items)}
        for fut, i in futures.items():
            out[i] = fut.result()
    return out
