"""Deterministic chunked parallelism.

Work is split into chunks whose content and order never depend on the
worker count; merging happens in chunk order, so any derived report is
byte-identical for 1 and N workers.  Workers are forked processes (the
shared context is inherited copy-on-write, nothing is written back).
Sampled work draws from mix_seed(seed, stream, chunk...), never from a
generator shared across chunks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Sequence

_PAR_CTX: Any = None


def mix_seed(*parts: int) -> int:
    """Deterministic 63-bit seed from integer parts (seed, stream, chunk...)."""
    out = 0x9E3779B97F4A7C15
    for v in parts:
        out = (out * 0x100000001B3 + (v & 0xFFFFFFFFFFFF) + 0x2545F4914F6CDD1D) % 2**63
    return out


def merge_checks(parts: Iterable[Dict]) -> Dict:
    """Sum {checked, failures} over chunk results; keep the first witness."""
    out = {"checked": 0, "failures": 0, "witness": None}
    for r in parts:
        out["checked"] += r["checked"]
        out["failures"] += r["failures"]
        if out["witness"] is None:
            out["witness"] = r["witness"]
    return out


def _invoke(args):
    fn, payload = args
    return fn(_PAR_CTX, payload)


def parallel_map(ctx, fn: Callable, payloads: Sequence, workers: int = 1) -> List:
    """fn(ctx, payload) over payloads; results in payload order."""
    if workers <= 1 or len(payloads) <= 1:
        return [fn(ctx, p) for p in payloads]
    global _PAR_CTX
    import multiprocessing as mp

    _PAR_CTX = ctx
    try:
        with mp.get_context("fork").Pool(min(workers, len(payloads))) as pool:
            return pool.map(_invoke, [(fn, p) for p in payloads])
    finally:
        _PAR_CTX = None


def chunk_ranges(total: int, size: int) -> List[tuple]:
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]
