"""Spans, counters and a kernel-shape census, recorded from outside contactk.

A span measures one call: its inclusive time and its self time (inclusive
minus the inclusive time of the spans opened inside it).  Some spans open a
*stage*; every linalg call is booked under the innermost open stage, so the
same kernel is measured separately for the algebra build, the structural
checks, the simplicity probes and the derivation scaffold.

`install` replaces module attributes with timing wrappers.  Each wrapper is
set on the name the caller actually resolves: `cli` imported
`build_contact_algebra` and `jacobi_check` by name, `contact` imported
`rref`, and `Echelon` methods live on the one class every module shares.
Nothing under `src/` is edited; `restore` puts the originals back.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import Counter
from contextlib import contextmanager

# stages under which linalg work is booked
STAGES = ("build", "structure", "probes", "der")


def cpu_s(*who) -> float:
    """User plus system time of the given rusage targets."""
    total = 0.0
    for w in who:
        ru = resource.getrusage(w)
        total += ru.ru_utime + ru.ru_stime
    return total


def width_bucket(cols: int) -> str:
    """Power-of-two bucket label for an Echelon width, e.g. 1250 -> '<=2048'."""
    top = 1
    while top < cols:
        top *= 2
    return f"<={top}"


class Tracer:
    def __init__(self):
        self.spans = {}           # name -> [calls, inclusive_s, self_s]
        self.counts = Counter()   # exact counters, keyed "<what>.<stage>"
        self.census = {}          # stage -> Counter of "width|height" -> calls
        self.parallel = Counter() # forked parallel_map calls only
        self._open = []           # child-time accumulators of open spans
        self._stages = []
        self._undo = []

    @property
    def stage(self) -> str:
        return self._stages[-1] if self._stages else "other"

    @contextmanager
    def span(self, name: str, stage: str = None):
        if stage:
            self._stages.append(stage)
        child = [0.0]
        self._open.append(child)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self._open.pop()
            if self._open:
                self._open[-1][0] += dur
            rec = self.spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[0]
            if stage:
                self._stages.pop()

    def inclusive(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    # -- wrapping ---------------------------------------------------------------

    def _patch(self, owner, attr, make):
        # a caller that no longer resolves this name is not measured through
        # it; its metrics then read 0 instead of the run failing
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._undo.append((owner, attr, orig))

    def wrap(self, owner, attr: str, name: str, stage: str = None):
        """Time every call of owner.attr as span `name`."""

        def make(orig):
            def wrapper(*args, **kwargs):
                with self.span(name, stage):
                    return orig(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def wrap_per_stage(self, owner, attr: str, name: str, count=None):
        """Time owner.attr as span `name.<stage>`; `count(args, result)` adds
        exact counters for the call."""

        def make(orig):
            def wrapper(*args, **kwargs):
                stage = self.stage
                with self.span(f"{name}.{stage}"):
                    out = orig(*args, **kwargs)
                if count is not None:
                    count(stage, args, out)
                return out

            return wrapper

        self._patch(owner, attr, make)

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- the layers -------------------------------------------------------------

    def install_build_clock(self):
        """The only wrappers of an untraced run: they time set-up."""
        from contactk import cli, contact

        self.wrap(contact, "build_contact_algebra", "contact.build", "build")
        self.wrap(cli, "build_contact_algebra", "contact.build", "build")

    def install(self):
        """Wrap the public calls into every layer (traced runs only)."""
        from contactk import cli, contact, derblocks, linalg, parallel

        self.install_build_clock()
        self.wrap(cli, "run", "cli.run", "cli")
        self.wrap(cli, "jacobi_check", "contact.jacobi_check", "jacobi")
        self.wrap(contact, "antisymmetry_exhaustive", "contact.antisymmetry",
                  "antisymmetry")
        self.wrap(derblocks, "derivation_blocks", "derblocks.derivation_blocks",
                  "der")
        self._install_parallel(parallel)

        ech = linalg.Echelon
        self.wrap_per_stage(ech, "add_rows", "linalg.add_rows", self._count_add_rows)
        self.wrap_per_stage(ech, "reduce_rows", "linalg.reduce_rows",
                            self._count_reduce_rows)
        self.wrap_per_stage(ech, "kernel_basis", "linalg.kernel_basis")
        self.wrap_per_stage(linalg, "rref", "linalg.rref")
        self.wrap_per_stage(contact, "rref", "linalg.rref")

    def _count_add_rows(self, stage, args, gained):
        ech, batch = args[0], args[1]
        rows = batch.shape[0]
        self.counts[f"rows_submitted.{stage}"] += rows
        self.counts[f"rank_gained.{stage}"] += gained
        self.counts[f"add_rows_calls.{stage}"] += 1
        for name, v in (("max_batch_rows", rows), ("max_width", ech.ncols)):
            key = f"{name}.{stage}"
            self.counts[key] = max(self.counts[key], v)
        key = f"{width_bucket(ech.ncols)}|{width_bucket(rows)}"
        self.census.setdefault(stage, Counter())[key] += 1

    def _count_reduce_rows(self, stage, args, out):
        # computed, not measured: one (batch x rank) @ (rank x width) product
        ech, batch = args[0], args[1]
        rows = batch.shape[0] if batch.ndim == 2 else 1
        self.counts[f"reduce_flops.{stage}"] += 2 * rows * ech.nrows * ech.ncols

    def _install_parallel(self, parallel):
        def make(orig):
            def wrapper(ctx, fn, payloads, workers=1):
                forked = workers > 1 and len(payloads) > 1
                cpu0 = cpu_s(resource.RUSAGE_CHILDREN)
                t0 = time.perf_counter()
                with self.span("parallel.parallel_map"):
                    out = orig(ctx, fn, payloads, workers)
                if forked:
                    wall = time.perf_counter() - t0
                    self.parallel["map_s"] += wall
                    self.parallel["worker_cpu_s"] += cpu_s(resource.RUSAGE_CHILDREN) - cpu0
                    self.parallel["slot_s"] += min(workers, len(payloads)) * wall
                return out

            return wrapper

        self._patch(parallel, "parallel_map", make)

    def summary(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "census": {s: dict(c) for s, c in self.census.items()},
            "parallel": dict(self.parallel),
        }
