"""contactk benchmark: three workloads and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N       # all three, one table

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
scaffold-k5, structure-k5, validate-k7.  Each is a closed loop with one
client: an operation is a fresh `op.py` process, and the next starts only
after the previous one has finished and only if it is expected to end within
--seconds.  Every operation's output is checked, and its report must be
byte-identical to every other report for the same seed and sources,
including those of earlier runs in this checkout (kept in perfbench/out/).

--trace 0 prints the end-to-end metrics of BENCHMARK.json: medians over the
run's operations, and for setup_s over several fresh-process builds.
--trace 1 is the traced per-layer run, the same whatever --workload names:
one traced operation of every workload, so that every per-layer metric is
measured in every traced run, plus one untraced structure-k5 operation that
trace.overhead_ratio compares with its traced twin.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.  The
exit code is 0 when that line was printed, and 2 when no result could be
computed: no contactk sources, or an operation that died without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from tracer import STAGES
from workloads import JACOBI_SAMPLES, SETUP_SAMPLES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

RUN_LIMIT_S = 170  # a run must end within 180 s; children are killed after this
ATTRIBUTED_MIN = 0.95  # traced spans must cover this share of each operation
# untraced twin for trace.overhead_ratio: the workload with the most wrapped
# calls per second, and the shortest
TWIN = "structure-k5"


# -- environment ----------------------------------------------------------------


def blas_threads() -> int:
    """The BLAS thread count every operation runs with: one per usable core,
    as OpenBLAS picks by default, but pinned so compared runs agree."""
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    n = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    return env


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def sources_digest() -> str:
    """Digest of the program's and the benchmark's Python sources, so repeat
    checks only compare runs of the same code."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("__pycache__", "out"))
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


# -- child processes ------------------------------------------------------------


class Run:
    """One invocation: its deadline, its child processes and its repeat store."""

    def __init__(self, seed: int):
        self.seed = seed
        self.start = time.monotonic()
        self.env = child_env()
        self.code = sources_digest()
        self.store_path = os.path.join(OUT, "repeats.json")
        try:
            with open(self.store_path, encoding="utf-8") as fh:
                self.store = json.load(fh)
        except (OSError, ValueError):
            self.store = {}

    def child(self, workload: str, *flags: str):
        """Run op.py; returns (result or None, elapsed seconds)."""
        argv = [sys.executable, os.path.join(HERE, "op.py"),
                "--workload", workload, "--seed", str(self.seed), *flags]
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.start))
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=self.env,
                                cwd=ROOT, start_new_session=True, text=True)
        out = ""
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"[perfbench] {workload}: killed after {timeout:.0f} s\n")
        finally:
            # the child leads its own process group: this also stops any
            # worker it left behind
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
        elapsed = time.monotonic() - t0
        lines = out.strip().splitlines()
        try:
            return json.loads(lines[-1]), elapsed
        except (IndexError, ValueError):
            sys.stderr.write(f"[perfbench] {workload}: no result (exit {proc.returncode})\n")
            return None, elapsed

    def repeat(self, kind: str, workload: str, value) -> bool:
        """Whether `value` equals what this seed gave before (first sight: yes)."""
        key = f"{self.code}:{kind}:{workload}:{self.seed}"
        return self.store.setdefault(key, value) == value

    def save(self):
        os.makedirs(OUT, exist_ok=True)
        tmp = self.store_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.store, fh, sort_keys=True, indent=0)
        os.replace(tmp, self.store_path)

    def operation(self, workload: str, traced: bool = False):
        """One checked operation; returns (result, elapsed, failed)."""
        res, elapsed = self.child(workload, *(["--traced"] if traced else []))
        if res is None:
            return None, elapsed, True
        for err in res["errors"]:
            sys.stderr.write(f"[perfbench] {workload}: check failed: {err}\n")
        if not res["ok"]:
            return res, elapsed, True
        failed = False
        if not self.repeat("report", workload, res["digest"]):
            sys.stderr.write(f"[perfbench] {workload}: report differs for seed {self.seed}\n")
            failed = True
        if traced and not self.repeat("counters", workload, res["counters"]):
            sys.stderr.write(f"[perfbench] {workload}: exact counters differ\n")
            failed = True
        return res, elapsed, failed


# -- end-to-end run -------------------------------------------------------------


def end_to_end(run: Run, workload: str, seconds: float):
    """Closed loop of operations, then set-up-only builds until the run has
    SETUP_SAMPLES build timings.  Returns (metrics or None, attempted, failed)."""
    ops, failed = [], 0
    t0 = time.monotonic()
    while True:
        res, elapsed, bad = run.operation(workload)
        failed += bad
        if res is None:
            break
        ops.append(res)
        if time.monotonic() - t0 + elapsed > seconds:
            break
    attempted = len(ops) + (res is None)
    setups = [r["setup_s"] for r in ops]
    while ops and len(setups) < SETUP_SAMPLES[workload]:
        res, _ = run.child(workload, "--setup-only")
        if res is None or not res["ok"]:
            sys.stderr.write(f"[perfbench] {workload}: set-up build failed\n")
            failed = attempted  # set-up is broken: no operation counts as correct
            break
        setups.append(res["setup_s"])
    if not ops:
        return None, attempted, failed
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in ops),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu_s"] for r in ops),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ops),
    }
    return metrics, attempted, failed


# -- traced per-layer run -------------------------------------------------------


def merge(traces):
    """Sum the traced operations' spans and counters; maxima stay maxima."""
    spans, counts, parallel, census = {}, {}, {}, {}
    for t in traces:
        for name, rec in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for name, v in t["counts"].items():
            op = max if name.startswith("max_") else (lambda a, b: a + b)
            counts[name] = op(counts.get(name, 0), v)
        for name, v in t["parallel"].items():
            parallel[name] = parallel.get(name, 0.0) + v
        for stage, cells in t["census"].items():
            acc = census.setdefault(stage, {})
            for cell, n in cells.items():
                acc[cell] = acc.get(cell, 0) + n
    return spans, counts, parallel, census


def per_layer(merged, ops: dict, twin: dict) -> dict:
    """Per-layer metric values from one traced operation of each workload."""
    spans, counts, par, _ = merged
    der = ops["scaffold-k5"]["counters"]

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    jacobi = incl("contact.jacobi_check") - incl("contact.antisymmetry")
    roots = [r["trace"]["spans"]["op"] for r in ops.values()]
    m = {
        "contact.structure_s": incl("contact.structure"),
        "contact.probes_s": incl("contact.probes"),
        "contact.antisymmetry_s": incl("contact.antisymmetry"),
        "contact.jacobi_s": jacobi,
        "contact.jacobi_triples_per_s": JACOBI_SAMPLES / jacobi,
    }
    for stage in STAGES:
        for call in ("add_rows", "reduce_rows", "rref", "kernel_basis"):
            m[f"linalg.{call}_s.{stage}"] = incl(f"linalg.{call}.{stage}")
        rows = counts.get(f"rows_submitted.{stage}", 0)
        gained = counts.get(f"rank_gained.{stage}", 0)
        m[f"linalg.rows_submitted.{stage}"] = rows
        m[f"linalg.rank_gained.{stage}"] = gained
        m[f"linalg.useful_row_ratio.{stage}"] = gained / rows if rows else 0.0
        m[f"linalg.reduce_flops.{stage}"] = counts.get(f"reduce_flops.{stage}", 0)
        m[f"linalg.add_rows_calls.{stage}"] = counts.get(f"add_rows_calls.{stage}", 0)
        m[f"linalg.max_width.{stage}"] = counts.get(f"max_width.{stage}", 0)
        m[f"linalg.max_batch_rows.{stage}"] = counts.get(f"max_batch_rows.{stage}", 0)
    m.update({
        "derblocks.der_s.odd": incl("derblocks.derivation_blocks"),
        "derblocks.der_self_s.odd": own("derblocks.derivation_blocks"),
        "derblocks.der_equations.odd": der["der_equations.odd"],
        "derblocks.der_equations_per_unknown.odd":
            der["der_equations.odd"] / der["der_unknowns.odd"],
        "derblocks.der_at_floor.odd": der["der_at_floor.odd"],
        "derblocks.der_blocks.odd": der["der_blocks.odd"],
        "parallel.map_s": par.get("map_s", 0.0),
        "parallel.worker_cpu_s": par.get("worker_cpu_s", 0.0),
        "parallel.efficiency":
            par.get("worker_cpu_s", 0.0) / par["slot_s"] if par.get("slot_s") else 0.0,
        "cli.overhead_s": own("cli.run"),
        "trace.overhead_ratio": ops[TWIN]["wall_s"] / twin["wall_s"] - 1,
        "trace.attributed_ratio":
            sum(r[1] - r[2] for r in roots) / sum(r[1] for r in roots),
    })
    return m


def traced(run: Run):
    """An untraced TWIN operation, then one traced operation per workload.
    Returns (twin, traced results by workload, attempted, failed)."""
    twin, _, bad = run.operation(TWIN)
    attempted, failed = 1, int(bad)
    ops = {}
    for name in WORKLOADS:
        res, _, bad = run.operation(name, traced=True)
        attempted += 1
        failed += bad
        if res is None:
            continue
        ops[name] = res
        root = res["trace"]["spans"]["op"]
        if root[1] and (root[1] - root[2]) / root[1] < ATTRIBUTED_MIN:
            sys.stderr.write(f"[perfbench] {name}: spans cover under "
                             f"{ATTRIBUTED_MIN:.0%} of the traced wall time\n")
            failed += 1
    return twin, ops, attempted, failed


# -- output ---------------------------------------------------------------------


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def with_units(values: dict, spec_metrics: list) -> dict:
    """Exactly the metrics BENCHMARK.json names, in its order, with units."""
    missing = {m["name"] for m in spec_metrics} - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def show(workload, seed, metrics, attempted, failed, env):
    print(f"[perfbench] {workload} seed={seed}: {attempted} operation(s), {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'fail_ratio':<44} {ratio:>16.6g} ratio ({failed}/{attempted})")
    print("[perfbench] env: " + " | ".join(f"{k} {v}" for k, v in env.items()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "contactk", "__init__.py")):
        sys.stderr.write("[perfbench] no contactk sources under src/\n")
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = environment()
    run = Run(args.seed)
    try:
        if args.trace:
            twin, ops, attempted, failed = traced(run)
            if twin is None or len(ops) < len(WORKLOADS):
                return 2
            merged = merge(r["trace"] for r in ops.values())
            metrics = with_units(per_layer(merged, ops, twin), spec["per_layer"])
            os.makedirs(OUT, exist_ok=True)
            with open(os.path.join(OUT, f"trace-seed{args.seed}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"env": env, "seed": args.seed, "metrics": metrics,
                           "census": merged[3], "operations": ops},
                          fh, indent=1, sort_keys=True)
            show("traced run", args.seed, metrics, attempted, failed, env)
        else:
            names = list(WORKLOADS) if args.workload == "all" else [args.workload]
            metrics, attempted, failed = {}, 0, 0
            for name in names:
                run.start = time.monotonic()  # each workload gets the full run limit
                values, a, f = end_to_end(run, name, seconds)
                attempted += a
                failed += f
                if values is None:
                    return 2
                one = with_units(values, spec["end_to_end"])
                show(name, args.seed, one, a, f, env)
                if len(names) == 1:
                    metrics = one
                else:
                    metrics.update({f"{name}/{k}": v for k, v in one.items()})
    finally:
        run.save()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
