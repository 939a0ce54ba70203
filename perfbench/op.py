"""One fresh process of the benchmark: one workload operation, or one
set-up-only build.  Prints a single JSON object on its last stdout line.

    python3 perfbench/op.py --workload NAME --seed N [--traced | --setup-only]

contactk is imported from `src/` of the checkout, the way the test suite
imports it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

from tracer import Tracer, cpu_s

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OWN = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)  # this process and its reaped workers


def peak_rss_mb() -> float:
    """Largest resident set of this process or any of its workers (Linux
    reports KiB)."""
    return max(resource.getrusage(who).ru_maxrss for who in OWN) / 1024


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def setup_only(params) -> dict:
    from contactk import contact
    from workloads import expected_dim

    t0 = time.perf_counter()
    alg = contact.build_contact_algebra(*params)
    setup = time.perf_counter() - t0
    ok = alg.dim == expected_dim(params)
    return {"ok": ok, "errors": [] if ok else [f"dim {alg.dim}"], "setup_s": setup}


def operation(fn, seed: int, traced: bool) -> dict:
    tr = Tracer()
    if traced:
        tr.install()
    else:
        tr.install_build_clock()
    report, counters, errors = None, {}, []
    cpu0 = cpu_s(*OWN)
    try:
        with tr.span("op"):
            report, counters, errors = fn(seed, tr)
    except Exception:  # the program failed: report it as a failed operation
        errors = [traceback.format_exc()]
    finally:
        tr.restore()
    out = {
        "ok": not errors,
        "errors": errors,
        "wall_s": tr.inclusive("op"),
        "setup_s": tr.inclusive("contact.build"),
        "cpu_s": cpu_s(*OWN) - cpu0,
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest(report),
        "counters": counters,
    }
    if traced:
        out["trace"] = tr.summary()
        out["counters"] = {**counters, **tr.counts}
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "contactk", "__init__.py")):
        sys.exit(f"contactk sources not found in {src}")
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    fn, params = WORKLOADS[args.workload]
    if args.setup_only:
        result = setup_only(params)
    else:
        result = operation(fn, args.seed, args.traced)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
