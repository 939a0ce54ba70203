"""The benchmark's workloads: what one run of each calls, and how its output
is checked.

A workload function takes the seed and a Tracer and returns
`(report, counters, errors)`.  `report` summarises the program's output; its
canonical JSON bytes must repeat for the same seed.  `counters` are exact
work counts that must repeat as well.  `errors` lists the output checks that
failed.  The program receives only (m, n, t, p, seed, samples, workers).
"""

from __future__ import annotations

import contextlib
import io
import json

K5 = (3, 2, (1, 1, 1), 5)
K7 = (3, 2, (1, 1, 1), 7)
PROBES = 20
JACOBI_SAMPLES = 4_000_000
K7_WORKERS = 2


def expected_dim(params):
    """p**(t_1+...+t_m) * 2**n: at these parameters every monomial lies in
    the derived algebra."""
    m, n, t, p = params
    return p ** sum(t) * 2**n


def _expect(errors, what, got, want):
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def scaffold_k5(seed, tr):
    """Odd-parity derivation scaffold of verify-theorem at K5, as `contactk der`
    runs it, checked against the inner derivations ad(e_x), x odd."""
    from contactk import contact, derblocks

    errors = []
    alg = contact.build_contact_algebra(*K5)
    anchors = derblocks.anchor_indices(alg)
    vecs, reports = derblocks.derivation_blocks(alg, 1, seed, anchors)
    with tr.span("bench.check"):
        odd = [x for x in range(alg.dim) if alg.parity[x]]
        at_floor = sum(r.status == "floor" for r in reports)
        _expect(errors, "blocks at floor", at_floor, len(reports))
        _expect(errors, "derivations", len(vecs), len(odd))
        _expect(errors, "floors", sum(r.floor for r in reports), len(odd))
        missing = _inner_not_in_span(alg, odd, vecs)
        _expect(errors, "ad(e_x) outside the computed span", missing, [])
    counters = {
        "der_blocks.odd": len(reports),
        "der_at_floor.odd": at_floor,
        "der_unknowns.odd": sum(r.unknowns for r in reports),
        "der_equations.odd": sum(r.equations for r in reports),
    }
    report = {
        "blocks": [
            [list(r.key[0]), r.key[1], r.unknowns, r.dim, r.floor, r.status,
             r.equations]
            for r in reports
        ],
        "vectors": [
            [list(v.key[0]), v.key[1], sorted((l, list(map(list, ent)))
                                             for l, ent in v.rows.items())]
            for v in vecs
        ],
    }
    return report, counters, errors


def _inner_not_in_span(alg, odd, vecs):
    """Odd x whose ad(e_x) does not reduce to zero against the returned
    blocks.  Each block's vectors are a canonical RREF over its sorted
    (l, k) unknowns, so a vector's pivot is its smallest key."""
    p = alg.p
    by_key = {}
    for v in vecs:
        row = {(l, k): c for l, ent in v.rows.items() for k, c in ent}
        by_key.setdefault(v.key, []).append((min(row), row))
    missing = []
    for x in odd:
        key = (alg.weight[x], alg.degree[x])
        vec = {}
        for l in range(alg.dim):
            for k, c in alg.bracket_indices(x, l):
                vec[(l, k)] = c
        for pivot, row in by_key.get(key, ()):
            coef = vec.get(pivot, 0)
            if coef:
                for col, c in row.items():
                    vec[col] = (vec.get(col, 0) - coef * c) % p
        if any(vec.values()):
            missing.append(x)
    return missing


def structure_k5(seed, tr):
    """The structural checks of verify-theorem at K5: center, degree -1
    centralizer, generation closure and 20 seeded simplicity probes."""
    import numpy as np

    from contactk import contact

    errors = []
    alg = contact.build_contact_algebra(*K5)
    with tr.span("contact.structure", "structure"):
        center = contact.centralizer(alg)
        neg_one = contact.graded_component(alg, -1)
        rows = np.zeros((len(neg_one), alg.dim), dtype=np.int64)
        rows[np.arange(len(neg_one)), neg_one] = 1
        cen1 = contact.centralizer(alg, s_rows=rows)
        gens = contact.generators(alg)
        spans, rounds = contact.generation_closure(alg, gens)
    with tr.span("contact.probes", "probes"):
        probes = contact.simplicity_probes(alg, count=PROBES, seed=seed, workers=1)
    with tr.span("bench.check"):
        unit = alg.index[alg.space.unit]
        _expect(errors, "center dim", int(center.shape[0]), 0)
        _expect(errors, "degree -1 centralizer support",
                [list(np.flatnonzero(r)) for r in cen1], [[unit]])
        _expect(errors, "generators", len(gens), 15)
        _expect(errors, "generation spans", spans, True)
        _expect(errors, "probes", len(probes["probes"]), PROBES)
        _expect(errors, "probe failures", probes["failures"], 0)
    report = {
        "center_dim": int(center.shape[0]),
        "centralizer_minus1": cen1.tolist(),
        "generators": gens,
        "generation": [spans, rounds],
        "probes": probes["probes"],
        "failed_probes": probes["failed_elements"],
    }
    return report, {}, errors


def validate_k7(seed, tr):
    """`contactk check-jacobi` at K7 with 2 workers: every antisymmetry pair
    recomputed through the contact bracket, plus sampled Jacobi triples."""
    from contactk import cli

    errors = []
    m, n, t, p = K7
    argv = ["check-jacobi", "--m", str(m), "--n", str(n), "--t", ",".join(map(str, t)),
            "--p", str(p), "--workers", str(K7_WORKERS),
            "--samples", str(JACOBI_SAMPLES), "--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    text = out.getvalue()
    with tr.span("bench.check"):
        _expect(errors, "exit code", code, 0)
        try:
            rep = json.loads(text)
        except json.JSONDecodeError:
            errors.append("report is not JSON")
            return {"text": text}, {}, errors
        _expect(errors, "verdict", rep.get("verdict"), "pass")
        checks = {c["name"]: c for c in rep.get("checks", [])}
        n = expected_dim(K7)
        for name, count in (("antisymmetry_exhaustive", n * (n + 1) // 2),
                            ("jacobi_sampled", JACOBI_SAMPLES)):
            got = checks.get(name, {})
            _expect(errors, f"{name} checked", got.get("checked"), count)
            _expect(errors, f"{name} failures", got.get("failures"), 0)
    return {"text": text}, {}, errors


WORKLOADS = {
    "scaffold-k5": (scaffold_k5, K5),
    "structure-k5": (structure_k5, K5),
    "validate-k7": (validate_k7, K7),
}

# fresh-process builds per run, including the one inside the operation;
# a K7 build takes ~9 s, so it gets one extra build instead of two
SETUP_SAMPLES = {"scaffold-k5": 3, "structure-k5": 3, "validate-k7": 2}
