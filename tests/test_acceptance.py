"""Acceptance suite at the smallest legal parameters (3, 2, (1,1,1), 5).

Each criterion prints one PASS/FAIL line.  Reports for the worker-
sensitive checks are produced through the CLI for 1 and 2 workers and
must be byte-identical (criterion 8); wall-clock timing never enters a
report.
"""

import json
import time
from pathlib import Path

import pytest

from contactk.cli import run
from contactk.contact import (
    build_contact_algebra,
    weight_decomposition,
    weight_space_predicates,
)
from contactk.derlab import (
    check_biderivation,
    inner_biderivation,
    oracle_corpus,
    project_inner,
)
from contactk.witt import d_k_matrix_rank, homomorphism_check

SEED = 0
PARAMS = ("--m", "3", "--n", "2", "--t", "1,1,1", "--p", "5", "--seed", str(SEED))
COMMANDS = ("check-jacobi", "weights", "verify-theorem", "selftest")
GOLDEN = Path(__file__).parent / "golden"


def _announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num} [{name}]: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def K():
    return build_contact_algebra(3, 2, (1, 1, 1), 5)


@pytest.fixture(scope="module")
def cli_reports(tmp_path_factory):
    """Run the worker-parameterized CLI commands once per worker count."""
    base = tmp_path_factory.mktemp("reports")
    out = {}
    for workers in (1, 2):
        for command in COMMANDS:
            path = base / f"{command}-w{workers}.json"
            t0 = time.time()
            code = run(
                [command, *PARAMS, "--workers", str(workers),
                 "--samples", "1000000", "--report", str(path)]
            )
            print(f"[cli {command} workers={workers}] exit {code} in {time.time()-t0:.0f}s")
            out[(command, workers)] = (code, path.read_bytes())
    return out


def _checks(report_bytes):
    rep = json.loads(report_bytes)
    return rep["verdict"], {c["name"]: c for c in rep["checks"]}


def test_criterion_1_algebra_validity(cli_reports):
    code, payload = cli_reports[("check-jacobi", 1)]
    verdict, checks = _checks(payload)
    anti = checks["antisymmetry_exhaustive"]
    jac = checks["jacobi_sampled"]
    ok = (
        code == 0
        and verdict == "pass"
        and anti["checked"] == 500 * 501 // 2
        and anti["failures"] == 0
        and jac["checked"] == 1_000_000
        and jac["failures"] == 0
    )
    _announce(
        1, "algebra validity", ok,
        f"antisymmetry {anti['checked']} pairs, jacobi {jac['checked']} triples",
    )


def test_criterion_2_contact_map(K):
    rep1 = homomorphism_check(K.space, workers=1)
    rep2 = homomorphism_check(K.space, workers=2)
    rank, dim = d_k_matrix_rank(K.space)
    ok = (
        rep1["failures"] == 0
        and rep1["checked"] == 500 * 501 // 2
        and json.dumps(rep1) == json.dumps(rep2)
        and (rank, dim) == (500, 500)
    )
    _announce(
        2, "contact-map homomorphism and injectivity", ok,
        f"{rep1['checked']} pairs, rank {rank}/{dim}",
    )


def test_criterion_3_weight_machinery(K, cli_reports):
    code, payload = cli_reports[("weights", 1)]
    verdict, checks = _checks(payload)
    blocks = weight_decomposition(K)  # raises if the eigen-equation fails
    pred = weight_space_predicates(K)
    ok = (
        code == 0
        and verdict == "pass"
        and sum(len(v) for v in blocks.values()) == K.dim
        and pred["all_match"]
        and checks["membership_patterns"]["verdict"] == "pass"
    )
    _announce(
        3, "weight machinery", ok,
        f"{len(blocks)} nonempty weights over {K.dim} monomials",
    )


def test_criterion_4_structural_lemmas(K, cli_reports):
    _, payload = cli_reports[("verify-theorem", 1)]
    verdict, checks = _checks(payload)
    ok = (
        checks["center_trivial"]["verdict"] == "pass"
        and checks["center_trivial"]["dim"] == 0
        and checks["degree_minus1_centralizer_is_unit_line"]["verdict"] == "pass"
        and checks["degree_minus1_centralizer_is_unit_line"]["dim"] == 1
        and checks["generation_closure"]["verdict"] == "pass"
        and checks["generation_closure"]["generators"] == 15
        and checks["simplicity_probes"]["verdict"] == "pass"
        and checks["simplicity_probes"]["probes"] == 20
    )
    _announce(4, "structural lemmas", ok)


def test_criterion_5_solver_oracle_equivalence(cli_reports):
    code, payload = cli_reports[("selftest", 1)]
    verdict, checks = _checks(payload)
    ok = code == 0 and verdict == "pass"
    for alg in oracle_corpus():
        for g in (0, 1):
            name = f"oracle_equivalence_{alg.name}_z2_{g}"
            ok = ok and checks[name]["verdict"] == "pass"
    ok = ok and checks["sl2_reference_dims"]["der_dim"] == 3
    ok = ok and checks["sl2_reference_dims"]["bder_dim"] == 1
    _announce(5, "solver oracle equivalence", ok)


def test_criterion_6_theorem_at_desk_scale(K, cli_reports):
    code, payload = cli_reports[("verify-theorem", 1)]
    verdict, checks = _checks(payload)
    thm = checks["biderivations_are_inner"]
    ok = (
        code == 0
        and verdict == "pass"
        and thm["verdict"] == "pass"
        and thm["dim_even"] == 1
        and thm["dim_odd"] == 0
        and thm["residual_zero"] is True
        and thm["unsolved_blocks"] == []
        and thm["oversized_blocks"] == []
    )
    _announce(
        6, "theorem at desk scale", ok,
        f"dim even {thm['dim_even']}, odd {thm['dim_odd']}, scale {thm['scale']}",
    )
    # the solution vector equals scale * bracket exactly (residual_zero
    # above); that table must survive the identity checker on sampled
    # global tuples, including the derived quadruple and pair identities
    table = inner_biderivation(K, int(thm["scale"]))
    rep = check_biderivation(
        K, table, strategy="sampled", samples=100_000, seed=SEED, simple=True
    )
    assert rep["verdict"] == "pass", rep
    lam, residual = project_inner(K, table)
    assert lam == int(thm["scale"]) and residual.is_zero()


def test_criterion_7_lemma_waypoints(cli_reports):
    _, payload = cli_reports[("verify-theorem", 1)]
    verdict, checks = _checks(payload)
    way = checks["proportionality_waypoints"]
    ok = (
        way["verdict"] == "pass"
        and way["torus_vs_center_powers"]["failures"] == 0
        and way["torus_vs_center_powers"]["checked"] == 10
        and way["torus_vs_pure_powers"]["failures"] == 0
        and way["torus_vs_odd_variables"]["failures"] == 0
        and way["unit_vs_center_powers"]["failures"] == 0
        and way["global_lambda"]["consistent"] is True
    )
    _announce(
        7, "lemma waypoints", ok,
        f"global lambda {way['global_lambda']['lambda']}",
    )


def test_criterion_8_determinism_across_workers(cli_reports):
    mismatched = [
        command
        for command in COMMANDS
        if cli_reports[(command, 1)][1] != cli_reports[(command, 2)][1]
    ]
    ok = not mismatched
    _announce(8, "determinism across workers", ok, f"mismatched: {mismatched}")


def test_default_reports_match_golden(cli_reports):
    # tests/golden/ holds the four default reports as committed; a change
    # that alters any field of them must update these files deliberately
    changed = [
        (command, workers)
        for (command, workers), (_, payload) in sorted(cli_reports.items())
        if payload != (GOLDEN / f"{command}.json").read_bytes()
    ]
    assert not changed, f"reports differ from tests/golden/: {changed}"
