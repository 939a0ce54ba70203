import itertools
import random
import signal
from contextlib import contextmanager

import pytest

from contactk.contact import StructureConstantAlgebra, jacobi_check
from contactk.derblocks import anchor_indices, derivation_blocks
from contactk.derlab import (
    BilinearTable,
    SolveOptions,
    biderivation_space,
    check_biderivation,
    derivation_signs,
    first_slot_defect,
    first_slot_signs,
    inner_biderivation,
    law_defect,
    law_rows,
    make_abelian,
    make_heisenberg,
    make_sl2,
    make_super_heisenberg,
    oracle_corpus,
    project_inner,
    raw_derivation_map,
    second_slot_defect,
    spans_equal,
    superderivation_space,
    verify_theorem,
)
from contactk.errors import ResourceLimitError


def test_corpus_satisfies_jacobi_exhaustively():
    for alg in oracle_corpus():
        rep = jacobi_check(alg, strategy="exhaustive")
        assert rep["verdict"] == "pass", alg.name


def test_jacobi_check_flags_corruption():
    # scale one structure constant of sl2: Jacobi must fail with a witness
    sl2 = make_sl2()
    bad = StructureConstantAlgebra(
        "sl2-corrupt", 5, sl2.parity, sl2.degree, sl2.weight,
        {(0, 1): ((0, 4),), (0, 2): ((1, 1),), (1, 2): ((2, 3),)},
    )
    rep = jacobi_check(bad, strategy="exhaustive")
    assert rep["verdict"] == "fail"
    assert rep["jacobi"]["witness"] is not None


def test_superderivation_dims():
    assert len(superderivation_space(make_abelian(), 0)) == 4
    assert len(superderivation_space(make_sl2(), 0)) == 3
    assert len(superderivation_space(make_heisenberg(), 0)) == 6


def test_superderivation_cap():
    with pytest.raises(ResourceLimitError):
        superderivation_space(make_sl2(), 0, unknown_cap=2)


def test_inner_biderivation_passes_checks():
    sl2 = make_sl2()
    for lam in range(5):
        phi = inner_biderivation(sl2, lam)
        rep = check_biderivation(sl2, phi, strategy="exhaustive", simple=True)
        assert rep["verdict"] == "pass", (lam, rep)


def test_project_inner_fixed_points_exhaustive():
    sl2 = make_sl2()
    for lam in range(5):
        got, residual = project_inner(sl2, inner_biderivation(sl2, lam))
        assert got == lam
        assert residual.is_zero()


def test_project_inner_of_zero_table():
    sl2 = make_sl2()
    lam, residual = project_inner(sl2, BilinearTable(sl2, 0))
    assert lam == 0 and residual.is_zero()


def test_project_inner_reports_nonzero_residual():
    # a table vanishing on the first bracket-support position but nonzero
    # elsewhere projects to lambda 0 with a nonzero residual
    heis = make_heisenberg()
    phi = BilinearTable(heis, 0)
    phi.set_entry(0, 2, 2, 1)
    lam, residual = project_inner(heis, phi)
    assert lam == 0
    assert not residual.is_zero()


def test_biderivation_full_dims():
    assert biderivation_space(make_abelian(), SolveOptions(mode="full")).dimension == 2
    assert biderivation_space(make_abelian(), SolveOptions(mode="full", z2_degree=1)).dimension == 0
    res = biderivation_space(make_sl2(), SolveOptions(mode="full"))
    assert res.dimension == 1
    lam, residual = project_inner(make_sl2(), res.tables[0])
    assert lam != 0 and residual.is_zero()


def test_biderivation_oracle_equivalence_full_vs_blocked():
    for alg in oracle_corpus():
        for g in (0, 1):
            full = biderivation_space(alg, SolveOptions(mode="full", z2_degree=g))
            blocked = biderivation_space(alg, SolveOptions(mode="blocked", z2_degree=g))
            assert full.dimension == blocked.dimension, (alg.name, g)
            assert spans_equal(alg, g, full.tables, blocked.tables), (alg.name, g)


def test_blocked_tables_pass_both_identities_exhaustively():
    for alg in oracle_corpus():
        for g in (0, 1):
            res = biderivation_space(alg, SolveOptions(mode="blocked", z2_degree=g))
            for t in res.tables:
                rep = check_biderivation(alg, t, strategy="exhaustive")
                assert rep["verdict"] == "pass", (alg.name, g)


def test_random_skew_table_fails_derivation_identities():
    sl2 = make_sl2()
    rng = random.Random(7)
    found_invalid = False
    for _ in range(20):
        phi = BilinearTable(sl2, 0)
        for i in range(3):
            for j in range(i, 3):
                if i == j:
                    continue
                for k in range(3):
                    phi.set_entry(i, j, k, rng.randrange(5))
        if phi.is_zero():
            continue
        lam, residual = project_inner(sl2, phi)
        if residual.is_zero():
            continue  # accidentally inner
        found_invalid = True
        bad = any(
            second_slot_defect(phi, a, b, c) or first_slot_defect(phi, a, b, c)
            for a, b, c in itertools.product(range(3), repeat=3)
        )
        assert bad
    assert found_invalid


def test_super_heisenberg_odd_sector_nontrivial():
    sh = make_super_heisenberg()
    res0 = biderivation_space(sh, SolveOptions(mode="full", z2_degree=0))
    res1 = biderivation_space(sh, SolveOptions(mode="full", z2_degree=1))
    assert res0.dimension == 3
    assert res1.dimension == 2
    for t in res0.tables + res1.tables:
        rep = check_biderivation(sh, t, strategy="exhaustive")
        assert rep["verdict"] == "pass"


def test_verify_theorem_sl2():
    rep = verify_theorem(make_sl2())
    assert rep["verdict"] == "verified"
    assert rep["dim_bder_even"] == 1
    assert rep["dim_bder_odd"] == 0
    assert rep["residual_zero"]


def test_verify_theorem_abelian_negative_control():
    rep = verify_theorem(make_abelian())
    assert rep["verdict"] == "not inner-only"
    assert rep["dim_bder_even"] == 2


@contextmanager
def _deadline(seconds):
    """Fail instead of hanging when the body runs past the deadline."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _random_map(alg, rng, parity):
    """A random linear map of the given parity: D(l) = {k: coefficient}."""
    return [
        {k: c for k in range(alg.dim)
         if alg.parity[k] == (alg.parity[l] + parity) & 1 and (c := rng.randrange(alg.p))}
        for l in range(alg.dim)
    ]


def test_law_rows_evaluate_like_law_defect():
    # law_rows builds the law as equations in the entries of D, law_defect
    # evaluates it on a known D: a row dotted with D's entries must equal
    # the defect at its target, for every sign pair the solvers use
    rng = random.Random(3)
    for alg in oracle_corpus():
        n, par = alg.dim, alg.parity
        cols = {(l, k): l * n + k for l in range(n) for k in range(n)}
        raw = raw_derivation_map(cols)
        for d in (0, 1):
            images = _random_map(alg, rng, d)
            vec = {cols[(l, k)]: c for l in range(n) for k, c in images[l].items()}
            for x, y in itertools.product(range(n), repeat=2):
                for signs in (derivation_signs(d, par[x]), first_slot_signs(d, par[x], par[y], 1)):
                    defect = law_defect(alg, x, y, images.__getitem__, *signs)
                    for k in range(n):
                        rows = law_rows(alg, x, y, [k], raw, *signs)
                        got = sum(c * vec.get(cc, 0) for row in rows for cc, c in row.items())
                        assert got % alg.p == defect.get(k, 0), (alg.name, d, x, y, k)


def test_scaffold_path_matches_full_mode_on_small_algebras():
    # force the large-algebra scaffold onto the corpus: spans must equal
    # full mode; algebras with a center cannot reach their floors
    expect = {
        ("sl2", 0): "exact", ("sl2", 1): "exact",
        ("superheis(2|1)", 0): "inconclusive", ("superheis(2|1)", 1): "inconclusive",
        ("heisenberg3", 0): "inconclusive", ("heisenberg3", 1): "exact",
    }
    for mk in (make_sl2, make_super_heisenberg, make_heisenberg):
        for g in (0, 1):
            alg = mk()
            full = biderivation_space(alg, SolveOptions(mode="full", z2_degree=g))
            scaffold = biderivation_space(
                alg, SolveOptions(mode="blocked", z2_degree=g, scaffold_threshold=0)
            )
            assert scaffold.status == expect[(alg.name, g)], (alg.name, g)
            assert spans_equal(alg, g, full.tables, scaffold.tables), (alg.name, g)


def test_scaffold_ends_when_no_pair_yields_an_equation():
    # the zero bracket gives the derivation law no equation at all: the
    # random pass must give up, and the verdict must not be "verified"
    alg = make_abelian()
    with _deadline(60):
        vecs, reports = derivation_blocks(alg, 0, 0, anchor_indices(alg))
        assert reports and all(r.status == "above_floor" and r.equations == 0 for r in reports)
        res = biderivation_space(alg, SolveOptions(mode="blocked", scaffold_threshold=0))
        assert res.status == "inconclusive"
        rep = verify_theorem(make_abelian(), SolveOptions(scaffold_threshold=0))
        assert rep["verdict"] != "verified"


def test_scaffold_cache_follows_the_batch_limits():
    opts = dict(mode="blocked", scaffold_threshold=0)
    alg = make_super_heisenberg()
    biderivation_space(alg, SolveOptions(**opts))
    for change in ({"max_batches": 0}, {"stable_batches": 1}, {"seed": 5}, {}):
        reused = biderivation_space(alg, SolveOptions(**opts, **change))
        fresh = biderivation_space(make_super_heisenberg(), SolveOptions(**opts, **change))
        assert reused.blocks == fresh.blocks, change
        assert reused.der_reports == fresh.der_reports, change
