import pytest

from subring_census.verify import (
    SUITES,
    VerifyScope,
    compute_constant,
    run_verify,
    suite_identities,
    suite_rpstar,
)


def test_identities_suite_all_pass():
    results = suite_identities(VerifyScope())
    assert results, "identity suite must produce checks"
    failing = [r.check_id for r in results if not r.passed]
    assert failing == []


def test_rpstar_suite_small():
    results = suite_rpstar(VerifyScope(small=True))
    assert all(r.passed for r in results)
    assert {r.check_id for r in results} == {
        "rpstar/n=3/p=2",
        "rpstar/n=3/p=3",
        "rpstar/n=4/p=2",
        "rpstar/n=4/p=3",
    }


def test_run_verify_small_selected_suites():
    scope = VerifyScope(suites=("cocyclic", "rpstar"), small=True)
    results = run_verify(scope)
    assert all(r.passed for r in results)
    ids = [r.check_id for r in results]
    assert len(ids) == len(set(ids))
    assert any(i.startswith("cocyclic/") for i in ids)


def test_small_corank_formula_suite_passes():
    # the reduced grids stay within the rank range where the closed forms
    # agree with enumeration
    scope = VerifyScope(suites=("corank-formulas",), small=True)
    results = run_verify(scope)
    assert all(r.passed for r in results)


def test_full_corank_formula_suite_reports_refutations():
    scope = VerifyScope(suites=("corank-formulas",), small=False)
    results = run_verify(scope)
    by_id = {r.check_id: r for r in results}
    # the closed forms hold through rank 4 ...
    assert by_id["corank2-closed-form/n=3/p=2"].passed
    assert by_id["corank2-closed-form/n=4/p=3"].passed
    assert by_id["corank3-closed-form/n=4/p=2"].passed
    # ... and are refuted by enumeration from rank 5 on
    assert not by_id["corank2-closed-form/n=5/p=2"].passed
    assert not by_id["corank3-closed-form/n=6/p=3"].passed
    # informational erratum evidence
    assert by_id["corank2-variant-flag"].passed
    assert by_id["corank3-weight-flag"].passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="nosuch"):
        run_verify(VerifyScope(suites=("rpstar", "nosuch")))


def test_unknown_constant():
    with pytest.raises(KeyError):
        compute_constant("nope")


def test_suite_registry_names():
    assert set(SUITES) == {
        "cocyclic",
        "corank-formulas",
        "local-factors",
        "cotype-z4",
        "identities",
        "invariants",
        "oracle",
        "constants",
        "rpstar",
        "stretch",
    }
