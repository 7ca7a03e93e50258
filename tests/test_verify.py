import json

import pytest

from subring_census import verify
from subring_census.counting import CensusRecord, CountLedger
from subring_census.enumeration import NodeBudget
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


@pytest.mark.parametrize("name", list(SUITES))
def test_budget_exhaustion_skips_the_check_and_goes_on(name):
    results = run_verify(VerifyScope(suites=(name,), small=True, node_budget=20))
    ids = [r.check_id for r in results]
    assert ids and len(ids) == len(set(ids))
    assert all(r.note.startswith("budget exhausted") for r in results if r.skipped)


@pytest.mark.parametrize(
    "suites, small",
    [(("local-factors",), False), (("cocyclic", "corank-formulas", "invariants", "stretch"), True)],
)
def test_budget_bounds_each_check(monkeypatch, suites, small):
    # every search a check makes spends one budget of its own: a spy on each
    # census and enumeration call records which budget it was given
    limit = 400
    budgets: list[NodeBudget] = []
    calls = [0]

    def seen(budget):
        calls[0] += 1
        if not any(budget is b for b in budgets):
            budgets.append(budget)

    census, enumerate_subrings = CountLedger.census, verify.enumerate_subrings

    def spy_census(self, n, p, e, **kwargs):
        seen(kwargs["budget"])
        return census(self, n, p, e, **kwargs)

    def spy_enumerate(spec, budget):
        seen(budget)
        return enumerate_subrings(spec, budget)

    monkeypatch.setattr(CountLedger, "census", spy_census)
    monkeypatch.setattr(verify, "enumerate_subrings", spy_enumerate)
    results = run_verify(VerifyScope(suites=suites, small=small, node_budget=limit))
    skipped = [r for r in results if r.skipped]
    assert skipped and len(skipped) < len(results)
    assert all(b.limit == limit for b in budgets)
    # a check's searches stop at the node past the limit, which raised
    assert max(b.used for b in budgets) <= limit + 1
    assert sum(1 for b in budgets if b.used == limit + 1) == len(skipped)
    assert calls[0] > len(budgets)


def test_skipped_check_keeps_its_description():
    full = {r.check_id: r for r in run_verify(VerifyScope(suites=("stretch",), small=True))}
    tight = run_verify(VerifyScope(suites=("stretch",), small=True, node_budget=20))
    skipped = [r for r in tight if r.skipped]
    assert skipped
    for r in skipped:
        assert r.description == full[r.check_id].description
        assert (r.lhs, r.rhs, r.passed) == (None, None, True)


def test_cross_prime_left_out_when_a_prime_is_skipped():
    ledger = CountLedger()
    for e in range(7):  # the small grid's p = 2 cells, kept before the budget tightens
        ledger.census(4, 2, e)
    scope = VerifyScope(suites=("cotype-z4",), small=True, node_budget=20, ledger=ledger)
    by_id = {r.check_id: r for r in run_verify(scope)}
    assert by_id["cotype-z4/p=2"].passed and not by_id["cotype-z4/p=2"].skipped
    assert by_id["cotype-z4/p=3"].skipped
    assert "cotype-z4/cross-prime" not in by_id


def test_stale_census_fails_the_structural_check(tmp_path):
    CountLedger(tmp_path).census(3, 2, 1)
    path = tmp_path / "census-n3.jsonl"
    item = json.loads(path.read_text())
    # counts that validate and carry a valid checksum, but are wrong
    payload = dict(item["record"], f=99, h=[0, 99, 0], cotypes={"2,1": 99})
    stale = CensusRecord.from_payload(payload)
    path.write_text(json.dumps({"checksum": stale.checksum(), "record": payload}) + "\n")
    scope = VerifyScope(suites=("invariants",), small=True, ledger=CountLedger(tmp_path))
    by_id = {r.check_id: r for r in run_verify(scope)}
    structural = by_id["invariants/structural"]
    assert not structural.passed and not structural.skipped
    assert "cache is stale" in structural.lhs


@pytest.mark.parametrize("kwargs", [{"node_budget": 0}, {"node_budget": -5}])
def test_scope_rejects_bad_search_settings(kwargs):
    with pytest.raises(ValueError):
        VerifyScope(**kwargs)
