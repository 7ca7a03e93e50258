import json

import pytest

from subring_census import counting
from subring_census.counting import (
    CensusValidationError,
    CountLedger,
    MissingCensusError,
    corank2_formula_coefficients,
    corank3_formula_coefficients,
    formula_h,
    lattice_prime_power_count,
    multiplicative_extend,
    multiplicative_table,
    sandwich_bounds,
    smallest_prime_factors,
)


@pytest.fixture(scope="module")
def ledger():
    return CountLedger()


class TestCensus:
    def test_trivial_index(self, ledger):
        r = ledger.census(4, 3, 0)
        assert r.f_count == 1
        assert r.cotype_counts == {(1, 1, 1): 1}
        assert r.h_counts == (1, 0, 0, 0)

    def test_index_p(self, ledger):
        r = ledger.census(4, 2, 1)
        assert r.f_count == 6
        assert r.h_counts == (0, 6, 0, 0)
        assert r.cotype_counts == {(2, 1, 1): 6}

    def test_full_record(self, ledger):
        r = ledger.census(4, 2, 2)
        assert r.f_count == 13
        assert r.h_counts == (0, 6, 7, 0)
        assert r.cotype_counts == {(4, 1, 1): 6, (2, 2, 1): 7}
        assert r.g_count == 0

    def test_g_count_matches_series(self, ledger):
        from subring_census.catalog import irreducible_count

        # g is read off h[n-1]: irreducible means corank n-1
        for n, primes in ((3, (2, 3, 5)), (4, (2, 3))):
            for p in primes:
                for e in range(7):
                    r = ledger.census(n, p, e)
                    assert r.g_count == r.h_counts[n - 1] == irreducible_count(n, p, e)

    def test_h_tilde(self, ledger):
        r = ledger.census(4, 2, 2)
        assert r.h_tilde(1) == 6
        assert r.h_tilde(3) == r.f_count

    def test_corank_count_consistent_with_census(self, ledger):
        fresh = CountLedger()
        filtered = fresh.corank_count(4, 2, 3, 2)
        assert filtered == ledger.census(4, 2, 3).h_counts[2]

    def test_checksum_round_trip(self, ledger):
        r = ledger.census(3, 2, 2)
        again = type(r).from_payload(json.loads(json.dumps(r.payload())))
        assert again.checksum() == r.checksum()
        assert again.counts_equal(r)


class TestLedgerPersistence:
    def test_cache_and_reload(self, tmp_path):
        led = CountLedger(tmp_path)
        r1 = led.census(3, 2, 3)
        led2 = CountLedger(tmp_path)
        r2 = led2.cached(3, 2, 3)
        assert r2 is not None and r2.counts_equal(r1)
        files = list(tmp_path.glob("census-n3-p2.json"))
        assert len(files) == 1

    def test_recheck_passes_on_fresh_cache(self, tmp_path):
        led = CountLedger(tmp_path)
        led.census(3, 2, 2)
        led.census(3, 2, 2, recheck=True)

    def test_corrupted_checksum_detected(self, tmp_path):
        led = CountLedger(tmp_path)
        led.census(3, 2, 1)
        path = tmp_path / "census-n3-p2.json"
        doc = json.loads(path.read_text())
        doc["records"][0]["record"]["f"] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            CountLedger(tmp_path).cached(3, 2, 1)

    def test_stale_cache_recheck_mismatch(self, tmp_path):
        led = CountLedger(tmp_path)
        record = led.census(3, 2, 1)
        doc = {
            "schema": 1,
            "n": 3,
            "p": 2,
            "records": [],
        }
        tampered = record.payload()
        tampered["f"] = 99
        tampered["h"] = [0, 99, 0]
        tampered["cotypes"] = {"2,1": 99}
        bad = type(record).from_payload(tampered)
        doc["records"] = [{"record": bad.payload(), "checksum": bad.checksum()}]
        (tmp_path / "census-n3-p2.json").write_text(json.dumps(doc))
        fresh = CountLedger(tmp_path)
        with pytest.raises(CensusValidationError):
            fresh.census(3, 2, 1, recheck=True)


    def test_corank_count_reads_records_on_disk(self, tmp_path, monkeypatch):
        expected = CountLedger(tmp_path).census(4, 2, 3).h_counts[2]

        def no_enumeration(*args, **kwargs):
            raise AssertionError("corank_count enumerated a record that is on disk")

        monkeypatch.setattr(counting, "enumerate_subrings", no_enumeration)
        assert CountLedger(tmp_path).corank_count(4, 2, 3, 2) == expected

    def test_record_of_another_engine_is_a_miss(self, tmp_path):
        record = CountLedger(tmp_path).census(3, 2, 2)
        path = tmp_path / "census-n3-p2.json"
        payload = record.payload()
        payload["engine"] = "0.0.0-stale"
        stale = type(record).from_payload(payload)
        path.write_text(json.dumps({
            "schema": 1, "n": 3, "p": 2,
            "records": [{"record": stale.payload(), "checksum": stale.checksum()}],
        }))
        fresh = CountLedger(tmp_path)
        assert fresh.cached(3, 2, 2) is None
        with pytest.raises(MissingCensusError) as err:
            multiplicative_extend(3, 4, fresh, compute=False)
        assert (3, 2, 2) in err.value.missing
        again = fresh.census(3, 2, 2)
        assert again.engine_version == record.engine_version and again.counts_equal(record)
        on_disk = json.loads(path.read_text())["records"]
        assert [item["record"]["engine"] for item in on_disk] == [record.engine_version]
        assert CountLedger(tmp_path).cached(3, 2, 2).counts_equal(record)

    def test_record_of_other_rules_is_a_miss(self, tmp_path):
        record = CountLedger(tmp_path).census(3, 2, 1)
        payload = record.payload()
        payload["rules"] = "rules-v1:00000"
        other = type(record).from_payload(payload)
        (tmp_path / "census-n3-p2.json").write_text(json.dumps({
            "schema": 1, "n": 3, "p": 2,
            "records": [{"record": other.payload(), "checksum": other.checksum()}],
        }))
        assert CountLedger(tmp_path).cached(3, 2, 1) is None


class TestClosedForms:
    def test_cocyclic(self):
        assert formula_h(5, 1, 2, 3) == 10
        assert formula_h(6, 1, 3, 6) == 15

    def test_corank2(self):
        assert formula_h(4, 2, 2, 2) == 7
        assert formula_h(4, 2, 3, 2) == 7
        a, b = corank2_formula_coefficients(4)
        assert (a, b) == (4, 3)
        assert corank2_formula_coefficients(5) == (13, 12)

    def test_corank3(self):
        assert formula_h(4, 3, 2, 3) == 1
        c, d = corank3_formula_coefficients(4)
        assert (c, d) == (1, 0)
        assert corank3_formula_coefficients(6) == (25, 65)

    def test_corank2_beyond_rank4(self):
        # h_{n,2}(p^e) = C(n,3) g_3(p^e) + 3 C(n,4) (e-1), worked by hand with
        # g_3(p^2) = 1 and g_3(p^3) = p + 1
        assert formula_h(5, 2, 2, 3) == 10 * 3 + 15 * 2 == 60
        assert formula_h(5, 2, 3, 3) == 10 * 4 + 15 * 2 == 70
        assert formula_h(6, 2, 3, 2) == 20 * 1 + 45 * 1 == 65

    def test_corank3_beyond_rank4(self):
        # h_{n,3}(p^e) = C(n,4) g_4(p^e) + 10 C(n,5) sum_{j=2}^{e-1} g_3(p^j)
        #              + 15 C(n,6) C(e-1,2), worked by hand with g_4(p^3) = 1,
        # g_4(2^4) = 7, g_3(2^2) = 1 and g_3(2^3) = 3
        assert formula_h(5, 3, 2, 3) == 5 * 1 + 10 * 1 == 15
        assert formula_h(6, 3, 2, 3) == 15 * 1 + 60 * 1 + 15 * 1 == 90
        assert formula_h(6, 3, 2, 4) == 15 * 7 + 60 * (1 + 3) + 15 * 3 == 390

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            formula_h(4, 4, 2, 4)
        with pytest.raises(ValueError):
            formula_h(2, 2, 2, 3)
        with pytest.raises(ValueError):
            formula_h(4, 2, 2, 1)
        with pytest.raises(ValueError):
            formula_h(4, 3, 2, 2)

    def test_closed_forms_match_enumeration_through_rank4(self, ledger):
        # formula_h and the displayed forms coincide for n <= 4, and both agree
        # with enumeration here; the corank-formulas suite records that the
        # displayed forms are refuted from n = 5 on
        for p in (2, 3):
            for e in range(2, 5):
                assert ledger.corank_count(4, p, e, 2) == formula_h(4, 2, p, e)
            for e in range(3, 5):
                assert ledger.corank_count(4, p, e, 3) == formula_h(4, 3, p, e)

    def test_sandwich(self, ledger):
        for (n, k, p, e) in [(4, 2, 2, 4), (5, 2, 2, 4), (6, 3, 2, 4), (5, 1, 3, 2)]:
            lo, hi = sandwich_bounds(n, k, p, e)
            h = ledger.corank_count(n, p, e, k)
            assert lo <= h <= hi


class TestMultiplicative:
    def test_spf(self):
        spf = smallest_prime_factors(10)
        assert spf[9] == 3 and spf[10] == 2 and spf[7] == 7

    def test_table(self):
        tab = multiplicative_table(12, lambda p, e: p**e)
        assert tab[1:] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]

    def test_missing_listed(self):
        def source(p, e):
            if p == 3:
                raise KeyError
            return 1

        with pytest.raises(MissingCensusError) as err:
            multiplicative_table(10, source)
        assert (0, 3, 1) in err.value.missing and (0, 3, 2) in err.value.missing

    def test_extend_rank2(self, ledger):
        t = multiplicative_extend(2, 20, ledger)
        assert t.f[1:] == [1] * 20

    def test_extend_rank3(self, ledger):
        t = multiplicative_extend(3, 12, ledger, coranks=(1, 2))
        assert t.f[6] == 9          # 3 * 3, multiplicativity
        assert t.f[12] == 12        # f(4) f(3) = 4 * 3
        assert t.h_tilde[2][8] == t.f[8]
        assert t.h_tilde[1][4] == 3  # corank <= 1 subrings of index 4
        assert t.corank_partial_sum(2, 12) == t.subring_partial_sum(13)

    def test_extend_requires_data(self, tmp_path):
        led = CountLedger(tmp_path)
        with pytest.raises(MissingCensusError) as err:
            multiplicative_extend(3, 6, led, compute=False)
        assert len(err.value.missing) > 0

    def test_lattice_counts(self, ledger):
        t = multiplicative_extend(2, 10, ledger)
        assert t.lattice[1:] == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]
        assert t.lattice_partial_sum(10) == 69

    def test_lattice_prime_power(self):
        # rank 2, determinant p^e: 1 + p + ... + p^e Hermite forms
        assert lattice_prime_power_count(2, 3, 2) == 13
        assert lattice_prime_power_count(1, 5, 4) == 1
