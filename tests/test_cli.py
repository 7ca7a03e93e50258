import hashlib
import json
import re
from dataclasses import fields

import pytest

from subring_census.catalog import irreducible_count
from subring_census.cli import (
    CACHE_ENV_VAR,
    RULE_NAMES,
    _rules,
    build_parser,
    config_from_args,
    main,
)
from subring_census.counting import CensusRecord
from subring_census.enumeration import ENGINE_VERSION, PruneRuleSet
from subring_census.hnf import load_matrices


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["census", "-n", "3"])  # missing required flags
    assert err.value.code == 2


def test_census_json(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "census", "-n", "4", "-p", "2", "-e", "1", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"][0]["f"] == 6
    assert doc["entries"][0]["cotypes"] == {"2,1,1": 6}
    assert doc["config"]["command"] == "census"


def test_census_text_format(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "census", "-n", "3", "-p", "2", "-e", "0:2",
        "--cache-dir", str(tmp_path), "--format", "text",
    )
    assert code == 0
    assert "f=1" in out and "f=3" in out and "f=4" in out


def test_census_progress_names_each_enumeration(capsys, tmp_path):
    # a miss enumerates one irreducible block per (m, j); each series of
    # progress lines names its block, and the node count runs on across them
    argv = ["census", "-n", "4", "-p", "2", "-e", "6", "--cache-dir"]
    code, quiet_out, _ = run_cli(capsys, *argv, str(tmp_path / "quiet"))
    assert code == 0
    argv.append(str(tmp_path / "loud"))
    code, out, err = run_cli(capsys, *argv, "--progress")
    assert code == 0 and json.loads(out)["entries"] == json.loads(quiet_out)["entries"]
    line = re.compile(r"Z\^(\d+) at 2\^(\d+): diagonals (\d+)/(\d+), (\d+) nodes")
    found = [tuple(map(int, line.fullmatch(text).groups())) for text in err.splitlines()]
    series = {}
    for m, j, done, total, _ in found:
        series.setdefault((m, j), []).append((done, total))
    assert sorted(series) == [(2, j) for j in range(1, 7)] + [(3, 6), (4, 6)]
    for runs in series.values():
        assert runs == [(k, len(runs)) for k in range(1, len(runs) + 1)]
    assert len(series[(3, 6)]) == 5 and len(series[(4, 6)]) == 10
    nodes = [n for *_, n in found]
    assert nodes == sorted(set(nodes))
    # a hit enumerates nothing, so it reports no progress
    code, _, err = run_cli(capsys, *argv, "--progress")
    assert code == 0 and err == ""


def checksummed_line(**changes):
    """A log line of the (3, 2, 1) record with changed fields, checksummed
    over json's compact sorted-key bytes whatever their types."""
    payload = {
        "n": 3, "p": 2, "e": 1, "f": 3, "g": 0, "h": [0, 3, 0], "cotypes": {"2,1": 3},
        "mode": "pruned", "rules": PruneRuleSet().fingerprint(), "engine": ENGINE_VERSION,
        **changes,
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return json.dumps({"checksum": hashlib.sha256(body).hexdigest(), "record": payload})


@pytest.mark.parametrize(
    "bad",
    ["[1, 2]", "{truncated json", '{"checksum": "00"}']
    + [
        pytest.param(checksummed_line(**changes), id=name)
        for name, changes in [
            ("h-strings", {"h": ["a", "b", "c"]}),
            ("f-float", {"f": 3.0}),
            ("g-999", {"g": 999}),
            ("h-too-long", {"h": [0, 3, 0, 0]}),
            ("key-too-long", {"cotypes": {"2,1,1": 3}}),
            ("another-n", {"n": 4, "h": [0, 3, 0, 0], "cotypes": {"2,1,1": 3}}),
        ]
    ],
)
def test_census_over_corrupted_ledger_fails_cleanly(capsys, tmp_path, bad):
    code, _, _ = run_cli(
        capsys, "census", "-n", "3", "-p", "2", "-e", "1", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    with (tmp_path / "census-n3.jsonl").open("a") as fh:
        fh.write(bad + "\n")
    code, out, err = run_cli(
        capsys, "census", "-n", "3", "-p", "2", "-e", "0:2", "--cache-dir", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: ") and "census-n3.jsonl:2: " in err


def test_stale_recheck_fails_cleanly(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "census", "-n", "3", "-p", "2", "-e", "1", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    path = tmp_path / "census-n3.jsonl"
    item = json.loads(path.read_text())
    # counts that validate and carry a valid checksum, but are wrong
    payload = dict(item["record"], f=99, h=[0, 99, 0], cotypes={"2,1": 99})
    stale = CensusRecord.from_payload(payload)
    path.write_text(json.dumps({"checksum": stale.checksum(), "record": payload}) + "\n")
    code, out, err = run_cli(
        capsys, "census", "-n", "3", "-p", "2", "-e", "1", "--recheck",
        "--cache-dir", str(tmp_path),
    )
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: ") and "cache is stale" in err


def test_enumerate_dump_round_trip(capsys, tmp_path):
    dump = tmp_path / "matrices.txt"
    code, out, _ = run_cli(
        capsys, "enumerate", "-n", "3", "-p", "2", "-e", "2", "--dump", str(dump)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"][0]["count"] == 4
    with open(dump) as fh:
        loaded = load_matrices(fh)
    assert len(loaded) == 4
    assert all(p == 2 for _, p in loaded)


def test_enumerate_irreducible_is_top_corank(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "4", "-p", "2", "-e", "0:6", "--irreducible")
    assert code == 0
    irreducible = json.loads(out)
    code, out, _ = run_cli(capsys, "enumerate", "-n", "4", "-p", "2", "-e", "0:6", "--corank", "3")
    assert code == 0
    corank = json.loads(out)
    assert irreducible["entries"] == corank["entries"]
    assert [r["count"] for r in irreducible["entries"]] == [
        irreducible_count(4, 2, e) for e in range(7)
    ]
    assert irreducible["config"]["irreducible"] is True
    assert irreducible["config"]["corank"] is None
    code, _, _ = run_cli(
        capsys, "enumerate", "-n", "4", "-p", "2", "-e", "3", "--irreducible", "--corank", "3"
    )
    assert code == 0


def test_enumerate_irreducible_with_other_corank_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "-n", "4", "-p", "2", "-e", "3", "--irreducible", "--corank", "2"
    )
    assert code == 2
    assert out == ""
    assert "--irreducible" in err


def test_rule_names_cover_every_rule():
    assert sorted(RULE_NAMES.values()) == sorted(f.name for f in fields(PruneRuleSet))
    args = build_parser().parse_args(
        ["enumerate", "-n", "3", "-p", "2", "-e", "1", "--disable-rule", "last-column"]
    )
    assert _rules(config_from_args(args)) == PruneRuleSet(last_column=False)


def test_enumerate_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "-n", "4", "-p", "3", "-e", "4", "--mode", "naive",
        "--budget", "50",
    )
    assert code == 3
    assert "budget" in err


def test_series_command(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--id", "irreducible_z3", "--bounds", "4,0,0", "--at-p", "2"
    )
    assert code == 0
    doc = json.loads(out)
    values = {e["x"]: e["value"] for e in doc["entries"]}
    assert values == {2: 1, 3: 3, 4: 7}


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--id", "cotype_z2", "--threads", "2"],
        ["series", "--id", "cotype_z2", "--budget", "50"],
        ["constants", "--id", "zeta_2", "--progress"],
        ["verify", "--suite", "rpstar", "--progress"],
    ],
)
def test_flags_a_command_ignores_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--id", "cotype_z4", "--bounds", "a,b,c"],
        ["series", "--id", "cotype_z4", "--bounds", "1,2"],
        ["enumerate", "-n", "3", "-p", "2", "-e", "3:1"],
        ["census", "-n", "3", "-p", "2", "-e", "3:1"],
        ["census", "-n", "3", "-p", "2", "-e", "1:x"],
        ["enumerate", "-n", "3", "-p", "2", "-e", "x"],
    ],
)
def test_malformed_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("subring-census")


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--id", "cotype_z4", "--total", "-1"],
        ["series", "--id", "cotype_z4", "--bounds", "-1,0,0"],
        ["series", "--id", "cotype_z4", "--bounds=-1,0,0"],
        ["census", "-n", "0", "-p", "2", "-e", "1"],
        ["census", "-n", "3", "-p", "2", "-e", "-1"],
        ["census", "-n", "3", "-p", "4", "-e", "0"],
        ["verify", "--suite", "rpstar", "--suite", "nosuch"],
        ["verify", "--suite", "cotype-z4", "--max-index", "64"],
    ],
)
def test_invalid_values_exit_2_with_one_line(capsys, tmp_path, argv):
    if argv[0] == "census":
        argv = argv + ["--cache-dir", str(tmp_path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "case",
    [
        "out-in-missing-dir",
        "out-is-dir",
        "dump-in-missing-dir",
        "cache-is-file",
        "env-cache-is-file",
    ],
)
def test_unusable_paths_exit_2_with_one_line(capsys, tmp_path, monkeypatch, case):
    missing = tmp_path / "missing"
    cache = tmp_path / "cache"
    argv = ["census", "-n", "3", "-p", "2", "-e", "1", "--cache-dir", str(cache)]
    if case == "out-in-missing-dir":
        argv += ["--out", str(missing / "report.json")]
    elif case == "out-is-dir":
        (tmp_path / "report").mkdir()
        argv += ["--out", str(tmp_path / "report")]
    elif case == "dump-in-missing-dir":
        argv = ["enumerate", "-n", "3", "-p", "2", "-e", "1", "--dump", str(missing / "m.txt")]
    else:
        cache.write_text("")
        if case == "env-cache-is-file":
            argv = argv[:-2]
            monkeypatch.setenv(CACHE_ENV_VAR, str(cache))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert list(tmp_path.rglob("*.tmp")) == []


def test_series_needs_n(capsys):
    code, _, err = run_cli(capsys, "series", "--id", "cocyclic_local")
    assert code == 2


def test_constants_single(capsys):
    code, out, _ = run_cli(capsys, "constants", "--id", "zeta_2")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["entries"][0]["value"] - 1.6449340668) < 1e-6


def test_verify_identities_suite(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "identities", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == len(doc["checks"])


def test_verify_csv_format(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "rpstar", "--small",
        "--cache-dir", str(tmp_path), "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("description,")


def test_reports_byte_identical_modulo_timestamp(tmp_path, capsys):
    out = tmp_path / "report.json"
    texts = []
    for _ in range(2):
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "rpstar", "--small",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
        )
        assert code == 0
        texts.append(out.read_text())
    docs = [json.loads(t) for t in texts]
    stamps = [d.pop("generated_at") for d in docs]
    assert docs[0] == docs[1]
    # and byte-identical once the timestamp lines are dropped
    strip = lambda t, s: t.replace(s, "TS")
    assert strip(texts[0], stamps[0]) == strip(texts[1], stamps[1])


def test_config_round_trip():
    parser = build_parser()
    args = parser.parse_args(
        ["enumerate", "-n", "4", "-p", "3", "-e", "1:3", "--corank", "2",
         "--disable-rule", "last-column", "--threads", "2"]
    )
    cfg = config_from_args(args)
    norm = cfg.normalized()
    assert norm["n"] == 4 and norm["p"] == 3 and norm["e_range"] == [1, 3]
    assert norm["disabled_rules"] == ["last-column"]
    # normalization is stable under re-normalization
    assert norm == json.loads(json.dumps(norm))


def test_verify_prime_and_index_have_their_own_keys(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "cotype-z4", "-p", "2", "--max-index", "16",
        "--cache-dir", str(tmp_path),
    )
    doc = json.loads(out)
    assert code == 0
    assert (doc["config"]["prime"], doc["config"]["max_index"]) == (2, 16)
    assert doc["config"]["n"] is None and doc["config"]["e_range"] is None
    assert [c["id"] for c in doc["checks"]] == ["cotype-z4/chain-support", "cotype-z4/p=2"]
    assert "2^4" in doc["checks"][1]["description"]


def test_verify_all_small_touches_every_suite(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--small", "--cache-dir", str(tmp_path)
    )
    doc = json.loads(out)
    ids = [c["id"] for c in doc["checks"]]
    assert len(ids) == len(set(ids))
    prefixes = {i.split("/")[0] for i in ids}
    assert {
        "cocyclic", "corank2-closed-form", "corank3-closed-form", "local-factor",
        "cotype-z4", "identity", "invariants", "oracle", "constants", "rpstar",
        "stretch",
    } <= prefixes
    # the reduced grids stay inside enumeration-confirmed territory
    assert doc["summary"]["failed"] == 0
    assert code == 0
