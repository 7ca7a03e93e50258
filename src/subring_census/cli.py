"""Batch command-line frontend: enumerate, census, series, constants, verify.

Runs are reproducible: each option parses straight into its `RunConfig`
field, the configuration is normalized and embedded in every report, reports
are written atomically, and identical configurations produce byte-identical
reports apart from the timestamp field.  Each command returns its report
body and exit code, and `main` alone writes the report.

Exit codes: 0 all requested checks pass; 1 at least one verification failure
(a failed check, or a census recheck that finds a stale cache); 2 usage
error, an invalid value, or a path that cannot be written or used as the
cache directory; 3 node budget exhausted in enumerate or census (verify
marks such a check skipped and goes on).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from .catalog import CATALOG_IDS, catalog
from .counting import CensusValidationError, CountLedger
from .enumeration import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    EnumSpec,
    NodeBudget,
    PruneRuleSet,
    enumerate_subrings,
)
from .hnf import dump_matrices
from .polynomials import expand
from .verify import (
    QUOTED_CONSTANTS,
    SUITES,
    VerifyScope,
    compute_constant,
    matches_quote,
    run_verify,
)

CACHE_ENV_VAR = "SUBRING_CENSUS_CACHE_DIR"

# --disable-rule name -> PruneRuleSet field
RULE_NAMES = {
    "zero-one": "zero_one_outside_support",
    "exactly-one-one": "exactly_one_one",
    "block-divisibility": "block_divisibility",
    "last-column": "last_column",
    "irreducible-block": "irreducible_block",
}


@dataclass
class RunConfig:
    """Normalized run configuration embedded in every report."""

    command: str
    n: int | None = None
    p: int | None = None
    e_range: tuple[int, int] | None = None
    mode: str = "pruned"
    corank: int | None = None
    irreducible: bool = False
    disabled_rules: tuple[str, ...] = ()
    suites: tuple[str, ...] = ()
    small: bool = False
    stretch: bool = False
    prime: int | None = None
    max_index: int | None = None
    recheck: bool = False
    node_budget: int = DEFAULT_NODE_BUDGET
    series_id: str | None = None
    series_n: int | None = None
    bounds: tuple[int, int, int] | None = None
    total: int | None = None
    at_p: int | None = None
    constant_ids: tuple[str, ...] = ()
    fmt: str = "json"
    cache_dir: str | None = None
    out: str | None = None
    dump: str | None = None
    progress: bool = False

    def normalized(self) -> dict:
        data = asdict(self)
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(data.items())}


def _jsonable(value):
    if isinstance(value, dict):
        return {
            (k if isinstance(k, str) else ",".join(str(x) for x in k)): _jsonable(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "numerator") and hasattr(value, "denominator") and not isinstance(value, int):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@contextlib.contextmanager
def _atomic_open(path: Path):
    """A text file that replaces path when the block completes; on any
    failure path is left as it was and the partial file is removed."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _emit(report: dict, cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif cfg.fmt == "csv":
        buf = io.StringIO()
        rows = report.get("checks") or report.get("entries") or []
        if rows:
            writer = csv.DictWriter(buf, fieldnames=sorted({k for r in rows for k in r}))
            writer.writeheader()
            for r in rows:
                writer.writerow({k: _flatten_csv(v) for k, v in r.items()})
        text = buf.getvalue()
    else:
        lines = []
        for r in report.get("checks", []):
            state = "skip" if r.get("skipped") else ("pass" if r["passed"] else "FAIL")
            lines.append(f"[{state}] {r['id']}: {r['description']}")
        for r in report.get("entries", []):
            lines.append(" ".join(f"{k}={v}" for k, v in r.items()))
        if "summary" in report:
            lines.append(str(report["summary"]))
        text = "\n".join(str(x) for x in lines) + "\n"
    if cfg.out:
        with _atomic_open(Path(cfg.out)) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten_csv(v):
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return v


def _report_skeleton(cfg: RunConfig) -> dict:
    return {
        "report_version": 1,
        "tool": {"name": "subring-census", "version": __version__},
        "config": cfg.normalized(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def _ledger(cfg: RunConfig) -> CountLedger:
    return CountLedger(cfg.cache_dir or os.environ.get(CACHE_ENV_VAR))


def _rules(cfg: RunConfig) -> PruneRuleSet:
    disabled = {RULE_NAMES[name] for name in cfg.disabled_rules}
    return PruneRuleSet(**{f.name: f.name not in disabled for f in fields(PruneRuleSet)})


def cmd_enumerate(cfg: RunConfig) -> tuple[dict, int]:
    assert cfg.n is not None and cfg.p is not None and cfg.e_range is not None
    corank = cfg.corank
    if cfg.irreducible:
        # irreducible means corank n-1
        if corank not in (None, cfg.n - 1):
            raise ValueError(f"--irreducible selects corank {cfg.n - 1}, not {corank}")
        corank = cfg.n - 1
    entries = []
    dump = _atomic_open(Path(cfg.dump)) if cfg.dump else contextlib.nullcontext()
    with dump as dump_fh:  # like --out, the file appears only after the last e
        for e in range(cfg.e_range[0], cfg.e_range[1] + 1):
            spec = EnumSpec(
                cfg.n, cfg.p, e, cfg.mode, corank, rules=_rules(cfg), progress=cfg.progress
            )
            # each e on a budget of its own
            matrices = enumerate_subrings(spec, NodeBudget(cfg.node_budget))
            if dump_fh:
                dump_matrices(dump_fh, matrices, cfg.p)
            entries.append({"n": cfg.n, "p": cfg.p, "e": e, "count": len(matrices)})
    return {"entries": entries}, 0


def cmd_census(cfg: RunConfig) -> tuple[dict, int]:
    assert cfg.n is not None and cfg.p is not None and cfg.e_range is not None
    ledger = _ledger(cfg)
    entries = []
    for e in range(cfg.e_range[0], cfg.e_range[1] + 1):
        record = ledger.census(
            cfg.n, cfg.p, e, recheck=cfg.recheck, progress=cfg.progress,
            budget=NodeBudget(cfg.node_budget),  # each e on a budget of its own
        )
        payload = record.payload()
        payload["checksum"] = record.checksum()
        entries.append(payload)
    return {"entries": entries}, 0


def cmd_series(cfg: RunConfig) -> tuple[dict, int]:
    assert cfg.series_id is not None
    f = catalog(cfg.series_id, cfg.series_n)
    bounds = cfg.bounds or (8, 0, 0)
    table = expand(f, bounds, cfg.total)
    entries = []
    for key in sorted(table.coefficients):
        poly = table.coefficients[key]
        entry = {"x": key[0], "y": key[1], "z": key[2], "coefficient": str(poly)}
        if cfg.at_p is not None:
            entry["value"] = poly.eval(p=cfg.at_p)
        entries.append(entry)
    return {"entries": entries}, 0


def cmd_constants(cfg: RunConfig) -> tuple[dict, int]:
    names = cfg.constant_ids or tuple(QUOTED_CONSTANTS)
    entries = []
    failures = 0
    for name in names:
        value = compute_constant(name)
        entry = {"id": name, "value": value.value, "bound": value.bound}
        if name in QUOTED_CONSTANTS:
            quoted, tol, kind = QUOTED_CONSTANTS[name]
            ok = matches_quote(name, value)
            entry.update({"quoted": quoted, "tolerance": tol, "kind": kind, "passed": ok})
            failures += 0 if ok else 1
        entries.append(entry)
    summary = {"total": len(entries), "failed": failures}
    return {"entries": entries, "summary": summary}, 1 if failures else 0


def cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    # VerifyScope's settings are RunConfig fields of the same name
    shared = {f.name: getattr(cfg, f.name) for f in fields(VerifyScope) if f.name != "ledger"}
    results = run_verify(VerifyScope(**shared, ledger=_ledger(cfg)))
    failures = sum(1 for r in results if not r.passed)
    summary = {
        "total": len(results),
        "passed": len(results) - failures,
        "failed": failures,
        "skipped": sum(1 for r in results if r.skipped),
    }
    checks = [_jsonable(r.to_payload()) for r in results]
    return {"checks": checks, "summary": summary}, 1 if failures else 0


def _parse_e_range(text: str) -> tuple[int, int]:
    parts = text.split(":", 1)
    try:
        lo, hi = int(parts[0]), int(parts[-1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected E or LO:HI integers, not {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty exponent range {text!r}: LO > HI")
    return lo, hi


def _parse_bounds(text: str) -> tuple[int, int, int]:
    try:
        x, y, z = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three integers X,Y,Z, not {text!r}") from None
    return x, y, z


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command; each option's dest is its RunConfig field,
    and an option left out is absent from the namespace, so it keeps the
    field's default."""
    parser = argparse.ArgumentParser(
        prog="subring-census",
        description="Exact enumeration and verification of finite-index subrings of Z^n.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    def common(sp, search=False, progress=False, cache=False):
        sp.add_argument("--format", dest="fmt", choices=("json", "csv", "text"))
        sp.add_argument("--out", help="write the report to this path (atomically)")
        if search:
            sp.add_argument(
                "--budget", dest="node_budget", type=int, metavar="BUDGET",
                help="search node budget",
            )
        if progress:
            sp.add_argument("--progress", action="store_true", help="diagonal progress on stderr")
        if cache:
            sp.add_argument(
                "--cache-dir",
                help=f"census cache directory (default ${CACHE_ENV_VAR} if set)",
            )

    def cell(sp):
        sp.add_argument("-n", type=int, required=True)
        sp.add_argument("-p", type=int, required=True)
        sp.add_argument(
            "-e", dest="e_range", type=_parse_e_range, required=True, metavar="E or LO:HI"
        )

    sp = command("enumerate", "stream subring matrices for one (n, p, e) range")
    cell(sp)
    sp.add_argument("--mode", choices=("naive", "pruned"))
    sp.add_argument("--corank", type=int)
    sp.add_argument("--irreducible", action="store_true")
    sp.add_argument("--disable-rule", dest="disabled_rules", action="append", choices=RULE_NAMES)
    sp.add_argument("--dump", help="write matrices in the text exchange format")
    common(sp, search=True, progress=True)

    sp = command("census", "exact census records for one (n, p, e) range")
    cell(sp)
    sp.add_argument("--recheck", action="store_true", help="recompute and compare to cache")
    common(sp, search=True, progress=True, cache=True)

    sp = command("series", "series coefficients of a catalogued function")
    sp.add_argument("--id", dest="series_id", required=True, choices=CATALOG_IDS)
    sp.add_argument(
        "--n", dest="series_n", type=int, metavar="N", help="dimension for parameterized entries"
    )
    sp.add_argument(
        "--bounds", type=_parse_bounds, metavar="X,Y,Z", help="truncation bounds, e.g. 8,0,0"
    )
    sp.add_argument("--total", type=int, help="total-degree truncation")
    sp.add_argument("--at-p", type=int, help="also evaluate coefficients at this prime")
    common(sp)

    sp = command("constants", "numeric constants with error enclosures")
    sp.add_argument(
        "--id", dest="constant_ids", action="append", metavar="ID",
        help="constant id (repeatable)",
    )
    common(sp)

    sp = command("verify", "run verification suites")
    sp.add_argument(
        "--suite",
        dest="suites",
        action="append",
        metavar="SUITE",
        help=f"suite name or 'all' (available: {', '.join(SUITES)})",
    )
    sp.add_argument("--small", action="store_true", help="reduced desk-scale grids")
    sp.add_argument("--stretch", action="store_true", help="extended budget-gated grids")
    sp.add_argument("-p", "--prime", type=int, help="narrow the cotype-z4 suite to one prime")
    sp.add_argument("--max-index", type=int, help="index bound for the cotype-z4 suite (needs -p)")
    common(sp, search=True, cache=True)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of parsed arguments, lists made tuples; rules disabled
    are sorted and unique, and verify runs every suite unless told which."""
    cfg = RunConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in vars(args).items()})
    cfg.disabled_rules = tuple(sorted(set(cfg.disabled_rules)))
    if cfg.command == "verify" and not cfg.suites:
        cfg.suites = ("all",)
    return cfg


COMMANDS = {
    "enumerate": cmd_enumerate,
    "census": cmd_census,
    "series": cmd_series,
    "constants": cmd_constants,
    "verify": cmd_verify,
}


def _attach_negative_bounds(argv: list[str]) -> list[str]:
    """argv with "--bounds V" written "--bounds=V" when V starts with a minus
    and a digit: argparse reads such a V (say -1,0,0) as an option, not as the
    value, so the bounds check of `expand` would never see it."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--bounds" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--bounds={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_bounds(sys.argv[1:] if argv is None else argv))
    cfg = config_from_args(args)
    try:
        body, code = COMMANDS[cfg.command](cfg)
        _emit({**_report_skeleton(cfg), **body}, cfg)
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CensusValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
