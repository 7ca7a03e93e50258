"""Guards on the benchmark's view of the package.

The benchmark tracer in perfbench/tracing.py wraps library functions by
module path and attribute name, and its own self-tests run outside this
suite.  Here the tracer module is loaded read-only, without touching its
state, so a renamed or deleted call site fails a test in this suite too.
"""

import importlib
from pathlib import Path
from types import ModuleType, SimpleNamespace

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    # compiled from its text, so no bytecode cache is written next to it
    module = ModuleType("perfbench_tracing_guard")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_call_sites_resolve():
    tracing = _load_tracing()
    layers = {path.split(".")[0] for path, *_ in tracing.CALL_SITES}
    lib = SimpleNamespace(
        **{name: importlib.import_module(f"subring_census.{name}") for name in layers}
    )
    missing = [
        f"{path}.{attr}"
        for path, attr, *_ in tracing.CALL_SITES
        if not callable(getattr(tracing._site(lib, path), attr, None))
    ]
    assert missing == []


def test_sieve_names_outside_call_sites_resolve():
    # Tracer.installed also wraps analytics.iter_primes and analytics._sieve,
    # and the constants workload empties analytics._sieve_cache before a pass
    text = TRACING.read_text()
    assert '("analytics", "iter_primes"' in text and '("analytics", "_sieve"' in text
    analytics = importlib.import_module("subring_census.analytics")
    assert callable(analytics.iter_primes) and callable(analytics._sieve)
    assert isinstance(analytics._sieve_cache, bytearray)
