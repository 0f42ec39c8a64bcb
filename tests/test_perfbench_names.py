"""The names the benchmark tracer wraps still exist in the package.

perfbench/spans.py wraps lahbell functions by name, so deleting or renaming
one breaks only traced benchmark runs and the benchmark's own tests.  These
tests load that file by path, unchanged, and resolve every name it lists.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import lahbell.bell
from lahbell import verify

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _resolve(layer, name):
    """The function the tracer wraps for one TARGETS entry, or None."""
    home = importlib.import_module(f"lahbell.{layer}")
    owner, _, attr = name.rpartition(".")
    if not owner:
        return getattr(home, attr, None)
    cls = getattr(home, owner, None)
    # the tracer reads methods from the class's own namespace
    return None if cls is None else vars(cls).get(attr)


def test_every_target_resolves():
    missing = [
        f"lahbell.{layer}.{name}"
        for layer, names in spans.TARGETS.items()
        for name in names
        if not callable(_resolve(layer, name))
    ]
    assert missing == []


def test_every_generator_target_is_a_generator_function():
    found = {
        name: _resolve(layer, name)
        for layer, names in spans.TARGETS.items()
        for name in names
        if name in spans.GENERATORS
    }
    assert set(found) == set(spans.GENERATORS)
    assert all(inspect.isgeneratorfunction(fn) for fn in found.values()), found


def test_suite_table_matches_the_suite_names():
    assert tuple(verify._SUITES) == verify.SUITE_NAMES[1:]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    prefix = "verify.suite_s."
    timed = tuple(m["name"][len(prefix):] for m in declared if m["name"].startswith(prefix))
    assert timed == verify.SUITE_NAMES[1:]


def test_bell_binds_enumerate_pi():
    # the benchmark's wrapper test checks that the tracer replaces this binding
    assert lahbell.bell.enumerate_pi is lahbell.partitions.enumerate_pi
