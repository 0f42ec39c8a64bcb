"""The benchmark's smoke operations still print their recorded bytes.

perfbench/reference.json pins a sha256 digest for every operation the
benchmark can run.  This test loads perfbench/ops.py by path, unchanged,
runs each smoke-sized operation through its runner and compares digests,
so a change of output bytes shows in the unit suite and not only in a
benchmark run.  The numeric workload is cheap enough to run at full size,
which reaches row totals of more than 4000 digits.
"""

import hashlib
import importlib.util
from pathlib import Path

OPS = Path(__file__).resolve().parents[1] / "perfbench" / "ops.py"


def _load_ops():
    spec = importlib.util.spec_from_file_location("perfbench_ops", OPS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _NoProbe:
    """Stands in for the speed probe: no samples, so no time to subtract."""

    spent = 0.0


def _ops_with_other_output(ops, operations):
    """The operations that exit non-zero or print bytes other than recorded."""
    digests, _ = ops.load_reference()
    wrong = []
    for op in operations:
        _, code, out = ops.execute(op, _NoProbe())
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digests.get(op):
            wrong.append(op)
    return wrong


def test_smoke_operations_match_recorded_digests():
    ops = _load_ops()
    smoke = [op for pool in ops.SMOKE.values() for slot in pool for op in slot]
    assert smoke
    assert _ops_with_other_output(ops, smoke) == []


def test_full_size_numeric_operations_match_recorded_digests():
    ops = _load_ops()
    numeric = [op for slot in ops.WORKLOADS["numeric"] for op in slot]
    assert numeric
    assert _ops_with_other_output(ops, numeric) == []
