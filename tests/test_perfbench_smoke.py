"""The benchmark's smoke operations still print their recorded bytes.

perfbench/reference.json pins a sha256 digest for every operation the
benchmark can run.  This test loads perfbench/ops.py by path, unchanged,
runs each smoke-sized operation through its runner and compares digests,
so a change of output bytes shows in the unit suite and not only in a
benchmark run.
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


def test_smoke_operations_match_recorded_digests():
    ops = _load_ops()
    digests, _ = ops.load_reference()
    smoke = [op for pool in ops.SMOKE.values() for slot in pool for op in slot]
    assert smoke
    wrong = []
    for op in smoke:
        _, code, out = ops.execute(op, _NoProbe())
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digests.get(op):
            wrong.append(op)
    assert wrong == []
