"""Workload pools and the operation runner shared by the benchmark scripts.

An operation is one string.  A CLI operation is the argument vector of
``lahbell`` joined by spaces and runs through ``lahbell.cli.main`` in this
process with stdout captured.  A library operation starts with ``gf`` and
names a ``lahbell.gf_expand`` call: ``gf <family> <order> [name=int ...]``;
its output is one coefficient per line in canonical text.

A workload is a list of slots and a slot is a small pool of operations of
about the same cost.  One pass runs every slot once, in an order the seed
picks, with the operation of each slot also picked by the seed.  Every pool
entry has a sha256 digest of its output in ``reference.json``; an operation
fails when it raises, exits non-zero, or its output digest differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 1
# Kept out of every tuning run; a later change claims its gain on this seed too.
HELD_OUT_SEED = 7919


def _around(template: str, values) -> list[str]:
    return [template.format(v) for v in values]


def _formats(op: str, formats=("text", "json")) -> list[str]:
    return [op if fmt == "text" else f"{op} --format {fmt}" for fmt in formats]


# Numeric sizes stay below n of about 1550: from there a row total has more
# than 4300 digits and rendering it raises ValueError (see test_perfbench.py),
# and exact_core cost grows as n cubed.
WORKLOADS: dict[str, list[list[str]]] = {
    "verify-all": [
        _formats("verify --suite all") + _formats("verify --suite all --n-max 12 --r-max 2"),
    ],
    "numeric": [
        _around("table lah-bell --n-max {}", (398, 400, 402)),
        _around("table r-lah-bell --n-max {} --r 2", (298, 300, 302)),
        _around("table lah --n-max {} --format json", (199, 200, 201)),
        _around("table rlah --n-max {} --r 2 --format csv", (199, 200, 201)),
        _around("value r-lah-bell --n {} --r 2", (1490, 1495, 1500)),
        _around("value lah-bell-poly --n {} --r 1 --x 3", (398, 400, 402)),
        _around("gf lah-bell {}", (59, 60, 61)),
        _around("gf r-lah-bell {} r=2", (59, 60, 61)),
        _around("gf lah {} k=10", (59, 60, 61)),
        _around("gf r-lah-bell-poly {} r=1 x=3", (39, 40, 41)),
    ],
    "symbolic-poly": [
        _formats("poly complete-bell --n 26"),
        _formats("poly complete-lah-bell --n 26")[::-1],
        _formats("poly complete-r-lah-bell --n 14 --r 2"),
        _formats("poly theorem7 --n 14 --r 2"),
        _formats("poly incomplete-r-lah-bell --n 22 --k 7 --r 2"),
        _formats("poly incomplete-bell --n 24 --k 8"),
    ],
}

# The same slots at tiny sizes, for the benchmark's own smoke tests.
SMOKE: dict[str, list[list[str]]] = {
    "verify-all": [_formats("verify --suite all --n-max 3 --r-max 1")],
    "numeric": [
        ["table lah-bell --n-max 10"],
        ["table r-lah-bell --n-max 8 --r 2"],
        ["table lah --n-max 5 --format json"],
        ["table rlah --n-max 5 --r 2 --format csv"],
        ["value r-lah-bell --n 30 --r 2"],
        ["value lah-bell-poly --n 10 --r 1 --x 3"],
        ["gf lah-bell 8"],
        ["gf r-lah-bell 8 r=2"],
        ["gf lah 8 k=3"],
        ["gf r-lah-bell-poly 6 r=1 x=3"],
    ],
    "symbolic-poly": [
        _formats("poly complete-bell --n 6"),
        _formats("poly complete-lah-bell --n 6")[::-1],
        _formats("poly complete-r-lah-bell --n 4 --r 2"),
        _formats("poly theorem7 --n 4 --r 2"),
        _formats("poly incomplete-r-lah-bell --n 6 --k 3 --r 2"),
        _formats("poly incomplete-bell --n 6 --k 3"),
    ],
}


def import_lahbell():
    """Import lahbell from this checkout's src/, refusing any other copy."""
    if not (SRC / "lahbell" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lahbell sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lahbell
    import lahbell.cli

    if Path(lahbell.__file__).resolve().parent != SRC / "lahbell":
        raise SystemExit(f"perfbench: imported lahbell from {lahbell.__file__}, not {SRC}")
    return lahbell


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_reference() -> tuple[dict[str, str], str]:
    """The recorded output digests and the commit they were recorded at."""
    if not REFERENCE.is_file():
        raise SystemExit(f"perfbench: missing {REFERENCE}")
    reference = json.loads(REFERENCE.read_text())
    return reference["digests"], reference["commit"]


def passes(pool: list[list[str]], seed: int):
    """Endless stream of passes: each a seed-ordered list, one op per slot."""
    rng = random.Random(seed)
    while True:
        slots = rng.sample(pool, len(pool))
        yield [rng.choice(slot) for slot in slots]


def execute(op: str, probe) -> tuple[float, int, str]:
    """Run one operation; returns (seconds, exit code, output).

    The time covers the call into lahbell and the rendering of its result,
    not the stdout capture, the digest or the samples ``probe`` (a
    ``speed.SpeedProbe``) took meanwhile.
    """
    import lahbell
    import lahbell.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        spent = probe.spent
        start = time.perf_counter()
        if op.startswith("gf "):
            _, family, order, *params = op.split()
            kwargs = {name: int(value) for name, value in (p.split("=") for p in params)}
            # Looked up on every call so that the traced run sees its wrapper.
            coeffs = lahbell.gf_expand(family, int(order), **kwargs)
            print("".join(c.to_text() + "\n" for c in coeffs), end="")
            code = 0
        else:
            code = lahbell.cli.main(op.split())
        elapsed = time.perf_counter() - start - (probe.spent - spent)
    return elapsed, code, buf.getvalue()


def run_pass(
    ops: list[str], digests: dict[str, str], failures: list[str], probe
) -> tuple[float, float, int]:
    """Run one pass closed-loop.

    Returns the summed op seconds, speed-corrected op by op with ``probe``
    (see speed.py) and raw, and the CLI output bytes.  Appends a line to
    ``failures`` for each op that raised, exited non-zero or printed output
    whose digest is not the recorded one.
    """
    corrected = raw = 0.0
    cli_bytes = 0
    for op in ops:
        first = len(probe.samples)
        probe.sample()  # so that even an op shorter than the interval has one
        try:
            elapsed, code, out = execute(op, probe)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            failures.append(f"{op}: raised {type(exc).__name__}: {exc}")
            continue
        corrected += elapsed * probe.factor(first)
        raw += elapsed
        data = out.encode()
        if not op.startswith("gf "):
            cli_bytes += len(data)
        if code != 0:
            failures.append(f"{op}: exit code {code}")
        elif digests.get(op) != hashlib.sha256(data).hexdigest():
            failures.append(f"{op}: output digest differs from reference")
    return corrected, raw, cli_bytes
