"""Record the reference digest of every pool operation's output.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known good; it rewrites
perfbench/reference.json.  The benchmark counts an operation whose output
digest differs from the recorded one as failed, so outputs stay
byte-identical across changes unless this file is deliberately re-recorded.
"""

from __future__ import annotations

import hashlib
import json

import ops
from speed import SpeedProbe


def main() -> None:
    ops.import_lahbell()
    digests = {}
    for pools in (ops.WORKLOADS, ops.SMOKE):
        for pool in pools.values():
            for slot in pool:
                for op in slot:
                    _, code, out = ops.execute(op, SpeedProbe())
                    if code != 0:
                        raise SystemExit(f"{op}: exit code {code}")
                    digests[op] = hashlib.sha256(out.encode()).hexdigest()
                    print(op, digests[op][:12], flush=True)
    reference = {"commit": ops.git_commit(), "digests": digests}
    ops.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
