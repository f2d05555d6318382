"""Record the stdout digest of every op any seed can produce.

    python3 perfbench/record.py

Runs each op of every workload's universe once, cold and untraced, one at a
time, and writes digests.json.  An op that exits nonzero, leaves a traceback
or reports ``"ok": false`` is not recorded, and the script exits 1.
Re-record only in a change whose purpose is to change the program's output.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run
import workloads

OP_TIMEOUT_S = 600.0


def main() -> int:
    todo = [op for name in workloads.WORKLOADS for op in workloads.universe(name)]
    digests = {}
    bad = 0
    start = time.monotonic()
    for done, op in enumerate(todo, 1):
        result = run.run_op(op, False, "record", time.monotonic() + OP_TIMEOUT_S)
        key = workloads.key(op)
        why = result.failure(None)
        if why:
            bad += 1
            print(f"FAILED {key}: {why}", file=sys.stderr)
            continue
        digests[key] = hashlib.sha256(result.stdout).hexdigest()
        print(f"[{done}/{len(todo)} {time.monotonic() - start:6.0f}s] {key}", flush=True)
    run.DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
