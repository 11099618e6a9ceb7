"""Reference digests of the products workload's printed results.

For the recorded seeds, the printed result of every op is digested, and
each block of BLOCK consecutive ops has one digest of those, recorded at
the benchmark's first commit.  A run compares its complete blocks; every
op of a block that differs counts as failed.  Other seeds are checked by
the independent evaluation in ``workloads`` alone.

Record (only when the printed form is meant to change, which the library
promises it does not):

    python3 bench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "products_reference.json")
BLOCK = 32


def block_digests(digests):
    return [hashlib.sha256("".join(digests[i:i + BLOCK]).encode()).hexdigest()[:16]
            for i in range(0, len(digests) - BLOCK + 1, BLOCK)]


def mismatched_ops(seed, digests):
    """Indices of the ops in blocks that differ from the reference."""
    with open(PATH) as fh:
        recorded = json.load(fh)["seeds"].get(str(seed))
    if recorded is None:
        return set()
    bad = set()
    for b, (got, want) in enumerate(zip(block_digests(digests), recorded)):
        if got != want:
            bad.update(range(b * BLOCK, (b + 1) * BLOCK))
    return bad


def record(seeds, ops):
    import workloads
    out = {"block": BLOCK, "ops": ops, "seeds": {}}
    for seed in seeds:
        rng = random.Random(seed)
        wl = workloads.Products()
        wl.build(wl.plan(rng))
        for _ in range(ops):
            op = wl.next_op(rng)
            if not wl.check(op, wl.run(op)):
                raise SystemExit("seed %d: op fails its check" % seed)
        out["seeds"][str(seed)] = block_digests(wl.digests)
    with open(PATH, "w") as fh:
        json.dump(out, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from run import DEFAULT_SEED, HOLDOUT_SEED
    record([DEFAULT_SEED, HOLDOUT_SEED], 20000)
