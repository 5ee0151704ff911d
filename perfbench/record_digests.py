"""Record the output digests that run.py compares each op against.

Usage: python3 perfbench/record_digests.py FIRST_SEED LAST_SEED [WORKLOAD ...]

Runs one pass of each workload for every seed in the range, verifies the
outputs independently (an op that fails verification aborts recording),
and stores the first DIGEST_HEX hex digits of each op's output sha256 in
digests.json, merged with the entries already there.  Record only from a
commit whose canonical output is known to be right.
"""

import json
import random
import sys

from run import DIGEST_HEX, DIGESTS, Pass, load_jetforge
from verify import verify
from workloads import WORKLOADS, make_ops


def main(first, last, *workloads):
    _, cli = load_jetforge()
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for workload in workloads or WORKLOADS:
        for seed in range(int(first), int(last) + 1):
            ops = make_ops(workload, seed)
            p = Pass(cli, ops)
            rng = random.Random("verify:%s:%d" % (workload, seed))
            for op, rc, out in zip(ops, p.rcs, p.outputs):
                reason = verify(op, rc, out, rng)
                if reason:
                    raise SystemExit("%s seed %d: %s: %s" % (workload, seed, op.argv, reason))
            table.setdefault(workload, {})[str(seed)] = " ".join(
                d[:DIGEST_HEX] for d in p.digests)
            print("recorded %s seed %d (%d ops)" % (workload, seed, len(ops)), flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
