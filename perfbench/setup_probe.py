"""Set-up cost of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SRC_DIR WORKLOAD SEED

Generates the workload's documents first (outside the timed region), then
times ``import jetforge.cli`` plus parsing every input document.  For
workloads without documents (check, p1-bundles) only the import is timed.
Reference chunks (see reference.py) are timed just before and just after,
in the same process.  Prints the raw seconds and the calibrated seconds.
"""

import statistics
import sys
import time

from reference import REF_CHUNK_S, timed_chunk
from workloads import documents, make_ops

WARM_CHUNKS = 5
REF_CHUNKS = 15


def main(src, workload, seed):
    texts = documents(make_ops(workload, int(seed)))
    sys.path.insert(0, src)
    for _ in range(WARM_CHUNKS):
        timed_chunk()
    ref = [timed_chunk() for _ in range(REF_CHUNKS)]
    start = time.perf_counter()
    import jetforge.cli  # noqa: F401  (the import is what is timed)
    from jetforge.dsl import parse_document

    for text in texts:
        parse_document(text)
    seconds = time.perf_counter() - start
    ref += [timed_chunk() for _ in range(REF_CHUNKS)]
    print("%.9f %.9f" % (seconds, seconds * REF_CHUNK_S / statistics.median(ref)))


if __name__ == "__main__":
    main(*sys.argv[1:])
