"""Set-up probe: a fresh interpreter imports sombrero and runs one warm-up case.

Usage: python3 perfbench/probe.py <workload> <scratch-dir>, with the
checkout's src/ on PYTHONPATH.  Prints {"import_s": ...} on success; the
parent times the whole process, which is what every CLI call pays.
"""

import sys
import time

t0 = time.perf_counter()
import sombrero  # noqa: E402 - the import itself is what is timed
import sombrero.cli  # noqa: E402

import_s = time.perf_counter() - t0

from workloads import WARMUP, CaseFailure, Runner  # noqa: E402

try:
    Runner(sombrero, sys.argv[2]).run(-1, WARMUP[sys.argv[1]])
except CaseFailure:
    pass  # the work is done; wrong answers are counted by the measured loop
print('{"import_s": %r}' % import_s)
