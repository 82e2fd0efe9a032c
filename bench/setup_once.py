"""One cold set-up of a workload, timed from before ``import alteration_lab``.

    python3 bench/setup_once.py <workload> <seed> <scratch dir>

run.py starts this in a fresh process for each set-up repeat, so every
repeat pays the import of alteration_lab and of all it pulls in (numpy,
click, the standard modules it uses) and finds no cache of an earlier one.
The clocks start before any import of this file.  Prints the wall time
and the CPU time of this process, in seconds, taken by the import, the
workload's inputs and one warm-up op of each shape.
"""

from time import perf_counter, process_time

t0, c0 = perf_counter(), process_time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# sys.path[0] is this directory, which holds workloads.py.
sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

name, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
warm = workloads.WORKLOADS[name](seed, scratch)
for shape, op_seed in warm.warmup_inputs():
    warm.run(shape, op_seed)
print(repr(perf_counter() - t0), repr(process_time() - c0))
