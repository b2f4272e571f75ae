"""Time one fresh interpreter's set-up for a workload.

    python3 benchmark/setup_probe.py <src dir> <workload> <seed>

Imports ``fracsol.cli``, then builds the workload's solution objects, and
prints {"import_s": ..., "solve_s": ...}.  Input generation and the
benchmark's own imports fall between the two timed spans.
"""

import json
import sys
import time

if __name__ == "__main__":
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fracsol.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    t1 = time.perf_counter()
    workloads.build_ops(workload, inputs)
    solve_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "solve_s": solve_s}))
