#!/usr/bin/env python3
"""Record the per-scene, per-method scores that the benchmark's checks
compare against, by running every scene of every workload's pool once.

    python3 perfbench/record_reference.py [workload ...]

Rewrites perfbench/reference.json (only the named workloads, when given).
Run it only on the commit whose accuracy the checks should guard.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import run

PATH = os.path.join(run.BENCH_DIR, "reference.json")


def _scores(workload, index: int) -> dict:
    from hspansharp.harness import cli

    workload.prepare(index)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(workload.argv(index))
    result = workload.check(index, rc)
    print(workload.scene(index), result, file=sys.stderr, flush=True)
    return result


def record(name: str, work_dir: str) -> dict:
    import workloads

    workload = workloads.make_workload(name, work_dir, 0, None)
    scores = {}
    if isinstance(workload, workloads.FuseWorkload):
        for scene in range(workload.pool):
            workload.scene_seed = scene
            with contextlib.redirect_stdout(io.StringIO()):
                workload.setup()
            for index in range(len(workloads.FUSE_METHODS)):
                scores.setdefault(str(scene), {}).update(_scores(workload, index))
    else:
        workload.setup()
        for index in range(len(workload.order)):
            scores[str(workload.scene(index))] = _scores(workload, index)
    return scores


def main(argv) -> int:
    run.limit_blas_threads()
    run.import_program()
    import numpy
    import scipy

    import workloads

    names = argv or list(workloads.WORKLOADS)
    try:
        with open(PATH, encoding="ascii") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {"scores": {}}
    os.makedirs(run.OUT_ROOT, exist_ok=True)
    for name in names:
        work_dir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.OUT_ROOT)
        try:
            data["scores"][name] = record(name, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    data["recorded_with"] = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": run.blas_threads(),
    }
    with open(PATH, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
