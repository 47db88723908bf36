"""Record ``reference.json``: the outputs the correctness gate expects.

Runs one pass of each workload against the current sources and stores
what its checks compare with: the exit code and SHA-256 of stdout of every
CLI query, the per-tree codes of the criteria sweep, and the endpoints of
the Laufer lifts. The large-trees tree is checked against its defining
equations only, so the reference does not depend on the seed. Record again
only when the program's outputs are meant to change.

    python3 bench/record_reference.py
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    reference = {}
    for name, workload_class in workloads.WORKLOADS.items():
        workdir = run.ROOT / ".bench_work" / f"record-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            workload = workload_class(0, workdir, None)
            result = run.run_pass(workload)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result.failed or not result.ok:
            print(f"error: {name} failed its own checks", file=sys.stderr)
            return 1
        reference[name] = workload.recorded
        print(f"{name}: {len(result.samples)} ops recorded")
    (run.HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
