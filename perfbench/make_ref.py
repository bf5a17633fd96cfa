"""Write ref/seed0.json: the seed-0 inputs and output digests of every workload.

    python3 perfbench/make_ref.py

Run once at the commit whose outputs the benchmark should hold later commits
to; the benchmark compares seed-0 outputs with these digests, and the
optimizer's pi_max with the stored value.
"""

import json
import time

import run
from workloads import WORKLOADS


def main() -> None:
    refs = {}
    for workload in WORKLOADS.values():
        config = workload.inputs(0)
        run_dir = run.WORK / f"ref-{workload.name}"
        run.shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            config_path = run_dir / "config.json"
            config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
            child = run.Runner(workload, run_dir, config_path, time.monotonic()).spawn()
            if child.rc != 0 or len(child.hashes) != len(workload.outputs):
                raise SystemExit(f"{workload.name}: the reference run failed")
            problems = workload.check(config, child.out, None)
            if problems:
                raise SystemExit(f"{workload.name}: {problems}")
            refs[workload.name] = {"config": config, "files": child.hashes}
            if (child.out / "optimum.json").is_file():
                refs[workload.name]["pi_max"] = json.loads((child.out / "optimum.json").read_text())["pi_max"]
        finally:
            run.shutil.rmtree(run_dir, ignore_errors=True)
    run.REFERENCE.parent.mkdir(exist_ok=True)
    run.REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
