"""One fresh interpreter that sets up one share of a workload and runs it.

run.py starts this script with a JSON config as its only argument, in an
environment whose BLAS/OpenMP thread counts are already pinned to 1 and
whose PYTHONPATH points at the checkout's ``src``. The worker

1. times ``import gbstates`` (the first heavy import it makes),
2. builds its inputs from (seed, worker index) and prebuilds quadratures,
3. prints ``ready`` (run.py times set-up from launch to this line), and
   exits there if the config asks for set-up only,
4. runs timed calls until its budget is spent, checking every output
   outside the timed span (see workloads.py), or on cli-session writes
   the reference output of every CLI invocation,
5. prints one JSON result line.
"""

import json
import os
import sys
import time


def main() -> None:
    config = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import gbstates  # the layer "import": the first heavy import of this process

    result = {"import_s": time.perf_counter() - t0}
    src = os.path.realpath(os.path.join(config["root"], "src"))
    if not os.path.realpath(gbstates.__file__).startswith(src + os.sep):
        sys.exit(f"gbstates imported from {gbstates.__file__}, not from {src}")

    import workloads

    if config["workload"] == "cli-session":
        # set-up is interpreter start and import; the references run.py
        # checks the CLI processes against are made after it, untimed
        print("ready", flush=True)
        if not config.get("setup_only"):
            result["exit_codes"] = workloads.cli_references(
                config["out_dir"], config["prerequisite"], config["invocations"]
            )
    else:
        setup, run = workloads.WORKLOADS[config["workload"]]
        state = setup(config["seed"], config["index"])
        rec = workloads.Recorder(config["trace"])
        print("ready", flush=True)
        if not config.get("setup_only"):
            started = time.perf_counter()
            run(rec, state, started + config["budget_s"])
            result["measure_s"] = time.perf_counter() - started
            result.update(rec.result())
    if config["index"] == 0 and not config.get("setup_only"):
        result["env"] = workloads.environment()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
