"""gbstates benchmark: end-to-end and per-layer timing of the working tree.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload matrix-sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

Workloads are cli-session, matrix-sweep, matrix-ladder and vector-ladder
(README.md says what each is for). The load is one closed loop with one
caller: this process starts one child at a time and waits for it. Children
are fresh interpreters with PYTHONPATH=src and every BLAS/OpenMP pool pinned
to one thread before numpy is imported.

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics; with --trace 1 they are the per-layer metrics computed
from spans, and the spans are written to benchmarks/out/. `all` runs every
workload untraced and traced and prints the tracing overhead. This script
uses the standard library only; numpy is imported by the children.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
PACKAGE = os.path.join(ROOT, "src", "gbstates")

WORKLOADS = ("cli-session", "matrix-sweep", "matrix-ladder", "vector-ladder")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# the in-process workloads other than matrix-ladder split their budget over
# this many fresh workers; cli-session makes its references in as many
WORKERS = 5
# set-up is timed in at least this many fresh processes, spread over the
# run, and its median reported: the timed workers, and probes that stop at
# `ready`, one after each worker, pass or CLI cycle, topped up at the end
SETUP_SAMPLES = 11
# the matrix ladder runs at least this many passes, so its pass latencies
# have at least five samples
MIN_LADDER_PASSES = 5
# the cli-session runs at least this many cycles of its seven invocation
# kinds, so its p75 has >= 10 of the 42 invocations beyond it
MIN_CLI_CYCLES = 6
# the highest percentile with at least ten samples beyond it: p75 of about
# 40 CLI invocations, p90 of hundreds of calls. The matrix ladder's 5-7
# pass latencies have no such percentile; their p75 lies between the two
# slowest passes.
TAIL_PERCENTILE = {"cli-session": 75, "matrix-ladder": 75}
DEFAULT_TAIL = 90
# parameter draws per invocation kind; whole cycles of one draw each are run
CLI_VARIANTS = 4
# times `import gbstates` inside each CLI process and reports it on stderr's
# first line, before the CLI runs
CLI_BOOT = (
    "import sys, time; t0 = time.perf_counter(); import gbstates; "
    "print(f'import_s={time.perf_counter() - t0!r}', file=sys.stderr, flush=True); "
    "from gbstates.cli import run; run()"
)
CLI_SUBCOMMANDS = ("state", "overlap", "partner", "basis", "expand", "squeeze-scan")
LAYER_FUNCTIONS = (
    "gbs.gbs_state",
    "gbs.gbs_overlap",
    "hp_algebra.rotation_operator",
    "hp_algebra.link_operator",
    "hp_algebra.rotated_operators",
    "cas.rotation_operator_spin",
    "cas.cas_expansion_check",
    "delta_basis.delta_basis",
    "delta_basis.delta_state",
    "resolution.reconstruct",
    "resolution.identity_resolution",
    "squeezing.direct_stats",
    "squeezing.closed_form_indexes",
    "squeezing.squeeze_scan",
)
LAYER_STATS = ("calls", "busy_s", "p50_s", "failed")


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def reap(proc: subprocess.Popen) -> float:
    """Wait for one child and return its own peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def stop(proc: subprocess.Popen) -> None:
    if proc.returncode is None:
        proc.kill()
        reap(proc)


def run_worker(config: dict) -> dict:
    """Run worker.py once; return its result plus set-up time and peak RSS."""
    config = {"root": ROOT, **config}
    with open(os.path.join(config["tmp"], "worker.err"), "w+") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, WORKER, json.dumps(config)],
            stdout=subprocess.PIPE, stderr=err, env=child_env(), text=True,
        )
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - launched
            rest = proc.stdout.read()
            proc.stdout.close()
            rss = reap(proc)
        finally:
            stop(proc)
        if proc.returncode != 0 or ready != "ready\n":
            err.seek(0)
            raise BenchError(f"worker {config['workload']} exited {proc.returncode}: {err.read()[-2000:]}")
    result = json.loads(rest.strip().splitlines()[-1])
    result.update(setup_s=setup_s, peak_rss_mb=rss)
    return result


def probe_setup(base: dict) -> float:
    """Set-up time of one fresh worker that exits at `ready`."""
    return run_worker({**base, "index": 0, "setup_only": True})["setup_s"]


def top_up(base: dict, setup_s: list[float]) -> list[float]:
    while len(setup_s) < SETUP_SAMPLES:
        setup_s.append(probe_setup(base))
    return setup_s


# --------------------------------------------------------------- cli-session


def cli_invocations(seed: int, tmp: str) -> tuple[list[list[str]], list[str]]:
    """The session's invocations, in cycles of one per subcommand kind.

    Returns (invocations, prerequisite): the prerequisite writes the state
    file that `expand` reads, during set-up.
    """
    rng = random.Random(seed)

    def p():
        return f"{rng.uniform(0.02, 0.98):.6f}"

    def phi():
        return f"{rng.uniform(0.0, 6.283185):.6f}"

    expand_input = os.path.join(tmp, "expand-input.json")
    prerequisite = ["state", "-N", "24", "-p", p(), "--phi", phi(), "-o", expand_input]
    invocations = []
    for _ in range(CLI_VARIANTS):
        n = str(rng.randint(10, 60))
        invocations += [
            ["state", "-N", str(rng.randint(2, 12)), "-p", p(), "--phi", phi()],
            ["state", "-N", "1000", "-p", p(), "--phi", phi()],
            ["overlap", "-N", n, "-p", p(), "--phi", phi(), "--p2", p(), "--phi2", phi()],
            ["partner", "-N", n, "-p", p(), "--phi", phi()],
            ["basis", "-N", "32", "-p", p(), "--phi", phi()],
            ["expand", expand_input],
            ["squeeze-scan", "-N", "200", "--p-steps", "51", "--phi-steps", "65"],
        ]
    return invocations, prerequisite


def run_cli_session(workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    invocations, prerequisite = cli_invocations(seed, tmp)
    base = {"workload": "cli-session", "seed": seed, "trace": trace, "tmp": tmp}
    setups = []
    for k in range(WORKERS):
        setups.append(run_worker({
            **base, "index": k, "out_dir": os.path.join(tmp, f"expected-{k}"),
            "invocations": invocations, "prerequisite": prerequisite,
        }))
    setup_s = [r["setup_s"] for r in setups]
    # a reference that failed or differs between set-ups matches no CLI output
    expected = []
    for i in range(len(invocations)):
        outs = {_read(os.path.join(tmp, f"expected-{k}", f"{i}.out")) for k in range(WORKERS)}
        reproducible = len(outs) == 1 and all(s["exit_codes"][i] == 0 for s in setups)
        expected.append(outs.pop() if reproducible else None)

    cycle = len(invocations) // CLI_VARIANTS
    latencies, spans, failures, peaks, imports = [], [], [], [], []
    out_path = os.path.join(tmp, "cli.out")
    elapsed, i = 0.0, 0
    while elapsed < seconds or i % cycle or i < MIN_CLI_CYCLES * cycle:
        if i % cycle == 0:
            setup_s.append(probe_setup(base))
        argv = invocations[i % len(invocations)]
        if os.path.exists(out_path):
            os.remove(out_path)
        with open(os.path.join(tmp, "cli.err"), "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", CLI_BOOT, *argv, "-o", out_path],
                stdout=subprocess.DEVNULL, stderr=err, env=child_env(),
            )
            try:
                rss = reap(proc)
            finally:
                stop(proc)
            t1 = time.perf_counter()
            err.seek(0)
            first, _, message = err.read().partition("\n")
            if first.startswith("import_s="):
                imports.append(float(first[len("import_s="):]))
            else:
                message = first + "\n" + message
            message = message[-500:]
        ok = proc.returncode == 0 and os.path.exists(out_path) and _read(out_path) == expected[i % len(invocations)]
        if not ok:
            reason = message.strip() or "output differs from the in-process reference"
            failures.append({"name": "cli." + argv[0], "argv": argv, "count": 1, "known": False,
                             "error": f"exit {proc.returncode}: {reason}"})
        latencies.append(t1 - t0)
        spans.append({"name": "cli." + argv[0], "t0": t0, "t1": t1, "ok": ok})
        peaks.append(rss)
        elapsed += t1 - t0
        i += 1
    return {
        "setups": setups, "setup_s": top_up(base, setup_s), "imports": imports, "latencies": latencies, "failures": failures,
        "errors": 0, "peak_rss_mb": peaks, "spans": spans if trace else [],
    }


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ------------------------------------------------------ in-process workloads


def run_in_process(workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    base = {"workload": workload, "seed": seed, "trace": trace, "tmp": tmp}
    results, setup_s = [], []
    if workload == "matrix-ladder":
        # one pass per fresh process, so every N is cold for any per-N cache
        measured = 0.0
        while measured < seconds or len(results) < MIN_LADDER_PASSES:
            results.append(run_worker({**base, "index": len(results), "budget_s": 0.0}))
            measured += results[-1]["measure_s"]
            setup_s += [results[-1]["setup_s"], probe_setup(base)]
    else:
        for k in range(WORKERS):
            results.append(run_worker({**base, "index": k, "budget_s": seconds / WORKERS}))
            setup_s += [results[-1]["setup_s"], probe_setup(base)]
    spans, failures = [], {}
    for k, r in enumerate(results):
        spans += [{**s, "worker": k} for s in r["spans"]]
        for f in r["failures"]:
            merged = failures.setdefault((f["name"], f["N"]), {**f, "count": 0})
            merged["count"] += f["count"]
            merged["known"] = merged["known"] and f["known"]
            if not f["worst"] <= merged["worst"]:
                merged["worst"] = f["worst"]
    return {
        "setups": results,
        "setup_s": top_up(base, setup_s),
        "imports": [r["import_s"] for r in results],
        "latencies": [x for r in results for x in r["latencies"]],
        "failures": list(failures.values()),
        "errors": sum(r["errors"] for r in results),
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "spans": spans,
    }


# ------------------------------------------------------------------ metrics


def end_to_end(workload: str, raw: dict) -> dict:
    lat = raw["latencies"]
    # On matrix-ladder a latency is that of one pass, one worker's calls. Its
    # calls' costs span four orders of magnitude and each call has only 5-7
    # samples, so a percentile of calls would read a few samples of one call.
    samples = [sum(r["latencies"]) for r in raw["setups"]] if workload == "matrix-ladder" else lat
    tail = TAIL_PERCENTILE.get(workload, DEFAULT_TAIL)
    return {
        "setup_s": {"value": statistics.median(raw["setup_s"]), "unit": "s"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(samples), "unit": "s"},
        "latency_tail_s": {"value": statistics.quantiles(samples, n=100)[tail - 1], "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(raw["peak_rss_mb"]), "unit": "MB"},
    }


def per_layer(raw: dict) -> dict:
    by_name: dict[str, list[dict]] = {}
    for span in raw["spans"]:
        by_name.setdefault(span["name"], []).append(span)
    metrics = {}

    def add(name, durations, failed):
        for stat, value, unit in (
            ("calls", len(durations), "count"),
            ("busy_s", sum(durations), "s"),
            ("p50_s", statistics.median(durations) if durations else 0.0, "s"),
            ("failed", failed, "count"),
        ):
            metrics[f"{name}.{stat}"] = {"value": value, "unit": unit}

    add("import.gbstates", raw["imports"], 0)
    for sub in CLI_SUBCOMMANDS:
        spans = by_name.get("cli." + sub, [])
        add("cli." + sub, [s["t1"] - s["t0"] for s in spans], sum(not s["ok"] for s in spans))
    for fn in LAYER_FUNCTIONS:
        spans = by_name.get(fn, [])
        add(fn, [s["t1"] - s["t0"] for s in spans], sum(not s["ok"] for s in spans))
    lat = raw["latencies"]
    metrics["trace.ops_per_s"] = {"value": len(lat) / sum(lat), "unit": "1/s"}
    return metrics


# -------------------------------------------------------------- environment


def environment(seed: int, raw: dict) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
    }
    env.update(next((s["env"] for s in raw["setups"] if "env" in s), {}))
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


# --------------------------------------------------------------------- main


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        runner = run_cli_session if workload == "cli-session" else run_in_process
        raw = runner(workload, seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # `failed` counts the operations that failed: a call that raised, a CLI
    # process that did not reproduce its bytes, or a miss that is not a
    # documented defect. A documented defect's misses are counted apart, in
    # `known_misses`, in failed_frac and in `<layer>.<function>.failed`.
    unexpected = [f for f in raw["failures"] if not f["known"]]
    raw["known_misses"] = sum(f["count"] for f in raw["failures"] if f["known"])
    result = {
        "correct": not unexpected and raw["errors"] == 0,
        "attempted": len(raw["latencies"]),
        "failed": sum(f["count"] for f in unexpected),
        "metrics": per_layer(raw) if trace else end_to_end(workload, raw),
    }
    env = environment(seed, raw)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "failures": raw["failures"], "known_misses": raw["known_misses"], **result},
                  fh, indent=1)
    if trace:
        with open(stem + "-spans.jsonl", "w") as fh:
            for span in raw["spans"]:
                fh.write(json.dumps(span) + "\n")
    report(workload, seed, trace, raw, result, env)
    return result


# per-workload metric names, printed as aliases of the JSON metrics
ALIASES = {
    "cli-session": {"cli_p50_s": "latency_p50_s", "cli_p75_s": "latency_tail_s",
                    "peak_rss_mb": "peak_rss_mb"},
    "matrix-sweep": {"setup_s": "setup_s", "ops_per_s": "ops_per_s",
                     "latency_p50_s": "latency_p50_s", "latency_p90_s": "latency_tail_s",
                     "peak_rss_mb": "peak_rss_mb"},
    "matrix-ladder": {"setup_s": "setup_s", "ops_per_s": "ops_per_s", "peak_rss_mb": "peak_rss_mb"},
    "vector-ladder": {"setup_s": "setup_s", "ops_per_s": "ops_per_s", "peak_rss_mb": "peak_rss_mb"},
}


def report(workload, seed, trace, raw, result, env):
    print(f"== {workload}  seed {seed}  trace {int(trace)}  "
          f"({len(raw['latencies'])} timed calls, {len(raw['setup_s'])} set-ups)")
    metrics = result["metrics"]
    if not trace:
        for alias, key in ALIASES[workload].items():
            print(f"  {alias:16s} {metrics[key]['value']:.6g} {metrics[key]['unit']}")
        print(f"  {'all metrics':16s} " + ", ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items()))
    else:
        for name in ("import.gbstates",) + tuple("cli." + c for c in CLI_SUBCOMMANDS) + LAYER_FUNCTIONS:
            if metrics[name + ".calls"]["value"]:
                print(f"  {name:32s} " + "  ".join(
                    f"{stat}={metrics[f'{name}.{stat}']['value']:.6g}" for stat in LAYER_STATS))
        print(f"  {'trace.ops_per_s':32s} {metrics['trace.ops_per_s']['value']:.6g} 1/s")
    missed = result["failed"] + raw["known_misses"]
    print(f"  {'failed_frac':16s} {missed / result['attempted']:.6g} "
          f"({missed}/{result['attempted']}: {raw['known_misses']} documented defect, "
          f"{result['failed']} failed)")
    for f in raw["failures"]:
        tag = f"known defect, ceiling {f['ceiling']:.3g}: {f['reason']}" if f["known"] else "UNEXPECTED"
        detail = f.get("error") or f"worst {f['worst']:.3g} > {f['bound']:.3g}"
        print(f"    {f['name']} N={f.get('N', '-')} x{f['count']}: {detail} ({tag})")
    print("  env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no gbstates package at {PACKAGE}; run from a checkout root", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
            return 0
        summary = {}
        for workload in WORKLOADS:
            plain = run_workload(workload, args.seed, args.seconds, False)
            traced = run_workload(workload, args.seed, args.seconds, True)
            rate, traced_rate = plain["metrics"]["ops_per_s"]["value"], traced["metrics"]["trace.ops_per_s"]["value"]
            print(f"  tracing overhead on {workload}: ops_per_s {rate:.6g} untraced, "
                  f"{traced_rate:.6g} traced ({100.0 * (1.0 - traced_rate / rate):+.2f}%)")
            summary[workload] = {"untraced": plain, "traced": traced}
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
