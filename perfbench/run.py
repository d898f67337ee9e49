#!/usr/bin/env python3
"""Runs the repository's benchmark.

    python3 perfbench/run.py --workload build|stream|serve|all \
        --seed N --seconds S --trace 0|1 [--out DIR]

Run from the root of a checkout. The first run builds the repository's
`kiff` binary and the harness (`perfbench/harness`, a cargo package of
its own that depends on the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`). A run generates its inputs from `--seed`, measures for
about `--seconds` seconds, checks the program's outputs and prints, as
its last line, `{"correct", "attempted", "failed", "metrics"}`: the
end-to-end metrics of `BENCHMARK.json` with `--trace 0`, its per-layer
metrics with `--trace 1`. The line before it describes the inputs and
the machine, and holds under `detail` every other figure the workload
measured (for example `build_dblp_s`, or the serve layers' `serve.*`).
A run whose workload does not measure every metric the manifest lists
fails.

`--out DIR` also saves both lines as `DIR/<workload>-seed<N>-trace<T>.json`,
the result sets `perfbench/compare.py` reads. `--workload all` runs every
workload in turn and prints a table of every metric by name and unit.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
MANIFEST = REPO / "BENCHMARK.json"
WORKLOADS = ["build", "stream", "serve"]
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Builds the repository's own `kiff` binary, which the serve workload
    runs, and the harness; returns their paths."""
    if not (REPO / "Cargo.toml").is_file() or not (REPO / "crates").is_dir():
        fail("the repository's sources are missing; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for what, extra in (("kiff", ["--manifest-path", str(REPO / "Cargo.toml"),
                                  "-p", "kiff-cli", "--bin", "kiff"]),
                        ("the harness", ["--manifest-path", str(HERE / "harness" / "Cargo.toml")])):
        try:
            done = subprocess.run(
                ["cargo", "build", "--release", "--offline", "--quiet"] + extra,
                env=env, stdout=sys.stderr, check=False,
                timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"cannot build {what}: {e}")
        if done.returncode != 0:
            fail(f"building {what} failed")
    return target / "release" / "perfbench", target / "release" / "kiff"


def manifest_metrics(trace):
    """{name: unit} of the metrics a run with `trace` prints."""
    try:
        spec = json.loads(MANIFEST.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {MANIFEST.name}: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def split_metrics(workload, result, wanted):
    """Keeps the `wanted` metrics in the result and returns the others."""
    metrics = result["metrics"]
    for name, unit in wanted.items():
        if name not in metrics:
            fail(f"{workload} did not measure {name}")
        if metrics[name]["unit"] != unit:
            fail(f"{workload} measured {name} in {metrics[name]['unit']}, not {unit}")
    result["metrics"] = {name: metrics[name] for name in wanted}
    return {name: m for name, m in metrics.items() if name not in wanted}


def run_harness(binary, kiff, target, workload, seed, seconds, trace):
    """Runs one workload; returns (context, result) as parsed JSON."""
    runs = target / "perfbench"
    work = runs / f"work-{workload}-{os.getpid()}"
    spans = runs / "spans" / f"{workload}-seed{seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(binary), workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", str(work), "--kiff", str(kiff)]
    if trace:
        cmd += ["--spans", str(spans)]
    # A session of its own, so a timeout stops the harness and every
    # daemon it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if len(lines) < 2:
        fail(f"{workload} printed no result")
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload} printed a malformed result")
    return context, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args()

    wanted = manifest_metrics(args.trace)
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary, kiff = build(target)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        context, result = run_harness(binary, kiff, target, workload, args.seed,
                                      args.seconds, args.trace)
        context["detail"] = split_metrics(workload, result, wanted)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            record = dict(context, result=result)
            name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
            (args.out / name).write_text(json.dumps(record, indent=1) + "\n")
        if args.workload == "all":
            verdict = "correct" if result["correct"] else "INCORRECT"
            print(f"{workload}: {verdict}, {result['failed']} of {result['attempted']} failed")
            for name, m in list(result["metrics"].items()) + list(context["detail"].items()):
                print(f"  {name:45} {m['value']:>16.6g} {m['unit']}")
        else:
            print(json.dumps(context))
            print(json.dumps(result))


if __name__ == "__main__":
    main()
