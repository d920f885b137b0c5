"""Benchmark of four shipped snls experiments, end to end and per layer.

    python3 perfbench/run.py --workload channels --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout.  Every sample is a fresh
interpreter (perfbench/worker.py) that imports snls from ``src/``, parses
the workload config and makes one ``snls.experiments.run`` call, as the
CLI does.  The artifacts of every sample are checked (workloads.py) and
must be byte-identical across the samples of a run.

--trace 0 reports, as medians over the run's samples:
  wall_s       one experiments.run call;
  setup_s      process start to a parsed config (import snls + parse_config),
               over every sample's interpreter and set-up-only
               interpreters before, between and after the samples, at
               least MIN_SETUPS in all;
  peak_rss_mb  the sample interpreter's peak resident set.
--trace 1 runs rounds of one plain and one traced sample, and reports the
per-layer figures of tracer.py as medians over the traced samples.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Output goes to .perfbench_out/<workload>/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
MIN_SETUPS = 32
WORKER_TIMEOUT_S = 170
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class SampleFailed(Exception):
    pass


class Runner:
    """Starts worker interpreters for one workload and keeps their figures."""

    def __init__(self, workload, config, out):
        self.config = config
        self.out = out
        self.threads = str(workloads.WORKLOADS[workload].get("threads", 1))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **SINGLE_THREAD_ENV)
        self.setups = []
        self.count = 0

    def sample(self, mode):
        """Start one worker; returns its result dict (None for mode setup)."""
        self.count += 1
        sample_dir = self.out / f"sample_{self.count:03d}"
        sample_dir.mkdir()
        artifacts = sample_dir / "artifacts"
        cmd = [sys.executable, str(WORKER), str(self.config), str(artifacts), self.threads, mode]
        if mode == "trace":
            cmd.append(str(sample_dir / "trace.json"))
        with open(sample_dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            # unbuffered, so that readline takes no bytes beyond the first line
            with subprocess.Popen(
                cmd, bufsize=0, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT
            ) as proc:
                try:
                    first = proc.stdout.readline()
                    setup = time.perf_counter() - start
                    rest = proc.communicate(timeout=WORKER_TIMEOUT_S)[0]
                except subprocess.TimeoutExpired:
                    proc.kill()
                    raise SampleFailed(f"{mode} worker ran over {WORKER_TIMEOUT_S} s") from None
        if proc.returncode != 0 or first != b"parsed\n":
            detail = (sample_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()
            raise SampleFailed(f"{mode} worker exited {proc.returncode}: {detail[-1:] or ''}")
        if mode != "trace":
            self.setups.append(setup)
        if mode == "setup":
            return None
        result = json.loads(rest.decode().strip().splitlines()[-1])
        if not Path(result["snls_file"]).resolve().is_relative_to(ROOT / "src"):
            raise SampleFailed(f"snls was imported from {result['snls_file']}, not from src/")
        result["artifacts"] = artifacts
        return result


def digest(tree):
    """Relative path -> sha256 of every file under ``tree``."""
    return {
        str(p.relative_to(tree)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tree.rglob("*")) if p.is_file()
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    shipped = ROOT / "configs" / f"{args.workload}.cfg"
    if not (ROOT / "src" / "snls" / "__init__.py").is_file() or not shipped.is_file():
        sys.stderr.write(f"perfbench: no snls source tree or {shipped.name} under {ROOT}\n")
        return 2
    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out / f"{args.workload}.cfg"
    config.write_text(workloads.config_text(args.workload, args.seed, shipped.read_text()))
    params = workloads.params(args.workload, args.seed)
    check = workloads.WORKLOADS[args.workload]["check"]

    runner = Runner(args.workload, config, out)
    try:
        runner.sample("setup")  # warm-up: bytecode caches and the file cache
    except SampleFailed as exc:
        sys.stderr.write(f"perfbench: cannot set up {args.workload}: {exc}\n")
        return 2
    runner.setups.clear()

    attempted = failed = 0
    problems = []
    reference = None
    plain, traced = [], []

    def attempt(mode):
        nonlocal attempted, failed, reference
        attempted += 1
        try:
            result = runner.sample(mode)
            check(result["artifacts"], params)
            files = digest(result["artifacts"])
            if reference is None:
                reference = files
            elif files != reference:
                raise workloads.CheckFailed(f"{mode} sample artifacts differ from the first sample's")
        except (SampleFailed, workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
            failed += 1
            problems.append(f"sample {runner.count} ({mode}): {exc}")
            return
        (traced if mode == "trace" else plain).append(result)

    def probe():
        try:
            runner.sample("setup")
        except SampleFailed as exc:
            problems.append(f"set-up probe: {exc}")

    # Half the set-up probes go before the samples and the rest between and
    # after them, so that the median spans the whole run even when a run
    # holds a single long sample.
    for _ in range(MIN_SETUPS // 2 if args.trace == 0 else 0):
        probe()
    t0 = time.perf_counter()
    while attempted == 0 or time.perf_counter() - t0 < args.seconds:
        if args.trace == 0:
            probe()
            attempt("run")
        else:
            attempt("run")
            attempt("trace")
    while args.trace == 0 and len(runner.setups) < MIN_SETUPS and not problems:
        probe()

    metrics = {}
    if args.trace == 0 and plain and runner.setups:
        metrics = {
            "wall_s": metric(statistics.median(r["wall_s"] for r in plain), "s"),
            "setup_s": metric(statistics.median(runner.setups), "s"),
            "peak_rss_mb": metric(statistics.median(r["rss_kb"] for r in plain) / 1024.0, "MB"),
        }
    elif args.trace == 1 and traced:
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            exact = all(isinstance(v, int) for v in values)  # counts stay whole
            value = (statistics.median_low if exact else statistics.median)(values)
            metrics[name] = metric(value, tracer.UNITS[name])
        if plain:
            overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                r["wall_s"] for r in plain
            )
            print(f"tracing overhead: {overhead:.3f} s on wall_s")

    for line in problems:
        sys.stderr.write(f"perfbench: {line}\n")
    for name, m in metrics.items():
        print(f"{args.workload}/{name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {attempted} attempted, {failed} failed")
    result = {
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    raw = {
        "setup_s": runner.setups,
        "wall_s": [r["wall_s"] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
    }
    (out / "result.json").write_text(json.dumps({**result, "samples": raw}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
