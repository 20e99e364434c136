"""Benchmark of the lorafreq CLI, end to end and per module.

    python3 perfbench/run.py --workload bert-768x12-r8 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, untraced and traced

Run it from anywhere inside a checkout; it runs the package from the
checkout's src/ directory and writes only under perfbench/.work/.

--trace 0: `lorafreq synth` builds the workload's input from the seed,
SETUP_REPS times (setup_s). Each command then runs as a fresh process with
--threads <usable cores>, timed, with its peak RSS from os.wait4. The first
pass is checked by the numpy/scipy oracle. After it, commands are rerun, the
one with the least summed time first, while the summed command time, first
pass included, stays within --seconds. Every output is hashed and must equal
the first pass and the first run of the same workload and seed in this
checkout. Each metric is the median of its samples.

--trace 1: one checked CLI pass, then the same work twice on one thread in a
separate process through the package's public functions: once without spans
(pipeline.serial_s) and once with them. The spans give the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and the
metrics of the chosen mode.

This process imports only the standard library. Linux carries a parent's peak
RSS into a forked child's ru_maxrss, so the parent must stay smaller than
every command it measures; the oracle and the traced passes run as children.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

from tracing import covered, self_times
from workloads import BY_NAME, DEGENERATE_EXIT, ENERGY_TARGET, MASK_K, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

SETUP_REPS = 3
IMPORT_REPS = 3
CHILD_TIMEOUT_S = 170.0
LAUNCH = "import sys; from lorafreq.cli import main; sys.exit(main())"
OUTPUTS = {
    "analyze": "analyze",
    "mask": "sparse.lf",
    "decompress": "dense.lf",
    "sweep": "sweep.csv",
    "correlate": "correlate.json",
}

# (name, unit, better). END_TO_END are the metrics every workload reports.
# TABLE_ONLY are printed too: correlate's exist only on the workloads that run
# it, and failed_ratio is carried by the result's `failed` / `attempted`.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("analyze_s", "s", "lower"),
    ("mask_s", "s", "lower"),
    ("decompress_s", "s", "lower"),
    ("sweep_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("analyze_rss_mb", "MB", "lower"),
    ("mask_rss_mb", "MB", "lower"),
    ("decompress_rss_mb", "MB", "lower"),
    ("sweep_rss_mb", "MB", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sparse_bytes_per_coef", "B", "lower"),
)
TABLE_ONLY = (
    ("correlate_s", "s", "lower"),
    ("correlate_rss_mb", "MB", "lower"),
    ("failed_ratio", "1", "lower"),
)
_LAYER_CALLS = (
    "container.read_container",
    "container.pair_lora",
    "container.merge_delta",
    "container.write_container",
    "container.tensor_record",
    "dct.dct2",
    "analysis.energy_curve",
    "analysis.k_for_energy",
    "analysis.topk_mask",
    "analysis.sweep",
    "analysis.dct_k90",
    "codec.encode_sparse",
    "codec.pack_sparse_file",
    "codec.unpack_sparse_file",
    "codec.decode_sparse",
    "stats.svd_k90",
    "stats.svd_dct_correlate",
    "report.analysis_report",
    "report.curve_points",
    "fixtures.generate_set",
)
_ALLOC_CALLS = (
    "container.merge_delta",
    "dct.dct2",
    "analysis.energy_curve",
    "analysis.topk_mask",
    "analysis.sweep",
    "codec.decode_sparse",
)
# (metric, span name, counter, scale, unit): counters summed over a workload.
_COUNTERS = (
    ("container.read_mb", "container.read_container", "bytes_in", 1e-6, "MB"),
    ("container.write_mb", "container.write_container", "bytes_out", 1e-6, "MB"),
    ("dct.dct2_mcoef", "dct.dct2", "coefficients", 1e-6, "Mcoef"),
    ("codec.kept_coef", "codec.encode_sparse", "kept", 1, "count"),
    ("analysis.sweep_points", "analysis.sweep", "points", 1, "count"),
    ("stats.svd_cells", "stats.svd_k90", "cells", 1, "count"),
)
PER_LAYER = (
    tuple((f"{name}_s", "s", "lower") for name in _LAYER_CALLS)
    + tuple((f"{name}_alloc_mb", "MB", "lower") for name in _ALLOC_CALLS)
    + tuple((metric, unit, "lower") for metric, _, _, _, unit in _COUNTERS)
    + (
        ("stats.svd_k90_max_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.parallel_speedup", "ratio", "higher"),
        ("pipeline.serial_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.coverage_ratio", "ratio", "higher"),
    )
)


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    code: int
    problems: list[str] = field(default_factory=list)


class Cli:
    """Runs Python children inside one directory with the checkout's src/ importable."""

    def __init__(self, cwd: Path, threads: int):
        self.cwd = cwd
        self.threads = threads
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(self, args: list[str], ok=(0,)) -> Sample:
        """Time one child; an exit code outside `ok` is a problem of the sample."""
        with open(self.cwd / "child.out", "wb") as out, open(self.cwd / "child.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.cwd, env=self.env, stdout=out, stderr=err
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode)
        if proc.returncode not in ok:
            tail = (self.cwd / "child.err").read_text(errors="replace")[-600:].strip()
            sample.problems.append(f"{' '.join(args[2:4])} exit {proc.returncode}: {tail}")
        return sample

    def command(self, name: str, argv: list[str]) -> Sample:
        # correlate exits 6 on a constant k90 series; the oracle decides if that is right
        ok = (0, DEGENERATE_EXIT) if name == "correlate" else (0,)
        return self.run(["-c", LAUNCH, name, *argv, "--threads", str(self.threads)], ok)

    def script(self, name: str, request: dict) -> tuple[Sample, str]:
        """Run one of the benchmark's own scripts; returns its stdout too."""
        sample = self.run([str(BENCH_DIR / name), json.dumps(request)])
        return sample, (self.cwd / "child.out").read_text()


def command_argv(workload, command: str) -> list[str]:
    return {
        "analyze": ["input.lf", "--out", OUTPUTS["analyze"]],
        "mask": ["input.lf", "--k", f"{MASK_K:g}", "--out", OUTPUTS["mask"]],
        "decompress": [OUTPUTS["mask"], "--out", OUTPUTS["decompress"]],
        "sweep": ["input.lf", "--k-list", workload.sweep_k, "--out", OUTPUTS["sweep"]],
        "correlate": ["input.lf", "--out", OUTPUTS["correlate"]],
    }[command]


def digest(path: Path) -> str:
    """sha256 of a file's bytes, or of a directory's (name, bytes) sequence."""
    if not path.exists():
        return "absent"
    h = hashlib.sha256()
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    for f in files:
        if path.is_dir():
            h.update(f.name.encode() + b"\0")
        with open(f, "rb") as fh:
            while chunk := fh.read(1 << 22):
                h.update(chunk)
    return h.hexdigest()


class Run:
    """One workload at one seed: its directory, samples and failure accounting."""

    def __init__(self, workload, seed: int, threads: int):
        self.workload = workload
        self.seed = seed % 2**64
        self.dir = WORK / f"run-{workload.name}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cli = Cli(self.dir, threads)
        self.samples: dict[str, list[Sample]] = {}
        self.extra: list[Sample] = []  # checked work that is not a timed command
        self.reference: dict[str, str] = {}
        self.kept_coefficients = 0

    def setup(self) -> None:
        """Build the input SETUP_REPS times; every copy must be byte-identical.

        An untimed first build warms the interpreter, library and page caches,
        which a user's repeated invocations find warm too.
        """
        w = self.workload
        self.extra.append(self.cli.run(["-c", LAUNCH, *w.synth_args(self.seed, "warm.lf")]))
        (self.dir / "warm.lf").unlink(missing_ok=True)
        samples = self.samples["setup"] = []
        for i in range(SETUP_REPS):
            path = self.dir / f"input-{i}.lf"
            samples.append(self.cli.run(["-c", LAUNCH, *w.synth_args(self.seed, path.name)]))
            found = digest(path)
            if i == 0:
                self.reference["input"] = found
                path.replace(self.dir / "input.lf")
            else:
                if found != self.reference["input"]:
                    samples[i].problems.append("synth output differs from the first copy")
                path.unlink(missing_ok=True)

    def first_pass(self) -> None:
        """Each command once, checked by the oracle and against earlier runs."""
        w = self.workload
        for cmd in w.commands:
            self.samples[cmd] = [self.cli.command(cmd, command_argv(w, cmd))]
            self.reference[cmd] = digest(self.dir / OUTPUTS[cmd])
        request = {
            "input": str(self.dir / "input.lf"),
            "energy_target": ENERGY_TARGET,
            "mask_k": MASK_K,
            "sweep_k": w.sweep_k.split(","),
            "outputs": {
                cmd: (self.samples[cmd][0].code, str(self.dir / OUTPUTS[cmd]))
                for cmd in w.commands
            },
        }
        sample, out = self.cli.script("oracle.py", request)
        self.extra.append(sample)
        if sample.code == 0:
            verdict = json.loads(out.splitlines()[-1])
            self.kept_coefficients = verdict["kept_coefficients"]
            for cmd, found in verdict["problems"].items():
                self.samples[cmd][0].problems += found
        self._compare_with_first_run()

    def _compare_with_first_run(self) -> None:
        store = WORK / "digests" / f"{self.workload.name}-seed{self.seed}.json"
        if not store.exists():
            store.parent.mkdir(parents=True, exist_ok=True)
            store.write_text(json.dumps(self.reference, indent=1))
            return
        first = json.loads(store.read_text())
        for key, value in self.reference.items():
            if first.get(key) != value:
                target = self.samples["setup" if key == "input" else key][0]
                target.problems.append(f"{key} output differs from this seed's first run")

    def repeat_within(self, seconds: float) -> None:
        """Rerun commands, least summed time first, while the next one fits."""
        order = list(self.workload.commands)
        while True:
            spent = {c: sum(s.wall_s for s in self.samples[c]) for c in order}
            left = seconds - sum(spent.values())
            fits = [c for c in order if statistics.median(s.wall_s for s in self.samples[c]) <= left]
            if not fits:
                return
            cmd = min(fits, key=lambda c: (spent[c], order.index(c)))
            sample = self.cli.command(cmd, command_argv(self.workload, cmd))
            self.samples[cmd].append(sample)
            if digest(self.dir / OUTPUTS[cmd]) != self.reference[cmd]:
                sample.problems.append(f"{cmd} output differs from the first pass")

    def every_sample(self) -> list[Sample]:
        return [s for group in self.samples.values() for s in group] + self.extra

    def command_metrics(self) -> dict[str, float]:
        med = statistics.median
        commands = self.workload.commands
        metrics = {"setup_s": med(s.wall_s for s in self.samples["setup"])}
        for cmd in commands:
            metrics[f"{cmd}_s"] = med(s.wall_s for s in self.samples[cmd])
            metrics[f"{cmd}_rss_mb"] = med(s.rss_mb for s in self.samples[cmd])
        metrics["pipeline_s"] = sum(metrics[f"{c}_s"] for c in commands)
        metrics["peak_rss_mb"] = max(metrics[f"{c}_rss_mb"] for c in commands)
        sparse = self.dir / OUTPUTS["mask"]
        if sparse.exists() and self.kept_coefficients:
            metrics["sparse_bytes_per_coef"] = sparse.stat().st_size / self.kept_coefficients
        every = self.every_sample()
        metrics["failed_ratio"] = sum(1 for s in every if s.problems) / len(every)
        return metrics

    def result(self, metrics: dict, names, **detail) -> dict:
        every = self.every_sample()
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "correct": not any(s.problems for s in every),
            "attempted": len(every),
            "failed": sum(1 for s in every if s.problems),
            "problems": [p for s in every for p in s.problems],
            "all_metrics": metrics,
            "metrics": {
                name: {"value": metrics.get(name), "unit": unit} for name, unit, _ in names
            },
            **detail,
        }

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(workload, seed: int, seconds: float, threads: int) -> dict:
    """--trace 0: end-to-end metrics from fresh CLI processes."""
    run = Run(workload, seed, threads)
    try:
        run.setup()
        run.first_pass()
        run.repeat_within(seconds)
        metrics = run.command_metrics()
    finally:
        run.close()
    samples = {k: [(s.wall_s, s.rss_mb, s.code) for s in v] for k, v in run.samples.items()}
    return run.result(metrics, END_TO_END, samples=samples)


def trace(workload, seed: int, threads: int) -> dict:
    """--trace 1: per-layer metrics from spans around in-process public calls."""
    run = Run(workload, seed, threads)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans_path = traces / f"{workload.name}-seed{run.seed}.json"
    try:
        run.setup()
        run.first_pass()
        cli_metrics = run.command_metrics()
        imports = []
        for _ in range(IMPORT_REPS):
            run.extra.append(run.cli.run(["-c", "import lorafreq.cli"]))
            imports.append(run.extra[-1].wall_s)
        request = {
            "workload": asdict(workload),
            "seed": run.seed,
            "input": str(run.dir / "input.lf"),
            "dir": str(run.dir),
            "result": str(spans_path),
        }
        sample, _ = run.cli.script("pipeline.py", request)
        run.extra.append(sample)
    finally:
        run.close()
    metrics: dict = {}
    if sample.code == 0:
        traced = json.loads(spans_path.read_text())
        lo, hi = traced["traced_ns"]
        serial_s = (traced["serial_ns"][1] - traced["serial_ns"][0]) / 1e9
        import_s = statistics.median(imports)
        parallel_s = cli_metrics["pipeline_s"] - len(workload.commands) * import_s
        metrics = layer_metrics(traced["spans"], (lo, hi))
        metrics.update(
            {
                "cli.import_s": import_s,
                "cli.parallel_speedup": serial_s / parallel_s if parallel_s > 0 else None,
                "pipeline.serial_s": serial_s,
                "trace.overhead_ratio": (hi - lo) / 1e9 / serial_s - 1.0,
            }
        )
    return run.result(metrics, PER_LAYER, spans=str(spans_path), cli=cli_metrics)


def layer_metrics(spans: list[dict], bounds: tuple[int, int]) -> dict[str, float]:
    """Self times and counters summed per layer call; allocation peaks maxed."""
    own = self_times(spans)
    metrics: dict = {f"{name}_s": 0.0 for name in _LAYER_CALLS}
    metrics.update({f"{name}_alloc_mb": 0.0 for name in _ALLOC_CALLS})
    metrics["stats.svd_k90_max_s"] = 0.0
    for s in spans:
        name = s["name"]
        if f"{name}_s" in metrics:
            metrics[f"{name}_s"] += own[s["id"]] / 1e9
        if "alloc_bytes" in s:
            key = f"{name}_alloc_mb"
            metrics[key] = max(metrics[key], s["alloc_bytes"] / 1e6)
        if name == "stats.svd_k90":
            duration = (s["end_ns"] - s["start_ns"]) / 1e9
            metrics["stats.svd_k90_max_s"] = max(metrics["stats.svd_k90_max_s"], duration)
    for metric, name, counter, scale, _ in _COUNTERS:
        total = sum(s["counters"].get(counter, 0) for s in spans if s["name"] == name)
        metrics[metric] = total * scale
    lo, hi = bounds
    layer_spans = [
        (s["start_ns"], s["end_ns"])
        for s in spans
        if s["start_ns"] >= lo and not s["name"].startswith("command.")
    ]
    metrics["trace.coverage_ratio"] = covered(layer_spans, lo, hi) / (hi - lo)
    return metrics


def host_record() -> dict:
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max") or _cgroup_v1_quota(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e6,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": {
            k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS") or k == "OMP_DYNAMIC"
        },
        "byte_counts": "computed from file sizes, not measured memory traffic",
    }
    try:
        lscpu = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10,
            env={**os.environ, "LC_ALL": "C"},
        ).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            record[key.strip().lower().replace(" ", "_")] = value.strip()
    return record


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cgroup_v1_quota() -> str | None:
    """cgroup v1's quota and period, written like v2's cpu.max ("max" when unlimited)."""
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is None or period is None:
        return None
    return f"{'max' if quota == '-1' else quota} {period}"


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def print_rows(results: list[dict]) -> None:
    """End-to-end metrics: one row per workload, one column per metric."""
    names = END_TO_END + TABLE_ONLY
    heads = [f"{name}[{unit}]" for name, unit, _ in names]
    print("workload".ljust(18) + " ".join(heads))
    for res in results:
        cells = (_fmt(res["all_metrics"].get(n)).rjust(len(h)) for (n, _, _), h in zip(names, heads))
        print(res["workload"].ljust(18) + " ".join(cells))


def print_layers(results: list[dict]) -> None:
    """Per-layer metrics: one row per metric, one column per workload."""
    print("per-layer metric".ljust(34) + "unit".ljust(7) + "".join(r["workload"].rjust(18) for r in results))
    for name, unit, _ in PER_LAYER:
        cells = "".join(_fmt(r["all_metrics"].get(name)).rjust(18) for r in results)
        print(name.ljust(34) + unit.ljust(7) + cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *BY_NAME])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument(
        "--trace", type=int, choices=[0, 1], default=None,
        help="0: end-to-end metrics, 1: per-layer metrics [default: both]",
    )
    args = parser.parse_args(argv)
    if not (SRC / "lorafreq" / "cli.py").is_file():
        print(f"error: no lorafreq sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workloads = WORKLOADS if args.workload == "all" else (BY_NAME[args.workload],)
    modes = (0, 1) if args.trace is None else (args.trace,)
    threads = len(os.sched_getaffinity(0))
    host = host_record()
    print("host " + json.dumps(host))
    results: dict[int, list[dict]] = {0: [], 1: []}
    for workload in workloads:
        for mode in modes:
            if mode == 0:
                res = measure(workload, args.seed, args.seconds, threads)
            else:
                res = trace(workload, args.seed, threads)
            res["host"] = host
            results[mode].append(res)
            out = WORK / "results" / f"{workload.name}-seed{res['seed']}-trace{mode}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(res, indent=1))
            for problem in res["problems"]:
                print(f"FAILED {workload.name}: {problem}", file=sys.stderr)
    if results[0]:
        print_rows(results[0])
    if results[1]:
        print_layers(results[1])
    every = results[0] + results[1]
    summary = {
        "correct": all(r["correct"] for r in every),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
    }
    if len(every) == 1:
        summary["metrics"] = every[0]["metrics"]
    else:
        summary["metrics"] = {}
        for r in every:
            summary["metrics"].setdefault(r["workload"], {}).update(r["metrics"])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
