"""semvb benchmark: the CLI pipeline simulate -> [amputate ->] fit -> dic.

Run from the repository root:

    python3 bench/run.py --workload dense-t900-nob625 --seed 1 --seconds 60 --trace 0

A workload is two fits, each followed by the DIC of its samples; a dataset
is simulated (and amputated) once per repeat for every fit that uses it.
Each stage is its own `python3 -m semvb.cli ... --threads 1` process, started
one after another from this process: a closed loop with one client. A run
repeats the pipeline until --seconds would be exceeded (at least twice) and
checks every repeat's outputs. With --trace 0 the last stdout line holds the
end-to-end metrics, medians over the repeats; with --trace 1 it holds the
per-layer metrics of a traced run (bench/tracer.py). bench/README.md names
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"

MIN_REPEATS = 2
# A run must end within 180 s; stop starting stages well before that.
HARD_LIMIT_S = 150.0


@dataclass(frozen=True)
class Dataset:
    """A simulated dataset, amputated or not, that a workload's fits share."""
    name: str
    kind: str
    side: int               # rook lattice side; n = side**2
    # simulate --beta; None keeps the seed-drawn preset
    beta: str | None = None
    missing: bool = False   # amputate before fitting


@dataclass(frozen=True)
class Fit:
    """One `semvb fit` of a dataset and the `semvb dic` of its samples."""
    name: str
    data: Dataset
    method: str             # vb | hvb
    max_iters: int
    n_draws: int
    kernel: str | None = None
    # posterior means that must land within tol of the simulated truth
    close: tuple[tuple[str, float, float], ...] = ()
    psi_y_negative: bool = False
    # When set, the recovery checks above apply to one untimed fit per run
    # with this many iterations, not to the timed fits.
    gate_iters: int | None = None


# Why each workload exists is recorded in bench/README.md and BENCHMARK.json.
# One workload takes the dense paths (eigen log-det, one dense MH
# conditional), the other the sparse ones (LU log-det past the eigen cap,
# blocked MH). Every stage process is kept to about 0.5-3.5 s, so that a 60 s
# run holds five or more repeats to take the median of; see bench/README.md.
# The missing-data set fixes beta. With the seed-drawn preset, the number of
# missing sites, which sets the MH kernels' cost, ranged 232-370 of 625 over
# seeds; with this beta it stayed within 287-329 on seeds 0-35.
HVB_BETA = "-1,2,-3,1,3,-2"
T900 = Dataset("t900", "yj-sem-t", 30)
# 46**2 = 2116 is the smallest square lattice past spatial._EIGEN_MAX_N
GAU2116 = Dataset("gau2116", "sem-gau", 46)
MISS625 = Dataset("miss625", "yj-sem-gau", 25, beta=HVB_BETA, missing=True)
WORKLOADS = {
    "dense-t900-nob625": (
        Fit("t900", T900, "vb", max_iters=600, n_draws=100,
            close=(("rho", 0.8, 0.1), ("gamma", 1.25, 0.1))),
        # nob needs about 800 iterations to recover rho; a timed fit that
        # long would hold a run to a few repeats. Criterion 6's 0.12 on rho
        # allows two misses in ten seeds, and this check is per seed: seed
        # 401's data put the converged posterior mean at 0.66 (800, 1600
        # and 2400 iterations alike), so the tolerance is 0.2.
        Fit("nob", MISS625, "hvb", max_iters=200, n_draws=50, kernel="nob",
            close=(("rho", 0.8, 0.2),), psi_y_negative=True,
            gate_iters=800),
    ),
    "sparse-gau2116-allb625": (
        Fit("gau2116", GAU2116, "vb", max_iters=2, n_draws=10),
        Fit("allb", MISS625, "hvb", max_iters=5, n_draws=5, kernel="allb"),
    ),
}
FITS = [f for fits in WORKLOADS.values() for f in fits]

END_TO_END = {
    "pipeline_s": "s", "setup_s": "s", "fit_s": "s", "dic_s": "s",
    "fit_peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.TRACED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.ms_p50"] = "ms"
    units["spatial.eigenvalues.s"] = "s"
    for f in FITS:
        units[f"fit.{f.name}.ms_per_iter"] = "ms"
        units[f"fit.{f.name}.n_iters"] = "count"
        if f.method == "hvb":
            units[f"fit.{f.name}.accept_ratio"] = "ratio"
    units.update({
        "io.bytes_written": "bytes",
        "cli.overhead_s": "s",
        "trace_overhead_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()


def stage_args(fits, seed: int):
    """The pipeline's (stage, semvb arguments), the set-up probes and gates.

    A stage is named `<dataset or fit>.<step>` and writes into the directory
    of that name. Paths are relative to the repeat directory, so the
    artifacts (manifests name their inputs) are the same bytes in every
    repeat. Probes and gate fits write next to the repeat directory, out of
    the trees that are byte-compared.
    """
    common = ["--seed", str(seed), "--threads", "1"]
    stages, probes, gates, made = [], [], [], set()
    for f in fits:
        d = f.data
        sim = f"{d.name}.simulate"
        data = f"{sim}/dataset.csv"
        if d.name not in made:
            made.add(d.name)
            side = str(d.side)
            args = ["simulate", *common, "--kind", d.kind,
                    "--lattice-rows", side, "--lattice-cols", side,
                    "--out-dir", sim]
            if d.beta:
                args.append(f"--beta={d.beta}")
            stages.append((sim, args))
            if d.missing:
                stages.append((f"{d.name}.amputate",
                               ["amputate", *common, "--data", data,
                                "--out-dir", f"{d.name}.amputate"]))
        if d.missing:
            data = f"{d.name}.amputate/amputated.csv"
        inputs = ["--data", data, "--weights", f"{sim}/weights.csv"]
        fit = ["fit", *common, *inputs, "--kind", d.kind, "--method", f.method]
        if f.kernel:
            fit += ["--kernel", f.kernel]
        stages.append((f"{f.name}.fit",
                       fit + ["--max-iters", str(f.max_iters),
                              "--n-draws", str(f.n_draws),
                              "--out-dir", f"{f.name}.fit"]))
        stages.append((f"{f.name}.dic",
                       ["dic", *common, *inputs,
                        "--models", f"{d.kind}={f.name}.fit/samples.csv",
                        "--out-dir", f"{f.name}.dic"]))
        # --n-draws 0 would crash in io.write_summary, so the probe takes
        # one; its artifacts stay out of the repeat directory that is
        # byte-compared
        probes.append((f"{f.name}.probe",
                       fit + ["--max-iters", "0", "--n-draws", "1",
                              "--out-dir", f"../{f.name}.probe"]))
        if f.gate_iters:
            gates.append((f"{f.name}.gate",
                          fit + ["--max-iters", str(f.gate_iters),
                                 "--n-draws", str(f.n_draws),
                                 "--out-dir", f"../{f.name}.gate"]))
    return stages, probes, gates


def _step(stage: str) -> str:
    return stage.rsplit(".", 1)[1]


@dataclass
class Repeat:
    traced: bool
    wall: dict[str, float] = field(default_factory=dict)
    probe_s: dict[str, float] = field(default_factory=dict)
    gate_s: dict[str, float] = field(default_factory=dict)
    fit_rss_mb: float = 0.0
    failed: dict[str, list[str]] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    spans: dict[str, dict] = field(default_factory=dict)  # stage -> summary

    def fail(self, stage: str, why: str) -> None:
        self.failed.setdefault(stage, []).append(why)

    @property
    def complete(self) -> bool:
        return not self.failed

    @property
    def pipeline_s(self) -> float:
        return sum(self.wall.values())

    def step_s(self, step: str) -> float:
        return sum(t for s, t in self.wall.items() if _step(s) == step)

    @property
    def setup_s(self) -> float | None:
        return sum(self.probe_s.values()) if self.probe_s else None


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _read_keyvalues(path: Path) -> dict[str, str]:
    with open(path) as f:
        return dict(line.rstrip("\n").split("=", 1)
                    for line in f if "=" in line)


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _hash_tree(top: Path) -> dict[str, str]:
    return {str(p.relative_to(top)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(top.rglob("*")) if p.is_file()}


class Bench:
    def __init__(self, name: str, seed: int, seconds: int):
        self.name = name
        self.fits = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.t0 = time.monotonic()
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "logs").mkdir(parents=True)
        (self.work / "spans").mkdir()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = (src + os.pathsep + self.env["PYTHONPATH"]
                                  if self.env.get("PYTHONPATH") else src)
        self.stages, self.probes, self.gates = stage_args(self.fits, seed)
        self.attempted = 0
        self.repeats: list[Repeat] = []

    def _spawn(self, args: list[str], log: Path, spans: Path | None,
               cwd: Path) -> tuple[int, float, float]:
        """Run one semvb process; returns (exit code, wall s, peak RSS MB)."""
        argv = ([sys.executable, "-m", "semvb.cli"] if spans is None
                else [sys.executable, str(BENCH_DIR / "tracer.py"),
                      str(spans)]) + args
        remaining = self.t0 + HARD_LIMIT_S - time.monotonic()
        self.attempted += 1
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(max(remaining, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def run_repeat(self, traced: bool, with_probe: bool) -> Repeat:
        """One pass of the pipeline; the first also runs the gate fits."""
        k = len(self.repeats)
        rep = Repeat(traced=traced)
        self.repeats.append(rep)
        rep_dir = self.work / "rep"
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir()
        jobs = (self.stages + (self.probes if with_probe else [])
                + (self.gates if k == 0 else []))
        for stage, args in jobs:
            tag = f"{k}-{stage}"
            spans = (self.work / "spans" / f"{tag}.json"
                     if traced and _step(stage) != "gate" else None)
            rc, wall, rss = self._spawn(args, self.work / "logs" / f"{tag}.log",
                                        spans, rep_dir)
            {"probe": rep.probe_s, "gate": rep.gate_s}.get(
                _step(stage), rep.wall)[stage] = wall
            if _step(stage) == "fit":
                rep.fit_rss_mb = max(rep.fit_rss_mb, rss)
            if rc != 0:
                rep.fail(stage, f"exit code {rc}")
                return rep
            if spans is not None:
                rep.spans[stage] = tracer.summarize(json.loads(spans.read_text()))
        for f in self.fits:
            try:
                self._check_outputs(rep, rep_dir, f)
            except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
                rep.fail(f"{f.name}.fit",
                         f"unreadable or incomplete output: {exc!r}")
        rep.hashes = _hash_tree(rep_dir)
        return rep

    def _check_means(self, rep: Repeat, stage: str, fit_dir: Path, f: Fit,
                     recovery: bool) -> None:
        means = {row["param"]: row["mean"]
                 for row in _read_csv(fit_dir / "summary.csv")}
        bad = [p for p, v in means.items() if not _finite(v)]
        if bad:
            rep.fail(stage, f"non-finite posterior means: {bad[:5]}")
        if not recovery:
            return
        for param, target, tol in f.close:
            value = float(means[param])
            if not abs(value - target) <= tol:
                rep.fail(stage, f"mean {param} = {value:.4f}, "
                                f"not within {tol} of {target}")
        if f.psi_y_negative and not float(means["psi_y"]) < 0:
            rep.fail(stage, f"mean psi_y = {means['psi_y']} is not < 0")

    def _check_outputs(self, rep: Repeat, rep_dir: Path, f: Fit) -> None:
        stage = f"{f.name}.fit"
        fit_dir = rep_dir / stage
        self._check_means(rep, stage, fit_dir, f, recovery=not f.gate_iters)
        gate = f"{f.name}.gate"
        if gate in rep.gate_s:
            self._check_means(rep, gate, rep_dir.parent / gate, f,
                              recovery=True)
        rep.counts[f"{f.name}.n_iters"] = int(
            _read_keyvalues(fit_dir / "manifest.txt")["n_iters"])
        rep.counts[f"{f.name}.bytes_written"] = sum(
            p.stat().st_size for p in fit_dir.iterdir() if p.is_file())
        if f.method == "hvb":
            rows = _read_csv(fit_dir / "acceptance.csv")
            ratio = (sum(int(r["accepts"]) for r in rows)
                     / sum(int(r["proposals"]) for r in rows))
            rep.counts[f"{f.name}.accept_ratio"] = ratio
            if not 0.0 < ratio < 1.0:
                rep.fail(stage, f"acceptance ratio {ratio} outside (0, 1)")
        columns = ("dic5",) if f.method == "hvb" else ("dic1", "dic2")
        for row in _read_csv(rep_dir / f"{f.name}.dic" / "dic.csv"):
            bad = [c for c in columns if not _finite(row[c])]
            if bad:
                rep.fail(f"{f.name}.dic",
                         f"non-finite {bad} for {row['model']}")

    def check_repeats(self) -> None:
        """Artifacts byte-identical and counts equal across every repeat."""
        done = [r for r in self.repeats if r.complete]
        if not done:
            return
        ref = done[0]
        first_traced = next((r for r in done if r.traced), None)
        for rep in done[1:]:
            for path in sorted(set(ref.hashes) | set(rep.hashes)):
                if ref.hashes.get(path) != rep.hashes.get(path):
                    # every stage writes into the directory named after it
                    rep.fail(path.split(os.sep, 1)[0],
                             f"{path} differs from the first repeat")
            for key, value in rep.counts.items():
                if ref.counts.get(key) != value:
                    rep.fail(f"{key.split('.', 1)[0]}.fit",
                             f"{key} = {value}, first repeat "
                             f"{ref.counts.get(key)}")
            if rep.traced and rep is not first_traced:
                for stage, summary in rep.spans.items():
                    calls = {n: e["calls"] for n, e in summary.items()}
                    want = {n: e["calls"] for n, e in
                            first_traced.spans[stage].items()}
                    if calls != want:
                        diff = sorted(n for n in set(calls) | set(want)
                                      if calls.get(n) != want.get(n))
                        rep.fail(stage, f"span calls differ from the first "
                                        f"traced repeat: {diff}")

    def measure(self, traced: bool) -> None:
        """Repeat the pipeline while another repeat fits in --seconds."""
        while True:
            t = time.monotonic()
            # set-up probes on every other repeat, from the first
            probe = not traced and len(self.repeats) % 2 == 0
            rep = self.run_repeat(traced, with_probe=probe)
            now = time.monotonic()
            cost = now - t
            print(f"[{self.name}] repeat {len(self.repeats) - 1}"
                  f"{' traced' if traced else ''}: pipeline "
                  f"{rep.pipeline_s:.3f} s "
                  + " ".join(f"{s}={v:.3f}" for s, v in rep.wall.items())
                  + (f" setup={rep.setup_s:.3f}" if rep.setup_s else "")
                  + "".join(f" {s}={v:.3f}" for s, v in rep.gate_s.items())
                  + (f" FAILED {rep.failed}" if rep.failed else ""),
                  file=sys.stderr)
            n = sum(1 for r in self.repeats if r.traced == traced)
            if not rep.complete or now - self.t0 + cost > HARD_LIMIT_S:
                break
            if n >= MIN_REPEATS and now - self.t0 + cost > self.seconds:
                break

    @property
    def failed(self) -> int:
        return sum(len(r.failed) for r in self.repeats)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(reps: list[Repeat]) -> dict[str, float | None]:
    """Medians over the complete repeats; stage times summed per repeat."""
    reps = [r for r in reps if r.complete]
    return {
        "pipeline_s": _median(r.pipeline_s for r in reps),
        "setup_s": _median(r.setup_s for r in reps),
        "fit_s": _median(r.step_s("fit") for r in reps),
        "dic_s": _median(r.step_s("dic") for r in reps),
        "fit_peak_rss_mb": _median(r.fit_rss_mb for r in reps),
    }


def _merged(rep: Repeat) -> dict[str, dict]:
    """Span summaries of all stages of one repeat, pooled by name."""
    out: dict[str, dict] = {}
    for summary in rep.spans.values():
        for name, e in summary.items():
            m = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "durations": []})
            for key in ("calls", "total_s", "self_s"):
                m[key] += e[key]
            m["durations"] += e["durations"]
    return out


def _ms_per_iter(rep: Repeat, f: Fit) -> float:
    """Fit duration outside init_lambda, per SGA iteration, in ms."""
    fit = rep.spans[f"{f.name}.fit"]
    span = "variational.vb_fit" if f.method == "vb" else "hvb.hvb_fit"
    init = fit.get("variational.init_lambda", {"total_s": 0.0})
    return (1000.0 * (fit[span]["total_s"] - init["total_s"])
            / rep.counts[f"{f.name}.n_iters"])


def per_layer(fits, untraced: Repeat,
              traced: list[Repeat]) -> dict[str, float]:
    traced = [r for r in traced if r.complete]
    merged = [_merged(r) for r in traced]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []}
    out: dict[str, float] = {}
    for name in tracer.TRACED_NAMES:
        entries = [m.get(name, empty) for m in merged]
        out[f"{name}.calls"] = entries[0]["calls"]
        out[f"{name}.self_s"] = statistics.median(e["self_s"] for e in entries)
        out[f"{name}.ms_p50"] = statistics.median(
            tracer.median_ms(e["durations"]) for e in entries)
    out["spatial.eigenvalues.s"] = statistics.median(
        m.get(tracer.EIGEN_SPAN, empty)["total_s"] for m in merged)
    # fits of the other workload read 0
    for name in PER_LAYER:
        if name.startswith("fit."):
            out[name] = 0.0
    first = traced[0]
    for f in fits:
        out[f"fit.{f.name}.ms_per_iter"] = statistics.median(
            _ms_per_iter(r, f) for r in traced)
        out[f"fit.{f.name}.n_iters"] = first.counts[f"{f.name}.n_iters"]
        if f.method == "hvb":
            out[f"fit.{f.name}.accept_ratio"] = (
                first.counts[f"{f.name}.accept_ratio"])
    out["io.bytes_written"] = sum(first.counts[f"{f.name}.bytes_written"]
                                  for f in fits)
    out["cli.overhead_s"] = statistics.median(
        sum(r.wall[s] - r.spans[s][tracer.ROOT_SPAN]["total_s"]
            for s in r.wall) for r in traced)
    out["trace_overhead_s"] = (
        statistics.median(r.pipeline_s for r in traced) - untraced.pipeline_s)
    return out


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(bench: Bench, trace: int) -> dict:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": bench.name, "seed": bench.seed, "seconds": bench.seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": 1, "git_sha": _git_sha(),
        "repeats": sum(1 for r in bench.repeats if r.complete),
        "traced_repeats": sum(1 for r in bench.repeats
                              if r.complete and r.traced),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "semvb" / "cli.py").is_file():
        print(f"error: no semvb source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    import compileall
    # bytecode is built before timing, so no repeat pays for it
    compileall.compile_dir(str(ROOT / "src" / "semvb"), quiet=1)

    bench = Bench(args.workload, args.seed, args.seconds)
    if args.trace:
        untraced = bench.run_repeat(traced=False, with_probe=False)
        if untraced.complete:
            bench.measure(traced=True)
    else:
        bench.measure(traced=False)
    bench.check_repeats()

    failures = {f"repeat {k} {stage}": why
                for k, r in enumerate(bench.repeats)
                for stage, why in r.failed.items()}
    for where, why in failures.items():
        print(f"[{bench.name}] FAILED {where}: {'; '.join(why)}",
              file=sys.stderr)
    correct = not failures
    if args.trace:
        values = (per_layer(bench.fits, bench.repeats[0],
                            bench.repeats[1:])
                  if correct else dict.fromkeys(PER_LAYER))
        units = PER_LAYER
    else:
        values = end_to_end(bench.repeats)
        units = END_TO_END
    context = run_context(bench, args.trace)
    report = {"context": context, "failures": failures,
              "repeats": [{"traced": r.traced, "wall": r.wall,
                           "probe_s": r.probe_s, "gate_s": r.gate_s,
                           "fit_rss_mb": r.fit_rss_mb,
                           "counts": r.counts, "failed": r.failed,
                           "spans": {s: {n: {k: v for k, v in e.items()
                                             if k != "durations"}
                                         for n, e in summ.items()}
                                     for s, summ in r.spans.items()}}
                          for r in bench.repeats]}
    (bench.work / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
