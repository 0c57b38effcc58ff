"""Tests of the benchmark's own code: the span tracer and the metric lists.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import run
import tracer

ROOT = Path(__file__).resolve().parents[1]


def test_self_time_is_duration_minus_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    leaf = t.wrap("leaf", lambda: None)
    a = t.wrap("a", lambda: None)
    b = t.wrap("b", lambda: leaf())

    def body():
        a()
        b()
    t.wrap("outer", body)()

    assert [s[0] for s in t.spans] == ["outer", "a", "b", "leaf"]
    assert [s[3] for s in t.spans] == [-1, 0, 0, 2]
    summary = tracer.summarize(t.spans)
    assert summary["outer"]["total_s"] == 10.0
    assert summary["outer"]["self_s"] == 10.0 - 2.0 - 4.0
    assert summary["a"]["self_s"] == 2.0
    assert summary["b"]["self_s"] == 4.0 - 1.0
    assert summary["leaf"]["self_s"] == 1.0
    assert tracer.median_ms(summary["b"]["durations"]) == 4000.0


def test_spans_close_when_the_call_raises():
    ticks = iter([0.0, 2.0])
    t = tracer.Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("x")
    try:
        t.wrap("boom", boom)()
    except ValueError:
        pass
    assert t.spans == [["boom", 0.0, 2.0, -1]]


def _semvb(cwd: Path, args: list[str], spans: Path | None = None) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    head = ([sys.executable, "-m", "semvb.cli"] if spans is None else
            [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans)])
    subprocess.run(head + args, cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=300)


def _tree(top: Path) -> dict[str, bytes]:
    return {str(p.relative_to(top)): p.read_bytes()
            for p in sorted(top.rglob("*")) if p.is_file()}


def test_tracer_leaves_artifacts_unchanged(tmp_path):
    data = run.Dataset("d", "yj-sem-gau", 5, missing=True)
    fit = run.Fit("allb", data, "hvb", max_iters=15, n_draws=5, kernel="allb")
    stages, _, _ = run.stage_args((fit,), seed=3)
    plain, traced, spans = (tmp_path / d for d in ("plain", "traced", "spans"))
    for d in (plain, traced, spans):
        d.mkdir()
    for name, args in stages:
        _semvb(plain, args)
        _semvb(traced, args, spans / f"{name}.json")

    assert _tree(plain) == _tree(traced)
    fit = json.loads((spans / "allb.fit.json").read_text())
    summary = tracer.summarize(fit)
    assert summary[tracer.ROOT_SPAN]["calls"] == 1
    for name in ("hvb.hvb_fit", "hvb.mcmc_allb", "variational.init_lambda",
                 "spatial.conditional_gaussian", "likelihoods.log_p_m",
                 "gradients.grad_log_h_missing", tracer.EIGEN_SPAN):
        assert summary[name]["calls"] > 0, name
    # bound by name in gradients, not only in spatial
    parents = {fit[p][0] for name, _, _, p in fit
               if name == "spatial.trace_AinvW"}
    assert parents == {"gradients.grad_log_h_missing"}


def test_benchmark_json_names_the_runner_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
