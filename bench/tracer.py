"""Run one semvb CLI command with spans around the package's public functions.

    python3 bench/tracer.py SPANS_JSON semvb-arguments...

The program under test is left untouched: before `semvb.cli.main` runs, each
function in TRACED is replaced, in every semvb module namespace that binds it,
by a wrapper that records a span. Modules import names directly
(`from .spatial import logdet_A`), so the wrapper has to be installed in each
namespace, not only in the defining module. The `SpatialWeights.eigenvalues`
cached property is wrapped as the span `spatial.eigenvalues`.

Spans are kept in memory as [name, start, end, parent] rows, parent being
the index of the enclosing span or -1, and written as JSON when the command
returns. `summarize` turns them into per-function counts and times.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
import sys
import time

# Defining module -> public functions that get a span.
TRACED = {
    "spatial": ("logdet_A", "trace_AinvW", "conditional_gaussian"),
    "gradients": ("grad_log_h_full", "grad_log_h_missing", "grad_log_q0"),
    "likelihoods": ("log_h_full", "log_h_missing", "loglik",
                    "marginal_loglik_t", "log_p_m"),
    "variational": ("sample_q", "log_q0", "reparam_grads", "adadelta_step",
                    "init_lambda", "vb_fit", "draw_posterior"),
    "hvb": ("mcmc_nob", "mcmc_allb", "hvb_fit", "draw_posterior_missing"),
    "model_select": ("dic1", "dic2", "dic5"),
    "io": ("read_dataset", "read_weights", "write_samples", "read_samples"),
    "simulate": ("simulate_sem",),
    "missingness": ("simulate_missing",),
}
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items()
                     for fn in fns)
EIGEN_SPAN = "spatial.eigenvalues"
ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.clock(), None,
                    self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
        return traced


def install(tracer: Tracer) -> None:
    """Replace every TRACED function, wherever semvb binds it, by a wrapper."""
    import semvb
    modules = [importlib.import_module(f"semvb.{m.name}")
               for m in pkgutil.iter_modules(semvb.__path__)]
    by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
    for home, names in TRACED.items():
        for fn_name in names:
            original = getattr(by_name[home], fn_name)
            wrapped = tracer.wrap(f"{home}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    prop = by_name["spatial"].SpatialWeights.__dict__["eigenvalues"]
    prop.func = tracer.wrap(EIGEN_SPAN, prop.func)


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and call durations.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - inner
        entry["durations"].append(end - start)
    return out


def median_ms(durations) -> float:
    return 1000.0 * statistics.median(durations) if durations else 0.0


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[1:]
    from semvb import cli
    cli._pin_threads(cli_argv)  # before install() brings numpy in
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap(ROOT_SPAN, cli.main)(cli_argv)
    finally:
        with open(spans_path, "w") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
