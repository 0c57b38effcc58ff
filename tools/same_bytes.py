"""Check that two source trees write the same bytes on the benchmark's stages.

    python3 tools/same_bytes.py A_SRC B_SRC [--seeds 7 11]

A_SRC and B_SRC are checkouts of the repository. For each seed and each workload of `bench/run.py`, every
stage, set-up probe and gate fit that `bench/run.stage_args` lists is run
as its own `python3 -m semvb.cli` process, once on each tree, in a fresh
directory per tree. The two directories are then compared file by file, in
sorted order, and the first file that differs (or exists on one side only)
is named. Exit status 0 means every artifact matched, 1 that one differed,
2 that a stage failed. The outputs are kept, and their directory printed,
unless every artifact matched.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402  (bench/run.py: the stage lists)


def source_dir(tree: str) -> Path:
    """The `src` directory of a checkout."""
    src = Path(tree).resolve() / "src"
    if not (src / "semvb" / "cli.py").is_file():
        raise SystemExit(f"error: no src/semvb package in {tree}")
    return src


def run_stages(src: Path, jobs, top: Path) -> bool:
    """Run every (stage, args) in order from top/rep, as bench/run.py does:
    stages write inside rep, probes and gates next to it. False, with the
    failing stage's stderr printed, if one exits non-zero."""
    rep = top / "rep"
    rep.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    for stage, args in jobs:
        proc = subprocess.run([sys.executable, "-m", "semvb.cli", *args],
                              cwd=rep, env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            print(f"{src}: stage {stage} exited {proc.returncode}\n"
                  f"{proc.stderr}", file=sys.stderr)
            return False
    return True


def first_difference(a: Path, b: Path) -> str | None:
    """The first relative path, in sorted order, whose bytes differ."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            return f"{rel} (only in {'B' if rel in files_b else 'A'})"
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            return str(rel)
    return None


def compare(trees: dict[str, Path], seeds: list[int], work: Path) -> int:
    """Run and compare every case under work; the exit status of main."""
    for seed in seeds:
        for name, fits in run.WORKLOADS.items():
            stages, probes, gates = run.stage_args(fits, seed)
            case = f"{name}-seed{seed}"
            for side, src in trees.items():
                if not run_stages(src, stages + probes + gates,
                                  work / side / case):
                    return 2
            diff = first_difference(work / "A" / case, work / "B" / case)
            if diff is not None:
                print(f"{case}: {diff} differs")
                return 1
            n = len(stages) + len(probes) + len(gates)
            print(f"{case}: {n} stages, every file the same")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a_src")
    p.add_argument("b_src")
    p.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    args = p.parse_args(argv)
    trees = {"A": source_dir(args.a_src), "B": source_dir(args.b_src)}
    work = Path(tempfile.mkdtemp(prefix="same_bytes_"))
    status = compare(trees, args.seeds, work)
    if status == 0:
        shutil.rmtree(work)
    else:
        print(f"outputs kept in {work}")
    return status


if __name__ == "__main__":
    sys.exit(main())
