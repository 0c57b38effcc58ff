"""Check that two source trees write the same bytes on the benchmark's stages.

    python3 tools/same_bytes.py A_SRC B_SRC [--seeds 7 11]

A_SRC and B_SRC are checkouts of the repository. For each seed and each workload of `bench/run.py`, every
stage, set-up probe and gate fit that `bench/run.stage_args` lists is run
as its own `python3 -m semvb.cli` process, once on each tree, in a fresh
directory per tree. After them, `semvb summarize` reads each pipeline fit's
`samples.csv` and writes `<fit>.summarize/summary.csv`. Then, so that the
order of W's triples is shown not to reach an artifact, each `weights.csv`
that a probe reads is copied with its triple rows in reverse order
(`reversed/<dataset>.simulate/weights.csv`, next to the repeat directory),
and every probe runs again on that copy into `<fit>.probe.reversed`. The
two directories are then compared file by file, in sorted order, and the
first file that differs (or exists on one side only) is named. Exit
status 0 means every artifact matched, 1 that one differed, 2 that a stage
failed. The outputs are kept, and their directory printed, unless every
artifact matched.
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
    rep.mkdir(parents=True, exist_ok=True)
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


def summarize_stages(stages, seed: int):
    """A `summarize` stage for each fit stage, reading its samples.csv."""
    return [(f"{fit}.summarize",
             ["summarize", "--seed", str(seed), "--threads", "1",
              "--samples", f"{stage}/samples.csv",
              "--out-dir", f"{fit}.summarize"])
            for stage, args in stages if args[0] == "fit"
            for fit in [stage.rsplit(".", 1)[0]]]


def reversed_probes(probes):
    """Each probe again, on a copy of its weights file with the triples in
    reverse order: ({weights file: its copy}, the jobs), with paths
    relative to the repeat directory."""
    copies, jobs = {}, []
    for stage, args in probes:
        args = list(args)
        at = args.index("--weights") + 1
        copy = copies.setdefault(args[at], f"../reversed/{args[at]}")
        args[at] = copy
        out = args.index("--out-dir") + 1
        args[out] += ".reversed"
        jobs.append((f"{stage}.reversed", args))
    return copies, jobs


def write_reversed(rep: Path, copies) -> None:
    """Write each copy: the size line and the header of its weights file,
    then the file's triple rows in reverse order."""
    for source, copy in copies.items():
        lines = (rep / source).read_bytes().splitlines(keepends=True)
        target = rep / copy
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(b"".join(lines[:2] + lines[:1:-1]))


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
            jobs = stages + probes + gates + summarize_stages(stages, seed)
            copies, again = reversed_probes(probes)
            case = f"{name}-seed{seed}"
            for side, src in trees.items():
                top = work / side / case
                if not run_stages(src, jobs, top):
                    return 2
                write_reversed(top / "rep", copies)
                if not run_stages(src, again, top):
                    return 2
            diff = first_difference(work / "A" / case, work / "B" / case)
            if diff is not None:
                print(f"{case}: {diff} differs")
                return 1
            print(f"{case}: {len(jobs)} stages and {len(again)} probes on "
                  f"reversed weights, every file the same")
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
