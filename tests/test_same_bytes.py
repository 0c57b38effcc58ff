"""tools/same_bytes.py's probes on weights files with their triples reversed."""

import importlib.util
from pathlib import Path

from semvb import io
from semvb.spatial import build_rook_lattice

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def test_reversed_probes_change_only_weights_and_out_dir():
    run = same_bytes.run
    for fits in run.WORKLOADS.values():
        _, probes, _ = run.stage_args(fits, 7)
        copies, jobs = same_bytes.reversed_probes(probes)
        assert len(jobs) == len(probes)
        for (stage, args), (again_stage, again) in zip(probes, jobs):
            assert again_stage == f"{stage}.reversed"
            changed = [k for k, (a, b) in enumerate(zip(args, again)) if a != b]
            assert [args[k - 1] for k in changed] == ["--weights", "--out-dir"]
            at = args.index("--weights") + 1
            assert again[at] == copies[args[at]]
            assert again[-1] == args[-1] + ".reversed"


def test_reversed_copy_reads_back_the_same_w(tmp_path):
    rep = tmp_path / "rep"
    copies = {"a.simulate/weights.csv": "../reversed/a.simulate/weights.csv"}
    W = build_rook_lattice(3, 4)
    (rep / "a.simulate").mkdir(parents=True)
    io.write_weights(rep / "a.simulate/weights.csv", W)
    same_bytes.write_reversed(rep, copies)
    lines = (rep / "a.simulate/weights.csv").read_bytes().splitlines()
    again = (tmp_path / "reversed/a.simulate/weights.csv").read_bytes()
    assert again.endswith(b"\n")
    again = again.splitlines()
    assert again[:2] == lines[:2] and again[2:] == lines[:1:-1]
    assert len(again) == 2 + W.weights.size
    W2 = io.read_weights(tmp_path / "reversed/a.simulate/weights.csv")
    for name in ("rows", "cols", "weights"):
        assert getattr(W2, name).tobytes() == getattr(W, name).tobytes()
