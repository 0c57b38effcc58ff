"""Flat key=value text: manifests and config files.

Kept apart from `io` so that the command line can read a config file, and
pin BLAS thread counts from it, before numpy is imported.
"""

from __future__ import annotations

from .errors import DataFormatError

__all__ = ["write_manifest", "read_keyvalues"]


def write_manifest(path, entries: dict) -> None:
    """Plain-text key=value lines in insertion order."""
    with open(path, "w", newline="") as f:
        for key, value in entries.items():
            f.write(f"{key}={value}\n")


def read_keyvalues(path) -> dict[str, str]:
    """Flat key=value parser shared by manifests and config files."""
    out: dict[str, str] = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{ln}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out
