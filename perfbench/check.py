"""Output check: every op's result against a stored reference.

A result is the op's exit code, its CSV output and its stderr.  Numeric cells
and numeric tokens of comment and stderr lines must agree within ``REL_TOL``
relative; text cells, row and column counts and exit codes must match exactly.
Byte identity is too strict: results drift in the last digits with the BLAS
thread count.
"""

from __future__ import annotations

import gzip
import json
import re
from pathlib import Path

REL_TOL = 1e-12

_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_TOKEN_SPLIT = re.compile(r"([\s=,:()]+)")

REFS_DIR = Path(__file__).resolve().parent / "refs"


def ref_path(seed: int) -> Path:
    return REFS_DIR / f"seed{seed}.json.gz"


def load_refs(seed: int) -> dict:
    with gzip.open(ref_path(seed), "rt") as fh:
        return json.load(fh)


def save_refs(seed: int, refs: dict) -> None:
    REFS_DIR.mkdir(exist_ok=True)
    # mtime=0 keeps the file byte-identical across regenerations
    with open(ref_path(seed), "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(refs, indent=0, sort_keys=True).encode())


def result_record(exit_code: int, out: Path, stderr: str) -> dict:
    """The part of an op's outcome that is checked."""
    csv = out.read_text() if exit_code == 0 and out.is_file() else None
    return {"exit": exit_code, "csv": csv, "stderr": stderr.strip()}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _cell_diff(got: str, want: str) -> str | None:
    if _NUMBER.fullmatch(want) and _NUMBER.fullmatch(got):
        if not _close(float(got), float(want)):
            return f"{got} != {want}"
        return None
    return None if got == want else f"{got!r} != {want!r}"


def _line_diff(got: str, want: str) -> str | None:
    """Compare free text token by token, numbers within tolerance."""
    gt, wt = _TOKEN_SPLIT.split(got), _TOKEN_SPLIT.split(want)
    if len(gt) != len(wt):
        return f"{got!r} != {want!r}"
    for g, w in zip(gt, wt):
        if _cell_diff(g, w) is not None:
            return f"{got!r} != {want!r}"
    return None


def _split_csv(text: str) -> tuple[list[list[str]], list[str]]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    comments = [line for line in lines if line.startswith("#")]
    return rows, comments


def compare(got: dict, want: dict) -> list[str]:
    """Mismatches between an op's result record and its reference (empty if none)."""
    problems = []
    if got["exit"] != want["exit"]:
        problems.append(f"exit code {got['exit']} != {want['exit']}")
        return problems
    diff = _line_diff(got["stderr"], want["stderr"])
    if diff:
        problems.append(f"stderr: {diff}")
    if want["csv"] is None:
        return problems
    if got["csv"] is None:
        return problems + ["no output file"]
    rows, comments = _split_csv(got["csv"])
    want_rows, want_comments = _split_csv(want["csv"])
    if len(rows) != len(want_rows):
        problems.append(f"{len(rows)} lines != {len(want_rows)}")
    if len(comments) != len(want_comments):
        problems.append(f"{len(comments)} comment lines != {len(want_comments)}")
    for i, (row, want_row) in enumerate(zip(rows, want_rows)):
        if len(row) != len(want_row):
            problems.append(f"line {i}: {len(row)} cells != {len(want_row)}")
            continue
        for j, (cell, want_cell) in enumerate(zip(row, want_row)):
            diff = _cell_diff(cell, want_cell)
            if diff:
                problems.append(f"line {i} cell {j}: {diff}")
    for line, want_line in zip(comments, want_comments):
        diff = _line_diff(line, want_line)
        if diff:
            problems.append(f"comment: {diff}")
    return problems
