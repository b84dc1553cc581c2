"""Golden CLI outputs: stdout, stderr and exit code, byte for byte.

Each case runs `cli.main(argv)` in process from the repository root and
compares against `tests/golden_cli.json`. The file was captured from a
known-good build; refresh it only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from stochprobe import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

SMALL = ("data/small_weighted.json", "data/small_deadline.json")
# Above the path-enumeration cap: `greedy` falls back to Monte Carlo.
APPENDIX = (
    "data/appendix_probability_ordering_n10.json",
    "data/appendix_product_ordering_n10.json",
    "data/appendix_weight_ordering_n10.json",
)
AUCTIONS = ("data/spm_matching_k2.json", "data/spm_uniform_k1.json")
TIGHTNESS = "data/tightness_blocks7.json"


def _cases() -> list[tuple[str, ...]]:
    cases = []
    for path in SMALL + APPENDIX:
        trials = ("--trials", "300") if path in APPENDIX else ()
        cases.append(("greedy", "--instance", path) + trials)
        for command in ("greedy-deadline", "lp", "oracle", "certify"):
            cases.append((command, "--instance", path))
        cases.append(("certify", "--instance", path, "--format", "text"))
        for command in ("round", "simulate", "verify-cr"):
            cases.append((command, "--instance", path, "--trials", "300"))
    for path in AUCTIONS:
        cases.append(("spm", "--instance", path))
    cases.append(("greedy", "--instance", TIGHTNESS, "--trials", "200"))
    cases.append(("lp", "--instance", TIGHTNESS))
    cases.append(("certify", "--instance", TIGHTNESS))
    return cases


CASES = _cases()


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) for a in CASES])
def test_cli_output_matches_golden(argv):
    assert _run(argv) == _golden()[" ".join(argv)]


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(" ".join(a) for a in CASES)


if __name__ == "__main__":
    captured = {" ".join(argv): _run(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
