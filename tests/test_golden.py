"""The seeded reports of `cayleykit all` against committed golden files.

``tests/golden/all_seed<S>.json`` is the report of

    python -m cayleykit.cli all --seed <S> --json tests/golden/all_seed<S>.json --quiet

for S in 42, 1 and 7.  A change that moves a field of one of these reports
regenerates the file with that command, so the move shows in its diff.

Every check's name, claim, status and tolerance, the config, the summary
and the JSON type of every value must match exactly.  Residuals and
details must match to the last digit on the pinned stack, Python 3.11 with
numpy 2.4.6, where the whole file is compared byte for byte.  On any other
stack a float may differ by at most REL_BOUND times the largest of its two
values and the check's float tolerance: another BLAS or libm rounds
differently, and a residual of rounding size (1e-16 against a bound of
1e-8) may move by more than its own size, never by a share of its bound.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = (42, 1, 7)
PINNED = sys.version_info[:2] == (3, 11) and np.__version__ == "2.4.6"
REL_BOUND = 1e-6


def _same(want, got, rel, scale, where):
    """want and got are the same JSON value: the same type and keys, equal
    strings, ints and bools, and floats within ``rel`` times the largest of
    their sizes and ``scale``."""
    assert type(got) is type(want), "%s: %r vs %r" % (where, want, got)
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _same(want[key], got[key], rel, scale, "%s.%s" % (where, key))
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (w, g) in enumerate(zip(want, got)):
            _same(w, g, rel, scale, "%s[%d]" % (where, i))
    elif isinstance(want, float):
        bound = rel * max(abs(want), abs(got), scale)
        assert abs(got - want) <= bound, "%s: %r vs %r" % (where, want, got)
    else:
        assert got == want, "%s: %r vs %r" % (where, want, got)


def _tolerance_scale(check):
    tol = check["tolerance"]
    return tol if isinstance(tol, float) and tol > 0 else 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_report_matches_its_golden_file(seed, tmp_path, cli_env):
    path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", "all", "--seed", str(seed),
         "--json", str(path), "--quiet"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=300,
        env=cli_env)
    assert proc.returncode == 0, proc.stderr
    golden = GOLDEN / ("all_seed%d.json" % seed)
    want, got = json.loads(golden.read_text()), json.loads(path.read_text())
    exact = {k: v for k, v in want.items() if k != "checks"}
    assert {k: v for k, v in got.items() if k != "checks"} == exact
    assert [(c["name"], c["claim"], c["status"], c["tolerance"])
            for c in got["checks"]] == [
        (c["name"], c["claim"], c["status"], c["tolerance"])
        for c in want["checks"]]
    rel = 0.0 if PINNED else REL_BOUND
    for w, g in zip(want["checks"], got["checks"]):
        _same(w, g, rel, _tolerance_scale(w), w["name"])
    if PINNED:
        assert path.read_bytes() == golden.read_bytes()
