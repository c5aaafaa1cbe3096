"""Self-test of the benchmark's correctness gate.

    python3 -m pytest -q bench/test_gate.py

Each test feeds the gate an output it must refuse and checks that the
failure is counted.
"""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cayleykit import FLOAT, build_model, phi0, phi_from_kahler, torus_ops  # noqa: E402
from cayleykit.cli import main as cli_main  # noqa: E402
from cayleykit.graphs import random_plane  # noqa: E402

from spans import NullTracer  # noqa: E402
from speed import Meter  # noqa: E402
from workloads import (  # noqa: E402
    Forms, Planes, Spectrum, battery_gate, caught, plane_ok)


@pytest.fixture(scope="module")
def forms():
    model = build_model(4, backend=FLOAT)
    return Forms(model, phi_from_kahler(model), phi0(backend=FLOAT))


def weak_gap_operator():
    """Singular values 1, 1e-4 | 5e-9, 0: the cut sits in a 2e4 gap."""
    blocks = np.diag([1.0, 1e-4, 5e-9, 0.0])[None].astype(complex)
    return torus_ops.OperatorMatrix(blocks, domain="one_form_normal",
                                    codomain="one_form_normal")


def test_generic_plane_labelled_cayley_fails(forms):
    planes = Planes(forms, seed=3)
    plane = random_plane(8, 4, np.random.default_rng(3))
    planes.items = [("generic", plane, None)]
    assert planes.run_pass(NullTracer(), Meter()) == (1, 0)
    planes.items = [("complex", plane, None)]
    assert planes.run_pass(NullTracer(), Meter()) == (1, 1)
    _, _, verdict, is_complex, angles = planes.classify(
        "generic", plane, NullTracer())
    assert not plane_ok("graph", verdict, is_complex, angles, None)


def test_report_with_one_byte_changed_fails(tmp_path):
    path = tmp_path / "report.json"
    assert cli_main(["index", "--json", str(path), "--quiet"]) == 0
    reference = path.read_bytes()
    ok, counts = battery_gate(0, reference, reference)
    assert ok and counts["pass"] > 0 and counts["fail"] == 0
    for i in range(len(reference)):
        changed = bytearray(reference)
        changed[i] ^= 0x01
        assert not battery_gate(0, bytes(changed), reference)[0], i
    assert not battery_gate(2, reference, reference)[0]
    assert not battery_gate(0, None, reference)[0]


def test_fail_status_fails_and_warn_is_counted():
    report = {"checks": [{"name": "a", "status": "pass"},
                         {"name": "torus:linearization-slope",
                          "status": "warn"}]}
    ok, counts = battery_gate(0, json.dumps(report).encode(), None)
    assert ok and counts == {"pass": 1, "warn": 1, "fail": 0}
    report["checks"][0]["status"] = "fail"
    ok, counts = battery_gate(1, json.dumps(report).encode(), None)
    assert not ok and counts["fail"] == 1


def test_weak_gap_warning_is_counted_not_printed(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        report, weak = caught(torus_ops.kernel_report, weak_gap_operator())
    assert report.warning and weak == 1
    assert capsys.readouterr().err == ""


def test_weak_gap_in_a_spectrum_pass_fails_it(forms, monkeypatch, capsys):
    real = torus_ops.kernel_summary

    def summary_with_weak_gap(**kwargs):
        torus_ops.kernel_report(weak_gap_operator())
        return real(**kwargs)

    monkeypatch.setattr(torus_ops, "kernel_summary", summary_with_weak_gap)
    spectrum = Spectrum(forms, seed=3)
    attempted, failed = spectrum.run_pass(NullTracer(), Meter())
    assert failed == 1 and attempted > 1
    assert spectrum.weak_gaps == 1
    assert capsys.readouterr().err == ""
