import os
import sys

import pytest
from hypothesis import Phase, settings

import cayleykit
from cayleykit.exterior import EXACT, FLOAT
from cayleykit.kahler import build_model
from cayleykit.spin7 import phi0, phi_from_kahler

# Hypothesis's explain phase re-runs a failing test many times over to say
# which parts of the minimal example matter.  On the exact forms, whose
# arithmetic is slow, that ran for minutes before any failure was reported,
# so every other phase runs and explain does not.  Per-test max_examples and
# deadline settings are unchanged.
settings.register_profile(
    "no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the one-line-per-criterion record of the acceptance gate."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cli_env():
    """Environment for a child `python -m cayleykit.cli` that imports the same
    package as this process, whatever the child's working directory: the
    directory holding it goes first on PYTHONPATH, as an absolute path."""
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(cayleykit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def exact_model():
    return build_model(4, backend=EXACT)


@pytest.fixture(scope="session")
def float_model():
    return build_model(4, backend=FLOAT)


@pytest.fixture(scope="session")
def phi_exact():
    return phi0(backend=EXACT)


@pytest.fixture(scope="session")
def phi_float():
    return phi0(backend=FLOAT)


@pytest.fixture(scope="session")
def phi_cy_exact(exact_model):
    return phi_from_kahler(exact_model)


@pytest.fixture(scope="session")
def phi_cy_float(float_model):
    return phi_from_kahler(float_model)
