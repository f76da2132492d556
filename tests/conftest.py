import random
from fractions import Fraction as F

import pytest

from pentakin import (GaussRat, Leg, Pentapod, canonical_pentapod,
                      synth_leg_params)
from pentakin.archsing import classify_arch, validate_assumptions


def rand_frac(rng, lo=-6, hi=6, den=4):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def random_member(rng, planar=False):
    """A random pentapod satisfying the working-class assumptions."""
    while True:
        try:
            legs = tuple(
                Leg(rand_frac(rng),
                    (rand_frac(rng), rand_frac(rng),
                     F(0) if planar else rand_frac(rng)))
                for _ in range(5))
            p = Pentapod(legs)
        except Exception:
            continue
        if len(set(p.platform)) < 5:
            continue
        if not validate_assumptions(p).ok:
            continue
        if classify_arch(p).singular:
            continue
        if planar != p.is_base_planar():
            continue
        return p


@pytest.fixture(autouse=True)
def mpmath_precision_unchanged():
    """Fail any test after which mpmath's process-wide working precision
    differs from its value before the test."""
    import mpmath
    before = mpmath.mp.dps
    yield
    after = mpmath.mp.dps
    mpmath.mp.dps = before
    assert after == before, f"mpmath.mp.dps changed from {before} to {after}"


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture(scope="session")
def type1_reference_design():
    """Straight-cubic-circle design with a real self-motion: a2 = i, a4 = 2,
    second center (1,1,1), squared first leg length 3."""
    return synth_leg_params(1, a2=GaussRat(0, 1), a4=2, m5=(1, 1, 1), r1sq=3)


@pytest.fixture(scope="session")
def type1_reference_pentapod(type1_reference_design):
    return canonical_pentapod(type1_reference_design, [0, 1, 3, -1, -2])


@pytest.fixture(scope="session")
def type2_reference_design():
    """Circle-plus-orthogonal-line design with a real self-motion."""
    return synth_leg_params(2, a2=GaussRat(1, 1), m5=(1, 1, 0), r1sq=4)


# ---------------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion
# ---------------------------------------------------------------------------

_acceptance_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and "test_acceptance" in str(item.fspath):
        _acceptance_results[item.name] = rep.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_results):
        status = _acceptance_results[name]
        terminalreporter.write_line(
            f"{name}: {'PASS' if status == 'passed' else 'FAIL'}")
