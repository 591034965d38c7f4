from fractions import Fraction

import pytest

from shadowdyn.approx import (
    PipelineStageError,
    approximate_by_positive_entropy_ergodic,
    orbit_measure,
)
from shadowdyn.measures import EmpiricalMeasure, TestFunctionFamily, dstar
from shadowdyn.systems import SymbolicSystem

F = Fraction


@pytest.fixture(scope="module")
def sigma2():
    return SymbolicSystem.full_shift(2)


@pytest.fixture(scope="module")
def family(sigma2):
    return TestFunctionFamily.for_system(sigma2, size=24, depth=2)


def test_point_mass_pipeline(sigma2, family):
    fixed = sigma2.fixed_point(0)
    res = approximate_by_positive_entropy_ergodic(
        sigma2, [(fixed, F(1))], F(1, 5), word_length=2)
    assert res.ok
    assert res.certificate.entropy_lower_bound > 0
    assert res.terms["uniform_average_vs_target"] == 0
    # the stamped bound re-verifies from the stored pieces
    again = dstar(res.nu, res.target, family).value
    assert again <= res.bound


def test_two_component_pipeline(sigma2):
    fixed = sigma2.fixed_point(0)
    two = sigma2.point((0, 1))
    res = approximate_by_positive_entropy_ergodic(
        sigma2, [(fixed, F(1, 2)), (two, F(1, 2))], F(1, 5), word_length=2)
    assert res.ok
    assert res.total <= res.bound
    # both loops visited: the coded word alternates
    assert set(res.coded_word) == {0, 1}
    assert res.certificate.check()["checks"]["semiconjugacy"]
    # the distinguishing prefix keeps positive entropy on the certificate
    assert res.certificate.entropy_log_arg == 2


def test_self_approximation_near_zero(sigma2):
    # a target that is a single orbit measure is reproduced almost exactly
    two = sigma2.point((0, 1))
    res = approximate_by_positive_entropy_ergodic(
        sigma2, [(two, F(1))], F(1, 5), word_length=2)
    assert res.total < F(1, 50)


def test_weights_must_sum_to_one(sigma2):
    fixed = sigma2.fixed_point(0)
    with pytest.raises(ValueError):
        approximate_by_positive_entropy_ergodic(sigma2, [(fixed, F(1, 2))], F(1, 5))


def test_nonperiodic_component_rejected(sigma2):
    pre = sigma2.point((0,), word=(1,), offset=0)  # preperiodic, not periodic
    with pytest.raises(ValueError):
        orbit_measure(sigma2, pre)
