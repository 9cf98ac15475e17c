import pytest

from calmeasures import FIXTURES, evaluate, project, verify
from calmeasures.fixtures import (
    cdl_example_1,
    cdl_example_2,
    quadratic_gap,
    two_point,
)


def assert_all_ok(fixture):
    checks = verify(fixture)
    bad = {k: got for k, (got, ok) in checks.items() if not ok}
    assert not bad, f"{fixture.name}: mismatches {bad}"


class TestTwoPoint:
    @pytest.mark.parametrize("eps", [0.02, 0.1, 0.2, 0.3])
    def test_verifies(self, eps):
        assert_all_ok(two_point(eps))

    def test_range(self):
        with pytest.raises(ValueError):
            two_point(0.0)
        with pytest.raises(ValueError):
            two_point(0.5)

    def test_smce_closed_form_quarter(self):
        fix = two_point(0.25)
        assert evaluate(fix, "smce") == pytest.approx(0.0625, abs=1e-9)


class TestQuadraticGap:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_verifies(self, eps):
        fine, coarse = quadratic_gap(eps)
        assert_all_ok(fine)
        assert_all_ok(coarse)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_projections_atomwise_identical(self, eps):
        fine, coarse = quadratic_gap(eps)
        assert project(fine.instance).atoms == project(coarse.instance).atoms

    def test_range(self):
        with pytest.raises(ValueError):
            quadratic_gap(0.25)


class TestCdlExamples:
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.09])
    def test_example_1_verifies(self, eps):
        assert_all_ok(cdl_example_1(eps))

    def test_example_2_verifies(self):
        assert_all_ok(cdl_example_2(0.05))

    def test_ranges(self):
        with pytest.raises(ValueError):
            cdl_example_1(0.2)
        with pytest.raises(ValueError):
            cdl_example_2(0.2)


class TestRegistry:
    def test_contents(self):
        assert set(FIXTURES) == {
            "two_point",
            "quadratic_gap",
            "cdl_example_1",
            "cdl_example_2",
        }
