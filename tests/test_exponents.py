from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sle_dyson.exponents import (BetaConvention, ansatz_exponent,
                                 beta_from_kappa, exponent_table,
                                 fusion_exponent, h21, kac_h_1_s)

rational_kappas = st.builds(F, st.integers(min_value=1, max_value=60),
                            st.integers(min_value=1, max_value=12))


class TestBetaFromKappa:
    def test_known_values(self):
        assert beta_from_kappa(F(8, 3)) == F(3, 2)
        assert beta_from_kappa(3) == F(4, 3)
        assert beta_from_kappa(4, BetaConvention.CFT_2_OVER_KAPPA) == F(1, 2)
        assert beta_from_kappa(2, BetaConvention.CORRECTED_8_OVER_KAPPA) == 4

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            beta_from_kappa(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            beta_from_kappa(F(-1, 2))

    @pytest.mark.parametrize("fn", [beta_from_kappa, h21,
                                    lambda k: kac_h_1_s(k, 1),
                                    lambda k: fusion_exponent(2, k),
                                    lambda k: ansatz_exponent(2, k)])
    def test_rejects_bool(self, fn):
        with pytest.raises(ValueError, match="not a bool"):
            fn(True)

    @pytest.mark.parametrize("fn", [beta_from_kappa, h21])
    def test_rejects_zero_denominator(self, fn):
        with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
            fn("1/0")


class TestKacWeights:
    def test_frozen_values(self):
        assert kac_h_1_s(6, 1) == 0
        assert kac_h_1_s(6, 2) == F(1, 3)
        assert kac_h_1_s(3, 1) == F(1, 2)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            kac_h_1_s(6, 0)

    @pytest.mark.parametrize("fn", [lambda p: kac_h_1_s(2, p),
                                    lambda p: fusion_exponent(p, 2),
                                    lambda p: ansatz_exponent(p, 2)])
    def test_rejects_bool_p(self, fn):
        with pytest.raises(ValueError, match="p must be"):
            fn(True)


class TestFusionAndAnsatz:
    def test_frozen_values(self):
        assert fusion_exponent(2, 6) == F(1, 3)
        assert fusion_exponent(2, 4) == F(1, 2)
        assert ansatz_exponent(2, 1) == 1
        assert ansatz_exponent(3, beta_from_kappa(
            6, BetaConvention.CFT_2_OVER_KAPPA)) == fusion_exponent(3, 6) == 1

    def test_p_lower_bound(self):
        with pytest.raises(ValueError):
            fusion_exponent(1, 6)

    @given(st.integers(min_value=2, max_value=10), rational_kappas)
    def test_kac_combination_identity(self, p, kappa):
        assert fusion_exponent(p, kappa) == \
            kac_h_1_s(kappa, p) - p * kac_h_1_s(kappa, 1)

    @given(st.integers(min_value=2, max_value=10), rational_kappas)
    def test_factor_two_discrepancy(self, p, kappa):
        # the product ansatz under beta = 4/kappa gives exactly twice the
        # fusion exponent; only beta = 2/kappa closes the gap
        assert ansatz_exponent(p, beta_from_kappa(kappa)) == \
            2 * fusion_exponent(p, kappa)
        assert ansatz_exponent(
            p, beta_from_kappa(kappa, BetaConvention.CFT_2_OVER_KAPPA)) == \
            fusion_exponent(p, kappa)


class TestH21:
    def test_frozen_values(self):
        assert h21(6) == 0
        assert h21(2) == 1
        assert h21(F(8, 3)) == F(5, 8)

    def test_exactness_type(self):
        assert isinstance(h21(F(8, 3)), F)


def test_exponent_table_contents():
    rows = exponent_table([F(8, 3), 6], p_max=3)
    assert rows[0]["beta_dyson"] == F(3, 2)
    assert rows[1]["h21"] == 0
    assert rows[0]["fusion_3"] == fusion_exponent(3, F(8, 3))


@pytest.mark.parametrize("p_max", [1, 0, -3])
def test_exponent_table_rejects_p_max_below_two(p_max):
    with pytest.raises(ValueError, match="p_max must be an integer >= 2"):
        exponent_table([F(8, 3)], p_max=p_max)


@pytest.mark.parametrize("value", [0, -1, F(-1, 2)])
@pytest.mark.parametrize("fn, name", [
    (beta_from_kappa, "kappa"),
    (lambda k: kac_h_1_s(k, 1), "kappa"),
    (lambda k: fusion_exponent(2, k), "kappa"),
    (lambda b: ansatz_exponent(2, b), "beta"),
    (h21, "kappa"),
], ids=["beta_from_kappa", "kac_h_1_s", "fusion_exponent", "ansatz_exponent",
        "h21"])
def test_nonpositive_kappa_or_beta_rejected(fn, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive and "
                                         f"finite$"):
        fn(value)
