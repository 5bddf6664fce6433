"""Closed forms and bounds against the brute-force invariants."""

import pytest

import naive_ref
from circreg.betti import hochster_betti_table
from circreg.complexes import IntPoly, independence_polynomial
from circreg.formulas import (
    bound_cubic,
    bound_family,
    hoshino_for,
    hoshino_poly,
    reg_cubic,
    reg_hat_j,
)
from circreg.graphs import circulant, family_a, family_b, family_d, moebius, prism


class TestRegHatJ:
    @pytest.mark.parametrize("n,j,expected", [(8, 4, 2), (9, 3, 2), (8, 2, 3), (4, 1, 3), (4, 2, 2)])
    def test_values(self, n, j, expected):
        assert reg_hat_j(n, j) == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            reg_hat_j(8, 5)
        with pytest.raises(ValueError):
            reg_hat_j(3, 1)

    def test_matches_brute_force_small(self):
        for n in range(4, 10):
            for j in range(1, n // 2 + 1):
                g = circulant(n, set(range(1, n // 2 + 1)) - {j})
                assert reg_hat_j(n, j) == hochster_betti_table(g).regularity, (n, j)


class TestRegCubic:
    @pytest.mark.parametrize("n,a,expected", [(2, 1, 2), (5, 1, 4), (3, 2, 3), (3, 1, 2), (4, 2, 3)])
    def test_values(self, n, a, expected):
        assert reg_cubic(n, a) == expected

    def test_params_validation(self):
        # The checks and their messages are davis_domke's.
        with pytest.raises(ValueError, match=r"^need n >= 2$"):
            reg_cubic(1, 1)
        with pytest.raises(ValueError, match=r"^need 1 <= a < n, got a=0$"):
            reg_cubic(4, 0)
        with pytest.raises(ValueError, match=r"^need 1 <= a < n, got a=4$"):
            reg_cubic(4, 4)

    def test_matches_gcd_cases(self):
        # Far past the sweep's reach (n <= 10): every branch of both the
        # twisted-ladder and the prism copy, at many copy counts.
        for n in range(2, 201):
            for a in range(1, n):
                assert reg_cubic(n, a) == naive_ref.reg_cubic_by_gcd(n, a), (n, a)

    def test_matches_brute_force_small(self):
        for n in range(2, 6):
            for a in range(1, n):
                g = circulant(2 * n, {a, n})
                assert reg_cubic(n, a) == hochster_betti_table(g).regularity, (n, a)


class TestHoshino:
    def test_corrected_small_values(self):
        assert hoshino_poly(2, "corrected") == IntPoly((1, 4))
        assert hoshino_poly(4, "corrected") == IntPoly((1, 8, 16, 8))

    def test_printed_disagrees_at_n2(self):
        assert hoshino_poly(2, "printed") != IntPoly((1, 4))

    def test_odd_twist_correction(self):
        predicted = hoshino_for("moebius", 3)
        assert predicted == IntPoly((1, 6, 6, 2))
        assert predicted == independence_polynomial(moebius(3))

    def test_prism_needs_odd(self):
        with pytest.raises(ValueError):
            hoshino_for("prism", 4)

    def test_integer_coefficients_up_to_40(self):
        for n in range(2, 41):
            hoshino_poly(n, "corrected")
            hoshino_poly(n, "printed")

    @pytest.mark.parametrize("n", range(2, 8))
    def test_corrected_matches_moebius(self, n):
        assert hoshino_for("moebius", n) == independence_polynomial(moebius(n))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_corrected_matches_prism(self, n):
        assert hoshino_for("prism", n) == independence_polynomial(prism(n))

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            hoshino_poly(4, "fixed")


class TestBoundFamily:
    @pytest.mark.parametrize(
        "kind,t,expected",
        [("A", 2, (3, 4)), ("A", 1, (2, 2)), ("B", 1, (2, None)), ("B", 2, (3, None)), ("D", 3, (3, None))],
    )
    def test_values(self, kind, t, expected):
        assert bound_family(kind, t) == expected

    def test_d_requires_l_odd(self):
        with pytest.raises(ValueError):
            bound_family("D", 1)
        with pytest.raises(ValueError):
            bound_family("D", 5)
        assert bound_family("D", 7) == (5, None)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            bound_family("E", 2)

    def test_bounds_hold_small(self):
        for t in range(1, 5):
            ta = hochster_betti_table(family_a(t))
            ra, pa = bound_family("A", t)
            assert ta.regularity <= ra and ta.projective_dimension <= pa
            tb = hochster_betti_table(family_b(t))
            rb, _ = bound_family("B", t)
            assert tb.regularity <= rb
        td = hochster_betti_table(family_d(3))
        assert td.regularity <= bound_family("D", 3)[0]


class TestBoundCubic:
    @pytest.mark.parametrize(
        "kind,n,expected",
        [("moebius", 4, (3, 5)), ("moebius", 5, (4, 7)), ("prism", 5, (3, 7)), ("moebius", 7, (4, 10)), ("prism", 7, (5, 10))],
    )
    def test_values(self, kind, n, expected):
        assert bound_cubic(kind, n) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_cubic("prism", 6)
        with pytest.raises(ValueError):
            bound_cubic("moebius", 3)
        with pytest.raises(ValueError):
            bound_cubic("ladder", 5)

    def test_bounds_hold_small(self):
        for n in (4, 5, 6):
            t = hochster_betti_table(moebius(n))
            rb, pb = bound_cubic("moebius", n)
            assert t.regularity <= rb and t.projective_dimension <= pb
        t = hochster_betti_table(prism(5))
        rb, pb = bound_cubic("prism", 5)
        assert t.regularity <= rb and t.projective_dimension <= pb
