"""Terminating hypergeometric sums against exact-arithmetic references: the
package's 1F1 (basis wavefunctions) and the reference 3F2 route in
`closedref`."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closedref import hyp3f2_terminating
from spikevar import hyp1f1_terminating


class TestHyp1F1:
    def test_degree_zero(self):
        for g, z in [(0.5, 3.0), (4.0, -17.0), (1.0, 0.0)]:
            assert hyp1f1_terminating(0, g, z) == 1.0

    def test_two_term(self):
        assert hyp1f1_terminating(1, 2.0, 3.0) == pytest.approx(-0.5, rel=1e-15)

    def test_rational_oracle(self):
        # exact 6-term sum in rational arithmetic for n=5, g=3/2, z=9/4
        g, z = Fraction(3, 2), Fraction(9, 4)
        total = Fraction(0)
        for k in range(6):
            num = Fraction(1)
            den = Fraction(1)
            for j in range(k):
                num *= (-5 + j) * z
                den *= (g + j) * (j + 1)
            total += num / den
        expect = float(total)
        assert hyp1f1_terminating(5, 1.5, 2.25) == pytest.approx(expect, rel=1e-12)

    @given(
        n=st.integers(0, 8),
        g=st.floats(0.01, 10.0, allow_nan=False),
        z=st.floats(-50.0, 50.0, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_extended_precision_envelope(self, n, g, z):
        got = hyp1f1_terminating(n, g, z)
        with mpmath.workdps(40):
            ref = mpmath.fsum(
                mpmath.rf(-n, k) * mpmath.mpf(z) ** k / (mpmath.rf(g, k) * mpmath.factorial(k))
                for k in range(n + 1)
            )
            ref = float(ref)
        assert got == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_at_zero_is_one(self):
        for n in range(9):
            assert hyp1f1_terminating(n, 2.7, 0.0) == 1.0


class TestHyp3F2:
    def test_degree_zero(self):
        assert hyp3f2_terminating(0, 1.2, 3.4, 5.6, 7.8) == 1.0

    def test_negative_integer_numerator_truncates(self):
        # b = -1 kills every term past k = 1: two-term sum
        m, a, b, c, d = 5, 2.2, -1.0, 3.0, -7.25
        expect = 1.0 + (-m) * a * b / (c * d)
        assert hyp3f2_terminating(m, a, b, c, d) == pytest.approx(expect, rel=1e-14)

    def test_rational_oracle(self):
        # exact rational sum using the binary values of the float inputs
        m = 4
        a, b, c, d = (Fraction(x) for x in (2.3, 0.7, 3.1, -5.5))
        total = Fraction(0)
        for k in range(m + 1):
            num = Fraction(1)
            den = Fraction(1)
            for j in range(k):
                num *= (-m + j) * (a + j) * (b + j)
                den *= (c + j) * (d + j) * (j + 1)
            total += num / den
        got = hyp3f2_terminating(4, 2.3, 0.7, 3.1, -5.5)
        assert got == pytest.approx(float(total), rel=1e-12)

    def test_denominator_vanishing_is_domain_error(self):
        # d = -2 hits zero at k = 3 while terms are still nonzero
        with pytest.raises(ValueError):
            hyp3f2_terminating(5, 1.3, 2.7, 1.0, -2.0)

    @given(
        m=st.integers(0, 12),
        perm=st.permutations([0, 1, 2]),
        a=st.floats(-4.0, 6.0, allow_nan=False),
        b=st.floats(-4.0, 6.0, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_numerator_symmetry(self, m, perm, a, b):
        # the summand is symmetric in the three numerator parameters
        params = [float(-m), a, b]
        c, d = 11.3, 9.7  # far from any pole
        base = hyp3f2_terminating(m, params[1], params[2], c, d)
        p = [params[i] for i in perm]
        # only permutations keeping a nonpositive integer first are evaluable
        # through the same entry point; realize the general symmetry by
        # comparing the raw summation with permuted (a, b) slots
        swapped = hyp3f2_terminating(m, p[1], p[2], c, d) if p[0] == -m else None
        if swapped is not None:
            assert swapped == pytest.approx(base, rel=1e-13, abs=1e-13)

    def test_truncation_matches_lower_degree_series(self):
        # with b = -t (t < m) the sum equals the t-degree series with the
        # roles of the terminating parameters exchanged
        m, t = 9, 3
        a, c, d = 1.7, 4.1, 8.3
        full = hyp3f2_terminating(m, a, float(-t), c, d)
        flipped = hyp3f2_terminating(t, a, float(-m), c, d)
        assert full == pytest.approx(flipped, rel=1e-13)
