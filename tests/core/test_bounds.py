"""Unit tests for the analytical bounds (Theorems 1, 3-8, Corollary 1).

Includes the paper's own numeric evaluations (Examples 1, 3 and 4) as
regression anchors.
"""

import math

import pytest

from repro.core import bounds
from repro.exceptions import InfeasibleBoundError, ParameterError


class TestCorollary1PaperExample3:
    """Example 3 numerics, with gamma = 0.01.

    The paper rounds aggressively — it quotes ``ln(2n/gamma) ~ 20`` at
    n = 1 Gig where the exact value is ~26 — so its headline numbers
    (1 Meg, 800 K, 800 buckets, 14%) come out 20-30% below the exact
    formula.  Tests anchor the exact values and check the paper's quotes
    are within that rounding slack.
    """

    def test_log_term_magnitude(self):
        exact = math.log(2 * 2**30 / 0.01)
        assert exact == pytest.approx(26.1, abs=0.1)
        assert abs(exact - 20) / exact < 0.31  # the paper's "roughly 20"

    def test_sample_size_k500_f02_is_about_1meg(self):
        r = bounds.corollary1_sample_size(n=2**30, k=500, f=0.2, gamma=0.01)
        assert 0.9e6 <= r <= 1.4e6  # paper: "roughly 1Meg"

    def test_sample_size_k100_f01_is_about_800k(self):
        r = bounds.corollary1_sample_size(n=2**30, k=100, f=0.1, gamma=0.01)
        assert 0.7e6 <= r <= 1.1e6  # paper: "roughly 800K"

    def test_histogram_size_20meg_sample_1meg_f025_is_about_800(self):
        k = bounds.corollary1_max_buckets(
            n=20 * 2**20, r=2**20, f=0.25, gamma=0.01
        )
        assert 650 <= k <= 800  # paper: "should not have k exceeding 800"

    def test_error_800k_sample_25meg_k200_is_about_14pct(self):
        f = bounds.corollary1_error_fraction(
            n=25 * 2**20, k=200, r=800_000, gamma=0.01
        )
        assert 0.12 <= f <= 0.15


class TestTheorem4:
    def test_consistency_with_corollary1(self):
        n, k, f, gamma = 10**6, 100, 0.1, 0.01
        delta = f * n / k
        assert bounds.theorem4_sample_size(n, k, delta, gamma) == (
            bounds.corollary1_sample_size(n, k, f, gamma)
        )

    def test_inverse_relationship(self):
        n, k, gamma = 10**6, 100, 0.01
        r = 500_000
        delta = bounds.theorem4_error(n, k, r, gamma)
        # Plugging the error back should need about r samples.
        r_back = bounds.theorem4_sample_size(n, k, delta, gamma)
        assert abs(r_back - r) <= 2

    def test_sample_grows_linearly_in_k(self):
        base = bounds.corollary1_sample_size(10**7, 100, 0.1, 0.01)
        double = bounds.corollary1_sample_size(10**7, 200, 0.1, 0.01)
        assert double == pytest.approx(2 * base, rel=0.01)

    def test_sample_grows_inverse_squared_in_f(self):
        base = bounds.corollary1_sample_size(10**7, 100, 0.2, 0.01)
        fine = bounds.corollary1_sample_size(10**7, 100, 0.1, 0.01)
        assert fine == pytest.approx(4 * base, rel=0.01)

    def test_essentially_independent_of_n(self):
        small = bounds.corollary1_sample_size(10**6, 100, 0.1, 0.01)
        large = bounds.corollary1_sample_size(10**9, 100, 0.1, 0.01)
        assert large < 1.5 * small  # only logarithmic growth

    def test_delta_above_bucket_size_rejected(self):
        with pytest.raises(ParameterError):
            bounds.theorem4_sample_size(1000, 10, 200, 0.01)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ParameterError):
            bounds.corollary1_sample_size(1000, 10, 0.1, 1.5)

    def test_invalid_f_rejected(self):
        with pytest.raises(ParameterError):
            bounds.corollary1_sample_size(1000, 10, 0.0, 0.01)
        with pytest.raises(ParameterError):
            bounds.corollary1_sample_size(1000, 10, 1.5, 0.01)

    def test_max_buckets_infeasible(self):
        with pytest.raises(InfeasibleBoundError):
            bounds.corollary1_max_buckets(n=10**9, r=10, f=0.01, gamma=0.01)


class TestTheorem5:
    def test_larger_than_theorem4(self):
        """δ-separation costs more sampling than δ-deviance (12 vs 4/k)."""
        n, k, gamma = 10**6, 100, 0.01
        delta = 0.1 * n / k
        assert bounds.theorem5_sample_size(n, k, delta, gamma) > (
            bounds.theorem4_sample_size(n, k, delta, gamma)
        )

    def test_inverse(self):
        n, k, gamma = 10**6, 100, 0.01
        r = 10**7  # large enough that the implied delta stays below n/k
        delta = bounds.theorem5_separation(n, k, r, gamma)
        assert delta <= n / k
        assert abs(bounds.theorem5_sample_size(n, k, delta, gamma) - r) <= 2

    def test_delta_above_bucket_size_rejected(self):
        with pytest.raises(ParameterError):
            bounds.theorem5_sample_size(1000, 10, 150, 0.01)


class TestTheorem7:
    def test_accept_needs_more_than_reject(self):
        # ln(k/gamma) > ln(1/gamma) and 16 > 4.
        k, f, gamma = 100, 0.1, 0.01
        assert bounds.theorem7_accept_sample_size(k, f, gamma) > (
            bounds.theorem7_reject_sample_size(k, f, gamma)
        )

    def test_combined_size_is_max(self):
        k, f, gamma = 100, 0.1, 0.01
        assert bounds.cross_validation_sample_size(k, f, gamma) == max(
            bounds.theorem7_reject_sample_size(k, f, gamma),
            bounds.theorem7_accept_sample_size(k, f, gamma),
        )

    def test_comparable_to_construction_size(self):
        """Section 4.3: the validation sample need not exceed the size
        needed to build a histogram at the same error."""
        n, k, f, gamma = 10**7, 100, 0.1, 0.01
        build = bounds.corollary1_sample_size(n, k, f, gamma)
        validate = bounds.cross_validation_sample_size(k, f, gamma)
        assert validate <= 2 * build


class TestTheorem1And3:
    def test_example1_avg_factor(self):
        """Example 1: k=1000, f=0.05, t=10 — avg-bounded histograms are
        13.5x worse than perfect."""
        k, f, t = 1000, 0.05, 10
        perfect = bounds.theorem1_perfect_relative_error(t)
        avg = bounds.theorem1_avg_relative_error(k, f, t)
        assert avg / perfect == pytest.approx(13.5, rel=0.01)

    def test_example1_var_factor(self):
        """Example 1: var-bounded histograms are ~2.8x worse."""
        k, f, t = 1000, 0.05, 10
        perfect = bounds.theorem1_perfect_relative_error(t)
        var = bounds.theorem1_var_relative_error(k, f, t)
        assert var / perfect == pytest.approx(2.77, rel=0.02)

    def test_example2_max_factor(self):
        """Continuation of Example 2: max-bounded is only (1+f) = 1.05x."""
        f, t = 0.05, 10
        perfect = bounds.theorem1_perfect_relative_error(t)
        mx = bounds.theorem3_relative_error(f, t)
        assert mx / perfect == pytest.approx(1.05, rel=0.001)

    def test_perfect_absolute_error(self):
        assert bounds.theorem1_perfect_absolute_error(1000, 10) == 200.0

    def test_theorem3_absolute(self):
        assert bounds.theorem3_absolute_error(1000, 10, 0.5) == pytest.approx(300.0)

    def test_var_penalty_grows_with_t(self):
        """Example 1's note: increasing s (i.e. t) worsens the var-bounded
        case *relative to the perfect histogram* — the multiplicative
        penalty (1 + f*sqrt(kt/8)) grows with t."""
        k, f = 1000, 0.05
        penalty_small = bounds.theorem1_var_relative_error(
            k, f, 10
        ) / bounds.theorem1_perfect_relative_error(10)
        penalty_large = bounds.theorem1_var_relative_error(
            k, f, 100
        ) / bounds.theorem1_perfect_relative_error(100)
        assert penalty_large > penalty_small


class TestGMPTheorem6:
    def test_example4_k100_guarantees_only_f048(self):
        f = bounds.gmp_error_fraction(k=100, c=4)
        assert f == pytest.approx(0.48, abs=0.01)

    def test_example4_n_min_is_prohibitive(self):
        """k=100 needs n >= ~6e11 (Example 4.2)."""
        bound = bounds.gmp_theorem6(k=100, c=4, n=10**9)
        assert bound.n_min > 5e11
        assert not bound.feasible

    def test_f043_at_k500_is_the_c4_limit(self):
        """At k=500 the best fraction c=4 can promise is ~0.43, so asking
        for f=0.43 needs c just above the theorem's minimum."""
        c = bounds.gmp_required_c(k=500, f=0.43)
        assert 4.0 <= c <= 4.2
        # And the validity requirement n >= r^3 is already prohibitive.
        bound = bounds.gmp_theorem6(k=500, c=c, n=10**12)
        assert bound.n_min > 1e14
        assert not bound.feasible

    def test_f_below_035_needs_impractical_k(self):
        """Example 4.4: at c=4, f=0.35 needs k > ~100,000 and f=0.1 needs
        k > e^500."""
        assert bounds.gmp_required_k(0.35, c=4) > 1e5
        assert bounds.gmp_required_log_k(0.1, c=4) == pytest.approx(500, rel=0.01)
        assert bounds.gmp_required_k(0.1, c=4) > 1e200  # e^500

    def test_f02_needs_log_k_60(self):
        """Example 4.4: f = 0.2 needs k > e^60 (and n > e^180)."""
        log_k = bounds.gmp_required_log_k(0.2, c=4)
        assert log_k == pytest.approx(62.5, rel=0.02)

    def test_ours_beats_gmp_example4_5(self):
        """Example 4.5's substance: at (k=500, f=0.2) our bound needs a few
        Meg while GMP's needs c ~ 400, hence r ~ 8 Meg and validity
        n >= r^3 ~ 5e20 — unusable at any real table size."""
        c = bounds.gmp_required_c(k=500, f=0.2)
        assert c > 100
        gmp = bounds.gmp_theorem6(k=500, c=c, n=10**12)
        gamma_gmp = max(gmp.gamma, 1e-6)
        ours = bounds.corollary1_sample_size(10**12, 500, 0.2, gamma_gmp)
        assert ours < gmp.r
        assert gmp.n_min > 1e20
        assert not gmp.feasible

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            bounds.gmp_theorem6(k=2, c=4, n=100)
        with pytest.raises(ParameterError):
            bounds.gmp_theorem6(k=100, c=3, n=100)


class TestTheorem8:
    def test_lower_bound_formula(self):
        lb = bounds.theorem8_error_lower_bound(n=10**6, r=10**4, gamma=0.5)
        assert lb == pytest.approx(math.sqrt(10**6 * math.log(2) / 10**4))

    def test_paper_haas_comparison(self):
        """Section 6.1: with r = 0.2n and gamma = 0.5, the bound gives
        error at least 1.86."""
        n = 10**6
        lb = bounds.theorem8_error_lower_bound(n=n, r=int(0.2 * n), gamma=0.5)
        assert lb == pytest.approx(1.86, abs=0.01)

    def test_inverse(self):
        n, gamma = 10**6, 0.5
        r = bounds.theorem8_sample_size_for_error(n, 2.0, gamma)
        lb = bounds.theorem8_error_lower_bound(n, r, gamma)
        assert lb == pytest.approx(2.0, rel=0.01)

    def test_gamma_too_small_rejected(self):
        with pytest.raises(ParameterError):
            bounds.theorem8_error_lower_bound(n=100, r=5, gamma=1e-3)

    def test_error_target_below_one_rejected(self):
        with pytest.raises(ParameterError):
            bounds.theorem8_sample_size_for_error(100, 0.5, 0.5)


class TestInitialBlocks:
    def test_divides_by_blocking_factor(self):
        n, k, f, gamma = 10**7, 100, 0.1, 0.01
        r = bounds.corollary1_sample_size(n, k, f, gamma)
        g0 = bounds.initial_blocks(n, k, f, gamma, b=100)
        assert g0 == math.ceil(r / 100)

    def test_at_least_one_block(self):
        assert bounds.initial_blocks(100, 2, 1.0, 0.5, b=10**6) == 1


class TestInfiniteSampleSizes:
    """Parameters at the float limits make a sample size infinite; that is
    an unsatisfiable bound, not a ZeroDivisionError or OverflowError."""

    @pytest.mark.parametrize(
        "bound, args",
        [
            (bounds.corollary1_sample_size, (1000, 10, 5e-324, 0.01)),
            (bounds.corollary1_sample_size, (1000, 10, 0.1, 5e-324)),
            (bounds.corollary1_sample_size, (1000, 10, 1e-200, 0.01)),
            (bounds.theorem4_sample_size, (1000, 10, 5e-324, 0.01)),
            (bounds.theorem5_sample_size, (1000, 10, 5e-324, 0.01)),
            (bounds.theorem7_reject_sample_size, (10, 5e-324, 0.01)),
            (bounds.theorem7_accept_sample_size, (10, 0.1, 5e-324)),
            (bounds.theorem8_sample_size_for_error, (10**308, 1.5, 1e-300)),
            (bounds.gmp_theorem6, (10, math.inf, 1000)),
            (bounds.initial_blocks, (1000, 10, 5e-324, 0.01, 50)),
        ],
    )
    def test_infeasible(self, bound, args):
        with pytest.raises(InfeasibleBoundError, match="not a finite number"):
            bound(*args)
