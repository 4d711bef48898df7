import itertools
import math

import mpmath
import numpy as np
import pytest

from sketchlsh.core import MAX_TABLES
from sketchlsh.params import (
    InfeasibleParamsError,
    LshSensitivity,
    ParameterError,
    compute_rho,
    feasible_l_floor,
    recommend_params,
    snr_simulation,
    strong_ratio,
)

from oracles import two_stage_noise_max


def rho_oracle(p1: str, p2: str) -> float:
    """Arbitrary-precision evaluation of the quality exponent."""
    with mpmath.workdps(60):
        p1m, p2m = mpmath.mpf(p1), mpmath.mpf(p2)
        val = mpmath.log(1 / p1m) / (mpmath.log(1 / p2m) - mpmath.log(1 / p1m))
        return float(val)


class TestComputeRho:
    def test_near_duplicate_limit(self):
        # p1 -> 1 with p2 fixed drives rho toward 0
        assert compute_rho(1 - 1e-9, 0.4) < 1e-8

    def test_boundary_p1_square_root_of_p2(self):
        p2 = 0.36
        p1 = math.sqrt(p2)
        assert strong_ratio(p1, p2) == pytest.approx(0.5)
        assert compute_rho(p1, p2) == pytest.approx(1.0)

    def test_against_precision_oracle(self):
        got = compute_rho(0.9, 0.4)
        assert got == pytest.approx(rho_oracle("0.9", "0.4"), rel=1e-12)

    def test_domain_errors(self):
        for p1, p2 in [(0.3, 0.5), (0.5, 0.5), (1.0, 0.5), (0.5, 0.0), (0.0, 0.0)]:
            with pytest.raises(ParameterError):
                compute_rho(p1, p2)

    def test_strictly_decreasing_in_p1(self):
        p2 = 0.2
        grid = np.linspace(0.25, 0.99, 40)
        values = [compute_rho(p1, p2) for p1 in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestRecommendParams:
    def test_reference_case_satisfies_both_bounds(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.95, p2=0.3)
        rec = recommend_params(sens, 10_000)
        # re-evaluate both inequalities numerically on the rounded integers
        k_lower = rec.c2 * math.log(rec.n) / math.log(sens.p1 / sens.p2)
        k_upper = math.log(rec.l_rec / rec.c1) / math.log(1 / sens.p1)
        assert k_lower <= rec.k_rec <= k_upper
        assert rec.l_rec >= rec.n**rec.rho
        assert rec.sketch_cols == 4 * rec.k_bound

    def test_weak_instance_rejected_with_sublinearity_diagnostic(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.7, p2=0.6)
        with pytest.raises(InfeasibleParamsError, match="sub-linear"):
            recommend_params(sens, 10_000)

    def test_n_to_the_rho_matches_precision_oracle(self):
        rho = compute_rho(0.9, 0.4)
        n = 10_000
        with mpmath.workdps(60):
            expected = float(mpmath.mpf(n) ** mpmath.mpf(repr(rho)))
        assert n**rho == pytest.approx(expected, rel=1e-6)

    def test_feasibility_condition_matches_direct_bound_check(self):
        # closed-form floor on L agrees with directly testing the K interval
        for p1 in (0.8, 0.9, 0.95):
            for p2 in (0.1, 0.2, 0.3):
                for n in (1000, 100_000):
                    for c1, c2 in ((2.0, 1.5), (3.0, 2.0)):
                        floor = feasible_l_floor(p1, p2, n, c1, c2)
                        k_lower = c2 * math.log(n) / math.log(p1 / p2)
                        for l_val in (0.5 * floor, 0.99 * floor, 1.01 * floor, 2 * floor):
                            if l_val <= c1:
                                continue
                            k_upper = math.log(l_val / c1) / math.log(1 / p1)
                            direct = k_lower <= k_upper
                            closed = l_val >= floor
                            if abs(l_val - floor) / floor < 1e-9:
                                continue  # boundary, float-sensitive
                            assert direct == closed

    # 1,080 points; the re-check on the rounded integers called 49 of them
    # infeasible, (1e6, 0.8, 0.05, 100) and (1e30, 0.9, 0.1, 1000) among them
    GRID = [
        (c1, p1, p2, n)
        for c1, p1, p2, n in itertools.product(
            (2.0, 10.0, 1e3, 1e6, 1e12, 1e30),
            (0.6, 0.7, 0.8, 0.9, 0.95, 0.99),
            (0.01, 0.05, 0.1, 0.2, 0.3),
            (100, 1000, 10**4, 10**5, 10**6, 10**9),
        )
        if p2 < p1
    ]

    def test_both_bounds_hold_as_reported_over_a_grid(self):
        assert len(self.GRID) == 1080
        for c1, p1, p2, n in self.GRID:
            rec = recommend_params(LshSensitivity(r=0.1, c=2.0, p1=p1, p2=p2), n, c1=c1)
            assert rec.k_lower <= rec.k_rec <= rec.k_upper, (c1, p1, p2, n)
            assert rec.l_rec >= c1 * (1 / p1) ** rec.k_rec, (c1, p1, p2, n)
            assert rec.l_rec >= n**rec.rho, (c1, p1, p2, n)

    def test_k_upper_is_the_signal_bound_at_the_recommended_l(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.9, p2=0.1)
        rec = recommend_params(sens, 1000, c1=1e30)
        assert rec.k_rec == 5 and rec.k_upper >= 5  # read 4.999999999999999
        assert rec.k_upper == pytest.approx(math.log(rec.l_rec / 1e30) / math.log(1 / 0.9))

    def test_k_is_at_least_one_where_p1_over_p2_overflows(self):
        # p1/p2 = inf puts k_lower at 0, and its ceiling had recommended K = 0
        rec = recommend_params(LshSensitivity(r=0.0, c=1.0, p1=0.5, p2=5e-324), 1000)
        assert (rec.k_lower, rec.k_rec, rec.l_rec) == (0.0, 1, 4)
        assert rec.k_lower <= rec.k_rec <= rec.k_upper

    def test_validation(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.9, p2=0.2)
        with pytest.raises(ParameterError):
            recommend_params(sens, 1)
        with pytest.raises(ParameterError):
            recommend_params(sens, 100, c1=1.0)
        with pytest.raises(ParameterError):
            recommend_params(LshSensitivity(r=0, c=1, p1=0.9, p2=0.0), 100)


class TestSensitivityType:
    def test_validates_ordering(self):
        with pytest.raises(ParameterError):
            LshSensitivity(r=0.1, c=2.0, p1=0.3, p2=0.5)
        with pytest.raises(ParameterError):
            LshSensitivity(r=-1, c=2.0, p1=0.9, p2=0.2)
        with pytest.raises(ParameterError):
            LshSensitivity(r=0.1, c=0.5, p1=0.9, p2=0.2)

    def test_zero_p2_admitted_for_simulation(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.9, p2=0.0)
        assert sens.p2 == 0.0


class TestSnrSimulation:
    def test_zero_p2_gives_zero_noise(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.9, p2=0.0)
        report = snr_simulation(sens, n=1000, k_hashes=3, num_tables=10, trials=200, seed=1)
        assert report.max_noise == 0
        assert np.all(report.noise_max_counts == 0)

    def test_signal_mean_matches_binomial_within_three_se(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.95, p2=0.3)
        k, tables = 6, 20
        report = snr_simulation(sens, n=0, k_hashes=k, num_tables=tables, trials=10_000, seed=2)
        assert abs(report.signal_mean - report.expected_signal_mean) <= 3 * report.signal_se
        assert report.expected_signal_mean == pytest.approx(tables * 0.95**k)

    def test_frequencies_are_bounded_integers(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.9, p2=0.4)
        report = snr_simulation(sens, n=500, k_hashes=4, num_tables=12, trials=500, planted=3, seed=3)
        assert report.signal_counts.dtype.kind == "i"
        assert report.signal_counts.min() >= 0
        assert report.signal_counts.max() <= 12
        assert report.noise_max_counts.max() <= 12

    def test_recommended_params_separate_signal_from_noise(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.95, p2=0.3)
        rec = recommend_params(sens, 10_000)
        report = snr_simulation(
            sens, n=10_000, k_hashes=rec.k_rec, num_tables=rec.l_rec, trials=2000, seed=4
        )
        assert report.separation_rate >= 0.9

    def test_signal_counts_are_the_generators_first_draw(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.9, p2=0.4)
        report = snr_simulation(sens, n=500, k_hashes=4, num_tables=12, trials=300, planted=3, seed=9)
        expected = np.random.default_rng(9).binomial(12, 0.9**4, (300, 3))
        np.testing.assert_array_equal(report.signal_counts, expected)

    def test_table_count_is_bounded_by_the_index_header(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.9, p2=0.1)
        report = snr_simulation(sens, n=10**6, k_hashes=8, num_tables=MAX_TABLES, trials=100)
        assert 0 < report.max_noise < 200 and report.min_signal > 10**9
        with pytest.raises(ParameterError, match="most tables an index header stores"):
            snr_simulation(sens, n=10, k_hashes=2, num_tables=MAX_TABLES + 1, trials=10)

    def test_draws_are_bounded_by_what_one_array_holds(self):
        # past the bound, Generator.binomial raised a raw ValueError ("array is too big")
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.9, p2=0.1)
        bound = (2**63 - 1) // 8  # int64 draws in 2^63 - 1 bytes
        for trials, planted in ((bound, 1), (1, bound)):
            # at the bound the check lets the draws through, and the allocator refuses
            # 8 EiB at once; that was a raw MemoryError
            with pytest.raises(ParameterError, match=rf"trials \* planted = {bound} draws exceed"):
                snr_simulation(sens, n=10, k_hashes=2, num_tables=4, trials=trials, planted=planted)
        for trials, planted in ((bound + 1, 1), (1, bound + 1), (2**59, 2), (2**62, 1)):
            with pytest.raises(ParameterError, match=r"exceeds 2\^60 - 1"):
                snr_simulation(sens, n=10, k_hashes=2, num_tables=4, trials=trials, planted=planted)

    def test_validation(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.9, p2=0.2)
        with pytest.raises(ParameterError):
            snr_simulation(sens, n=10, k_hashes=0, num_tables=4, trials=10)
        with pytest.raises(ParameterError):
            snr_simulation(sens, n=10, k_hashes=2, num_tables=4, trials=0)


def exact_max_cdf(n: int, q: float, num_tables: int, top: int) -> list[float]:
    """P(max <= j) = F(j)^n for j in 0..top, F the Binomial(L, q) CDF, at
    60 digits."""
    with mpmath.workdps(60):
        qm = mpmath.mpf(q)
        term = (1 - qm) ** num_tables
        cdf, out = mpmath.mpf(0), []
        for j in range(top + 1):
            cdf += term
            out.append(float(cdf**n))
            term *= (num_tables - j) / mpmath.mpf(j + 1) * qm / (1 - qm)
        return out


class TestNoiseMaxClosedForm:
    @pytest.mark.parametrize(
        "n, p2, k, tables",
        [
            (10**5, 0.5, 2, 60),
            (10**4, 0.3, 3, 40),
            (50, 0.5, 1, 7),
            (1000, 0.1, 2, 1694),  # past the L where the math.comb pmf overflowed
            (2**63 - 1, 0.2, 4, 1200),
            (10**6, 0.1, 8, MAX_TABLES),
        ],
    )
    def test_empirical_cdf_matches_the_exact_maximum(self, n, p2, k, tables):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.99, p2=p2)
        trials = 40_000
        got = snr_simulation(sens, n, k, tables, trials=trials, seed=25).noise_max_counts
        top = int(got.max()) + 1
        exact = np.array(exact_max_cdf(n, p2**k, tables, top))
        empirical = np.array([(got <= j).mean() for j in range(top + 1)])
        # past top both CDFs are closer than at top, where the empirical one reads 1;
        # the 99.9% one-sample Kolmogorov-Smirnov bound is 1.95/sqrt(trials)
        assert np.abs(empirical - exact).max() < 1.95 / math.sqrt(trials)

    def test_matches_the_two_stage_reference_sampler(self):
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.99, p2=0.3)
        n, k, tables, trials = 200, 2, 12, 20_000
        got = snr_simulation(sens, n, k, tables, trials=trials, seed=3).noise_max_counts
        ref = two_stage_noise_max(np.random.default_rng(4), n, 0.3**k, tables, trials)
        grid = np.arange(tables + 1)
        distance = np.abs((got[:, None] <= grid).mean(0) - (ref[:, None] <= grid).mean(0)).max()
        # the 99.9% two-sample Kolmogorov-Smirnov bound is 1.95*sqrt(2/trials)
        assert distance < 1.95 * math.sqrt(2 / trials)
        assert got.max() <= tables and ref.max() <= tables

    def test_a_tail_of_one_reads_minus_inf_without_a_warning(self):
        # P(count > 0) rounds to 1 at L = 100, q = 0.99, so log F(0) is log 0;
        # a RuntimeWarning fails the suite
        sens = LshSensitivity(r=0.1, c=2.0, p1=0.999, p2=0.99)
        report = snr_simulation(sens, 2**63 - 1, 1, 100, trials=1000, seed=1)
        assert np.all(report.noise_max_counts == 100)
