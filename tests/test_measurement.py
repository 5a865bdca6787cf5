"""Measurement harness: dyadic cells, seeded sampling, histograms, the
score-keeper, and the distinguishability experiment."""

import math
from fractions import Fraction

import pytest

from unsharp import measurement
from unsharp.effects import constant, evaluate, gaussian, smear
from unsharp.intervals import interval
from unsharp.measurement import (
    PrecisionScheme,
    dyadic_cell,
    indistinguishability_experiment,
    run_protocol,
    sample,
    scorekeeper,
)
from unsharp.rng import unit_uniform
from unsharp.setexpr import parse_set_expr as parse
from unsharp.states import mixture, normal, ppf, sharp_probability, uniform


class TestDyadicCell:
    @pytest.mark.parametrize(
        "q,n,expected",
        [(0.3, 3, 2), (-0.1, 1, -1), (0.5, 1, 1), (Fraction(3, 10), 3, 2), (0.0, 5, 0)],
    )
    def test_cases(self, q, n, expected):
        assert dyadic_cell(q, n) == expected

    def test_consistent_with_cell_bounds(self):
        scheme = PrecisionScheme(3)
        for k in range(-40, 40):
            q = Fraction(k, 10)
            i = dyadic_cell(q, 3)
            lo, hi = scheme.cell_bounds(i)
            assert lo <= q < hi

    @pytest.mark.parametrize("n", [1023, 1024, 1100])
    def test_exact_beyond_the_float_range(self, n):
        # 2**1024 and q * 2**n past 2**1024 are not floats; cells stay exact
        boundaries = (0.5, -0.75, 2.0**-1000, -(2.0**-1023), math.ldexp(-5, -1020), -(2.0**1000))
        # just off a cell edge, or far out
        near = (math.nextafter(0.5, 0.0), math.nextafter(-0.75, -1.0), -(2.0**-1074), math.ldexp(-5, -1050), -1.7e308)
        for q in (0.3, -0.1, 1.5, -1e10, 0.0, -0.0) + boundaries + near:
            assert dyadic_cell(q, n) == math.floor(Fraction(q) * 2**n), q
        for q in boundaries:  # on a cell's lower edge
            assert Fraction(q) * 2**n == dyadic_cell(q, n)
        draws = sample(normal(0, 1), 50, 3)
        want: dict = {}
        for q in draws:
            i = math.floor(Fraction(q) * 2**n)
            want[i] = want.get(i, 0) + 1
        assert run_protocol(normal(0, 1), n, 50, 3).as_dict() == want

    def test_refinement_parent(self):
        for q in (0.33, -1.7, 5.01):
            assert dyadic_cell(q, 6) >> 1 == dyadic_cell(q, 5)


class TestSample:
    def test_deterministic(self):
        assert sample(uniform(0, 1), 100, 9) == sample(uniform(0, 1), 100, 9)

    def test_uniform_draw_is_stream_value(self):
        draws = sample(uniform(0, 1), 3, 123)
        assert draws == [unit_uniform(123, i) for i in range(3)]

    def test_gaussian_median_at_half(self):
        assert ppf(normal(7, 2), 0.5) == 7.0

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample(uniform(0, 1), 0, 1)

    @pytest.mark.parametrize("count", [1, 40, 257, 2000])
    @pytest.mark.parametrize("model", ["uniform", "normal", "mixture"])
    def test_one_ppf_call_per_draw(self, monkeypatch, count, model):
        half = Fraction(1, 2)
        d = {
            "uniform": uniform(-1, 3),
            "normal": normal(1, 2),
            "mixture": mixture((half, uniform(-1, 1)), (half, normal(0, 1))),
        }[model]
        calls = []
        monkeypatch.setattr(measurement, "ppf", lambda d, u: calls.append(u) or ppf(d, u))
        draws = sample(d, count, 77)
        assert calls == [unit_uniform(77, i) for i in range(count)]
        assert draws == [ppf(d, u) for u in calls]


class TestRunProtocol:
    def test_single_draw(self):
        rec = run_protocol(uniform(0, 1), 2, 1, 5)
        assert rec.total == 1 and sum(c for _, c in rec.counts) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            run_protocol(uniform(0, 1), 2, 0, 5)

    def test_uniform_binomial_oracle(self):
        count = 100_000
        rec = run_protocol(uniform(0, 1), 1, count, 77)
        counts = rec.as_dict()
        freq0 = counts.get(0, 0) / count
        band = 5 * math.sqrt(0.25 / count)
        assert abs(freq0 - 0.5) <= band
        assert counts.get(0, 0) + counts.get(1, 0) == count

    def test_refinement_aggregation_exact(self):
        coarse = run_protocol(normal(0, 1), 3, 20_000, 11)
        fine = run_protocol(normal(0, 1), 4, 20_000, 11)
        agg: dict = {}
        for i, c in fine.counts:
            agg[i >> 1] = agg.get(i >> 1, 0) + c
        assert agg == coarse.as_dict()

    def test_frequencies_track_probabilities(self):
        count = 50_000
        rec = run_protocol(uniform(0, 2), 2, count, 13)
        for i, c in rec.counts:
            lo, hi = PrecisionScheme(2).cell_bounds(i)
            p = float(sharp_probability(uniform(0, 2), interval(lo, hi, True, False)))
            assert abs(c / count - p) <= 5 * math.sqrt(p * (1 - p) / count)


class TestScorekeeper:
    def test_perfect_detector_counts_membership(self):
        sheet = scorekeeper(parse("(-1,1)"), None, [0.0, 0.5, 2.0, -3.0, 0.99], 1)
        assert sheet.y_count == 3 and sheet.n_count == 2
        assert sheet.printout() == "yynny"

    def test_perfect_detector_all_inside(self):
        throws = [i / 100 for i in range(-40, 41)]
        sheet = scorekeeper(parse("(-1,1)"), None, throws, 3)
        assert sheet.y_count == len(throws) and sheet.n_count == 0

    def test_deterministic_given_seed(self):
        throws = [i / 50 for i in range(-60, 60)]
        e = gaussian(Fraction(1, 20))
        a = scorekeeper(parse("(-1,1)"), e, throws, 42)
        b = scorekeeper(parse("(-1,1)"), e, throws, 42)
        assert a == b

    def test_unbiased_against_mean_response(self):
        s = parse("(-1,1)")
        e = gaussian(Fraction(1, 20))
        throws = [i / 400 for i in range(-200, 200)]
        f = smear(s, e)
        expected = sum(float(evaluate(f, q)) for q in throws)
        sd = math.sqrt(sum(float(evaluate(f, q)) * (1 - float(evaluate(f, q))) for q in throws))
        sheet = scorekeeper(s, e, throws, 2024)
        assert abs(sheet.y_count - expected) <= 5 * max(sd, 1.0)

    def test_log_shape(self):
        sheet = scorekeeper(parse("(0,1)"), None, [0.5], 0)
        assert sheet.log == ((0.5, "y"),)


class TestIndistinguishabilityExperiment:
    def test_report_structure(self):
        effects = [smear(parse("(-1,1)"), gaussian(Fraction(1, 5))), constant(Fraction(1, 2))]
        report = indistinguishability_experiment(Fraction(1, 3), effects, 2**40, 1e-9)
        assert report.sharp_split
        assert report.unsharp_agreement
        assert report.undetermined_count == 0
        data = report.as_dict()
        assert data["sharp_right"] == "1" and data["sharp_left"] == "0"
        assert len(data["effects"]) == 2

    def test_constant_effects_trivially_agree(self):
        report = indistinguishability_experiment(0, [constant(Fraction(2, 3))], 2**20, 1e-9)
        row = report.rows[0]
        assert float(row.value_right) == pytest.approx(2 / 3, abs=1e-12)
        assert row.max_deviation <= 1e-12

    def test_requires_effects(self):
        with pytest.raises(Exception):
            indistinguishability_experiment(0, [], 16, 1e-9)
