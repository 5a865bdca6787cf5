"""Filter bases: certification, the half-line ambiguity, witnesses, the
disjoint approach family, and convergence analysis."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp import filters
from unsharp.common import DIVERGENT, NEG_INF, POS_INF, UNDETERMINED
from unsharp.errors import FmpViolation, ZeroClassError
from unsharp.filters import (
    FilterBase,
    FiniteFamily,
    FmpCertificate,
    NeighborhoodFamily,
    TailFamily,
    adjoin,
    converges_to,
    disjoint_family,
    doubling_depths,
    escaping_base,
    filter_base,
    has_fmp,
    neighborhood_base,
)
from unsharp.intervals import Interval, IntervalSet, intersect, interval, measure, points
from unsharp.quotient import UNIT, ZERO, QuotientClass, project, q_meet
from unsharp.setexpr import parse_set_expr as parse

from strategies import rationals


class TestNeighborhoodBase:
    def test_elements(self):
        base = neighborhood_base(0, 3)
        got = [str(base.family.element(n)) for n in (1, 2, 3)]
        assert got == ["(-1, 1)", "(-1/2, 1/2)", "(-1/3, 1/3)"]

    def test_elements_nonzero_everywhere(self):
        base = neighborhood_base(Fraction(22, 7), 50)
        assert all(not base.family.element(n).is_zero for n in (1, 7, 50))

    def test_meet_is_deepest_element(self):
        base = neighborhood_base(0, 3)
        assert base.truncated_meet(3) == project(parse("(-1/3, 1/3)"))

    def test_chain_is_nested(self):
        base = neighborhood_base(Fraction(1, 3), 64)
        for n in (1, 5, 31):
            outer = base.family.element(n)
            inner = base.family.element(n + 1)
            assert q_meet(outer, inner) == inner

    def test_huge_depth_stays_cheap(self):
        base = neighborhood_base(0, 2**60)
        m = base.truncated_meet(2**60)
        assert measure(m.rep) == Fraction(2, 2**60)


class TestHasFmp:
    def test_nested_chain_certified_with_witness(self):
        cert = has_fmp(neighborhood_base(0, 10), 10)
        assert cert.ok
        assert str(cert.witnesses[-1][1]) == "(-1/10, 1/10)"
        assert len(cert.witnesses) == 10

    def test_touching_opens_fail(self):
        base = filter_base([project(parse("(0,1)")), project(parse("(1,2)"))])
        cert = has_fmp(base, 2)
        assert not cert.ok
        assert "zero" in cert.offender

    def test_half_line_extension_certified_any_depth(self):
        for k in (1, 13, 40):
            base = adjoin(neighborhood_base(0, k), project(parse("(0,inf)")), k)
            cert = has_fmp(base, k)
            assert cert.ok
            # the witness at depth k sits inside (0, 1/k)
            _, w = cert.witnesses[-1]
            assert w.lo >= 0 and w.hi <= Fraction(1, k)


class TestAdjoin:
    def test_far_interval_rejected_with_offending_meet(self):
        with pytest.raises(FmpViolation) as err:
            adjoin(neighborhood_base(0, 6), project(parse("(5,6)")), 6)
        assert err.value.offenders
        # exact meet oracle: already the first neighborhood misses (5,6)
        assert intersect(parse("(-1,1)"), parse("(5,6)")).is_empty

    def test_zero_class_rejected(self):
        with pytest.raises(FmpViolation):
            adjoin(neighborhood_base(0, 4), ZERO, 4)

    def test_both_half_lines_extend_but_not_together(self):
        base = neighborhood_base(0, 16)
        right = project(parse("(0,inf)"))
        left = project(parse("(-inf,0)"))
        s1 = adjoin(base, right, 16)
        s2 = adjoin(base, left, 16)
        assert has_fmp(s1, 16).ok and has_fmp(s2, 16).ok
        with pytest.raises(FmpViolation):
            adjoin(s1, left, 16)  # the two half-lines meet in a null set

    def test_certified_depth_recorded(self):
        base = adjoin(neighborhood_base(0, 40), project(parse("(0,inf)")), 40)
        assert base.certified_depth == 40


class TestCertificateHandBack:
    """adjoin keeps the certificate it computed on the base it returns, and
    has_fmp hands it back at the same depth; nothing else carries it."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = filters._check_fmp
        monkeypatch.setattr(filters, "_check_fmp", lambda base, k: calls.append(k) or check(base, k))
        return calls

    def test_adjoin_certificate_equals_fresh_check(self, checks):
        base = adjoin(neighborhood_base(Fraction(1, 3), 300), project(parse("(1/3, 1)")), 300)
        assert checks == [300]
        cert = has_fmp(base, 300)
        assert checks == [300] and cert is has_fmp(base, 300)
        direct = FilterBase(base.family, base.adjoined, base.certified_depth, base.tag)
        assert direct == base
        fresh = has_fmp(direct, 300)
        assert checks == [300, 300]
        assert cert.ok and cert == fresh and cert.witnesses == fresh.witnesses
        assert len(cert.witnesses) == 257 and str(cert.witnesses[-1][1]) == "(1/3, 101/300)"

    def test_depth_is_capped_at_the_base_size(self, checks):
        base = adjoin(neighborhood_base(0, 40), project(parse("(0,inf)")), 100)
        assert has_fmp(base, 41) is has_fmp(base, 10**6)  # size 41: 40 + 1 adjoined
        assert checks == [41]

    def test_other_depth_recomputes(self, checks):
        base = adjoin(neighborhood_base(0, 40), project(parse("(0,inf)")), 40)
        cert = has_fmp(base, 13)
        assert checks == [40, 13]
        assert cert.depth == 13 and len(cert.witnesses) == 13
        assert cert == has_fmp(FilterBase(base.family, base.adjoined), 13)

    def test_replace_and_adjoin_carry_no_certificate(self, checks):
        base = adjoin(neighborhood_base(0, 16), project(parse("(0,inf)")), 16)
        cert = has_fmp(base, 16)
        assert has_fmp(base.replace(tag=Fraction(0)), 16) == cert
        assert checks == [16, 16]
        # a replaced base with other adjoined classes is checked afresh
        far = base.replace(adjoined=(project(parse("(5,6)")),))
        assert not has_fmp(far, 16).ok
        assert far.truncated_meet(1).is_zero
        deeper = adjoin(base, project(parse("(-inf, 1/100)")), 16)
        again = has_fmp(deeper, 16)
        assert again != cert
        assert str(again.witnesses[0][1]) == "(0, 1/100)"
        assert again == has_fmp(FilterBase(deeper.family, deeper.adjoined), 16)

    def test_truncated_meet_uses_adjoined_classes(self):
        base = adjoin(neighborhood_base(0, 16), project(parse("(0,inf)")), 16)
        base = adjoin(base, project(parse("(-inf, 1/8)")), 16)
        assert base.truncated_meet(2) == project(parse("(0, 1/8)"))
        assert base.truncated_meet(16) == project(parse("(0, 1/16)"))
        assert base.replace(adjoined=()).truncated_meet(16) == project(parse("(-1/16, 1/16)"))


class TestLinearCheck:
    """An explicit backbone is folded once across all checked depths; the
    certificate equals the one a from-scratch fold at each depth gives."""

    @staticmethod
    def _scratch(base, k):
        witnesses = []
        for depth in doubling_depths(min(k, base.family.size), 256):
            m = UNIT
            for c in base.adjoined + base.family.classes[:depth]:
                m = q_meet(m, c)
            if m.is_zero:
                offender = ", ".join(str(x) for x in base.adjoined)
                text = f"meet of the first {depth} backbone elements with {{{offender}}} is zero"
                return FmpCertificate(False, k, tuple(witnesses), text)
            witnesses.append((depth, m.rep.components[0]))
        return FmpCertificate(True, k, tuple(witnesses))

    @pytest.fixture
    def meets(self, monkeypatch):
        calls = []
        meet = filters.q_meet
        monkeypatch.setattr(filters, "q_meet", lambda a, b: calls.append(1) or meet(a, b))
        return calls

    @pytest.mark.parametrize("n", [50, 200, 300])
    def test_meets_linear_in_the_classes(self, meets, n):
        base = filter_base([project(interval(Fraction(-1, j), Fraction(1, j))) for j in range(1, n + 1)])
        cert = has_fmp(base, n)
        assert len(meets) <= 2 * n + 2
        assert cert.ok and cert == self._scratch(base, n)
        assert len(cert.witnesses) == len(doubling_depths(n, 256))

    def test_zero_meet_partway_names_the_depth(self, meets):
        wide, far = project(parse("(0,10)")), project(parse("(20,30)"))
        base = filter_base([wide] * 5 + [far] + [project(parse("(0,1)"))] * 300)
        cert = has_fmp(base, 306)
        assert len(meets) == 6  # the fold stops at the zero meet
        assert not cert.ok and cert == self._scratch(base, 306)
        assert cert.offender == "meet of the first 6 backbone elements with {} is zero"
        assert len(cert.witnesses) == 5

    def test_zero_meet_with_adjoined_classes(self):
        base = adjoin(filter_base([project(parse("(0,10)"))] * 3), project(parse("(2,9)")), 3)
        base = base.replace(family=FiniteFamily(base.family.classes + (project(parse("(9,12)")),)))
        for k in (3, 4, 5):
            assert has_fmp(base, k) == self._scratch(base, k)
        assert not has_fmp(base, 5).ok

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 8)), min_size=1, max_size=300))
    def test_equals_scratch_fold(self, spans):
        base = filter_base([project(interval(Fraction(a, 2), Fraction(a + b, 2))) for a, b in spans])
        assert has_fmp(base, len(spans)) == self._scratch(base, len(spans))


class TestTrustedConstruction:
    """Chain elements and disjoint-family truncations, built without
    validation, equal their validated constructions."""

    @settings(max_examples=150, deadline=None)
    @given(rationals, st.integers(min_value=1, max_value=2**40), st.data())
    def test_neighborhood_element(self, center, size, data):
        n = data.draw(st.integers(min_value=1, max_value=size))
        r = Fraction(1, n)
        got = NeighborhoodFamily(center, size).element(n)
        assert got == QuotientClass(IntervalSet((Interval(center - r, center + r),)))
        assert all(type(v) is Fraction for v in got.rep._vals)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=2**40), st.sampled_from((1, -1)), st.data())
    def test_tail_element(self, size, direction, data):
        n = data.draw(st.integers(min_value=1, max_value=size))
        got = TailFamily(size, direction).element(n)
        want = Interval(n, POS_INF) if direction == 1 else Interval(NEG_INF, -n)
        assert got == QuotientClass(IntervalSet((want,)))
        assert type(got.rep._vals[0 if direction == 1 else 1]) is Fraction

    @settings(max_examples=100, deadline=None)
    @given(rationals, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=40))
    def test_disjoint_truncation(self, center, m, count):
        fam = disjoint_family(center, m)
        got = fam.truncate(count)
        assert got == IntervalSet.from_intervals(fam.component(n) for n in range(1, count + 1))
        assert project(got).rep == got  # already open-canonical

    def test_element_index_checked(self):
        for family in (NeighborhoodFamily(0, 5), TailFamily(5), TailFamily(5, -1)):
            for n in (0, 6):
                with pytest.raises(IndexError):
                    family.element(n)

    def test_empty_truncation(self):
        assert disjoint_family(0, 3).truncate(0).is_empty


class TestDoublingDepths:
    def test_dense_prefix_then_doubling_to_k(self):
        assert doubling_depths(5, 1) == [1, 2, 4, 5]
        assert doubling_depths(4, 1) == [1, 2, 4]
        assert doubling_depths(1, 1) == [1]
        assert doubling_depths(3, 256) == [1, 2, 3]
        assert doubling_depths(256, 256) == list(range(1, 257))
        assert doubling_depths(1000, 256) == list(range(1, 257)) + [512, 1000]
        assert doubling_depths(0, 256) == []


class TestNormalityWitness:
    """The shrinking neighborhoods of a point: every finite meet is nonzero,
    while the countable meet is the class of the point, which is zero."""

    def test_running_meet_measures(self):
        family = NeighborhoodFamily(0, 4)
        assert [measure(family.meet_first(n).rep) for n in (1, 2, 3, 4)] == [
            Fraction(2),
            Fraction(1),
            Fraction(2, 3),
            Fraction(1, 2),
        ]

    def test_every_element_nonzero_and_limit_zero(self):
        lam = Fraction(5, 8)
        family = NeighborhoodFamily(lam, 2**20)
        for n in (1, 2, 1024, 2**20):
            meet = family.meet_first(n)
            assert not meet.is_zero
            assert meet == project(interval(lam - Fraction(1, n), lam + Fraction(1, n)))
            assert measure(meet.rep) == Fraction(2, n)
        assert project(points(lam)).is_zero


class TestDisjointFamily:
    def test_first_components_exact(self):
        assert str(disjoint_family(0, 1).component(1)) == "(5/8, 3/4)"
        assert str(disjoint_family(0, 2).component(1)) == "(9/16, 5/8)"

    def test_component_matches_independent_form(self):
        # independent derivation: lo = a_n + (a_{n-1} - a_n) / 2^(m+1)
        for m in (1, 3, 7):
            fam = disjoint_family(Fraction(1, 3), m)
            for n in (1, 2, 17):
                a_n = Fraction(1, 2**n)
                a_prev = Fraction(1, 2 ** (n - 1))
                lo = Fraction(1, 3) + a_n + (a_prev - a_n) / 2 ** (m + 1)
                hi = Fraction(1, 3) + a_n + (a_prev - a_n) / 2**m
                comp = fam.component(n)
                assert comp.lo == lo and comp.hi == hi

    def test_translation(self):
        base = disjoint_family(0, 2).component(5)
        moved = disjoint_family(Fraction(-7, 2), 2).component(5)
        assert moved.lo == base.lo - Fraction(7, 2)
        assert moved.hi == base.hi - Fraction(7, 2)

    def test_pairwise_disjoint_and_in_band(self):
        fams = [disjoint_family(0, m) for m in range(1, 6)]
        for fam in fams:
            for n in range(1, 33):
                comp = fam.component(n)
                env = fam.envelope(n)
                assert env.lo < comp.lo < comp.hi < env.hi
        for i in range(5):
            for j in range(i + 1, 5):
                assert intersect(fams[i].truncate(32), fams[j].truncate(32)).is_empty

    def test_left_endpoints_reach_anchor(self):
        fam = disjoint_family(0, 4)
        assert fam.component(40).lo < Fraction(1, 2**39)
        assert fam.component(64).lo <= Fraction(1, 2**63)


class TestConvergesTo:
    def test_neighborhood_base_converges(self):
        assert converges_to(neighborhood_base(0, 20), 20, Fraction(1, 8)) == 0

    def test_tail_base_diverges(self):
        assert converges_to(escaping_base(20), 20, Fraction(1, 8)) is DIVERGENT

    def test_half_line_extensions_converge_to_anchor(self):
        lam = Fraction(2, 7)
        base = neighborhood_base(lam, 64)
        s1 = adjoin(base, project(interval(lam, float("inf"))), 64)
        s2 = adjoin(base, project(interval(float("-inf"), lam)), 64)
        assert converges_to(s1, 64, Fraction(1, 16)) == lam
        assert converges_to(s2, 64, Fraction(1, 16)) == lam

    def test_untagged_finite_base_returns_midpoint(self):
        base = filter_base([project(parse("(0,1)")), project(parse("(0,1/2)"))])
        got = converges_to(base, 2, Fraction(2, 3))
        assert got == Fraction(1, 4)

    def test_shallow_base_undetermined(self):
        assert converges_to(neighborhood_base(0, 3), 3, Fraction(1, 100)) is UNDETERMINED


class TestFiniteFamily:
    def test_meet_first_folds(self):
        fam = FiniteFamily((project(parse("(0,4)")), project(parse("(1,5)")), project(parse("(2,6)"))))
        assert fam.meet_first(2) == project(parse("(1,4)"))
        assert fam.meet_first(3) == project(parse("(2,4)"))

    def test_element_bounds_checked(self):
        fam = FiniteFamily((project(parse("(0,1)")),))
        with pytest.raises(IndexError):
            fam.element(2)

    def test_filter_base_rejects_zero_elements(self):
        with pytest.raises(ZeroClassError):
            filter_base([ZERO])
