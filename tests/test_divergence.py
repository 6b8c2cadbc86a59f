"""Discrete and continuous similarity measures, identities, metric axioms."""

import math

import numpy as np
import pytest

from distsim import (
    DimensionMismatch,
    DiscreteDist,
    DivergenceValue,
    DomainError,
    EmptySample,
    NotADensity,
    bc_coefficient_continuous,
    bc_coefficient_discrete,
    chi_squared_discrete,
    hellinger_discrete,
    kl_discrete,
    modified_metric,
    multi_population_coefficient,
    sample_coefficient,
)

from oracles import normal_pdf, random_discrete


def dd(*probs):
    return DiscreteDist(list(probs))


class TestCoefficientDiscrete:
    def test_identical(self):
        v = bc_coefficient_discrete(dd(0.5, 0.5), dd(0.5, 0.5))
        assert v.coefficient == 1.0 and v.distance == 0.0

    def test_disjoint(self):
        v = bc_coefficient_discrete(dd(1.0, 0.0), dd(0.0, 1.0))
        assert v.coefficient == 0.0 and v.distance == math.inf

    def test_frozen_value(self):
        v = bc_coefficient_discrete(dd(0.75, 0.25), dd(0.25, 0.75))
        assert v.coefficient == pytest.approx(2 * math.sqrt(0.1875), abs=1e-15)
        assert v.distance == pytest.approx(0.143841, abs=1e-6)

    def test_symmetric_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = DiscreteDist(random_discrete(rng, 6))
            q = DiscreteDist(random_discrete(rng, 6))
            assert (bc_coefficient_discrete(p, q).coefficient
                    == bc_coefficient_discrete(q, p).coefficient)

    def test_range_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = DiscreteDist(random_discrete(rng, 5))
            q = DiscreteDist(random_discrete(rng, 5))
            v = bc_coefficient_discrete(p, q)
            assert 0.0 <= v.coefficient <= 1.0
            assert 0.0 <= v.distance <= math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bc_coefficient_discrete(dd(1.0), dd(0.5, 0.5))


class TestModifiedMetric:
    def test_endpoints(self):
        assert modified_metric(1.0) == 0.0
        assert modified_metric(0.0) == 1.0

    def test_frozen_value(self):
        assert modified_metric(0.866025) == pytest.approx(0.366026, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            modified_metric(1.5)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(2)
        violations = 0
        for _ in range(1000):
            p = DiscreteDist(random_discrete(rng, 4))
            q = DiscreteDist(random_discrete(rng, 4))
            r = DiscreteDist(random_discrete(rng, 4))

            def dist(a, b):
                return modified_metric(bc_coefficient_discrete(a, b).coefficient)

            d_pq, d_qr, d_pr = dist(p, q), dist(q, r), dist(p, r)
            if d_pq < 0 or dist(p, p) > 1e-7 or abs(d_pq - dist(q, p)) > 1e-15:
                violations += 1
            if d_pr > d_pq + d_qr + 1e-12:
                violations += 1
        assert violations == 0


class TestHellinger:
    def test_identical_and_disjoint(self):
        assert hellinger_discrete(dd(0.5, 0.5), dd(0.5, 0.5)) == 0.0
        assert hellinger_discrete(dd(1.0, 0.0), dd(0.0, 1.0)) == pytest.approx(2.0)

    def test_frozen_value(self):
        assert hellinger_discrete(dd(0.75, 0.25), dd(0.25, 0.75)) == pytest.approx(
            0.267949, abs=1e-6
        )

    def test_identity_with_coefficient(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p = DiscreteDist(random_discrete(rng, 7))
            q = DiscreteDist(random_discrete(rng, 7))
            h = hellinger_discrete(p, q)
            rho = bc_coefficient_discrete(p, q).coefficient
            assert h == pytest.approx(2.0 - 2.0 * rho, abs=1e-12)


class TestChiSquared:
    def test_basics(self):
        assert chi_squared_discrete(dd(0.5, 0.5), dd(0.5, 0.5)) == 0.0
        assert chi_squared_discrete(dd(1.0, 0.0), dd(0.0, 1.0)) == pytest.approx(1.0)
        assert chi_squared_discrete(dd(0.5, 0.5), dd(0.25, 0.75)) == pytest.approx(
            0.066667, abs=1e-6
        )

    def test_empty_bins_contribute_zero(self):
        v = chi_squared_discrete(dd(0.5, 0.5, 0.0), dd(0.5, 0.5, 0.0))
        assert v == 0.0

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            p = DiscreteDist(random_discrete(rng, 5))
            q = DiscreteDist(random_discrete(rng, 5))
            v = chi_squared_discrete(p, q)
            assert 0.0 <= v <= 1.0
            assert v == chi_squared_discrete(q, p)


class TestKl:
    def test_zero_iff_equal(self):
        assert kl_discrete(dd(0.5, 0.5), dd(0.5, 0.5)) == 0.0
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = DiscreteDist(random_discrete(rng, 5))
            q = DiscreteDist(random_discrete(rng, 5))
            v = kl_discrete(p, q)
            assert v >= -1e-15
            if v < 1e-12:
                assert np.allclose(p.probs, q.probs, atol=1e-5)

    def test_infinite_when_q_misses_mass(self):
        assert kl_discrete(dd(0.5, 0.5), dd(1.0, 0.0)) == math.inf

    def test_frozen_values_nats(self):
        assert kl_discrete(dd(1.0, 0.0), dd(0.5, 0.5)) == pytest.approx(math.log(2))
        assert kl_discrete(dd(0.5, 0.5), dd(0.25, 0.75)) == pytest.approx(
            0.143841, abs=1e-6
        )

    def test_not_symmetric(self):
        a, b = dd(0.9, 0.1), dd(0.5, 0.5)
        assert kl_discrete(a, b) != kl_discrete(b, a)


class TestMultiPopulation:
    def test_identical_copies(self):
        p = dd(0.3, 0.7)
        assert multi_population_coefficient([p, p, p, p]) == pytest.approx(1.0)

    def test_disjoint_pair_zeroes_everything(self):
        out = multi_population_coefficient([dd(1, 0), dd(0, 1), dd(0.5, 0.5)])
        assert out == 0.0

    def test_reduces_to_pairwise(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p = DiscreteDist(random_discrete(rng, 6))
            q = DiscreteDist(random_discrete(rng, 6))
            multi = multi_population_coefficient([p, q])
            pair = bc_coefficient_discrete(p, q).coefficient
            assert multi == pytest.approx(pair, abs=1e-14)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        ds = [DiscreteDist(random_discrete(rng, 4)) for _ in range(4)]
        base = multi_population_coefficient(ds)
        assert multi_population_coefficient(ds[::-1]) == base
        assert multi_population_coefficient([ds[2], ds[0], ds[3], ds[1]]) == base

    def test_needs_two(self):
        with pytest.raises(DomainError):
            multi_population_coefficient([dd(1.0)])


class TestLabelledAlignment:
    """Labelled laws are compared outcome by outcome, whatever the order."""

    p = DiscreteDist([0.9, 0.1], ("a", "b"))
    q = DiscreteDist([0.1, 0.9], ("b", "a"))

    def test_permuted_labels_are_the_same_law(self):
        v = bc_coefficient_discrete(self.p, self.q)
        assert v.coefficient == 1.0 and v.distance == 0.0
        assert hellinger_discrete(self.p, self.q) == 0.0
        assert chi_squared_discrete(self.p, self.q) == 0.0
        assert kl_discrete(self.p, self.q) == 0.0
        assert multi_population_coefficient([self.p, self.q, self.p]) == 1.0

    def test_disjoint_labels_share_no_mass(self):
        r = DiscreteDist([0.9, 0.1], ("x", "y"))
        v = bc_coefficient_discrete(DiscreteDist([0.5, 0.5], ("a", "b")), r)
        assert v.coefficient == 0.0 and v.distance == math.inf
        assert kl_discrete(self.p, r) == math.inf
        assert hellinger_discrete(self.p, r) == pytest.approx(2.0, abs=1e-15)
        assert multi_population_coefficient([self.p, self.q, r]) == 0.0

    def test_missing_label_has_zero_mass(self):
        # different category counts pair on the union of labels
        r = DiscreteDist([0.5, 0.25, 0.25], ("b", "c", "d"))
        v = bc_coefficient_discrete(DiscreteDist([0.5, 0.5], ("a", "b")), r)
        assert v.coefficient == pytest.approx(0.5, abs=1e-15)
        assert kl_discrete(r, self.p) == math.inf

    def test_one_sided_labels_refused(self):
        bare = DiscreteDist([0.9, 0.1])
        for measure in (bc_coefficient_discrete, hellinger_discrete,
                        chi_squared_discrete, kl_discrete):
            with pytest.raises(DimensionMismatch, match="labelled and an unlabelled"):
                measure(self.p, bare)
            with pytest.raises(DimensionMismatch, match="labelled and an unlabelled"):
                measure(bare, self.p)
        with pytest.raises(DimensionMismatch, match="labelled and an unlabelled"):
            multi_population_coefficient([self.p, self.q, bare])

    def test_equal_labels_keep_positional_bits(self):
        rng = np.random.default_rng(12)
        labels = ("u", "v", "w", "x", "y")
        for _ in range(50):
            pv, qv = random_discrete(rng, 5), random_discrete(rng, 5)
            bare = DiscreteDist(pv), DiscreteDist(qv)
            named = DiscreteDist(pv, labels), DiscreteDist(qv, labels)
            assert (bc_coefficient_discrete(*named).coefficient
                    == bc_coefficient_discrete(*bare).coefficient)
            for measure in (hellinger_discrete, chi_squared_discrete, kl_discrete):
                assert measure(*named) == measure(*bare)
            assert (multi_population_coefficient([*named, named[0]])
                    == multi_population_coefficient([*bare, bare[0]]))


class TestSampleCoefficient:
    def test_identical_counts(self):
        assert sample_coefficient([2, 2], [2, 2]) == 1.0

    def test_disjoint_counts(self):
        assert sample_coefficient([4, 0], [0, 4]) == 0.0

    def test_frozen_value(self):
        assert sample_coefficient([3, 1], [1, 3]) == pytest.approx(0.866025, abs=1e-6)

    def test_matches_frequency_coefficient(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            cp = rng.integers(0, 20, size=5)
            cq = rng.integers(0, 20, size=5)
            if cp.sum() == 0 or cq.sum() == 0:
                continue
            direct = float(np.sqrt((cp / cp.sum()) * (cq / cq.sum())).sum())
            assert sample_coefficient(cp, cq) == pytest.approx(direct, abs=1e-15)

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            sample_coefficient([0, 0], [1, 1])

    @pytest.mark.parametrize("counts_p, counts_q, error, message", [
        ([1, 2], [1, 2, 3], DimensionMismatch, "count vectors must be 1-D and aligned"),
        ([[1, 2]], [[1, 2]], DimensionMismatch, "count vectors must be 1-D and aligned"),
        ([1, -1, 2], [1, 1, 1], DomainError, "counts must be nonnegative"),
    ], ids=["unaligned", "two-d", "negative"])
    def test_malformed_counts_refused(self, counts_p, counts_q, error, message):
        with pytest.raises(error) as info:
            sample_coefficient(counts_p, counts_q)
        assert str(info.value) == message


class TestCoefficientContinuous:
    def test_same_density(self):
        v = bc_coefficient_continuous(normal_pdf, normal_pdf, (-math.inf, math.inf))
        assert v.coefficient == pytest.approx(1.0, abs=1e-9)

    def test_shifted_normals(self):
        f = lambda x: normal_pdf(x, 0.0, 1.0)  # noqa: E731
        g = lambda x: normal_pdf(x, 1.0, 1.0)  # noqa: E731
        v = bc_coefficient_continuous(f, g, (-math.inf, math.inf))
        assert v.coefficient == pytest.approx(math.exp(-0.125), abs=1e-9)

    def test_disjoint_supports(self):
        f = lambda x: 1.0 if 0 <= x <= 1 else 0.0  # noqa: E731
        g = lambda x: 1.0 if 2 <= x <= 3 else 0.0  # noqa: E731
        v = bc_coefficient_continuous(f, g, (-1.0, 4.0))
        assert v.coefficient == 0.0 and v.distance == math.inf

    def test_not_a_density(self):
        with pytest.raises(NotADensity):
            bc_coefficient_continuous(
                lambda x: 2.0 * normal_pdf(x), normal_pdf, (-math.inf, math.inf)
            )


class TestDivergenceValue:
    def test_consistency_enforced(self):
        with pytest.raises(DomainError):
            DivergenceValue(0.5, 0.1)
        with pytest.raises(DomainError, match=r"coefficient must be in \[0, 1\], got 1.5"):
            DivergenceValue(1.5, 0.0)
        with pytest.raises(DomainError):
            DivergenceValue(0.0, 3.0)

    def test_from_distance_huge(self):
        v = DivergenceValue.from_distance(800.0)
        assert v.coefficient > 0.0 and math.isfinite(v.distance)

    def test_zero_distance_is_positive_zero(self):
        values = (DivergenceValue.from_coefficient(1.0), DivergenceValue.from_distance(-0.0),
                  bc_coefficient_discrete(dd(0.25, 0.75), dd(0.25, 0.75)))
        assert [math.copysign(1.0, v.distance) for v in values] == [1.0, 1.0, 1.0]

    def test_from_coefficient_overshoot_clamped(self):
        v = DivergenceValue.from_coefficient(1.0 + 1e-9)
        assert v.coefficient == 1.0 and v.distance == 0.0
        with pytest.raises(DomainError):
            DivergenceValue.from_coefficient(1.1)
