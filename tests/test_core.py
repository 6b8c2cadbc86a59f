"""Domain type invariants, constructor messages, and serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from distsim import (
    DiscreteDist,
    DistanceMatrix,
    GaussianMulti,
    GaussianUni,
    InvalidDistribution,
    MvnOverlapParams,
    OverlapParams,
    ParseError,
    QuadResult,
    SampleMatrix,
    TruncGaussianMulti,
    TruncGaussianUni,
    from_json,
    to_json,
)
from distsim.pipeline import estimate_mvn

NAN, INF = math.nan, math.inf
EYE2 = [[1.0, 0.0], [0.0, 1.0]]
SINGULAR = [[1.0, 1.0], [1.0, 1.0]]

#: (type, constructor arguments, the message construction raises)
MALFORMED = [
    (DiscreteDist, ([],), "probs must be a nonempty 1-D vector"),
    (DiscreteDist, ([[0.5, 0.5]],), "probs must be a nonempty 1-D vector"),
    (DiscreteDist, ([NAN, 1.0],), "probs must be finite"),
    (DiscreteDist, ([1.2, -0.2],), "probs must be nonnegative"),
    (DiscreteDist, ([0.6, 0.6],), "sum of probs is 1.2, not 1"),
    (DiscreteDist, ([-0.1, 0.6],), "probs must be nonnegative"),
    (DiscreteDist, ([0.5, 0.5], ("a",)), "labels length does not match probs length"),
    (DiscreteDist, ([0.5, 0.5], ("a", "a")), "labels must be distinct"),
    (GaussianUni, (NAN, 1.0), "mu and sigma2 must be finite"),
    (GaussianUni, (0.0, INF), "mu and sigma2 must be finite"),
    (GaussianUni, (0.0, 0.0), "sigma2 must be > 0, got 0.0"),
    (GaussianUni, (0.0, -1.5), "sigma2 must be > 0, got -1.5"),
    (GaussianMulti, ([[0.0]], [[1.0]]), "mu must be a finite 1-D vector"),
    (GaussianMulti, ([NAN, 0.0], EYE2), "mu must be a finite 1-D vector"),
    (GaussianMulti, ([0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
     "cov must be a square matrix"),
    (GaussianMulti, ([0.0], [1.0]), "cov must be a square matrix"),
    (GaussianMulti, ([0.0, 0.0], [[1.0, NAN], [NAN, 1.0]]), "cov must be finite"),
    (GaussianMulti, ([0.0, 0.0], [[1.0, 0.3], [0.1, 1.0]]), "cov is not symmetric"),
    (GaussianMulti, ([0.0, 0.0], SINGULAR), "cov is not positive definite"),
    (GaussianMulti, ([0.0, 0.0], [[-1.0, 0.0], [0.0, 1.0]]), "cov is not positive definite"),
    # two violations: the covariance is judged before the dimensions
    (GaussianMulti, ([0.0, 0.0, 0.0], SINGULAR), "cov is not positive definite"),
    (GaussianMulti, ([0.0, 0.0, 0.0], EYE2), "mu and cov dimensions do not match"),
    (TruncGaussianUni, (INF, 1.0), "mu and sigma2 must be finite"),
    (TruncGaussianUni, (0.0, -1.0, 0.0, 1.0), "sigma2 must be > 0, got -1.0"),
    (TruncGaussianUni, (0.0, 1.0, NAN, 1.0), "bounds must not be NaN"),
    (TruncGaussianUni, (0.0, 1.0, 2.0, 1.0), "lower bound 2.0 must be < upper bound 1.0"),
    (TruncGaussianUni, (0.0, 1.0, 1.0, 1.0), "lower bound 1.0 must be < upper bound 1.0"),
    (TruncGaussianMulti, ([NAN, 0.0], EYE2, [0.0, 0.0], [1.0, 1.0]),
     "mu must be a finite 1-D vector"),
    (TruncGaussianMulti, ([0.0, 0.0], SINGULAR, [0.0, 0.0], [1.0, 1.0]),
     "cov is not positive definite"),
    (TruncGaussianMulti, ([0.0, 0.0, 0.0], EYE2, [0.0, 0.0], [1.0, 1.0]),
     "mu and cov dimensions do not match"),
    (TruncGaussianMulti, ([0.0, 0.0], EYE2, [0.0], [1.0, 2.0]),
     "bound vectors must match mu length"),
    (TruncGaussianMulti, ([0.0, 0.0], EYE2, [NAN, 0.0], [1.0, 1.0]), "bounds must not be NaN"),
    (TruncGaussianMulti, ([0.0, 0.0], EYE2, [0.0, 0.0], [1.0, 0.0]),
     "each lower bound must be < the matching upper bound"),
    (SampleMatrix, ([1.0, 2.0],), "values must be a 2-D matrix"),
    (SampleMatrix, (np.zeros((0, 2)),), "matrix must have at least one row and one column"),
    (SampleMatrix, ([[1.0, NAN]],), "all entries must be finite"),
    (SampleMatrix, (np.ones((2, 2)), ("a",)), "labels length does not match column count"),
    (MvnOverlapParams, ([0.0], [1.0], [0.0], [1.0]), "S: cov must be a square matrix"),
    (MvnOverlapParams, ([0.0], [1.0], [0.0], [[INF]]), "S: cov must be finite"),
    (MvnOverlapParams, ([0.0] * 2, [1.0] * 2, [0.0] * 2, [[1.0, 0.3], [0.1, 1.0]]),
     "S: cov is not symmetric"),
    (MvnOverlapParams, ([0.0] * 2, [1.0] * 2, [0.0] * 2, SINGULAR),
     "S: cov is not positive definite"),
    (OverlapParams, (0.0, 1.0, 0.5, 0.0), "varsigma must be > 0"),
    (DistanceMatrix, (("a", "b"), np.zeros((3, 3))),
     "values must be G x G with G = len(labels)"),
    (DistanceMatrix, (("a", "b"), [[0.0, NAN], [NAN, 0.0]]), "distances must not be NaN"),
    (DistanceMatrix, (("a", "b"), [[0.0, -1.0], [-1.0, 0.0]]), "distances must be >= 0"),
    # symmetry is judged relative to sd_i sd_j: these entries differ 5e10-fold
    (GaussianMulti, ([0.0, 0.0], [[1e-20, 5e-11], [1e-21, 1e-20]]), "cov is not symmetric"),
]


class TestDiscreteDist:
    def test_valid(self):
        d = DiscreteDist([0.5, 0.5])
        assert d.k == 2

    def test_sum_violation_reported(self):
        with pytest.raises(InvalidDistribution, match="sum"):
            DiscreteDist([0.6, 0.6])

    def test_negative_rejected(self):
        with pytest.raises(InvalidDistribution):
            DiscreteDist([1.2, -0.2])

    def test_renormalizes_small_deviation_with_warning(self):
        probs = [0.5 + 3e-10, 0.5]
        with pytest.warns(UserWarning, match="renormalizing"):
            d = DiscreteDist(probs)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_exact_sum_not_renormalized(self):
        d = DiscreteDist([0.25, 0.75])
        assert d.probs[0] == 0.25 and d.probs[1] == 0.75

    def test_immutable(self):
        d = DiscreteDist([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_duplicate_labels_refused(self):
        with pytest.raises(InvalidDistribution, match="labels must be distinct"):
            DiscreteDist([0.5, 0.5], ("a", "a"))
        # labels are compared as the strings they are stored as
        with pytest.raises(InvalidDistribution, match="labels must be distinct"):
            DiscreteDist([0.5, 0.5], ("1", 1))
        with pytest.raises(InvalidDistribution, match="labels must be distinct"):
            from_json('{"type": "DiscreteDist", "probs": [0.5, 0.5], "labels": ["a", "a"]}')


class TestGaussianTypes:
    def test_uni_variance_positive(self):
        with pytest.raises(InvalidDistribution):
            GaussianUni(0.0, 0.0)
        assert GaussianUni(1.0, 4.0).sigma == 2.0

    def test_multi_zero_eigenvalue_reported(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(InvalidDistribution, match="positive definite"):
            GaussianMulti([0.0, 0.0], cov)

    def test_multi_log_det_and_condition_match_numpy(self):
        rng = np.random.default_rng(12)
        for k in (*range(1, 13), *range(5, 13)):
            a = rng.standard_normal((k, k))
            cov = a @ a.T + 0.1 * np.eye(k)
            g = GaussianMulti(np.zeros(k), cov)
            sign, log_det = np.linalg.slogdet(cov)
            assert sign == 1.0
            assert g.log_det == pytest.approx(log_det, rel=1e-12)
            assert g.condition == pytest.approx(np.linalg.cond(cov), rel=1e-12)

    def test_multi_decomposition_is_not_a_field(self):
        g = GaussianMulti([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        assert [f.name for f in dataclasses.fields(g)] == ["mu", "cov"]
        assert set(json.loads(to_json(g))) == {"type", "mu", "cov"}
        back = from_json(to_json(g))
        assert back.log_det == g.log_det and back.condition == g.condition
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.log_det = 0.0

    def test_multi_asymmetric_rejected(self):
        cov = np.array([[1.0, 0.3], [0.1, 1.0]])
        with pytest.raises(InvalidDistribution, match="symmetric"):
            GaussianMulti([0.0, 0.0], cov)

    def test_truncated_bounds_ordering(self):
        with pytest.raises(InvalidDistribution):
            TruncGaussianUni(0.0, 1.0, 2.0, 1.0)
        t = TruncGaussianUni(0.0, 1.0)
        assert t.lower == -math.inf and t.upper == math.inf

    def test_truncated_multi_bound_shapes(self):
        with pytest.raises(InvalidDistribution):
            TruncGaussianMulti([0.0, 0.0], np.eye(2), [0.0], [1.0, 2.0])


class TestConstructionChecks:
    """Construction is the one place invariants are checked."""

    @pytest.mark.parametrize("cls, args, message", MALFORMED,
                             ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(MALFORMED)])
    def test_constructor_reports_the_first_violation(self, cls, args, message):
        with pytest.raises(InvalidDistribution) as info:
            cls(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("build, calls", [
        (lambda: GaussianMulti(np.zeros(3), np.diag([1.0, 2.0, 3.0])), 1),
        (lambda: TruncGaussianMulti(np.zeros(3), np.diag([1.0, 2.0, 3.0]),
                                    -np.ones(3), np.ones(3)), 1),
        (lambda: estimate_mvn(SampleMatrix(
            np.random.default_rng(5).standard_normal((250, 10)))), 1),
    ], ids=["GaussianMulti", "TruncGaussianMulti", "estimate_mvn"])
    def test_covariance_decompositions_per_build(self, monkeypatch, build, calls):
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a) or eigvalsh(a))
        build()
        assert len(seen) == calls

    def test_uncoercible_value_raises_as_construction_does(self):
        with pytest.raises(ValueError):
            GaussianUni("x", 1.0)


class TestSampleMatrix:
    def test_requires_finite(self):
        with pytest.raises(InvalidDistribution):
            SampleMatrix(np.array([[1.0, np.nan]]))

    def test_labels_default(self):
        m = SampleMatrix(np.ones((3, 2)))
        assert m.labels == ("c0", "c1")

    def test_csv_roundtrip(self, tmp_path):
        values = np.array([[1.25, -3.5e-7], [math.pi, 2.0 ** -40]])
        m = SampleMatrix(values, ("alpha", "beta"))
        path = tmp_path / "m.csv"
        m.to_csv(path)
        back = SampleMatrix.from_csv(path)
        assert back.labels == ("alpha", "beta")
        assert np.array_equal(back.values, values)


    def test_csv_header_labels_stripped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(" a , b\n1,2\n")
        assert SampleMatrix.from_csv(path).labels == ("a", "b")

    @pytest.mark.parametrize("rows, where", [
        ("1,2\nNA,4\n", "row 3, column 'a'"),
        ("1,2\n3\n", "row 3 .*column 2 "),
        ("1,2\n3,x\n", "row 3, column 'b'"),
        ("", "need a header row and at least one data row"),
    ], ids=["na-cell", "ragged-row", "non-numeric", "header-only"])
    def test_csv_refusals_name_row_and_column(self, tmp_path, rows, where):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n" + rows)
        with pytest.raises(ParseError, match=where):
            SampleMatrix.from_csv(path)


class TestDistanceMatrix:
    def test_diagonal_must_vanish(self):
        with pytest.raises(InvalidDistribution):
            DistanceMatrix(("a", "b"), np.array([[0.1, 1.0], [1.0, 0.0]]))

    def test_symmetric_flag_checked(self):
        vals = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidDistribution):
            DistanceMatrix(("a", "b"), vals, symmetric=True)
        DistanceMatrix(("a", "b"), vals)  # fine when not flagged

    def test_infinite_entries_allowed(self):
        vals = np.array([[0.0, math.inf], [math.inf, 0.0]])
        m = DistanceMatrix(("a", "b"), vals, symmetric=True)
        assert m.to_dict()["matrix"][0][1] == "inf"


class TestSerialization:
    def test_json_roundtrip_bit_exact(self):
        dists = [
            DiscreteDist([0.1, 0.2, 0.7], ("x", "y", "z")),
            GaussianUni(math.pi, 2.0 ** -30),
            GaussianMulti([0.1, -0.2], [[1.5, 0.2], [0.2, 0.9]]),
            TruncGaussianUni(0.5, 1.5, -2.0, math.inf),
            TruncGaussianMulti([0.0, 1.0], np.eye(2),
                               [-math.inf, 0.0], [1.0, math.inf]),
        ]
        for d in dists:
            back = from_json(to_json(d))
            assert type(back) is type(d)
            for field in d.to_dict():
                if field == "type":
                    continue
                a, b = getattr(d, field), getattr(back, field)
                if field == "labels":
                    assert a == b
                else:
                    assert np.array_equal(np.asarray(a, dtype=float),
                                          np.asarray(b, dtype=float))

    def test_infinities_encoded_as_strings(self):
        t = TruncGaussianUni(0.0, 1.0, -math.inf, 3.0)
        payload = json.loads(to_json(t))
        assert payload["lower"] == "-inf"
        assert payload["upper"] == 3.0

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidDistribution):
            from_json('{"type": "Mystery"}')

    def test_golden_strings(self):
        # pins key order, list nesting and the infinity encoding
        cases = [
            (DiscreteDist([0.25, 0.75], ("lo", "hi")),
             '{"type": "DiscreteDist", "probs": [0.25, 0.75], "labels": ["lo", "hi"]}'),
            (DiscreteDist([1.0]), '{"type": "DiscreteDist", "probs": [1.0]}'),
            (GaussianUni(-1.5, 0.1), '{"type": "GaussianUni", "mu": -1.5, "sigma2": 0.1}'),
            (GaussianMulti([0.5, -2.0], [[2.0, 0.3], [0.3, 1.0]]),
             '{"type": "GaussianMulti", "mu": [0.5, -2.0], "cov": [[2.0, 0.3], [0.3, 1.0]]}'),
            (TruncGaussianUni(0.0, 4.0, -math.inf, 1.5),
             '{"type": "TruncGaussianUni", "mu": 0.0, "sigma2": 4.0, "lower": "-inf", '
             '"upper": 1.5}'),
            (TruncGaussianMulti([0.0, 1.0], [[1.0, 0.0], [0.0, 2.0]],
                                [-math.inf, 0.5], [2.0, math.inf]),
             '{"type": "TruncGaussianMulti", "mu": [0.0, 1.0], "cov": [[1.0, 0.0], '
             '[0.0, 2.0]], "lower": ["-inf", 0.5], "upper": [2.0, "+inf"]}'),
        ]
        for dist, text in cases:
            assert to_json(dist) == text
            assert to_json(from_json(text)) == text

    @pytest.mark.parametrize("text", [
        '{"type": "GaussianUni", "mu": 0}',
        '[{"type": "GaussianUni", "mu": 0, "sigma2": 1}]',
        '{"type": "DiscreteDist", "probs": "ab"}',
        '{"type": "GaussianUni", "mu": "0.5", "sigma2": 1}',
        '{"type": "GaussianUni", "mu": true, "sigma2": 1}',
        '{"type": "GaussianUni", "mu": 0, "sigma2": [1]}',
        '{"type": "GaussianMulti", "mu": [0, 0], "cov": [[1, 0], [0]]}',
        '{"type": "DiscreteDist", "probs": [0.5, 0.5], "labels": [1, 2]}',
        '{"type": ["GaussianUni"]}',
        '{"type": "GaussianUni", "mu": 0,',
    ], ids=["missing-field", "array", "string-probs", "string-number", "bool",
            "list-for-scalar", "ragged-cov", "numeric-labels", "list-type", "truncated"])
    def test_malformed_documents_refused(self, text):
        with pytest.raises(InvalidDistribution):
            from_json(text)


class TestMisc:
    def test_overlap_params_guard(self):
        with pytest.raises(InvalidDistribution):
            OverlapParams(1.0, 0.5, 0.0, 1.0)

    def test_quad_result_error_nonnegative(self):
        with pytest.raises(InvalidDistribution):
            QuadResult(1.0, -0.1, 10)
