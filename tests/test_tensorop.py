import json

import numpy as np
import pytest

from uqsl2 import TensorOperator
from uqsl2.tensorop import (cmat, cnum, embed_two_site, grading_modulus,
                            identity_plus_kron_sum, intertwine_defect, kron2, masked_max_abs,
                            safe_mask, total_degree, total_degree_mask)


def decoded(pairs) -> np.ndarray:
    """Parsed [re, im] pairs as complex, every bit kept (signed zeros and subnormals too)."""
    return np.array(pairs, float).view(complex)[..., 0]


def operator_schema() -> dict:
    import importlib.resources as res
    return json.loads(
        res.files("uqsl2.schemas").joinpath("tensor_operator.schema.json").read_text())


class TestComplexCodec:
    def test_number_pair(self):
        assert cnum(1.5 - 2j) == [1.5, -2.0]
        assert cnum(0.25) == [0.25, 0.0]
        assert all(type(v) is float for v in cnum(np.complex128(3 + 4j)))

    def test_matrix_roundtrip_is_bit_exact(self):
        import jsonschema
        rng = np.random.default_rng(3)
        M = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        M[0, 0] = complex(-0.0, 5e-324)  # a signed zero and the smallest subnormal
        M[2, 1] = complex(1e-310, -0.0)
        doc = json.loads(json.dumps(cmat(M)))
        jsonschema.validate(doc, operator_schema()["properties"]["matrix"])
        back = decoded(doc)
        assert back.shape == M.shape and back.tobytes() == M.tobytes()
        assert np.signbit(back[0, 0].real) and np.signbit(back[2, 1].imag)

    def test_operator_roundtrip(self):
        import jsonschema
        rng = np.random.default_rng(4)
        R = TensorOperator((2, 3), rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        R.mat[1, 4] = complex(-0.0, -0.0)
        doc = json.loads(json.dumps(R.to_json()))
        jsonschema.validate(doc, operator_schema())
        back = decoded(doc["matrix"])
        assert doc["dims"] == [2, 3]
        assert back.shape == R.mat.shape and back.tobytes() == R.mat.tobytes()


class TestIntertwineDefect:
    def test_zero_for_an_intertwiner(self):
        A = np.diag([1.0, 2.0, 3.0]).astype(complex)
        R = np.diag([2.0, -1.0, 0.5]).astype(complex)
        assert intertwine_defect(R, {"a": A}, {"a": A}, None) == 0.0

    def test_worst_generator_on_masked_columns(self):
        R = np.eye(2, dtype=complex)
        left = {"a": np.array([[0, 1], [0, 0]], dtype=complex), "b": np.zeros((2, 2))}
        right = {"a": np.zeros((2, 2)), "b": np.array([[0, 0], [3, 0]], dtype=complex)}
        assert intertwine_defect(R, left, right, None) == 3.0
        assert intertwine_defect(R, left, right, np.array([False, True])) == 1.0

    def test_nan_residual_propagates(self):
        R = np.eye(2, dtype=complex)
        R[1, 1] = np.nan
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.isnan(intertwine_defect(R, {"a": A}, {"a": A}, None))


class TestKron2:
    """kron2 forms each entry as the one product np.kron forms, so they agree bit for bit."""

    @staticmethod
    def reference(A, B):
        A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
        if A.ndim == 3:  # a stack: np.kron of each pair of slices
            return np.stack([np.kron(a, b) for a, b in zip(A, B)])
        return np.kron(A, B)

    @pytest.mark.parametrize("case", ["real-x-complex", "rectangular", "d1-ne-d2", "1x1",
                                      "stack"])
    def test_equals_np_kron(self, case):
        rng = np.random.default_rng(7)
        A, B = {
            "real-x-complex": (rng.normal(size=(3, 3)), random_matrix(rng, 3)),
            "rectangular": (rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5)),
                            rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))),
            "d1-ne-d2": (random_matrix(rng, 2), random_matrix(rng, 5)),
            "1x1": (np.array([[-1.5 + 2j]]), np.array([[-0.0]])),
            "stack": (np.stack([random_matrix(rng, 3) for _ in range(4)]),
                      rng.normal(size=(4, 2, 5)) + 1j * rng.normal(size=(4, 2, 5))),
        }[case]
        B[-1, 0] = -0.0  # signed zeros must come out as np.kron gives them
        got, ref = kron2(A, B), self.reference(A, B)
        assert got.dtype == complex and got.shape == ref.shape
        assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes()


def kron_loop(As, Bs, d1, d2):
    """1 + sum_n As[n] (x) Bs[n], one np.kron per term: the form the Kronecker-power
    sums took before the contraction."""
    out = np.eye(d1 * d2, dtype=complex)
    for A, B in zip(As, Bs):
        out += np.kron(A, B)
    return out


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestKronSumContraction:
    @pytest.mark.parametrize("d1,d2,terms", [(2, 3, 1), (4, 2, 3), (3, 3, 5), (5, 1, 2)])
    def test_matches_kron_loop(self, d1, d2, terms):
        rng = np.random.default_rng(d1 * 10 + d2)
        As = [random_matrix(rng, d1) for _ in range(terms)]
        Bs = [random_matrix(rng, d2) for _ in range(terms)]
        got = identity_plus_kron_sum(As, Bs, d1, d2)
        ref = kron_loop(As, Bs, d1, d2)
        assert got.shape == (d1 * d2, d1 * d2)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_real_factors_give_a_complex_sum(self):
        got = identity_plus_kron_sum([np.eye(2)], [np.ones((3, 3))], 2, 3)
        ref = kron_loop([np.eye(2)], [np.ones((3, 3))], 2, 3)
        assert got.dtype == complex and np.array_equal(got, ref)

    def test_empty_term_list_is_the_identity(self):
        got = identity_plus_kron_sum([], [], 2, 5)
        assert got.dtype == complex and np.array_equal(got, np.eye(10))


class TestGradingRule:
    def test_total_degree_is_the_index_sum(self):
        ref = np.add.outer(np.add.outer(np.arange(3), np.arange(4)), np.arange(2)).reshape(-1)
        assert np.array_equal(total_degree((3, 4, 2)), ref)
        assert np.array_equal(total_degree_mask((3, 4, 2), 2), ref <= 2)

    @staticmethod
    def cyclic_shift(d, wrap):
        """v_i -> v_{i+1}, and v_{d-1} -> wrap * v_0."""
        M = np.eye(d, k=-1, dtype=complex)
        M[0, d - 1] = wrap
        return M

    @pytest.mark.parametrize("dims,wrap,expected", [
        ((3, 6), 0.0, 0),   # no wrap entry: the exact degree
        ((3, 6), 0.5, 3),   # the wrap keeps the degree mod gcd(3, 6) = 3
        ((3, 4), 0.5, 1),   # gcd 1: one block
    ])
    def test_finest_grading(self, dims, wrap, expected):
        triples = [(M, np.arange(d), s) for d in dims
                   for M, s in ((self.cyclic_shift(d, wrap), 1), (np.eye(d), 0))]
        assert grading_modulus(triples, dims) == expected

    def test_zero_matrix_respects_every_grading(self):
        assert grading_modulus([(np.zeros((4, 4)), np.arange(4), 7)], (4,)) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_respects_only_the_trivial_grading(self, bad):
        M = np.eye(4, dtype=complex)
        M[2, 2] = bad  # on the diagonal, where a finite entry would keep the degree
        assert grading_modulus([(M, np.arange(4), 0)], (4,)) == 1


class TestArgumentGuards:
    """One row per argument the tensor-operator helpers refuse."""

    @pytest.mark.parametrize("call,match", [
        (lambda: TensorOperator((2, 2), np.eye(3)), r"matrix shape \(3, 3\) inconsistent"),
        (lambda: embed_two_site(np.eye(4), (2, 2, 2), (1, 0)), "unsupported embedding positions"),
        (lambda: safe_mask((3, 3), -1), "margin must be >= 0, got -1"),
    ], ids=["shape", "embedding-order", "negative-margin"])
    def test_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_masked_max_abs_over_no_columns_is_zero(self):
        # an empty comparison adds nothing to the maximum it is taken into
        assert masked_max_abs(np.ones((2, 2)), np.zeros(2, dtype=bool)) == 0.0
