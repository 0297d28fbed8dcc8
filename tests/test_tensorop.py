import json

import numpy as np

from uqsl2 import TensorOperator
from uqsl2.tensorop import cmat, cnum, from_cmat, intertwine_defect


class TestComplexCodec:
    def test_number_pair(self):
        assert cnum(1.5 - 2j) == [1.5, -2.0]
        assert cnum(0.25) == [0.25, 0.0]
        assert all(type(v) is float for v in cnum(np.complex128(3 + 4j)))

    def test_matrix_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        back = from_cmat(json.loads(json.dumps(cmat(M))))
        assert back.dtype == complex and np.array_equal(back, M)

    def test_operator_roundtrip(self):
        rng = np.random.default_rng(4)
        R = TensorOperator((2, 3), rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        back = TensorOperator.from_json(json.loads(json.dumps(R.to_json())))
        assert back.dims == (2, 3) and np.array_equal(back.mat, R.mat)


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
