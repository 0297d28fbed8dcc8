import json

import numpy as np
import pytest

from uqsl2 import QParam, TensorOperator, r_verma_direct, semicyclic, truncated_verma
from uqsl2.reps import BOTH_SIDES, _delta
from uqsl2.tensorop import (_graded_entries, cmat, cnum, embed_two_site, grading_modulus,
                            identity_plus_kron_sum, intertwine_defect, kron2, masked_max_abs,
                            safe_mask, sector_plan, total_degree, total_degree_mask,
                            weight_sectors, ybe_defect)


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
    """The scatter forms each product As[n][i, k] Bs[n][j, l] as np.kron does and sums an
    entry's terms in term order, as kron_loop does, so off the diagonal the two agree bit
    for bit; on it, kron_loop adds the identity first and the scatter last, so there they
    differ by at most 2 (K + 1) u of 1 + sum_n |As[n] (x) Bs[n]|, K terms summed each way."""

    @staticmethod
    def check(As, Bs, d1, d2):
        got, ref = identity_plus_kron_sum(As, Bs, d1, d2), kron_loop(As, Bs, d1, d2)
        off = ~np.eye(d1 * d2, dtype=bool)
        assert got.shape == (d1 * d2, d1 * d2) and got.dtype == complex
        assert np.array_equal(got[off], ref[off])
        size = 1 + sum(np.abs(np.kron(A, B)) for A, B in zip(As, Bs))
        bound = 2 * (len(As) + 1) * 2.0**-53 * np.diagonal(size)
        assert np.all(np.abs(np.diagonal(got) - np.diagonal(ref)) <= bound)

    @pytest.mark.parametrize("d1,d2,terms", [(2, 3, 1), (4, 2, 3), (3, 3, 5), (5, 1, 2)])
    def test_matches_kron_loop(self, d1, d2, terms):
        rng = np.random.default_rng(d1 * 10 + d2)
        self.check([random_matrix(rng, d1) for _ in range(terms)],
                   [random_matrix(rng, d2) for _ in range(terms)], d1, d2)

    def test_overlapping_supports(self):
        # the wrap terms of r_reshetikhin_product: several terms reach the same entries
        rng = np.random.default_rng(11)
        E = np.diag(rng.normal(size=3) + 1j, 1)
        F = np.diag(rng.normal(size=3) - 1j, -1)
        F[0, 3] = 0.7 - 0.2j  # a wrap: F^4 is a multiple of 1, on the diagonal
        As = [E, 2 * E, E @ E, np.linalg.matrix_power(E, 3), np.zeros((4, 4))]
        Bs = [F, np.linalg.matrix_power(F, 5), F @ F, np.linalg.matrix_power(F, 3), F]
        self.check(As, Bs, 4, 4)

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
        triples = [(M, (d,), s) for d in dims
                   for M, s in ((self.cyclic_shift(d, wrap), 1), (np.eye(d), 0))]
        assert grading_modulus(triples, dims) == expected

    def test_zero_matrix_respects_every_grading(self):
        assert grading_modulus([(np.zeros((4, 4)), (4,), 7)], (4,)) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_respects_only_the_trivial_grading(self, bad):
        M = np.eye(4, dtype=complex)
        M[2, 2] = bad  # on the diagonal, where a finite entry would keep the degree
        assert grading_modulus([(M, (4,), 0)], (4,)) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_off_the_degree_respects_only_the_trivial_grading(self, bad):
        M = np.eye(4, dtype=complex)
        M[2, 0] = bad  # two degrees off, where a finite entry would keep the degree mod 2
        assert grading_modulus([(M, (4,), 0)], (4, 2)) == 1
        M[2, 0] = 1.0
        assert grading_modulus([(M, (4,), 0)], (4, 2)) == 2

    def test_signed_zeros_and_real_matrices_are_read_as_zeros(self):
        M = np.eye(4, k=-1)  # real
        M[0, 3] = -0.0  # a signed zero where a nonzero would break the exact degree
        assert grading_modulus([(M, (4,), 1)], (4,)) == 0
        assert grading_modulus([(M.astype(complex) * (-1 - 1j), (4,), 1)], (4,)) == 0
        M[0, 3] = 0.5
        assert grading_modulus([(M, (4,), 1)], (4,)) == 4

    def test_graded_entries_are_cached_read_only(self):
        pos = _graded_entries((3, 2), 1, 0)
        assert pos is _graded_entries((3, 2), 1, 0) and not pos.flags.writeable
        deg = total_degree((3, 2))
        ref = np.flatnonzero(np.subtract.outer(deg, deg) == 1)
        assert np.array_equal(pos, ref)


def uncached_weight_sectors(ops, dims, col_mask):
    """weight_sectors before its sector plan: unravel_index and np.ix_ per call, kept
    here as the reference of the cached gathers."""
    ops = list(ops)
    total = total_degree(dims)
    g = grading_modulus([(M, tuple(dims[s] for s in sites), 0) for M, sites in ops], dims)
    sector = total % g if g else total
    keep = np.ones(total.size, dtype=bool) if col_mask is None else np.asarray(col_mask)

    def restrict(M, sites, idx):
        if len(sites) == 3:
            return M[np.ix_(idx, idx)]
        parts = np.unravel_index(idx, dims)
        s1, s2 = sites
        (spare,) = {0, 1, 2} - set(sites)
        pair = parts[s1] * dims[s2] + parts[s2]
        other = parts[spare]
        return M[np.ix_(pair, pair)] * (other[:, None] == other[None, :])

    for t in np.unique(sector[keep]):
        idx = np.flatnonzero(sector == t)
        yield [restrict(M, sites, idx) for M, sites in ops], keep[idx]


def verma_triple_ops(depths, qp):
    reps = [truncated_verma(lam, d, qp) for lam, d in zip((0.63 + 0.17j, 1.21 - 0.09j,
                                                          0.44 + 0.21j), depths)]
    R12, R13, R23 = (r_verma_direct(reps[a], reps[b]).mat for a, b in ((0, 1), (0, 2), (1, 2)))
    whole = np.kron(R12, np.eye(depths[2])) @ embed_two_site(R13, depths, (0, 2))
    return [(R12, (0, 1)), (R13, (0, 2)), (R23, (1, 2)), (whole, (0, 1, 2))]


def semicyclic_triple_ops(qp):
    """Images of Delta(E) Delta(F) on pairs of semicyclic modules, which keep the total
    degree mod N only (F wraps), and one on the whole product."""
    N = qp.N
    mods = [semicyclic(a, lam, qp) for a, lam in ((0.7, 0.8), (0.3, 1.3 - 0.1j), (0.5, 0.4j))]

    def ef(a, b):
        D = _delta(*((m.E, m.F, m.K, m.Kinv) for m in (mods[a], mods[b])), BOTH_SIDES)[0]
        return D["E"] @ D["F"]

    ops = [(ef(0, 1), (0, 1)), (ef(0, 2), (0, 2)), (ef(1, 2), (1, 2))]
    return ops + [(np.kron(ops[0][0], mods[2].F @ mods[2].E), (0, 1, 2))]


class TestWeightSectorPlan:
    """weight_sectors gathers through the cached sector_plan; its restrictions equal
    uncached_weight_sectors' bit for bit."""

    @pytest.mark.parametrize("case", ["verma-3-4-5", "verma-4-4-4", "semicyclic-N'=3",
                                      "semicyclic-N'=5", "ungraded"])
    @pytest.mark.parametrize("masked", [False, True], ids=["all-columns", "safe-window"])
    def test_restrictions_are_bit_identical(self, case, masked):
        qp = QParam.generic(1.13 + 0.03j)
        if case.startswith("verma"):
            dims = tuple(int(c) for c in case.split("-")[1:])
            ops = verma_triple_ops(dims, qp)
        elif case == "ungraded":
            dims = (3, 4, 3)
            ops = verma_triple_ops(dims, qp)
            ops[0] = (ops[0][0].copy(), (0, 1))
            ops[0][0][-1, 0] = 0.5  # breaks the grading: one sector of every index
        else:
            qp = QParam.root_of_unity(int(case[-1]))
            dims = (qp.N,) * 3
            ops = semicyclic_triple_ops(qp)
        mask = safe_mask(dims, 1) if masked else None
        got = list(weight_sectors(ops, dims, mask))
        ref = list(uncached_weight_sectors(ops, dims, mask))
        assert len(got) == len(ref) and (len(got) == 1) == (case == "ungraded")
        for (blocks, cols), (ref_blocks, ref_cols) in zip(got, ref):
            assert np.array_equal(cols, ref_cols)
            for b, r in zip(blocks, ref_blocks):
                assert b.shape == r.shape and b.tobytes() == r.tobytes()

    @pytest.mark.parametrize("dims,g,mask", [((3, 4), 0, None), ((3, 3), 3, None),
                                             ((3, 4, 3), 0, safe_mask((3, 4, 3), 1)),
                                             ((5, 2), 1, None)])
    def test_plan_is_cached_and_read_only(self, dims, g, mask):
        key = None if mask is None else mask.tobytes()
        plan = sector_plan(dims, g, key)
        assert plan is sector_plan(dims, g, key)
        arrays = [plan.index, plan.gather, plan.src, plan.dst, *plan.cols,
                  *(a for pair in plan.pairs.values() for a in pair)]
        assert len(plan.pairs) == (3 if len(dims) == 3 else 0)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a.reshape(-1)[0] = a.reshape(-1)[0]

    def test_a_mask_of_no_column_leaves_no_sector(self):
        dims = (2, 3, 2)
        R = np.eye(6, dtype=complex)
        none = np.zeros(12, dtype=bool)
        assert list(weight_sectors([(R, (0, 1))], dims, none)) == []
        assert ybe_defect(R, np.eye(4, dtype=complex), R, dims, none) == 0.0

    def test_pads_point_into_another_sector(self):
        plan = sector_plan((3, 4), 0)
        total = total_degree((3, 4))
        for s, n in enumerate(plan.sizes):
            assert len(set(total[plan.index[s, :n]])) == 1
            assert not np.isin(plan.index[s, n:], plan.index[s, :n]).any()


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
