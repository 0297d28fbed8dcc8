import dataclasses
import json

import numpy as np
import pytest

from uqsl2 import (InadmissibleParameters, QParam, casimir, central_check,
                   coproduct, cyclic, defining_relations_residual, intertwine_residual,
                   opposite_coproduct, qnumber, semicyclic, tensor_rep, truncated_verma)
from uqsl2.reps import BOTH_SIDES, _delta, _row_window, safe_window
from uqsl2.tensorop import EmptySafeWindow, TensorOperator, safe_mask

QP = QParam.generic(1.17 + 0.06j)
QP3 = QParam.root_of_unity(3)
QP5 = QParam.root_of_unity(5)


class TestTruncatedVerma:
    def test_ladder_action(self):
        lam = 0.83 + 0.21j
        rep = truncated_verma(lam, 5, QP)
        v1 = np.eye(5)[:, 1]
        # E v_1 = [1][lam] v_0 = [lam] v_0
        assert np.allclose(rep.E @ v1, qnumber(lam, QP) * np.eye(5)[:, 0])
        assert np.allclose(rep.E @ np.eye(5)[:, 0], 0)
        assert np.allclose(rep.F @ np.eye(5)[:, 4], 0)  # truncation cut

    @pytest.mark.parametrize("qp", [QP, QP5], ids=["generic", "root-5"])
    def test_matches_the_entrywise_build(self, qp):
        # the former build, entry by entry with cmath.exp.  Each power of q differs from
        # np.exp's by at most 4u relative (u the unit roundoff); a bracket [x] then by
        # 8u B(x), B(x) = (|q^x| + |q^-x|) / |q - q^-1| (one subtraction, one quotient),
        # and a product of two brackets by 20u B(x) B(y)
        lam, depth, u = 0.83 + 0.21j, 7, 2.0**-53
        rep = truncated_verma(lam, depth, qp)
        F, E, bound = (np.zeros((depth, depth), dtype=complex) for _ in range(3))
        for m in range(1, depth):
            F[m, m - 1] = 1.0
            E[m - 1, m] = qnumber(m, qp) * qnumber(lam - m + 1, qp)
            bound[m - 1, m] = 20 * u * np.prod([(abs(qp.qpow(x)) + abs(qp.qpow(-x)))
                                                / abs(qp.q - 1 / qp.q) for x in (m, lam - m + 1)])
        K = np.diag([qp.qpow(lam - 2 * m) for m in range(depth)])
        assert rep.F.dtype == complex and np.array_equal(rep.F, F)
        assert np.all(np.abs(rep.K - K) <= 4 * u * np.abs(K))
        assert np.all(np.abs(rep.E - E) <= bound.real)

    def test_defining_relations_outside_defect(self):
        rep = truncated_verma(0.83 + 0.21j, 6, QP)
        assert defining_relations_residual(rep, skip_cols=(5,)) < 1e-12
        # the cut really breaks the commutator on the last column
        assert defining_relations_residual(rep) > 0.1

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            truncated_verma(complex("nan"), 2, QP)
        rep = truncated_verma(0.83 + 0.21j, 2, QP)
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(rep, lam=complex(0.8, float("inf")))

    @pytest.mark.parametrize("gen", ["E", "F", "K"])
    def test_non_finite_generator_entries_rejected(self, gen):
        rep = truncated_verma(0.83 + 0.21j, 3, QP)
        bad = getattr(rep, gen).copy()
        bad[0, 0] = complex("nan")
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(rep, **{gen: bad})

    def test_non_diagonal_cartan_rejected(self):
        # Kinv and the intertwiner solver's K0 bound read K as its diagonal
        rep = truncated_verma(0.83 + 0.21j, 3, QP)
        K = rep.K.copy()
        K[0, 1] = 1e-3
        with pytest.raises(ValueError, match="not diagonal"):
            dataclasses.replace(rep, K=K)

    def test_spin_half_block_against_direct_solve(self):
        # brute-force the 2x2 module: F fixed, K = diag(q, 1/q), solve [E,F]
        rep = truncated_verma(1.0, 2, QP)
        q = QP.q
        F = np.array([[0, 0], [1, 0]], dtype=complex)
        K = np.diag([q, 1 / q])
        # E = [[0, e], [0, 0]] with [E,F] = (K - K^-1)/(q - 1/q):  e = [1] = 1
        e = ((K - np.linalg.inv(K)) / (q - 1 / q))[0, 0]
        E = np.array([[0, e], [0, 0]], dtype=complex)
        assert np.allclose(rep.E, E)
        assert np.allclose(rep.F, F)
        assert np.allclose(rep.K, K)
        assert defining_relations_residual(rep) < 1e-12  # honest module at lam = 1


class TestSemicyclic:
    def test_nilpotent_case_matches_truncation(self):
        lam = 0.62 + 0.13j
        sc = semicyclic(0.0, lam, QP3)
        tv = truncated_verma(lam, QP3.N, QP3)
        assert np.allclose(sc.F, tv.F)
        assert np.allclose(sc.E, tv.E)

    def test_wrap_makes_FN_scalar(self):
        sc = semicyclic(0.7, 1.0, QP3)
        FN = np.linalg.matrix_power(sc.F, QP3.N)
        assert np.max(np.abs(FN - 0.7 * np.eye(3))) < 1e-12

    def test_relations_hold_on_all_rows(self):
        # wrap row included: the boundary ladder coefficient vanishes at the root
        sc = semicyclic(0.7, 1.0, QP3)
        assert defining_relations_residual(sc) < 1e-12

    def test_generic_q_rejected(self):
        with pytest.raises(ValueError):
            semicyclic(0.4, 1.0, QP)


class TestCyclic:
    def test_beta_zero_reduces_to_semicyclic(self):
        lam, alpha = 0.91 - 0.08j, 0.45 + 0.2j
        cy = cyclic(0.0, alpha, lam, QP3)
        sc = semicyclic(alpha, lam, QP3)
        assert np.max(np.abs(cy.E - sc.E)) < 1e-12
        assert np.max(np.abs(cy.F - sc.F)) < 1e-12

    def test_defining_relations_and_central_values(self):
        beta, alpha, lam = 0.3, 0.7, 1.0
        cy = cyclic(beta, alpha, lam, QP3)
        assert defining_relations_residual(cy) < 1e-9
        N = QP3.N
        assert np.max(np.abs(np.linalg.matrix_power(cy.E, N) - beta * np.eye(N))) < 1e-9
        assert np.max(np.abs(np.linalg.matrix_power(cy.F, N) - alpha * np.eye(N))) < 1e-9
        KN = np.linalg.matrix_power(cy.K, N)
        assert np.max(np.abs(KN - QP3.qpow(N * lam) * np.eye(N))) < 1e-9

    def test_casimir_scalar_on_cyclic(self):
        cy = cyclic(0.3, 0.7, 1.0, QP3)
        c = casimir(cy)
        mu = np.trace(c) / cy.dim
        assert np.max(np.abs(c - mu * np.eye(cy.dim))) < 1e-9

    def test_inadmissible_raises(self):
        # alpha = 0 with nonzero beta needs the full ladder product nonzero;
        # an integer weight kills it
        with pytest.raises(InadmissibleParameters):
            cyclic(0.5, 0.0, 1.0, QP3)

    @staticmethod
    def bracket_scale(qp, xs):
        """The scale (|q^x| + |q^-x|) / |q - q^-1| on which each bracket [x] is rounded."""
        q = qp.q
        return max((abs(qp.qpow(x)) + abs(qp.qpow(-x))) / abs(q - 1 / q) for x in xs)

    @pytest.mark.parametrize("nprime", [3, 5, 7])
    def test_alpha_and_beta_zero_is_the_semicyclic_module(self, nprime):
        # E v_m sums m brackets [lam - 2k] where semicyclic multiplies [m][lam - m + 1]:
        # both are N rounded brackets and N roundings of a sum or product apart
        qp = QParam.root_of_unity(nprime)
        N, lam = qp.N, 0.91 - 0.08j
        cy, sc = cyclic(0.0, 0.0, lam, qp), semicyclic(0.0, lam, qp)
        assert np.array_equal(cy.F, sc.F) and np.array_equal(cy.K, sc.K)
        s = self.bracket_scale(qp, [lam - 2 * k for k in range(N)] + list(range(N + 1))
                               + [lam - m + 1 for m in range(N)])
        assert np.max(np.abs(cy.E - sc.E)) <= 8 * N**2 * np.finfo(float).eps * max(s, s * s)

    @pytest.mark.parametrize("nprime", [3, 5, 7])
    def test_alpha_zero_wraps_e_to_beta(self, nprime):
        # E^N is diagonal, each entry the product of the N ladder entries and the
        # wrap beta / prod_e: at most 3N rounded complex products and one quotient
        qp = QParam.root_of_unity(nprime)
        N, lam, beta = qp.N, 0.91 - 0.08j, 0.3 + 0.2j
        cy = cyclic(beta, 0.0, lam, qp)
        eps = np.finfo(float).eps
        assert np.max(np.abs(np.linalg.matrix_power(cy.E, N) - beta * np.eye(N))) <= (
            12 * N * eps * abs(beta))
        s = self.bracket_scale(qp, [lam - 2 * k for k in range(N)])
        assert defining_relations_residual(cy) <= 16 * N**2 * eps * max(
            s, np.abs(cy.E).max())

    @pytest.mark.parametrize("nprime", [3, 5, 7])
    def test_alpha_zero_at_weight_zero_is_inadmissible(self, nprime):
        # e_1 = [0] = 0 kills the ladder product, so E^N = beta != 0 is unreachable
        with pytest.raises(InadmissibleParameters, match="ladder product vanishes"):
            cyclic(1.0, 0.0, 0.0, QParam.root_of_unity(nprime))

    @pytest.mark.parametrize("beta,alpha,lam", [
        (float("nan"), 0.7, 0.8 + 0.05j),
        (float("nan"), 0.0, 0.8 + 0.05j),
        (0.3, 0.0, complex("nan")),
    ])
    def test_non_finite_parameters_raise(self, beta, alpha, lam):
        with pytest.raises(InadmissibleParameters):
            cyclic(beta, alpha, lam, QP3)


class TestCoproduct:
    def setup_method(self):
        self.r1 = truncated_verma(0.83 + 0.21j, 3, QP)
        self.r2 = truncated_verma(1.27 - 0.33j, 3, QP)

    def _v00(self):
        v = np.zeros(9, dtype=complex)
        v[0] = 1
        return v

    def test_k_on_highest_weight(self):
        out = coproduct(self.r1, self.r2, "K").mat @ self._v00()
        assert abs(out[0] - QP.qpow(self.r1.lam + self.r2.lam)) < 1e-12

    def test_e_kills_highest_weight(self):
        out = coproduct(self.r1, self.r2, "E").mat @ self._v00()
        assert np.max(np.abs(out)) < 1e-14

    def test_f_on_highest_weight(self):
        out = coproduct(self.r1, self.r2, "F").mat @ self._v00()
        expect = np.zeros(9, dtype=complex)
        expect[3] = QP.qpow(self.r2.lam)   # v_1 (x) v_0 carries q^{lam2}
        expect[1] = 1.0                    # v_0 (x) v_1
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_opposite_f_on_highest_weight(self):
        out = opposite_coproduct(self.r1, self.r2, "F").mat @ self._v00()
        expect = np.zeros(9, dtype=complex)
        expect[3] = 1.0
        expect[1] = QP.qpow(self.r1.lam)
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_opposite_k_symmetric(self):
        assert np.allclose(coproduct(self.r1, self.r2, "K").mat,
                           opposite_coproduct(self.r1, self.r2, "K").mat)

    def test_opposite_is_swap_conjugation(self):
        d1, d2 = self.r1.dim, self.r2.dim
        P = np.zeros((d1 * d2, d1 * d2))
        for i in range(d1):
            for j in range(d2):
                P[j * d1 + i, i * d2 + j] = 1
        r21 = coproduct(self.r2, self.r1, "E").mat
        assert np.allclose(opposite_coproduct(self.r1, self.r2, "E").mat, P.T @ r21 @ P)

    def test_coproduct_is_algebra_map(self):
        q = QP.q
        dE = coproduct(self.r1, self.r2, "E").mat
        dF = coproduct(self.r1, self.r2, "F").mat
        dK = coproduct(self.r1, self.r2, "K").mat
        comm = dE @ dF - dF @ dE
        target = (dK - np.linalg.inv(dK)) / (q - 1 / q)
        # defect columns of the tensor truncation excluded
        from uqsl2 import safe_mask
        mask = safe_mask((3, 3), 1)
        assert np.max(np.abs((comm - target)[:, mask])) < 1e-9

    def test_qparam_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coproduct(self.r1, truncated_verma(1.0, 3, QP3), "E")
        with pytest.raises(ValueError):
            opposite_coproduct(self.r1, truncated_verma(1.0, 3, QP3), "E")


class TestDeltaSides:
    """_delta builds only the (side, generator) images asked for, each equal bit for bit to
    the one the whole pair holds; both K are one array."""

    @staticmethod
    def images(rep):
        return rep.E, rep.F, rep.K, rep.Kinv

    def test_each_image_alone_equals_the_pair(self):
        a, b = (self.images(truncated_verma(lam, d, QP)) for lam, d in ((0.83 + 0.21j, 3),
                                                                         (1.27 - 0.33j, 4)))
        both = _delta(a, b)
        assert [list(side) for side in both] == [list("EFK"), list("EFK")]
        assert both[0]["K"] is both[1]["K"]
        for side, gen in BOTH_SIDES:
            alone = _delta(a, b, [(side, gen)])
            assert list(alone[side]) == [gen] and not alone[1 - side]
            assert alone[side][gen].tobytes() == both[side][gen].tobytes()

    def test_the_images_come_in_the_order_asked(self):
        rep = truncated_verma(0.83 + 0.21j, 2, QP)
        D, Dp = _delta(self.images(rep), self.images(rep), [(1, "K"), (0, "F"), (1, "E")])
        assert list(D) == ["F"] and list(Dp) == ["K", "E"]


class TestFPowers:
    @pytest.mark.parametrize("rep", [truncated_verma(0.83 + 0.21j, 5, QP),
                                     semicyclic(0.4 - 0.3j, 0.7, QP3),
                                     truncated_verma(0.5, 1, QP)],
                             ids=["verma", "semicyclic", "one-dimensional"])
    def test_powers_of_f_built_once_read_only(self, rep):
        F = rep.f_powers
        assert F is rep.f_powers and not F.flags.writeable
        assert F.shape == (rep.dim,) * 3
        Fn = np.eye(rep.dim, dtype=complex)
        for n in range(rep.dim):
            Fn = Fn @ rep.F
            assert F[n].tobytes() == Fn.tobytes()
        # F^dim: zero on a truncated Verma module, alpha times 1 on a semicyclic one
        alpha = rep.params.get("alpha", 0)
        assert np.array_equal(F[-1], alpha * np.eye(rep.dim))


class TestCoproductRefusals:
    """Each finite-path function refuses exactly when an image it returns or reads
    leaves float64, and names the first such generator: D's E, F, K, then D''s."""

    R = TensorOperator((3, 3), np.eye(9, dtype=complex))

    def _pair(self, K1, K2):
        return tuple(dataclasses.replace(truncated_verma(lam, 3, QP), K=np.diag(K).astype(complex))
                     for lam, K in ((0.83 + 0.21j, K1), (1.27 - 0.33j, K2)))

    def _refuses(self, gen, call):
        with pytest.raises(InadmissibleParameters, match=f"the coproduct of {gen} leaves float64"):
            call()

    def test_an_infinite_inverse_cartan_in_the_second_factor(self):
        # V2's K^-1 is inf + nan i at its last vector (a warning of Rep.Kinv, silenced
        # here): only D'(E) = 1(x)E + E(x)K^-1 reads it
        with np.errstate(all="ignore"):
            r1, r2 = self._pair([1, 1, 1], [1, 1, 1e-320])
            assert tensor_rep(r1, r2).dim == 9
            for gen in "EFK":
                assert np.isfinite(coproduct(r1, r2, gen).mat).all()
            for gen in "FK":
                assert np.isfinite(opposite_coproduct(r1, r2, gen).mat).all()
            self._refuses("E", lambda: opposite_coproduct(r1, r2, "E"))
            self._refuses("E", lambda: intertwine_residual(self.R, r1, r2))

    def test_a_huge_cartan_in_both_factors(self):
        # K (x) K = 1e400 I leaves float64; every E and F image stays finite
        r1, r2 = self._pair([1e200] * 3, [1e200] * 3)
        for delta in (coproduct, opposite_coproduct):
            for gen in "EF":
                assert np.isfinite(delta(r1, r2, gen).mat).all()
            self._refuses("K", lambda: delta(r1, r2, "K"))
        self._refuses("K", lambda: tensor_rep(r1, r2))
        self._refuses("K", lambda: intertwine_residual(self.R, r1, r2))

    def test_an_unknown_generator(self):
        rep = truncated_verma(0.83 + 0.21j, 3, QP)
        with pytest.raises(ValueError, match="unknown generator 'H'"):
            coproduct(rep, rep, "H")


class TestCasimir:
    def test_scalar_on_nondefect_block(self):
        rep = truncated_verma(0.83 + 0.21j, 5, QP)
        c = casimir(rep)
        diag = np.diag(c)
        assert np.max(np.abs(diag[:-1] - diag[0])) < 1e-10
        assert np.max(np.abs(c - np.diag(diag))) < 1e-12

    def test_highest_weight_eigenvalue(self):
        lam = 0.9 + 0.2j
        rep = semicyclic(0.0, lam, QP5)
        c = casimir(rep)
        q = QP5.q
        pred = (QP5.qpow(lam + 1) + QP5.qpow(-lam - 1)) / (q - 1 / q) ** 2
        assert abs(c[0, 0] - pred) < 1e-12

    def test_central_on_semicyclic(self):
        rep = semicyclic(0.6 - 0.2j, 0.9 + 0.2j, QP5)
        c = casimir(rep)
        for g in (rep.E, rep.F, rep.K):
            assert np.max(np.abs(c @ g - g @ c)) < 1e-9


class TestCentralCheck:
    def test_semicyclic_report(self):
        rep = semicyclic(0.7, 0.9 + 0.2j, QP3)
        out = central_check(rep)
        for name in ("E^N", "F^N", "K^N"):
            assert out[name]["max_commutator"] < 1e-9
            assert out[name]["is_scalar"]
        assert abs(complex(*out["F^N"]["scalar_value"]) - 0.7) < 1e-12

    def test_verma_at_root_on_safe_block(self):
        rep = truncated_verma(0.9 + 0.2j, QP3.N, QP3)
        out = central_check(rep)
        # E^N = 0 on the truncation at a root of unity: scalar and central
        assert out["E^N"]["max_commutator"] < 1e-9
        assert out["K^N"]["is_scalar"]

    def test_generic_rejected(self):
        with pytest.raises(ValueError):
            central_check(truncated_verma(1.0, 3, QP))


class TestWindowRule:
    """Truncated (Verma) factors get a safe window; honest modules are compared whole."""

    BUILD = {"verma": lambda: truncated_verma(0.9 + 0.2j, 4, QP3),
             "semicyclic": lambda: semicyclic(0.7, 0.6 - 0.1j, QP3),
             "cyclic": lambda: cyclic(0.3, 0.7, 1.0, QP3)}

    @pytest.mark.parametrize("kinds", [
        ("verma", "verma"), ("semicyclic", "semicyclic"), ("verma", "semicyclic"),
        ("semicyclic", "verma"), ("cyclic", "semicyclic"),
        ("verma", "verma", "verma"), ("semicyclic", "semicyclic", "semicyclic"),
        ("verma", "semicyclic", "semicyclic"), ("semicyclic", "verma", "semicyclic"),
        ("semicyclic", "semicyclic", "verma"), ("cyclic", "verma", "semicyclic")])
    @pytest.mark.parametrize("margin", [0, 1, 2])
    def test_safe_window(self, kinds, margin):
        mods = [self.BUILD[k]() for k in kinds]
        got = safe_window(mods, margin)
        if "verma" not in kinds:
            assert got is None
        else:
            assert np.array_equal(got, safe_mask([m.dim for m in mods], margin))

    @pytest.mark.parametrize("kind", ["semicyclic", "cyclic"])
    @pytest.mark.parametrize("margin", [0, 1, 3, 7])
    def test_row_window_ignores_margin_on_honest_modules(self, kind, margin):
        rep = self.BUILD[kind]()
        assert _row_window(rep, margin).all()
        assert safe_window([rep, rep], margin) is None

    @pytest.mark.parametrize("margin", [0, 1, 3])
    def test_row_window_drops_the_last_rows_of_a_truncation(self, margin):
        keep = _row_window(self.BUILD["verma"](), margin)
        assert keep.tolist() == [True] * (4 - margin) + [False] * margin

    def test_tensor_of_truncations_asks_for_the_factors(self):
        # the tensor product of two truncations fails the relations far from its
        # last basis vector, so no window of its own dimensions is safe
        t = tensor_rep(truncated_verma(0.43 + 0.11j, 3, QP), truncated_verma(1.27 - 0.23j, 3, QP))
        assert defining_relations_residual(t) > 1
        nested = tensor_rep(tensor_rep(self.BUILD["verma"](), self.BUILD["semicyclic"]()),
                            self.BUILD["semicyclic"]())
        for check in (lambda: safe_window([t, t], 1), lambda: safe_window([nested], 0),
                      lambda: _row_window(t, 1), lambda: _row_window(t, 0)):
            with pytest.raises(ValueError, match="pass the factors"):
                check()

    def test_tensor_of_honest_modules_is_compared_whole(self):
        s = tensor_rep(self.BUILD["semicyclic"](), self.BUILD["cyclic"]())
        assert safe_window([s, s], 1) is None
        assert _row_window(s, 1).all()

    @pytest.mark.parametrize("other", ["verma", "semicyclic"])
    def test_shallow_truncation_has_no_window(self, other):
        shallow = truncated_verma(0.5, 1, QP3)
        with pytest.raises(EmptySafeWindow):
            _row_window(shallow, 1)
        with pytest.raises(EmptySafeWindow):
            safe_window([shallow, self.BUILD[other]()], 1)
        with pytest.raises(EmptySafeWindow):
            _row_window(truncated_verma(0.5, 3, QP3), 3)


class TestSerialization:
    def test_round_trip(self):
        # every export is read back bit for bit from the parsed JSON, by a numpy view
        import importlib.resources as res
        import jsonschema
        rep = semicyclic(0.7 + 0.1j, 0.9 + 0.2j, QP3)
        doc = json.loads(json.dumps(rep.to_json()))
        schema = json.loads(res.files("uqsl2.schemas").joinpath("rep.schema.json").read_text())
        jsonschema.validate(doc, schema)
        for name in ("E", "F", "K", "lambda"):
            back = np.array(doc[name], float).view(complex)[..., 0]
            want = np.asarray(rep.lam if name == "lambda" else getattr(rep, name))
            assert back.shape == want.shape and back.tobytes() == want.tobytes()
        assert (doc["dim"], doc["kind"]) == (rep.dim, rep.kind)
        assert complex(*doc["params"]["alpha"]) == rep.params["alpha"]
        assert doc["qparam"]["nprime"] == 3

    def test_schema_validates(self):
        import importlib.resources as res
        import jsonschema
        schema = json.loads(res.files("uqsl2.schemas").joinpath("rep.schema.json").read_text())
        jsonschema.validate(truncated_verma(1.3 + 0.2j, 4, QP).to_json(), schema)


class TestTensorRep:
    def test_weights_and_relations(self):
        r1 = truncated_verma(0.83 + 0.21j, 3, QP)
        r2 = truncated_verma(1.27 - 0.33j, 2, QP)
        t = tensor_rep(r1, r2)
        assert t.dim == 6
        assert np.allclose(np.diag(t.K), [QP.qpow(h) for h in t.hvec])


class TestArgumentGuards:
    """One row per argument the module builders refuse."""

    @pytest.mark.parametrize("call,exc,match", [
        (lambda: tensor_rep(truncated_verma(0.8, 2, QP), truncated_verma(1.3, 2, QP)).to_json(),
         ValueError, "tensor-product representations are not serialized"),
        (lambda: truncated_verma(0.8, 0, QP), ValueError, "depth must be >= 1"),
        (lambda: cyclic(0.3, 0.5, 0.7, QP), ValueError, "cyclic modules need q at a root"),
        # at alpha = 1e8 rounding breaks the defining relations of the built module
        (lambda: cyclic(0.3, 1e8, 0.7, QP3), InadmissibleParameters,
         r"no cyclic module at \(beta=\(0\.3\+0j\), alpha=\(100000000\+0j\)"),
    ], ids=["tensor-to-json", "depth-0", "cyclic-generic-q", "cyclic-relations-fail"])
    def test_refused(self, call, exc, match):
        with pytest.raises(exc, match=match):
            call()
