"""Finite matrix representations of the quantized sl2 algebra.

Generators E, F, K with K E K^-1 = q^2 E, K F K^-1 = q^-2 F and
[E, F] = (K - K^-1)/(q - q^-1).  Three families are built here:

* truncated highest-weight (Verma) modules of arbitrary depth,
* semicyclic modules of dimension N at a root of unity (F^N = alpha),
* cyclic modules (F^N = alpha, E^N = beta), solved row by row.

A truncated module is not a representation on its last basis vector
(F is cut there); every check that cares declares a safe window.
Semicyclic and cyclic modules are honest representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qnum import QParam, qnumber
from .tensorop import TensorOperator, kron2


class InadmissibleParameters(ValueError):
    """No module exists for the requested (beta, alpha, lambda)."""


@dataclass(frozen=True)
class Rep:
    """A finite matrix representation: E, F, K plus the weight vector of K = q^H."""

    qp: QParam
    lam: complex
    E: np.ndarray
    F: np.ndarray
    K: np.ndarray
    hvec: np.ndarray  # eigenvalues of H, so K = diag(q^hvec)
    kind: str  # "verma" | "semicyclic" | "cyclic" | "tensor"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError(f"weight lambda must be finite, got {self.lam}")
        for M in (self.E, self.F, self.K):
            if not np.isfinite(M).all():
                raise ValueError(f"{self.kind} module has non-finite generator entries")
            M.setflags(write=False)
        self.hvec.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.E.shape[0]

    @property
    def Kinv(self) -> np.ndarray:
        return np.diag(1.0 / np.diag(self.K))

    def qpow_h(self, a) -> np.ndarray:
        """Diagonal of q^{a*H} as a vector."""
        return self.qp.qpow_array(a * self.hvec)

    def to_json(self) -> dict:
        if self.kind == "tensor":
            raise ValueError("tensor-product representations are not serialized")

        def cm(M):
            return [[[v.real, v.imag] for v in row] for row in M]

        params = {k: ([v.real, v.imag] if isinstance(v, complex) else v)
                  for k, v in self.params.items()}
        return {
            "schema_version": "1",
            "dim": self.dim,
            "lambda": [self.lam.real, self.lam.imag],
            "kind": self.kind,
            "params": params,
            "qparam": {"nprime": self.qp.nprime, "q": [self.qp.q.real, self.qp.q.imag]},
            "E": cm(self.E),
            "F": cm(self.F),
            "K": cm(self.K),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Rep":
        def mc(rows):
            return np.array([[complex(re, im) for re, im in row] for row in rows])

        qdoc = doc["qparam"]
        qp = (QParam.root_of_unity(qdoc["nprime"]) if qdoc["nprime"]
              else QParam.generic(complex(*qdoc["q"])))
        lam = complex(*doc["lambda"])
        K = mc(doc["K"])
        dk = np.diag(K)
        hvec = np.array([lam - 2 * m for m in range(doc["dim"])])
        params = {k: (complex(v[0], v[1]) if isinstance(v, list) else v)
                  for k, v in doc["params"].items()}
        rep = cls(qp=qp, lam=lam, E=mc(doc["E"]), F=mc(doc["F"]), K=K,
                  hvec=hvec, kind=doc["kind"], params=params)
        if not np.allclose(np.diag(rep.qpow_h(1.0)), K, atol=1e-9):
            raise ValueError("K matrix inconsistent with weight ladder")
        return rep


def _ladder_weights(lam: complex, dim: int) -> np.ndarray:
    return np.array([lam - 2 * m for m in range(dim)], dtype=complex)


def truncated_verma(lam: complex, depth: int, qp: QParam) -> Rep:
    """Highest-weight module truncated to depth basis vectors v_0..v_{depth-1}.

    F v_m = v_{m+1} (cut at the top), K v_m = q^{lam-2m} v_m and
    E v_m = [m][lam-m+1] v_{m-1}.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lam = complex(lam)
    h = _ladder_weights(lam, depth)
    K = np.diag([qp.qpow(x) for x in h])
    F = np.zeros((depth, depth), dtype=complex)
    E = np.zeros((depth, depth), dtype=complex)
    for m in range(depth - 1):
        F[m + 1, m] = 1.0
    for m in range(1, depth):
        E[m - 1, m] = qnumber(m, qp) * qnumber(lam - m + 1, qp)
    return Rep(qp=qp, lam=lam, E=E, F=F, K=K, hvec=h, kind="verma",
               params={"depth": depth})


def semicyclic(alpha: complex, lam: complex, qp: QParam) -> Rep:
    """Dimension-N quotient of the highest-weight module by (F^N - alpha)."""
    if not qp.is_root:
        raise ValueError("semicyclic modules need q at a root of unity")
    N = qp.N
    base = truncated_verma(lam, N, qp)
    F = base.F.copy()
    F[0, N - 1] = complex(alpha)
    return Rep(qp=qp, lam=complex(lam), E=base.E, F=F, K=base.K, hvec=base.hvec,
               kind="semicyclic", params={"alpha": complex(alpha)})


def cyclic(beta: complex, alpha: complex, lam: complex, qp: QParam,
           tol: float = 1e-9) -> Rep:
    """Dimension-N module with F^N = alpha, E^N = beta, K^N = q^{N*lam}.

    E v_m = e_m v_{m-1} with the e_m fixed row by row from the commutator
    relation; the remaining free constant is pinned by E^N = beta.  When the
    wrap equation has several roots the one closest to the semicyclic value
    is chosen, so cyclic(0, alpha, lam) equals semicyclic(alpha, lam).
    """
    if not qp.is_root:
        raise ValueError("cyclic modules need q at a root of unity")
    N = qp.N
    alpha = complex(alpha)
    beta = complex(beta)
    lam = complex(lam)
    if not np.isfinite([alpha, beta, lam]).all():
        raise InadmissibleParameters(
            f"non-finite parameters (beta={beta}, alpha={alpha}, lambda={lam})")
    c = np.array([qnumber(lam - 2 * m, qp) for m in range(N)])
    sig = np.zeros(N, dtype=complex)  # sig[m] = c_1 + ... + c_{m-1}, so e_m = e_1 + sig[m]
    for m in range(2, N):
        sig[m] = sig[m - 1] + c[m - 1]
    if alpha == 0:
        t = c[0]  # wrap equation at m = 0 forces e_1 = [lam]
        if beta == 0:
            wrap = 0.0 + 0j
        else:
            prod_e = np.prod(t + sig[1:N])
            if abs(prod_e) < 1e-12:
                raise InadmissibleParameters(
                    "E^N = beta unreachable: ladder product vanishes at this weight"
                )
            wrap = beta / prod_e
    else:
        # closure condition: (t - c_0) * prod_{m=1}^{N-1} (t + sig_m) = alpha*beta
        poly = np.polynomial.polynomial.polyfromroots(
            [c[0]] + [-sig[m] for m in range(1, N)]
        )
        poly[0] -= alpha * beta
        roots = np.polynomial.polynomial.polyroots(poly)
        order = np.lexsort((roots.imag.round(12), roots.real.round(12),
                            np.abs(roots - c[0]).round(12)))
        t = roots[order[0]]  # continuous with the semicyclic module as beta -> 0
        wrap = (t - c[0]) / alpha
    E = np.zeros((N, N), dtype=complex)
    for m in range(1, N):
        E[m - 1, m] = t + sig[m]
    E[N - 1, 0] = wrap
    base = semicyclic(alpha, lam, qp)
    rep = Rep(qp=qp, lam=lam, E=E, F=base.F, K=base.K, hvec=base.hvec,
              kind="cyclic", params={"alpha": alpha, "beta": beta})
    res = defining_relations_residual(rep)
    if not (res <= max(tol, 1e-7)):
        raise InadmissibleParameters(
            f"no cyclic module at (beta={beta}, alpha={alpha}, lambda={lam}): residual {res:.2e}"
        )
    return rep


def tensor_rep(rep1: Rep, rep2: Rep) -> Rep:
    """The tensor-product representation, generators acting through the coproduct."""
    if rep1.qp != rep2.qp:
        raise ValueError("tensor factors must share the deformation parameter")
    E = coproduct(rep1, rep2, "E").mat
    F = coproduct(rep1, rep2, "F").mat
    K = coproduct(rep1, rep2, "K").mat
    h = (rep1.hvec[:, None] + rep2.hvec[None, :]).reshape(-1)
    return Rep(qp=rep1.qp, lam=rep1.lam + rep2.lam, E=E, F=F, K=K, hvec=h,
               kind="tensor", params={"dims": (rep1.dim, rep2.dim)})


_GENS = ("E", "F", "K", "Kinv")


def coproduct(rep1: Rep, rep2: Rep, gen: str) -> TensorOperator:
    """Coproduct action on V1 (x) V2:  D(E) = E(x)1 + K^-1(x)E,
    D(F) = F(x)K + 1(x)F,  D(K) = K(x)K."""
    if rep1.qp != rep2.qp:
        raise ValueError("coproduct factors must share the deformation parameter")
    if gen not in _GENS:
        raise ValueError(f"unknown generator {gen!r}")
    I1 = np.eye(rep1.dim, dtype=complex)
    I2 = np.eye(rep2.dim, dtype=complex)
    if gen == "E":
        M = kron2(rep1.E, I2) + kron2(rep1.Kinv, rep2.E)
    elif gen == "F":
        M = kron2(rep1.F, rep2.K) + kron2(I1, rep2.F)
    elif gen == "K":
        M = kron2(rep1.K, rep2.K)
    else:
        M = kron2(rep1.Kinv, rep2.Kinv)
    return TensorOperator((rep1.dim, rep2.dim), M)


def opposite_coproduct(rep1: Rep, rep2: Rep, gen: str) -> TensorOperator:
    """Opposite coproduct (tensor factors swapped): D'(E) = 1(x)E + E(x)K^-1, etc."""
    if gen not in _GENS:
        raise ValueError(f"unknown generator {gen!r}")
    I1 = np.eye(rep1.dim, dtype=complex)
    I2 = np.eye(rep2.dim, dtype=complex)
    if gen == "E":
        M = kron2(I1, rep2.E) + kron2(rep1.E, rep2.Kinv)
    elif gen == "F":
        M = kron2(rep1.F, I2) + kron2(rep1.K, rep2.F)
    elif gen == "K":
        M = kron2(rep1.K, rep2.K)
    else:
        M = kron2(rep1.Kinv, rep2.Kinv)
    return TensorOperator((rep1.dim, rep2.dim), M)


def casimir(rep: Rep) -> np.ndarray:
    """Central element FE + (qK + q^-1 K^-1)/(q - q^-1)^2 as a matrix."""
    q = rep.qp.q
    return rep.F @ rep.E + (q * rep.K + rep.Kinv / q) / (q - 1 / q) ** 2


def defining_relations_residual(rep: Rep, skip_cols: tuple = ()) -> float:
    """Max residual of the defining relations, optionally masking source columns."""
    q = rep.qp.q
    E, F, K, Kinv = rep.E, rep.F, rep.K, rep.Kinv
    rel = [
        K @ E @ Kinv - q**2 * E,
        K @ F @ Kinv - F / q**2,
        E @ F - F @ E - (K - Kinv) / (q - 1 / q),
    ]
    keep = np.ones(rep.dim, dtype=bool)
    for c in skip_cols:
        keep[c] = False
    return max(float(np.max(np.abs(M[:, keep]))) for M in rel)


def central_check(rep: Rep, tol: float = 1e-9) -> dict:
    """Report on E^N, F^N, K^N: commutator residuals with E, F, K and scalarity."""
    if not rep.qp.is_root:
        raise ValueError("central powers are specific to roots of unity")
    N = rep.qp.N
    gens = {"E": rep.E, "F": rep.F, "K": rep.K}
    out = {}
    for name, M in (("E^N", np.linalg.matrix_power(rep.E, N)),
                    ("F^N", np.linalg.matrix_power(rep.F, N)),
                    ("K^N", np.linalg.matrix_power(rep.K, N))):
        comm = max(float(np.max(np.abs(M @ g - g @ M))) for g in gens.values())
        mu = np.trace(M) / rep.dim
        scal = float(np.max(np.abs(M - mu * np.eye(rep.dim))))
        out[name] = {
            "max_commutator": comm,
            "scalar_deviation": scal,
            "is_scalar": scal < tol,
            "scalar_value": [mu.real, mu.imag],
        }
    return out
