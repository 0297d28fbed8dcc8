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

import functools
from dataclasses import dataclass, field

import numpy as np

from .qnum import (InadmissibleParameters, PowerOverflow, QParam, qbinom_table, qnumber,
                   qnumber_array)
from .tensorop import EmptySafeWindow, TensorOperator, cmat, cnum, kron2, safe_mask

CYCLIC_RESIDUAL_TOL = 1e-7  # largest defining-relations residual of a cyclic module
SCALAR_TOL = 1e-9  # central_check calls a power scalar below this deviation


@dataclass(frozen=True)
class Rep:
    """A finite matrix representation: E, F, K plus the weight vector of K = q^H.
    K must be diagonal on the basis (Kinv and the solver's K0 bound use that)."""

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
            raise InadmissibleParameters(f"weight lambda must be finite, got {self.lam}")
        for M in (self.E, self.F, self.K):
            if not np.isfinite(M).all():
                raise InadmissibleParameters(f"{self.kind} module has non-finite generator entries")
            M.setflags(write=False)
        if (self.K != np.diag(np.diagonal(self.K))).any():
            raise ValueError(f"{self.kind} module has a K that is not diagonal on its basis")
        self.hvec.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.E.shape[0]

    @property
    def truncated(self) -> bool:  # fails the relations on its last basis vectors
        if self.params.get("truncated_factor"):
            raise ValueError("a tensor product of truncated modules has no safe window of "
                             "its own; pass the factors")
        return self.kind == "verma"

    @property
    def Kinv(self) -> np.ndarray:
        return np.diag(1.0 / np.diag(self.K))

    def qpow_h(self, a) -> np.ndarray:
        """Diagonal of q^{a*H} as a vector."""
        return self.qp.qpow_array(a * self.hvec)

    @functools.cached_property
    def raising_table(self) -> np.ndarray:
        """The module's _raising_table, built on first use, then kept read-only."""
        table = _raising_table(self)
        table.setflags(write=False)
        return table

    def to_json(self) -> dict:
        if self.kind == "tensor":
            raise ValueError("tensor-product representations are not serialized")
        params = {k: (cnum(v) if isinstance(v, complex) else v) for k, v in self.params.items()}
        return {
            "schema_version": "1",
            "dim": self.dim,
            "lambda": cnum(self.lam),
            "kind": self.kind,
            "params": params,
            "qparam": {"nprime": self.qp.nprime, "q": cnum(self.qp.q)},
            "E": cmat(self.E),
            "F": cmat(self.F),
            "K": cmat(self.K),
        }


def _raising_table(rep: Rep) -> np.ndarray:
    """T[s, n] = q^{n(n-1)/2} qbinom(s, n) prod_{r=1}^n [lam - s + r], zero for n > s,
    of a ladder (Verma or semicyclic) module; read through Rep.raising_table.

    Column n holds the entries (s-n, s) of E^n / (n)_{q^-2}!; the q-binomial
    is the root-of-unity limit value where applicable, so no vanishing
    factorial is ever divided.  The ladder products accumulate over r <= s
    only; PowerOverflow, naming q, where one leaves float64.
    """
    if rep.kind not in ("verma", "semicyclic"):
        raise ValueError("renormalized raising powers need a ladder module")
    qp = rep.qp
    d = rep.dim
    n = np.arange(d)
    ladder = np.ones((d, d), dtype=complex)
    brackets = qnumber_array(rep.lam - n[:, None] + n[None, 1:], qp)  # [lam - s + r]
    with np.errstate(all="ignore"):  # a non-finite product is refused below
        ladder[:, 1:] = np.cumprod(np.where(n[1:] <= n[:, None], brackets, 1), axis=1)
    if not np.isfinite(ladder).all():
        raise PowerOverflow(f"the raising powers of a depth-{d} module overflow a float "
                            f"at q={qp.q}")
    return qp.qpow_array(0.5 * n * (n - 1)) * qbinom_table(d, qp) * ladder


def truncated_verma(lam: complex, depth: int, qp: QParam) -> Rep:
    """Highest-weight module truncated to depth basis vectors v_0..v_{depth-1}.

    F v_m = v_{m+1} (cut at the top), K v_m = q^{lam-2m} v_m and
    E v_m = [m][lam-m+1] v_{m-1}.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lam = complex(lam)
    h = np.array([lam - 2 * m for m in range(depth)], dtype=complex)
    m = np.arange(1, depth)
    E = np.diag(qnumber_array(m, qp) * qnumber_array(lam - m + 1, qp), 1)
    K = np.diag(qp.qpow_array(h))
    F = np.eye(depth, k=-1, dtype=complex)
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


def cyclic(beta: complex, alpha: complex, lam: complex, qp: QParam) -> Rep:
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
    if not (res <= CYCLIC_RESIDUAL_TOL):
        raise InadmissibleParameters(
            f"no cyclic module at (beta={beta}, alpha={alpha}, lambda={lam}): residual {res:.2e}"
        )
    return rep


def tensor_rep(rep1: Rep, rep2: Rep) -> Rep:
    """The tensor-product representation, generators acting through the coproduct."""
    E, F, K = _rep_delta(rep1, rep2, [(0, gen) for gen in "EFK"])[0].values()
    h = (rep1.hvec[:, None] + rep2.hvec[None, :]).reshape(-1)
    truncated_factor = any(r.kind == "verma" or r.params.get("truncated_factor", False)
                           for r in (rep1, rep2))
    return Rep(qp=rep1.qp, lam=rep1.lam + rep2.lam, E=E, F=F, K=K, hvec=h, kind="tensor",
               params={"dims": (rep1.dim, rep2.dim), "truncated_factor": truncated_factor})


def _delta(a: tuple, b: tuple) -> tuple:
    """Dicts (D, D') of E, F, K under the coproduct and its opposite, from the (E, F, K,
    K^-1) images a and b of the two tensor factors; both K are one array, K(x)K.
    The one place both coproducts are written down."""
    E1, F1, K1, Ki1 = a
    E2, F2, K2, Ki2 = b
    I1 = np.eye(len(E1), dtype=complex)
    I2 = np.eye(len(E2), dtype=complex)
    E, Ep = kron2(E1, I2) + kron2(Ki1, E2), kron2(I1, E2) + kron2(E1, Ki2)
    F, Fp = kron2(F1, K2) + kron2(I1, F2), kron2(F1, I2) + kron2(K1, F2)
    K = kron2(K1, K2)
    return {"E": E, "F": F, "K": K}, {"E": Ep, "F": Fp, "K": K}


def _rep_delta(rep1: Rep, rep2: Rep, checked: list) -> tuple:
    """_delta of the modules; refuses in turn each checked (side, gen) that leaves float64."""
    if rep1.qp != rep2.qp:
        raise ValueError("coproduct factors must share the deformation parameter")
    a, b = ((r.E, r.F, r.K, r.Kinv) for r in (rep1, rep2))
    with np.errstate(all="ignore"):  # a non-finite image is refused below
        pair = _delta(a, b)
    for side, gen in checked:
        if gen not in ("E", "F", "K"):
            raise ValueError(f"unknown generator {gen!r}")
        if not np.isfinite(pair[side][gen]).all():
            raise InadmissibleParameters(f"the coproduct of {gen} leaves float64 at q={rep1.qp.q}")
    return pair


def coproduct(rep1: Rep, rep2: Rep, gen: str) -> TensorOperator:
    """Coproduct action on V1 (x) V2:  D(E) = E(x)1 + K^-1(x)E,
    D(F) = F(x)K + 1(x)F,  D(K) = K(x)K."""
    return TensorOperator((rep1.dim, rep2.dim), _rep_delta(rep1, rep2, [(0, gen)])[0][gen])


def opposite_coproduct(rep1: Rep, rep2: Rep, gen: str) -> TensorOperator:
    """Opposite coproduct (tensor factors swapped): D'(E) = 1(x)E + E(x)K^-1,
    D'(F) = F(x)1 + K(x)F,  D'(K) = K(x)K."""
    return TensorOperator((rep1.dim, rep2.dim), _rep_delta(rep1, rep2, [(1, gen)])[1][gen])


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
    keep = np.delete(np.arange(rep.dim), list(skip_cols))
    return float(np.max([np.max(np.abs(M[:, keep])) for M in rel]))


def _row_window(rep: Rep, margin: int) -> np.ndarray:
    """Basis vectors a check keeps: all but the last `margin` of a truncated module."""
    keep = np.ones(rep.dim, dtype=bool)
    if rep.truncated and margin:
        keep[-margin:] = False
    if not keep.any():
        raise EmptySafeWindow(f"depth {rep.dim} leaves no safe window at margin {margin}")
    return keep


def safe_window(modules, margin: int) -> np.ndarray | None:
    """Source columns of the tensor product that a check compares: None (all of
    them) when no factor is truncated, else safe_mask of the dimensions."""
    if not any(rep.truncated for rep in modules):
        return None
    return safe_mask([rep.dim for rep in modules], margin)


def commutator_report(M: np.ndarray, rep: Rep, keep: np.ndarray) -> dict:
    """How central M is on the rows and columns in keep: max || [M, g] || over
    g in {E, F, K}, and the deviation of M from its mean diagonal value."""
    win = np.ix_(keep, keep)
    comm = float(np.max([np.max(np.abs((M @ g - g @ M)[win])) for g in (rep.E, rep.F, rep.K)]))
    sub = M[win]
    mu = np.trace(sub) / sub.shape[0]
    scal = float(np.max(np.abs(sub - mu * np.eye(sub.shape[0]))))
    return {"max_commutator": comm, "scalar_deviation": scal, "scalar_value": cnum(mu)}


def central_check(rep: Rep) -> dict:
    """Report on E^N, F^N, K^N: commutator residuals with E, F, K and scalarity."""
    if not rep.qp.is_root:
        raise ValueError("central powers are specific to roots of unity")
    N = rep.qp.N
    keep = _row_window(rep, 0)
    out = {}
    for name, g in (("E^N", rep.E), ("F^N", rep.F), ("K^N", rep.K)):
        row = commutator_report(np.linalg.matrix_power(g, N), rep, keep)
        out[name] = {**row, "is_scalar": row["scalar_deviation"] < SCALAR_TOL}
    return out
