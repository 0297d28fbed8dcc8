"""Dense operators on tensor products, with a fixed index convention.

Basis vector v_i (x) v_j of V1 (x) V2 sits at flat index i*d2 + j, which is
exactly numpy's Kronecker convention, so np.kron(A, B) is "A on the first
factor, B on the second".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qnum import RefusedInput


def cnum(v) -> list:
    """A complex number as its JSON pair [re, im]."""
    v = complex(v)
    return [v.real, v.imag]


def cmat(M) -> list:
    """A complex matrix as row-major nested [re, im] pairs."""
    return [[cnum(v) for v in row] for row in M]


@dataclass(frozen=True)
class TensorOperator:
    """A dense complex operator on V1 (x) V2."""

    dims: tuple[int, int]
    mat: np.ndarray

    def __post_init__(self):
        d = self.dims[0] * self.dims[1]
        if self.mat.shape != (d, d):
            raise ValueError(f"matrix shape {self.mat.shape} inconsistent with dims {self.dims}")

    def to_json(self) -> dict:
        return {
            "schema_version": "1",
            "dims": list(self.dims),
            "matrix": cmat(self.mat),
        }


def kron2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.kron of two matrices cast to complex, as one broadcast product; on
    stacks of shape (..., a0, a1) and (..., b0, b1), np.kron of each pair of slices.

    Entry (i*b0 + k, j*b1 + l) is the single product A[i, j] * B[k, l], so the
    result equals np.kron's bit for bit without its general-rank bookkeeping.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    (a0, a1), (b0, b1) = A.shape[-2:], B.shape[-2:]
    out = A[..., :, None, :, None] * B[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a0 * b0, a1 * b1)


def embed_two_site(M: np.ndarray, dims: tuple[int, int, int], pos: tuple[int, int]) -> np.ndarray:
    """Embed a two-site operator M at factor positions pos of a threefold product."""
    d0, d1, d2 = dims
    a, b = pos
    if (a, b) == (0, 1):
        return np.kron(M, np.eye(d2, dtype=complex))
    if (a, b) == (1, 2):
        return np.kron(np.eye(d0, dtype=complex), M)
    if (a, b) == (0, 2):
        M4 = np.asarray(M, dtype=complex).reshape(d0, d2, d0, d2)
        T = np.einsum("acbd,mn->amcbnd", M4, np.eye(d1, dtype=complex))
        D = d0 * d1 * d2
        return T.reshape(D, D)
    raise ValueError(f"unsupported embedding positions {pos}")


def identity_plus_kron_sum(As, Bs, d1: int, d2: int) -> np.ndarray:
    """1 + sum_n As[n] (x) Bs[n], for d1 x d1 matrices As[n] and d2 x d2 matrices Bs[n].

    Entry ((i, j), (k, l)) of the sum is sum_n As[n][i, k] Bs[n][j, l]: for
    each (j, k) one (d1, K) @ (K, d2) product over the stacked terms, all of
    them in one batched matmul written straight into a (d1, d2, d1, d2) view
    of the result.  No Kronecker product and no transposed copy is formed.
    """
    D = d1 * d2
    if not len(As):
        return np.eye(D, dtype=complex)
    left = np.stack(As, axis=-1).astype(complex, copy=False).transpose(1, 0, 2)[None]
    right = np.stack(Bs).astype(complex, copy=False).transpose(1, 0, 2)[:, None]
    # left is indexed [., k, i, n] and right [j, ., n, l]: the product is [j, k, i, l]
    out = np.empty((D, D), dtype=complex)
    np.matmul(left, right, out=out.reshape(d1, d2, d1, d2).transpose(1, 2, 0, 3))
    out.reshape(-1)[::D + 1] += 1
    return out


def total_degree(dims) -> np.ndarray:
    """The sum of the factor indices at each flat index of a product of factors of dims."""
    return sum(np.unravel_index(np.arange(math.prod(dims)), dims))


def grading_modulus(triples, dims) -> int:
    """The finest grading of the flat basis that every (M, deg, shift) triple respects.

    M respects it when each nonzero entry M[i, j] has deg[i] - deg[j] = shift
    in it.  Returns 0 for the exact degree, else g = gcd(dims) when every
    triple holds mod g, else 1: the trivial grading, one block.  Only the
    nonzero entries are read, and a non-finite one (a NaN has no degree)
    respects the trivial grading alone.
    """
    g = math.gcd(*dims)
    exact = True
    for M, deg, shift in triples:
        rows, cols = np.nonzero(M)
        if not np.isfinite(M[rows, cols]).all():
            return 1
        off = deg[rows] - deg[cols] - shift
        exact = exact and not off.any()
        if not exact and (off % g).any():
            return 1
    return 0 if exact else g


def weight_sectors(ops, dims: tuple[int, int, int], col_mask: np.ndarray | None):
    """Restrictions of operators on V0 (x) V1 (x) V2 to the sectors of their grading.

    ops holds (M, sites) pairs: sites (0, 1), (0, 2) or (1, 2) embed a
    two-site M at those factors, and (0, 1, 2) means M acts on the whole
    product.  Basis vector v_a (x) v_b (x) v_c has total degree t = a + b + c.
    grading_modulus, fed with each operator and the degree of its sites,
    picks the sectors: one per value of t (truncated Verma modules), of t mod
    gcd(dims) (the wrap entries of (semi)cyclic modules), or one sector of
    every index, so the same code gives the dense answer.  Yields, for each
    sector that meets col_mask (all columns when None), the restrictions of
    the ops, in order, and a boolean mask of the sector's indices in col_mask.
    """
    ops = list(ops)
    total = total_degree(dims)
    g = grading_modulus([(M, total_degree([dims[s] for s in sites]), 0) for M, sites in ops],
                        dims)
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


def ybe_defect(R12: np.ndarray, R13: np.ndarray, R23: np.ndarray,
               dims: tuple[int, int, int], col_mask: np.ndarray | None = None) -> float:
    """Max-abs entry of R12 R13 R23 - R23 R13 R12 on the source columns in col_mask.

    The R's are two-site operators for positions (0, 1), (0, 2) and (1, 2);
    both products are evaluated sector by sector (see weight_sectors), on the
    selected columns of each sector only (all of them when col_mask is None).
    NaN if any entry is NaN.
    """
    worst = [0.0]
    ops = ((R12, (0, 1)), (R13, (0, 2)), (R23, (1, 2)))
    for (S12, S13, S23), cols in weight_sectors(ops, dims, col_mask):
        lhs = S12 @ (S13 @ S23[:, cols])  # R12 R13 R23, rightmost factor first
        rhs = S23 @ (S13 @ S12[:, cols])  # R23 R13 R12
        worst.append(masked_max_abs(lhs - rhs))
    return float(np.max(worst))


def intertwine_defect(R: np.ndarray, left: dict, right: dict,
                      col_mask: np.ndarray | None) -> float:
    """max over generators a of the max-abs entry of R left[a] - right[a] R, on the
    source columns in col_mask (all of them when None); NaN if any residual is NaN."""
    return float(np.max([0.0, *(masked_max_abs(R @ left[a] - right[a] @ R, col_mask)
                                for a in left)]))


def total_degree_mask(depths, max_total: int) -> np.ndarray:
    """Boolean mask over the flat tensor basis keeping indices with sum <= max_total."""
    return total_degree(depths) <= max_total


class EmptySafeWindow(RefusedInput, ValueError):
    """The truncation depths are too small for the margin: no source is safe."""


def safe_mask(depths, margin: int) -> np.ndarray:
    """Sources whose images under the compared operators stay inside every truncation."""
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    if margin >= min(depths):
        raise EmptySafeWindow(f"depths {tuple(depths)} leave no safe window at margin {margin}")
    return total_degree_mask(depths, min(depths) - 1 - margin)


def masked_max_abs(M: np.ndarray, col_mask: np.ndarray | None = None) -> float:
    """Max-abs entry of M, restricted to the given source columns."""
    M = np.asarray(M)
    if col_mask is not None:
        M = M[:, col_mask]
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(M)))
