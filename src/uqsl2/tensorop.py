"""Dense operators on tensor products, with a fixed index convention.

Basis vector v_i (x) v_j of V1 (x) V2 sits at flat index i*d2 + j, which is
exactly numpy's Kronecker convention, so np.kron(A, B) is "A on the first
factor, B on the second".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def cnum(v) -> list:
    """A complex number as its JSON pair [re, im]."""
    v = complex(v)
    return [v.real, v.imag]


def cmat(M) -> list:
    """A complex matrix as row-major nested [re, im] pairs."""
    return [[cnum(v) for v in row] for row in M]


def from_cmat(rows) -> np.ndarray:
    """The inverse of cmat."""
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


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

    @classmethod
    def from_json(cls, doc: dict) -> "TensorOperator":
        return cls(tuple(doc["dims"]), from_cmat(doc["matrix"]))


def kron2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


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


def apply_two_site(M: np.ndarray, X: np.ndarray, dims: tuple[int, int, int],
                   pos: tuple[int, int]) -> np.ndarray:
    """embed_two_site(M, dims, pos) @ X, without forming the embedded operator.

    The rows of X are viewed as a (d0, d1, d2) grid; the factor left out of
    pos is moved to the front and M acts on the other two, batched over it.
    """
    if tuple(pos) not in ((0, 1), (0, 2), (1, 2)):
        raise ValueError(f"unsupported embedding positions {pos}")
    (spare,) = {0, 1, 2} - set(pos)
    m = X.shape[1]
    grid = np.moveaxis(np.asarray(X).reshape(*dims, m), spare, 0)
    shape = grid.shape
    out = M @ grid.reshape(shape[0], shape[1] * shape[2], m)
    return np.moveaxis(out.reshape(shape), 0, spare).reshape(-1, m)


def ybe_defect(R12: np.ndarray, R13: np.ndarray, R23: np.ndarray,
               dims: tuple[int, int, int], col_mask: np.ndarray | None = None) -> float:
    """Max-abs entry of R12 R13 R23 - R23 R13 R12 on the source columns in col_mask.

    The R's are two-site operators for positions (0, 1), (0, 2) and (1, 2);
    both products are applied to the selected basis columns only (all of
    them when col_mask is None).
    """
    cols = np.eye(dims[0] * dims[1] * dims[2], dtype=complex)
    if col_mask is not None:
        cols = cols[:, col_mask]
    sites = ((R12, (0, 1)), (R13, (0, 2)), (R23, (1, 2)))
    lhs = rhs = cols
    for (Ml, pl), (Mr, pr) in zip(reversed(sites), sites):
        lhs = apply_two_site(Ml, lhs, dims, pl)  # R12 R13 R23, rightmost factor first
        rhs = apply_two_site(Mr, rhs, dims, pr)  # R23 R13 R12
    return masked_max_abs(lhs - rhs)


def intertwine_defect(R: np.ndarray, left: dict, right: dict,
                      col_mask: np.ndarray | None) -> float:
    """max over generators a of the max-abs entry of R left[a] - right[a] R, on the
    source columns in col_mask (all of them when None); NaN if any residual is NaN."""
    return float(np.max([0.0, *(masked_max_abs(R @ left[a] - right[a] @ R, col_mask)
                                for a in left)]))


def total_degree_mask(depths, max_total: int) -> np.ndarray:
    """Boolean mask over the flat tensor basis keeping indices with sum <= max_total."""
    grids = np.meshgrid(*[np.arange(d) for d in depths], indexing="ij")
    total = sum(grids)
    return (total <= max_total).reshape(-1)


class EmptySafeWindow(ValueError):
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
