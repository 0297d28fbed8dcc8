"""Dense operators on tensor products, with a fixed index convention.

Basis vector v_i (x) v_j of V1 (x) V2 sits at flat index i*d2 + j, which is
exactly numpy's Kronecker convention, so np.kron(A, B) is "A on the first
factor, B on the second".
"""

from __future__ import annotations

import functools
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

    Entry ((i, j), (k, l)) of term n is the one product As[n][i, k] Bs[n][j, l], so
    only the products of the two factors' nonzero entries are formed: each nonzero of
    As[n] is paired with each nonzero of Bs[n] and scattered to its entry, with
    np.add.at, so that terms whose supports overlap are summed in term order.
    """
    D = d1 * d2
    out = np.zeros(D * D, dtype=complex)
    if len(As):
        A = np.asarray(As, dtype=complex)
        B = np.asarray(Bs, dtype=complex)
        na, i, k = np.nonzero(A)
        nb, j, l = np.nonzero(B)
        per_term = np.bincount(nb, minlength=len(B))  # the nonzeros of each Bs[n]
        reps = per_term[na]  # each nonzero of As[n] meets every nonzero of Bs[n]
        a = np.repeat(np.arange(len(na)), reps)
        first = np.cumsum(per_term) - per_term  # where Bs[n]'s nonzeros start
        b = np.arange(len(a)) + np.repeat(first[na] - (np.cumsum(reps) - reps), reps)
        i, k, j, l = i[a], k[a], j[b], l[b]
        np.add.at(out, (i * d2 + j) * D + k * d2 + l,
                  A[na[a], i, k] * B[nb[b], j, l])
    out[::D + 1] += 1
    return out.reshape(D, D)


def total_degree(dims) -> np.ndarray:
    """The sum of the factor indices at each flat index of a product of factors of dims."""
    return sum(np.unravel_index(np.arange(math.prod(dims)), dims))


def _read_only(*arrays):
    """Mark cached arrays read-only: every caller shares them."""
    for a in arrays:
        a.setflags(write=False)


@functools.cache
def _graded_entries(fdims: tuple, shift: int, g: int) -> np.ndarray:
    """The flat positions of the entries (i, j) of a matrix on the product of factors of
    fdims with deg i - deg j = shift, deg = total_degree(fdims): exactly for g = 0, else
    mod g.  Read-only, cached per shape."""
    deg = total_degree(fdims)
    off = np.subtract.outer(deg, deg) - shift
    pos = np.flatnonzero(off % g == 0 if g else off == 0)
    _read_only(pos)
    return pos


def _nonzero_parts(M: np.ndarray) -> int:
    """How many real and imaginary parts of M are nonzero; a NaN counts as nonzero."""
    return np.count_nonzero(M.view(M.real.dtype))


def grading_modulus(triples, dims) -> int:
    """The finest grading of the flat basis that every (M, fdims, shift) triple respects.

    M acts on the product of factors of fdims, and respects a grading when each
    nonzero entry M[i, j] has deg i - deg j = shift in it, deg = total_degree(fdims).
    Returns 0 for the exact degree, else g = gcd(dims) when every triple holds mod g,
    else 1: the trivial grading, one block.  Every entry is read once, by a count of
    M's nonzero parts, which the entries at the grading's positions (_graded_entries)
    must hold all of; a non-finite entry (a NaN has no degree) respects the trivial
    grading alone.
    """
    g = math.gcd(*dims)
    exact = True
    for M, fdims, shift in triples:
        M = np.ascontiguousarray(M)
        count = _nonzero_parts(M)
        for level in [0] * exact + [g] * (g > 1):  # g = 1 holds every entry
            held = M.reshape(-1).take(_graded_entries(tuple(fdims), shift, level))
            if _nonzero_parts(held) == count:
                break
            exact = False
        else:
            return 1
        if not np.isfinite(held).all():
            return 1
    return 0 if exact else g


@dataclass(frozen=True)
class SectorPlan:
    """The sectors of grading modulus g (0: the exact total degree, 1: one sector) of the
    product of factors of dims that meet a column mask, as padded index stacks; built and
    cached by sector_plan, every array read-only.

    index[s] holds sector s's flat indices, ascending, in its first sizes[s] places and
    then a pad: the first index of another sector.  An operator graded by g holds exact
    zeros in the pad's rows and columns of each sector block, so a batched product of
    the padded blocks (M.take(gather)) is, on each sector, the block of the product.  cols[s] marks the
    sector's indices the column mask keeps.  gather holds the flat positions of the
    blocks' entries in an operator on all factors, and pairs, for three factors, those in
    an operator on two of them (keyed by their sites) with the Kronecker delta of the
    spare factor; src and dst are the flat positions of the sector entries in the block
    stack and in the D x D product.
    """

    D: int
    sizes: tuple
    index: np.ndarray
    cols: tuple
    gather: np.ndarray
    pairs: dict
    src: np.ndarray
    dst: np.ndarray

    def block(self, M: np.ndarray, sites: tuple, s: int) -> np.ndarray:
        """Sector s's block of M on sites, without its pad: weight_sectors' restriction."""
        n = self.sizes[s]
        if sites not in self.pairs:
            return M.take(self.gather[s, :n, :n])
        flat, delta = self.pairs[sites]
        return M.take(flat[s, :n, :n]) * delta[s, :n, :n]

    def scatter(self, blocks: np.ndarray) -> np.ndarray:
        """The D x D operator whose sector blocks are the padded blocks, zero off them."""
        out = np.zeros(self.D * self.D, dtype=blocks.dtype)
        out[self.dst] = blocks.reshape(-1).take(self.src)
        return out.reshape(self.D, self.D)


@functools.cache
def sector_plan(dims: tuple, g: int, mask: bytes | None = None) -> SectorPlan:
    """The SectorPlan of the product of factors of dims under grading modulus g, for the
    column mask whose bytes are mask (None: every column).  Cached per shape: it depends
    on the dimensions, the modulus and the mask alone, never on an operator's values."""
    D = math.prod(dims)
    total = total_degree(dims)
    label = total % g if g else total
    keep = np.ones(D, dtype=bool) if mask is None else np.frombuffer(mask, dtype=bool)
    # the labels the mask meets, ascending (np.unique would import numpy.ma)
    sectors = [np.flatnonzero(label == t) for t in np.flatnonzero(np.bincount(label[keep]))]
    sizes = tuple(len(idx) for idx in sectors)
    index = np.empty((len(sectors), max(sizes, default=0)), dtype=np.intp)
    for s, idx in enumerate(sectors):
        index[s] = sectors[(s + 1) % len(sectors)][0]
        index[s, :len(idx)] = idx
    gather = index[:, :, None] * D + index[:, None, :]
    parts = np.unravel_index(index, dims)
    pairs = {}
    for sites in ((0, 1), (0, 2), (1, 2)) if len(dims) == 3 else ():
        (spare,) = {0, 1, 2} - set(sites)
        pos = np.ravel_multi_index([parts[s] for s in sites], [dims[s] for s in sites])
        pairs[sites] = (pos[:, :, None] * (D // dims[spare]) + pos[:, None, :],
                        parts[spare][:, :, None] == parts[spare][:, None, :])
    inside = np.arange(index.shape[1]) < np.array(sizes)[:, None]
    src = np.flatnonzero(inside[:, :, None] & inside[:, None, :])
    dst = gather.reshape(-1)[src]
    cols = tuple(keep[idx] for idx in sectors)
    _read_only(index, gather, src, dst, *cols, *(a for pair in pairs.values() for a in pair))
    return SectorPlan(D, sizes, index, cols, gather, pairs, src, dst)


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
    the ops, in order, and a boolean mask of the sector's indices in col_mask;
    each restriction is gathered through the flat positions of the cached
    sector_plan.
    """
    ops = [(M, tuple(sites)) for M, sites in ops]
    dims = tuple(int(d) for d in dims)
    g = grading_modulus([(M, tuple(dims[s] for s in sites), 0) for M, sites in ops], dims)
    plan = sector_plan(dims, g, None if col_mask is None
                       else np.asarray(col_mask, dtype=bool).tobytes())
    for s, cols in enumerate(plan.cols):
        yield [plan.block(M, sites, s) for M, sites in ops], cols


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
