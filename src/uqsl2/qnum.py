"""q-integers, q-binomials and their root-of-unity limits.

Two q-analogues of an integer are used side by side throughout:

* the symmetric bracket   [n] = (q^n - q^-n) / (q - q^-1),
* the unsymmetric bracket (n)_b = (1 - b^n) / (1 - b)  for a base b
  (the base is q^-2 wherever a q-exponential appears).

Symmetric factorials vanish at roots of unity, but the symmetric
q-binomial keeps a finite limit.  That limit is computed here
combinatorially, by splitting both indices by the order N of q^2
(top part: ordinary binomial; bottom part: a nonsingular Gaussian
binomial in base q^2; one explicit power of q glues the two
conventions).  Vanishing factorials are never divided.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial

import numpy as np

#: default absolute tolerance for residual checks across the package
DEFAULT_TOL = 1e-9

#: a Generic QParam is rejected when q is this close to a low-order root of unity
GENERIC_GUARD_ORDER = 64
GENERIC_GUARD_TOL = 1e-6


class DenominatorVanishes(ArithmeticError):
    """A q-factorial (or similar) denominator vanished before the series terminated."""


@dataclass(frozen=True)
class QParam:
    """Deformation parameter: a generic complex q, or a primitive N'-th root of unity.

    At a root of unity, ``q`` holds eps = exp(2*pi*i/nprime) and ``N`` is the
    order of q^2 (N = N' for odd N', N = N'/2 for even N').
    """

    q: complex
    nprime: int = 0  # 0 means generic

    def __post_init__(self):
        if self.nprime:
            if self.nprime < 3:
                raise ValueError(f"root-of-unity order must be >= 3, got {self.nprime}")
        else:
            q = complex(self.q)
            if not cmath.isfinite(q):
                raise ValueError(f"q must be finite, got {q}")
            if q == 0:
                raise ValueError("q must be nonzero")
            for k in range(1, GENERIC_GUARD_ORDER + 1):
                if abs(q**k - 1.0) < GENERIC_GUARD_TOL:
                    raise ValueError(
                        f"generic q={q} is within {GENERIC_GUARD_TOL} of a root of "
                        f"unity of order {k}; construct a RootOfUnity QParam instead"
                    )

    @classmethod
    def generic(cls, q: complex) -> "QParam":
        return cls(complex(q), 0)

    @classmethod
    def root_of_unity(cls, nprime: int) -> "QParam":
        eps = cmath.exp(2j * cmath.pi / nprime)
        return cls(eps, int(nprime))

    @property
    def is_root(self) -> bool:
        return self.nprime > 0

    @property
    def N(self) -> int:
        """Order of q^2 (only meaningful at a root of unity)."""
        if not self.is_root:
            raise ValueError("N is defined only at a root of unity")
        return self.nprime if self.nprime % 2 else self.nprime // 2

    @cached_property
    def logq(self) -> complex:
        # principal branch; the root-of-unity constructor stores the exact
        # primitive root, so this is (+/-) 2 pi i / N' there
        return cmath.log(self.q)

    def qpow(self, e) -> complex:
        """q**e for arbitrary complex e, principal branch of log q."""
        return cmath.exp(complex(e) * self.logq)

    def qpow_array(self, e) -> np.ndarray:
        """q**e elementwise over an array of exponents, same branch as qpow."""
        return np.exp(np.asarray(e, dtype=complex) * self.logq)

    def perturbed(self, h: float) -> "QParam":
        """Generic parameter q = eps * e^h, used by limit oracles near a root."""
        if not self.is_root:
            raise ValueError("perturbed() only makes sense at a root of unity")
        return QParam.generic(self.q * cmath.exp(h))


def qnumber(x, qp: QParam) -> complex:
    """Symmetric bracket [x] = (q^x - q^-x)/(q - q^-1); x may be complex."""
    q = qp.q
    return (qp.qpow(x) - qp.qpow(-x)) / (q - 1 / q)


def qnumber_array(x, qp: QParam) -> np.ndarray:
    """[x] elementwise over an array x."""
    q = qp.q
    return (qp.qpow_array(x) - qp.qpow_array(-np.asarray(x))) / (q - 1 / q)


def qint(n: int, qp: QParam) -> complex:
    """[n] for integer n."""
    return qnumber(n, qp)


def unsym_qnum(n: int, base: complex) -> complex:
    """(n)_b = (1 - b^n)/(1 - b)."""
    if base == 1:
        raise DenominatorVanishes("unsymmetric bracket undefined at base 1")
    return (1 - base**n) / (1 - base)


def qbracket(n: int, qp: QParam) -> complex:
    """(n)_q in the unsymmetric convention, with base q itself."""
    return unsym_qnum(n, qp.q)


def qfact(n: int, qp: QParam) -> complex:
    """Symmetric factorial [n]! (vanishes at roots of unity once n >= N)."""
    out = 1.0 + 0j
    for k in range(2, n + 1):
        out *= qnumber(k, qp)
    return out


def unsym_qfact(n: int, base: complex) -> complex:
    """(n)_b! = prod_{k=1}^{n} (1-b^k)/(1-b)."""
    out = 1.0 + 0j
    for k in range(2, n + 1):
        out *= unsym_qnum(k, base)
    return out


def gauss_binom(s: int, n: int, base: complex) -> complex:
    """Gaussian binomial in an explicit base: prod_k (1-b^{s-n+k})/(1-b^k)."""
    if n < 0 or n > s:
        return 0j
    out = 1.0 + 0j
    for k in range(1, n + 1):
        num = 1 - base ** (s - n + k)
        den = 1 - base**k
        if abs(den) < 1e-14:
            raise DenominatorVanishes(f"Gaussian binomial denominator vanished at k={k}")
        out *= num / den
    return out


def qbinom(s: int, n: int, qp: QParam) -> complex:
    """Symmetric q-binomial [s]! / ([n]! [s-n]!), finite at roots of unity.

    Returns 0 for n > s.  At a root of unity the value is the limit of the
    generic expression as q approaches eps radially; it is assembled from
    the index split s = s1*N + s0, n = n1*N + n0 as

        q^{-n(s-n)} * C(s1, n1) * GaussianBinomial(s0, n0; q^2),

    which is 0 whenever n0 > s0.
    """
    if n < 0 or s < 0:
        raise ValueError(f"negative q-binomial indices ({s}, {n})")
    if n > s:
        return 0j
    if not qp.is_root:
        out = 1.0 + 0j
        for k in range(1, n + 1):
            out *= qnumber(s - n + k, qp) / qnumber(k, qp)
        return out
    N = qp.N
    s1, s0 = divmod(s, N)
    n1, n0 = divmod(n, N)
    if n0 > s0:
        return 0j
    # integer powers of q have period N'; reduce the exponent to avoid drift
    phase = qp.qpow((-(n * (s - n))) % qp.nprime)
    return phase * comb(s1, n1) * gauss_binom(s0, n0, qp.qpow(2))


def qbinom_table(d: int, qp: QParam) -> np.ndarray:
    """The d x d table C[s, n] = qbinom(s, n, qp), zero above the diagonal (n > s).

    At generic q, column n follows from column n-1 by the factor
    [s-n+1]/[n].  At a root of unity every entry is the index-split limit of
    ``qbinom``: a phase, an ordinary binomial of the top parts and a
    Gaussian binomial of the bottom parts, whose N x N table follows the
    same recurrence in base q^2 (its denominators never vanish below N).
    """
    s = np.arange(d)
    if not qp.is_root:
        return _binom_recurrence(qnumber_array(s + 1, qp), qnumber_array(s, qp))
    N = qp.N
    one_minus = 1 - qp.qpow(2) ** np.arange(N + 1)  # 1 - b^k, b = q^2
    gauss = _binom_recurrence(one_minus[1:], one_minus[:-1])
    top = np.array([[comb(a, b) for b in range(d // N + 1)] for a in range(d // N + 1)],
                   dtype=float)
    s1, s0 = np.divmod(s[:, None], N)
    n1, n0 = np.divmod(s[None, :], N)
    # integer powers of q have period N'; reduce the exponent to avoid drift
    phase = qp.qpow_array((-(s[None, :] * (s[:, None] - s[None, :]))) % qp.nprime)
    return phase * top[s1, n1] * gauss[s0, n0]


def _binom_recurrence(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """B[s, n] = prod_{k=1}^n num[s-n+k-1] / den[k] for s, n < len(den); zero for n > s.

    Filled column by column with B[s, n] = B[s, n-1] * num[s-n] / den[n]."""
    d = len(den)
    out = np.zeros((d, d), dtype=complex)
    out[:, 0] = 1.0
    for n in range(1, d):
        out[n:, n] = out[n:, n - 1] * num[:d - n] / den[n]
    return out


def gen_binom(a: complex, k: int) -> complex:
    """Generalized binomial coefficient a(a-1)...(a-k+1)/k! for complex a."""
    out = 1.0 + 0j
    for j in range(k):
        out *= (a - j) / (j + 1)
    return out


def qexp_truncated(X: np.ndarray, base: complex, terms: int) -> np.ndarray:
    """Truncated q-exponential sum_{n=0}^{terms} X^n / (n)_base!.

    Exact once X is nilpotent and `terms` reaches the nilpotency index.
    Raises if a vanishing q-factorial is hit while X^n is still nonzero.
    """
    X = np.asarray(X, dtype=complex)
    d = X.shape[0]
    out = np.eye(d, dtype=complex)
    power = np.eye(d, dtype=complex)
    fact = 1.0 + 0j
    for n in range(1, terms + 1):
        power = power @ X
        if not power.any():
            break
        bracket = unsym_qnum(n, base)
        if abs(bracket) < 1e-9:
            raise DenominatorVanishes(
                f"q-factorial vanished at order {n} before the series terminated"
            )
        fact *= bracket
        out += power / fact
    return out


def qpochhammer_truncated(z: complex, base: complex, terms: int) -> complex:
    """Finite product prod_{k=0}^{terms-1} (1 - z * base^k)."""
    out = 1.0 + 0j
    zk = complex(z)
    for _ in range(terms):
        out *= 1 - zk
        zk *= base
    return out


def matrix_fractional_power(a: complex, X: np.ndarray, p: complex) -> np.ndarray:
    """(1 - a*X)^p for nilpotent X, by the terminating generalized binomial series."""
    X = np.asarray(X, dtype=complex)
    d = X.shape[0]
    out = np.eye(d, dtype=complex)
    power = np.eye(d, dtype=complex)
    k = 0
    while True:
        k += 1
        power = power @ X
        if not power.any():
            break
        if k > 4 * d:
            raise ValueError("matrix_fractional_power requires a nilpotent argument")
        out += gen_binom(p, k) * (-a) ** k * power
    return out


def nilpotent_expm(X: np.ndarray) -> np.ndarray:
    """exp(X) for nilpotent X by the terminating Taylor series."""
    X = np.asarray(X, dtype=complex)
    d = X.shape[0]
    out = np.eye(d, dtype=complex)
    power = np.eye(d, dtype=complex)
    k = 0
    while True:
        k += 1
        power = power @ X
        if not power.any():
            break
        if k > 4 * d:
            raise ValueError("nilpotent_expm requires a nilpotent argument")
        out += power / factorial(k)
    return out
