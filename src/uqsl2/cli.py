"""Command-line verification harness.

Three subcommands:

* ``rmatrix`` builds a requested R-matrix and writes it as JSON;
* ``verify`` runs a named residual suite and writes pass/fail records;
* ``sweep``  scans curve parameters and writes a CSV table.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error,
3 pole or singularity.  For codes 2 and 3 a single-line JSON diagnostic is
printed to stderr.  Fixed seeds make every output byte-reproducible.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

import numpy as np

from .qnum import QParam
from .reps import central_check, semicyclic, truncated_verma
from .rfinite import (intertwine_residual, quasitriangularity_residual,
                      r_reshetikhin_product, r_verma_direct, ybe_residual)
from .raffine import (OracleDiverges, PoleError, UnsupportedOrder,
                      affine_intertwine_residual, central_affine_check, decompos_product,
                      drinfeld_relation_check, eval_imaginary_prime, f_scalar,
                      noncentral_residual, r_spectral, rminus_closed, rminus_product,
                      rplus_closed, rplus_product, rzero_bar, rzero_exponential,
                      schur_forward, schur_to_imaginary, spectral_ybe_residual)
from .cpotts import (CurveSpec, DegenerateCurve, curve_residual, export_boltzmann,
                     fn_commutation_residual, on_curve_partner, r_semicyclic,
                     solve_intertwiner)
from .tensorop import EmptySafeWindow, masked_max_abs, safe_mask


class ConfigError(ValueError):
    pass


def _default_tol() -> float:
    """The --tol default: $UQSL2_TOL if set, else 1e-9."""
    raw = os.environ.get("UQSL2_TOL", "1e-9")
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse UQSL2_TOL={raw!r} as a number") from None


def _parse_complex(s: str) -> complex:
    try:
        vals = [float(p) for p in s.split(",")]
    except ValueError:
        vals = []
    if not 1 <= len(vals) <= 2:
        raise ConfigError(f"cannot parse complex number from {s!r}")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"complex number {s!r} must be finite")
    return complex(*vals)


def _parse_depths(s: str, n: int | None = None) -> list:
    try:
        depths = [int(x) for x in s.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse depths from {s!r}")
    if any(d < 1 for d in depths):
        raise ConfigError("depths must be >= 1")
    if n is not None and len(depths) != n:
        raise ConfigError(f"expected {n} depths, got {len(depths)}")
    return depths


def _parse_zlist(s: str) -> list:
    if s.startswith("roots:"):
        try:
            k = int(s.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"cannot parse {s!r}: expected roots:N") from None
        if k < 1:
            raise ConfigError("roots:N needs N >= 1")
        return [cmath.exp(2j * cmath.pi * m / k) for m in range(k)]
    return [_parse_complex(tok) for tok in s.split(";")]


def _qparam(args) -> QParam:
    if args.Nprime and args.q:
        raise ConfigError("give either --q or --Nprime, not both")
    if args.Nprime:
        if args.Nprime < 3:
            raise ConfigError(f"unsupported order: N' = {args.Nprime} needs N' >= 3")
        return QParam.root_of_unity(args.Nprime)
    if args.q:
        try:
            return QParam.generic(_parse_complex(args.q))
        except ValueError as exc:
            raise ConfigError(str(exc))
    raise ConfigError("one of --q or --Nprime is required")


def _cnum(v: complex) -> list:
    return [v.real, v.imag]


def _dump(obj, path: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _random_lambda(rng) -> complex:
    # weights avoiding small integers, which collapse ladder coefficients
    return complex(rng.uniform(0.1, 2.0), rng.uniform(-0.5, 0.5))


# ---------------------------------------------------------------------------
# rmatrix


def cmd_rmatrix(args) -> int:
    qp = _qparam(args)
    lam1 = _parse_complex(args.lambda1)
    lam2 = _parse_complex(args.lambda2)
    kind = args.kind
    meta = {"schema_version": "1", "kind": kind,
            "qparam": {"nprime": qp.nprime, "q": _cnum(qp.q)},
            "lambda1": _cnum(lam1), "lambda2": _cnum(lam2)}
    if kind in ("verma", "reshetikhin"):
        depths = _parse_depths(args.depths, 2)
        r1 = truncated_verma(lam1, depths[0], qp)
        r2 = truncated_verma(lam2, depths[1], qp)
        if kind == "verma":
            R = r_verma_direct(r1, r2)
        else:
            if not qp.is_root:
                raise ConfigError("the product form needs a root of unity (--Nprime)")
            R = r_reshetikhin_product(r1, r2)
    elif kind == "spectral":
        if qp.is_root and qp.N < 3:
            raise ConfigError(f"unsupported order: N' = {qp.nprime} makes [2]_q = 0")
        depths = _parse_depths(args.depths, 2)
        zs = _parse_zlist(args.z)
        r1 = truncated_verma(lam1, depths[0], qp)
        r2 = truncated_verma(lam2, depths[1], qp)
        if len(zs) > 1:
            meta["cartan"] = args.cartan
            meta["operators"] = [
                {"z": _cnum(z), "operator": r_spectral(z, r1, r2, cartan=args.cartan).to_json()}
                for z in zs
            ]
            return _finish_rmatrix(args, meta)
        z = zs[0]
        R = r_spectral(z, r1, r2, cartan=args.cartan)
        meta["z"] = _cnum(z)
        meta["cartan"] = args.cartan
    elif kind == "semicyclic":
        if not qp.is_root:
            raise ConfigError("semicyclic modules need a root of unity (--Nprime)")
        if qp.N < 3:
            raise ConfigError(f"unsupported order: N' = {qp.nprime} makes [2]_q = 0")
        z = _parse_zlist(args.z)[0]
        a1 = _parse_complex(args.alpha1)
        a2 = _parse_complex(args.alpha2) if args.alpha2 else on_curve_partner(a1, lam1, lam2, qp)
        sc1 = semicyclic(a1, lam1, qp)
        sc2 = semicyclic(a2, lam2, qp)
        R = r_semicyclic(z, sc1, sc2)
        spec = CurveSpec(z, lam1, lam2, a1, a2, N=qp.N)
        return _finish_rmatrix(args, export_boltzmann(R, spec, qp))
    else:
        raise ConfigError(f"unknown kind {kind!r}")
    meta["normalization"] = _cnum(R.mat[0, 0])
    meta["operator"] = R.to_json()
    return _finish_rmatrix(args, meta)


def _finish_rmatrix(args, doc) -> int:
    _dump(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify suites


def _record(records, check, params, residual, tol, invert=False):
    ok = (residual < tol) if not invert else (residual > tol)
    records.append({"check": check, "params": params, "residual": float(residual),
                    "tolerance": float(tol), "pass": bool(ok),
                    "mode": "detect" if invert else "bound"})


def _suite_ybe(args, qp, rng, records, tol):
    depths = _parse_depths(args.depths, 3) if args.depths else None
    if qp.is_root:
        d = depths or [qp.N] * 3
    else:
        d = depths or [3, 3, 3]
    lams = [_random_lambda(rng) for _ in range(3)]
    reps = [truncated_verma(l, dd, qp) for l, dd in zip(lams, d)]
    _record(records, "ybe-finite", {"depths": d, "lambdas": [_cnum(l) for l in lams]},
            ybe_residual(*reps), tol)
    xs = [1.0, cmath.exp(1j * rng.uniform(0.2, 1.2)), cmath.exp(-1j * rng.uniform(0.2, 1.2))]
    _record(records, "ybe-spectral", {"x": [_cnum(x) for x in xs]},
            spectral_ybe_residual(*xs, *reps), tol)


def _suite_intertwine(args, qp, rng, records, tol):
    depths = _parse_depths(args.depths, 2) if args.depths else None
    d = depths or ([qp.N] * 2 if qp.is_root else [4, 4])
    lams = [_random_lambda(rng) for _ in range(2)]
    reps = [truncated_verma(l, dd, qp) for l, dd in zip(lams, d)]
    R = r_verma_direct(reps[0], reps[1])
    _record(records, "intertwine-finite", {"depths": d},
            intertwine_residual(R, reps[0], reps[1]), tol)
    z = cmath.exp(1j * rng.uniform(0.2, 1.2)) if qp.is_root else 0.3 + 0.1j
    _record(records, "intertwine-spectral", {"z": _cnum(z)},
            affine_intertwine_residual(z, reps[0], reps[1]), tol)


def _suite_quasi(args, qp, rng, records, tol):
    if qp.is_root:
        raise ConfigError("quasitriangularity checks run at generic q")
    d = _parse_depths(args.depths, 3) if args.depths else [3, 3, 3]
    reps = [truncated_verma(_random_lambda(rng), dd, qp) for dd in d]
    _record(records, "quasitriangularity", {"depths": d},
            quasitriangularity_residual(*reps), tol)


def _suite_central(args, qp, rng, records, tol):
    if not qp.is_root:
        raise ConfigError("the centrality suite needs a root of unity")
    lam = _random_lambda(rng)
    rep = semicyclic(0.4, lam, qp)
    chk = central_check(rep)
    for name, row in chk.items():
        _record(records, f"central-{name}", {"lambda": _cnum(lam)},
                row["max_commutator"], tol)
    for row in central_affine_check(rep, 1.0, k_max=1):
        _record(records, f"central-loop-{row['family']}",
                {"order": row["order"]}, row["max_commutator"], tol)
    _record(records, "central-negative-control", {"order": 1},
            noncentral_residual(rep, 1.0, 1), tol, invert=True)


def _suite_drinfeld(args, qp, rng, records, tol):
    d = _parse_depths(args.depths, 1)[0] if args.depths else 5
    rep = truncated_verma(_random_lambda(rng), d, qp)
    x = cmath.exp(1j * rng.uniform(0.1, 1.0)) * rng.uniform(0.7, 1.3)
    for name, val in drinfeld_relation_check(rep, x).items():
        _record(records, f"drinfeld-{name}", {"depth": d, "x": _cnum(x)}, val, tol)


def _suite_curve(args, qp, rng, records, tol):
    if not qp.is_root:
        raise ConfigError("the curve suite needs a root of unity")
    N = qp.N
    sweep = args.sweep or "on-curve"
    draws = args.draws
    for t in range(draws):
        lam1, lam2 = _random_lambda(rng), _random_lambda(rng)
        a1 = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3))
        if sweep == "on-curve":
            a2 = on_curve_partner(a1, lam1, lam2, qp)
            z = cmath.exp(2j * cmath.pi * int(rng.integers(0, N)) / N)
        else:
            a2 = on_curve_partner(a1, lam1, lam2, qp) * 1.9 + 0.3
            z = cmath.exp(2j * cmath.pi * int(rng.integers(0, N)) / N)
        sc1, sc2 = semicyclic(a1, lam1, qp), semicyclic(a2, lam2, qp)
        spec = CurveSpec(z, lam1, lam2, a1, a2, N=N)
        r1, r2 = curve_residual(spec, qp)
        R = r_semicyclic(z, sc1, sc2)
        resid = affine_intertwine_residual(z, sc1, sc2, R=R)
        params = {"draw": t, "alpha1": _cnum(a1), "alpha2": _cnum(a2), "z": _cnum(z)}
        if sweep == "on-curve":
            _record(records, "curve-alpha", params, r1, tol)
            _record(records, "curve-intertwine", params, resid, max(tol, 1e-6))
            fn = fn_commutation_residual(z, sc1, sc2, R)
            _record(records, "curve-exchange", params,
                    max(fn["ideal_exchange"], fn["spectral_exchange"]), max(tol, 1e-7))
        else:
            _record(records, "curve-alpha-detect", params, r1, 1e-2, invert=True)
            _record(records, "curve-intertwine-detect", params, resid, 1e-3, invert=True)


def _suite_schur_oracle(args, qp, rng, records, tol):
    d = _parse_depths(args.depths, 1)[0] if args.depths else 5
    rep = truncated_verma(_random_lambda(rng), d, qp)
    x = 0.8 + 0.3j
    for family in ("closed", "loop"):
        im = schur_to_imaginary(eval_imaginary_prime(rep, x, 4, family=family))
        worst = 0.0
        for n in range(1, 5):
            fwd = schur_forward(im.e, qp, n)
            worst = max(worst, float(np.max(np.abs(fwd - im.eprime[n - 1]))))
        _record(records, f"schur-roundtrip-{family}", {"depth": d}, worst, tol)


def _suite_product_oracle(args, qp, rng, records, tol):
    if qp.is_root:
        raise ConfigError("the ordered-product oracle runs at generic q")
    d = _parse_depths(args.depths, 2) if args.depths else [4, 4]
    lam1, lam2 = _random_lambda(rng), _random_lambda(rng)
    r1 = truncated_verma(lam1, d[0], qp)
    r2 = truncated_verma(lam2, d[1], qp)
    z = 0.2
    _record(records, "product-raising", {"z": _cnum(z)},
            float(np.max(np.abs(rplus_closed(z, r1, r2).mat - rplus_product(z, r1, r2).mat))), tol)
    _record(records, "product-lowering", {"z": _cnum(z)},
            float(np.max(np.abs(rminus_closed(z, r1, r2).mat - rminus_product(z, r1, r2).mat))), tol)
    f = f_scalar(z, lam1, lam2, qp, terms=90)
    mask = safe_mask((d[0], d[1]), 1)
    lhs = f * np.diag(rzero_bar(z, r1, r2).mat)
    rhs = np.diag(rzero_exponential(z, r1, r2, n_max=70).mat)
    _record(records, "product-diagonal", {"z": _cnum(z)},
            masked_max_abs(np.diag(lhs - rhs), mask), tol)
    full = decompos_product(z, r1, r2)
    _record(records, "product-full", {"z": _cnum(z)},
            masked_max_abs(f * r_spectral(z, r1, r2, cartan="raw").mat - full.mat, mask), tol)


def _suite_coincidence(args, qp, rng, records, tol):
    if not qp.is_root:
        raise ConfigError("the coincidence suite compares root-of-unity forms")
    d = _parse_depths(args.depths, 2) if args.depths else [2 * qp.N, 2 * qp.N]
    lam1, lam2 = _random_lambda(rng), _random_lambda(rng)
    r1 = truncated_verma(lam1, d[0], qp)
    r2 = truncated_verma(lam2, d[1], qp)
    Rd = r_verma_direct(r1, r2)
    Rp = r_reshetikhin_product(r1, r2)
    _record(records, "coincidence", {"depths": d},
            float(np.max(np.abs(Rd.mat - Rp.mat))), tol)


SUITES = {
    "ybe": _suite_ybe,
    "intertwine": _suite_intertwine,
    "quasi": _suite_quasi,
    "central": _suite_central,
    "drinfeld": _suite_drinfeld,
    "curve": _suite_curve,
    "schur-oracle": _suite_schur_oracle,
    "product-oracle": _suite_product_oracle,
    "coincidence": _suite_coincidence,
}


def cmd_verify(args) -> int:
    tol = _default_tol() if args.tol is None else args.tol
    qp = _qparam(args)
    if not (tol > 0) or math.isinf(tol):
        raise ConfigError("tolerance must be positive and finite")
    rng = np.random.default_rng(args.seed)
    records = []
    SUITES[args.suite](args, qp, rng, records, tol)
    if not records:
        raise ConfigError(f"suite {args.suite!r} ran no checks with these arguments")
    ok = all(r["pass"] for r in records)
    report = {
        "schema_version": "1",
        "suite": args.suite,
        "seed": args.seed,
        "tolerance": tol,
        "qparam": {"nprime": qp.nprime, "q": _cnum(qp.q)},
        "records": records,
        "all_pass": ok,
    }
    _dump(report, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    qp = _qparam(args)
    if not qp.is_root:
        raise ConfigError("curve sweeps need a root of unity")
    N = qp.N
    lam2 = _parse_complex(args.lambda2)
    if not math.isfinite(args.lambda_imag):
        raise ConfigError(f"--lambda-imag must be finite, got {args.lambda_imag}")
    z = _parse_zlist(args.z)[0]
    if z == 0:
        raise ConfigError("--z must be nonzero: it is the evaluation parameter of V1")

    def _range(spec):
        try:
            lo, hi, num = spec.split(":")
            lo, hi, num = float(lo), float(hi), int(num)
        except ValueError:
            raise ConfigError(f"cannot parse grid range from {spec!r}: expected lo:hi:num") from None
        if not np.isfinite([lo, hi]).all():
            raise ConfigError(f"grid range bounds must be finite, got {spec!r}")
        if num < 0:
            raise ConfigError("grid size must be >= 0")
        return list(np.linspace(lo, hi, num)) if num else []

    lam1s = _range(args.lambda1_range)
    a1s = _range(args.alpha1_range)
    lines = ["nprime,lambda1,lambda2,alpha1,alpha2,z,r1,r2,intertwine_residual,nullspace_dim"]
    for l1 in lam1s:
        for a1 in a1s:
            lam1 = complex(l1, args.lambda_imag)
            a2 = on_curve_partner(a1, lam1, lam2, qp)
            sc1, sc2 = semicyclic(a1, lam1, qp), semicyclic(a2, lam2, qp)
            spec = CurveSpec(z, lam1, lam2, a1, a2, N=N)
            r1, r2 = curve_residual(spec, qp)
            R = r_semicyclic(z, sc1, sc2)
            resid = affine_intertwine_residual(z, sc1, sc2, R=R)
            _, dim = solve_intertwiner(sc1, sc2, z, 1.0)
            lines.append(
                f"{qp.nprime},{lam1.real:.12g}{lam1.imag:+.12g}j,"
                f"{lam2.real:.12g}{lam2.imag:+.12g}j,"
                f"{a1:.12g},{a2.real:.12g}{a2.imag:+.12g}j,"
                f"{z.real:.12g}{z.imag:+.12g}j,"
                f"{r1:.6e},{r2:.6e},{resid:.6e},{dim}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with the same one-line JSON diagnostic as any other
    configuration error (subparsers inherit the class)."""

    def error(self, message):
        self.exit(2, json.dumps({"error": f"{self.prog}: {message}", "code": 2}) + "\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="uqsl2", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--q", help="generic q as 're' or 're,im'")
        sp.add_argument("--Nprime", type=int, default=0, help="root-of-unity order N'")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("-o", "--out", default=None)

    sp = sub.add_parser("rmatrix", help="build an R-matrix and write it as JSON")
    common(sp)
    sp.add_argument("--kind", required=True,
                    choices=("verma", "reshetikhin", "spectral", "semicyclic"))
    sp.add_argument("--lambda1", default="1")
    sp.add_argument("--lambda2", default="1")
    sp.add_argument("--depths", default="3,3")
    sp.add_argument("--alpha1", default="0")
    sp.add_argument("--alpha2", default=None)
    sp.add_argument("--z", default="1", help="spectral parameter(s): 're,im;...' or 'roots:N'")
    sp.add_argument("--cartan", choices=("normalized", "raw", "none"), default="normalized",
                    help="Cartan weight tail of the spectral R-matrix")
    sp.set_defaults(func=cmd_rmatrix)

    sp = sub.add_parser("verify", help="run a residual suite")
    common(sp)
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--tol", type=float, default=None,
                    help="residual tolerance (default: $UQSL2_TOL, else 1e-9)")
    sp.add_argument("--depths", default=None)
    sp.add_argument("--sweep", choices=("on-curve", "off-curve"), default=None)
    sp.add_argument("--draws", type=int, default=5)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="scan curve parameters, write CSV")
    common(sp)
    sp.add_argument("--lambda1-range", default="0.5:1.5:5")
    sp.add_argument("--alpha1-range", default="0.2:1.0:5")
    sp.add_argument("--lambda-imag", type=float, default=0.1)
    sp.add_argument("--lambda2", default="1.3,-0.11")
    sp.add_argument("--z", default="1")
    sp.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DegenerateCurve, EmptySafeWindow, OracleDiverges) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "code": 2}) + "\n")
        return 2
    except UnsupportedOrder as exc:
        sys.stderr.write(json.dumps({"error": f"unsupported order: {exc}", "code": 2}) + "\n")
        return 2
    except PoleError as exc:
        diag = {"error": str(exc), "code": 3}
        if exc.z is not None:
            diag["z"] = [complex(exc.z).real, complex(exc.z).imag]
        if exc.weight_pair is not None:
            diag["weight_pair"] = list(exc.weight_pair)
        sys.stderr.write(json.dumps(diag) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
