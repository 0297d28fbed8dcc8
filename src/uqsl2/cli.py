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
import functools
import json
import math
import sys

import numpy as np

from .qnum import QParam, RefusedInput
from .reps import central_check, safe_window, semicyclic, truncated_verma
from .rfinite import (intertwine_residual, quasitriangularity_residual,
                      r_reshetikhin_product, r_verma_direct, ybe_residual)
from .raffine import (CARTAN_MODES, _assemble_product, _spectral_product,
                      affine_intertwine_residual, central_affine_check, drinfeld_relation_check,
                      eval_imaginary_prime, f_scalar, noncentral_residual, r_spectral,
                      rminus_closed, rminus_product, rplus_closed, rplus_product, rzero_bar,
                      rzero_exponential, schur_forward, schur_to_imaginary,
                      spectral_ybe_residual)
from .cpotts import (CurveSpec, DegenerateCurve, _fold, _parent_spectral, curve_residual,
                     export_boltzmann, fn_commutation_residual, on_curve_partner, r_semicyclic,
                     solve_intertwiner)
from .tensorop import cnum, masked_max_abs


class ConfigError(RefusedInput, ValueError):
    pass


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


def _parse_depths(s: str, n: int) -> list:
    try:
        depths = [int(x) for x in s.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse depths from {s!r}")
    if any(d < 1 for d in depths):
        raise ConfigError("depths must be >= 1")
    if len(depths) != n:
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
        return QParam.generic(_parse_complex(args.q))
    raise ConfigError("one of --q or --Nprime is required")


def _write(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj, path: str | None):
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _random_lambda(rng) -> complex:
    # weights avoiding small integers, which collapse ladder coefficients
    return complex(rng.uniform(0.1, 2.0), rng.uniform(-0.5, 0.5))


def _vermas(args, qp, rng, default: list) -> list:
    """Truncated Verma modules at the --depths (default: default, as many), each
    at a drawn weight; every weight is drawn before any module is built."""
    depths = _parse_depths(args.depths, len(default)) if args.depths else default
    lams = [_random_lambda(rng) for _ in depths]
    return [truncated_verma(lam, d, qp) for lam, d in zip(lams, depths)]


# ---------------------------------------------------------------------------
# rmatrix


def cmd_rmatrix(args) -> int:
    with np.errstate(all="ignore"):  # a non-finite entry is refused below, before any write
        doc = _rmatrix_doc(args)
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ConfigError(f"non-finite entries in the {args.kind} R-matrix") from None
    _write(text + "\n", args.out)
    return 0


def _rmatrix_doc(args) -> dict:
    qp = _qparam(args)
    lam1 = _parse_complex(args.lambda1)
    lam2 = _parse_complex(args.lambda2)
    kind = args.kind  # one of the parser's choices
    if kind == "semicyclic":
        if not qp.is_root:
            raise ConfigError("semicyclic modules need a root of unity (--Nprime)")
        z = _parse_zlist(args.z)[0]
        a1 = _parse_complex(args.alpha1)
        try:
            a2 = (_parse_complex(args.alpha2) if args.alpha2
                  else on_curve_partner(a1, lam1, lam2, qp))
            R = r_semicyclic(z, semicyclic(a1, lam1, qp), semicyclic(a2, lam2, qp))
            return export_boltzmann(R, CurveSpec(z, lam1, lam2, a1, a2, N=qp.N), qp)
        except DegenerateCurve as exc:
            raise DegenerateCurve(f"{exc}; pass another --lambda{exc.module}",
                                  module=exc.module) from exc
    meta = {"schema_version": "1", "kind": kind,
            "qparam": {"nprime": qp.nprime, "q": cnum(qp.q)},
            "lambda1": cnum(lam1), "lambda2": cnum(lam2)}
    depths = _parse_depths(args.depths, 2)
    zs = _parse_zlist(args.z) if kind == "spectral" else None
    r1 = truncated_verma(lam1, depths[0], qp)
    r2 = truncated_verma(lam2, depths[1], qp)
    if kind == "verma":
        R = r_verma_direct(r1, r2)
    elif kind == "reshetikhin":
        if not qp.is_root:
            raise ConfigError("the product form needs a root of unity (--Nprime)")
        R = r_reshetikhin_product(r1, r2)
    else:
        meta["cartan"] = args.cartan
        if len(zs) > 1:
            meta["operators"] = [
                {"z": cnum(z), "operator": r_spectral(z, r1, r2, cartan=args.cartan).to_json()}
                for z in zs
            ]
            return meta
        R = r_spectral(zs[0], r1, r2, cartan=args.cartan)
        meta["z"] = cnum(zs[0])
    meta["normalization"] = cnum(R.mat[0, 0])
    meta["operator"] = R.to_json()
    return meta


# ---------------------------------------------------------------------------
# verify suites


def _record(records, check, params, residual, tol, invert=False):
    ok = (residual < tol) if not invert else (residual > tol)
    records.append({"check": check, "params": params, "residual": float(residual),
                    "tolerance": float(tol), "pass": bool(ok),
                    "mode": "detect" if invert else "bound"})


def _suite_ybe(args, qp, rng, records, tol):
    reps = _vermas(args, qp, rng, [qp.N] * 3 if qp.is_root else [3, 3, 3])
    _record(records, "ybe-finite", {"depths": [r.dim for r in reps],
                                    "lambdas": [cnum(r.lam) for r in reps]},
            ybe_residual(*reps), tol)
    xs = [1.0, cmath.exp(1j * rng.uniform(0.2, 1.2)), cmath.exp(-1j * rng.uniform(0.2, 1.2))]
    _record(records, "ybe-spectral", {"x": [cnum(x) for x in xs]},
            spectral_ybe_residual(*xs, *reps), tol)


def _suite_intertwine(args, qp, rng, records, tol):
    reps = _vermas(args, qp, rng, [qp.N] * 2 if qp.is_root else [4, 4])
    R = r_verma_direct(reps[0], reps[1])
    _record(records, "intertwine-finite", {"depths": [r.dim for r in reps]},
            intertwine_residual(R, reps[0], reps[1]), tol)
    z = cmath.exp(1j * rng.uniform(0.2, 1.2)) if qp.is_root else 0.3 + 0.1j
    _record(records, "intertwine-spectral", {"z": cnum(z)},
            affine_intertwine_residual(z, reps[0], reps[1]), tol)


def _suite_quasi(args, qp, rng, records, tol):
    if qp.is_root:
        raise ConfigError("quasitriangularity checks run at generic q")
    reps = _vermas(args, qp, rng, [3, 3, 3])
    _record(records, "quasitriangularity", {"depths": [r.dim for r in reps]},
            quasitriangularity_residual(*reps), tol)


def _suite_central(args, qp, rng, records, tol):
    if not qp.is_root:
        raise ConfigError("the centrality suite needs a root of unity")
    lam = _random_lambda(rng)
    rep = semicyclic(0.4, lam, qp)
    chk = central_check(rep)
    for name, row in chk.items():
        _record(records, f"central-{name}", {"lambda": cnum(lam)},
                row["max_commutator"], tol)
    for row in central_affine_check(rep):
        _record(records, f"central-loop-{row['family']}",
                {"order": row["order"]}, row["max_commutator"], tol)
    _record(records, "central-negative-control", {"order": 1},
            noncentral_residual(rep), tol, invert=True)


def _suite_drinfeld(args, qp, rng, records, tol):
    rep, = _vermas(args, qp, rng, [5])
    x = cmath.exp(1j * rng.uniform(0.1, 1.0)) * rng.uniform(0.7, 1.3)
    for name, val in drinfeld_relation_check(rep, x).items():
        _record(records, f"drinfeld-{name}", {"depth": rep.dim, "x": cnum(x)}, val, tol)


def _suite_curve(args, qp, rng, records, tol):
    if not qp.is_root:
        raise ConfigError("the curve suite needs a root of unity")
    N = qp.N
    sweep = args.sweep or "on-curve"
    for t in range(args.draws):
        lam1, lam2 = _random_lambda(rng), _random_lambda(rng)
        a1 = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3))
        a2 = on_curve_partner(a1, lam1, lam2, qp)
        if sweep != "on-curve":
            a2 = a2 * 1.9 + 0.3
        z = cmath.exp(2j * cmath.pi * int(rng.integers(0, N)) / N)
        sc1, sc2 = semicyclic(a1, lam1, qp), semicyclic(a2, lam2, qp)
        r1, r2 = curve_residual(CurveSpec(z, lam1, lam2, a1, a2, N=N), qp)
        R = r_semicyclic(z, sc1, sc2)
        resid = affine_intertwine_residual(z, sc1, sc2, R=R)
        params = {"draw": t, "alpha1": cnum(a1), "alpha2": cnum(a2), "z": cnum(z)}
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
    rep, = _vermas(args, qp, rng, [5])
    x = 0.8 + 0.3j
    for family in ("closed", "loop"):
        im = schur_to_imaginary(eval_imaginary_prime(rep, x, 4, family=family))
        worst = np.max([np.max(np.abs(schur_forward(im.e, qp, n) - im.eprime[n - 1]))
                        for n in range(1, 5)])
        _record(records, f"schur-roundtrip-{family}", {"depth": rep.dim}, worst, tol)


def _suite_product_oracle(args, qp, rng, records, tol):
    if qp.is_root:
        raise ConfigError("the ordered-product oracle runs at generic q")
    r1, r2 = _vermas(args, qp, rng, [4, 4])
    z = 0.2
    # each factor, ordered product or closed form, is built once, for its record and
    # for the full product, whose closed side is r_spectral(cartan="raw") of the held
    # closed factors (raffine._spectral_product).  R^- comes before its closed form;
    # that cannot change which error a job reports, because R^- cannot fail once R^+
    # was built (the same truncation order and q-factorials)
    rp_closed = rplus_closed(z, r1, r2)
    _record(records, "product-raising", {"z": cnum(z)},
            float(np.max(np.abs(rp_closed.mat - (rp := rplus_product(z, r1, r2)).mat))), tol)
    rm = rminus_product(z, r1, r2)
    rm_closed = rminus_closed(z, r1, r2)
    _record(records, "product-lowering", {"z": cnum(z)},
            float(np.max(np.abs(rm_closed.mat - rm.mat))), tol)
    f = f_scalar(z, r1.lam, r2.lam, qp)
    mask = safe_window((r1, r2), 1)
    r0_closed = rzero_bar(z, r1, r2)
    lhs = f * np.diag(r0_closed.mat)
    r0 = rzero_exponential(z, r1, r2)  # one build for both records
    _record(records, "product-diagonal", {"z": cnum(z)},
            masked_max_abs(np.diag(lhs - np.diag(r0.mat)), mask), tol)
    full = _assemble_product(rp, r0, rm, r1, r2)  # decompos_product
    closed = _spectral_product(z, r1, r2, "raw", lambda: (rp_closed, r0_closed, rm_closed))
    _record(records, "product-full", {"z": cnum(z)},
            masked_max_abs(f * closed.mat - full.mat, mask), tol)


def _suite_coincidence(args, qp, rng, records, tol):
    if not qp.is_root:
        raise ConfigError("the coincidence suite compares root-of-unity forms")
    r1, r2 = _vermas(args, qp, rng, [2 * qp.N, 2 * qp.N])
    diff = r_verma_direct(r1, r2).mat
    diff -= r_reshetikhin_product(r1, r2).mat  # in place: one D x D buffer fewer
    _record(records, "coincidence", {"depths": [r1.dim, r2.dim]},
            float(np.max(np.abs(diff))), tol)


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
    tol = args.tol
    qp = _qparam(args)
    if not (tol > 0) or math.isinf(tol):
        raise ConfigError("tolerance must be positive and finite")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
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
        "qparam": {"nprime": qp.nprime, "q": cnum(qp.q)},
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
        lam1 = complex(l1, args.lambda_imag)
        parent = None  # kept columns of the row's parent R(z), built at its first point
        for k, a1 in enumerate(a1s, start=1):
            a2 = on_curve_partner(a1, lam1, lam2, qp)
            sc1, sc2 = semicyclic(a1, lam1, qp), semicyclic(a2, lam2, qp)
            r1, r2 = curve_residual(CurveSpec(z, lam1, lam2, a1, a2, N=qp.N), qp)
            if parent is None:
                parent = _parent_spectral(z, lam1, lam2, qp)
            R = _fold(z, parent, sc1, sc2)
            if k == len(a1s):
                parent = None  # not held through the row's last solve
            resid = affine_intertwine_residual(z, sc1, sc2, R=R)
            _, dim = solve_intertwiner(sc1, sc2, z)
            lines.append(
                f"{qp.nprime},{lam1.real:.12g}{lam1.imag:+.12g}j,"
                f"{lam2.real:.12g}{lam2.imag:+.12g}j,"
                f"{a1:.12g},{a2.real:.12g}{a2.imag:+.12g}j,"
                f"{z.real:.12g}{z.imag:+.12g}j,"
                f"{r1:.6e},{r2:.6e},{resid:.6e},{dim}"
            )
    _write("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with the same one-line JSON diagnostic as any other
    configuration error (subparsers inherit the class)."""

    def error(self, message):
        self.exit(2, json.dumps({"error": f"{self.prog}: {message}", "code": 2}) + "\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
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
    weight = ("weight of V%d as 're' or 're,im'; at odd N' the default 1 gives K^N = 1, so "
              "--kind semicyclic needs another weight (else exit 2, or exit 3 where "
              "--alpha2 is given and R(z) has a pole, which is met first)")
    sp.add_argument("--lambda1", default="1", help=weight % 1)
    sp.add_argument("--lambda2", default="1", help=weight % 2)
    sp.add_argument("--depths", default="3,3")
    sp.add_argument("--alpha1", default="0")
    sp.add_argument("--alpha2", default=None)
    sp.add_argument("--z", default="1", help="spectral parameter(s): 're,im;...' or 'roots:N'")
    sp.add_argument("--cartan", choices=CARTAN_MODES, default="normalized",
                    help="Cartan weight tail of the spectral R-matrix")
    sp.set_defaults(func=cmd_rmatrix)

    sp = sub.add_parser("verify", help="run a residual suite")
    common(sp)
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--tol", type=float, default=1e-9, help="residual tolerance (default 1e-9)")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RefusedInput as exc:  # every refusal of input, whatever module raised it
        diag = {"error": str(exc), "code": exc.code}
        if exc.z is not None:
            diag["z"] = cnum(exc.z)
        if exc.weight_pair is not None:
            diag["weight_pair"] = list(exc.weight_pair)
    sys.stderr.write(json.dumps(diag) + "\n")
    return diag["code"]


if __name__ == "__main__":
    sys.exit(main())
