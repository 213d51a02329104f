"""Batch front-end: sweeps, verification suites, and plot-ready tables.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
Output tables are byte-stable for fixed inputs and seed: floats are
formatted with a fixed %.12e and rows are emitted in deterministic order
(omega-major, then k, then polarization).  Wherever a command takes a
`side`, it is an outer region index: 0 or n.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .commutators import assembled_out, commutator_set, unitarity_residual
from .constants import C_LIGHT, EV, HBAR, n0_scale
from .errors import ConfigError, QPlanarError, RegimeError, UsageError
from .greens import verify_green_identity
from .iorel import io_matrix
from .modes import Regime, make_context, regime
from .rhokernels import GaussianWindow, KERNEL_KINDS, kernel_radial
from .sampler import SamplePlan, sample_emission
from .scatter import scatter_set
from .stack import Stack, load_stack
from .thermal import bose, emission_w, kirchhoff_residual

SCHEMA_VERSION = 1

_COMP_NAMES = [a + b for a in "xyz" for b in "xyz"]


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _parse_scalar(text: str, omega: float | None = None) -> float:
    """One numeric token with an optional unit suffix.

    Frequencies: plain rad/s, `eV`, or `um` (vacuum wavelength).
    Transverse wavenumbers: plain 1/m, `w` (multiples of omega/c), or
    `deg` (propagating angle of incidence; needs omega).
    """
    t = text.strip()
    try:
        if t.endswith("eV"):
            return float(t[:-2]) * EV / HBAR
        if t.endswith("um"):
            lam = float(t[:-2]) * 1e-6
            if lam <= 0:
                raise UsageError(f"wavelength must be positive: {text!r}")
            return 2.0 * math.pi * C_LIGHT / lam
        if t.endswith("deg"):
            if omega is None:
                raise UsageError("angle units need a frequency context")
            ang = math.radians(float(t[:-3]))
            if not 0.0 <= ang < math.pi / 2:
                raise UsageError(f"angle must be in [0, 90): {text!r}")
            return math.sin(ang) * omega / C_LIGHT
        if t.endswith("w"):
            if omega is None:
                raise UsageError("omega/c units need a frequency context")
            return float(t[:-1]) * omega / C_LIGHT
        return float(t)
    except ValueError as exc:
        raise UsageError(f"malformed numeric token {text!r}") from exc


def _parse_grid(spec: str, omega: float | None = None) -> list[float]:
    """`start:stop:num` linspace or comma-separated values, unit suffixes allowed."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be start:stop:num, got {spec!r}")
        a = _parse_scalar(parts[0], omega)
        b = _parse_scalar(parts[1], omega)
        try:
            num = int(parts[2])
        except ValueError as exc:
            raise UsageError(f"grid count must be an integer, got {parts[2]!r}") from exc
        if num < 1:
            raise UsageError("grid count must be >= 1")
        return list(np.linspace(a, b, num))
    return [_parse_scalar(tok, omega) for tok in spec.split(",") if tok.strip()]


def _load_stack_file(path: str) -> Stack:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_stack(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read stack file {path}: {exc}") from exc


def _pols(arg: str) -> list[str]:
    pols = [p.strip() for p in arg.split(",") if p.strip()]
    for p in pols:
        if p not in ("s", "p"):
            raise UsageError(f"polarization must be s or p, got {p!r}")
    return pols


def _grid_points(args) -> list[tuple[float, float, str]]:
    omegas = _parse_grid(args.omega)
    points = []
    for om in omegas:
        ks = _parse_grid(args.k, omega=om)
        for k in ks:
            for q in _pols(args.pol):
                points.append((om, k, q))
    if not points:
        raise UsageError("empty sweep grid")
    return points


def _emit(args, header: list[str], rows: list[list[str]], schema: str):
    if args.format == "csv":
        lines = [f"# schema=qplanar-{schema}-v{SCHEMA_VERSION}"]
        lines.append(",".join(header))
        lines.extend(",".join(row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "schema": f"qplanar-{schema}-v{SCHEMA_VERSION}",
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_coeffs(args) -> int:
    stack = _load_stack_file(args.stack)
    points = _grid_points(args)
    n_layers = len(stack.layers)

    header = ["omega_rad_s", "k_inv_m", "pol",
              "r_0n_re", "r_0n_im", "r_n0_re", "r_n0_im",
              "t_0n_re", "t_0n_im", "t_n0_re", "t_n0_im"]
    for j in range(1, n_layers + 1):
        header += [f"D_L{j}_re", f"D_L{j}_im",
                   f"phi_0p_L{j}_re", f"phi_0p_L{j}_im", f"phi_0m_L{j}_re", f"phi_0m_L{j}_im",
                   f"phi_np_L{j}_re", f"phi_np_L{j}_im", f"phi_nm_L{j}_re", f"phi_nm_L{j}_im"]

    def one(point):
        om, k, q = point
        ctx = make_context(stack, om, k)
        ss = scatter_set(ctx, q)
        zs = [ss.r_0n, ss.r_n0, ss.t_0n, ss.t_n0]
        for d, phi in zip(ss.d_fp[1:-1], io_matrix(ss).phi):
            zs += [d, *phi.ravel()]  # D, phi_0+, phi_0-, phi_n+, phi_n-
        return [_fmt(om), _fmt(k), q] + [_fmt(x) for z in zs for x in (z.real, z.imag)]

    rows = [one(point) for point in points]
    _emit(args, header, rows, "coeffs")
    return 0


def _require_vacuum_propagating(ctx) -> None:
    if not (ctx.eps[0] == 1.0 and ctx.eps[-1] == 1.0 and regime(ctx, 0) is Regime.PROPAGATING):
        raise RegimeError("suite needs vacuum outer media and a propagating mode")


# Per-point residuals of the verification suites.  A RegimeError marks a
# point outside the suite's preconditions: it is skipped, not failed.

def _commutators_residual(ctx, q: str, args) -> float:
    cs = commutator_set(ctx, q)
    scale = max(abs(cs.c_in0), abs(cs.c_inN), abs(cs.c_out0), abs(cs.c_outN),
                1.0 / abs(ctx.beta[0]), 1.0 / abs(ctx.beta[-1]))
    closed = np.array([[cs.c_out0, cs.cross], [cs.cross.conjugate(), cs.c_outN]])
    return float(np.max(np.abs(assembled_out(cs) - closed))) / scale


def _unitarity_residual(ctx, q: str, args) -> float:
    _require_vacuum_propagating(ctx)
    return unitarity_residual(commutator_set(ctx, q))


def _kirchhoff_residual(ctx, q: str, args) -> float:
    _require_vacuum_propagating(ctx)  # before commutator_set: skipped points cost nothing
    cs = commutator_set(ctx, q)
    return max(kirchhoff_residual(ctx, q, args.temp, side, cs=cs)
               for side in (0, ctx.n))


def _green_residual(ctx, q: str, args) -> float:
    try:
        res = verify_green_identity(ctx, j=0, jp=0, z=0.0, zp=0.0, nodes_per_layer=args.nodes)
    except RegimeError as exc:
        raise UsageError(str(exc)) from exc
    return res.residual


# suite -> (per-point residual, default tolerance)
_SUITES = {
    "commutators": (_commutators_residual, 1e-10),
    "unitarity": (_unitarity_residual, 1e-10),
    "kirchhoff": (_kirchhoff_residual, 1e-8),
    "green": (_green_residual, 1e-6),
}


def _skipping_regime_errors(command: str, stack: Stack, points, one) -> tuple[list, int]:
    """[(point, one(ctx, q))] over the grid, skipping points that raise RegimeError.

    A RegimeError marks a point outside the command's preconditions (e.g. k
    on a light line); a grid with no point left is a usage error.
    """
    done, n_skip = [], 0
    for om, k, q in points:
        try:
            done.append(((om, k, q), one(make_context(stack, om, k), q)))
        except RegimeError:
            n_skip += 1
    if not done:
        raise UsageError(f"{command}: no grid point satisfies its preconditions")
    return done, n_skip


def cmd_verify(args) -> int:
    stack = _load_stack_file(args.stack)
    points = _grid_points(args)
    residual, default_tol = _SUITES[args.suite]
    tol = args.tol if args.tol is not None else default_tol
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"--tol must be finite and >= 0, got {tol}")
    if args.suite == "green":
        # The identity covers both polarizations: one check per (omega, k).
        points = list(dict.fromkeys((om, k, "-") for om, k, _q in points))
    done, n_skip = _skipping_regime_errors(f"suite {args.suite}", stack, points,
                                           lambda ctx, q: residual(ctx, q, args))
    worst = 0.0
    worst_pt = None
    for point, res in done:
        if res > worst:
            worst, worst_pt = res, point
    status = "PASS" if worst <= tol else "FAIL"
    print(f"suite={args.suite} points={len(done)} skipped={n_skip} "
          f"max_residual={worst:.6e} tol={tol:.1e} status={status}")
    if status == "FAIL" and worst_pt is not None:
        om, k, q = worst_pt
        print(f"worst omega_rad_s={_fmt(om)} k_inv_m={_fmt(k)} pol={q}")
    return 0 if status == "PASS" else 1


def cmd_thermal(args) -> int:
    stack = _load_stack_file(args.stack)
    points = _grid_points(args)
    header = ["omega_rad_s", "k_inv_m", "pol", "side", "temp_K", "occupation",
              "w_n0_normalized", "n0_si"]

    def one(ctx, q):
        cs = commutator_set(ctx, q)
        return [emission_w(ctx, q, args.temp, side, cs=cs) for side in (0, ctx.n)]

    done, n_skip = _skipping_regime_errors("thermal", stack, points, one)
    rows = [[_fmt(om), _fmt(k), q, str(side), _fmt(args.temp), _fmt(bose(om, args.temp)),
             _fmt(w), _fmt(n0_scale(om))]
            for (om, k, q), ws in done for side, w in zip((0, stack.n), ws)]
    if n_skip:
        print(f"skipped={n_skip}", file=sys.stderr)
    _emit(args, header, rows, "thermal")
    return 0


def cmd_sample(args) -> int:
    stack = _load_stack_file(args.stack)
    points = _grid_points(args)
    header = ["omega_rad_s", "k_inv_m", "pol", "side", "temp_K", "w_est_n0",
              "stderr_n0", "realizations", "seed"]
    rows = []
    for om, k, q in points:
        plan = SamplePlan(omega=om, k=k, q=q, temperature=args.temp,
                          nodes_per_layer=args.nodes, realizations=args.realizations,
                          seed=args.seed, side=args.side)
        est = sample_emission(plan, stack)
        rows.append([_fmt(om), _fmt(k), q, str(args.side), _fmt(args.temp),
                     _fmt(est.w), _fmt(est.stderr), str(est.realizations), str(args.seed)])
    _emit(args, header, rows, "sample")
    return 0


def cmd_kernels(args) -> int:
    if args.rho_points < 1:
        raise UsageError(f"--rho-points must be >= 1, got {args.rho_points}")
    stack = _load_stack_file(args.stack)
    omegas = _parse_grid(args.omega)
    header = ["kind", "omega_rad_s", "k_w_inv_m", "rho_m", "comp", "re", "im"]
    rows = []
    for om in omegas:
        k_w = _parse_scalar(args.kw, omega=om)
        window = GaussianWindow(k_w=k_w)
        rho = np.linspace(0.0, args.rho_max_over_kw / k_w, args.rho_points)
        field = kernel_radial(stack, om, args.kind, window, rho, layer=args.layer)
        for i, r in enumerate(field.rho):
            for ci, comp in enumerate(_COMP_NAMES):
                val = field.tensor[i, ci // 3, ci % 3]
                rows.append([args.kind, _fmt(om), _fmt(k_w), _fmt(float(r)), comp,
                             _fmt(val.real), _fmt(val.imag)])
    _emit(args, header, rows, "kernels")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qplanar",
        description="Quantized-field input-output relations at planar multilayers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, need_k=True):
        p.add_argument("--stack", required=True, help="stack config file (JSON)")
        p.add_argument("--omega", required=True,
                       help="frequency grid: start:stop:num or comma list; rad/s, eV, um")
        if need_k:
            p.add_argument("--k", default="0",
                           help="transverse wavenumber grid; 1/m, w (omega/c units), deg")
            p.add_argument("--pol", default="s,p", help="polarizations, e.g. s,p")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--seed", type=int, default=12345)
        p.add_argument("--temp", type=float, default=300.0, help="temperature in K")

    def suite_options(p):
        p.add_argument("--tol", type=float, default=None, help="residual tolerance (default per suite)")
        p.add_argument("--nodes", type=int, default=200, help="quadrature nodes per layer (green)")

    p = sub.add_parser("coeffs", help="export scattering and noise-coupling coefficients")
    common(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="run an identity-verification suite over the grid")
    common(p)
    p.add_argument("--suite", choices=tuple(_SUITES), required=True)
    suite_options(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("thermal", help="thermal emission spectra")
    common(p)
    p.set_defaults(func=cmd_thermal)

    p = sub.add_parser("sample", help="Monte Carlo emission estimates")
    common(p)
    p.add_argument("--realizations", type=int, default=20000)
    p.add_argument("--nodes", type=int, default=64, help="z-nodes per layer")
    p.add_argument("--side", type=int, default=0,
                   help="outer region the emission leaves through: 0 or n (the last region)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("kernels", help="windowed coordinate-space kernels")
    common(p, need_k=False)
    p.add_argument("--kind", choices=KERNEL_KINDS, default="R0n")
    p.add_argument("--kw", required=True, help="window scale; 1/m or w (omega/c units)")
    p.add_argument("--layer", type=int, default=0, help="layer index for Phi kernels")
    p.add_argument("--rho-max-over-kw", type=float, default=12.0)
    p.add_argument("--rho-points", type=int, default=121)
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("green-check", help="alias of verify --suite green")
    common(p)
    suite_options(p)
    p.set_defaults(func=cmd_verify, suite="green")

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QPlanarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
