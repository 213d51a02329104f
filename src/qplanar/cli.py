"""Batch front-end: sweeps, verification suites, and plot-ready tables.

Exit codes: 0 success, 1 verification or accuracy failure (e.g. a non-finite
emission or sampler weight), 2 usage/config error.
Output tables are byte-stable for fixed inputs and seed: floats are
formatted with a fixed %.12e and rows are emitted in deterministic order
(omega-major, then k, then polarization).  Wherever a command takes a
`side`, it is an outer region index: 0 or n.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from .commutators import assembled_out, bosonic, bosonize, commutator_set, grazing, unitarity_residual
from .constants import C_LIGHT, EV, HBAR, n0_scale
from .errors import ConfigError, QPlanarError, RegimeError, UsageError
from .greens import verify_green_identity
from .iorel import phi_at_front
from .modes import Regime, make_context, regime
from .rhokernels import GaussianWindow, KERNEL_KINDS, kernel_radial
from .sampler import sample_emission
from .scatter import scatter_set
from .stack import Stack, load_stack
from .thermal import bose, emission_w, kirchhoff_residual

SCHEMA_VERSION = 1

_COMP_NAMES = [a + b for a in "xyz" for b in "xyz"]


_FLOAT = "%.12e"   # every float cell; `_FLOAT % x` is byte-identical to f"{x:.12e}"
_CELL = 20         # bytes per cell, as many as the widest, "-d.dddddddddddde-ddd", has
_PAD = b"\xff"     # stands in for an absent sign or third exponent digit; UTF-8 never holds it

# Cells per engine call: 10 per mode, region and polarization (a `coeffs` row has 10 per
# layer) and 9 per mode and 3x3 block of the Green identity's closed form.
_CHUNK_CELLS = 1 << 16


def _fmt(x: float) -> str:
    return _FLOAT % x


def _parse_scalar(text: str, omega=None):
    """One numeric token with an optional unit suffix: a float, or for `w` and `deg` an array
    of one value per entry of the frequency array `omega`.

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


def _parse_grid(spec: str, omega=None) -> np.ndarray:
    """`start:stop:num` linspace or comma-separated values, unit suffixes allowed, of shape
    omega.shape + (num,) for an array of frequencies `omega` (a range is the linspace at each
    omega, bit for bit, unless its step is zero at some omega only), or (num,) without one."""
    shape = np.shape(omega)   # () for None
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be start:stop:num, got {spec!r}")
        a, b = _parse_scalar(parts[0], omega), _parse_scalar(parts[1], omega)
        try:
            num = int(parts[2])
        except ValueError as exc:
            raise UsageError(f"grid count must be an integer, got {parts[2]!r}") from exc
        if num < 1:
            raise UsageError("grid count must be >= 1")
        return np.linspace(np.broadcast_to(a, shape), np.broadcast_to(b, shape), num, axis=-1)
    values = [np.broadcast_to(_parse_scalar(tok, omega), shape)
              for tok in spec.split(",") if tok.strip()]
    return np.stack(values, -1) if values else np.empty(shape + (0,))


def _load_stack_file(path: str) -> Stack:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_stack(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read stack file {path}: {exc}") from exc


def _modes(stack: Stack, omega: np.ndarray, k: np.ndarray, pols: list[str]):
    """Every mode of the grid, at 10 cells per region and polarization."""
    return omega, k, pols, 10 * (stack.n + 1) * len(pols)


def _sweep(args, modes=_modes):
    """The stack, the polarizations and the contexts of the modes `modes(stack, omega, k,
    pols)` picks from the grid (k parsed once for every omega), each a run of consecutive
    modes of _CHUNK_CELLS cells at most (one mode at least).  An empty grid is a usage error."""
    stack = _load_stack_file(args.stack)
    omegas = _parse_grid(args.omega)
    ks = _parse_grid(args.k, omegas)
    omega, k = np.repeat(omegas, ks.shape[-1]), ks.ravel()
    pols = [p.strip() for p in args.pol.split(",") if p.strip()]
    for p in pols:
        if p not in ("s", "p"):
            raise UsageError(f"polarization must be s or p, got {p!r}")
    if not pols or not k.size:
        raise UsageError("empty sweep grid")
    omega, k, pols, cells = modes(stack, omega, k, pols)
    step = max(1, _CHUNK_CELLS // max(1, cells))
    return stack, pols, (make_context(stack, omega[i:i + step], k[i:i + step])
                         for i in range(0, k.size, step))


@functools.cache
def _cell_tables() -> tuple[np.ndarray, ...]:
    """Tables of `_rows`, built on first use.

    Per exponent e in [-296, 309], at index e modulo 606: 10**(12 - e), correctly rounded
    by `float`, the correctly rounded error 10**(12 - e) minus that float, and the last word
    of a cell, "+dd", "-dd", "+ddd" or "-ddd" padded to 4 bytes.  Then the other words: "d.d"
    or "-d.d" padded to 4 bytes at the two leading digits + 100 * sign, "0000".."9999", and
    "000e".."999e".
    """
    exps = [*range(310), *range(-296, 0)]
    pow10 = [float(f"1e{12 - e}") for e in exps]
    error = [(10 ** max(k, 0) * d - n * 10 ** max(-k, 0)) / (d * 10 ** max(-k, 0))
             for k, (n, d) in zip([12 - e for e in exps], map(float.as_integer_ratio, pow10))]
    words = (b"".join([(b"%+03d" % e).ljust(4, _PAD) for e in exps]),
             b"".join([b"%c%d.%d" % (s, i // 10, i % 10) for s in b"\xff-" for i in range(100)]),
             "".join([f"{i:04d}" for i in range(10000)]).encode(),   # str: half the peak of bytes
             "".join([f"{i:03d}e" for i in range(1000)]).encode())
    return np.array(pow10), np.array(error), *(np.frombuffer(w, "<u4") for w in words)


@functools.lru_cache(maxsize=64)   # a table command writes every chunk with one template
def _row_layout(template: str) -> tuple[int, bytes, tuple, int, int, tuple]:
    """Cells, bytes, cell offsets, repeat, period and cell groups of a row template.

    A row is the template with a slot of `_CELL` bytes in place of each cell, then a
    newline; `offsets` are the slots' first bytes, each at its literal's exact end.  The
    literals between cells repeat every `c` cells (c divides the cell count; c is the
    count if nothing repeats), so the cells do too, `period` bytes apart.  Within a
    repeat, the group (j, g, stride) is the cells j .. j + g - 1, `stride` bytes apart,
    so one group of every row and repeat is one strided view of the text.
    """
    if "%" in template.replace(_FLOAT, ""):
        raise ValueError(f"a row template is literal text and {_FLOAT} cells: {template!r}")
    pieces = template.encode(errors="surrogatepass").split(_FLOAT.encode())
    n, gaps = len(pieces) - 1, [len(p) for p in pieces[1:-1]]
    offsets = (*itertools.accumulate([_CELL + g for g in gaps], initial=len(pieces[0])),)[:n]
    c = next((c for c in range(1, n) if not n % c and gaps[c:] == gaps[:n - 1 - c]), n)
    groups, j = [], 0
    while j < c:
        g, stride = 1, offsets[min(j + 1, c - 1)] - offsets[j]
        while j + g < c and offsets[j + g] - offsets[j + g - 1] == stride:
            g += 1
        groups.append((j, g, stride))
        j += g
    period = offsets[c] - offsets[0] if c < n else 0
    return n, (_PAD * _CELL).join(pieces) + b"\n", offsets, c, period, tuple(groups)


def _rows(template: str, values: np.ndarray) -> str:
    """`template % tuple(row)` plus a newline per row of `values`, as one text, byte for byte.

    `template` is literal text (no `%`) around `_FLOAT` cells: one CSV row
    per line, or one JSON object per output row, so one call writes the rows
    of several groups interleaved; lone surrogates in it pass through
    unchanged, as they do through `%`.
    A cell x with 1e-290 <= |x| <= 1e300 takes e = floor(log10 |x|), fixed by
    one where needed, p = 10**(12 - e) correctly rounded, y = |x| * p in
    [1e12, 1e13) and d = rint(y).  The exact remainder |x| * 10**(12 - e) - d
    is within 2.3e-3 of y - d, so d is the correctly rounded significand unless
    |y - d| >= 0.495.  There the remainder is summed as (y - d) + (|x| * p - y)
    + |x| * (10**(12 - e) - p): Dekker's error-free product on a bit-mask split
    (no overflow) and the error table, within 1e-10, and d moves by one past
    +-0.5.  The 13 digits of d are split in integers.  A cell is five `<u4`
    words, gathers from `_cell_tables`: "-d.d" (or a pad for the sign), two
    of four digits, "ddde" and "+dd" (or a pad after a two-digit exponent);
    +0.0 and -0.0 are written the same way.  Each group of `_row_layout`
    takes one word in one strided copy, and the pads are deleted at the end.
    All other cells (within 1e-9 of a tie, NaN, inf, extreme magnitudes) go
    through `%`, padded to `_CELL` bytes.  Every float temporary is freed
    before the text is allocated.
    """
    n, row, offsets, c, period, groups = _row_layout(template)
    x = np.asarray(values, dtype=float).reshape(len(values), n)
    m = len(x)
    x = x.reshape(-1)
    pow10, pow10_error, exp_word, lead, digits, digits_e = _cell_tables()
    a = np.abs(x)
    fast = np.greater_equal(a, 1e-290)
    mask = np.less_equal(a, 1e300)
    np.logical_and(fast, mask, out=fast)
    slow = zero = np.empty(0, np.intp)
    if not fast.all():
        special = np.flatnonzero(np.logical_not(fast, out=fast))
        a[special] = 1.0   # e = 0 and the digits of 1e12 until `%` overwrites them
        is_zero = x[special] == 0.0
        zero, slow = special[is_zero], special[~is_zero]
    t = np.log10(a)
    e = np.floor(t, out=t).astype(np.intp)
    y = np.multiply(a, np.take(pow10, e, out=t, mode="wrap"), out=t)
    if not (y.min(initial=1e12) >= 1e12 and y.max(initial=1e12) < 1e13):   # log10 left e one off
        e += y >= 1e13
        e -= y < 1e12
        np.multiply(a, np.take(pow10, e, out=y, mode="wrap"), out=y)
        off = np.flatnonzero((y < 1e12) | (y >= 1e13))   # a hair below a power of ten
        y[off], slow = 1e12, np.concatenate([slow, off])
    d = np.rint(y)
    r = np.abs(np.subtract(y, d, out=y), out=y)
    near = np.flatnonzero(np.greater_equal(r, 0.495, out=mask))
    del t, y, r, fast, mask
    if near.size:
        v = np.stack([a[near], np.take(pow10, e[near], mode="wrap")])
        top = (v.view(np.uint64) & np.uint64(0xFFFF_FFFF_F800_0000)).view(float)   # 26 bits
        (ah, ph), (al, pl), dn = top, v - top, d[near]
        yn = v[0] * v[1]
        r = (yn - dn) + (((ah * ph - yn) + ah * pl + al * ph) + al * pl) \
            + v[0] * np.take(pow10_error, e[near], mode="wrap")
        d[near] = dn + (r > 0.5) - (r < -0.5)
        slow = np.concatenate([slow, near[np.abs(np.abs(r) - 0.5) < 1e-9]])
    del a
    d[zero] = 0.0   # +/-0.0, with e = 0
    if d.max(initial=0.0) == 1e13:   # 9.9999999999996e(e) rounds to 1.000000000000e(e+1)
        carry = np.flatnonzero(d == 1e13)
        d[carry] = 1e12
        e[carry] += 1

    words = np.empty((5, x.size), np.uint32)
    np.take(exp_word, e, out=words[4], mode="wrap")
    q = d.astype(np.int64)
    del d, e
    head, t = np.empty_like(q), np.empty_like(q)
    for k, base, table in ((3, 1000, digits_e), (2, 10000, digits), (1, 10000, digits)):
        np.floor_divide(q, base, out=head)
        np.subtract(q, np.multiply(head, base, out=t), out=t)
        np.take(table, t, out=words[k], mode="wrap")
        q, head = head, q
    np.add(q, np.multiply(np.signbit(x), 100, out=t), out=t)   # the two leading digits
    np.take(lead, t, out=words[0], mode="wrap")
    del q, t, head

    text = bytearray(m * len(row))
    buf = np.frombuffer(text, np.uint8).reshape(m, len(row))
    buf[:] = np.frombuffer(row, np.uint8)
    reps = n // c if c else 0
    for j, g, stride in groups if m else ():
        for k, w in enumerate(words):
            view = np.ndarray((m, reps, g), "<u4", text, offsets[j] + 4 * k, (len(row), period, stride))
            np.copyto(view, w.reshape(m, reps, c)[:, :, j:j + g])
    del words
    if slow.size:
        cells = b"".join((_FLOAT % v).encode().ljust(_CELL, _PAD) for v in x[slow].tolist())
        at = slow // n * len(row) + np.array(offsets)[slow % n]
        buf.flat[at[:, None] + np.arange(_CELL)] = np.frombuffer(cells, np.uint8).reshape(-1, _CELL)
    del buf
    out = text.translate(None, _PAD)
    del text
    return out.decode(errors="surrogatepass")


def _table(args, schema: str, header: list[str], template: str, cells, status) -> int:
    """Write the `template` rows of each array of `cells` (one per engine chunk) to `--out`
    or stdout, all made before the first write and never joined, and each nonzero count of
    `status` (filled as `cells` runs) as `name=N` to stderr; return 0.  A table without rows
    is a usage error.

    JSON holds the bytes of `json.dumps({"schema": ..., "rows": [...]}, indent=2)` and a
    newline, each row a `header` -> cell string object.  `_rows` writes its objects from a
    template too: one object per line of `template`, each followed by ",", the literals
    quoted by `json.dumps` and every float cell in quotes.  The last row drops its ","."""
    name = f"qplanar-{schema}-v{SCHEMA_VERSION}"
    if args.format == "json":   # no cell or literal holds a comma
        def fields(line):
            return ",\n".join(f"      {json.dumps(key)}: "
                               + (f'"{cell}"' if cell == _FLOAT else json.dumps(cell))
                               for key, cell in zip(header, line.split(",")))
        template = "\n".join("    {\n" + fields(line) + "\n    }," for line in template.split("\n"))
    blocks = [_rows(template, c) for c in cells]
    if not any(blocks):   # a chunk whose modes were all skipped gives ""
        raise UsageError(f"{schema}: no grid point satisfies its preconditions")
    sys.stderr.writelines(f"{name}={count}\n" for name, count in status.items() if count)
    if args.format == "csv":
        text = [f"# schema={name}\n{','.join(header)}\n", *blocks]
    else:
        last = max(i for i, b in enumerate(blocks) if b)
        blocks[last] = blocks[last][:-2]   # the last row's ",\n"
        text = [f'{{\n  "schema": {json.dumps(name)},\n  "rows": [\n', *blocks, "\n  ]\n}\n"]
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file {args.out}: {exc}") from exc
    else:
        sys.stdout.writelines(text)
    return 0


def cmd_coeffs(args) -> int:
    stack, pols, contexts = _sweep(args)
    n_layers = len(stack.layers)

    # Per k: r_0n, r_n0, t_0n, t_n0, then per layer D, phi_0+, phi_0-, phi_n+, phi_n-.
    layer = ("D", "phi_0p", "phi_0m", "phi_np", "phi_nm")
    names = ["r_0n", "r_n0", "t_0n", "t_n0", *(f"{x}_L{j}" for j in range(1, n_layers + 1) for x in layer)]
    header = ["omega_rad_s", "k_inv_m", "pol", *(f"{x}_{part}" for x in names for part in ("re", "im"))]
    floats = ",".join([_FLOAT] * (len(header) - 3))
    template = "\n".join(f"{_FLOAT},{_FLOAT},{q},{floats}" for q in pols)

    status = {"d_floor": 0}

    def fill(ctx):
        m = ctx.k.size
        cells = np.empty((m, len(pols), len(header) - 1))   # omega, k, then the floats
        cells[..., 0], cells[..., 1] = ctx.omega[:, None], ctx.k[:, None]
        for iq, q in enumerate(pols):
            ss = scatter_set(ctx, q)
            status["d_floor"] += int(np.count_nonzero(ss.d_floor.any(axis=0)))
            layers = np.concatenate([ss.d_fp[1:-1, :, None], phi_at_front(ss).reshape(n_layers, m, 4)], -1)
            z = np.concatenate([np.stack([ss.r_0n, ss.r_n0, ss.t_0n, ss.t_n0], -1),
                                layers.transpose(1, 0, 2).reshape(m, -1)], 1)
            cells[:, iq, 2:] = z.view(float)
        return cells

    return _table(args, "coeffs", header, template, map(fill, contexts), status)


def _vacuum_propagating(ctx) -> np.ndarray:
    return (ctx.eps[0] == 1.0) & (ctx.eps[-1] == 1.0) & (regime(ctx, 0) == Regime.PROPAGATING)


def _commutator_points(ctx, q: str, ok):
    """Mask, context and commutator set of the k of `ok` off the (singular) branch points."""
    ok = ok & ~grazing(ctx)
    ctx = ctx.select(ok)
    return ok, ctx, commutator_set(ctx, q)


# Per-k residuals of the verification suites: (mask of the k inside the
# suite's preconditions, residual of each of those k).  Points outside the
# preconditions are skipped, not failed.

def _commutators_residual(ctx, q: str, args):
    ok, ctx, cs = _commutator_points(ctx, q, True)
    scales = [abs(cs.c_in), abs(np.diagonal(cs.c_out, 0, -2, -1)), 1.0 / abs(ctx.beta[[0, -1]].T)]
    scale = np.max(np.concatenate(scales, -1), axis=-1)
    return ok, np.max(np.abs(assembled_out(cs) - cs.c_out), axis=(-2, -1)) / scale


def _unitarity_residual(ctx, q: str, args):
    ok, sub, cs = _commutator_points(ctx, q, _vacuum_propagating(ctx))
    if not bosonic(sub, cs).all():   # outside bosonize's floors: skipped as well
        ok[ok] = bosonic(sub, cs)
        ok, sub, cs = _commutator_points(ctx, q, ok)
    return ok, unitarity_residual(bosonize(sub, cs))


def _kirchhoff_residual(ctx, q: str, args):
    ok = _vacuum_propagating(ctx) & ~grazing(ctx)
    sub = ctx.select(ok)
    return ok, kirchhoff_residual(sub, q, args.temp, [0, sub.n]).max(axis=0)


def _green_residual(ctx, q: str, args):
    try:
        res = verify_green_identity(ctx).residual
    except RegimeError as exc:
        raise UsageError(str(exc)) from exc
    return np.ones(ctx.k.shape, dtype=bool), res


# suite -> (per-k residuals, default tolerance)
_SUITES = {
    "commutators": (_commutators_residual, 1e-10),
    "unitarity": (_unitarity_residual, 1e-10),
    "kirchhoff": (_kirchhoff_residual, 1e-8),
    "green": (_green_residual, 1e-10),
}


def cmd_verify(args) -> int:
    def distinct(stack, omega, k, pols):
        # One check of both polarizations per distinct (omega, k); 4 3x3 blocks per panel.
        omega, k = np.array(list(dict.fromkeys(zip(omega.tolist(), k.tolist())))).T
        return omega, k, ["-"], 36 * (stack.n + 3)

    if args.suite == "green" and args.nodes < 2:   # `--nodes` is read by nothing else
        raise UsageError(f"need at least 2 quadrature nodes per layer, got {args.nodes}")
    _, pols, contexts = _sweep(args, distinct if args.suite == "green" else _modes)
    residual, default_tol = _SUITES[args.suite]
    tol = args.tol if args.tol is not None else default_tol
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"--tol must be finite and >= 0, got {tol}")
    points, residuals, n_skip = [], [], 0
    for ctx in contexts:
        done = np.zeros((ctx.k.size, len(pols)), dtype=bool)
        res = np.zeros(done.shape)
        for iq, q in enumerate(pols):
            ok, r = residual(ctx, q, args)
            done[:, iq] = ok
            res[ok, iq] = r
        n_skip += int(np.count_nonzero(~done))
        i, iq = np.nonzero(done)
        points += zip(ctx.omega[i], ctx.k[i], iq)
        residuals += res[done].tolist()
    if not points:
        raise UsageError(f"suite {args.suite}: no grid point satisfies its preconditions")
    # argmax picks the first NaN if there is one: a non-finite residual fails the run.
    i = int(np.argmax(residuals))
    worst = residuals[i]
    status = "PASS" if np.isfinite(worst) and worst <= tol else "FAIL"
    print(f"suite={args.suite} points={len(points)} skipped={n_skip} "
          f"max_residual={worst:.6e} tol={tol:.1e} status={status}")
    if status == "FAIL":
        om, kk, iq = points[i]
        print(f"worst omega_rad_s={_fmt(om)} k_inv_m={_fmt(kk)} pol={pols[iq]}")
    return 0 if status == "PASS" else 1


def _off_grazing(ctx, pols, status):
    """The modes of `ctx` off the grazing modes, where the noise couplings are singular (an exact
    pole at a lossless layer's branch point); the points left out are counted in `skipped`."""
    ok = ~grazing(ctx)
    status["skipped"] += int(np.count_nonzero(~ok)) * len(pols)
    return ctx.select(ok)


def cmd_thermal(args) -> int:
    stack, pols, contexts = _sweep(args)
    header = ["omega_rad_s", "k_inv_m", "pol", "side", "temp_K", "occupation",
              "w_n0_normalized", "n0_si"]
    sides = (0, stack.n)
    template = "\n".join(f"{_FLOAT},{_FLOAT},{q},{side},{_FLOAT},{_FLOAT},{_FLOAT},{_FLOAT}"
                         for q in pols for side in sides)
    status = {"skipped": 0}

    def fill(ctx):
        sub = _off_grazing(ctx, pols, status)
        cells = np.empty((sub.k.size, len(pols), len(sides), 6))   # the float columns of header
        per_mode = np.stack([sub.omega, sub.k, bose(sub.omega, args.temp), n0_scale(sub.omega)], -1)
        cells[..., [0, 1, 3, 5]], cells[..., 2] = per_mode[:, None, None], args.temp
        for iq, q in enumerate(pols):
            cells[:, iq, :, 4] = emission_w(sub, q, args.temp, sides).T
        return cells

    return _table(args, "thermal", header, template, map(fill, contexts), status)


def cmd_sample(args) -> int:
    _, pols, contexts = _sweep(args)
    header = ["omega_rad_s", "k_inv_m", "pol", "side", "temp_K", "w_est_n0",
              "stderr_n0", "realizations", "seed"]
    template = "\n".join(f"{_FLOAT},{_FLOAT},{q},{args.side},{_FLOAT},{_FLOAT},{_FLOAT},"
                         f"{args.realizations},{args.seed}" for q in pols)
    status = {"skipped": 0}

    def fill(ctx):
        sub = _off_grazing(ctx, pols, status)
        cells = np.empty((sub.k.size, len(pols), 5))   # omega, k, temp, w, stderr
        cells[..., 0], cells[..., 1], cells[..., 2] = sub.omega[:, None], sub.k[:, None], args.temp
        est = sample_emission(sub, pols, args.temp, args.side, realizations=args.realizations,
                              seed=args.seed)
        cells[..., 3:] = np.stack(est, -1).swapaxes(0, 1)
        return cells

    return _table(args, "sample", header, template, map(fill, contexts), status)


def cmd_kernels(args) -> int:
    if args.rho_points < 1:
        raise UsageError(f"--rho-points must be >= 1, got {args.rho_points}")
    stack = _load_stack_file(args.stack)
    header = ["kind", "omega_rad_s", "k_w_inv_m", "rho_m", "comp", "re", "im"]
    template = "\n".join(f"{args.kind},{_FLOAT},{_FLOAT},{_FLOAT},{comp},{_FLOAT},{_FLOAT}"
                         for comp in _COMP_NAMES)

    def fill(om, k_w):
        window = GaussianWindow(k_w=k_w)
        rho = np.linspace(0.0, args.rho_max_over_kw / k_w, args.rho_points)
        field = kernel_radial(stack, om, args.kind, window, rho, layer=args.layer)
        comps = field.tensor.reshape(field.rho.size, 9)
        cells = np.empty((field.rho.size, 9, 5))   # omega, k_w, rho, re, im
        cells[..., 0], cells[..., 1], cells[..., 2] = om, k_w, field.rho[:, None]
        cells[..., 3], cells[..., 4] = comps.real, comps.imag
        return cells

    omegas = _parse_grid(args.omega)
    k_ws = np.broadcast_to(_parse_scalar(args.kw, omegas), omegas.shape)
    return _table(args, "kernels", header, template, map(fill, omegas.tolist(), k_ws.tolist()), {})


@functools.cache   # one parser per process: `parse_args` leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qplanar",
        description="Quantized-field input-output relations at planar multilayers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, need_k=True, table=True, temp=True):
        p.add_argument("--stack", required=True, help="stack config file (JSON)")
        p.add_argument("--omega", required=True,
                       help="frequency grid: start:stop:num or comma list; rad/s, eV, um")
        if need_k:
            p.add_argument("--k", default="0",
                           help="transverse wavenumber grid; 1/m, w (omega/c units), deg")
            p.add_argument("--pol", default="s,p", help="polarizations, e.g. s,p")
        if need_k and temp:
            p.add_argument("--temp", type=float, default=300.0, help="temperature in K")
        if table:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--out", default=None, help="output file (default stdout)")

    def suite_options(p):
        p.add_argument("--tol", type=float, default=None, help="residual tolerance (default per suite)")
        p.add_argument("--nodes", type=int, default=200,
                       help="ignored (the green identity is exact); kept while the benchmark passes it")

    p = sub.add_parser("coeffs", help="export scattering and noise-coupling coefficients")
    common(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="run an identity-verification suite over the grid")
    common(p, table=False)
    p.add_argument("--suite", choices=tuple(_SUITES), required=True)
    suite_options(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("thermal", help="thermal emission spectra")
    common(p)
    p.set_defaults(func=cmd_thermal)

    p = sub.add_parser("sample", help="Monte Carlo emission estimates")
    common(p)
    p.add_argument("--realizations", type=int, default=20000)
    p.add_argument("--seed", type=int, default=12345)
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
    common(p, table=False, temp=False)
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
