"""Uniform rectangular grid with staggered (face-based) first derivatives.

Interior nodes carry the unknowns; the homogeneous Dirichlet boundary is
implicit (ghost value 0 one node outside each edge).  Gradients live on the
faces between nodes, divergences back at the nodes:

        |       |       |
    --- x --gx--x--gx-- x ---        x  : interior nodes (nx per row)
        |       |       |            gx : x-faces, nx+1 per row
        gy      gy      gy           gy : y-faces, ny+1 per column
        |       |       |

With zero ghosts the pair (gradient, -divergence) is an exact discrete
adjoint, so the Green identity  sum u * div F = -sum F . grad u  holds to
roundoff for every face field F.  All quadrature is the midpoint rule
hx*hy*sum over interior nodes.  Two axis kernels, _ghost_difference and
_face_mean, make every node-to-face transfer; the weighted Laplacian and its
face weights take stacks of node matrices, every other operator one field.

Node storage is row-major with x fastest: values.reshape(ny, nx)[j, i] is
the node at (x0 + (i+1)*hx, y0 + (j+1)*hy).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

BATCH_NODES = 8_192   # most node values per operand of one batched kernel call: 64 KiB


def _per_batch(nodes: int) -> int:
    """How many items of `nodes` values each one batch holds: at least one."""
    return max(1, BATCH_NODES // nodes)


class KirchlabError(Exception):
    """A computation that failed on input the library accepted; input it cannot
    accept raises ValueError."""


@dataclass(frozen=True)
class Grid:
    """nx-by-ny interior nodes over the rectangle [x0, x0+Lx] x [y0, y0+Ly]."""

    nx: int
    ny: int
    x0: float = 0.0
    y0: float = 0.0
    hx: float = 0.0
    hy: float = 0.0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid needs at least one interior node per axis, got {self.nx}x{self.ny}")
        if not (0.0 < self.hx < math.inf and 0.0 < self.hy < math.inf):
            raise ValueError(f"mesh widths must be positive and finite, got hx={self.hx}, "
                             f"hy={self.hy}")
        if not (math.isfinite(self.x0) and math.isfinite(self.y0)):
            raise ValueError(f"grid origin must be finite, got x0={self.x0}, y0={self.y0}")
        # the far edges bound every node coordinate, so node_coords cannot overflow
        for name, edge in (("x0 + (nx+1)*hx", self.x0 + (self.nx + 1) * self.hx),
                           ("y0 + (ny+1)*hy", self.y0 + (self.ny + 1) * self.hy)):
            if not math.isfinite(edge):
                raise ValueError(f"grid far edge {name} = {edge} is not a finite double")

    @staticmethod
    def over_rectangle(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0,
                       x0: float = 0.0, y0: float = 0.0) -> "Grid":
        """Grid with nx x ny interior nodes on a rectangle of side lengths lx, ly."""
        # max(): __post_init__ refuses nx, ny < 1 before a width of nx = -1 matters
        return Grid(nx, ny, x0, y0, lx / max(nx + 1, 1), ly / max(ny + 1, 1))

    @property
    def lx(self) -> float:
        return (self.nx + 1) * self.hx

    @property
    def ly(self) -> float:
        return (self.ny + 1) * self.hy

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    def header(self) -> str:
        """'nx ny x0 y0 hx hy', 17 digits per float, as field files and JSON write it."""
        return f"{self.nx} {self.ny} {self.x0:.17g} {self.y0:.17g} {self.hx:.17g} {self.hy:.17g}"

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrids (X, Y) of interior node coordinates, each shaped (ny, nx)."""
        xs = self.x0 + self.hx * np.arange(1, self.nx + 1)
        ys = self.y0 + self.hy * np.arange(1, self.ny + 1)
        return np.meshgrid(xs, ys)


@dataclass
class ScalarField:
    """Real values on the interior nodes of a grid (flat, row-major, x fastest)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float).reshape(-1)
        if self.values.size != self.grid.n_nodes:
            raise ValueError(
                f"field length {self.values.size} does not match grid with {self.grid.n_nodes} nodes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @staticmethod
    def zeros(grid: Grid) -> "ScalarField":
        return ScalarField(grid, np.zeros(grid.n_nodes))

    @staticmethod
    def full(grid: Grid, value: float) -> "ScalarField":
        return ScalarField(grid, np.full(grid.n_nodes, float(value)))

    @property
    def mat(self) -> np.ndarray:
        """(ny, nx) view of the values, rows indexed by y."""
        return self.values.reshape(self.grid.ny, self.grid.nx)


@dataclass
class FaceField:
    """Values on the faces between nodes: xfaces (ny, nx+1), yfaces (ny+1, nx)."""

    grid: Grid
    xfaces: np.ndarray
    yfaces: np.ndarray

    def __post_init__(self):
        self.xfaces = np.asarray(self.xfaces, dtype=float)
        self.yfaces = np.asarray(self.yfaces, dtype=float)
        g = self.grid
        if self.xfaces.shape != (g.ny, g.nx + 1) or self.yfaces.shape != (g.ny + 1, g.nx):
            raise ValueError(
                f"face arrays {self.xfaces.shape}, {self.yfaces.shape} do not match "
                f"grid {g.nx}x{g.ny}")
        if not (np.all(np.isfinite(self.xfaces)) and np.all(np.isfinite(self.yfaces))):
            raise ValueError("face field contains non-finite values")


def _ghost_difference(U: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Differences along axis of U against a zero slab at both ends: the bits of
    np.diff with prepend=0 and append=0, written slab by slab into one array,
    out when given (of U's shape but one longer along axis)."""
    axis %= U.ndim
    d = np.empty(U.shape[:axis] + (U.shape[axis] + 1,) + U.shape[axis + 1:]) if out is None else out
    D, V = d.swapaxes(axis, 0), U.swapaxes(axis, 0)
    D[0] = V[0]
    np.subtract(V[1:], V[:-1], out=D[1:-1])
    np.subtract(0.0, V[-1], out=D[-1])        # -V[-1] would turn +0.0 into -0.0
    return d


def gradient(u: ScalarField) -> FaceField:
    """Forward differences onto faces; boundary faces difference against ghost 0."""
    g, U = u.grid, u.mat
    return FaceField(g, _ghost_difference(U, 1) / g.hx, _ghost_difference(U, 0) / g.hy)


def divergence(F: FaceField) -> ScalarField:
    """Per-node flux balance (F.x_right - F.x_left)/hx + (F.y_top - F.y_bottom)/hy."""
    g = F.grid
    vals = (F.xfaces[:, 1:] - F.xfaces[:, :-1]) / g.hx \
        + (F.yfaces[1:, :] - F.yfaces[:-1, :]) / g.hy
    return ScalarField(g, vals.reshape(-1))


def laplacian(u: ScalarField) -> ScalarField:
    """Five-point Laplacian, identically divergence(gradient(u))."""
    return divergence(gradient(u))


def integrate(f: ScalarField) -> float:
    """Midpoint quadrature hx*hy*sum over interior nodes."""
    return f.grid.cell_area * float(f.values.sum())


def grad_norm_sq(u: ScalarField) -> float:
    """The nonlocal scalar: face-based discrete value of the integral of |grad u|^2.

    This is the single definition of the gradient energy of a field used
    throughout the package (Newton's nonlinear state, eigenfunction
    normalization); the fixed-point map gets the same energy of a frozen solve
    from the sine coefficients of its right-hand side.  Raises a ValueError
    when the energy does not fit in a double.
    """
    g, U = u.grid, u.mat
    dx, dy = _ghost_difference(U, 1), _ghost_difference(U, 0)
    with np.errstate(over="ignore"):
        dx /= g.hx
        dy /= g.hy
        e = g.cell_area * ((dx ** 2).sum() + (dy ** 2).sum())
    if not math.isfinite(e):
        raise ValueError(f"gradient energy overflows a double "
                         f"(max |u| = {np.abs(u.values).max():.3g})")
    return float(e)


def grad_inner(u: ScalarField, v: ScalarField) -> float:
    """Face-based discrete value of the integral of grad u . grad v."""
    Fu, Fv = gradient(u), gradient(v)
    return u.grid.cell_area * float((Fu.xfaces * Fv.xfaces).sum() + (Fu.yfaces * Fv.yfaces).sum())


def node_gradient(u: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Gradient components averaged from faces back to nodes, shaped (ny, nx).

    Uses the ghost-zero boundary faces, so this is only meaningful for fields
    that actually vanish on the boundary (Dirichlet fields).
    """
    F = gradient(u)
    gx = 0.5 * (F.xfaces[:, :-1] + F.xfaces[:, 1:])
    gy = 0.5 * (F.yfaces[:-1, :] + F.yfaces[1:, :])
    return gx, gy


def node_grad_sq(F: FaceField) -> ScalarField:
    """Four-face average of the squared face gradients F = gradient(u), as a node field.

    Boundary faces difference against the zero ghosts; for coefficient-like
    fields (nonzero up to the boundary) the one-node collar next to the
    boundary is therefore polluted and callers must exclude it.
    """
    gx2 = 0.5 * (F.xfaces[:, :-1] ** 2 + F.xfaces[:, 1:] ** 2)
    gy2 = 0.5 * (F.yfaces[:-1, :] ** 2 + F.yfaces[1:, :] ** 2)
    return ScalarField(F.grid, (gx2 + gy2).reshape(-1))


def coeff_node_gradient(c: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Node-averaged gradient of a coefficient field, interior faces only.

    Coefficients do not vanish on the boundary, so the ghost-zero boundary
    faces are skipped: collar nodes average the single adjacent interior face
    (one-sided); an axis with a single node column has no information and
    contributes 0.
    """
    # np.diff is on the n - 1 interior faces of an axis of n nodes, and their
    # face means, the end differences copied, land back on the n nodes
    g, U = c.grid, c.mat
    return tuple(_face_mean(np.diff(U, axis=axis) / h, axis) if U.shape[axis] > 1
                 else np.zeros(U.shape) for axis, h in ((1, g.hx), (0, g.hy)))


def coeff_grad_inf(c: ScalarField) -> float:
    """Max node-averaged gradient magnitude of a coefficient field."""
    gx, gy = coeff_node_gradient(c)
    return float(np.hypot(gx, gy).max())


def face_average(c: ScalarField) -> FaceField:
    """Coefficient values on faces: arithmetic mean of the two adjacent nodes,
    the bare interior node value on boundary faces."""
    return FaceField(c.grid, _face_mean(c.mat, 1), _face_mean(c.mat, 0))


def _face_mean(U: np.ndarray, axis: int) -> np.ndarray:
    """Node-to-face means along axis of U: the mean of the two neighbours on each
    inner face, the end values copied onto the two end faces."""
    axis %= U.ndim
    f = np.empty(U.shape[:axis] + (U.shape[axis] + 1,) + U.shape[axis + 1:])
    F, V = f.swapaxes(axis, 0), U.swapaxes(axis, 0)
    np.add(V[:-1], V[1:], out=F[1:-1])
    F[1:-1] *= 0.5
    F[0], F[-1] = V[0], V[-1]
    return f


def dirichlet_lambda1(grid: Grid) -> float:
    """Smallest eigenvalue of the five-point Dirichlet Laplacian on the rectangle.

    Analytic on tensor grids: (4/hx^2) sin^2(pi hx / (2 Lx)) + same in y.
    """
    sx = math.sin(math.pi * grid.hx / (2.0 * grid.lx))
    sy = math.sin(math.pi * grid.hy / (2.0 * grid.ly))
    return 4.0 / grid.hx ** 2 * sx * sx + 4.0 / grid.hy ** 2 * sy * sy


# --- field file I/O -------------------------------------------------------
#
# Line 1:  # field nx ny x0 y0 hx hy
# then nx*ny whitespace-separated values, row-major, x fastest, each written
# exactly as "%.17g" prints it.
#
# "%.17g" prints fixed notation when the decimal exponent d of the value rounded
# to 17 digits lies in [-4, 16].  There write_field computes those digits itself:
# N = round_half_even(|x| * 10^(16-d)) is exact from Dekker's two-product, since
# 10^(16-d) is an exact double for 16-d <= 22 and every product that lands in
# [10^16, 10^17) is an even integer plus an error term below its half-ulp.  All
# other values (zeros, subnormals, |x| < 1e-4 or >= 1e17) take Python's "%.17g".

_WIDTH = 24                       # longest "%.17g" text, "-2.2250738585072014e-308"
_POW10 = np.array([float(10 ** k) for k in range(21)])


def _split(a):
    """Veltkamp's split a = hi + lo, each half with at most 26 significant bits."""
    t = 134217729.0 * a           # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4 ASCII digits of each k in [0, 9999], zero-padded, each as one uint32:
    in full, and with the trailing zeros of k as spaces."""
    full = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)   # [a, b, c, d] of abcd
    for p in range(4):
        full[..., p] = np.arange(ord("0"), ord("9") + 1,
                                 dtype=np.uint8).reshape((10,) + (1,) * (3 - p))
    stripped = full.copy()
    for p in range(4):            # digits p..3 all zero
        stripped[(slice(None),) * p + (0,) * (4 - p)][..., p:] = ord(" ")
    return tuple(t.reshape(10000, 4).view(np.uint32).ravel() for t in (full, stripped))


_DIGITS4, _STRIPPED4 = _digit_tables()
# texts are padded with spaces and the padding is deleted on output, so a space
# separator is written as this byte and mapped back to a space
_SPACE_MARK = 1
_UNMARK = bytes(ord(" ") if i == _SPACE_MARK else i for i in range(256))
_LEAD_ZEROS = np.frombuffer(b"0.000", dtype=np.uint8)


def _round17(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """round_half_even(a * 10^(16-d)) for a > 0 and 16-d in [0, 20]; exact
    wherever the result lies in [10^16, 10^17)."""
    k = 16 - d
    p = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    # p >= 2^53 is an even integer, so rint's ties-to-even on err rounds p + err
    # half to even; a smaller p gives a result below 10^16, which callers reject
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _fixed_exponents(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, N): the decimal exponent and 17 digits of each |x| in ax as "%.17g"
    prints them, with d = -99 where that is not fixed notation in [-4, 16]."""
    d = np.full(ax.size, -99, dtype=np.int64)
    n = np.zeros(ax.size, dtype=np.int64)
    fast = np.flatnonzero((ax >= 1e-4) & (ax < 1e17))
    if fast.size == 0:
        return d, n
    a = ax[fast]
    df = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    nf = _round17(a, df)
    # one step of d corrects a log10 that is off by one next to a power of ten,
    # and would take a carry of the rounding to 10^17; a value still outside
    # [10^16, 10^17) after it takes "%.17g"
    step = (nf >= 10 ** 17).astype(np.int64) - (nf < 10 ** 16)
    df += step
    redo = np.flatnonzero((step != 0) & (df >= -4) & (df <= 16))
    if redo.size:
        nf[redo] = _round17(a[redo], df[redo])
    ok = (nf >= 10 ** 16) & (nf < 10 ** 17) & (df >= -4) & (df <= 16)
    d[fast[ok]] = df[ok]
    n[fast[ok]] = nf[ok]
    return d, n


def _digit_chars(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each n in [10^16, 10^17), as (m, 17) uint8 twice:
    in full, and with the trailing zeros as spaces."""
    lead = n // 10 ** 16
    rest = n - lead * 10 ** 16
    hi = rest // 10 ** 8
    lo = rest - hi * 10 ** 8
    q1, q3 = hi // 10 ** 4, lo // 10 ** 4
    quads = (q1, hi - q1 * 10 ** 4, q3, lo - q3 * 10 ** 4)
    full = np.empty((n.size, 5), dtype=np.uint32)
    stripped = np.empty((n.size, 5), dtype=np.uint32)
    # a quad strips when every quad after it is zero
    tail_zero = np.ones(n.size, dtype=bool)
    for j in (3, 2, 1, 0):
        full[:, j + 1] = _DIGITS4[quads[j]]
        stripped[:, j + 1] = np.where(tail_zero, _STRIPPED4[quads[j]], full[:, j + 1])
        tail_zero &= quads[j] == 0
    full, stripped = full.view(np.uint8)[:, 3:], stripped.view(np.uint8)[:, 3:]
    full[:, 0] = stripped[:, 0] = lead + ord("0")
    return full, stripped


def _fixed_text(neg: np.ndarray, d: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The "%.17g" text of values with sign neg, 17 digits n and exponent d in
    [-4, 16], in rows of _WIDTH bytes padded with spaces."""
    m = n.size
    full, stripped = _digit_chars(n)
    text = np.full((m, _WIDTH), ord(" "), dtype=np.uint8)
    text[:, 0] = np.where(neg, ord("-"), ord(" "))
    for e in np.flatnonzero(np.bincount(d + 4, minlength=21)) - 4:
        rows = _select(d == e)
        if e >= 0:                # integer digits in full, fraction stripped
            text[rows, 1:e + 2] = full[rows, :e + 1]
            frac = stripped[rows, e + 1:]
            if frac.shape[1]:     # the point goes when no fraction digit is left
                text[rows, e + 2] = np.where(frac[:, 0] == ord(" "), ord(" "), ord("."))
                text[rows, e + 3:19] = frac
        else:                     # "0." and -e-1 zeros ahead of the digits
            text[rows, 1:2 - e] = _LEAD_ZEROS[:1 - e]
            text[rows, 2 - e:19 - e] = stripped[rows]
    return text


def _select(mask: np.ndarray):
    """Index of the rows where mask holds: a full slice, which indexes without
    copying, when it holds everywhere."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _format_chunk(v: np.ndarray, start: int, nx: int) -> bytes:
    """The field-file text of the values v at flat positions start, start+1, ...
    of a grid with nx nodes per row: each value as "%.17g", followed by a space,
    or by a newline at the end of a row."""
    d, n = _fixed_exponents(np.abs(v))
    rows = np.empty((v.size, _WIDTH + 1), dtype=np.uint8)
    fixed = d >= -4
    if fixed.any():
        idx = _select(fixed)
        rows[idx, :_WIDTH] = _fixed_text(np.signbit(v[idx]), d[idx], n[idx])
    if not fixed.all():
        idx = _select(~fixed)
        rest = v[idx].tolist()
        text = ("%-24.17g" * len(rest) % tuple(rest)).encode("ascii")
        rows[idx, :_WIDTH] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _WIDTH)
    row_end = np.arange(start + 1, start + v.size + 1) % nx == 0
    rows[:, _WIDTH] = np.where(row_end, ord("\n"), _SPACE_MARK)
    return rows.tobytes().translate(_UNMARK, b" ")


def write_field(f: ScalarField, path) -> None:
    """Write f as a field file, BATCH_NODES values at a time."""
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(f"# field {g.header()}\n".encode("ascii"))
        for start in range(0, g.n_nodes, BATCH_NODES):
            fh.write(_format_chunk(f.values[start:start + BATCH_NODES], start, g.nx))


# Reading follows Clinger (1990).  A plain token -?digits[.digits] whose digits n, f after
# the point, are at most 18 past its leading zeros, is the double nearest n / 10^f: that
# quotient itself where n <= 2^53 (exact operands, one rounding), else, for n < 10^17,
# the candidate next to it that _round17 prints back as n (half a 17-digit unit is at
# most 5e-17 |x|, half an ulp at least 2^-54 |x| = 5.55e-17 |x|); every power of ten
# taken, 10^f and _round17's, must lie in _POW10.  numpy's C reader parses n from text of
# digits and spaces, and the digits are counted here, as numpy 2 saturates an overflowing
# integer silently; any other token, and every chunk numpy refuses, goes through float().
# _INT_TEXT maps str.split()'s whitespace to a space, and _SPACE marks it.
_INT_TEXT = bytes(32 if chr(i).isspace() else i for i in range(128)) + bytes(range(128, 256))
_SPACE = np.frombuffer(_INT_TEXT, dtype=np.uint8) == 32


def _float_tokens(words: list) -> list:
    """The reader's slow path: Python's float() of each ASCII token."""
    return [float(w.decode("ascii")) for w in words]


def _read_tokens(raw: np.ndarray, s: np.ndarray, e: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """The doubles of the tokens raw[s[i]:e[i]], each bitwise as float() reads it;
    inner holds the positions of the tokens' bytes that are not digits."""
    b0, b1, k = int(s[0]), int(e[-1]), s.size
    mark = inner[slice(*np.searchsorted(inner, (b0, b1)))]
    ch, neg = raw[mark], raw[s] == 45
    dot, bad = mark[ch == 46], np.zeros(k, dtype=bool)
    if mark.size != dot.size + np.count_nonzero(neg):   # not all points and leading minus
        bad[np.searchsorted(s, np.setdiff1d(mark[ch != 46], s[neg], True), "right") - 1] = True
    one = dot.size == k and (s <= dot).all() and (dot < e).all()   # point i in token i
    owner = np.arange(k) if one else np.searchsorted(s, dot, "right") - 1
    f, points = np.zeros(k, dtype=np.int64), np.bincount(owner, minlength=k)
    f[owner] = e[owner] - dot - 1
    digits = e - s - neg - points
    bad |= (points > 1) | (digits < 1) | (f > 20)
    long = np.flatnonzero((digits > 18) & ~bad)
    if long.size:                     # all but the last 18 digits must be leading zeros
        lead = digits[long] - 18
        span = lead + (digits[long] - f[long] < lead)     # and the point among them
        at = np.repeat(s[long] + neg[long] - np.cumsum(span) + span, span) + np.arange(span.sum())
        bad[long] = np.logical_or.reduceat(raw[at] > 48, np.cumsum(span) - span)
    text = raw[b0:b1]
    if bad.any():                     # a bad token's text becomes "0" and spaces
        text = text.copy()
        text[np.repeat(bad, np.diff(s, append=b1))] = 32
        text[s[bad] - b0] = 48
    try:                              # on text it cannot read numpy 1 warns, numpy 2 raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n = np.fromstring(text.tobytes().translate(_INT_TEXT, b".-"), dtype=np.int64, sep=" ")
        n = n.reshape(k)              # and a count that does not match raises too
    except (ValueError, Warning):
        n, bad = np.zeros(k, dtype=np.int64), np.ones(k, dtype=bool)
    x = n / _POW10.take(f, mode="clip")
    bad |= (n >= 10 ** 17) | ((n > 2 ** 53) & (f + (n < 10 ** 16) > 20))   # _round17's 16 - d
    big = _select((n > 2 ** 53) & ~bad)   # a candidate from two exact quotients
    q, p, wide = n[big], _POW10[f[big]], n[big] < 10 ** 16   # wide: 16 digits, the 17th a zero
    want, d = np.where(wide, 10 * q, q), 16 - f[big] - wide
    y = (q & -16) / p + (q & 15) / p
    r = _round17(y, d)
    i = np.flatnonzero(r != want)     # else the neighbour on the token's side
    y[i] = np.nextafter(y[i], np.where(r[i] < want[i], np.inf, 0.0))
    r[i] = _round17(y[i], d[i])
    x[big] = y
    bad[big] |= r != want
    np.negative(x, out=x, where=neg)
    x[bad] = _float_tokens([raw[a:z].tobytes() for a, z in zip(s[bad].tolist(), e[bad].tolist())])
    return x


def read_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        data = fh.read()   # its first line ends at a newline or, as in text mode, a CR
    header, cr, _ = data[:data.find(b"\n") + 1 or None].decode("ascii").partition("\r")
    parts = header.split()
    if parts[:2] != ["#", "field"] or len(parts) != 8:
        raise ValueError(f"{path}: malformed field header: {header.strip()!r}")
    nx, ny = int(parts[2]), int(parts[3])
    x0, y0, hx, hy = (float(p) for p in parts[4:8])
    raw = np.frombuffer(data, dtype=np.uint8, offset=len(header) + len(cr))
    grid = Grid(nx, ny, x0, y0, hx, hy)
    mark = np.flatnonzero(raw < 48 if raw.max(initial=0) < 58 else raw - 48 > 9)   # non-digits
    space = _SPACE[raw[mark]]
    gap = np.concatenate(([-1], mark[space], [raw.size]))   # tokens lie between spaces
    cut = _select(gap[1:] - gap[:-1] > 1)
    starts, ends, inner = gap[:-1][cut] + 1, gap[1:][cut], mark[~space]
    del mark, space, gap, cut
    if starts.size != grid.n_nodes:
        raise ValueError(f"{path}: expected {grid.n_nodes} values for a {nx}x{ny} field, "
                         f"found {starts.size}")
    return ScalarField(grid, np.concatenate([  # BATCH_NODES tokens at a time
        _read_tokens(raw, starts[t:t + BATCH_NODES], ends[t:t + BATCH_NODES], inner)
        for t in range(0, grid.n_nodes, BATCH_NODES)]))
