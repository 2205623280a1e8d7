"""Pricing functions F(tau, x), tau = T - t, with gradients and Hessians.

The catalogue covers the payoffs used in the experiments: vanilla call,
digital, fractional-power call, their coordinate-wise products under diagonal
geometric Brownian motion, a two-asset weighted-sum digital, and an analytic
quadratic payoff for Brownian motion used as a closed-form oracle.

All value functions solve -d/dtau F + (1/2) sum A_kl d2F/dx_k dx_l = 0 with
the terminal condition F(0+, x) -> f(x); drift never enters F, it only shows
up in the simulated state dynamics.

The Gauss-Legendre and Gauss-Hermite rules of the quadratures are scipy's,
bit for bit, but their eigenvalues come from numpy.linalg (_gauss), so
pricing never imports scipy.linalg.

The kernels compute in place, in the plain expressions' order of operations
and so to their bits: each writes only arrays it allocated. The caller owns
every array it gets back; no input is written, no result is a view of one.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np
from scipy.special import eval_hermite, eval_legendre, ndtr, roots_hermite

from .models import a_matrix
from .rng import ArgumentError, check_horizon

__all__ = [
    "QuadratureError",
    "Factor1D",
    "ProductPricing",
    "SumDigital2D",
    "BMQuadratic",
    "make_pricing",
    "check_priced",
]

#: Node-doubling stopping rule for the quadrature-backed factors.
QUAD_RTOL = 1e-9
QUAD_ATOL = 1e-30
QUAD_NODES = (32, 64, 128, 256, 512)

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_TINY = np.finfo(float).tiny


class QuadratureError(RuntimeError):
    """Raised when node doubling fails to converge to QUAD_RTOL."""


def _phi(z):
    out = np.multiply(-0.5, z, out=np.empty(np.shape(z)))
    # z * z overflows only where the density is 0 (d2 at a subnormal tau)
    with np.errstate(over="ignore"):
        out *= z
    return np.divide(np.exp(out, out=out), _SQRT_2PI, out=out)


def _maturity(tau) -> float:
    if not tau > 0.0:
        raise ArgumentError(f"prices are defined at tau > 0 only, not {tau}")
    return tau


def _states(x, d: int):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != d:
        raise ArgumentError(f"states must have shape (B, {d})")
    return x


def _d12(x, K, s, tau):
    """d2 (one new array) and s sqrt(tau); d1 = d2 + s sqrt(tau) is formed
    where it is used."""
    st = s * np.sqrt(tau)
    d2 = np.divide(x, K, out=np.empty(x.shape))
    np.log(d2, out=d2)
    if 0.5 * st * st < _TINY:
        # s^2 tau / 2 underflows: log(x/K) / st - st / 2 has the same bits
        # where log(x/K) != 0, whose ulp dwarfs st, and is right where it is 0
        return np.subtract(np.divide(d2, st, out=d2), 0.5 * st, out=d2), st
    d2 -= 0.5 * st * st
    d2 /= st
    return d2, st


# ---------------------------------------------------------------------------
# power payoff (x - K)_+^alpha by quadrature
# ---------------------------------------------------------------------------

def _gauss(n, mu0, sqrt_b, f, df):
    """Gauss nodes and weights of the orthogonal polynomials f(k, x) with
    zero recurrence diagonal and off-diagonal sqrt_b(k), by Golub & Welsch
    (Math. Comp. 1969), step for step as scipy.special's
    _gen_roots_and_weights: the Jacobi matrix's eigenvalues, one Newton step
    on them, log-normalised weights, symmetrisation and weights summing to
    mu0. Only the eigensolver differs: numpy.linalg.eigvalsh, where scipy
    imports scipy.linalg (about 0.08 s and 5 MB) for this one call. For
    every QUAD_NODES size the result is bitwise scipy's."""
    b = sqrt_b(np.arange(1, n, dtype=float))
    x = np.linalg.eigvalsh(np.diag(b, 1) + np.diag(b, -1))
    dy = df(n, x)
    x -= f(n, x) / dy
    fm = f(n - 1, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= mu0 / w.sum()
    return x, w


@functools.cache
def _legendre01(n):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    u, w = _gauss(
        n, 2.0, lambda k: k * np.sqrt(1.0 / (4 * k * k - 1)),
        eval_legendre,
        lambda n, x: (-n * x * eval_legendre(n, x)
                      + n * eval_legendre(n - 1, x)) / (1 - x ** 2))
    return 0.5 * (u + 1.0), 0.5 * w


@functools.cache
def _hermite(n):
    """Gauss-Hermite nodes and weights for the standard normal density.
    Above 150 nodes scipy's roots_hermite uses an asymptotic expansion that
    needs no eigensolver."""
    if n <= 150:
        u, w = _gauss(n, np.sqrt(np.pi), lambda k: np.sqrt(k / 2.0),
                      eval_hermite,
                      lambda n, x: 2.0 * n * eval_hermite(n - 1, x))
    else:
        u, w = roots_hermite(n)
    return np.sqrt(2.0) * u, w / np.sqrt(np.pi)


#: exponent of the cusp-absorbing map v = V * u**_KINK_POW
_KINK_POW = 6.0

#: A power factor with K > 0 prices tau below this at TAU_FLOOR. Closer to
#: maturity the quadrature's x e^{s sqrt(tau) z} - K cancels: at tau = 1e-20
#: none of 801 kink positions z in [-29.6, -8] converged, at 1e-12 all did.
TAU_FLOOR = 1e-12

#: kink positions below this z-score are outside the Gaussian support and the
#: plain Gauss-Hermite rule applies (the integrand is then smooth).
_Z_SMOOTH = -8.0


def _power_moments_raw(x, K, alpha, s, tau, n_nodes, count=3):
    """E[g He_k(z)] for k < count, g = (x e^{s sqrt(tau) z - s^2 tau/2} - K)_+^alpha.

    He_k are the probabilists' Hermite polynomials 1, z, z^2-1, z^3-3z, ...
    Vectorized over x. The integral is split at the payoff kink z_K and the
    cusp (e^{sig v} - 1)^alpha at v = 0 is absorbed by the power map
    v = V u^p, after which Gauss-Legendre converges rapidly. Paths whose kink
    lies far outside the Gaussian bulk use plain Gauss-Hermite instead.
    """
    x = np.asarray(x, dtype=float)
    sig = s * np.sqrt(tau)
    out = np.zeros((count,) + x.shape)
    zk = (np.log(K / x) + 0.5 * sig * sig) / sig

    smooth = zk <= _Z_SMOOTH
    kinked = ~smooth

    if np.any(kinked):
        zks = zk[kinked]
        V = (np.maximum(13.0 + alpha * sig - zks, 2.0) + 7.0)[:, None]
        u, w = _legendre01(n_nodes)
        up = u**_KINK_POW
        dup = _KINK_POW * u ** (_KINK_POW - 1.0) * w
        core = np.multiply(V, up)  # v
        z = np.add(zks[:, None], core)
        np.expm1(np.multiply(core, sig, out=core), out=core)
        core *= K
        core **= alpha  # as ** does: numpy's sqrt at alpha = 0.5
        scratch = _phi(z)
        core *= scratch
        core *= np.multiply(V, dup, out=scratch)  # dv
        out[:, kinked] = _hermite_sums(core, z, count, scratch)

    if np.any(smooth):
        z, w = _hermite(n_nodes)
        core = np.multiply(x[smooth][:, None],
                           np.exp(sig * z - 0.5 * sig * sig))
        core -= K
        np.maximum(core, 0.0, out=core)
        core **= alpha
        core *= w
        out[:, smooth] = _hermite_sums(core, z, count, np.empty_like(core))
    return out


def _hermite_sums(core, z, count, scratch):
    """Row sums of core He_k(z), k < count, each product formed in scratch:
    a matrix-vector product's bits would depend on the number of rows.

    He_1 is z and He_{k+1} = z He_k - k He_{k-1}, in two buffers of z's
    shape taking turns; k He_{k-1} is formed in scratch (its first row for
    a row of nodes) before z He_k overwrites He_{k-1}.
    """
    sums = np.empty((count, core.shape[0]))
    core.sum(axis=1, out=sums[0])
    bufs = np.empty((2,) + z.shape)
    term = scratch if scratch.shape == z.shape else scratch[0]
    prev, he = 1.0, z
    for k in range(1, count):
        np.multiply(core, he, out=scratch).sum(axis=1, out=sums[k])
        if k + 1 < count:
            nxt = bufs[k % 2]
            np.multiply(prev, k, out=term)
            np.multiply(z, he, out=nxt)
            nxt -= term
            prev, he = he, nxt
    return sums


def _node_doubling(raw, size, count, name):
    """Per-point node doubling over QUAD_NODES, the quadratures' one driver.

    raw(rows, n) gives the count moments of the points rows by the n-node
    rule. Each point keeps the moments of the first level at which they
    differ from the previous level's by at most QUAD_RTOL times its scale
    (QUAD_ATOL floors the tolerance); only the points that have not
    converged go on. raw may add a veto row after the moments: a point
    whose veto is not 0 is not accepted at that level, its rule having
    missed a feature of the integrand. QuadratureError is raised if any
    point still fails at the last level.
    """
    out = np.empty((count, size))
    todo = np.arange(size)
    prev = raw(slice(None), QUAD_NODES[0])[:count]
    for n in QUAD_NODES[1:]:
        cur = raw(todo, n)
        veto, cur = cur[count:].any(axis=0), cur[:count]
        # The higher moments may be cancellation-dominated; judge them
        # relative to the value moment's magnitude, not their own.
        scale = np.maximum(np.abs(cur), np.abs(cur[0])[None, :])
        tol = QUAD_RTOL * np.maximum(scale, QUAD_ATOL / QUAD_RTOL)
        done = np.all(np.abs(cur - prev) <= tol, axis=0) & ~veto
        out[:, todo[done]] = cur[:, done]
        todo, prev = todo[~done], cur[:, ~done]
        if todo.size == 0:
            return out
    raise QuadratureError(
        f"{name} quadrature did not converge to {QUAD_RTOL} "
        f"with up to {QUAD_NODES[-1]} nodes"
    )


def _power_moments(x, K, alpha, s, tau, count=3):
    """_power_moments_raw by per-point node doubling (_node_doubling)."""
    xf = np.asarray(x, dtype=float).ravel()
    out = _node_doubling(
        lambda rows, n: _power_moments_raw(xf[rows], K, alpha, s, tau, n,
                                           count),
        xf.size, count, "power-payoff")
    return out.reshape((count,) + np.shape(x))


def _power_log_derivatives(x, K, alpha, s, tau, count):
    """D_k = d^k F / d(log x)^k for k < count.

    Differentiating the Gaussian density k times in log x gives
    D_k = E[g He_k(z)] / (s sqrt(tau))^k.
    """
    d = _power_moments(x, K, alpha, s, tau, count)
    st = s * np.sqrt(tau)
    for k in range(1, count):
        d[k] /= st**k
    return d


def _assemble(x, d, what: tuple):
    """Value, delta and gamma from the log-price derivatives D_0, D_1, D_2,
    in place over the rows of d: F = D_0, dF/dx = D_1 / x and
    d2F/dx2 = (D_2 - D_1) / x^2, gamma first, while row 1 still holds D_1."""
    if "gamma" in what:
        d[2] -= d[1]
        d[2] /= x * x
    if "delta" in what:
        d[1] /= x
    return tuple(d[_ORDER[w]] for w in what)


#: highest log-price derivative D_k that each output is assembled from
_ORDER = {"value": 0, "delta": 1, "gamma": 2}

# Node lattice of the power-factor table (_NodeMap); its two terms take
# their densities from these three constants. The errors quoted are sup
# errors against direct quadrature for value / delta / gamma, relative to
# the largest of each over a 16384-path GBM batch at t = T - tau.

#: the linear term puts this many levels on each sd s sqrt(T - tau) of log X
#: at t = T - tau, about 100 over +-4 sd; it bounds the error where the kink
#: is smoothed out (tau >= 0.1: at most 7.5e-8 / 1.3e-6 / 7.1e-6)
_TABLE_DENSITY = 12.375

#: h0, the asinh term's scale, in units of s sqrt(tau); it bounds the error
#: on the innermost intervals (tau = 1e-8: 3.6e-7 / 6.7e-6 / 1.7e-5)
_TABLE_RUNG0 = 1.0 / 8.0

#: r: far from log K the asinh term puts one level per offset ratio r, as a
#: geometric ladder would; it bounds the error around a sharp kink
#: (tau <= 1e-2: at most 1.5e-6 / 4.6e-5 / 1.4e-4)
_TABLE_LADDER = 1.2

#: rows of a table lookup evaluated at once
_TABLE_CHUNK = 4096

# ---------------------------------------------------------------------------
# one-dimensional factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor1D:
    """One coordinate of a product payoff under driftless lognormal dynamics,
    priced in the time to maturity tau > 0.

    kind "const" is the neutral factor f = 1 for coordinates without
    optionality. The call and digital factors, and the power factor x^alpha
    at K = 0, are closed forms. With K > 0 the power factor (x - K)_+^alpha
    is priced off a quadrature table of its log-price derivatives, cubic
    Hermite in log-price (_power_eval_table), whose nodes depend on the
    factor, its horizon T and tau alone: a price is a function of (tau, x),
    the same bits in any batch and for every method.
    """

    kind: str  # "call" | "digital" | "power" | "const"
    K: float = 1.0
    alpha: float = 0.25
    s: float = 1.0
    T: float = 1.0

    def __post_init__(self):
        if self.kind not in ("call", "digital", "power", "const"):
            raise ArgumentError(f"unknown factor kind {self.kind!r}")
        if not all(isinstance(v, Real) and math.isfinite(v)
                   for v in (self.K, self.alpha, self.s)):
            raise ArgumentError("K, alpha and s must be finite real numbers")
        check_horizon(self.T)
        if self.kind != "const":  # the call and digital forms divide by K
            if self.K < 0.0 or self.K == 0.0 and self.kind != "power":
                raise ArgumentError("strike must be positive (or 0 for power)")
            if self.s <= 0.0:
                raise ArgumentError("vol must be positive")
        if self.kind == "power":
            if not (0.0 < self.alpha < 1.0):
                raise ArgumentError("power exponent must lie in (0, 1)")
            if self.alpha >= 0.5 and self.K > 0.0:  # x^alpha is smooth
                warnings.warn(
                    "power exponent >= 1/2 is outside the analysed range; "
                    "the curvature exponent hint degrades",
                    stacklevel=2,
                )

    @property
    def theta_hint(self) -> float:
        return {
            "call": 0.25,
            "digital": 0.75,
            # x^alpha (K = 0) is smooth: its Gamma stays bounded as tau -> 0
            "power": (3.0 - 2.0 * self.alpha) / 4.0 if self.K else 0.0,
            "const": 0.0,
        }[self.kind]

    def payoff(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "call":
            return np.maximum(x - self.K, 0.0)
        if self.kind == "digital":
            return (x >= self.K).astype(float)
        if self.kind == "power":
            return np.maximum(x - self.K, 0.0) ** self.alpha
        return np.ones_like(x)

    # -- scalar-batch evaluation -------------------------------------------

    def value(self, tau, x):
        return self._eval(tau, x, ("value",))[0]

    def delta(self, tau, x):
        return self._eval(tau, x, ("delta",))[0]

    def value_delta(self, tau, x):
        return self._eval(tau, x, ("value", "delta"))

    def value_delta_gamma(self, tau, x):
        return self._eval(tau, x, ("value", "delta", "gamma"))

    def _eval(self, tau, x, what: tuple):
        _maturity(tau)
        x = np.asarray(x, dtype=float)
        if self.kind == "const":
            one = np.ones_like(x)
            zero = np.zeros_like(x)
            return tuple(one if w == "value" else zero for w in what)
        if self.kind == "call":
            return self._call_eval(tau, x, what)
        if self.kind == "digital":
            return self._digital_eval(tau, x, what)
        return self._power_eval(tau, x, what)

    # -- closed-form factors: one _d12 serves every requested output -------

    def _call_eval(self, tau, x, what: tuple):
        d2, st = _d12(x, self.K, self.s, tau)
        nd1 = np.add(d2, st)  # d1 until N(d1) replaces it
        out = {"delta": nd1}
        if "gamma" in what:
            out["gamma"] = _phi(nd1) / (x * st)
        ndtr(nd1, out=nd1)
        if "value" in what:
            # x N(d1) - K N(d2), in the buffer of d2
            np.multiply(ndtr(d2, out=d2), self.K, out=d2)
            xn1 = np.multiply(x, nd1, out=None if "delta" in what else nd1)
            out["value"] = np.subtract(xn1, d2, out=d2)
        return tuple(out[w] for w in what)

    def _digital_eval(self, tau, x, what: tuple):
        d2, st = _d12(x, self.K, self.s, tau)
        out = {}
        if what != ("value",):
            pd2 = out["delta"] = _phi(d2)
            if "gamma" in what:
                gam = out["gamma"] = -pd2 * (d2 + st)
            # x s sqrt(tau), in the buffer of d2 unless N(d2) is asked for
            xst = np.multiply(x, st, out=None if "value" in what else d2)
            if "gamma" in what:
                # its square underflows at a subnormal tau: divide twice there
                sq = np.square(xst)
                np.divide(gam, sq, out=gam, where=sq >= _TINY)
                for _ in range(2):
                    np.divide(gam, xst, out=gam, where=sq < _TINY)
            pd2 /= xst
        if "value" in what:
            out["value"] = ndtr(d2, out=d2)
        return tuple(out[w] for w in what)

    # -- power factor internals --------------------------------------------

    def _power_eval(self, tau, x, what: tuple):
        if self.K == 0.0:
            # the lognormal moment x^alpha e^{alpha (alpha - 1) s^2 tau / 2}
            # at the true tau; d^{k+1}F/dx^{k+1} = (alpha - k) d^kF/dx^k / x
            # keeps Gamma's digits as alpha -> 1, where D_2 - D_1 cancels
            a, s = self.alpha, self.s
            d = [x ** a * math.exp(0.5 * a * (a - 1.0) * s * s * tau)]
            for k in range(max(_ORDER[w] for w in what)):
                d.append((a - k) * d[k] / x)
            return tuple(d[_ORDER[w]] for w in what)
        return self._power_eval_table(max(tau, TAU_FLOOR), x, what)

    def _power_eval_table(self, tau, x, what: tuple):
        """Cubic Hermite interpolation in log-price of a quadrature table.

        The table holds D_0 ... D_3 at the nodes of _NodeMap that bound the
        keys' intervals; node doubling judges all four whatever is asked.
        Each D_k is interpolated with D_{k+1} as its exact slope; the
        outputs are assembled from the interpolants in place (_assemble).
        Every interval's cubics are stored in power form in the offset from
        its left node, so one index (from the floor of the key's level) and
        one gather serve every output. Rows are leveled, then evaluated, in
        chunks of _TABLE_CHUNK through buffers reused from chunk to chunk,
        each chunk's Horner sums written straight into its columns of one
        array of D_0 ... D_m, m the highest order the outputs need (_ORDER).
        """
        top = max(_ORDER[w] for w in what)
        xf = x.reshape(-1)
        lx = np.log(xf)
        nmap = _NodeMap(self.K, self.s, self.T, tau)
        rows = min(_TABLE_CHUNK, xf.size)
        dx, tmp = np.empty((2, rows))
        level = np.empty(xf.size, dtype=np.intp)
        for a in range(0, xf.size, _TABLE_CHUNK):
            m = min(_TABLE_CHUNK, xf.size - a)
            w = nmap.level(lx[a:a + m], dx[:m], tmp[:m])
            level[a:a + m] = np.floor(w, out=w)
        grid = nmap.lattice(level)
        d = _power_log_derivatives(np.exp(grid), self.K, self.alpha, self.s,
                                   tau, 4)
        # on each interval, the cubic through (f0, s0) and (f1, s1) in
        # powers of the offset from its left node
        h = np.diff(grid)
        f0, f1 = d[:top + 1, :-1], d[:top + 1, 1:]
        s0, s1 = d[1:top + 2, :-1], d[1:top + 2, 1:]
        secant = (f1 - f0) / h
        coef = np.concatenate([
            f0, s0, (3.0 * secant - 2.0 * s0 - s1) / h,
            (s0 + s1 - 2.0 * secant) / (h * h),
        ])
        gather = np.empty(coef.shape[0] * rows)
        out = np.empty((top + 1, xf.size))
        for a in range(0, xf.size, _TABLE_CHUNK):
            m = min(_TABLE_CHUNK, xf.size - a)
            j = level[a:a + m]
            np.take(grid, j, out=dx[:m], mode="clip")
            np.subtract(lx[a:a + m], dx[:m], out=dx[:m])
            c = gather[:coef.shape[0] * m].reshape(coef.shape[0], m)
            np.take(coef, j, axis=1, out=c, mode="clip")
            c = c.reshape(4, top + 1, m)
            o = out[:, a:a + m]
            np.multiply(c[3], dx[:m], out=o)
            for k in (2, 1, 0):
                o += c[k]
                if k:
                    o *= dx[:m]
        return tuple(g.reshape(x.shape) for g in _assemble(xf, out, what))


class _NodeMap:
    """The power table's node lattice at one tau: the integer levels of the
    increasing map of log-price y

        w(y) = a (y - lk) + b asinh((y - lk) / h0),    lk = log K.

    The linear term puts _TABLE_DENSITY levels on each sd s sqrt(T - tau)
    of log X at t = T - tau (floored at 1e-4 T); the asinh term puts those
    of a geometric ladder of ratio _TABLE_LADDER around lk, from
    h0 = _TABLE_RUNG0 s sqrt(tau). The map depends on K, s, T and tau
    alone, and so does each node.
    """

    def __init__(self, K, s, T, tau):
        self.lk = math.log(K)
        self.h0 = _TABLE_RUNG0 * s * math.sqrt(tau)
        self.a = _TABLE_DENSITY / (s * math.sqrt(max(T - tau, 1e-4 * T)))
        self.b = 1.0 / math.log(_TABLE_LADDER)

    def level(self, y, out=None, tmp=None):
        """w(y), into out if given (tmp: scratch of y's shape)."""
        out = np.subtract(y, self.lk, out=out)
        tmp = np.divide(out, self.h0, out=tmp)
        np.arcsinh(tmp, out=tmp)
        tmp *= self.b
        out *= self.a
        out += tmp
        return out

    def lattice(self, level):
        """The nodes, in increasing order, for keys at the integer floor
        levels `level`: every level from the lowest to one above the
        highest, or, if that is more than two per key, the two around each.
        `level` becomes each key's interval among them, searchsorted(nodes,
        y, side="right") - 1 but for keys within rounding of a node."""
        k0 = level.min() if level.size else 0
        level -= k0
        if level.size and level.max() >= 2 * level.size - 1:
            need = np.union1d(level, level + 1)
            level[...] = np.searchsorted(need, level)
        else:
            need = np.arange(level.max() + 2 if level.size else 0)
        return self.nodes(need + float(k0))

    def nodes(self, k):
        """y_k with w(y_k) = k, to rounding, for the integer levels k.

        The nearer of the two terms' own solutions lies beyond the node,
        where w is concave towards lk, so Newton's first step lands short
        of it and the rest converge monotonically: seven steps reach
        rounding for tau / T from 1 to 1e-300 and s from 0.01 to 3."""
        q = np.minimum(np.abs(k) / self.b,
                       np.arcsinh(np.abs(k) / (self.a * self.h0)))
        y = np.copysign(self.h0 * np.sinh(q), k) + self.lk
        for _ in range(7):
            y -= (self.level(y) - k) / (
                self.a + self.b / np.hypot(self.h0, y - self.lk))
        return y


# ---------------------------------------------------------------------------
# d-dimensional pricing models
# ---------------------------------------------------------------------------

class ProductPricing:
    """Coordinate-wise product payoff f(x) = prod_i f_i(x_i) at horizon T.

    F(tau, x) = prod_i F_i(tau, x_i), each F_i checking tau, is the price
    under diagonal GBM (case C2) at the factors' vols s_i, for independent
    assets once two factors are not const; ``check_priced`` refuses any
    other model.
    """

    def __init__(self, factors: Sequence[Factor1D], T: float):
        self.T = check_horizon(T)
        self.factors = factors = tuple(factors)
        if not factors:
            raise ArgumentError("need at least one factor")
        if any(f.T != self.T for f in factors):  # T places the power table
            raise ArgumentError(f"every factor's horizon T must be {self.T!r}")
        self.d = len(factors)
        self.theta_hint = max([f.theta_hint for f in factors] + [0.5]) \
            if self.d > 1 else factors[0].theta_hint

    def payoff(self, x):
        x = _states(x, self.d)
        out = np.ones(x.shape[0])
        for i, f in enumerate(self.factors):
            out *= f.payoff(x[:, i])
        return out

    def value(self, tau, x):
        x = _states(x, self.d)
        out = self.factors[0].value(tau, x[:, 0])
        for i, f in enumerate(self.factors[1:], 1):
            out *= f.value(tau, x[:, i])
        return out

    def _vd(self, tau, x):
        vals = np.empty((self.d, x.shape[0]))
        dels = np.empty((self.d, x.shape[0]))
        for i, f in enumerate(self.factors):
            vals[i], dels[i] = f.value_delta(tau, x[:, i])
        return vals, dels

    @staticmethod
    def _others(vals):
        """prod_{i != k} vals[i] for every k of the factor-major (d, B) vals,
        from prefix and suffix products (no division, so zero factors are
        exact)."""
        out = np.ones_like(vals)
        for k in range(1, vals.shape[0]):
            np.multiply(out[k - 1], vals[k - 1], out=out[k])
        acc = vals[-1].copy()
        for k in reversed(range(vals.shape[0] - 1)):
            out[k] *= acc
            acc *= vals[k]
        return out

    def gradient(self, tau, x):
        x = _states(x, self.d)
        if self.d == 1:
            return self.factors[0].delta(tau, x[:, 0])[:, None]
        vals, dels = self._vd(tau, x)
        dels *= self._others(vals)
        return dels.T

    def hessian(self, tau, x):
        x = _states(x, self.d)
        if self.d == 1:
            # bitwise the general form below: Γ times an empty product, 1.0
            gamma = self.factors[0].value_delta_gamma(tau, x[:, 0])[2]
            return gamma[:, None, None]
        vals, dels, gams = np.empty((3, self.d, x.shape[0]))
        for i, f in enumerate(self.factors):
            vals[i], dels[i], gams[i] = f.value_delta_gamma(tau, x[:, i])
        hess = np.empty((self.d, self.d, x.shape[0]))
        gams *= self._others(vals)
        for i in range(self.d):
            hess[i, i] = gams[i]
            for j in range(self.d):
                if j != i:
                    rest = np.prod(np.delete(vals, [i, j], axis=0), axis=0)
                    np.multiply(dels[i], dels[j], out=hess[i, j])
                    hess[i, j] *= rest
        return hess.transpose(2, 0, 1)


class SumDigital2D:
    """Digital on a positive weighted sum of two lognormal assets.

    Value and Greeks by one-dimensional quadrature over the second asset,
    conditioning the closed-form one-asset digital (_moments_raw): the value
    and its first and second x-derivatives are integrands on the same nodes.
    A zero weight leaves the one-asset digital factor on the other asset.
    """

    def __init__(self, K, lam, s, T):
        self.K = float(K)
        self.lam = np.asarray(lam, dtype=float)
        self.s = np.asarray(s, dtype=float)
        self.T = check_horizon(T)
        if self.lam.shape != (2,) or self.s.shape != (2,):
            raise ArgumentError("sum digital is implemented for d = 2 only")
        if np.any(self.lam < 0.0) or self.lam.max() <= 0.0:
            raise ArgumentError("weights must be non-negative, not all zero")
        if not self.K > 0.0:
            raise ArgumentError("strike must be positive")
        if not np.all(self.s > 0.0):
            raise ArgumentError("vols must be positive")
        self.d = 2
        self.theta_hint = 0.75
        self._k = int(self.lam[0] == 0.0)
        self._single = (
            Factor1D("digital", K=self.K / self.lam[self._k],
                     s=self.s[self._k])
            if self.lam.min() == 0.0 else None)

    def payoff(self, x):
        x = _states(x, self.d)
        return (x @ self.lam >= self.K).astype(float)

    def _moments_raw(self, tau, x1, x2, n_nodes, count):
        """The first count of V, V_1, V_2, V_11, V_12, V_22 (x-derivatives)
        by the n_nodes rule, then _node_doubling's veto row. Given the second
        asset's z-score z, the payoff is the one-asset digital N(d2(z)) with
        strike k_eff = K - l2 X2(z), which hits 0 at z*. Above z* it is 1,
        giving N(-z*); below, a power-mapped Gauss-Legendre rule handles the
        flat approach at z*. The Greeks are integrands on the same nodes,
        with d(d2)/dx1 = a1 = 1/(x1 st1), d(d2)/dx2 = a2 = y2/(x2 k_eff st1),
        d(a1)/dx1 = -a1/x1 and d(a2)/dx2 = st1 a2^2; their boundary terms at
        z* cancel, as the conditional value there is 1 and the derivative
        integrands vanish.

        Near maturity N(d2(z)) steps from 0 to 1 at z_sw, where d2 = 0, over
        a z-interval of width O(sqrt(tau)), and no node need fall in it:
        when z* >> 13 none lies in the Gaussian bulk. The veto marks a point
        whose every node sees N(d2) as exactly 0 or 1 while the rule's
        phi-weight on its nodes with d2 > 0 is not, to QUAD_RTOL, the exact
        N(z*) - N(max(z_sw, z* - W)).
        """
        l1, l2 = self.lam
        st1, st2 = self.s * np.sqrt(tau)
        zstar = (np.log(self.K / (l2 * x2)) + 0.5 * st2 * st2) / st2
        W = np.maximum(zstar + 13.0, 0.0)
        u, w = _legendre01(n_nodes)
        z = zstar[:, None] - W[:, None] * (u * u)[None, :]
        wz = _phi(z) * (W[:, None] * (2.0 * u * w)[None, :])
        # reused buffers: z for y2, a2; wz for g; keff for ga2; d2 for g d2
        y2 = np.exp(st2 * z - 0.5 * st2 * st2, out=z)
        y2 *= l2 * x2[:, None]
        # next to z*, K - y2 can round below 0; clamped, d2 = +inf there
        keff = np.maximum(self.K - y2, 0.0)
        with np.errstate(divide="ignore"):
            d2 = (np.log(l1 * x1[:, None] / keff) - 0.5 * st1 * st1) / st1
        out = np.empty((count + 1, x1.size))
        nd = ndtr(d2)
        out[0] = (nd * wz).sum(axis=1) + ndtr(-zstar)
        k_sw = self.K - l1 * x1 * np.exp(-0.5 * st1 * st1)
        with np.errstate(divide="ignore", invalid="ignore"):
            z_sw = np.where(k_sw > 0.0, (np.log(k_sw / (l2 * x2))
                                         + 0.5 * st2 * st2) / st2, -np.inf)
        weight = ndtr(zstar) - ndtr(np.maximum(z_sw, zstar - W))
        out[-1] = (np.all((nd == 0.0) | (nd == 1.0), axis=1)
                   & (np.abs((wz * (d2 > 0.0)).sum(axis=1) - weight)
                      > QUAD_RTOL))
        if count == 1:
            return out
        # where k_eff = 0 the derivative integrands are 0: zero weight, and
        # a finite d2 and a2 = 0 so that no 0 * inf arises
        dead = keff == 0.0
        d2[dead], wz[dead], keff[dead] = 0.0, 0.0, np.inf
        g = np.multiply(_phi(d2), wz, out=wz)
        a1 = 1.0 / (x1 * st1)
        a2 = np.divide(y2, keff * (x2 * st1)[:, None], out=y2)
        ga2 = np.multiply(g, a2, out=keff)
        out[1] = g.sum(axis=1) * a1
        out[2] = ga2.sum(axis=1)
        if count == 3:
            return out
        gd2 = np.multiply(g, d2, out=d2)
        out[3] = -((gd2 + st1 * g).sum(axis=1) * a1 * a1)
        out[4] = -((gd2 * a2).sum(axis=1) * a1)
        out[5] = ((st1 * g - gd2) * a2 * a2).sum(axis=1)
        return out

    def _moments(self, tau, x, count):
        """The first count of V, V_1, V_2, V_11, V_12, V_22 by per-point node
        doubling, which judges just these: the value for value(), with the
        gradient for gradient(), all six for hessian()."""
        x, tau = _states(x, self.d), _maturity(tau)
        if self._single is not None:
            k = self._k
            out = np.zeros((6, x.shape[0]))
            out[0], out[1 + k], out[3 + 2 * k] = (
                self._single.value_delta_gamma(tau, x[:, k]))
            return out[:count]
        return _node_doubling(
            lambda rows, n: self._moments_raw(tau, x[rows, 0], x[rows, 1], n,
                                              count),
            x.shape[0], count, "sum-digital")

    def value(self, tau, x):
        return self._moments(tau, x, 1)[0]

    def gradient(self, tau, x):
        return self._moments(tau, x, 3)[1:].T

    def hessian(self, tau, x):
        return self._moments(tau, x, 6)[[3, 4, 4, 5]].T.reshape(-1, 2, 2)


class BMQuadratic:
    """f(x) = sum x_i^2 under Brownian motion, case C1 with tr A = tr_a.

    F(tau, x) = sum x_i^2 + tr_a tau (tr_a = d if None) solves the pricing
    equation exactly for every constant A = sigma sigma^T of trace tr_a;
    used as an analytic oracle. ``check_priced`` refuses any other model.
    """

    def __init__(self, d, T, tr_a=None):
        self.d = int(d)
        self.T = check_horizon(T)
        self.tr_a = float(self.d if tr_a is None else tr_a)
        self.theta_hint = 0.0

    def payoff(self, x):
        x = _states(x, self.d)
        return np.multiply(x, x, order="C").sum(axis=1)

    def value(self, tau, x):
        x, tau = _states(x, self.d), _maturity(tau)
        return np.multiply(x, x, order="C").sum(axis=1) + self.tr_a * tau

    def gradient(self, tau, x):
        x = _states(x, self.d)
        _maturity(tau)
        return 2.0 * x

    def hessian(self, tau, x):
        x = _states(x, self.d)
        _maturity(tau)
        return np.broadcast_to(
            2.0 * np.eye(self.d), (x.shape[0], self.d, self.d)
        ).copy()


def _factor(kind: str, p: dict, T: float) -> Factor1D:
    """A factor at horizon T from its config parameters (alpha: power)."""
    return Factor1D(kind, T=T,
                    **{k: p[k] for k in ("K", "alpha", "s") if k in p})


def make_pricing(key: str, params: dict, T: float):
    """Catalogue constructor used by the CLI config."""
    p = dict(params or {})
    if key in ("call", "digital", "power"):
        return ProductPricing([_factor(key, p, T)], T)
    if key == "product":
        return ProductPricing([_factor(f["kind"], f, T) for f in p["factors"]],
                              T)
    if key == "sum_digital_2d":
        return SumDigital2D(
            K=p.get("K", 2.0), lam=p.get("lam", (1.0, 1.0)),
            s=p.get("s", (1.0, 1.0)), T=T,
        )
    if key == "bm_quadratic":
        return BMQuadratic(d=p.get("d", 1), T=T, tr_a=p.get("tr_a"))
    raise ArgumentError(f"unknown payoff key {key!r}")


def check_priced(spec, pricing) -> None:
    """Refuse a payoff whose price is not the model's: the hedge's error
    identity needs F to solve the model's backward PDE.

    The dimensions agree. A product or sum-digital needs case C2 at its own
    vols, and no corr but the identity with two or more non-const factors or
    for the sum-digital. ``BMQuadratic`` needs case C1 at its tr A. Drift
    never enters F. Other pricing objects are checked for d only.
    """
    def refuse(why):
        raise ArgumentError(f"the payoff's price is not the model's: {why}")

    if pricing.d != spec.d:
        raise ArgumentError(f"the payoff has dimension {pricing.d}, "
                            f"the model {spec.d}")
    if isinstance(pricing, BMQuadratic):
        tr_a = pricing.tr_a
        if spec.case != "C1" or np.trace(a_matrix(spec, spec.x0)) != tr_a:
            refuse(f"bm_quadratic prices |x|^2 + {tr_a!r} tau, which needs "
                   f"case C1 with tr sigma sigma^T = {tr_a!r}")
        return
    if isinstance(pricing, ProductPricing):
        vols = {i: f.s for i, f in enumerate(pricing.factors)
                if f.kind != "const"}
    elif isinstance(pricing, SumDigital2D):
        vols = dict(enumerate(pricing.s))
    else:
        return
    if spec.case != "C2":
        refuse("the catalogue prices it under case C2 only")
    for i, s in vols.items():
        if s != spec.vols[i]:
            refuse(f"coordinate {i} is priced at vol {float(s)!r}, the "
                   f"model's is {float(spec.vols[i])!r}")
    if (len(vols) > 1 and spec.corr is not None
            and not np.array_equal(spec.corr, np.eye(spec.d))):
        refuse("it is priced for independent assets, and corr is not the "
               "identity")
