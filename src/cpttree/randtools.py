"""Constructive probability toolkit: uniform splitting, conditional-quantile
transport and uniformization.

These realize, at floating-point precision, the measure-theoretic devices
used to manufacture independent randomness: one uniform carries countably
many independent uniforms (binary digits dealt round-robin), a conditional
quantile transform couples a marginal with a kernel, and plugging a random
variable into its own atomless cdf yields a uniform independent of the
conditioning variable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .tree import _count, check_masses, float_vector

_MANTISSA_BUDGET = 52

# Asymptotic Kolmogorov critical value at significance 0.01, scaled by 1/sqrt(n).
KS_CRITICAL_001 = 1.63
# Chi-square critical value at significance 0.01 with (4 - 1)^2 = 9 degrees of
# freedom, the double that scipy.stats.chi2.ppf(0.99, 9) returns.
CHI2_CRITICAL_001_DF9 = 21.665994333461924
# quantile bins per sample of the chi-square test, the 4 of its critical value
_CHI2_BINS = 4
# a rise of uniformize's cdf between two grid points that is bisected as a
# possible atom; it warns where half of it persists at width 1e-9
_UNIFORMIZE_ATOM_TOL = 1e-3


def _digit(m, k: int):
    """Binary digit k >= 1 of the u in [0, 1) whose first 52 digits are m.

    m = floor(u * 2**52), a Python int or a uint64 array; digit k of u is
    bit 52 - k of m.
    """
    return (m >> (_MANTISSA_BUDGET - k)) & 1


def _deal(m, l: int, bits: int) -> list:
    """Numerators of the round-robin deal: output i collects digits i + 1,
    i + 1 + l, ... of m (a Python int or a uint64 array), ``bits`` of them,
    as an integer over 2**bits.

    Every partial sum of the deal is a dyadic of at most 52 bits, so scaling
    these integers by 2**-bits gives the float digit-by-digit sum exactly.
    The deal is a bitwise OR over the digits of m, so it is the OR of the
    deals of m's bytes, each in its place, which ``_split_uniform_array``
    reads from tables.
    """
    outs = []
    for i in range(l):
        v = 0
        for r in range(bits):
            v = (v << 1) | _digit(m, i + 1 + r * l)
        outs.append(v)
    return outs


def split_uniform(u: float, l: int, bits: int) -> tuple[float, ...]:
    """Deal the binary digits of u round-robin into l values in [0, 1).

    Digit j goes to output j mod l. Each output receives ``bits`` digits, so
    bits * l must fit the double mantissa; exact on dyadic inputs. Use
    ``split_bitstring`` for arbitrary-precision input.
    """
    if not 0.0 <= u < 1.0:
        raise ValidationError("u must lie in [0, 1)")
    l, bits = _count(l, "l"), _count(bits, "bits")
    if l < 1 or bits < 1:
        raise ValidationError("need l >= 1 and bits >= 1")
    if bits * l > _MANTISSA_BUDGET:
        raise ValidationError(f"bits * l = {bits * l} exceeds the {_MANTISSA_BUDGET}-bit budget")
    m = int(math.ldexp(u, _MANTISSA_BUDGET))
    return tuple(math.ldexp(v, -bits) for v in _deal(m, l, bits))


def _split_uniform_array(u: np.ndarray, l: int, bits: int) -> list[np.ndarray]:
    """``split_uniform`` of every entry of u (doubles in [0, 1)), as l columns.

    Entry [j][b] of an output's table is that output's ``_deal`` of b << 8j,
    byte j's digits at their places in the output, so the output is the OR
    of one lookup per byte of m: 7 gathers in place of a shift, mask, shift
    and OR, each over the whole array, per digit.
    """
    m = np.ldexp(u, _MANTISSA_BUDGET).astype(np.uint64)
    # m < 2**52 fills the low 7 of its 8 bytes
    byte = m.astype("<u8", copy=False).view(np.uint8).reshape(*m.shape, 8)
    places = np.arange(7, dtype=np.uint64)[:, None] * np.uint64(8)
    outs = []
    for table in _deal(np.arange(256, dtype=np.uint64) << places, l, bits):
        v = table[0][byte[..., 0]]
        for j in range(1, 7):
            v |= table[j][byte[..., j]]
        outs.append(np.ldexp(v.astype(np.float64), -bits))
    return outs


def split_bitstring(bits_str: str, l: int) -> tuple[str, ...]:
    """Round-robin deal of an explicit 0/1 string; no precision budget."""
    l = _count(l, "l")
    if l < 1:
        raise ValidationError("need l >= 1")
    if any(c not in "01" for c in bits_str):
        raise ValidationError("bit string must contain only 0 and 1")
    return tuple(bits_str[i::l] for i in range(l))


def recombine_uniform(parts: Sequence[float], bits: int) -> float:
    """Inverse deal: interleave the digit streams back into one uniform.

    Every part must lie in [0, 1), as u must for ``split_uniform``.
    """
    l = len(parts)
    bits = _count(bits, "bits")
    if l < 1 or bits < 1:
        raise ValidationError("need at least one part and bits >= 1")
    if bits * l > _MANTISSA_BUDGET:
        raise ValidationError(f"bits * l = {bits * l} exceeds the {_MANTISSA_BUDGET}-bit budget")
    if not all(0.0 <= p < 1.0 for p in parts):
        raise ValidationError("every part must lie in [0, 1)")
    mants = [int(math.ldexp(p, _MANTISSA_BUDGET)) for p in parts]
    m = 0
    for r in range(1, bits + 1):
        for p in mants:
            m = (m << 1) | _digit(p, r)
    return math.ldexp(m, -bits * l)


@dataclass(frozen=True)
class FiniteJoint:
    """Finite joint law on (y, z) atoms, decomposed as marginal times kernel."""

    atoms: tuple[tuple[tuple[float, ...], tuple[float, ...], float], ...]

    def __post_init__(self) -> None:
        check_masses([p for _, _, p in self.atoms], "joint law", "probability", "probabilities")

    @classmethod
    def from_list(
        cls, atoms: Sequence[tuple[Sequence[float] | float, Sequence[float] | float, float]]
    ) -> "FiniteJoint":
        return cls(tuple((float_vector(y), float_vector(z), float(p)) for y, z, p in atoms))

    @cached_property
    def y_marginal(self) -> dict[tuple[float, ...], float]:
        out: dict[tuple[float, ...], float] = {}
        for y, _, p in self.atoms:
            out[y] = out.get(y, 0.0) + p
        return out

    def conditional(self, y: tuple[float, ...]) -> list[tuple[tuple[float, ...], float]]:
        """Conditional z-law given y, lexicographically sorted, merged atoms."""
        mass = self.y_marginal.get(y)
        if mass is None:
            nearest = min(self.y_marginal, key=lambda s: sum((a - b) ** 2 for a, b in zip(s, y)))
            raise ValidationError(
                f"y={y} outside the marginal support; nearest support point is {nearest}"
            )
        cond: dict[tuple[float, ...], float] = {}
        for yy, z, p in self.atoms:
            if yy == y:
                cond[z] = cond.get(z, 0.0) + p / mass
        return sorted(cond.items())


def transport(joint: FiniteJoint, y: Sequence[float] | float, e: float) -> tuple[float, ...]:
    """Conditional quantile of the kernel at y, driven by the uniform e.

    Integrating e over [0, 1) reproduces the conditional law exactly, so
    (Y, transport(Y, E)) with E uniform and independent has the joint law.
    """
    if not 0.0 <= e < 1.0:
        raise ValidationError("e must lie in [0, 1)")
    cond = joint.conditional(float_vector(y))
    cum = 0.0
    for z, p in cond:
        cum += p
        if e < cum:
            return z
    return cond[-1][0]


def transport_breakpoints(joint: FiniteJoint, y: Sequence[float] | float) -> tuple[float, ...]:
    """Cumulative boundaries of the conditional quantile intervals at y."""
    cond = joint.conditional(float_vector(y))
    cum = [0.0]
    for _, p in cond:
        cum.append(cum[-1] + p)
    cum[-1] = 1.0
    return tuple(cum)


def reconstruct_joint(joint: FiniteJoint) -> FiniteJoint:
    """Rebuild the joint from its marginal and transport over the breakpoint grid."""
    atoms = []
    for y, mass in joint.y_marginal.items():
        cuts = transport_breakpoints(joint, y)
        for a, b in zip(cuts, cuts[1:]):
            z = transport(joint, y, 0.5 * (a + b))
            atoms.append((y, z, mass * (b - a)))
    return FiniteJoint(tuple(atoms))


def tv_distance(a: FiniteJoint, b: FiniteJoint) -> float:
    """Total variation distance between two finite joints on merged atoms."""

    def merged(j: FiniteJoint) -> dict:
        out: dict = {}
        for y, z, p in j.atoms:
            out[(y, z)] = out.get((y, z), 0.0) + p
        return out

    ma, mb = merged(a), merged(b)
    keys = set(ma) | set(mb)
    return 0.5 * sum(abs(ma.get(k, 0.0) - mb.get(k, 0.0)) for k in keys)


def uniformize(F: Callable[[float], float], x: float) -> float:
    """F(x) after checking F is a nondecreasing [0,1]-valued cdf on a grid of
    501 points over [-s, s], s = max(50, 2|x|).

    An apparent jump on the grid, a rise above ``_UNIFORMIZE_ATOM_TOL``, is
    bisected down to width 1e-9; a persisting mass gap means the law has an
    atom, which breaks the uniform-output guarantee, so a warning is emitted.
    A value of F that is not finite, on the grid, in a bisection or at x, is
    refused: NaN would pass every range and monotonicity test.
    """

    def cdf(t: float) -> float:
        value = float(F(t))
        if not np.isfinite(value):
            raise ValidationError(f"cdf value at {t:.6g} is not finite")
        return value

    if not -np.inf < x < np.inf:  # NaN fails too
        raise ValidationError("x must be finite")
    span = max(50.0, 2.0 * abs(x))
    g = np.linspace(-span, span, 501)
    vals = np.array([cdf(t) for t in g])
    if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
        raise ValidationError("cdf values must lie in [0, 1]")
    if np.any(np.diff(vals) < -1e-12):
        raise ValidationError("cdf not monotone on the check grid")
    for i in np.nonzero(np.diff(vals) > _UNIFORMIZE_ATOM_TOL)[0]:
        lo, hi = float(g[i]), float(g[i + 1])
        flo, fhi = float(vals[i]), float(vals[i + 1])
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            fmid = cdf(mid)
            if fmid - flo > fhi - fmid:
                hi, fhi = mid, fmid
            else:
                lo, flo = mid, fmid
        if fhi - flo > 0.5 * _UNIFORMIZE_ATOM_TOL:
            warnings.warn(
                f"atomless law required: cdf jumps by {fhi - flo:.3g} near {lo:.6g}",
                stacklevel=2,
            )
            break
    return cdf(x)


def _finite_samples(samples: Sequence[float]) -> np.ndarray:
    """``samples`` as a float array; NaN and inf are refused, since NaN would
    pass no comparison of a test and inf would decide its statistic."""
    x = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValidationError("samples must be finite")
    return x


def ks_uniform_statistic(samples: Sequence[float]) -> float:
    u = np.sort(_finite_samples(samples))
    n = u.size
    if n == 0:
        raise ValidationError("need samples")
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))


def ks_uniform_pass(samples: Sequence[float]) -> tuple[bool, float, float]:
    """One-sample KS test against Uniform[0,1] at significance 0.01."""
    d = ks_uniform_statistic(samples)
    crit = KS_CRITICAL_001 / np.sqrt(len(samples))
    return d < crit, d, float(crit)


def chi2_independence_pass(a: Sequence[float], b: Sequence[float]) -> tuple[bool, float, float]:
    """Pearson chi-square independence test on a 4 x 4 quantile-binned
    contingency grid at significance 0.01."""
    x = _finite_samples(a)
    y = _finite_samples(b)
    if x.size != y.size or x.size == 0:
        raise ValidationError("need two equal-length nonempty samples")
    qx = np.quantile(x, np.linspace(0, 1, _CHI2_BINS + 1)[1:-1])
    qy = np.quantile(y, np.linspace(0, 1, _CHI2_BINS + 1)[1:-1])
    cell = np.searchsorted(qx, x, side="right")
    cell *= _CHI2_BINS
    cell += np.searchsorted(qy, y, side="right")
    table = np.bincount(cell, minlength=_CHI2_BINS**2).reshape(_CHI2_BINS, -1)
    n = x.size
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    if np.any(expected == 0.0):
        raise ValidationError("degenerate binning: empty expected cell")
    stat = float(np.sum((table - expected) ** 2 / expected))
    crit = CHI2_CRITICAL_001_DF9
    return stat < crit, stat, crit


def conditional_uniformize(
    samples: Sequence[tuple[float, float]],
    H: Callable[[float, float], float],
    H_left: Callable[[float, float], float] | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, bool]:
    """Apply the conditional cdf H(x | w) to each (x, w) sample.

    With an atomless conditional law the output is uniform and independent
    of w. Laws with atoms break that guarantee, so the randomized-rank
    extension u = H(x-|w) + V (H(x|w) - H(x-|w)) is applied instead and the
    output flagged: either pass the left limit H_left explicitly, or atoms
    are detected by probing H just below each sample point and the probed
    value serves as the left limit. Both paths need a generator for V.
    """
    probe = 1e-9
    atom_tol = 1e-6
    left_fn = H_left
    # H(x | w) of each sample, evaluated once and overwritten by its output
    out = np.fromiter((float(H(x, w)) for x, w in samples), dtype=float, count=len(samples))
    if left_fn is None:
        has_atoms = any(
            hi - float(H(x - probe, w)) > atom_tol for hi, (x, w) in zip(out, samples)
        )
        if has_atoms:
            warnings.warn(
                "conditional law has atoms; applying the randomized-rank extension",
                stacklevel=2,
            )
            left_fn = lambda x, w: H(x - probe, w)
    flagged = left_fn is not None
    if not flagged:
        # a NaN fails both comparisons
        if not np.all((-1e-12 <= out) & (out <= 1.0 + 1e-12)):
            raise ValidationError("conditional cdf values must lie in [0, 1]")
        # min(1.0, max(0.0, u)) of each u, which makes -0.0 0.0 too
        out[out <= 0.0] = 0.0
        out[out > 1.0] = 1.0
        return out, False
    if rng is None:
        raise ValidationError("the randomized-rank extension needs a generator")
    # in sample order, one draw of rng each
    for i, (x, w) in enumerate(samples):
        hi = out[i]
        lo = float(left_fn(x, w))
        if lo > hi + 1e-12:
            raise ValidationError("H_left must not exceed H")
        u = lo + float(rng.uniform()) * (hi - lo)
        if not -1e-12 <= u <= 1.0 + 1e-12:
            raise ValidationError("conditional cdf values must lie in [0, 1]")
        out[i] = min(1.0, max(0.0, u))
    return out, flagged


# --- seeded self-test suite --------------------------------------------------

SELF_TEST_SEED = 20240501


def _random_joint(rng: np.random.Generator, max_atoms: int = 20) -> FiniteJoint:
    n = int(rng.integers(2, max_atoms + 1))
    ys = rng.integers(0, 4, n).astype(float)
    zs = np.round(rng.normal(size=n), 3)
    w = rng.uniform(0.1, 1.0, n)
    w = w / w.sum()
    # exact unit mass: fold rounding into the largest atom
    w[np.argmax(w)] += 1.0 - w.sum()
    return FiniteJoint.from_list([(y, z, p) for y, z, p in zip(ys, zs, w)])


def toolkit_self_test(seed: int = SELF_TEST_SEED) -> dict:
    """Deterministic statistical suite; every check is seeded and reproducible."""
    seed = _count(seed, "seed")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    def record(name: str, passed: bool, statistic: float, threshold: float) -> None:
        checks.append(
            {"name": name, "passed": bool(passed), "statistic": float(statistic), "threshold": float(threshold)}
        )

    exact = split_uniform(0.5, 2, 8) == (0.5, 0.0) and split_uniform(0.75, 2, 8) == (0.5, 0.5)
    record("split_uniform_dyadic_exact", exact, 0.0 if exact else 1.0, 0.5)

    first, second = _split_uniform_array(rng.random(100_000), 2, 26)
    ok, stat, crit = chi2_independence_pass(first, second)
    record("split_uniform_chi2_independence", ok, stat, crit)

    dyadic = [i / 64.0 for i in range(64)]
    round_trip = all(recombine_uniform(split_uniform(v, 2, 8), 8) == v for v in dyadic)
    record("split_recombine_dyadic", round_trip, 0.0 if round_trip else 1.0, 0.5)

    worst_tv = 0.0
    for _ in range(50):
        joint = _random_joint(rng)
        worst_tv = max(worst_tv, tv_distance(joint, reconstruct_joint(joint)))
    record("transport_reconstruction_tv", worst_tv <= 1e-12, worst_tv, 1e-12)

    x = rng.exponential(size=10_000)
    u_out = 1.0 - np.exp(-x)
    ok, stat, crit = ks_uniform_pass(u_out)
    record("uniformize_ks", ok, stat, crit)

    w = rng.uniform(0.0, 2.0, 10_000)
    xw = w + rng.exponential(size=10_000)
    u_cond, _ = conditional_uniformize(
        list(zip(xw, w)), lambda x_, w_: 1.0 - np.exp(-(x_ - w_))
    )
    ok1, stat1, crit1 = ks_uniform_pass(u_cond)
    record("conditional_uniformize_ks", ok1, stat1, crit1)
    ok2, stat2, crit2 = chi2_independence_pass(u_cond, w)
    record("conditional_uniformize_chi2", ok2, stat2, crit2)

    return {"seed": seed, "checks": checks, "all_passed": all(c["passed"] for c in checks)}
