"""Market builders: i.i.d. product trees, discretized diffusions, exponential prices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .tree import ScenarioTree, _count, _fmt, content_lines, float_vector

PMF_SUM_TOL = 1e-9
# random directions per state, and their seed, of the ellipticity spot-check
_ELLIPTICITY_DIRECTIONS = 16
_ELLIPTICITY_SEED = 0

# (probability, outcome vector)
Pmf = list[tuple[float, tuple[float, ...]]]


def normalize_pmf(pmf: Sequence[tuple[float, Sequence[float] | float]]) -> Pmf:
    """Validate and normalize a finite pmf; scalar outcomes become 1-vectors."""
    if not pmf:
        raise ValidationError("empty pmf")
    out: Pmf = []
    total = 0.0
    for p, v in pmf:
        if not 0.0 < p <= 1.0:
            raise ValidationError(f"pmf probability {p} outside (0, 1]")
        out.append((float(p), float_vector(v)))
        total += float(p)
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise ValidationError(f"pmf probabilities sum to {total!r}")
    dim = len(out[0][1])
    if any(len(v) != dim for _, v in out):
        raise ValidationError("pmf outcomes must share one dimension")
    return [(p / total, v) for p, v in out]


def coin_pmf(magnitude: float = 1.0) -> Pmf:
    """Fair two-point pmf on +-magnitude."""
    m = float(magnitude)
    return [(0.5, (m,)), (0.5, (-m,))]


def uniform_quantile_pmf(lo: float, hi: float, n_atoms: int) -> Pmf:
    """Equal-mass discretization of the uniform law on [lo, hi].

    Atom i sits at the i/n quantile, so the discrete cdf agrees with the
    continuous one at every atom.
    """
    if _count(n_atoms, "n_atoms") < 1:
        raise ValidationError("n_atoms must be >= 1")
    if not hi > lo:
        raise ValidationError("need hi > lo")
    with np.errstate(over="ignore"):
        width = hi - lo
    if not np.isfinite(width):  # an infinite bound, or a width that overflows
        raise ValidationError("need finite lo and hi with a finite hi - lo")
    atoms = lo + width * np.arange(1, n_atoms + 1) / n_atoms
    return [(1.0 / n_atoms, (float(a),)) for a in atoms]


def build_market_from_level_pmfs(level_pmfs: Sequence[Pmf]) -> ScenarioTree:
    """Product tree whose step-t increments are drawn i.i.d. from level_pmfs[t]."""
    pmfs = [normalize_pmf(p) for p in level_pmfs]
    if not pmfs:
        raise ValidationError("need at least one level pmf")
    d = len(pmfs[0][0][1])
    if any(len(p[0][1]) != d for p in pmfs):
        raise ValidationError("level pmfs must share the outcome dimension")
    parent = [-1]
    prob = [1.0]
    incs: list[tuple[float, ...]] = [(0.0,) * d]
    frontier = [0]
    for pmf in pmfs:
        nxt = []
        for node in frontier:
            for p, v in pmf:
                parent.append(node)
                prob.append(p)
                incs.append(v)
                nxt.append(len(parent) - 1)
        frontier = nxt
    return ScenarioTree(
        horizon=len(pmfs),
        asset_dim=d,
        parent=tuple(parent),
        prob=tuple(prob),
        increments=tuple(incs),
    )


def build_iid_market(increment_pmf: Sequence[tuple[float, Sequence[float] | float]], horizon: int) -> ScenarioTree:
    """Tree with identical branching at every node: increments i.i.d. over time."""
    if _count(horizon, "horizon") < 1:
        raise ValidationError("horizon must be >= 1")
    pmf = normalize_pmf(increment_pmf)
    return build_market_from_level_pmfs([pmf] * horizon)


@dataclass(frozen=True)
class DiffusionSpec:
    """Bounded-coefficient difference equation Y' = Y + drift(Y) + vol(Y) Z."""

    state_dim: int
    noise_dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    volatility: Callable[[np.ndarray], np.ndarray]
    ellipticity_floor: float
    noise_pmf: Pmf
    initial_state: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.state_dim < 1 or self.noise_dim < 1:
            raise ValidationError("state_dim and noise_dim must be >= 1")
        # a NaN floor flags no direction and an infinite one every direction
        if not 0.0 < self.ellipticity_floor < np.inf:
            raise ValidationError("ellipticity floor must be positive and finite")
        if len(self.initial_state) != self.state_dim:
            raise ValidationError("initial state dimension != state_dim")
        object.__setattr__(self, "noise_pmf", normalize_pmf(self.noise_pmf))
        if len(self.noise_pmf[0][1]) != self.noise_dim:
            raise ValidationError("noise pmf dimension != noise_dim")


def ellipticity_violations(
    spec: DiffusionSpec, states: Sequence[np.ndarray]
) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Spot-check v' vol(x) vol(x)' v >= floor * |v|^2 at each state x, for
    the unit axes and up to 16 seeded Gaussian directions v per state."""
    rng = np.random.default_rng(_ELLIPTICITY_SEED)
    bad = []
    for x in states:
        sig = np.asarray(spec.volatility(np.asarray(x, dtype=float)), dtype=float)
        if sig.shape != (spec.state_dim, spec.noise_dim):
            raise ValidationError("volatility must return a state_dim x noise_dim matrix")
        gram = sig @ sig.T
        dirs = [np.eye(spec.state_dim)[i] for i in range(spec.state_dim)]
        for _ in range(_ELLIPTICITY_DIRECTIONS):
            v = rng.standard_normal(spec.state_dim)
            norm = np.linalg.norm(v)
            if norm > 0:
                dirs.append(v / norm)
        for v in dirs:
            if float(v @ gram @ v) < spec.ellipticity_floor * float(v @ v) - 1e-12:
                bad.append((tuple(map(float, x)), tuple(map(float, v))))
    return bad


def build_discretized_diffusion(
    spec: DiffusionSpec, horizon: int, traded: Sequence[int]
) -> ScenarioTree:
    """Scenario tree following the state recursion; increments are the traded coordinates.

    An ellipticity spot-check failure does not abort the build: it is recorded
    on the tree's warnings so a certificate can still be attempted.
    """
    if _count(horizon, "horizon") < 1:
        raise ValidationError("horizon must be >= 1")
    traded = [int(i) for i in traded]
    if not traded or len(set(traded)) != len(traded):
        raise ValidationError("traded must be a nonempty set of indices")
    if any(i < 0 or i >= spec.state_dim for i in traded):
        raise ValidationError("traded index out of range")
    parent = [-1]
    prob = [1.0]
    d = len(traded)
    incs: list[tuple[float, ...]] = [(0.0,) * d]
    states = [tuple(float(v) for v in spec.initial_state)]
    frontier = [0]
    for _ in range(horizon):
        nxt = []
        for node in frontier:
            y = np.array(states[node])
            mu = np.asarray(spec.drift(y), dtype=float)
            sig = np.asarray(spec.volatility(y), dtype=float)
            for p, z in spec.noise_pmf:
                y_next = y + mu + sig @ np.array(z)
                parent.append(node)
                prob.append(p)
                incs.append(tuple(float(y_next[i] - y[i]) for i in traded))
                states.append(tuple(float(v) for v in y_next))
                nxt.append(len(parent) - 1)
        frontier = nxt
    bad = ellipticity_violations(spec, [np.array(s) for s in states[:200]])
    warnings = ()
    if bad:
        x, v = bad[0]
        warnings = (
            f"ellipticity spot-check failed at state {tuple(_fmt(c) for c in x)} "
            f"direction {tuple(_fmt(c) for c in v)}",
        )
    return ScenarioTree(
        horizon=horizon,
        asset_dim=d,
        parent=tuple(parent),
        prob=tuple(prob),
        increments=tuple(incs),
        states=tuple(states),
        warnings=warnings,
    )


def exponentiate_prices(tree: ScenarioTree) -> ScenarioTree:
    """Replace increments of a scalar-state tree by exp(state) differences."""
    if tree.states is None or len(tree.states[0]) != 1 or tree.asset_dim != 1:
        raise ValidationError("exponentiate_prices needs a scalar state path")
    prices = [float(np.exp(s[0])) for s in tree.states]
    incs: list[tuple[float, ...]] = [(0.0,)]
    for i in range(1, tree.n_nodes):
        incs.append((prices[i] - prices[tree.parent[i]],))
    return ScenarioTree(
        horizon=tree.horizon,
        asset_dim=1,
        parent=tree.parent,
        prob=tree.prob,
        increments=tuple(incs),
        states=tuple((p,) for p in prices),
        warnings=tree.warnings,
    )


def emit_pmf(pmf: Pmf) -> str:
    lines = [f"atom {_fmt(p)} " + " ".join(_fmt(v) for v in vec) for p, vec in pmf]
    return "\n".join(lines) + "\n"


def parse_pmf(text: str) -> Pmf:
    """Parse 'atom <prob> <v1> ...' lines into a pmf."""
    pmf: list[tuple[float, tuple[float, ...]]] = []
    for ln in content_lines(text):
        tok = ln.split()
        if tok[0] != "atom" or len(tok) < 3:
            raise ValidationError(f"bad pmf line {ln!r}")
        try:
            pmf.append((float(tok[1]), tuple(float(v) for v in tok[2:])))
        except ValueError as exc:
            raise ValidationError(f"bad pmf line {ln!r}") from exc
    return normalize_pmf(pmf)
