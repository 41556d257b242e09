"""No-arbitrage checks and quantitative no-arbitrage certificates.

On a finite tree, absence of arbitrage reduces to a one-step check at every
non-terminal node: no direction may avoid losses while gaining somewhere.
The quantitative certificate strengthens this to "every unit direction loses
at least kappa with conditional probability at least pi". Every check is a
pass over the equal-size family blocks of ``ScenarioTree.families``: the
direction dots are one stacked product per direction, the d >= 2 rank test one
stacked ``matrix_rank`` per block. Only the d >= 2 arbitrage LP is per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import CertificateError, ValidationError
from .tree import PROB_TOL, ScenarioTree, _count, segment_sums

# floats of one (candidate, child) temporary in the tail pass
_TAIL_FLOATS = 1 << 16
# seed of the Gaussian directions ``unit_directions`` draws for d >= 4
_DIRECTION_SEED = 13


@dataclass(frozen=True)
class NAResult:
    ok: bool
    node: int | None = None
    direction: tuple[float, ...] | None = None


@dataclass(frozen=True)
class MarcheCertificate:
    """Per non-terminal node (kappa, pi): every tested unit direction loses at
    least kappa with conditional probability at least pi.

    For multi-asset trees the guarantee covers only the sampled directions
    (``sampled`` is then True); in one dimension the +-1 scan is exhaustive.
    """

    entries: Mapping[int, tuple[float, float]]
    sampled: bool
    direction_samples: int


def _spans(tree: ScenarioTree) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest child increment of every non-terminal node (d = 1)."""
    kids, first = tree.child_layout
    v, starts = tree.increment_matrix[kids, 0], first[tree.nonterminal_ids]
    return np.minimum.reduceat(v, starts), np.maximum.reduceat(v, starts)


def _first(tree: ScenarioTree, flags: np.ndarray) -> int | None:
    """The first flagged node in nonterminal order, or None."""
    return int(tree.nonterminal_ids[flags.argmax()]) if flags.any() else None


def _one_step_arbitrage(incs: np.ndarray) -> np.ndarray | None:
    """Direction that never loses and sometimes gains, or None (d >= 2)."""
    scale = float(np.abs(incs).sum())
    if scale == 0.0:
        return None
    # scipy costs most of a cold start; only this multi-asset LP needs it.
    from scipy.optimize import linprog

    res = linprog(
        c=-incs.sum(axis=0),
        A_ub=-incs,
        b_ub=np.zeros(len(incs)),
        bounds=[(-1.0, 1.0)] * incs.shape[1],
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"arbitrage LP failed: {res.message}")
    if -res.fun > 1e-9 * max(1.0, scale):
        return np.asarray(res.x)
    return None


def check_NA(tree: ScenarioTree) -> NAResult:
    """True iff no one-step arbitrage exists at any node; witness otherwise."""
    if tree.asset_dim == 1:
        lo, hi = _spans(tree)
        hit = ((lo >= 0.0) & (hi > 0.0)) | ((hi <= 0.0) & (lo < 0.0))
        if not hit.any():
            return NAResult(ok=True)
        k = int(hit.argmax())
        return NAResult(False, int(tree.nonterminal_ids[k]), (1.0,) if lo[k] >= 0.0 else (-1.0,))
    kids, first = tree.child_layout
    for node in tree.nonterminal_ids.tolist():
        incs = tree.increment_matrix[kids[first[node] : first[node + 1]]]
        direction = _one_step_arbitrage(incs)
        if direction is not None:
            return NAResult(ok=False, node=node, direction=tuple(map(float, direction)))
    return NAResult(ok=True)


def check_R(tree: ScenarioTree) -> tuple[bool, int | None]:
    """Non-degeneracy: conditional supports are not confined to a proper affine subspace."""
    if tree.asset_dim == 1:
        flat = np.equal(*_spans(tree))
    else:
        flat = np.empty(len(tree.nonterminal_ids), dtype=bool)
        for rows, kids in tree.families(tree.asset_dim):
            incs = tree.increment_matrix[kids]
            flat[rows] = np.linalg.matrix_rank(incs - incs[:, :1]) < tree.asset_dim
    node = _first(tree, flat)
    return node is None, node


def unit_directions(d: int, n_samples: int) -> np.ndarray:
    """Quasi-uniform unit vectors: exact +-1 for d=1, equiangular for d=2,
    spherical spiral for d=3, Gaussian normalization beyond, seeded with
    ``_DIRECTION_SEED``."""
    n_samples = _count(n_samples, "the count of direction samples")
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if n_samples < 2:
        raise ValidationError("need at least 2 direction samples")
    if d == 2:
        ang = 2.0 * np.pi * np.arange(n_samples) / n_samples
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if d == 3:
        k = np.arange(n_samples) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / n_samples)
        theta = np.pi * (1.0 + 5.0**0.5) * k
        return np.column_stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
        )
    rng = np.random.default_rng(_DIRECTION_SEED)
    v = rng.standard_normal((n_samples, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _family_dots(tree: ScenarioTree, dirs: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Per block of ``tree.families``: its rows, the (rows, directions,
    children) dots of the children's increments, the children's probabilities."""
    for rows, kids in tree.families(len(dirs)):
        # one (children, d) @ (d,) product per family and direction, as a loop
        # over families makes it (``incs @ dirs.T`` rounds differently); for
        # d = 1 the increments and their negatives, exactly
        incs = tree.increment_matrix[kids]
        yield rows, np.stack([incs @ xi for xi in dirs], axis=1), tree.prob_array[kids]


def _tails_at(
    dots: np.ndarray, probs: np.ndarray, r: np.ndarray, i: np.ndarray, level: np.ndarray
) -> np.ndarray:
    """``probs[r][dots[r, i] <= level].sum()`` per (row r, direction i) pair,
    bitwise: the selected probabilities of all pairs, gathered in order, are
    summed per pair by ``segment_sums``. ``_TAIL_FLOATS`` (pair, child) cells
    at a time."""
    out = np.empty(r.size)
    step = max(1, _TAIL_FLOATS // dots.shape[2])
    for a in range(0, r.size, step):
        rows = r[a : a + step]
        pair, child = (dots[rows, i[a : a + step]] <= level[a : a + step, None]).nonzero()
        counts = np.bincount(pair, minlength=rows.size)
        out[a : a + step] = segment_sums(probs[rows[pair], child], counts.cumsum() - counts)
    return out


def _level_tails(tree: ScenarioTree, dirs: np.ndarray, level: np.ndarray) -> np.ndarray:
    """(nodes, directions) tail masses P(xi . dS <= level[node] | node)."""
    out = np.empty((len(level), len(dirs)))
    for rows, dots, probs in _family_dots(tree, dirs):
        r, i = np.indices(dots.shape[:2]).reshape(2, -1)
        out[rows] = _tails_at(dots, probs, r, i, level[rows][r]).reshape(len(rows), -1)
    return out


def _per_level(value: float | Sequence[float], horizon: int, name: str) -> list[float]:
    vals = [float(v) for v in np.atleast_1d(value)]
    if len(vals) not in (1, horizon):
        raise ValidationError(f"{name} must be scalar or one value per period (T={horizon})")
    return vals * horizon if len(vals) == 1 else vals


def marche_certificate(
    tree: ScenarioTree,
    pi: float | Sequence[float],
    direction_samples: int = 128,
) -> MarcheCertificate:
    """Per-node maximal kappa at the requested pi level.

    Fails with the witness node when no-arbitrage is violated or when a node
    cannot grant the requested tail mass in every tested direction. The
    tail comparison carries the probability-sum tolerance: a tail that is
    exactly pi up to summation rounding counts as reaching it.
    """
    na = check_NA(tree)
    if not na.ok:
        raise CertificateError(f"no-arbitrage violated at node {na.node}", node=na.node)
    pis = _per_level(pi, tree.horizon, "pi")
    if any(not 0.0 < p <= 1.0 for p in pis):
        raise ValidationError("pi must lie in (0, 1]")
    dirs = unit_directions(tree.asset_dim, direction_samples)
    nodes = tree.nonterminal_ids
    level_pi = np.array(pis)[tree.depth[nodes]]
    kappa = np.empty(len(nodes))
    for rows, dots, probs in _family_dots(tree, dirs):
        # kappa is the first candidate loss, in descending magnitude, whose
        # tail reaches pi: the largest one that does
        r, i, j = np.nonzero(dots < 0.0)
        loss = dots[r, i, j]
        ok = _tails_at(dots, probs, r, i, loss) >= level_pi[rows][r] - PROB_TOL
        best = np.full(dots.shape[:2], -np.inf)
        np.maximum.at(best, (r[ok], i[ok]), -loss[ok])
        kappa[rows] = best.min(axis=1)
    node = _first(tree, ~(kappa > 0.0))
    if node is not None:
        raise CertificateError(
            f"node {node}: no kappa > 0 achieves tail mass {pis[tree.depth[node]]} "
            "in every direction",
            node=node,
        )
    return MarcheCertificate(
        entries=dict(zip(nodes.tolist(), zip(kappa.tolist(), level_pi.tolist()))),
        sampled=tree.asset_dim >= 2,
        direction_samples=len(dirs),
    )


def validate_certificate(
    tree: ScenarioTree,
    kappa: float | Sequence[float],
    pi: float | Sequence[float],
    direction_samples: int = 128,
) -> tuple[bool, int | None]:
    """Check one (kappa, pi) pair per period, or one for all, node by node; returns a witness node."""
    kappas = _per_level(kappa, tree.horizon, "kappa")
    pis = _per_level(pi, tree.horizon, "pi")
    if any(k <= 0 for k in kappas) or any(not 0.0 < p <= 1.0 for p in pis):
        raise ValidationError("need kappa > 0 and pi in (0, 1]")
    depth = tree.depth[tree.nonterminal_ids]
    pairs = zip(np.array(kappas)[depth].tolist(), np.array(pis)[depth].tolist())
    entries = dict(zip(tree.nonterminal_ids.tolist(), pairs))
    return validate_entries(tree, entries, direction_samples)


def validate_entries(
    tree: ScenarioTree,
    entries: Mapping[int, tuple[float, float]],
    direction_samples: int = 128,
) -> tuple[bool, int | None]:
    """Check per-node (kappa, pi) pairs, e.g. a computed certificate's entries.

    The first node in nonterminal order that lacks an entry, has an invalid
    pair or fails its tail test decides: the first two raise, the last is
    the witness.
    """
    dirs = unit_directions(tree.asset_dim, direction_samples)
    nodes = tree.nonterminal_ids.tolist()
    missing = ~np.fromiter(map(entries.__contains__, nodes), bool, len(nodes))
    k, p = np.array(list(map(entries.get, nodes, repeat((1.0, 1.0)))), dtype=float).T
    invalid = (k <= 0) | ~((0.0 < p) & (p <= 1.0))
    fails = (_level_tails(tree, dirs, -k) < (p - PROB_TOL)[:, None]).any(axis=1)
    event = missing | invalid | ~np.isfinite(k) | fails
    if not event.any():
        return True, None
    i = int(event.argmax())
    if missing[i]:
        raise ValidationError(f"certificate entries missing node {nodes[i]}")
    if invalid[i]:
        raise ValidationError(f"node {nodes[i]}: need kappa > 0 and pi in (0, 1]")
    if not np.isfinite(k[i]):
        raise ValidationError(f"node {nodes[i]}: kappa {float(k[i])!r} is not finite")
    return False, nodes[i]


def canonical_onedim_pairs(tree: ScenarioTree) -> dict[int, tuple[float, float]]:
    """For d=1: kappa = min(|most negative atom|, most positive atom) and the
    matching minimal tail mass, node by node."""
    if tree.asset_dim != 1:
        raise ValidationError("canonical pairs are defined for single-asset trees")
    lo, hi = _spans(tree)
    node = _first(tree, (lo >= 0.0) | (hi <= 0.0))
    if node is not None:
        raise CertificateError(f"node {node}: support does not straddle zero", node=node)
    kappa = np.minimum(np.abs(lo), hi)
    pi = _level_tails(tree, unit_directions(1, 2), -kappa).min(axis=1)
    return dict(zip(tree.nonterminal_ids.tolist(), zip(kappa.tolist(), pi.tolist())))
