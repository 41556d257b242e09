"""No-arbitrage checks and quantitative no-arbitrage certificates.

On a finite tree, absence of arbitrage reduces to a one-step check at every
non-terminal node: no direction may avoid losses while gaining somewhere.
The quantitative certificate strengthens this to "every unit direction loses
at least kappa with conditional probability at least pi".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import CertificateError, ValidationError
from .tree import PROB_TOL, ScenarioTree


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


def _node_support(tree: ScenarioTree, node: int) -> tuple[np.ndarray, np.ndarray]:
    kids = tree.children[node]
    incs = np.array([tree.increments[c] for c in kids], dtype=float)
    probs = np.array([tree.prob[c] for c in kids], dtype=float)
    return incs, probs


def _one_step_arbitrage(incs: np.ndarray) -> np.ndarray | None:
    """Direction that never loses and sometimes gains, or None."""
    d = incs.shape[1]
    if d == 1:
        v = incs[:, 0]
        if np.all(v >= 0.0) and np.any(v > 0.0):
            return np.array([1.0])
        if np.all(v <= 0.0) and np.any(v < 0.0):
            return np.array([-1.0])
        return None
    scale = float(np.abs(incs).sum())
    if scale == 0.0:
        return None
    # scipy costs most of a cold start; only this multi-asset LP needs it.
    from scipy.optimize import linprog

    res = linprog(
        c=-incs.sum(axis=0),
        A_ub=-incs,
        b_ub=np.zeros(len(incs)),
        bounds=[(-1.0, 1.0)] * d,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"arbitrage LP failed: {res.message}")
    if -res.fun > 1e-9 * max(1.0, scale):
        return np.asarray(res.x)
    return None


def check_NA(tree: ScenarioTree) -> NAResult:
    """True iff no one-step arbitrage exists at any node; witness otherwise."""
    for node in tree.nonterminal_ids:
        incs, _ = _node_support(tree, int(node))
        direction = _one_step_arbitrage(incs)
        if direction is not None:
            return NAResult(ok=False, node=int(node), direction=tuple(map(float, direction)))
    return NAResult(ok=True)


def check_R(tree: ScenarioTree) -> tuple[bool, int | None]:
    """Non-degeneracy: conditional supports are not confined to a proper affine subspace."""
    for node in tree.nonterminal_ids:
        incs, _ = _node_support(tree, int(node))
        if tree.asset_dim == 1:
            if len(np.unique(incs[:, 0])) < 2:
                return False, int(node)
        else:
            centered = incs - incs[0]
            if np.linalg.matrix_rank(centered) < tree.asset_dim:
                return False, int(node)
    return True, None


def unit_directions(d: int, n_samples: int, seed: int = 13) -> np.ndarray:
    """Quasi-uniform unit vectors: exact +-1 for d=1, equiangular for d=2,
    spherical spiral for d=3, seeded Gaussian normalization beyond."""
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
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_samples, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _tail_prob(dots: np.ndarray, probs: np.ndarray, kappa: float) -> float:
    return float(probs[dots <= -kappa].sum())


def _direction_max_kappa(dots: np.ndarray, probs: np.ndarray, pi: float) -> float | None:
    """Largest kappa with P(dot <= -kappa) >= pi; candidates are the loss magnitudes.

    The comparison carries the probability-sum tolerance: a tail that is
    exactly pi up to summation rounding must count as reaching it.
    """
    neg = dots < 0.0
    if not np.any(neg):
        return None
    for kappa in np.unique(-dots[neg])[::-1]:  # descending loss magnitude
        if _tail_prob(dots, probs, float(kappa)) >= pi - PROB_TOL:
            return float(kappa)
    return None


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
    cannot grant the requested tail mass in every tested direction.
    """
    na = check_NA(tree)
    if not na.ok:
        raise CertificateError(f"no-arbitrage violated at node {na.node}", node=na.node)
    pis = _per_level(pi, tree.horizon, "pi")
    if any(not 0.0 < p <= 1.0 for p in pis):
        raise ValidationError("pi must lie in (0, 1]")
    dirs = unit_directions(tree.asset_dim, direction_samples)
    entries: dict[int, tuple[float, float]] = {}
    depth = tree.depth
    for node in tree.nonterminal_ids:
        node = int(node)
        level_pi = pis[depth[node]]
        incs, probs = _node_support(tree, node)
        kappa = None
        for xi in dirs:
            k = _direction_max_kappa(incs @ xi, probs, level_pi)
            if k is None:
                kappa = None
                break
            kappa = k if kappa is None else min(kappa, k)
        if kappa is None or kappa <= 0.0:
            raise CertificateError(
                f"node {node}: no kappa > 0 achieves tail mass {level_pi} in every direction",
                node=node,
            )
        entries[node] = (kappa, level_pi)
    return MarcheCertificate(
        entries=entries, sampled=tree.asset_dim >= 2, direction_samples=len(dirs)
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
    depth = tree.depth
    entries = {int(n): (kappas[depth[n]], pis[depth[n]]) for n in tree.nonterminal_ids}
    return validate_entries(tree, entries, direction_samples)


def validate_entries(
    tree: ScenarioTree,
    entries: Mapping[int, tuple[float, float]],
    direction_samples: int = 128,
) -> tuple[bool, int | None]:
    """Check per-node (kappa, pi) pairs, e.g. a computed certificate's entries."""
    dirs = unit_directions(tree.asset_dim, direction_samples)
    for node in tree.nonterminal_ids:
        node = int(node)
        if node not in entries:
            raise ValidationError(f"certificate entries missing node {node}")
        k, p = entries[node]
        if k <= 0 or not 0.0 < p <= 1.0:
            raise ValidationError(f"node {node}: need kappa > 0 and pi in (0, 1]")
        incs, probs = _node_support(tree, node)
        for xi in dirs:
            if _tail_prob(incs @ xi, probs, k) < p - PROB_TOL:
                return False, node
    return True, None


def canonical_onedim_pairs(tree: ScenarioTree) -> dict[int, tuple[float, float]]:
    """For d=1: kappa = min(|most negative atom|, most positive atom) and the
    matching minimal tail mass, node by node."""
    if tree.asset_dim != 1:
        raise ValidationError("canonical pairs are defined for single-asset trees")
    out: dict[int, tuple[float, float]] = {}
    for node in tree.nonterminal_ids:
        node = int(node)
        incs, probs = _node_support(tree, node)
        v = incs[:, 0]
        if v.min() >= 0.0 or v.max() <= 0.0:
            raise CertificateError(f"node {node}: support does not straddle zero", node=node)
        kappa = min(abs(float(v.min())), float(v.max()))
        pi = min(float(probs[v <= -kappa].sum()), float(probs[v >= kappa].sum()))
        out[node] = (kappa, pi)
    return out
