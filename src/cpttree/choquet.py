"""Exact Choquet integrals on finite laws and the CPT objective on trees.

For a nonnegative discrete random variable the survival function is a step
function, so the distorted integral int_0^inf w(P(X >= y)) dy is a finite sum
over the distinct atom values. Atom order is canonicalized before any
summation, which makes equal laws evaluate to bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .extreal import POS_INF, ExtReal, ext_sub, is_finite, is_inf
from .preferences import PreferenceSpec
from .tree import (
    PureStrategy,
    RandomizedStrategy,
    ReferenceSpec,
    ScenarioTree,
    Strategy,
    check_masses,
    finite_capital,
    leaf_wealth,
    segment_sums,
)


@dataclass(frozen=True)
class DiscreteRV:
    """Finite law given by (value, probability) atoms."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not all(np.isfinite(v) for v, _ in self.atoms):
            raise ValidationError("atom values must be finite")
        check_masses([p for _, p in self.atoms], "discrete law", "probability", "probabilities")

    @classmethod
    def from_arrays(cls, values: Sequence[float], probs: Sequence[float]) -> "DiscreteRV":
        return cls(tuple((float(v), float(p)) for v, p in zip(values, probs, strict=True)))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.array(self.atoms, dtype=float)
        return a[:, 0], a[:, 1]


# cells of the longest zero-stride view of one float numpy allows
_MAX_CELLS = np.iinfo(np.intp).max // 8


class _Law:
    """What the row kernel needs of the L probabilities, computed once per law:
    the column positions and whether the probabilities are all equal; if so
    the common probability repeated for every cell of any block (a
    zero-stride view), otherwise the columns in stable probability order
    and the probabilities in that order. A search builds it once; the
    kernel builds it for a plain array.

    An equal law whose common probability p is a power of two, as on coin
    and binomial trees, also gets ``by_rank``: the survival of the atom at
    each sorted position i, min((L - i) p, 1). Every sum of copies of p is
    an exact multiple of p, so the tie masses and their suffix sums that
    the kernel would add are exactly these, in any order of addition.
    ``tiled`` is ``by_rank`` repeated for the most rows a block has had,
    the count at least doubled each time it grows, so that a search's
    blocks gather from it without tiling the table again."""

    __slots__ = ("cols", "equal", "repeated", "by_prob", "sorted", "by_rank", "tiled")

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=float)
        self.cols = np.arange(probs.size)
        self.equal = probs.size > 0 and bool((probs == probs[0]).all())
        self.repeated = np.broadcast_to(probs[0], (_MAX_CELLS,)) if self.equal else None
        self.by_prob = None if self.equal else probs.argsort(kind="stable")
        self.sorted = None if self.equal else probs[self.by_prob]
        dyadic = self.equal and np.frexp(probs[0])[0] == 0.5
        self.by_rank = np.minimum((probs.size - self.cols) * probs[0], 1.0) if dyadic else None
        self.tiled = self.by_rank


def _choquet_rows(values: np.ndarray, law: _Law | np.ndarray, *ws: Callable) -> np.ndarray:
    """Distorted survival integral of each row of a (K, L) block of
    nonnegative atom values sharing the L probabilities of ``law``. With
    several distortions the rows fall into as many equal consecutive blocks,
    block i distorted by ``ws[i]``, so the gain and loss sides of an outcome
    block share one call.

    Each row is put in the canonical atom order (by value, ties by
    probability, then by position): with equal probabilities a plain sort of
    the values is that order, done in place in ``values``; otherwise the
    columns go in probability order and one stable sort of each row by value
    keeps that order among ties. Reordering within a row never changes its
    value, but it does change the block, so only a caller that owns
    ``values`` may pass it. A negative value is refused from the sorted
    block's first column: NaN sorts last, so a row holds a negative value
    iff its first cell is one, and a NaN row cannot hide another row's.
    One flat ``reduceat`` merges the tie masses, suffix sums are sequential
    cumulative sums of each reversed row, the distortion and the products
    are elementwise, and ``segment_sums`` adds each row's terms as ``np.sum``
    would. A law with ``by_rank`` skips the masses and suffix sums: the
    survival of a distinct value is the entry of the law's tiled table at
    the flat sorted position where it first occurs, which is what they
    would give, bit for bit.

    The probability order, the equal-probability test, the repeated common
    probability, the tiled rank table and the column positions depend on
    the law alone and come from ``law``, built once per search. Everything
    handed to a distortion is a contiguous slice: numpy's power can round a
    strided view differently in the last bit.
    """
    if not isinstance(law, _Law):
        law = _Law(law)
    n_rows, n_cols = values.shape
    if values.size == 0:
        return np.zeros(n_rows)
    if law.equal:
        values.sort(axis=1)
        v = values
    else:
        by_prob = values[:, law.by_prob]
        order = by_prob.argsort(axis=1, kind="stable")
        v = by_prob[np.arange(n_rows)[:, None], order]
    if np.count_nonzero(v[:, 0] < 0.0):
        raise ValidationError("choquet_nonneg requires nonnegative atom values")
    new = np.empty(v.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(v[:, 1:], v[:, :-1], out=new[:, 1:])
    starts = new.ravel().nonzero()[0]
    distinct = v.ravel()[starts]
    if law.by_rank is not None:
        # every row's first cell starts a run: its position in ``starts``
        first = starts.searchsorted(np.arange(0, v.size, n_cols))
        # a gather from the table tiled for every row is cheaper than starts % n_cols
        tiled = law.tiled
        if tiled.size < v.size:
            tiled = law.tiled = np.tile(law.by_rank, max(n_rows, 2 * tiled.size // n_cols))
        survival = tiled[starts]
    else:
        p = law.repeated[: v.size] if law.equal else law.sorted[order].ravel()
        mass = np.add.reduceat(p, starts)
        counts = new.sum(axis=1)
        first = counts.cumsum() - counts
        width = int(counts.max())
        # rows as the leading cells of a zero-padded block, in row-major order
        cells = law.cols[:width] < counts[:, None]
        back = cells[::-1]
        padded = np.zeros(cells.shape)
        padded[back] = mass[::-1]
        survival = np.minimum(padded.cumsum(axis=1)[back][::-1], 1.0)
    per_w = n_rows // len(ws)
    cuts = [0, *(int(first[i * per_w]) for i in range(1, len(ws))), starts.size]
    weights = np.empty(starts.size)
    for w, a, b in zip(ws, cuts, cuts[1:]):
        weights[a:b] = w(survival[a:b])
    terms = np.empty_like(distinct)
    np.subtract(distinct[1:], distinct[:-1], out=terms[1:])
    terms[first] = distinct[first]
    terms *= weights
    return segment_sums(terms, first)


def choquet_nonneg(rv: DiscreteRV, w: Callable) -> float:
    """Exact distorted survival integral of a nonnegative finite law."""
    if abs(float(w(0.0))) > 1e-12:
        raise ValidationError("distortion must satisfy w(0) = 0")
    values, probs = rv.arrays()
    return float(_choquet_rows(values[None], probs, w)[0])


@dataclass(frozen=True)
class CPTValue:
    """Gain side, loss side and their difference, with the admissibility flag.

    v is defined whenever the loss side is finite; an infinite gain side then
    yields an infinite v. On finite trees every component is finite: a float
    inf or NaN side is overflow, and is refused.
    """

    v_plus: ExtReal
    v_minus: ExtReal
    v: ExtReal | None
    admissible: bool

    @classmethod
    def from_parts(cls, v_plus: ExtReal, v_minus: ExtReal) -> "CPTValue":
        if not all(is_inf(x) or np.isfinite(x) for x in (v_plus, v_minus)):
            raise ValidationError(f"CPT value overflows: v_plus={v_plus!r}, v_minus={v_minus!r}")
        admissible = is_finite(v_minus)
        v = ext_sub(v_plus, v_minus) if admissible else None
        return cls(v_plus=v_plus, v_minus=v_minus, v=v, admissible=admissible)

    def to_json_dict(self) -> dict:
        return {
            "v_plus": None if is_inf(self.v_plus) else float(self.v_plus),
            "v_minus": None if is_inf(self.v_minus) else float(self.v_minus),
            "v": None if self.v is None or is_inf(self.v) else float(self.v),
            "admissible": self.admissible,
            "v_plus_infinite": is_inf(self.v_plus),
        }


def _leaf_outcomes(
    tree: ScenarioTree, theta: np.ndarray, x0: float, benchmark: np.ndarray
) -> np.ndarray:
    """Leaf outcomes X_T - B of allocations stacked as for ``leaf_wealth``. An
    outcome past the double range is refused here, where it arises, as
    ``leaf_wealth`` refuses a wealth."""
    wealth = leaf_wealth(tree, theta, x0)
    with np.errstate(over="ignore"):
        outs = wealth - benchmark
    if not np.isfinite(outs).all():
        raise ValidationError("leaf outcome X_T - B overflows the double range")
    return outs


class OutcomeEngine:
    """Leaf outcomes X_T - B of flat allocations, and their moves one variable at a time.

    Leaf wealth is affine in the allocation vector. The variable of a node at
    depth t touches only the leaves below that node, a contiguous range of
    ``leaf_ids``, and moves each by the increment on its path at step t+1.
    ``matrix[t, c, r]`` holds that increment component c for leaf row r, so
    the engine stores leaves * T * d floats, and ``shift`` adds one slice per
    move.
    """

    def __init__(self, tree: ScenarioTree, ref: ReferenceSpec | None = None):
        self.tree = tree
        self.n_vars = len(tree.nonterminal_ids) * tree.asset_dim
        self.leaf_prob = tree.leaf_prob
        n_leaf = len(self.leaf_prob)
        self.benchmark = ref.benchmark_array(tree) if ref is not None else np.zeros(n_leaf)
        # matrix[t, :, j] is the increment at depth t+1 on leaf j's path
        self.matrix = np.ascontiguousarray(tree.increment_matrix[tree.paths[1:]].transpose(0, 2, 1))
        # a node's leaves are the run of it in its row of the path table
        rows = tree.paths[:-1]
        first = np.ones(rows.shape, dtype=bool)
        first[:, 1:] = rows[:, 1:] != rows[:, :-1]
        lo = np.empty(tree.n_nodes, dtype=int)
        lo[rows[first]] = np.nonzero(first)[1]
        size = np.bincount(rows.ravel(), minlength=tree.n_nodes)
        # per variable: its leaf count, and the flat positions where its
        # increments start in ``matrix`` and its leaves start in an outcome row
        nodes = np.repeat(np.asarray(tree.nonterminal_ids), tree.asset_dim)
        comps = np.tile(np.arange(tree.asset_dim), len(tree.nonterminal_ids))
        column = (np.asarray(tree.depth)[nodes] * tree.asset_dim + comps) * n_leaf + lo[nodes]
        self._vars = np.stack([size[nodes], column, lo[nodes]])
        # the same per variable of each stacked atom, by outcome row width
        self._moves = {n_leaf: self._vars}

    def outcomes(self, flat_theta: np.ndarray, x0: float) -> np.ndarray:
        """Outcomes of one flat allocation vector, or of several stacked end to
        end (a mixture's atoms), concatenated in the same order."""
        per_atom = np.reshape(flat_theta, (-1, len(self.tree.nonterminal_ids), self.tree.asset_dim))
        return _leaf_outcomes(self.tree, per_atom, x0, self.benchmark).ravel()

    def shift(self, base: np.ndarray, js: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """Copies of ``base``, one outcome vector or one row per move, row k
        with variable js[k] moved by deltas[k]; a variable counts on across
        stacked atoms as in ``outcomes``. All moves are one flat add."""
        n_moves, width = len(js), base.shape[-1]
        rows = np.empty((n_moves, width))
        rows[:] = base
        if not n_moves:
            return rows
        moves = self._moves.get(width)
        if moves is None:  # first shift of outcomes stacked from several atoms
            n_atoms = width // len(self.leaf_prob)
            moves = np.tile(self._vars, n_atoms)
            moves[2] += np.repeat(np.arange(n_atoms) * len(self.leaf_prob), self.n_vars)
            self._moves[width] = moves
        moved = moves[:, js]
        size = moved[0]
        # move k adds size[k] consecutive floats of the flat matrix to size[k]
        # consecutive cells of the flat rows; with the runs laid end to end,
        # entry i of either index is its run's offset plus i
        end = size.cumsum()
        offsets = moved[1:] + (size - end)
        offsets[1] += np.arange(0, n_moves * width, width)
        src, dst = np.repeat(offsets, size, axis=1) + np.arange(end[-1])
        rows.reshape(-1)[dst] += np.repeat(deltas, size) * self.matrix.reshape(-1)[src]
        return rows


def _atoms(strategy: Strategy) -> tuple[tuple[float, PureStrategy], ...]:
    return strategy.atoms if isinstance(strategy, RandomizedStrategy) else ((1.0, strategy),)


def _strategy_outcome_law(
    tree: ScenarioTree, strategy: Strategy, x0: float, benchmark: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Product law of the external mixing atom and the tree scenario."""
    atoms = _atoms(strategy)
    thetas = np.stack([pure.as_matrix(tree) for _, pure in atoms])
    outs = _leaf_outcomes(tree, thetas, x0, benchmark)
    return outs.ravel(), np.concatenate([w * tree.leaf_prob for w, _ in atoms])


def _cpt_sides(
    outcomes: np.ndarray, law: _Law | np.ndarray, pref: PreferenceSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Gain and loss sides of every row of a (K, L) outcome block, from one
    kernel call on one (2K, L) block of gain and loss utilities, which the
    kernel may sort in place."""
    n_rows = len(outcomes)
    utilities = np.empty((2 * n_rows, outcomes.shape[1]))
    gains, losses = utilities[:n_rows], utilities[n_rows:]
    np.maximum(outcomes, 0.0, out=gains)
    np.negative(outcomes, out=losses)
    np.maximum(losses, 0.0, out=losses)
    gains[:] = pref.utility.u_plus(gains)
    losses[:] = pref.utility.u_minus(losses)
    both = _choquet_rows(utilities, law, pref.distortion.plus, pref.distortion.minus)
    return both[:n_rows], both[n_rows:]


def cpt_value_from_outcomes(
    outcomes: np.ndarray, probs: np.ndarray, pref: PreferenceSpec
) -> CPTValue:
    """CPT value of a finite outcome law relative to an already-subtracted benchmark."""
    (v_plus,), (v_minus,) = _cpt_sides(outcomes[None], probs, pref)
    return CPTValue.from_parts(float(v_plus), float(v_minus))


def _cpt_rows(outcomes: np.ndarray, law: _Law | np.ndarray, pref: PreferenceSpec) -> np.ndarray:
    """CPT value of every row of a (K, L) outcome block."""
    v_plus, v_minus = _cpt_sides(outcomes, law, pref)
    return v_plus - v_minus


def cpt_value(
    tree: ScenarioTree,
    strategy: Strategy,
    x0: float,
    ref: ReferenceSpec,
    pref: PreferenceSpec,
) -> CPTValue:
    """Exact CPT value of a pure or randomized strategy on a finite tree.

    Randomized strategies are evaluated on the product law of the external
    mixing atom and the tree scenario.
    """
    benchmark = ref.benchmark_array(tree)
    outs, probs = _strategy_outcome_law(tree, strategy, finite_capital(x0), benchmark)
    return cpt_value_from_outcomes(outs, probs, pref)


@dataclass(frozen=True)
class AuxParams:
    """Constants of the distortion-free dominating objective.

    k_minus_tilde is the product of the loss-side envelope constants; the
    gain-side constant assembles the Chebyshev tail chain that certifies the
    domination inequalities. Minimality is not claimed.
    """

    k_plus_tilde: float
    k_minus_tilde: float
    lam: float
    subhedge: PureStrategy
    floor: float

    def __post_init__(self) -> None:
        if not (0.0 < self.k_plus_tilde < np.inf and 0.0 < self.k_minus_tilde < np.inf):
            raise ValidationError("aux constants must be positive and finite")


def derive_aux_params(pref: PreferenceSpec, ref: ReferenceSpec) -> AuxParams:
    """Aux constants certified by the envelope assumptions for (pref, ref)."""
    if pref.lam is None:
        raise ValidationError("aux params need the decisive gate (lambda is undefined)")
    lam = pref.lam
    gp = pref.distortion.g_plus
    gamma_p = pref.distortion.gamma_plus
    if lam * gamma_p <= 1.0:
        raise ValidationError("need lambda * gamma_plus > 1")
    kp = pref.utility.k_plus
    b = ref.floor
    lam_ap = lam * pref.utility.alpha_plus
    core = 2.0 ** (lam - 1.0) * kp**lam
    k_plus_tilde = 1.0 + (gp / (lam * gamma_p - 1.0)) * (
        core * (1.0 + abs(b) ** lam_ap) + core + 1.0
    )
    k_minus_tilde = pref.distortion.g_minus * pref.utility.k_minus
    return AuxParams(
        k_plus_tilde=k_plus_tilde,
        k_minus_tilde=k_minus_tilde,
        lam=lam,
        subhedge=ref.subhedge,
        floor=ref.floor,
    )


def aux_value(
    tree: ScenarioTree,
    strategy: Strategy,
    x0: float,
    aux: AuxParams,
    pref: PreferenceSpec,
) -> tuple[float, float, float]:
    """Dominating objective: moment bound on gains, truncated moment on losses.

    Returns (plus, minus, plus - minus) where
    plus  = k+~ E(1 + |x0 + sum (theta-phi) dS|^(lam alpha+)) and
    minus = k-~ (E [x0 + sum (theta-phi) dS - b]_-^alpha-  - 1).
    """
    atoms = _atoms(strategy)
    thetas = np.stack([pure.as_matrix(tree) for _, pure in atoms])
    wealth = leaf_wealth(tree, thetas - aux.subhedge.as_matrix(tree), finite_capital(x0))
    lam_ap = aux.lam * pref.utility.alpha_plus
    p = tree.leaf_prob
    plus = minus = 0.0
    for (weight, _), w in zip(atoms, wealth):
        plus += weight * float(p @ (1.0 + np.abs(w) ** lam_ap))
        minus += weight * float(p @ np.maximum(aux.floor - w, 0.0) ** pref.utility.alpha_minus)
    v_plus = aux.k_plus_tilde * plus
    v_minus = aux.k_minus_tilde * (minus - 1.0)
    return v_plus, v_minus, v_plus - v_minus


def tail_power_integral(c: float, e: float) -> ExtReal:
    """int_1^inf c / y^e dy: c/(e-1) when e > 1, +inf otherwise."""
    if not (0.0 < c < np.inf and 0.0 < e < np.inf):  # NaN fails too
        raise ValidationError("tail_power_integral needs finite c > 0 and e > 0")
    if e > 1.0:
        return c / (e - 1.0)
    return POS_INF


def moment_tail_certificate(moments: Mapping[int, float], delta: float) -> float:
    """Finite bound on int_0^inf P^delta(Y >= y) dy from one polynomial moment.

    Chebyshev gives P(Y >= y) <= E[Y^N] y^-N, so the smallest N with
    N*delta > 1 certifies the bound 1 + (E[Y^N])^delta / (N*delta - 1).
    """
    if not 0.0 < delta < np.inf:  # NaN fails too
        raise ValidationError("delta must be positive and finite")
    admissible = sorted(n for n in moments if n * delta > 1.0)
    if not admissible:
        raise ValidationError("insufficient moments: need some N with N * delta > 1")
    n = admissible[0]
    m = float(moments[n])
    if not 0.0 <= m < np.inf:  # NaN fails too
        raise ValidationError("moments must be finite and nonnegative")
    return 1.0 + m**delta / (n * delta - 1.0)


__all__ = [
    "AuxParams",
    "CPTValue",
    "DiscreteRV",
    "OutcomeEngine",
    "aux_value",
    "choquet_nonneg",
    "cpt_value",
    "cpt_value_from_outcomes",
    "derive_aux_params",
    "moment_tail_certificate",
    "tail_power_integral",
]
