"""Derivative-free maximization of the CPT objective over tree strategies.

The objective is non-concave and, through the rank-dependent weighting,
piecewise smooth with sort-induced kinks, so the search is a seeded
multistart compass search: poll one coordinate at a time, accept strict
improvements, shrink the step when a full sweep fails. Results are
deterministic given the seed. No global-optimality claim is made.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Generator, Iterable, Iterator, Sequence

import numpy as np

from .choquet import CPTValue, OutcomeEngine, _choquet_rows, _cpt_rows, _Law, cpt_value
from .choquet import cpt_value_from_outcomes  # noqa: F401  (cptbench/tracing.py wraps it here)
from .errors import ValidationError
from .preferences import Distortion, PreferenceSpec
from .tree import (
    PureStrategy, RandomizedStrategy, ReferenceSpec, ScenarioTree, _count, check_masses,
    finite_capital,
)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the compass search; the box is linear in the initial capital."""

    box_radius: float | None = None
    multistart: int = 4
    tol: float = 1e-9
    seed: int = 0
    max_box_doublings: int = 6

    def __post_init__(self) -> None:
        # the chained comparisons fail on NaN too
        if self.box_radius is not None and not 0.0 < self.box_radius < np.inf:
            raise ValidationError("box_radius must be positive and finite")
        if not 0.0 < self.tol < np.inf:
            raise ValidationError("tol must be positive and finite")
        if _count(self.multistart, "multistart") < 1:
            raise ValidationError("multistart must be >= 1")
        if _count(self.seed, "seed") < 0:
            raise ValidationError("seed must be >= 0")
        if _count(self.max_box_doublings, "max_box_doublings") < 0:
            raise ValidationError("max_box_doublings must be >= 0")


def default_box_radius(x0: float) -> float:
    return 8.0 * (abs(float(x0)) + 1.0)


_EVAL_BUDGET = 2_000_000
_SHRINK = 0.5
# outcome floats in one block of speculative polls, shared by the starts
# polled in lockstep. A kernel call's temporaries are up to about 16x its
# block, so 2**13 floats keep them under 1 MiB, within a core's L2 cache; the
# smaller working set makes a 512-leaf search about 12% faster than 2**15
# floats. The size does not keep glibc from giving the temporaries back to
# the OS at the end of a call, to be faulted in again by the next: that
# depends on the allocation history of the process (its dynamic mmap and
# trim thresholds), and varies from process to process. Measured with
# getrusage (2-core x86-64, numpy 2.4), fresh processes valuing 16-row blocks
# of a 512-leaf law took 0.2 to 113 minor faults per call with the rank
# table tiled per call, and 0.1 to 49 with it kept on the law; two runs of
# `cpttree optimize` on the T=9 coin market (seed 1, one start) took 20.1M
# and 19.8M minor faults in 139 and 152 s, and 6.7k and 13.2M in 93 and 121 s.
_BLOCK_FLOATS = 1 << 13
# outcome floats a start's block spans at least, in whole coordinates: on
# small laws a kernel call costs about the same for a few rows as for dozens
_SPAN_FLOATS = 16


def _poll(
    z0: np.ndarray,
    state: np.ndarray,
    best: float,
    lo: float,
    hi: float,
    tol: float,
    row_cap: Callable[[], int],
    span: int,
) -> Generator[tuple, tuple, tuple[np.ndarray, float]]:
    """Coordinate poll in [lo, hi]^m with opportunistic acceptance and step shrinking.

    ``state`` is whatever cached transform of z the objective consumes and
    ``best`` its value. The poll yields a block request ``(state, js,
    deltas)``, the moves of coordinate js[k] by deltas[k] from ``state``, js
    and deltas as Python lists, and receives ``(block, values, finite)``: one
    shifted state and one objective value per move, and whether every value
    is finite, so that only a block holding a non-finite value pays for the
    finiteness test of its own values. It returns ``(z, best)``. The full step schedule is restarted
    from the incumbent until a whole cycle brings no improvement, which
    guards against unlucky step phasing near kinks.

    A restarted cycle that has accepted nothing yet polls only the steps
    above that of the last cycle's last acceptance. After that acceptance
    the last cycle tried every coordinate at that step and at every smaller
    one from the final z, against the same best, and every move failed (a
    non-finite value would have raised). The restarted cycle would value the
    same rows again, so they cannot improve and the result is unchanged, bit
    for bit. An acceptance in the restarted cycle restores the full schedule.

    The poll is speculative: the moves the sequential poll would try next if
    none improved are requested as one block, and the first improver in poll
    order is accepted, so the trajectory is that of the one-move-at-a-time
    poll. ``evals`` and the budget count the moves actually valued: of a
    block, the moves up to its first improver, and never the refuted moves a
    restarted cycle skips. So where the budget binds after a skip, this poll
    can go on past the point where a poll that re-values them stops. The
    block spans ``span`` coordinates at first, doubles after a block without
    an improver and halves, down to ``span``, after an acceptance; it never
    crosses the end of a cycle and never holds more than ``row_cap()``
    moves, the cap being read as each block is planned.
    """
    z = z0.tolist()  # Python floats plan faster than numpy scalars, to the same bits
    best = _finite(best)
    m = len(z)
    step0 = (hi - lo) / 4.0
    evals = 0
    width = span
    stop = tol
    for _ in range(50):
        cycle_start = best
        step, j, fails = step0, 0, 0
        while step > stop and evals < _EVAL_BUDGET:
            limit = row_cap()
            # the moves of the next ``width`` coordinates, if none improves
            moves, js, deltas = [], [], []
            s, jj, f, e = step, j, fails, evals
            for _ in range(width):
                if not (s > stop and e < _EVAL_BUDGET) or len(moves) + 2 > limit:
                    break
                zj = z[jj]
                for nc in (zj + s, zj - s):
                    # min(hi, max(lo, nc)), to the bit and the sign of zero
                    nc = nc if nc > lo else lo
                    nc = nc if nc < hi else hi
                    if nc != zj:
                        moves.append((s, jj, nc))
                        js.append(jj)
                        deltas.append(nc - zj)
                        e += 1
                f, jj = f + 1, (jj + 1) % m
                if f == m:
                    s, jj, f = s * _SHRINK, 0, 0
            if moves:
                block, vals, finite = yield state, js, deltas
                # a non-finite value at or before the first improver raises below
                hit = vals > best if finite else ~np.isfinite(vals) | (vals > best)
                hit = hit.nonzero()[0]
            if not moves or hit.size == 0:
                step, j, fails, evals = s, jj, f, e
                width = min(2 * width, limit)
                continue
            i = int(hit[0])
            best = _finite(float(vals[i]))
            step, jj, nc = moves[i]
            z[jj] = nc
            state = block[i].copy()
            evals += i + 1
            j, fails = (jj + 1) % m, 0
            width = max(span, width // 2)
            stop, accepted = tol, step
        if best <= cycle_start or evals >= _EVAL_BUDGET:
            break
        stop = accepted
    return np.array(z), best


def _finite(v: float) -> float:
    if not np.isfinite(v):
        raise RuntimeError("non-finite objective value during search")
    return v


def _lockstep(
    values_of: Callable[[np.ndarray], np.ndarray],
    shift: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    state_of: Callable[[np.ndarray], np.ndarray],
    z0s: Sequence[np.ndarray],
    boxes: Sequence[tuple[float, float]],
    tol: float,
) -> list[tuple[np.ndarray, float]]:
    """``(z, best)`` of the poll from each start z0s[k] in its box [lo, hi]^m,
    ``(lo, hi) = boxes[k]``, in start order, ``state_of(z0)`` giving a
    start's state.

    At most ``fit`` polls are live: as many as fit ``_BLOCK_FLOATS`` with
    their smallest blocks stacked, for states of the size L of the first
    start's. Whenever live polls end, the next starts are taken up until
    every place is full or no start is left; their states are built then
    and valued by one ``values_of`` call. A poll can end at its first
    request, so the take-up does not wait for a round. In each round the
    block requests of all live polls are stacked, shifted with one ``shift``
    call and valued with one ``values_of`` call; each poll gets its own rows
    back, with one finiteness flag for all the round's values. ``shift(base,
    js, deltas)`` takes one state or one base row per move, and the round's
    moves as two arrays built once from the polls' lists; a lone live poll
    passes its state as is, without a stacked copy of it per row. A poll
    plans each block within the ``_BLOCK_FLOATS`` shared by the polls live
    then, spanning at least max(1, _SPAN_FLOATS // L) coordinates. A poll's
    trajectory depends neither on its block sizes nor on the polls it shares
    a round with, so neither does its result.
    """
    first = state_of(z0s[0])
    size = first.size
    span = max(1, _SPAN_FLOATS // size)
    fit = max(1, _BLOCK_FLOATS // (2 * span * size))
    polls: dict = {}

    def row_cap() -> int:
        return max(2 * span, _BLOCK_FLOATS // (size * len(polls)))

    results: list = [None] * len(z0s)
    requests: dict = {}

    def answer(k: int, reply) -> None:
        try:
            requests[k] = polls[k].send(reply)
        except StopIteration as done:
            results[k] = done.value
            del polls[k]

    taken = 0
    while True:
        while len(polls) < fit and taken < len(z0s):
            ks = range(taken, min(len(z0s), taken + fit - len(polls)))
            taken = ks.stop
            states = np.stack([first if k == 0 else state_of(z0s[k]) for k in ks])
            for k, state, v in zip(ks, states, values_of(states)):
                polls[k] = _poll(z0s[k], state, float(v), *boxes[k], tol, row_cap, span)
            for k in ks:
                answer(k, None)
        if not requests:
            return results
        ks = list(requests)
        bases, jss, deltass = zip(*requests.values())
        requests.clear()
        counts = [len(js) for js in jss]
        n = sum(counts)
        js = np.fromiter(chain.from_iterable(jss), np.intp, n)
        deltas = np.fromiter(chain.from_iterable(deltass), float, n)
        # one live poll: its state is the base of every row
        base = bases[0] if len(ks) == 1 else np.repeat(bases, counts, axis=0)
        block = shift(base, js, deltas)
        values = values_of(block)
        finite = bool(np.isfinite(values).all())
        a = 0
        for k, c in zip(ks, counts):
            answer(k, (block[a : a + c], values[a : a + c], finite))
            a += c


def _first_best(results: Iterable[tuple[np.ndarray, float]]) -> tuple[np.ndarray, float]:
    """The first ``(z, best)`` of highest value, in start order."""
    return max(results, key=operator.itemgetter(1))


def _check_box(radius: float, centre: np.ndarray, reach: np.ndarray) -> None:
    """Refuse a box whose width or whose leaf outcomes can leave the double
    range. ``centre`` holds the leaf outcomes at the box centre and ``reach``
    the l1 norm of each leaf's path increments, so every outcome in the box
    lies within radius * reach of its centre. Twice that bound must be
    finite: a move's delta times an increment reaches twice radius * reach."""
    if not np.isfinite(2.0 * radius):
        raise ValidationError(f"search box radius {radius!r} is too large: its width overflows")
    with np.errstate(over="ignore"):
        bound = 2.0 * (np.abs(centre) + radius * reach)
    if not np.isfinite(bound).all():
        raise ValidationError(
            f"search box radius {radius!r} is too large: its leaf outcomes can overflow"
        )


class _OffsetSearch:
    """The tree search: compass searches over ``n_atoms`` equal-weight pure
    strategies, as offsets z from the sub-hedge phi stacked once per atom.
    One outcome engine, kernel law and box-check reach serve every poll of
    the pure, mixture and probe searches."""

    def __init__(
        self, tree: ScenarioTree, pref: PreferenceSpec, x0: float, ref: ReferenceSpec,
        n_atoms: int, tol: float,
    ):
        engine = OutcomeEngine(tree, ref)
        self.phi = ref.subhedge.as_flat(tree)
        self._tree = tree
        self._stacked_phi = stacked_phi = np.tile(self.phi, n_atoms)
        law = _Law(np.tile(engine.leaf_prob, n_atoms) / n_atoms)
        self._centre = engine.outcomes(self.phi, x0)
        self._reach = np.abs(engine.matrix).sum(axis=(0, 1))
        self._checked: set[float] = set()
        self._values_of = lambda block: _cpt_rows(block, law, pref)
        self._shift = engine.shift
        self._state_of = lambda z: engine.outcomes(stacked_phi + z, x0)
        self._tol = tol

    def polls(
        self, z0s: Iterable[np.ndarray], radii: Sequence[float]
    ) -> list[tuple[np.ndarray, float]]:
        """``(z, best)`` of the search from each start z0s[k] in the box
        ||z||_inf <= radii[k]. A box of a radius new to this search is
        refused, if it can leave the double range, before any start is taken
        from ``z0s``: a lazily drawn start is never drawn for a refused box."""
        for r in radii:
            if r not in self._checked:
                _check_box(r, self._centre, self._reach)
                self._checked.add(r)
        z0s = list(z0s)
        if not z0s:
            return []
        boxes = [(-r, r) for r in radii]
        return _lockstep(self._values_of, self._shift, self._state_of, z0s, boxes, self._tol)

    def best(self, z0s: Sequence[np.ndarray], radius: float) -> np.ndarray:
        """The first best offset of the search from the starts z0s in the
        box ||z||_inf <= radius."""
        return _first_best(self.polls(z0s, [radius] * len(z0s)))[0]

    def atoms(self, z: np.ndarray) -> list[PureStrategy]:
        """The pure strategies ``phi + z``, one per atom of offset z."""
        thetas = (self._stacked_phi + z).reshape(-1, self.phi.size)
        return [PureStrategy.from_flat(self._tree, theta) for theta in thetas]


def _pure_starts(
    phi: np.ndarray, extra: Sequence[np.ndarray], radius: float, cfg: SearchConfig
) -> tuple[list[np.ndarray], Iterator[np.ndarray]]:
    """Start offsets of the pure search in the box of ``radius``: the zero,
    -phi and ``extra`` offsets clipped to the box, each duplicate after its
    first dropped, and ``cfg.multistart`` uniform ones drawn as they are
    taken, from a generator seeded with ``cfg.seed``, so that none is drawn
    before the search refuses its box."""
    rng = np.random.default_rng(cfg.seed)
    fixed: list[np.ndarray] = []
    for z0 in (np.clip(z, -radius, radius) for z in [np.zeros(phi.size), -phi, *extra]):
        if not any(np.array_equal(z0, s) for s in fixed):
            fixed.append(z0)
    return fixed, (rng.uniform(-radius, radius, phi.size) for _ in range(cfg.multistart))


def _pure_search(
    tree: ScenarioTree,
    pref: PreferenceSpec,
    x0: float,
    ref: ReferenceSpec,
    cfg: SearchConfig,
    extra_starts: Sequence[PureStrategy] = (),
) -> tuple[PureStrategy, float]:
    """The pure search of ``optimize_pure`` and the box radius it ended in;
    the box doubles up to ``cfg.max_box_doublings`` times while the winner
    touches it."""
    x0 = finite_capital(x0)
    if not pref.condition_a:
        warnings.warn("preferences fail the decisive well-posedness gate; the "
                      "objective may be effectively unbounded", stacklevel=3)
    search = _OffsetSearch(tree, pref, x0, ref, 1, cfg.tol)
    radius = cfg.box_radius if cfg.box_radius is not None else default_box_radius(x0)
    extra = [s.as_flat(tree) - search.phi for s in extra_starts]
    fixed, randoms = _pure_starts(search.phi, extra, radius, cfg)
    n = len(fixed) + cfg.multistart
    z, _ = _first_best(search.polls(chain(fixed, randoms), [radius] * n))
    for _ in range(cfg.max_box_doublings):
        if np.max(np.abs(z)) < radius * (1 - 1e-9):
            break
        radius *= 2.0
        z = search.best([z], radius)
    (strategy,) = search.atoms(z)
    return strategy, radius


def _probe_search(
    tree: ScenarioTree,
    pref: PreferenceSpec,
    x0: float,
    ref: ReferenceSpec,
    radii: Sequence[float],
    cfg: SearchConfig,
) -> list[PureStrategy]:
    """The pure strategy found at each of the increasing, nonnegative box
    ``radii``: the sub-hedge at radius 0, and elsewhere what ``optimize_pure``
    finds with that ``box_radius``, no box doubling and no extra start. The
    radii are searched independently of each other.

    Every start of every nonzero radius, the zero and -phi offsets clipped to
    its box and then its random starts, is polled in its own box, in one
    ``_lockstep``; the first best in each radius's start order wins. A poll's
    trajectory does not depend on the polls it shares its blocks with, so
    every strategy is bitwise that of one ``optimize_pure`` call per radius.
    """
    x0 = finite_capital(x0)
    search = _OffsetSearch(tree, pref, x0, ref, 1, cfg.tol)
    boxed = [r for r in radii if r != 0.0]
    starts = [_pure_starts(search.phi, (), r, cfg) for r in boxed]
    counts = [len(fixed) + cfg.multistart for fixed, _ in starts]
    polled = iter(search.polls(
        chain.from_iterable(chain(fixed, randoms) for fixed, randoms in starts),
        [r for r, n in zip(boxed, counts) for _ in range(n)],
    ))
    # the box of radius 0 is the single point theta = subhedge
    found = [ref.subhedge] if len(boxed) < len(radii) else []
    return found + [search.atoms(_first_best(islice(polled, n))[0])[0] for n in counts]


def optimize_pure(
    tree: ScenarioTree,
    pref: PreferenceSpec,
    x0: float,
    ref: ReferenceSpec,
    cfg: SearchConfig | None = None,
    extra_starts: Sequence[PureStrategy] = (),
) -> tuple[PureStrategy, CPTValue]:
    """Best pure strategy found by seeded multistart compass search in the box
    ||theta - subhedge||_inf <= radius per node, with boundary-hit doubling."""
    strategy, _ = _pure_search(tree, pref, x0, ref, cfg or SearchConfig(), extra_starts)
    return strategy, cpt_value(tree, strategy, x0, ref, pref)


def optimize_randomized(
    tree: ScenarioTree,
    pref: PreferenceSpec,
    x0: float,
    ref: ReferenceSpec,
    n_atoms: int,
    cfg: SearchConfig | None = None,
) -> tuple[RandomizedStrategy, CPTValue]:
    """Joint search over an equal-weight mixture of pure strategies.

    One multistart atom-block is seeded at the pure optimum, and the mixture
    is searched in the box the pure search ended in, so the value can only
    improve on the pure search.
    """
    if _count(n_atoms, "n_atoms") < 1:
        raise ValidationError("n_atoms must be >= 1")
    cfg = cfg or SearchConfig()
    pure_strat, radius = _pure_search(tree, pref, x0, ref, cfg)
    pure_val = cpt_value(tree, pure_strat, x0, ref, pref)
    if n_atoms == 1:
        return RandomizedStrategy.equal_weights([pure_strat]), pure_val

    search = _OffsetSearch(tree, pref, x0, ref, n_atoms, cfg.tol)
    rng = np.random.default_rng(cfg.seed)
    z_pure = np.tile(np.clip(pure_strat.as_flat(tree) - search.phi, -radius, radius), n_atoms)
    jitter = z_pure + rng.uniform(-radius / 8, radius / 8, z_pure.size)
    randoms = [rng.uniform(-radius, radius, z_pure.size) for _ in range(cfg.multistart)]
    atoms = search.atoms(search.best([z_pure, np.clip(jitter, -radius, radius), *randoms], radius))
    strategy = RandomizedStrategy.equal_weights(atoms)
    value = cpt_value(tree, strategy, x0, ref, pref)
    if pure_val.v is not None and value.v < pure_val.v - 1e-9:
        raise RuntimeError("randomized search fell below its pure seed; search is broken")
    return strategy, value


# --- the fair-coin one-step model with quartic-root gains -------------------

_SQRT_DISTORTION = Distortion.power(0.5)


def _position_law(
    theta_values: Sequence[float], weights: Sequence[float] | None
) -> tuple[np.ndarray, np.ndarray]:
    """The |theta| atoms of a mixed position and their external weights,
    equal unless given."""
    vals = np.abs(np.asarray(theta_values, dtype=float))
    if vals.ndim != 1 or vals.size == 0:
        raise ValidationError("need a flat sequence of at least one position atom")
    if not np.isfinite(vals).all():
        raise ValidationError("position atoms must be finite")
    if weights is None:
        return vals, np.full(vals.size, 1.0 / vals.size)
    w = np.asarray(weights, dtype=float)
    if w.shape != vals.shape:
        raise ValidationError("weights must match theta_values")
    check_masses(w.tolist(), "mixed position", "weight", "weights")
    return vals, w


def _coin_law(w: np.ndarray) -> tuple[np.ndarray, _Law]:
    """The external weights w of a mixed position and the kernel law of its
    gains: each |theta| atom wins with probability w/2, the coin's losing
    half gains 0 with probability 1/2."""
    return w, _Law(np.concatenate((w / 2.0, [0.5])))


def _coin_sides(
    vals: np.ndarray, law: tuple[np.ndarray, _Law], w_plus: Distortion | Callable
) -> tuple[np.ndarray, np.ndarray]:
    """Gain and loss sides of every row of a (K, m) block of |theta| atoms
    with the weights and gain law of ``_coin_law``."""
    w, gain_law = law
    n_rows, m = vals.shape
    gains = np.zeros((n_rows, m + 1))  # the coin's losing half gains 0
    gains[:, :m] = vals**0.25
    # one (1, m) @ (m, 1) product per row, the order of ``w @ row``: a
    # matrix-vector product, a left fold or np.sum each sum in another order
    v_minus = 0.5 * np.matmul(vals[:, None, :], w[:, None])[:, 0, 0]
    return _choquet_rows(gains, gain_law, w_plus), v_minus


def coin_cpt_value(
    theta_values: Sequence[float], weights: Sequence[float] | None = None
) -> CPTValue:
    """Exact CPT value of an externally mixed position in the fair-coin market.

    The position takes value theta with the given external weight; the coin
    makes |theta| a gain or a loss with probability 1/2 each, gains valued by
    the quartic root, losses linearly with no loss distortion.
    """
    vals, w = _position_law(theta_values, weights)
    (v_plus,), (v_minus,) = _coin_sides(vals[None], _coin_law(w), _SQRT_DISTORTION)
    return CPTValue.from_parts(float(v_plus), float(v_minus))


def _coin_cpt_rows(
    theta_rows: np.ndarray, law: tuple[np.ndarray, _Law], w_plus: Distortion | Callable
) -> np.ndarray:
    """The coin-market CPT value, gains distorted by ``w_plus``, of every
    row of a (K, m) block of positions, ``law`` being ``_coin_law(w)``: under
    the square-root distortion, ``coin_cpt_value(row, w).v``."""
    v_plus, v_minus = _coin_sides(np.abs(theta_rows), law, w_plus)
    return v_plus - v_minus


@dataclass(frozen=True)
class LadderResult:
    """Values, argmax |theta| atom lists and box binding, one level per external coin."""

    values: tuple[float, ...]
    argmax: tuple[tuple[float, ...], ...]
    box_bound: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.values, self.values[1:]):
            if b < a - 1e-9:
                raise ValidationError("ladder values must be nondecreasing within 1e-9")


def ladder(
    n_max: int,
    cfg: SearchConfig | None = None,
    w_plus: Distortion = _SQRT_DISTORTION,
) -> LadderResult:
    """Maximal coin-model value using 2^k equal-weight external atoms, k <= n_max,
    in closed form.

    Level k has m = 2^k atoms a_i. Sorted by y_i = a_i^(1/4), the i-th gain has
    survival S_i = (m - i + 1)/(2m), so V = sum_i Delta_i y_i - a_i/(2m) with
    Delta_i = w+(S_i) - w+(S_{i+1}) and S_{m+1} = 0. For a concave w+ the Choquet
    integral is the largest expectation over the distortion's core, whose extreme
    points give the atoms the Delta_i in every order (Schmeidler 1986; Denneberg,
    *Non-Additive Measure and Integral*, 1994). So sup V splits into one concave
    problem per atom, max over 0 <= y <= r^(1/4) of Delta_i y - y^4/(2m), solved
    by a_i = min((m Delta_i/2)^(4/3), r), which rises with Delta_i and so with i.
    ``box_bound[k]`` says whether the box r clips level k's top atom: under the
    square root that atom is (m/8)^(2/3), so the default r = 8 binds from n = 8
    on. Without a box the values rise to M_inf = (9/16) 2^(-1/3).

    Each level is valued by the coin kernel at its argmax, so under the square
    root ``values[k] == coin_cpt_value(argmax[k]).v``. Only a concave w+, a
    ``Distortion`` of the power (gamma <= 1) or identity family, is taken: a
    concave-looking callable proves nothing. ``cfg`` supplies only
    ``box_radius`` (default 8).
    """
    if _count(n_max, "n_max") < 0:
        raise ValidationError("n_max must be >= 0")
    if n_max > 12:
        raise ValidationError("n_max > 12 refused: 2^n atoms per level")
    if not (isinstance(w_plus, Distortion) and w_plus.family in ("power", "identity")):
        raise ValidationError("the exact ladder needs a power or identity gain Distortion")
    cfg = cfg or SearchConfig()
    radius = cfg.box_radius if cfg.box_radius is not None else 8.0
    values: list[float] = []
    argmaxes: list[tuple[float, ...]] = []
    bound: list[bool] = []
    for k in range(n_max + 1):
        m = 2**k
        w = w_plus(np.arange(m, -1, -1) / (2.0 * m))  # w+(S_i), i = 1, ..., m + 1
        free = (m * (w[:-1] - w[1:]) / 2.0) ** (4.0 / 3.0)
        atoms = np.sort(np.minimum(free, radius))
        values.append(float(_coin_cpt_rows(atoms[None], _coin_law(np.full(m, 1.0 / m)), w_plus)[0]))
        argmaxes.append(tuple(atoms.tolist()))
        bound.append(bool(free.max() > radius))
    return LadderResult(values=tuple(values), argmax=tuple(argmaxes), box_bound=tuple(bound))


@dataclass(frozen=True)
class PerturbationResult:
    rows: tuple[tuple[float, float, float], ...]  # (delta, v, v_minus)
    base_value: float
    smallest_atom: float
    derivative: float


def perturbation_check(
    theta_values: Sequence[float],
    deltas: Sequence[float],
    weights: Sequence[float] | None = None,
) -> PerturbationResult:
    """Value curve of the split perturbation a +- delta on the smallest nonzero atoms.

    The loss side is invariant along delta, so the curve's slope at zero is
    the gain-side derivative
    (sqrt2/8) a^(-3/4) (-sqrt(P(A)+P1) + sqrt2 sqrt(P(A)+2 P1) - sqrt(P1)),
    with P(A) the mass at the smallest nonzero magnitude a and P1 the mass
    strictly above it.
    """
    vals, w = _position_law(theta_values, weights)
    positive = vals > 0.0
    if not np.any(positive):
        raise ValidationError("argmax has no nonzero atom; nothing to perturb")
    a = float(vals[positive].min())
    mass_a = float(w[vals == a].sum())
    p1 = float(w[vals > a].sum())
    deriv = (
        (np.sqrt(2.0) / 8.0)
        * a ** (-0.75)
        * (-np.sqrt(mass_a + p1) + np.sqrt(2.0) * np.sqrt(mass_a + 2.0 * p1) - np.sqrt(p1))
    )
    rows = []
    for delta in deltas:
        delta = float(delta)
        if not 0.0 <= delta <= a:
            raise ValidationError(f"delta={delta} outside [0, smallest atom {a}]")
        keep = vals != a
        new_vals = np.concatenate((vals[keep], vals[~keep] + delta, vals[~keep] - delta))
        new_w = np.concatenate((w[keep], w[~keep] / 2.0, w[~keep] / 2.0))
        val = coin_cpt_value(new_vals, new_w)
        rows.append((delta, float(val.v), float(val.v_minus)))
    base = float(coin_cpt_value(vals, w).v)
    return PerturbationResult(
        rows=tuple(rows), base_value=base, smallest_atom=a, derivative=float(deriv)
    )
