"""Finite multiperiod scenario-tree markets, trading strategies and reference points.

A market is a rooted tree: each non-root node carries the transition
probability from its parent and the price-increment vector realised on that
step. Node depth is the time index, every leaf sits at depth T, and wealth is
the initial capital plus the path sum of allocation-increment dot products.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ValidationError

PROB_TOL = 1e-12
# how far floor + sub-hedge wealth may exceed the benchmark at a leaf
_SUBHEDGE_TOL = 1e-12
# floats one block of ``ScenarioTree.families`` may span
_FAMILY_FLOATS = 1 << 16


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def float_vector(v: Sequence[float] | float) -> tuple[float, ...]:
    """A scalar as a 1-vector, a sequence as a tuple, of floats."""
    return (float(v),) if np.isscalar(v) else tuple(float(x) for x in v)


def _count(value: object, name: str) -> int:
    """``value`` as an int; floats such as 1.5 (or 2.0) are refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, not {value!r}") from None


def check_masses(masses: Sequence[float], law: str, mass: str, masses_name: str) -> None:
    """Refuse a finite law unless it has an atom, every mass lies in (0, 1]
    and the masses, added left to right, sum to 1 within ``PROB_TOL``. The
    messages name the ``law``, one ``mass`` and the ``masses_name``."""
    if not masses:
        raise ValidationError(f"{law} needs at least one atom")
    total = 0.0
    for p in masses:
        if not 0.0 < p <= 1.0:
            raise ValidationError(f"atom {mass} {p} outside (0, 1]")
        total += p
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(f"atom {masses_name} sum to {total!r}, not 1")


def content_lines(text: str) -> list[str]:
    """The stripped lines of ``text`` that are neither blank nor ``#`` comments."""
    stripped = (ln.strip() for ln in text.splitlines())
    return [ln for ln in stripped if ln and not ln.startswith("#")]


def segment_sums(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """``np.sum`` of each run of ``values`` from the increasing offsets ``first``,
    bitwise: ``reduceat`` starts a run from its first item and ``np.sum`` from
    0.0, in the same pairwise order after it, so every run is led by a 0.0."""
    heads = first + np.arange(first.size)
    rest = np.ones(values.size + first.size, dtype=bool)
    rest[heads] = False
    led = np.zeros(rest.size)
    led[rest] = values
    return np.add.reduceat(led, heads)


@dataclass(frozen=True)
class ScenarioTree:
    """Event tree with per-node transition probabilities and increments.

    Node 0 is the root (parent -1, probability 1, zero increment). Parents
    precede children in the id order, so id order is a topological order.
    ``states`` optionally carries a per-node state vector for builders that
    evolve an underlying process.
    """

    horizon: int
    asset_dim: int
    parent: tuple[int, ...]
    prob: tuple[float, ...]
    increments: tuple[tuple[float, ...], ...]
    states: tuple[tuple[float, ...], ...] | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # stored as the ints they count, so the market text reads them back
        for size in ("horizon", "asset_dim"):
            count = _count(getattr(self, size), size)
            if count < 1:
                raise ValidationError(f"{size} must be >= 1")
            object.__setattr__(self, size, count)
        n = len(self.parent)
        if len(self.prob) != n or len(self.increments) != n:
            raise ValidationError("parent, prob and increments must have equal length")
        if n == 0 or self.parent[0] != -1:
            raise ValidationError("node 0 must be the root with parent -1")
        # the first bad node of each check, in id order
        parent = self.parent_array
        early = np.flatnonzero((parent[1:] < 0) | (parent[1:] >= np.arange(1, n))) + 1
        if early.size:
            raise ValidationError(f"node {early[0]}: parent must precede the node")
        if self.prob[0] != 1.0:
            raise ValidationError("root probability must be 1")
        p = self.prob_array
        outside = np.flatnonzero(~((p[1:] > 0.0) & (p[1:] <= 1.0))) + 1
        if outside.size:
            i = outside[0]
            raise ValidationError(f"node {i}: probability {self.prob[i]} outside (0, 1]")
        wrong = np.flatnonzero(np.fromiter(map(len, self.increments), int, n) != self.asset_dim)
        k = wrong[0] if wrong.size else n
        incs = self.increment_matrix if k == n else np.array(self.increments[:k], dtype=float)
        infinite = np.flatnonzero(~np.isfinite(incs.reshape(k, self.asset_dim)).all(axis=1))
        if infinite.size:
            raise ValidationError(f"node {infinite[0]}: non-finite increment")
        if k < n:
            raise ValidationError(f"node {k}: increment dimension != {self.asset_dim}")
        if self.states is not None:
            if len(self.states) != n:
                raise ValidationError("states must cover every node")
            width = len(self.states[0])
            if any(len(s) != width for s in self.states):
                raise ValidationError("state vectors must share one dimension")
        # the first node, in id order, whose family breaks the tree's shape
        depth = self.depth
        count = np.diff(self.child_layout[1])
        sums = np.ones(n)
        for rows, kids in self.families():
            # the last column of a row's cumulative sum is the left fold ``sum`` makes
            sums[self.nonterminal_ids[rows]] = self.prob_array[kids].cumsum(axis=1)[:, -1]
        at_t = depth == self.horizon
        bad = np.where(at_t, count > 0, (count == 0) | (np.abs(sums - 1.0) > PROB_TOL))
        if bad.any():
            i = int(bad.argmax())
            if at_t[i]:
                raise ValidationError(f"node {i}: children below depth T")
            if not count[i]:
                raise ValidationError(f"node {i}: leaf at depth {depth[i]} != T")
            raise ValidationError(
                f"node {i}: children probabilities sum to {float(sums[i])!r}, not 1"
            )

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @cached_property
    def parent_array(self) -> np.ndarray:
        """``parent`` as an array, converted once per tree."""
        parent = np.array(self.parent)
        parent.flags.writeable = False
        return parent

    @cached_property
    def depth(self) -> np.ndarray:
        # pointer doubling: d[i] edges lead from node i up to jump[i]
        jump = self.parent_array.copy()
        jump[0] = 0
        d = np.ones(self.n_nodes, dtype=int)
        d[0] = 0
        while jump.any():
            d += d[jump]
            jump = jump[jump]
        d.flags.writeable = False
        return d

    @cached_property
    def child_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The children layout: child ids sorted stably by parent, so node i's
        children are ``kids[first[i]:first[i + 1]]``, in id order."""
        parent = self.parent_array
        kids = parent[1:].argsort(kind="stable") + 1
        first = np.zeros(self.n_nodes + 1, dtype=int)
        np.cumsum(np.bincount(parent[1:], minlength=self.n_nodes), out=first[1:])
        kids.flags.writeable = False
        first.flags.writeable = False
        return kids, first

    def families(self, floats_per_child: int = 1) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The non-terminal nodes' children, in blocks of equal family size.

        Yields ``(rows, kids)``: ``rows`` are positions in ``nonterminal_ids``
        and ``kids[k]`` is the children of ``nonterminal_ids[rows[k]]`` in id
        order. Equal sizes need no padding, so one large family does not
        widen every row; a block spans at most ``_FAMILY_FLOATS`` floats at
        ``floats_per_child`` per child, and at least one family.
        """
        kids, first = self.child_layout
        nodes = self.nonterminal_ids
        size = first[nodes + 1] - first[nodes]
        order = size.argsort(kind="stable")
        cuts = [0, *(np.flatnonzero(np.diff(size[order])) + 1).tolist(), len(order)]
        for a, b in zip(cuts, cuts[1:]):
            width = int(size[order[a]])
            step = max(1, _FAMILY_FLOATS // (width * floats_per_child))
            for lo in range(a, b, step):
                rows = order[lo : min(lo + step, b)]
                yield rows, kids[first[nodes[rows]][:, None] + np.arange(width)]

    @cached_property
    def paths(self) -> np.ndarray:
        """The (T+1, leaves) path table: column j is the path from the root to
        leaf j, row t its nodes at depth t. The leaves are in depth-first
        order, so the leaves below any node are one run of its row."""
        parent = self.parent_array
        rows = [np.flatnonzero(self.depth == self.horizon)]
        for _ in range(self.horizon):
            rows.append(parent[rows[-1]])
        table = np.stack(rows[::-1])
        # sort the paths by their nodes, the depth-1 node first
        table = table[:, np.lexsort(rows[:-1])]
        table.flags.writeable = False
        return table

    @cached_property
    def leaf_ids(self) -> np.ndarray:
        """Leaves in depth-first order; for level-by-level ids this is id order."""
        return self.paths[-1]

    @cached_property
    def nonterminal_ids(self) -> np.ndarray:
        first = self.child_layout[1]
        ids = np.flatnonzero(first[1:] > first[:-1])
        ids.flags.writeable = False
        return ids

    @cached_property
    def parent_rows(self) -> np.ndarray:
        """For each non-root node, the position of its parent in
        ``nonterminal_ids``: the row of its allocation in a strategy matrix."""
        rows = np.searchsorted(self.nonterminal_ids, self.parent_array[1:])
        rows.flags.writeable = False
        return rows

    @cached_property
    def prob_array(self) -> np.ndarray:
        p = np.array(self.prob, dtype=float)
        p.flags.writeable = False
        return p

    @cached_property
    def increment_matrix(self) -> np.ndarray:
        m = np.array(self.increments, dtype=float)
        m.flags.writeable = False
        return m

    @cached_property
    def path_prob(self) -> np.ndarray:
        """Probability of reaching each node (product of branch probabilities)."""
        p = np.ones(self.n_nodes)
        for up, nodes in zip(self.paths, self.paths[1:]):
            p[nodes] = p[up] * self.prob_array[nodes]
        p.flags.writeable = False
        return p

    @cached_property
    def leaf_prob(self) -> np.ndarray:
        p = self.path_prob[self.leaf_ids]
        p.flags.writeable = False
        return p


@dataclass(frozen=True)
class PureStrategy:
    """Predictable allocation: the vector attached to a non-terminal node at
    depth t is the position held over the step t -> t+1."""

    allocations: Mapping[int, tuple[float, ...]]

    @classmethod
    def constant(cls, tree: ScenarioTree, vector: Sequence[float] | float) -> "PureStrategy":
        if np.isscalar(vector):
            vector = (float(vector),) * tree.asset_dim
        vec = tuple(float(v) for v in vector)
        if len(vec) != tree.asset_dim:
            raise ValidationError("allocation dimension != asset_dim")
        return cls(dict.fromkeys(tree.nonterminal_ids.tolist(), vec))

    @classmethod
    def zeros(cls, tree: ScenarioTree) -> "PureStrategy":
        return cls.constant(tree, (0.0,) * tree.asset_dim)

    @classmethod
    def from_flat(cls, tree: ScenarioTree, flat: np.ndarray) -> "PureStrategy":
        """Inverse of ``as_flat``: one row of length asset_dim per non-terminal node."""
        mat = np.asarray(flat, dtype=float).reshape(len(tree.nonterminal_ids), tree.asset_dim)
        return cls(dict(zip(tree.nonterminal_ids.tolist(), map(tuple, mat.tolist()))))

    def as_matrix(self, tree: ScenarioTree) -> np.ndarray:
        """Allocations stacked in nonterminal-id order; rejects structural
        mismatch and non-finite allocations."""
        ids = tree.nonterminal_ids.tolist()
        rows = list(map(self.allocations.get, ids))
        try:
            mat = np.array(rows, dtype=float)
        except (TypeError, ValueError):
            mat = None
        if mat is None or mat.shape != (len(ids), tree.asset_dim):
            # the first node, in id order, that is missing or of the wrong size
            for node, vec in zip(ids, rows):
                if vec is None:
                    raise ValidationError(f"strategy missing allocation for node {node}")
                if len(vec) != tree.asset_dim:
                    raise ValidationError(f"node {node}: allocation dimension != asset_dim")
            mat = np.array(rows, dtype=float)  # re-raises what no check above names
        if len(self.allocations) != len(ids):
            extra = set(self.allocations) - set(ids)
            raise ValidationError(f"strategy allocates at non-strategy node {min(extra)}")
        infinite = np.flatnonzero(~np.isfinite(mat).all(axis=1))
        if infinite.size:
            raise ValidationError(f"node {ids[infinite[0]]}: allocation is not finite")
        return mat

    def as_flat(self, tree: ScenarioTree) -> np.ndarray:
        return self.as_matrix(tree).reshape(-1)


@dataclass(frozen=True)
class RandomizedStrategy:
    """Mixture of pure strategies driven by a finite external random source."""

    atoms: tuple[tuple[float, PureStrategy], ...]

    def __post_init__(self) -> None:
        check_masses([w for w, _ in self.atoms], "randomized strategy", "weight", "weights")

    @classmethod
    def equal_weights(cls, strategies: Sequence[PureStrategy]) -> "RandomizedStrategy":
        return cls(tuple((1.0 / len(strategies), s) for s in strategies))


Strategy = PureStrategy | RandomizedStrategy


@dataclass(frozen=True)
class ReferenceSpec:
    """Stochastic reference point together with a sub-hedging strategy and floor."""

    benchmark: Mapping[int, float]
    subhedge: PureStrategy
    floor: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.floor):
            raise ValidationError(f"floor {self.floor!r} is not finite")

    @classmethod
    def zero(cls, tree: ScenarioTree) -> "ReferenceSpec":
        return cls(
            benchmark={int(leaf): 0.0 for leaf in tree.leaf_ids},
            subhedge=PureStrategy.zeros(tree),
            floor=0.0,
        )

    @classmethod
    def constant(cls, tree: ScenarioTree, level: float) -> "ReferenceSpec":
        """Constant benchmark, sub-hedged by the zero strategy with floor min(level, 0)."""
        return cls(
            benchmark={int(leaf): float(level) for leaf in tree.leaf_ids},
            subhedge=PureStrategy.zeros(tree),
            floor=float(np.fmin(level, 0.0)),  # 0 for a NaN level, which benchmark_array refuses
        )

    def benchmark_array(self, tree: ScenarioTree) -> np.ndarray:
        """Benchmark levels in ``leaf_ids`` order; rejects missing or
        non-finite levels."""
        leaves = tree.leaf_ids.tolist()
        vals = list(map(self.benchmark.get, leaves))
        if None in vals:
            raise ValidationError(f"benchmark missing leaf {leaves[vals.index(None)]}")
        out = np.array(vals, dtype=float)
        infinite = np.flatnonzero(~np.isfinite(out))
        if infinite.size:
            raise ValidationError(f"benchmark at leaf {leaves[infinite[0]]} is not finite")
        return out


def finite_capital(x0: float) -> float:
    """The initial capital as a float; NaN and infinities are refused."""
    x = float(x0)
    if not np.isfinite(x):
        raise ValidationError(f"initial capital x0={x0!r} is not finite")
    return x


def leaf_wealth(tree: ScenarioTree, theta: np.ndarray, x0: float) -> np.ndarray:
    """Terminal wealth in ``leaf_ids`` order for allocations stacked in
    nonterminal-id order: x0 plus the path sum of allocation.increment. A
    stack of such allocations, (A, nodes, d), gives one row of leaves each.

    Every non-root node's row dot product is one stacked matmul; the sums
    then fold down ``tree.paths`` from the root, the same order as a
    node-by-node recursion. A wealth past the double range is refused here,
    where it arises.
    """
    rows = np.asarray(theta)[..., tree.parent_rows, :]
    with np.errstate(over="ignore", invalid="ignore"):
        dots = np.matmul(rows[..., None, :], tree.increment_matrix[1:, :, None])[..., 0, 0]
        wealth = float(x0)
        for nodes in tree.paths[1:]:
            wealth = wealth + dots[..., nodes - 1]
    if not np.isfinite(wealth).all():
        raise ValidationError("terminal wealth overflows the double range")
    return wealth


def terminal_wealth(tree: ScenarioTree, strategy: PureStrategy, x0: float) -> dict[int, float]:
    """Terminal wealth per leaf: x0 plus the path sum of allocation.increment."""
    wealth = leaf_wealth(tree, strategy.as_matrix(tree), finite_capital(x0))
    return dict(zip(tree.leaf_ids.tolist(), wealth.tolist()))


def validate_subhedge(tree: ScenarioTree, ref: ReferenceSpec) -> tuple[bool, int | None]:
    """Check floor + subhedge wealth <= benchmark + 1e-12 leaf-by-leaf; returns
    a witness leaf."""
    wealth = leaf_wealth(tree, ref.subhedge.as_matrix(tree), ref.floor)
    above = np.flatnonzero(wealth > ref.benchmark_array(tree) + _SUBHEDGE_TOL)
    if above.size:
        return False, int(tree.leaf_ids[above[0]])
    return True, None


def _fmt_columns(values: np.ndarray) -> list[list[str]]:
    """``_fmt`` of each entry of a 2-D float array, as one list per column.

    Each distinct value is formatted once; values are told apart by their
    bits, which keeps -0.0 and 0.0 apart.
    """
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([_fmt(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[index.reshape(values.shape).T].tolist()


def emit_market(tree: ScenarioTree) -> str:
    """Line-oriented market text; canonical node order makes round-trips byte-stable.

    Trees repeat their probabilities and increments, so ``_fmt_columns``
    formats each distinct value once.
    """
    d = tree.asset_dim
    columns = _fmt_columns(np.column_stack([tree.prob_array[1:], tree.increment_matrix[1:]]))
    line = "node %d parent %d p %s dS " + " ".join(["%s"] * d)
    lines = [f"T={tree.horizon} d={d}"]
    lines += map(line.__mod__, zip(range(1, tree.n_nodes), tree.parent[1:], *columns))
    return "\n".join(lines) + "\n"


def parse_market(text: str) -> ScenarioTree:
    """Parse the market text format; the root (node 0) is implicit."""
    lines = content_lines(text)
    if not lines:
        raise ValidationError("empty market file")
    try:
        t, d = lines[0].split()  # exactly T=<int> d=<int>
        if not (t.startswith("T=") and d.startswith("d=")):
            raise ValueError
        horizon, asset_dim = int(t[2:]), int(d[2:])
    except ValueError as exc:
        raise ValidationError(f"bad market header {lines[0]!r}") from exc
    entries: dict[int, tuple[int, float, tuple[float, ...]]] = {}
    for ln in lines[1:]:
        tok = ln.split()
        if len(tok) < 7 or tok[0] != "node" or tok[2] != "parent" or tok[4] != "p" or tok[6] != "dS":
            raise ValidationError(f"bad market line {ln!r}")
        try:
            node = int(tok[1])
            par = int(tok[3])
            p = float(tok[5])
            ds = tuple(float(v) for v in tok[7:])
        except ValueError as exc:
            raise ValidationError(f"bad market line {ln!r}") from exc
        if node in entries:
            raise ValidationError(f"duplicate node {node}")
        entries[node] = (par, p, ds)
    n = len(entries)
    if sorted(entries) != list(range(1, n + 1)):
        raise ValidationError("node ids must be 1..n")
    parent = [-1] + [entries[i][0] for i in range(1, n + 1)]
    prob = [1.0] + [entries[i][1] for i in range(1, n + 1)]
    incs = [(0.0,) * asset_dim] + [entries[i][2] for i in range(1, n + 1)]
    return ScenarioTree(
        horizon=horizon,
        asset_dim=asset_dim,
        parent=tuple(parent),
        prob=tuple(prob),
        increments=tuple(incs),
    )
