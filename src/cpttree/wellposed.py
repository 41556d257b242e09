"""Closed-form ill-posedness constructions and an empirical boundedness probe.

The two-step construction trades a heavy-tailed second-period position whose
gain integral diverges while the loss integral stays finite whenever the
gain exponent ratio can be squeezed below 1 and the loss ratio above it.
Truncating the position keeps the value finite but lets it grow without
bound, so boundedness cannot be restored by capping strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .builders import build_market_from_level_pmfs, coin_pmf, uniform_quantile_pmf
from .choquet import CPTValue, _cpt_sides, _leaf_outcomes, tail_power_integral
from .choquet import cpt_value  # noqa: F401  (cptbench/tracing.py wraps it here)
from .errors import ValidationError
from .extreal import POS_INF, ExtReal, ext_json, ext_sub, is_finite, is_inf
from .optimize import SearchConfig, _probe_search
from .optimize import optimize_pure  # noqa: F401  (cptbench/tracing.py wraps it here)
from .preferences import PreferenceSpec, check_conditions
from .tree import PureStrategy, ReferenceSpec, ScenarioTree, finite_capital

VERDICT_ILL_POSED = "ill-posed"
VERDICT_WELL_POSED_INSTANCE = "well-posed-instance"
VERDICT_INCONCLUSIVE = "inconclusive"
# the relative gain below which the boundedness probe's last three points plateau
_PLATEAU_REL_TOL = 1e-6


@dataclass(frozen=True)
class IllposednessReport:
    v_plus: ExtReal
    v_minus: ExtReal
    verdict: str
    scan: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.verdict == VERDICT_ILL_POSED:
            diverging_scan = self.scan is not None and all(
                a[1] < b[1] for a, b in zip(self.scan, self.scan[1:])
            )
            if not ((is_inf(self.v_plus) and is_finite(self.v_minus)) or diverging_scan):
                raise ValidationError(
                    "ill-posed verdict needs an infinite gain side with finite losses "
                    "or a strictly growing scan"
                )

    def to_json_dict(self) -> dict:
        v = None
        if is_finite(self.v_minus):
            v = ext_json(ext_sub(self.v_plus, self.v_minus))
        return {
            "v_plus": ext_json(self.v_plus),
            "v_minus": ext_json(self.v_minus),
            "v": v,
            "verdict": self.verdict,
            "scan": [list(row) for row in self.scan] if self.scan is not None else None,
        }


class ScanRow(NamedTuple):
    n: float
    v_plus: float
    v_minus: float
    v: float


def _check_ell(ell: float) -> None:
    """Refuse a two-step tail exponent ``ell`` unless it is positive and finite."""
    if not 0.0 < ell < math.inf:  # NaN fails too
        raise ValidationError("ell must be positive and finite")


def _power_power_params(pref: PreferenceSpec, ell: float) -> tuple[float, float, float, float, float]:
    """(alpha_plus, alpha_minus, gamma_plus, gamma_minus, k_minus) of power
    preferences, for the two-step position of tail exponent ``ell``."""
    _check_ell(ell)
    if pref.utility.family_plus != "power" or pref.utility.family_minus != "power":
        raise ValidationError("two-step construction needs power utilities")
    if pref.distortion.plus.family not in ("power", "identity") or pref.distortion.minus.family not in (
        "power",
        "identity",
    ):
        raise ValidationError("two-step construction needs power distortions")
    return (
        pref.utility.alpha_plus,
        pref.utility.alpha_minus,
        pref.distortion.gamma_plus,
        pref.distortion.gamma_minus,
        pref.utility.k_minus,
    )


def two_step_example(pref: PreferenceSpec, ell: float) -> IllposednessReport:
    """Closed-form gain/loss tail integrals of the heavy-tailed two-step position.

    The position on the second period has survival y^-ell above 1, so the
    tails reduce to power integrals with exponents ell*gamma/alpha on each
    side; the verdict splits on which exponents exceed 1.
    """
    ap, am, gp, gm, km = _power_power_params(pref, ell)
    v_plus = tail_power_integral(2.0 ** (-gp), ell * gp / ap)
    v_minus_base = tail_power_integral(2.0 ** (-gm), ell * gm / am)
    v_minus: ExtReal = km * v_minus_base if is_finite(v_minus_base) else POS_INF
    if is_inf(v_minus):
        verdict = VERDICT_INCONCLUSIVE
    elif is_inf(v_plus):
        verdict = VERDICT_ILL_POSED
    else:
        verdict = VERDICT_WELL_POSED_INSTANCE
    return IllposednessReport(v_plus=v_plus, v_minus=v_minus, verdict=verdict)


def _incomplete_power(exponent: float, alpha: float, n: float) -> float:
    """int_1^{n^alpha} y^-exponent dy in closed form."""
    if abs(exponent - 1.0) < 1e-15:
        return alpha * math.log(n)
    return (n ** (alpha * (1.0 - exponent)) - 1.0) / (1.0 - exponent)


def truncation_scan(pref: PreferenceSpec, ell: float, n_list: Sequence[float]) -> list[ScanRow]:
    """Exact CPT values of the position capped at n, for each n in n_list.

    The capped law keeps the y^-ell survival up to n with an atom at n, so
    each side is the [0, 1] band plus an incomplete power integral.
    """
    ap, am, gp, gm, km = _power_power_params(pref, ell)
    rows = []
    for n in n_list:
        n = float(n)
        if not 1.0 <= n < math.inf:
            raise ValidationError("truncation levels must be finite and >= 1")
        v_plus = 2.0 ** (-gp) * (1.0 + _incomplete_power(ell * gp / ap, ap, n))
        v_minus = km * 2.0 ** (-gm) * (1.0 + _incomplete_power(ell * gm / am, am, n))
        rows.append(ScanRow(n=n, v_plus=v_plus, v_minus=v_minus, v=v_plus - v_minus))
    return rows


def illposed_demo(pref: PreferenceSpec, ell: float, n_list: Sequence[float]) -> tuple[IllposednessReport, list[ScanRow]]:
    """Report plus truncation scan, as emitted by the CLI."""
    rows = truncation_scan(pref, ell, n_list)
    report = two_step_example(pref, ell)
    return replace(report, scan=tuple((r.n, r.v) for r in rows)), rows


def one_step_scaling(pref: PreferenceSpec, p: float, n: float) -> float:
    """Value of the constant position n in the one-step two-point market:
    w_plus(p) n^alpha_plus - k w_minus(1-p) n^alpha_minus."""
    if not 0.0 < p < 1.0:
        raise ValidationError("p must lie in (0, 1)")
    if not 0.0 <= n < math.inf:
        raise ValidationError("n must be finite and >= 0")
    ut, dist = pref.utility, pref.distortion
    gain = float(dist.plus(p)) * n**ut.alpha_plus
    loss = ut.k_minus * float(dist.minus(1.0 - p)) * n**ut.alpha_minus
    return gain - loss


def two_step_uniform_market(n_atoms: int) -> ScenarioTree:
    """Two-period market: equal-mass discretized uniform [-1, 1] first-period
    increment, then an independent fair +-1 coin."""
    return build_market_from_level_pmfs([uniform_quantile_pmf(-1.0, 1.0, n_atoms), coin_pmf(1.0)])


def heavy_tail_strategy(tree: ScenarioTree, ell: float, cap: float) -> PureStrategy:
    """theta_1 = 0 and theta_2 = min((2/(1-x))^(1/ell), cap) with x the first increment."""
    _check_ell(ell)
    if not 0.0 < cap < math.inf:  # NaN fails too
        raise ValidationError("need a finite cap > 0")
    if tree.horizon != 2 or tree.asset_dim != 1:
        raise ValidationError("heavy-tail strategy is defined on two-period single-asset trees")
    alloc: dict[int, tuple[float, ...]] = {0: (0.0,)}
    for node in tree.nonterminal_ids:
        node = int(node)
        if node == 0:
            continue
        x = tree.increments[node][0]
        if x >= 1.0:
            theta = cap
        else:
            theta = min((2.0 / (1.0 - x)) ** (1.0 / ell), cap)
        alloc[node] = (float(theta),)
    return PureStrategy(alloc)


@dataclass(frozen=True)
class ProbeResult:
    points: tuple[tuple[float, float], ...]
    plateau: bool
    plateau_rel_tol: float

    def to_json_dict(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "plateau": self.plateau,
            "plateau_rel_tol": self.plateau_rel_tol,
        }


def boundedness_probe(
    tree: ScenarioTree,
    pref: PreferenceSpec,
    x0: float,
    ref: ReferenceSpec,
    box_radii: Sequence[float],
    cfg: SearchConfig | None = None,
    allow_condition_a_violation: bool = False,
) -> ProbeResult:
    """Best value found under growing per-node boxes; an empirical probe.

    For gate-respecting preferences the sequence must plateau (relative
    improvement below 1e-6 over the last three radius doublings). The
    probe refuses gate-violating preferences unless explicitly overridden
    for pathology demonstrations. Each radius runs the search of
    ``optimize_pure`` with that box radius, no box doubling and no extra
    start, independently of the other radii; radius 0 is the sub-hedge. The
    point at a radius is the best value among the searches at every radius
    up to it: a later radius replaces the held value only when its own is
    strictly greater, so the points are exactly nondecreasing and each is
    the value of a strategy within its box. ``box_radii`` set the boxes:
    ``cfg`` supplies the seed, ``multistart`` and ``tol``, a
    ``cfg.box_radius`` other than None is refused, and
    ``cfg.max_box_doublings`` does not apply.

    The searches share one set-up. The zero and -phi starts are polled
    once per ladder of radii that clip them to the same bytes, at its
    largest radius R_top, together with the random starts of every radius.
    A smaller radius R of the ladder, R_top / R a power of two to the bit,
    reads its result off that poll where the poll accepted no step above
    R/2, tried no candidate at R/2 or below outside the box of R, and did
    not run out of budget: the poll of radius R would make the same moves
    in the same order (``optimize._same_poll``). The other fixed starts are
    polled together afterwards. The strategies are those of one
    ``optimize_pure`` call per radius, bitwise: all of them are valued by
    one kernel call on the stacked strategies, whose rows do not depend on
    the block they share, and each is refused on overflow as ``cpt_value``
    refuses it.
    """
    if not check_conditions(pref).condition_a and not allow_condition_a_violation:
        raise ValidationError("boundedness probe refused: the decisive gate fails")
    cfg = cfg or SearchConfig()
    if cfg.box_radius is not None:
        raise ValidationError("the boundedness probe takes its boxes from box_radii, "
                              "not cfg.box_radius")
    radii = _probe_radii(box_radii)
    increasing = all(a < b for a, b in zip(radii, radii[1:]))  # NaN fails too
    if not (radii and increasing and all(0.0 <= r < math.inf for r in radii)):
        raise ValidationError("box_radii must be increasing, finite and nonnegative")
    strategies = _probe_search(tree, pref, x0, ref, radii, cfg)
    thetas = np.stack([s.as_matrix(tree) for s in strategies])
    outcomes = _leaf_outcomes(tree, thetas, finite_capital(x0), ref.benchmark_array(tree))
    sides = zip(*_cpt_sides(outcomes, tree.leaf_prob, pref))
    vals = [float(CPTValue.from_parts(float(p), float(m)).v) for p, m in sides]
    # the running max: max keeps the held value unless the later one is greater
    vals = list(accumulate(vals, max))
    plateau = False
    if len(vals) >= 4:
        rels = [
            (vals[i] - vals[i - 1]) / max(1.0, abs(vals[i - 1]))
            for i in range(len(vals) - 3, len(vals))
        ]
        plateau = all(r < _PLATEAU_REL_TOL for r in rels)
    return ProbeResult(
        points=tuple(zip(radii, vals)), plateau=plateau, plateau_rel_tol=_PLATEAU_REL_TOL
    )


def _probe_radii(box_radii: Sequence[float]) -> list[float]:
    """The probe radii as floats. A string is refused, whose characters
    would be probed as radii, and so are a scalar, ``None``, a nested
    sequence and an entry that is not a number."""
    try:
        entries = None if isinstance(box_radii, (str, bytes)) else list(box_radii)
        if entries is not None and not any(
            isinstance(r, (str, bytes)) or np.ndim(r) for r in entries
        ):
            return [float(r) for r in entries]
    except (TypeError, ValueError):
        pass
    raise ValidationError("box_radii must be a flat sequence of numbers")
