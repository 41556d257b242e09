"""Utility pairs, probability distortions and the well-posedness parameter gates.

Gains and losses are valued by u_plus and u_minus on the nonnegative half
line; cumulative probabilities are reweighted by distortions w_plus, w_minus.
The decisive parameter gate is alpha_plus / gamma_plus < alpha_minus: it
bounds the distortion-modulated risk appetite on gains by the loss aversion
exponent and opens a nonempty interval for the auxiliary exponent lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ValidationError
from .tree import content_lines

_ENVELOPE_GRID = np.concatenate(([0.0], np.logspace(-6.0, 6.0, 49)))
_UNIT_GRID = np.linspace(0.0, 1.0, 201)


def _distortion_gamma(gamma: float) -> float:
    """A distortion exponent as a float; refused outside (0, 1]."""
    if not 0.0 < gamma <= 1.0:
        raise ValidationError("gamma must lie in (0, 1]")
    return float(gamma)


def tk_distortion(gamma: float, p: float | np.ndarray) -> float | np.ndarray:
    """Inverse-S probability weighting p^g / (p^g + (1-p)^g)^(1/g); exact at 0 and 1."""
    _distortion_gamma(gamma)
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValidationError("p must lie in [0, 1]")
    num = arr**gamma
    out = num / (num + (1.0 - arr) ** gamma) ** (1.0 / gamma)
    return float(out) if np.isscalar(p) else out


@dataclass(frozen=True)
class Distortion:
    """One distortion w: [0,1] -> [0,1] with its power-envelope data.

    ``gamma`` is the power exponent governing behavior near 0; ``g_upper``
    certifies w(p) <= g_upper * p^gamma and ``g_lower`` certifies
    w(p) >= g_lower * p, whichever side a preference pair needs.
    """

    family: str
    gamma: float
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    g_upper: float | None = None
    g_lower: float | None = None

    def __call__(self, p: np.ndarray | float) -> np.ndarray | float:
        return self.fn(p)

    @classmethod
    def identity(cls) -> "Distortion":
        return cls("identity", 1.0, lambda p: p, g_upper=1.0, g_lower=1.0)

    @classmethod
    def power(cls, gamma: float) -> "Distortion":
        g = _distortion_gamma(gamma)
        # p^g <= p^g and p^g >= p on [0, 1]
        return cls("power", g, lambda p: np.asarray(p, dtype=float) ** g, g_upper=1.0, g_lower=1.0)

    @classmethod
    def tk(cls, gamma: float) -> "Distortion":
        g = _distortion_gamma(gamma)
        # denominator of the weight lies in [1, 2^{1-g}], hence the two envelopes
        return cls(
            "tk",
            g,
            lambda p: tk_distortion(g, p),
            g_upper=1.0,
            g_lower=float(2.0 ** ((g - 1.0) / g)),
        )

    @classmethod
    def custom(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        gamma: float,
        g_upper: float | None = None,
        g_lower: float | None = None,
    ) -> "Distortion":
        return cls("custom", _distortion_gamma(gamma), fn, g_upper, g_lower)


def _check_distortion_shape(d: Distortion, side: str) -> None:
    vals = np.asarray(d.fn(_UNIT_GRID), dtype=float)
    if abs(float(d.fn(0.0))) > 1e-12 or abs(float(d.fn(1.0)) - 1.0) > 1e-12:
        raise ValidationError(f"{side} distortion must satisfy w(0)=0, w(1)=1")
    if np.any(np.diff(vals) < -1e-12):
        raise ValidationError(f"{side} distortion not monotone on the check grid")
    if side == "gain":
        # the chained comparisons fail on NaN too
        if d.g_upper is None or not 0.0 < d.g_upper < np.inf:
            raise ValidationError("gain distortion needs a positive finite upper envelope constant")
        bound = d.g_upper * _UNIT_GRID**d.gamma
        if np.any(vals > bound + 1e-9):
            raise ValidationError("gain distortion violates w(p) <= g * p^gamma on the grid")
    else:
        if d.g_lower is None or not 0.0 < d.g_lower < np.inf:
            raise ValidationError("loss distortion needs a positive finite lower envelope constant")
        if np.any(vals < d.g_lower * _UNIT_GRID - 1e-9):
            raise ValidationError("loss distortion violates w(p) >= g * p on the grid")


@dataclass(frozen=True)
class DistortionPair:
    plus: Distortion
    minus: Distortion

    def __post_init__(self) -> None:
        _check_distortion_shape(self.plus, "gain")
        _check_distortion_shape(self.minus, "loss")

    @property
    def gamma_plus(self) -> float:
        return self.plus.gamma

    @property
    def gamma_minus(self) -> float:
        return self.minus.gamma

    @property
    def g_plus(self) -> float:
        return float(self.plus.g_upper)

    @property
    def g_minus(self) -> float:
        return float(self.minus.g_lower)


@dataclass(frozen=True)
class UtilityPair:
    """Gain/loss utilities with the power-envelope constants they declare.

    The built-in power family is u_plus(x) = x^alpha_plus and
    u_minus(x) = k_minus * x^alpha_minus; plug-ins must declare constants
    making u_plus(x) <= k_plus (x^alpha_plus + 1) and
    u_minus(x) >= k_minus (x^alpha_minus - 1), which is spot-checked on a
    log-spaced grid at construction.
    """

    u_plus: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    u_minus: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    k_plus: float
    alpha_plus: float
    k_minus: float
    alpha_minus: float
    family_plus: str = "custom"
    family_minus: str = "custom"

    def __post_init__(self) -> None:
        for name, a in (("alpha_plus", self.alpha_plus), ("alpha_minus", self.alpha_minus)):
            if not 0.0 < a <= 1.0:
                raise ValidationError(f"{name} must lie in (0, 1]")
        if not (0 < self.k_plus < np.inf and 0 < self.k_minus < np.inf):
            raise ValidationError("envelope constants must be positive and finite")
        up = np.asarray(self.u_plus(_ENVELOPE_GRID), dtype=float)
        um = np.asarray(self.u_minus(_ENVELOPE_GRID), dtype=float)
        if abs(up[0]) > 1e-12 or abs(um[0]) > 1e-12:
            raise ValidationError("utilities must vanish at 0")
        if np.any(up < -1e-12) or np.any(um < -1e-12):
            raise ValidationError("utilities must be nonnegative")
        cap = self.k_plus * (_ENVELOPE_GRID**self.alpha_plus + 1.0)
        if np.any(up > cap * (1.0 + 1e-9) + 1e-9):
            raise ValidationError("u_plus violates its upper envelope on the grid")
        floor = self.k_minus * (_ENVELOPE_GRID**self.alpha_minus - 1.0)
        if np.any(um < floor * (1.0 + 1e-9) - 1e-9):
            raise ValidationError("u_minus violates its lower envelope on the grid")

    @classmethod
    def power(cls, alpha_plus: float, alpha_minus: float, k: float = 1.0) -> "UtilityPair":
        ap, am, kk = float(alpha_plus), float(alpha_minus), float(k)
        return cls(
            u_plus=lambda x: np.asarray(x, dtype=float) ** ap,
            u_minus=lambda x: kk * np.asarray(x, dtype=float) ** am,
            k_plus=1.0,
            alpha_plus=ap,
            k_minus=kk,
            alpha_minus=am,
            family_plus="power",
            family_minus="power",
        )


def _lambda_bounds(utility: UtilityPair, distortion: DistortionPair) -> tuple[float, float]:
    """The ends (1/gamma_plus, alpha_minus/alpha_plus) of lambda's feasible interval."""
    return 1.0 / distortion.gamma_plus, utility.alpha_minus / utility.alpha_plus


def _lambda_interval(
    utility: UtilityPair, distortion: DistortionPair
) -> tuple[float, float] | None:
    """The feasible interval of lambda, or None when no double lies strictly
    inside it. This is the decisive gate alpha_plus/gamma_plus < alpha_minus
    as floats can use it: an interval whose ends are adjacent doubles holds
    no lambda."""
    lo, hi = _lambda_bounds(utility, distortion)
    return (lo, hi) if np.nextafter(lo, np.inf) < hi else None


@dataclass(frozen=True)
class PreferenceSpec:
    """Utility pair + distortion pair + the chosen auxiliary exponent lambda.

    lambda defaults to the midpoint of the feasible interval
    (1/gamma_plus, alpha_minus/alpha_plus) when the decisive gate holds, or
    to the double just above 1/gamma_plus where the midpoint rounds onto an
    end; it must satisfy lambda*gamma_plus > 1 and lambda*alpha_plus <
    alpha_minus, and stays undefined when no double does.
    """

    utility: UtilityPair
    distortion: DistortionPair
    lam: float | None = None

    def __post_init__(self) -> None:
        lo, hi = _lambda_bounds(self.utility, self.distortion)
        if self.lam is None:
            # found exactly when ``_lambda_interval`` is not None
            for lam in (0.5 * (lo + hi), float(np.nextafter(lo, np.inf))):
                if lo < lam < hi:
                    object.__setattr__(self, "lam", lam)
                    break
        elif not lo < self.lam < hi:
            raise ValidationError(f"lambda={self.lam} outside the feasible interval ({lo}, {hi})")

    @property
    def condition_a(self) -> bool:
        """The decisive gate: some lambda lies strictly in its feasible interval."""
        return _lambda_interval(self.utility, self.distortion) is not None


def coin_model_preferences() -> PreferenceSpec:
    """Quartic-root gains, linear losses, square-root gain weighting."""
    return PreferenceSpec(
        utility=UtilityPair.power(0.25, 1.0),
        distortion=DistortionPair(Distortion.power(0.5), Distortion.identity()),
    )


def tversky_kahneman_preferences() -> PreferenceSpec:
    """The experimentally calibrated parameterization (0.88, 2.25, 0.61, 0.69)."""
    return PreferenceSpec(
        utility=UtilityPair.power(0.88, 0.88, k=2.25),
        distortion=DistortionPair(Distortion.tk(0.61), Distortion.tk(0.69)),
    )


@dataclass(frozen=True)
class ParamReport:
    condition_a: bool
    condition_bulb: bool
    feasible_lambda_interval: tuple[float, float] | None
    chosen_lambda: float | None
    tk_pathology_p: float | None

    def to_json_dict(self) -> dict:
        return {
            "condition_a": self.condition_a,
            "condition_bulb": self.condition_bulb,
            "feasible_lambda_interval": (
                list(self.feasible_lambda_interval) if self.feasible_lambda_interval else None
            ),
            "chosen_lambda": self.chosen_lambda,
            "tk_pathology_p": self.tk_pathology_p,
        }


def check_conditions(pref: PreferenceSpec) -> ParamReport:
    """Evaluate the decisive gate, the weaker two-sided gate and the lambda interval."""
    ap, am = pref.utility.alpha_plus, pref.utility.alpha_minus
    gp, gm = pref.distortion.gamma_plus, pref.distortion.gamma_minus
    interval = _lambda_interval(pref.utility, pref.distortion)
    condition_bulb = ap < am and ap / gp <= am / gm
    pathology = None
    if pref.distortion.plus.family == "tk" and pref.distortion.minus.family == "tk":
        pathology = tk_pathology_threshold(pref.utility.k_minus, gp, gm)
    return ParamReport(
        condition_a=interval is not None,
        condition_bulb=condition_bulb,
        feasible_lambda_interval=interval,
        chosen_lambda=pref.lam,
        tk_pathology_p=pathology,
    )


def tk_pathology_threshold(k: float, gamma_plus: float, gamma_minus: float) -> float | None:
    """Root of w_plus(p) = k * w_minus(1 - p) for the inverse-S family.

    Beyond the root the equal-exponent one-step problem scales to +infinity.
    Both sides are monotone, so plain bisection to 1e-10 suffices. Returns
    None when there is no sign change on (0, 1).
    """
    if k <= 0:
        raise ValidationError("k must be positive")

    def f(p: float) -> float:
        return float(tk_distortion(gamma_plus, p)) - k * float(tk_distortion(gamma_minus, 1.0 - p))

    lo, hi = 1e-12, 1.0 - 1e-12
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        return None
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# the distortion families a preference file may name, each built from its gamma
_DISTORTION_FAMILIES: dict[str, Callable[[float], Distortion]] = {
    "identity": lambda gamma: Distortion.identity(),
    "power": Distortion.power,
    "tk": Distortion.tk,
}


def _build_distortion(family: str, gamma: float | None, side: str) -> Distortion:
    if gamma is None and family != "identity":
        raise ValidationError(f"family_w{side}={family} requires gamma_{side}")
    return _DISTORTION_FAMILIES[family](gamma)


# the keys parse_preferences reads; any other key is a misspelling
_PREF_KEYS = {"alpha_plus", "alpha_minus", "k", "k_minus", "lambda", "gamma_plus", "gamma_minus",
              "family_uplus", "family_uminus", "family_wplus", "family_wminus"}


def parse_preferences(text: str, overrides: Mapping[str, str] | None = None) -> PreferenceSpec:
    """Parse key=value preference lines, applying CLI-style overrides last."""
    kv: dict[str, str] = {}
    for ln in content_lines(text):
        if "=" not in ln:
            raise ValidationError(f"bad preference line {ln!r}")
        key, val = ln.split("=", 1)
        kv[key.strip()] = val.strip()
    if overrides:
        kv.update({k: str(v) for k, v in overrides.items()})
    unknown = sorted(kv.keys() - _PREF_KEYS)
    if unknown:
        raise ValidationError(f"not a preference key: {', '.join(map(repr, unknown))}")

    def fget(key: str, default: float | None = None) -> float | None:
        if key not in kv:
            return default
        try:
            return float(kv[key])
        except ValueError as exc:
            raise ValidationError(f"bad numeric value for {key}: {kv[key]!r}") from exc

    for side in ("uplus", "uminus"):
        fam = kv.get(f"family_{side}", "power")
        if fam != "power":
            raise ValidationError(f"family_{side}={fam!r} unsupported in files (use the API)")
    alpha_plus = fget("alpha_plus")
    alpha_minus = fget("alpha_minus")
    if alpha_plus is None or alpha_minus is None:
        raise ValidationError("preference file must set alpha_plus and alpha_minus")
    k_minus = fget("k_minus", fget("k", 1.0))
    utility = UtilityPair.power(alpha_plus, alpha_minus, k=k_minus)

    fam_p = kv.get("family_wplus", "identity")
    fam_m = kv.get("family_wminus", "identity")
    if fam_p not in _DISTORTION_FAMILIES or fam_m not in _DISTORTION_FAMILIES:
        raise ValidationError("distortion families must be identity, power or tk")
    distortion = DistortionPair(
        _build_distortion(fam_p, fget("gamma_plus"), "plus"),
        _build_distortion(fam_m, fget("gamma_minus"), "minus"),
    )
    return PreferenceSpec(utility=utility, distortion=distortion, lam=fget("lambda"))
