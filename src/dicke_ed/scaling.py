"""Finite-size sweeps at fixed coupling and scaling-exponent extraction.

A sweep solves one parameter point per system size (defaulting to the
critical coupling) and produces a positive deviation series; the exponent is
the infinite-N intercept of the local log-log slopes, fit over the large-N
half of the series against an estimated correction power (see
:func:`extrapolate_exponent`).  Small-N curvature would otherwise bias the
intercept.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, FitError
from .model import ModelParams, critical_coupling
from .observables import DEFAULT_SCHEDULE, converge, observable_set

__all__ = [
    "ScalingSeries",
    "ExponentFit",
    "SERIES",
    "observable_sweep",
    "deviation_series",
    "extrapolate_exponent",
    "fit_concurrence_limit",
]

MIN_SERIES_POINTS = 4  # sizes an exponent fit needs

# observable -> (tracked key, default per-point convergence threshold)
SERIES = {"energy": ("e0", 1e-8), "berry": ("b_n", 1e-6), "concurrence": ("c_n", 1e-6)}

# The stock truncation schedule topped up for the slowest corner of the
# scaling sweeps (small N deep in the adiabatic regime, e.g. D = 10 at
# N = 16, needs n_tr ~ 128 to push the energy tail below 1e-8).
SCALING_SCHEDULE = DEFAULT_SCHEDULE + (128, 160, 192)


@dataclass(frozen=True)
class ScalingSeries:
    """(N, value) pairs at fixed coupling, ready for log-log analysis."""

    big_d: float
    coupling: float
    n_values: tuple
    values: tuple
    observable: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.n_values) != len(self.values):
            raise ValueError("n_values and values must have equal length")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly increasing")

    def check_positive(self):
        bad = [(n, v) for n, v in zip(self.n_values, self.values) if not 0.0 < v < math.inf]
        if bad:
            raise FitError(
                f"non-positive or non-finite series values, log-log analysis invalid: {bad}",
                diagnostics={"bad_points": bad},
            )

    def local_slopes(self) -> np.ndarray:
        """d ln(value) / d ln(N) between consecutive points."""
        self.check_positive()
        ln_n = np.log(np.asarray(self.n_values, dtype=float))
        ln_v = np.log(np.asarray(self.values, dtype=float))
        return np.diff(ln_v) / np.diff(ln_n)

    def slope_abscissas(self) -> np.ndarray:
        """1/N at the geometric midpoint of each consecutive pair."""
        n = np.asarray(self.n_values, dtype=float)
        return 1.0 / np.sqrt(n[:-1] * n[1:])


class ExponentFit(NamedTuple):
    exponent: float
    uncertainty: float
    slopes: tuple
    inv_n_mid: tuple
    n_used: int
    drift: float
    correction_power: float
    power_law_ok: bool

    def __repr__(self):
        return (
            f"ExponentFit(exponent={self.exponent:.4f}, "
            f"uncertainty={self.uncertainty:.1e}, n_used={self.n_used}, "
            f"correction_power={self.correction_power:.2f}, "
            f"power_law_ok={self.power_law_ok})"
        )


_P_GRID = np.concatenate([[1.0], np.round(np.arange(0.20, 1.51, 0.01), 2)])


def extrapolate_exponent(series: ScalingSeries) -> ExponentFit:
    """Exponent = intercept of local slopes extrapolated to infinite N.

    The slopes over the large-N half of the series are fit linearly against
    N_mid^(-p); p is chosen from a grid by residual minimization, with ties
    broken toward p = 1 (so data whose corrections decay like 1/N are fit
    against 1/N_mid exactly).  Critical-point series here carry corrections
    closer to N^(-1/3); a hard-wired 1/N abscissa would systematically
    under-extrapolate those.

    Uncertainty combines the intercept standard error with the fit residual
    at the largest N; ``power_law_ok`` flags whether the slopes are actually
    settling (they run away for faster-than-power-law decay).
    """
    if len(series.n_values) < MIN_SERIES_POINTS:
        raise ValueError(f"need at least {MIN_SERIES_POINTS} series points to extrapolate")
    slopes = series.local_slopes()
    x_all = series.slope_abscissas()
    n_mid = 1.0 / x_all
    n_fit = max(3, (len(slopes) + 1) // 2)
    s = slopes[-n_fit:]
    nm = n_mid[-n_fit:]

    best = None
    for p in _P_GRID:
        x = nm ** (-p)
        xm, sm = x.mean(), s.mean()
        sxx = float(np.sum((x - xm) ** 2))
        if sxx <= 0.0:
            continue
        b = float(np.sum((x - xm) * (s - sm))) / sxx
        a = sm - b * xm
        ssr = float(np.sum((s - (a + b * x)) ** 2))
        if best is None or ssr < best[0] - 1e-18:
            best = (ssr, p, a, b, x, xm, sxx)
    if best is None:
        raise ValueError("degenerate abscissas in slope fit")
    ssr, p, a, b, x, xm, sxx = best

    dof = max(len(x) - 2, 1)
    var = ssr / dof
    se_a = math.sqrt(var * (1.0 / len(x) + xm**2 / sxx))
    drift = abs(s[-1] - (a + b * x[-1]))

    # power-law adequacy: consecutive slope differences must be shrinking,
    # not growing, and the final step must be modest
    diffs = np.abs(np.diff(slopes))
    if len(diffs) >= 2:
        ok = diffs[-1] <= max(1.5 * diffs[-2], 0.02) and diffs[-1] <= 0.2
    elif len(diffs) == 1:
        ok = diffs[-1] <= 0.2
    else:
        ok = True

    return ExponentFit(
        exponent=float(a),
        uncertainty=math.hypot(se_a, drift),
        slopes=tuple(slopes),
        inv_n_mid=tuple(x_all),
        n_used=n_fit,
        drift=drift,
        correction_power=float(p),
        power_law_ok=bool(ok),
    )


def _sweep_point(n: int, *, omega: float, delta: float, lam: float, **settings) -> dict:
    params = ModelParams(n, omega, delta, lam)
    try:
        res = converge(params, **settings)
    except ConvergenceError as exc:
        raise ConvergenceError(f"sweep point N={n} failed: {exc}", residual=exc.residual,
                               history=exc.history) from exc
    return {**observable_set(res.ground, params, settings["track"]), "n_tr_used": res.n_tr_used}


def observable_sweep(
    delta: float,
    n_list,
    lam: float | None = None,
    omega: float = 1.0,
    threshold: float = 1e-8,
    track: tuple = ("e0",),
    schedule: tuple = SCALING_SCHEDULE,
    workers: int = 1,
    **settings,
) -> list[dict]:
    """Converged observables for each N at fixed (delta, coupling).

    Each row holds the tracked observables, with the accepted truncation as
    ``n_tr_used``.

    The coupling defaults to the critical one for (omega, delta); delta is
    passed to the solver as given.  The remaining keyword arguments (``seed``,
    ``solver_tol``, ``max_dim``, ...) go to :func:`converge` unchanged.
    Points are independent jobs; results are returned in the order of
    ``n_list`` regardless of completion order.  Solver failures propagate
    with the offending N attached.
    """
    if lam is None:
        lam = critical_coupling(omega, delta)
    return run_jobs(_sweep_point, [int(n) for n in n_list], workers, omega=omega,
                    delta=delta, lam=lam, threshold=threshold, track=track,
                    schedule=schedule, **settings)


def run_jobs(fn, items: list, workers: int, **shared) -> list:
    """``[fn(item, **shared) for item in items]``, in a process pool when
    ``workers`` > 1 and there is more than one item; only then is the pool
    machinery imported."""
    call = functools.partial(fn, **shared)
    if workers > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(call, items))
    return [call(item) for item in items]


_CORRECTION_POWER = 1.0 / 3.0


def fit_concurrence_limit(n_values, c_values, corrections: bool | None = None) -> dict:
    """Joint least-squares estimate of the thermodynamic concurrence limit.

    Model: C_N = C_inf - A*N^(-beta) - B*N^(-beta-1/3).  The subleading term
    carries the corrections to scaling (the same N^(-1/3) family every
    critical series here exhibits); without it the fitted decay exponent
    absorbs the curvature and comes out badly biased wherever the deviation
    is small (measured: beta = 0.53 instead of ~1/3 at delta/omega = 5).
    ``corrections=False`` forces B = 0; the default keeps the term only when
    there are at least 6 points to identify it.

    beta is profiled: for each trial value the remaining parameters are an
    exact linear solve, and the profile minimum is refined parabolically.
    Deterministic; raises FitError at profile edges or on degenerate data.
    """
    n = np.asarray(n_values, dtype=float)
    c = np.asarray(c_values, dtype=float)
    if len(n) < 4:
        raise FitError("need at least 4 points to fit the concurrence limit")
    if corrections is None:
        corrections = len(n) >= 6

    def ssr_at(beta):
        cols = [np.ones_like(n), -(n ** (-beta))]
        if corrections:
            cols.append(-(n ** (-beta - _CORRECTION_POWER)))
        X = np.column_stack(cols)
        coef, *_ = np.linalg.lstsq(X, c, rcond=None)
        resid = c - X @ coef
        return float(resid @ resid), coef

    grid = np.arange(0.05, 1.501, 0.005)
    ssrs = np.array([ssr_at(b)[0] for b in grid])
    i = int(np.argmin(ssrs))
    if i == 0 or i == len(grid) - 1:
        raise FitError(
            f"decay-exponent profile minimum at the grid edge (beta={grid[i]:.3f})",
            diagnostics={"beta": float(grid[i]), "ssr": float(ssrs[i])},
        )
    # parabolic refinement through the three bracketing profile points
    b0, b1, b2 = grid[i - 1], grid[i], grid[i + 1]
    s0, s1, s2 = ssrs[i - 1], ssrs[i], ssrs[i + 1]
    h = b1 - b0
    denom = s0 - 2 * s1 + s2
    beta = b1 if denom <= 0 else b1 + 0.5 * h * (s0 - s2) / denom
    beta = float(np.clip(beta, b0, b2))
    ssr, coef = ssr_at(beta)
    c_inf = float(coef[0])
    amp = float(coef[1])
    amp_corr = float(coef[2]) if corrections else 0.0
    if c_inf < c.max() - 1e-9:
        raise FitError(
            f"fitted limit {c_inf:.6g} below the largest sample {c.max():.6g}",
            diagnostics={"c_inf": c_inf, "beta": beta},
        )
    return {
        "c_inf": c_inf,
        "amplitude": amp,
        "amplitude_corr": amp_corr,
        "beta": beta,
        "corrections": bool(corrections),
        "rms_residual": float(math.sqrt(ssr / len(n))),
    }


def deviation_series(
    observable: str,
    big_d: float,
    n_list,
    omega: float = 1.0,
    threshold: float | None = None,
    c_inf: float | str = "fit",
    **kwargs,
) -> ScalingSeries:
    """Positive deviation from the thermodynamic value versus N at the
    critical coupling, for one observable of :data:`SERIES`.

    - ``"energy"``: |E0/(N*D*omega) + 1/2|.  The shift places the
      thermodynamic critical value at zero; the signed values sit in
      ``meta["signed"]``.  (The quantum zero-point shift puts the finite-size
      energy *below* the thermodynamic value for every D, so the signed
      deviation is negative.)
    - ``"berry"``: B_N, which decays to zero as a power law.
    - ``"concurrence"``: C_inf - C_N.  ``c_inf`` is either "fit" (joint
      estimate of (C_inf, amplitude, exponent) by least squares, reported in
      ``meta``) or an externally supplied number; other observables ignore it.

    ``threshold`` defaults to the observable's entry in :data:`SERIES`; the
    remaining keyword arguments go to :func:`observable_sweep`.
    """
    if observable not in SERIES:
        raise ValueError(f"unknown observable {observable!r}, expected one of {list(SERIES)}")
    key, default_threshold = SERIES[observable]
    delta = big_d * omega
    lam = critical_coupling(omega, delta)
    rows = observable_sweep(
        delta, n_list, lam=lam, omega=omega,
        threshold=default_threshold if threshold is None else threshold,
        track=(key,), **kwargs,
    )
    raw = [row[key] for row in rows]
    meta = {"n_tr_used": [r["n_tr_used"] for r in rows]}
    if observable == "energy":
        meta["signed"] = [e / (n * big_d * omega) + 0.5 for n, e in zip(n_list, raw)]
        values = [abs(v) for v in meta["signed"]]
    elif observable == "berry":
        values = raw
    else:
        meta["c_values"] = raw
        if c_inf == "fit":
            meta.update(fit_concurrence_limit(n_list, raw), c_inf_mode="fit")
        else:
            meta.update(c_inf=float(c_inf), c_inf_mode="supplied")
        values = [meta["c_inf"] - c for c in raw]
    series = ScalingSeries(
        big_d=big_d, coupling=lam, n_values=tuple(int(n) for n in n_list),
        values=tuple(values), observable=observable, meta=meta,
    )
    series.check_positive()
    return series
