"""Independent finite-difference eigenvalue oracle.

The Schroedinger operator is discretized on a uniform grid with the
standard 3-point stencil (diagonal 2/h^2 + V(x_i), off-diagonal -1/h^2).
A containment check needs one level only: bisection restricted to a
window around the candidate lambda (LAPACK stebz by value) finds the
level nearest lambda, widening the window geometrically until it holds
one.  The same level is then found on the doubled grid by a window around
the first result and the pair is Richardson-extrapolated, so the cost
does not grow with the number of levels below lambda.  The oracle never
touches the closed-form wavefunctions; its only inputs are the potential
terms and a grid configuration.

Potentials in this family can be singular at the origin, and the x^(-2)
coefficient -1/4 (l = m cases) sits exactly at the limit-circle border,
where a plain Dirichlet cutoff converges only logarithmically.  The left
boundary therefore uses the potential's own small-x data: the boundary
value is tied to the first interior node by the indicial exponent p of
the x^(-2) term (p(p-1) = c2) refined by a Frobenius series over the
remaining terms (containment checks also feed the candidate eigenvalue
into the series).  The ratio condition folds into the first diagonal
entry, so the matrix stays symmetric tridiagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .schroedinger import PotentialSpec

# Left-adaptation applies only when the domain actually approaches the
# origin; beyond this point the plain Dirichlet cutoff is used.
SINGULAR_XMIN = 0.2
EXPONENT_TOL = 1e-9
HIT_RTOL = 1e-3
# Factor by which an empty search window around a candidate is widened.
WINDOW_GROWTH = 4.0
# Default containment grid: spacing aimed at, and the node-count clamp.
ORACLE_H = 2.5e-3
ORACLE_MIN_POINTS = 4000
ORACLE_MAX_POINTS = 24000


@dataclass(frozen=True)
class FdConfig:
    """Uniform-grid discretization of [x_min, x_max], Dirichlet ends.

    Interior nodes sit at x_i = x_min + i h, i = 1 .. n_points, with
    h = (x_max - x_min) / (n_points + 1).
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max):
            raise ValueError("x_min must be below x_max")
        if self.n_points < 100:
            raise ValueError("need at least 100 grid points")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points + 1)

    def nodes(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(1, self.n_points + 1)

    def doubled(self) -> "FdConfig":
        # 2n+1 interior points halve h exactly
        return FdConfig(self.x_min, self.x_max, 2 * self.n_points + 1)


def _eval_terms(spec: PotentialSpec, xs: np.ndarray) -> np.ndarray:
    """Term sum without the x > 0 guard: symmetric domains are allowed as
    long as every term stays finite on the grid (checked by the caller)."""
    vals = np.zeros_like(xs)
    with np.errstate(invalid="ignore", divide="ignore"):
        for e, cf in spec.terms:
            vals += cf * np.power(xs, e)
    return vals


def _singular_ladder(spec: PotentialSpec) -> tuple[float, list[tuple[float, float]]]:
    """x^(-2) coefficient and the remaining singular terms, merged by exponent."""
    c2 = 0.0
    ladder: dict[float, float] = {}
    for e, cf in spec.terms:
        if cf == 0.0:
            continue
        if abs(e + 2.0) <= EXPONENT_TOL:
            c2 += cf
        elif e < -EXPONENT_TOL:
            ladder[round(e, 9)] = ladder.get(round(e, 9), 0.0) + cf
    return c2, sorted(ladder.items())


def _frobenius_factor(
    spec: PotentialSpec, c2: float, p: float, x: float, bc_energy: float | None
) -> float:
    """1 + sum a_j x^(j s): series of the regular solution x^p near zero.

    Terms of the potential at exponents -2 + j s feed the recurrence
    a_j [(p+js)(p+js-1) - p(p-1)] = sum_i c_i a_(j-i).  When a candidate
    eigenvalue is supplied, the constant term of the potential enters as
    c - bc_energy and every term of the potential joins the ladder, so
    the boundary value is series-exact through the highest rung; without
    a candidate the ladder stops below the constant term (lambda-free).
    """
    rungs: dict[float, float] = {}
    for e, cf in spec.terms:
        if cf == 0.0 or abs(e + 2.0) <= EXPONENT_TOL:
            continue
        if -2.0 < e < -EXPONENT_TOL or (bc_energy is not None and e > -EXPONENT_TOL):
            rungs[e + 2.0] = rungs.get(e + 2.0, 0.0) + cf
    if bc_energy is not None and bc_energy != 0.0:
        rungs[2.0] = rungs.get(2.0, 0.0) - bc_energy
    if not rungs:
        return 1.0
    s = min(rungs)
    coeffs: dict[int, float] = {}
    for step, cf in rungs.items():
        j = step / s
        if abs(j - round(j)) > 1e-6:
            return 1.0  # incommensurate exponents; fall back to the bare power
        coeffs[round(j)] = cf
    jmax = max(coeffs)
    a = {0: 1.0}
    for j in range(1, jmax + 1):
        rhs = sum(coeffs.get(i, 0.0) * a.get(j - i, 0.0) for i in range(1, j + 1))
        a[j] = rhs / ((p + j * s) * (p + j * s - 1.0) - p * (p - 1.0))
    return 1.0 + sum(a[j] * x ** (j * s) for j in range(1, jmax + 1))


def _left_boundary_ratio(
    spec: PotentialSpec, x0: float, x1: float, bc_energy: float | None
) -> float | None:
    """u(x0)/u(x1) of the regular solution, or None for plain Dirichlet."""
    if not (0.0 < x0 < SINGULAR_XMIN):
        return None
    c2, ladder = _singular_ladder(spec)
    if c2 == 0.0 and not ladder:
        return None
    if 1.0 + 4.0 * c2 < 0.0:
        return None  # oscillatory fall to the center; no regular solution
    p = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * c2))
    ratio = (x0 / x1) ** p
    ratio *= (
        _frobenius_factor(spec, c2, p, x0, bc_energy)
        / _frobenius_factor(spec, c2, p, x1, bc_energy)
    )
    return ratio


def _tridiagonal(
    spec: PotentialSpec, config: FdConfig, bc_energy: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the discretized operator on `config`."""
    xs = config.nodes()
    h = config.h
    vpot = _eval_terms(spec, xs)
    if not np.all(np.isfinite(vpot)):
        raise ValueError("potential is not finite on the grid")
    diag = 2.0 / (h * h) + vpot
    ratio = _left_boundary_ratio(spec, config.x_min, float(xs[0]), bc_energy)
    if ratio is not None:
        diag[0] = (2.0 - ratio) / (h * h) + vpot[0]
    off = np.full(config.n_points - 1, -1.0 / (h * h))
    return diag, off


def fd_spectrum(
    spec: PotentialSpec,
    config: FdConfig,
    count: int,
    bc_energy: float | None = None,
) -> np.ndarray:
    """Lowest `count` eigenvalues of the discretized operator, ascending.

    Bisection by index on the symmetric tridiagonal matrix (LAPACK stebz)
    keeps the result deterministic to ~1e-10 relative.  When a candidate
    eigenvalue `bc_energy` is supplied, the singular-boundary series uses
    it for one extra order of accuracy near that level.  Containment
    checks do not come through here: they search a window around the
    candidate instead (see `contains_eigenvalue`).
    """
    if count > config.n_points:
        raise ValueError(f"count {count} exceeds grid size {config.n_points}")
    if count < 1:
        raise ValueError("count must be >= 1")
    diag, off = _tridiagonal(spec, config, bc_energy)
    vals = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, count - 1), eigvals_only=True
    )
    return np.sort(vals)


def _nearest_level(
    diag: np.ndarray, off: np.ndarray, target: float, radius: float
) -> tuple[float, int]:
    """Eigenvalue nearest `target`, and the number of solves it took.

    Bisection restricted to the window (target - r, target + r] touches
    only the levels inside it.  The radius grows geometrically until the
    window holds a level; a non-empty window centred on the target always
    contains the globally nearest eigenvalue.  Past the Gershgorin reach
    every level is inside, so an empty window there means non-finite input.
    """
    reach = abs(target) + np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off), initial=0.0)
    solves = 0
    while True:
        vals = eigh_tridiagonal(
            diag, off, select="v", select_range=(target - radius, target + radius),
            eigvals_only=True,
        )
        solves += 1
        if vals.size:
            return float(vals[np.argmin(np.abs(vals - target))]), solves
        if not radius < reach:
            raise ValueError(f"no fd eigenvalue found near {target}")
        radius *= WINDOW_GROWTH


@dataclass(frozen=True)
class ContainmentResult:
    """Outcome of one containment check.

    `nearest` is the coarse-grid level nearest the candidate, `fine_nearest`
    the same level on the doubled grid; `richardson_gap` is the distance of
    their extrapolation from the candidate.  `n_points` and `h` describe the
    coarse grid, `solves` counts eigensolver calls over both grids.
    """

    hit: bool
    nearest: float
    gap: float
    richardson_gap: float
    fine_nearest: float
    n_points: int
    h: float
    solves: int


def contains_eigenvalue(
    spec: PotentialSpec, config: FdConfig, lam: float
) -> ContainmentResult:
    """Does lam sit in the fd spectrum after Richardson extrapolation?

    Finds the level nearest lam on the given grid, follows that level to
    the doubled grid, Richardson-extrapolates the second-order scheme and
    accepts when the extrapolated level lies within max(1e-3, 1e-3 |lam|).
    """
    tol = max(HIT_RTOL, HIT_RTOL * abs(lam))
    mu, solves = _nearest_level(*_tridiagonal(spec, config, lam), lam, tol)
    fine = config.doubled()
    mu2, fine_solves = _nearest_level(*_tridiagonal(spec, fine, lam), mu, tol)
    richardson_gap = float(abs((4.0 * mu2 - mu) / 3.0 - lam))
    return ContainmentResult(
        hit=richardson_gap <= tol,
        nearest=mu,
        gap=float(abs(mu - lam)),
        richardson_gap=richardson_gap,
        fine_nearest=mu2,
        n_points=config.n_points,
        h=config.h,
        solves=solves + fine_solves,
    )


def _march() -> list[float]:
    """x = 1, then steps from 0.05 growing 5% each up to 1, until x >= 512."""
    xs = [1.0]
    step = 0.05
    while xs[-1] < 512.0:
        xs.append(xs[-1] + step)
        step = min(step * 1.05, 1.0)
    return xs


# The march of `suggest_domain` (x_min <= 1e-2, so it starts at x = 1) does
# not depend on the potential: it is laid out once, V evaluated on it at once.
_MARCH = _march()
_MARCH_NODES = np.array(_MARCH[:-1])


def suggest_domain(
    spec: PotentialSpec, lam: float, phase: float = 18.0
) -> tuple[float, float]:
    """Heuristic [x_min, x_max] covering the bound state at lam.

    The left edge sits close to the origin when the potential is singular
    there.  The right edge extends past the outer turning point until the
    WKB tunneling integral of sqrt(V - lam) reaches `phase`, so the
    Dirichlet truncation error is ~exp(-2 phase) regardless of how slowly
    the potential grows.
    """
    c2, ladder = _singular_ladder(spec)
    x_min = 1e-2 if (c2 != 0.0 or ladder) else 1e-3
    vs = (_eval_terms(spec, _MARCH_NODES) - lam).tolist()
    acc = 0.0
    prev: tuple[float, float] | None = None
    for x, v in zip(_MARCH, vs):
        if acc >= phase:
            return x_min, x
        if not math.isfinite(v) or v <= 0.0:
            acc = 0.0
            prev = None
        else:
            cur = math.sqrt(v)
            if prev is not None:
                x_prev, f_prev = prev
                acc += 0.5 * (f_prev + cur) * (x - x_prev)
            prev = (x, cur)
    return x_min, _MARCH[-1]


def oracle_config(
    spec: PotentialSpec, lam: float, n_points: int | None = None
) -> FdConfig:
    """Containment grid for lam: `suggest_domain` and a node count.

    Unless `n_points` is given, the count aims for h ~ 2.5e-3 so singular
    boundaries stay resolved, clamped to 4000 .. 24000 nodes.
    """
    x_min, x_max = suggest_domain(spec, lam)
    if n_points is None:
        n_points = int(
            min(max((x_max - x_min) / ORACLE_H, ORACLE_MIN_POINTS), ORACLE_MAX_POINTS)
        )
    return FdConfig(x_min, x_max, n_points)
