"""Independent finite-difference eigenvalue oracle on the half line.

The one grid, `LogGridConfig`, is uniform in t = ln x: the Langer
substitution x = e^t, u = e^(t/2) y turns -u'' + V u = lambda u into
-y'' + (1/4 + x^2 V) y = lambda x^2 y, and scaling rows and columns by 1/x
keeps the discretized problem one symmetric tridiagonal matrix (diagonal
(2/h^2 + 1/4)/x_i^2 + V(x_i), off-diagonal -1/(h^2 x_i x_(i+1)), h the
step in t).  Nodes crowd towards the origin, where the potentials of this
family are singular, so a few hundred to 2000 nodes on [1e-4, x_max]
resolve the limit-circle left ends below.

A containment check needs one level only: bisection restricted to a
window around the candidate lambda (LAPACK stebz by value) finds the
level nearest lambda, widening the window geometrically until it holds
one.  The same level is then followed to the grid of half the step by a
window centred where Richardson extrapolation puts it were lambda a
level, mu + 3/4 (lambda - mu), mu the coarser result.  That point lies 3/4
of the coarse gap g = |mu - lambda| from mu's continuation and farther
from every other level, and a true level lands within ~1e-3 g of it, so
the radius starts at g / `WINDOW_GROWTH`^5 clamped to [`BISECTION_TOL`,
tol], tol the hit tolerance; a candidate that is no level pays up to five
widenings.  Each pair is Richardson-extrapolated, so the cost does not
grow with the number of levels below lambda.  A halved step's grid holds
the coarser grid's nodes bit for bit at its odd positions, so the nodes
and V are evaluated once, on the finest grid, and one left-boundary
series serves every matrix.

`oracle_check` is the oracle's entry.  It first solves a ladder of three
such grids, of 249, 499 and 999 nodes (`LADDER_POINTS` the coarsest),
and accepts when the extrapolation R2 of the finer pair and its error
bar |R2 - R1|, R1 that of the coarser pair, fit in the tolerance
together.  Anything else, a miss or an error on a ladder grid, goes to
`contains_eigenvalue` on `oracle_config`'s 2000/4001-node pair, which
decides as it did before the ladder.  On the four named sweeps (1360
distinct checks) the ladder decides 1348, and its error bar covered the
distance to the 2000-node level on every one of them (at most 0.43 of
it); the h^4 figure |R2 - R1| / 15 fell short on 281.  A check is a pure
function of (potential, lambda), and `sweep` solves a repeated pair
once.  The oracle never touches the closed-form wavefunctions; its only
inputs are the five rung coefficients of the potential (`PotentialSpec`)
and a grid configuration.

Every bisection runs to the absolute tolerance `BISECTION_TOL`.  LAPACK's
default, eps times the matrix 1-norm, is ~2e-3 on the log grid, whose
entries reach 2/(h^2 x_min^2) ~ 1e13, and is no longer small against the
hit tolerance.

Potentials in this family can be singular at the origin, and the x^(-2)
coefficient -1/4 (l = m cases) sits exactly at the limit-circle border,
where a plain Dirichlet cutoff converges only logarithmically.  The left
boundary therefore uses the potential's own small-x data: the boundary
value is tied to the first interior node by the indicial exponent p of
the x^(-2) rung (p(p-1) = c_0) refined by a Frobenius series over the
remaining rungs (containment checks also feed the candidate eigenvalue
into the series); this selects the principal solution, as SLEIGN2 does
(Bailey, Everitt & Zettl, ACM TOMS 27, 2001).  A regular left end
(c_0 = 0) takes the same rule with p = 1, and c_0 < -1/4, a fall to the
centre that no V_b has, is an error.  The ratio of u carries the
factor sqrt(x_1/x_0) into y, and the ratio condition folds into the
first diagonal entry, so the matrix stays symmetric tridiagonal.

This module is the package's only user of scipy, and it loads scipy at
the first solve, not with the package.  Even then it loads only the
compiled LAPACK module `scipy.linalg._flapack` that holds `dstebz`,
under its own name, and never the `scipy.linalg` package, whose import
brings ~310 more modules and ~25 MB and takes ~0.2 s on a 2-vCPU x86_64
machine.  The first oracle `verify` in a process takes ~30 ms, and a
fresh-process `verify --l 2 --m 3 --b 1/2` ~0.2 s and ~35 MB of peak
RSS, where it took ~0.4 s and ~59 MB through `scipy.linalg`.  Commands
that solve no fd matrix (`spectrum`, `basis`, `potential`,
`--no-oracle`) load no scipy module at all.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .hamiltonian import check_finite
from .schroedinger import PotentialSpec, lambda_rung

HIT_RTOL = 1e-3
# Factor by which an empty search window around a candidate is widened.
WINDOW_GROWTH = 4.0
# The left-boundary Frobenius series stops once as many consecutive terms
# at the first interior node as the recurrence is deep are below this, or
# after this many terms.
FROBENIUS_TAIL = 1e-17
FROBENIUS_MAX_TERMS = 200
# Absolute tolerance of every bisection (see the module docstring).
BISECTION_TOL = 1e-10
# Containment grid: left end and node count of the log grid.
ORACLE_X_MIN = 1e-4
ORACLE_POINTS = 2000
# Node count of the grid ladder's coarsest grid (see `oracle_check`).
LADDER_POINTS = 249
# WKB tunneling phase past the outer turning point that fixes x_max.
DOMAIN_PHASE = 18.0


_FLAPACK = "scipy.linalg._flapack"
_flapack_lock = threading.Lock()


def _flapack():
    """SciPy's compiled LAPACK module, loaded without `scipy.linalg`.

    Only the top-level `scipy` package is imported (on Windows it puts its
    bundled libraries on the DLL path); the extension is then found in
    scipy's `linalg` directory and registered in `sys.modules` under its
    own name, so a later `import scipy.linalg` reuses this module object,
    and one that `scipy.linalg` loaded first is reused here.  Raises
    ImportError when the extension is missing.
    """
    with _flapack_lock:
        module = sys.modules.get(_FLAPACK)
        if module is not None:
            return module
        import importlib.machinery as machinery
        import importlib.util

        import scipy

        where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        finder = machinery.FileFinder(
            where, (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
        )
        spec = finder.find_spec(_FLAPACK)
        if spec is None:
            raise ImportError(f"no {_FLAPACK} extension in {where}", name=_FLAPACK)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
        return module


def eigh_tridiagonal(d, e, *, select, select_range, tol):
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal `d`
    and off-diagonal `e`, ascending: those in (lo, hi] for select="v", or
    those of index lo .. hi from 0 for select="i", (lo, hi) =
    `select_range`.

    One LAPACK `dstebz` call by bisection to the absolute tolerance `tol`,
    ordered by value, with the arguments and checks of
    `scipy.linalg.eigh_tridiagonal(..., eigvals_only=True, tol=tol)`, so
    the values are that function's bit for bit (see the module docstring
    for why it is not called).  Raises ValueError on a non-finite `d` or
    `e`, a window with hi < lo, an index range out of bounds, or a value
    LAPACK calls illegal, and `numpy.linalg.LinAlgError` (a ValueError)
    when the bisection does not converge.  Every solve looks this module
    attribute up at call time, so tests and tracers can replace it.
    """
    d = np.asarray_chkfinite(d, dtype=np.float64)
    e = np.asarray_chkfinite(e, dtype=np.float64)
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise ValueError(f"d and e must be 1-D of sizes n, n - 1: {d.shape}, {e.shape}")
    lo, hi = select_range
    if hi < lo:
        raise ValueError(f"select_range {select_range!r} is not in nondecreasing order")
    vl, vu, il, iu = 0.0, 1.0, 1, 1
    if select == "v":
        lapack_range, vl, vu = 1, float(lo), float(hi)
    elif select == "i":
        if not 0 <= lo <= hi < d.size:
            raise ValueError(f"index range {select_range!r} out of bounds")
        lapack_range, il, iu = 2, int(lo) + 1, int(hi) + 1
    else:
        raise ValueError(f"select must be 'v' or 'i', got {select!r}")
    m, w, _, _, info = _flapack().dstebz(
        d, e, lapack_range, vl, vu, il, iu, float(tol), "E"
    )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dstebz")
    if info > 0:
        raise np.linalg.LinAlgError(f"LAPACK dstebz did not converge (info={info})")
    return w[:m]


@dataclass(frozen=True)
class LogGridConfig:
    """Grid uniform in t = ln x on [ln x_min, ln x_max], x_min =
    `ORACLE_X_MIN`; Frobenius ratio at the left end, Dirichlet at the right.

    Interior nodes sit at x_i = x_min e^(i h), i = 1 .. n_points, with
    h = ln(x_max / x_min) / (n_points + 1) the step in ln x.
    """

    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (ORACLE_X_MIN < self.x_max):
            raise ValueError(f"x_max must be above x_min = {ORACLE_X_MIN}")
        if self.n_points < 100:
            raise ValueError("need at least 100 grid points")

    @property
    def h(self) -> float:
        return math.log(self.x_max / ORACLE_X_MIN) / (self.n_points + 1)

    def nodes(self) -> np.ndarray:
        return ORACLE_X_MIN * np.exp(self.h * np.arange(1, self.n_points + 1))

    def doubled(self) -> "LogGridConfig":
        # 2n+1 interior points halve h exactly
        return replace(self, n_points=2 * self.n_points + 1)


def _frobenius_factors(
    spec: PotentialSpec, p: float, xs: tuple[float, ...], bc_energy: float | None
) -> list[float]:
    """1 + sum a_j x^(j/b) at each x: series of the regular solution x^p.

    Rung i >= 1 of the ladder (coefficient c_i of x^(-2 + i/b)) feeds the
    recurrence a_j [(p + j/b)(p + j/b - 1) - p(p - 1)] = sum_i c_i a_(j-i).
    Without a candidate eigenvalue the ladder stops below the constant
    term (rungs i < 2b, lambda-free).  With a candidate every rung joins
    and a candidate != 0 enters at `schroedinger.lambda_rung` as
    c_2b - bc_energy, which raises ValueError when 2b is not an integer.
    The recurrence runs on past the highest rung jmax until the last jmax
    terms at the largest x are all below `FROBENIUS_TAIL`, for at most
    `FROBENIUS_MAX_TERMS` terms: cut off at the highest rung, a large
    rung-1 coefficient at b = 2 leaves a boundary error that no grid
    refinement removes.  Raises ValueError when the denominator of a term
    rounds to 0: at b of order 1e9 and up, j/b is lost against p.
    """
    c = list(spec.coeffs)
    if bc_energy is None:
        c = [cf if i < 2 * spec.b else 0.0 for i, cf in enumerate(c)]
    elif bc_energy != 0.0:
        rung = lambda_rung(spec.b)
        c += [0.0] * (rung + 1 - len(c))
        c[rung] -= bc_energy
    c[0] = 0.0  # the x^(-2) rung is carried by p
    jmax = max((i for i, cf in enumerate(c) if cf != 0.0), default=0)
    s = 1.0 / float(spec.b)
    x_top = max(xs)
    a = [1.0]
    j = small = 0  # small: how many of the last terms are below the tail
    while jmax and j < FROBENIUS_MAX_TERMS:
        j += 1
        rhs = sum(c[i] * a[j - i] for i in range(1, min(j, jmax) + 1))
        den = (p + j * s) * (p + j * s - 1.0) - p * (p - 1.0)
        if den == 0.0:
            raise ValueError(
                f"degenerate left-boundary series: the denominator of term {j}"
                " rounds to 0 at this b"
            )
        a.append(rhs / den)
        small = small + 1 if abs(a[j]) * x_top ** (j * s) < FROBENIUS_TAIL else 0
        if j >= jmax and small >= jmax:
            break
    return [1.0 + sum(a[j] * x ** (j * s) for j in range(1, len(a))) for x in xs]


def _left_boundary_ratios(
    spec: PotentialSpec, xs: tuple[float, ...], bc_energy: float | None
) -> list[float]:
    """y(x_min)/y(x) of the principal solution at each x of `xs`, y = u/sqrt(x).

    One Frobenius series serves every x.  Raises ValueError when a ratio
    overflows, or when the x^(-2) coefficient c_0 is below -1/4: the
    operator then falls to the centre, with no principal solution and no
    meaningful eigenvalue.  Every V_b has 1 + 4 c_0 = (l - m)^2 / b^2 >= 0.
    """
    c0 = spec.coeffs[0]
    if 1.0 + 4.0 * c0 < 0.0:
        raise ValueError(f"c_0 = {c0!r} < -1/4: the potential falls to the centre")
    p = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * c0))
    x0 = ORACLE_X_MIN
    f0, *fs = _frobenius_factors(spec, p, (x0, *xs), bc_energy)
    ratios = [(x0 / x) ** p * (f0 / f) * math.sqrt(x / x0) for x, f in zip(xs, fs)]
    check_finite("left-boundary series ratio y(x_min)/y(x)", ratios)
    return ratios


def _grid_values(
    spec: PotentialSpec, config: LogGridConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of `config` and V on them."""
    xs = config.nodes()
    vpot = spec.values(xs)
    if not np.all(np.isfinite(vpot)):
        raise ValueError("potential is not finite on the grid")
    return xs, vpot


def _tridiagonal(
    config: LogGridConfig, xs: np.ndarray, vpot: np.ndarray, ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the discretized operator on `config`,
    whose nodes are `xs` with V = `vpot` there and y(x_min)/y(xs[0]) =
    `ratio` at the left end.

    Row i of the stencil in y is scaled by 1/x_i on both sides.
    """
    h2 = config.h * config.h
    scale = 1.0 / xs
    diag = (2.0 / h2 + 0.25) * scale * scale + vpot
    diag[0] -= ratio * scale[0] * scale[0] / h2
    off = -scale[:-1] * scale[1:] / h2
    return diag, off


def fd_spectrum(
    spec: PotentialSpec,
    config: LogGridConfig,
    count: int,
    bc_energy: float | None = None,
) -> np.ndarray:
    """Lowest `count` eigenvalues of the discretized operator, ascending.

    Bisection by index on the symmetric tridiagonal matrix (LAPACK stebz)
    to `BISECTION_TOL` keeps the result deterministic.  When a candidate
    eigenvalue `bc_energy` is supplied, the left-boundary series uses it
    for one extra order of accuracy near that level.  Containment
    checks do not come through here: they search a window around the
    candidate instead (see `oracle_check`).
    """
    if count > config.n_points:
        raise ValueError(f"count {count} exceeds grid size {config.n_points}")
    if count < 1:
        raise ValueError("count must be >= 1")
    xs, vpot = _grid_values(spec, config)
    (ratio,) = _left_boundary_ratios(spec, (float(xs[0]),), bc_energy)
    diag, off = _tridiagonal(config, xs, vpot, ratio)
    vals = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, count - 1), tol=BISECTION_TOL
    )
    return np.sort(vals)


def _nearest_level(
    diag: np.ndarray, off: np.ndarray, target: float, radius: float
) -> tuple[float, int]:
    """Eigenvalue nearest `target`, and the number of solves it took.

    Bisection restricted to the window (target - r, target + r] touches
    only the levels inside it.  Each round solves, then widens the radius
    by `WINDOW_GROWTH` until the window holds a level; a non-empty window
    centred on the target always contains the globally nearest eigenvalue.
    For finite input the loop ends once the radius reaches any level.  A
    non-finite target or matrix makes the first solve raise ValueError:
    `eigh_tridiagonal` rejects a non-finite matrix before LAPACK runs,
    LAPACK an infinite window, and bisection on a NaN window does not
    converge.
    """
    solves = 0
    while True:
        vals = eigh_tridiagonal(
            diag, off, select="v", select_range=(target - radius, target + radius),
            tol=BISECTION_TOL,
        )
        solves += 1
        if vals.size:
            return float(vals[np.argmin(np.abs(vals - target))]), solves
        radius *= WINDOW_GROWTH


def _richardson(mu: float, mu2: float) -> float:
    """The second-order levels mu (step h) and mu2 (step h/2) extrapolated."""
    return (4.0 * mu2 - mu) / 3.0


def _hit_tolerance(lam: float) -> float:
    return max(HIT_RTOL, HIT_RTOL * abs(lam))


@dataclass(frozen=True)
class ContainmentResult:
    """Outcome of one containment check.

    The check's level is the Richardson extrapolation R of one pair of
    grids, the coarse one of `n_points` nodes and step `h` in ln x and its
    doubled grid.  `nearest` is the coarse-grid level nearest the
    candidate, `fine_nearest` the same level on the doubled grid, and
    `richardson_gap` is |R - lambda|.  `error_estimate` estimates |R -
    level| from above by the last correction made: |R - R'| on the grid
    ladder (R' the extrapolation of the pair one step coarser),
    |R - fine_nearest| for a lone pair.  `solves` counts every eigensolver
    call of the check.
    """

    hit: bool
    nearest: float
    gap: float
    richardson_gap: float
    fine_nearest: float
    n_points: int
    h: float
    solves: int
    error_estimate: float


def _followed_levels(
    spec: PotentialSpec, grids: tuple[LogGridConfig, ...], lam: float, tol: float
) -> Iterator[tuple[float, int]]:
    """Per grid of `grids`, each the doubled grid of the one before, the
    level nearest lam on the first grid followed to it, and the solves it
    took, yielded grid by grid.

    Grid k's nodes sit at every 2^(last - k)-th position of the last grid,
    bit for bit, so the nodes, V and one left-boundary series are
    evaluated once, for the last grid.
    """
    xs, vs = _grid_values(spec, grids[-1])
    steps = [2 ** (len(grids) - 1 - k) for k in range(len(grids))]
    ratios = _left_boundary_ratios(spec, tuple(float(xs[s - 1]) for s in steps), lam)
    mu = None
    for grid, step, ratio in zip(grids, steps, ratios):
        matrix = _tridiagonal(grid, xs[step - 1 :: step], vs[step - 1 :: step], ratio)
        if mu is None:
            mu, solves = _nearest_level(*matrix, lam, tol)
        else:
            # were lam a level, halving h would move mu to where Richardson
            # lands on lam: mu + 3/4 (lam - mu); that point is nearer mu's
            # continuation than any other level, so a narrow window there
            # finds it
            radius = min(tol, max(BISECTION_TOL, abs(mu - lam) / WINDOW_GROWTH**5))
            mu, solves = _nearest_level(*matrix, mu + 0.75 * (lam - mu), radius)
        yield mu, solves


def contains_eigenvalue(
    spec: PotentialSpec, config: LogGridConfig, lam: float
) -> ContainmentResult:
    """Does lam sit in the fd spectrum after Richardson extrapolation?

    Finds the level nearest lam on the given grid, follows that level to
    the doubled grid (`_followed_levels`), Richardson-extrapolates the
    second-order scheme and accepts when the extrapolated level lies
    within max(1e-3, 1e-3 |lam|).
    A pure function of its arguments.
    """
    tol = _hit_tolerance(lam)
    (mu, solves), (mu2, fine_solves) = _followed_levels(
        spec, (config, config.doubled()), lam, tol
    )
    level = _richardson(mu, mu2)
    richardson_gap = float(abs(level - lam))
    return ContainmentResult(
        hit=richardson_gap <= tol,
        nearest=mu,
        gap=float(abs(mu - lam)),
        richardson_gap=richardson_gap,
        fine_nearest=mu2,
        n_points=config.n_points,
        h=config.h,
        solves=solves + fine_solves,
        error_estimate=float(abs(level - mu2)),
    )


def oracle_check(spec: PotentialSpec, lam: float) -> ContainmentResult:
    """The oracle's verdict on lam: on the grid ladder when it decides,
    else `contains_eigenvalue` on `oracle_config(spec, lam)`.

    The ladder's grids hold `LADDER_POINTS`, 2n + 1 and 4n + 3 nodes on
    `oracle_config`'s [x_min, x_max], the level followed from the coarsest
    grid up (`_followed_levels`).  R1 and R2 are the Richardson
    extrapolations of the (coarse, middle) and (middle, fine) pairs.  The
    ladder accepts when |R2 - lam| + |R2 - R1| <= tol, and the result
    describes the (middle, fine) pair with error estimate |R2 - R1|.  A
    miss, or an error on a ladder grid, hands the check to
    `contains_eigenvalue`, whose result is returned with the ladder's
    solves added.  A pure function of its arguments: `certify_batch`
    checks a repeated (potential, lam) once.
    """
    tol = _hit_tolerance(lam)
    config = oracle_config(spec, lam)
    coarse = replace(config, n_points=LADDER_POINTS)
    grids = (coarse, coarse.doubled(), coarse.doubled().doubled())
    levels: list[float] = []
    solves = 0
    try:
        for mu, n in _followed_levels(spec, grids, lam, tol):
            levels.append(mu)
            solves += n
    except (ValueError, ArithmeticError):  # a float power in the series may overflow
        pass
    else:
        r1, r2 = _richardson(*levels[:2]), _richardson(*levels[1:])
        richardson_gap, error = float(abs(r2 - lam)), float(abs(r2 - r1))
        if richardson_gap + error <= tol:
            return ContainmentResult(
                hit=True,
                nearest=levels[1],
                gap=float(abs(levels[1] - lam)),
                richardson_gap=richardson_gap,
                fine_nearest=levels[2],
                n_points=grids[1].n_points,
                h=grids[1].h,
                solves=solves,
                error_estimate=error,
            )
    result = contains_eigenvalue(spec, config, lam)
    return replace(result, solves=solves + result.solves)


def _march() -> list[float]:
    """x = 1, then steps from 0.05 growing 5% each up to 1, until x >= 512."""
    xs = [1.0]
    step = 0.05
    while xs[-1] < 512.0:
        xs.append(xs[-1] + step)
        step = min(step * 1.05, 1.0)
    return xs


# The march of `suggest_domain` does not depend on the potential: it is
# laid out once, V evaluated on it at once.
_MARCH = _march()
_MARCH_NODES = np.array(_MARCH[:-1])


def suggest_domain(spec: PotentialSpec, lam: float) -> float:
    """Heuristic right edge x_max of a grid covering the bound state at lam.

    It extends past the outer turning point until the WKB tunneling
    integral of sqrt(V - lam) reaches `DOMAIN_PHASE`, so the Dirichlet
    truncation error is ~exp(-2 DOMAIN_PHASE) regardless of how slowly the
    potential grows.
    """
    vs = (spec.values(_MARCH_NODES) - lam).tolist()
    acc = 0.0
    prev: tuple[float, float] | None = None
    for x, v in zip(_MARCH, vs):
        if acc >= DOMAIN_PHASE:
            return x
        if not math.isfinite(v) or v <= 0.0:
            acc = 0.0
            prev = None
        else:
            cur = math.sqrt(v)
            if prev is not None:
                x_prev, f_prev = prev
                acc += 0.5 * (f_prev + cur) * (x - x_prev)
            prev = (x, cur)
    return _MARCH[-1]


def oracle_config(spec: PotentialSpec, lam: float) -> LogGridConfig:
    """Containment grid for lam: `ORACLE_POINTS` nodes uniform in ln x on
    [`ORACLE_X_MIN`, x_max], x_max from `suggest_domain`."""
    return LogGridConfig(suggest_domain(spec, lam), ORACLE_POINTS)
