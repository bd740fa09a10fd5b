"""Built-in target diffeomorphisms for end-to-end pipeline runs.

Each target is a callable on (N, d) arrays with a known domain and, where
available, an analytic inverse and log|det Dphi| (for exact pushforwards).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from reluflow.compressible import profile_logdet, slope_profile
from reluflow.kr import GridDensity, KRMap
from reluflow.numerics import RectDomain, solve_increasing
from reluflow.schedule import PiecewiseLinear, json_key

UNIT_SQUARE = RectDomain([0.0, 0.0], [1.0, 1.0])


@dataclass(frozen=True)
class TargetMap:
    name: str
    fn: object                 # (N, d) -> (N, d)
    domain: RectDomain
    inverse: object = None     # analytic inverse, if available
    # logdet(X, Y=None) -> (N,) log|det Dphi| at the rows of X, if
    # available; a caller holding Y = phi(X) passes it to save a map call
    logdet: object = None
    profile: PiecewiseLinear = None   # set for one-coordinate profile targets


def _sine_shear(X):
    X = np.atleast_2d(X)
    return np.column_stack([X[:, 0], X[:, 1] + 0.25 * np.sin(np.pi * X[:, 0])])


def _sine_shear_inv(Y):
    Y = np.atleast_2d(Y)
    return np.column_stack([Y[:, 0], Y[:, 1] - 0.25 * np.sin(np.pi * Y[:, 0])])


_RC_BETA = 0.2
_RC_CENTER = np.array([0.5, 0.5])


def _rc_scale(r2):
    return 1.0 - _RC_BETA * np.exp(-4.0 * r2)


def _radial_compress(X):
    X = np.atleast_2d(X)
    v = X - _RC_CENTER
    r2 = np.sum(v * v, axis=1)
    return _RC_CENTER + v * _rc_scale(r2)[:, None]


def _radial_compress_logdet(X, Y=None):
    # D phi = s I + 2 s' v v^T, s' = ds/d(r^2): det = s^{d-1} (s + 2 r^2 s')
    v = np.atleast_2d(X) - _RC_CENTER
    r2 = np.sum(v * v, axis=1)
    s = _rc_scale(r2)
    ds = 4.0 * _RC_BETA * np.exp(-4.0 * r2)
    return (v.shape[1] - 1) * np.log(s) + np.log(s + 2.0 * r2 * ds)


def _zero_logdet(X, Y=None):
    return np.zeros(np.atleast_2d(X).shape[0])


def _radial_compress_inv(Y):
    # solve r_out = r_in s(r_in^2) per point, r_in s(r_in^2) being
    # increasing in r_in, to within an ulp of the bracket's upper end
    Y = np.atleast_2d(Y)
    v = Y - _RC_CENTER
    r_out = np.linalg.norm(v, axis=1)
    r_max = r_out / (1.0 - _RC_BETA) + 1e-9
    r_in = solve_increasing(lambda r: r * _rc_scale(r * r), r_out, 0.0,
                            r_max, np.finfo(float).eps * r_max)
    scale = np.where(r_out > 0, r_in / np.maximum(r_out, 1e-300), 1.0)
    return _RC_CENTER + v * scale[:, None]


def _compose(f, g):
    return lambda X: f(g(X))


_DEFAULT_AFFINE_M = np.array([[1.1, 0.1], [0.0, 0.85]])
_DEFAULT_AFFINE_C = np.array([0.02, 0.05])

_DEFAULT_PROFILE = slope_profile([0.0, 0.4, 1.0], [0.5, 4.0 / 3.0], 0.0)


# the catalog: each target and the ``params`` keys it takes
_TARGET_PARAMS = {
    "identity": (), "affine": ("matrix", "offset"), "sine-shear": (),
    "radial-compress": (), "sine-radial": (), "profile1d": ("profile", "d"),
    "kr": ("rho0", "rho1"),
}
CATALOG = tuple(_TARGET_PARAMS)


def get_target(name: str, params: dict = None) -> TargetMap:
    """Look up a catalog target; ``params`` (a config's ``target_params``)
    overrides target-specific knobs, and must hold only keys it takes."""
    if name not in CATALOG:
        raise KeyError(f"unknown target {name!r}; catalog: "
                       f"{', '.join(CATALOG)}")
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ValueError(f"target_params must be an object; got {params!r}")
    unknown = sorted(set(params) - set(_TARGET_PARAMS[name]))
    if unknown:
        raise ValueError(f"{name} target: unknown target_params key(s) "
                         f"{unknown}; accepted: {list(_TARGET_PARAMS[name])}")
    if name == "identity":
        return TargetMap(name, lambda X: np.atleast_2d(np.asarray(X, float)),
                         UNIT_SQUARE,
                         inverse=lambda Y: np.atleast_2d(np.asarray(Y, float)),
                         logdet=_zero_logdet)
    if name == "affine":
        M = np.asarray(params.get("matrix", _DEFAULT_AFFINE_M), dtype=float)
        c = np.asarray(params.get("offset", _DEFAULT_AFFINE_C), dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f'affine target: "matrix" must be square; got '
                             f'shape {M.shape}')
        d = M.shape[0]
        if c.shape != (d,):
            raise ValueError(f'affine target: "offset" must have length {d}, '
                             f'the size of "matrix"; got shape {c.shape}')
        if np.linalg.det(M) <= 0:
            raise ValueError("affine target must be orientation preserving")
        M_inv = np.linalg.inv(M)
        log_det_M = float(np.log(np.linalg.det(M)))
        return TargetMap(name,
                         lambda X: np.atleast_2d(X) @ M.T + c,
                         RectDomain([0.0] * d, [1.0] * d),
                         inverse=lambda Y: (np.atleast_2d(Y) - c) @ M_inv.T,
                         logdet=lambda X, Y=None: _zero_logdet(X) + log_det_M)
    if name == "sine-shear":
        return TargetMap(name, _sine_shear, UNIT_SQUARE,
                         inverse=_sine_shear_inv, logdet=_zero_logdet)
    if name == "radial-compress":
        return TargetMap(name, _radial_compress, UNIT_SQUARE,
                         inverse=_radial_compress_inv,
                         logdet=_radial_compress_logdet)
    if name == "sine-radial":
        # the shear has det 1, so the log-det is the radial map's
        return TargetMap(name, _compose(_sine_shear, _radial_compress),
                         UNIT_SQUARE,
                         inverse=_compose(_radial_compress_inv,
                                          _sine_shear_inv),
                         logdet=_radial_compress_logdet)
    if name == "profile1d":
        # an object is the slope form {"breakpoints", "slopes", "beta0"}
        prof = params.get("profile")
        prof = (slope_profile(*(json_key(prof, key, "profile", kind)
                                for key, kind in (("breakpoints", "vector"),
                                                  ("slopes", "vector"),
                                                  ("beta0", "number"))))
                if isinstance(prof, dict) else prof or _DEFAULT_PROFILE)
        d = json_key({"d": 2, **params}, "d", "profile1d target", "integer")
        if d < 1:
            raise ValueError(f'profile1d target: "d" must be >= 1; got {d}')
        lower = [prof.knots[0]] + [0.0] * (d - 1)
        upper = [prof.knots[-1]] + [1.0] * (d - 1)

        def on_first_axis(f):
            def apply(X):
                X = np.atleast_2d(np.asarray(X, float)).copy()
                X[:, 0] = f(X[:, 0])
                return X
            return apply

        return TargetMap(name, on_first_axis(prof), RectDomain(lower, upper),
                         inverse=on_first_axis(prof.inverse()),
                         logdet=lambda X, Y=None: profile_logdet(
                             prof, np.atleast_2d(X)[:, 0]),
                         profile=prof)
    # name == "kr"
    rho0 = density_from_spec(params.get("rho0", "uniform"))
    rho1 = density_from_spec(params.get("rho1", "tilted"))
    fwd = KRMap(rho0, rho1)
    back = KRMap(rho1, rho0)
    # exact for the discrete KR map: its conditional-CDF ratios telescope
    # to rho0(x) / rho1(phi(x)) of the multilinear density interpolants
    cube = RectDomain([0.0] * fwd.d, [1.0] * fwd.d)
    return TargetMap(name, fwd, cube, inverse=back,
                     logdet=lambda X, Y=None: np.log(rho0(X))
                     - np.log(rho1(fwd(X) if Y is None else Y)))


def density_from_spec(spec, shape=(65, 65)) -> GridDensity:
    """Resolve a density argument: catalog name, grid values, or GridDensity.

    Catalog (normalized on the ``shape`` grid over [0,1]^d): uniform and
    bump (1 + 0.8 exp(-8|x-c|^2)); on [0,1]^2 only, tilted (1 + 0.4x + 0.2y)
    and product ((1+x)(0.5+y)); on [0,1] only, 2x (max(2x, 1e-9)).
    """
    if isinstance(spec, GridDensity):
        return spec
    if isinstance(spec, dict):
        return GridDensity(np.asarray(json_key(spec, "values", "density"),
                                      dtype=float))
    if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
               for n in shape):
        raise ValueError(f"density shape must hold integers; got {shape!r}")
    shape = tuple(shape)
    if spec == "uniform":
        return GridDensity.uniform(shape)
    if spec == "2x":
        if len(shape) != 1:
            raise ValueError(f"density '2x' is one-dimensional; got shape "
                             f"{shape}")
        return GridDensity.from_function(
            lambda X: np.maximum(2 * X[:, 0], 1e-9), shape)
    if spec in ("tilted", "product") and len(shape) != 2:
        raise ValueError(f"density {spec!r} is two-dimensional; got shape "
                         f"{shape}")
    if spec == "tilted":
        return GridDensity.from_function(
            lambda X: 1 + 0.4 * X[:, 0] + 0.2 * X[:, 1], shape)
    if spec == "product":
        return GridDensity.from_function(
            lambda X: (1 + X[:, 0]) * (0.5 + X[:, 1]), shape)
    if spec == "bump":
        return GridDensity.from_function(
            lambda X: 1 + 0.8 * np.exp(
                -8 * np.sum((X - 0.5) ** 2, axis=1)), shape)
    raise KeyError(f"unknown density {spec!r}; catalog: uniform, tilted, "
                   "product, bump, 2x")
