"""Scenario construction: antenna geometry, link budget, user population.

A scenario bundles everything the analysis needs: the fluid-antenna
geometry (port count K, aperture W wavelengths, port density mu), the RF
link budget (power, gain, bandwidth, noise temperature), and the per-user
path-loss coefficients and reference-port phases.  A scenario stores only
these inputs; the channel constants (V, t, activated-port count, nominal
SNR, the odd-mu warning) are computed from them on access, so they cannot
disagree with the inputs, and the bundle is immutable, so scenarios can be
shared freely across threads and processes.

Configs are flat JSON objects (a dict, a file path or JSON text); K, W and
U are required, and the others default as shown (_CONFIG_DEFAULTS)::

    K            port count (integer >= 2)
    W            aperture scaling factor in wavelengths (integer >= 1)
    U            number of users sharing the band (integer >= 1)
    P_watts      transmit power per user            [default 1.0]
    G_dBi        overall antenna gain in dBi        [default 40.0]
    B_hz         user link bandwidth in Hz          [default 1e7]
    T_kelvin     receiver noise temperature in K    [default 207.0]
    f_c_hz       carrier frequency in Hz            [default 30e9]
    distance_m   ground-to-satellite distance, scalar or list of U
                 per-user values                    [default 1.2e6]
    seed         seed for the reference-port phase draw, an integer
                 in [0, 2**128)                     [default 0]

Unknown keys are a hard error, as is a link budget whose linear gain,
path-loss coefficient, noise power or nominal SNR is not finite and
positive, or, with interferers, whose interference mean omega or spread
kappa is not finite and positive.
dB/dBi conversion happens only here; all internal math is linear-scale.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
BOLTZMANN = 1.381e-23  # J/K

WARN_ODD_MU = "odd-mu"

SEED_BOUND = 2 ** 128  # Philox keys, and so seeds, lie in [0, 2**128)

_REQUIRED_KEYS = ("K", "W", "U")

_CONFIG_DEFAULTS = {
    "P_watts": 1.0,
    "G_dBi": 40.0,
    "B_hz": 1e7,
    "T_kelvin": 207.0,
    "f_c_hz": 30e9,
    "distance_m": 1.2e6,
    "seed": 0,
}

_CONFIG_KEYS = {*_REQUIRED_KEYS, *_CONFIG_DEFAULTS}


class ScenarioError(ValueError):
    """Invalid scenario configuration; the message names the offending field."""


def is_number(v) -> bool:
    """Whether v is an int or a float (bools are not) that float() takes: an
    int too large for a float is not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def is_integral(v) -> bool:
    """Whether v is a number, as is_number says, with an integral value."""
    return is_number(v) and float(v).is_integer()


def db_to_linear(value_db: float) -> float:
    """Convert a dB (or dBi) quantity to linear scale."""
    return 10.0 ** (value_db / 10.0)


def path_loss_coeff(f_c: float, r: float) -> float:
    """Free-space path-loss power coefficient (lambda / 4 pi r)^2.

    Monotone decreasing in both carrier frequency and distance.
    """
    if f_c <= 0:
        raise ScenarioError(f"f_c must be positive, got {f_c}")
    if r <= 0:
        raise ScenarioError(f"r must be positive, got {r}")
    lam = SPEED_OF_LIGHT / f_c
    return (lam / (4.0 * math.pi * r)) ** 2


def phase_offset(psi):
    """Phase offset t = 3/4 - psi/(2*pi), in (-1/4, 3/4), of phases psi in (0, 2*pi)."""
    return 0.75 - psi / (2.0 * math.pi)


def interference_moments(zeta_interferers, V: float) -> tuple:
    """(omega, kappa) of the aggregate interference power before its
    truncation at 0: the mean omega = sum(zeta)/(2 V^2) and the spread
    kappa = sqrt(sum(zeta^2)/(8 V^4)) over the interferers' path-loss
    coefficients.  A sum that overflows gives inf, without a warning."""
    zs = np.asarray(zeta_interferers, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        omega = float(zs.sum() / (2.0 * V ** 2))
        kappa = float(math.sqrt((zs ** 2).sum() / (8.0 * V ** 4)))
    return omega, kappa


@dataclass(frozen=True)
class AntennaConfig:
    """Fluid-antenna geometry: K ports spread over W wavelengths.

    The port density mu = (K-1)/W is an exact rational, the mu that
    `satcuma report` and the `satcuma validate` scenario label print (5/2,
    not 2.5); mu_float is the same ratio as a float, correctly rounded.
    The evenness check that gates the analytic compact forms reads K and W
    directly.
    """

    K: int
    W: int

    def __post_init__(self):
        if not isinstance(self.K, int) or self.K < 2:
            raise ScenarioError(f"K must be an integer >= 2, got {self.K}")
        if not isinstance(self.W, int) or self.W < 1:
            raise ScenarioError(f"W must be an integer >= 1, got {self.W}")

    @property
    def mu(self):
        """(K-1)/W as a fractions.Fraction, imported here: only the
        printed scenario summaries need the exact ratio."""
        from fractions import Fraction
        return Fraction(self.K - 1, self.W)

    @property
    def mu_float(self) -> float:
        # int / int is the correctly rounded quotient, as float(Fraction) is
        return (self.K - 1) / self.W

    @property
    def mu_is_even_integer(self) -> bool:
        # (K-1) mod 2W == 0  <=>  mu is an even integer
        return (self.K - 1) % (2 * self.W) == 0

    @property
    def V(self) -> float:
        """Signal scaling constant sin(pi/mu)/W."""
        return math.sin(math.pi / self.mu_float) / self.W


@dataclass(frozen=True)
class LinkBudget:
    """RF link budget, linear-scale and positive; no defaults (see _CONFIG_DEFAULTS)."""

    P: float                  # transmit power, W
    G: float                  # overall antenna gain, linear
    B: float                  # bandwidth, Hz
    T: float                  # receiver temperature, K
    f_c: float                # carrier frequency, Hz

    def __post_init__(self):
        for name in ("P", "G", "B", "T", "f_c"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def noise_power(self) -> float:
        """Single-sided thermal noise power k * T * B, k the Boltzmann constant."""
        return BOLTZMANN * self.T * self.B


def nominal_snr(budget: LinkBudget) -> float:
    """Nominal SNR excluding path loss, P G / (k T B), at unit symbol power."""
    return budget.P * budget.G / budget.noise_power


@dataclass(frozen=True)
class UserField:
    """Per-user path-loss coefficients and reference-port phases.

    User 0 is the desired user by convention; the rest interfere.  The
    ports lie in line with the propagation path, so the port alignment
    sin(theta)*cos(phi) is 1 and appears nowhere in the model.
    """

    U: int
    zeta: tuple
    psi: tuple

    def __post_init__(self):
        if not isinstance(self.U, int) or self.U < 1:
            raise ScenarioError(f"U must be an integer >= 1, got {self.U}")
        if len(self.zeta) != self.U:
            raise ScenarioError(f"zeta must have U={self.U} entries, got {len(self.zeta)}")
        if len(self.psi) != self.U:
            raise ScenarioError(f"psi must have U={self.U} entries, got {len(self.psi)}")
        for z in self.zeta:
            if z <= 0:
                raise ScenarioError(f"zeta entries must be positive, got {z}")
        for p in self.psi:
            if not (0.0 < p < 2.0 * math.pi):
                raise ScenarioError(f"psi entries must lie in (0, 2*pi), got {p}")


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: geometry + budget + users; the channel constants
    are computed from these."""

    antenna: AntennaConfig
    budget: LinkBudget
    users: UserField
    seed: int = 0

    def __post_init__(self):
        if self.V <= 0:
            raise ScenarioError(f"V must be positive, got {self.V}")
        # the scenario keys per-scenario caches, so it is hashed once, not
        # through its nested parts at every lookup
        object.__setattr__(self, "_hash", hash(
            (self.antenna, self.budget, self.users, self.seed)))

    def __hash__(self):
        return self._hash

    @property
    def zeta_u(self) -> float:
        """Path-loss coefficient of the desired user, user 0."""
        return self.users.zeta[0]

    @property
    def zeta_interferers(self) -> tuple:
        return self.users.zeta[1:]

    @property
    def mu(self) -> float:
        return self.antenna.mu_float

    @functools.cached_property
    def V(self) -> float:
        """Signal scaling constant sin(pi/mu)/W."""
        return self.antenna.V

    @property
    def t(self) -> float:
        """Phase offset of the desired user (phase_offset)."""
        return phase_offset(self.users.psi[0])

    @property
    def Kbar(self) -> float:
        """Analytic activated-port count (K-1)/2; exact for even mu."""
        return (self.antenna.K - 1) / 2.0

    @functools.cached_property
    def Gamma(self) -> float:
        """Nominal SNR P G / (k T B)."""
        return nominal_snr(self.budget)

    @property
    def noise_term(self) -> float:
        """In-phase noise power term Kbar/(2*Gamma) in the SINR denominator."""
        return self.Kbar / (2.0 * self.Gamma)

    @property
    def warnings(self) -> tuple:
        """(WARN_ODD_MU,) when mu is not an even integer, else ()."""
        return () if self.antenna.mu_is_even_integer else (WARN_ODD_MU,)


_WORDS_PER_COUNTER = 4  # Philox advances in 4x64-bit increments


def phase_chunks(seed: int, lo: int, hi: int, u: int, rows: int):
    """The reference-port phase stream over trials [lo, hi), in chunks.

    Yields (first, psi) for consecutive chunks of at most rows trials: first
    is the chunk's absolute first trial and psi its (trials, u) phases,
    uniform on the open (0, 2*pi).  psi is a view of one buffer that the
    next chunk overwrites.

    Reproducibility contract: the stream is a counter-based generator
    (Philox) keyed by seed and indexed by absolute draw position, with u
    draws padded to a multiple of 4 reserved per trial.  Trial i's phases
    are therefore a pure function of (seed, u, i): they do not depend on lo,
    rows, the block plan, the worker count or the order in which ranges are
    drawn.  A scenario's own phases (build_scenario) are trial 0 of its
    seed's stream; the Monte-Carlo oracle draws its trials from the same
    stream.
    """
    stride = -(-u // _WORDS_PER_COUNTER) * _WORDS_PER_COUNTER
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(lo * stride // _WORDS_PER_COUNTER)
    gen = np.random.Generator(bitgen)
    raw = np.empty((min(rows, hi - lo), stride))
    for first in range(lo, hi, rows):
        psi = gen.random(out=raw[:min(rows, hi - first)])[:, :u]
        # exact 0 has probability 2^-53; remap so the open-interval invariant holds
        psi[psi == 0.0] = 0.5 ** 53
        psi *= 2.0 * math.pi
        yield first, psi


@functools.lru_cache(maxsize=64)
def _draw_phases(u: int, seed: int) -> tuple:
    """Trial 0 of the phase stream; memoised, as a sweep draws it for a few
    (U, seed) pairs only."""
    _, psi = next(phase_chunks(seed, 0, 1, u, 1))
    return tuple(psi[0].tolist())


def load_config(source) -> dict:
    """Flat config mapping from a dict or a str, a JSON file path or JSON text.

    A string that names no readable file is parsed as JSON only when it
    starts like JSON ('{' or '['); otherwise the unreadable file is reported.
    Errors raise ScenarioError naming the file.
    """
    if isinstance(source, dict):
        return dict(source)
    if not isinstance(source, str):
        raise ScenarioError(f"unsupported config source type {type(source).__name__}")
    try:
        with open(source) as fh:
            text = fh.read()
        origin = f"config file {source!r}"
    except OSError as exc:
        if not source.lstrip().startswith(("{", "[")):
            raise ScenarioError(f"cannot read config file {source!r}: "
                                f"{exc.strerror or exc}") from exc
        text, origin = source, "config string"
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{origin}: config parse failure: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{origin}: config must be a JSON object, "
                            f"got {type(cfg).__name__}")
    return cfg


def build_scenario(source) -> Scenario:
    """Build a validated Scenario from a config mapping or JSON file path.

    Accepts whatever load_config does: a dict, a path to a JSON file, or a
    JSON string.  Unknown keys raise ScenarioError.  When mu is not an even
    integer the scenario still builds, but its warnings name the odd-mu case
    so consumers can tell the guaranteed regime from the empirical one.
    """
    cfg = load_config(source)

    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ScenarioError(f"unknown config keys: {sorted(unknown)}")
    for required in _REQUIRED_KEYS:
        if required not in cfg:
            raise ScenarioError(f"missing required config key: {required}")

    merged = dict(_CONFIG_DEFAULTS)
    merged.update(cfg)

    def _as_int(key):
        v = merged[key]
        if not is_integral(v):
            raise ScenarioError(f"{key} must be an integer in the float range, got {v!r}")
        return int(v)

    def _as_float(key, v):
        """v, the value of key or one entry of it, as a float."""
        if not isinstance(v, bool):
            try:
                return float(v)
            except (TypeError, ValueError, OverflowError):
                pass
        raise ScenarioError(f"{key} must be a number, got {v!r}")

    def _positive(key, v):
        """_as_float(key, v), which must not be <= 0."""
        x = _as_float(key, v)
        if x <= 0.0:
            raise ScenarioError(f"{key} must be positive, got {v!r}")
        return x

    K, W, U, seed = _as_int("K"), _as_int("W"), _as_int("U"), _as_int("seed")
    if not 0 <= seed < SEED_BOUND:
        raise ScenarioError(f"seed must be in [0, 2**128), got {seed}")

    def _given(fields):
        return ", ".join(f"{key}={merged[key]!r}" for key in fields)

    def _link(what, fields, compute):
        """compute(), a derived link quantity, which must be finite and positive."""
        try:
            value = compute()
        except OverflowError:
            value = math.inf
        if 0.0 < value < math.inf:
            return value
        raise ScenarioError(f"{what} is {value} for {_given(fields)}; "
                            f"it must be finite and positive")

    antenna = AntennaConfig(K=K, W=W)
    if not antenna.V > 0.0:
        raise ScenarioError(f"K and W: V must be positive, got {antenna.V:g} from "
                            f"sin(pi/mu)/W at K={K}, W={W} (mu = {antenna.mu})")
    budget = LinkBudget(
        P=_positive("P_watts", merged["P_watts"]),
        G=_link("linear gain", ("G_dBi",),
                lambda: db_to_linear(_as_float("G_dBi", merged["G_dBi"]))),
        B=_positive("B_hz", merged["B_hz"]),
        T=_positive("T_kelvin", merged["T_kelvin"]),
        f_c=_positive("f_c_hz", merged["f_c_hz"]),
    )
    _link("noise power", ("T_kelvin", "B_hz"), lambda: budget.noise_power)

    dist = merged["distance_m"]
    if isinstance(dist, (list, tuple)):
        if len(dist) != U:
            raise ScenarioError(f"distance_m list must have U={U} entries, got {len(dist)}")
        distances = [_positive("distance_m", d) for d in dist]
    else:
        distances = [_positive("distance_m", dist)] * U
    zeta = tuple(_link("path-loss coefficient", ("f_c_hz", "distance_m"),
                       lambda: path_loss_coeff(budget.f_c, d)) for d in distances)

    # the interference spread kappa is 0 when every zeta^2 underflows, as it
    # does for any zeta below ~1.5e-154, subnormal or not, and inf when the
    # sum of zeta^2 overflows, as it does for any zeta above ~1e154
    if U > 1:
        omega, kappa = interference_moments(zeta[1:], antenna.V)
        _link("interference mean omega", ("f_c_hz", "distance_m"), lambda: omega)
        _link("interference spread kappa", ("f_c_hz", "distance_m"), lambda: kappa)

    psi = _draw_phases(U, seed)
    users = UserField(U=U, zeta=zeta, psi=psi)

    _link("nominal SNR", ("P_watts", "G_dBi", "T_kelvin", "B_hz"),
          lambda: nominal_snr(budget))
    return Scenario(antenna=antenna, budget=budget, users=users, seed=seed)


def table_default_config(K: int, W: int, U: int, **overrides) -> dict:
    """Config dict holding K, W and U plus any overrides.

    The other keys are left out: build_scenario fills them in from
    _CONFIG_DEFAULTS, the standard LEO uplink parameter set.
    """
    cfg = {"K": K, "W": W, "U": U}
    cfg.update(overrides)
    return cfg
