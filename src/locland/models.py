"""Hamiltonian constructors for the benchmark models.

Static lattices are returned as Operator matrices; time-periodic drives as
{harmonic: Operator} dicts with one Hermitian block per harmonic, ready for
build_sambe's extended (Sambe-type) lift.  Sites are indexed 1..N in all
center-of-mass conventions, i.e. array row 0 is site 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .linalg import Operator

SSH_VARIANTS = ("topological", "trivial", "domain_wall")

_SIGMA_Z = np.diag([1.0, -1.0])


@dataclass(frozen=True)
class SshConfig:
    """Dimerized-chain configuration.

    variant selects the real-space arrangement: a uniformly dimerized chain
    ("topological" needs |t_intra| < |t_inter|, "trivial" the opposite) or a
    "domain_wall" joining a trivial left half to a topological right half.
    """

    variant: str
    n_cells: int
    t_intra: float
    t_inter: float

    def __post_init__(self):
        if self.variant not in SSH_VARIANTS:
            raise ConfigError(f"unknown ssh variant {self.variant!r}, expected one of {SSH_VARIANTS}")
        if self.n_cells < 2:
            raise ConfigError("ssh needs n_cells >= 2")
        if self.t_intra == 0.0 or self.t_inter == 0.0:
            raise ConfigError("ssh hoppings must be nonzero")
        if self.variant == "topological" and abs(self.t_intra) >= abs(self.t_inter):
            raise ConfigError("topological variant needs |t_intra| < |t_inter|")
        if self.variant == "trivial" and abs(self.t_intra) <= abs(self.t_inter):
            raise ConfigError("trivial variant needs |t_intra| > |t_inter|")
        if self.variant == "domain_wall" and abs(self.t_intra) == abs(self.t_inter):
            raise ConfigError("domain_wall needs |t_intra| != |t_inter|")


def _open_chain(name: str, n_sites: int, upper, lower, diagonal=0.0) -> np.ndarray:
    """Matrix of an open chain: upper on the superdiagonal, lower on the subdiagonal.

    lower is the amplitude for hopping j -> j+1 and upper for j+1 -> j;
    upper and lower take a scalar or one value per bond, diagonal a scalar
    or one value per site.
    """
    if n_sites < 2:
        raise DimensionError(f"{name} needs n_sites >= 2")
    m = np.zeros((n_sites, n_sites))
    idx = np.arange(n_sites - 1)
    m[idx, idx + 1] = upper
    m[idx + 1, idx] = lower
    m[np.diag_indices(n_sites)] = diagonal
    return m


def hatano_nelson(n_sites: int, t_left: float, t_right: float) -> Operator:
    """Open-boundary chain with non-reciprocal nearest-neighbor hopping.

    t_right sits on the subdiagonal (amplitude for hopping j -> j+1) and
    t_left on the superdiagonal; the asymmetry ratio r = t_right / t_left
    drives the boundary accumulation of all right eigenstates.

    For t_left t_right > 0 the chain is H = D T D^-1 with D = diag(r^(j/2))
    and T the symmetric chain with hopping sqrt(t_left t_right), the
    imaginary gauge transformation (Hatano & Nelson, PRL 77, 570 (1996)).
    The operator carries log D as its log_gauge, centred on the middle of
    the chain so that the two halves are exact mirror images, when n_sites
    is also even: for odd n_sites T has an exact zero eigenvalue, and the
    chain stays on the generic route.
    """
    m = _open_chain("hatano_nelson", n_sites, t_left, t_right)
    gauge = None
    if n_sites % 2 == 0 and t_left * t_right > 0.0:
        gauge = 0.5 * math.log(t_right / t_left) * (np.arange(n_sites) - 0.5 * (n_sites - 1))
    return Operator(m, log_gauge=gauge)


def aah_static(n_sites: int, hopping: float, lambda0: float, alpha: float, theta: float = 0.0) -> Operator:
    """Quasiperiodic chain: -J hopping plus onsite lambda0 cos(2 pi alpha n + theta).

    The onsite argument uses n = 1..N, matching the site-1-based conventions
    used everywhere else.
    """
    onsite = lambda0 * np.cos(2.0 * np.pi * alpha * np.arange(1, n_sites + 1) + theta)
    m = _open_chain("aah_static", n_sites, -hopping, -hopping, onsite)
    return Operator(m)


def aah_drive(n_sites: int, amplitude: float, alpha: float, theta: float = 0.0) -> dict:
    """Harmonic blocks of the onsite modulation A cos(w t) cos(2 pi alpha n + theta).

    A cosine tone splits evenly over the +1 and -1 harmonics, so both blocks
    equal (A/2) diag(cos(2 pi alpha n + theta)).  Single-site blocks are
    allowed; only the static chain needs room for hopping.
    """
    if n_sites < 1:
        raise DimensionError("aah_drive needs n_sites >= 1")
    sites = np.arange(1, n_sites + 1)
    diag = np.diag(0.5 * amplitude * np.cos(2.0 * np.pi * alpha * sites + theta))
    block = Operator(diag)
    return {1: block, -1: block}


def two_level_static(j_coupling: float) -> Operator:
    """Tunneling term -J sigma_x in the (|L>, |R>) basis."""
    if j_coupling <= 0.0:
        raise ValueError("two_level_static needs J > 0")
    m = np.array([[0.0, -j_coupling], [-j_coupling, 0.0]])
    return Operator(m)


def two_level_drive_mono(amplitude: float) -> dict:
    """Single-tone bias drive s(t) sigma_z / 2 with s(t) = A cos(W t).

    The cosine and the 1/2 in front of sigma_z leave (A/4) sigma_z on the
    +1 and -1 harmonics.
    """
    if amplitude < 0.0:
        raise ValueError("drive amplitude must be >= 0")
    block = Operator(0.25 * amplitude * _SIGMA_Z)
    return {1: block, -1: block}


def two_level_drive_duo(a_amplitude: float, b_amplitude: float) -> dict:
    """Two-tone bias drive with s(t) = A cos(W1 t) + B cos(W2 t).

    Blocks are keyed by harmonic pairs: (A/4) sigma_z on (+-1, 0) and
    (B/4) sigma_z on (0, +-1).
    """
    if a_amplitude < 0.0 or b_amplitude < 0.0:
        raise ValueError("drive amplitudes must be >= 0")
    block_a = Operator(0.25 * a_amplitude * _SIGMA_Z)
    block_b = Operator(0.25 * b_amplitude * _SIGMA_Z)
    return {(1, 0): block_a, (-1, 0): block_a, (0, 1): block_b, (0, -1): block_b}


def domain_wall_site(n_cells: int) -> int:
    """1-based site hosting the unpaired midgap mode of the domain-wall chain."""
    return 2 * (n_cells // 2) + 1


def ssh(config: SshConfig) -> Operator:
    """Dimerized open chain in one of three real-space configurations.

    Hoppings follow the negative sign convention (-t on the bonds).  The
    uniform variants alternate t_intra / t_inter over 2*n_cells sites.  The
    domain wall joins a trivial left half to a topological right half with a
    single shared site (2*n_cells - 1 sites total); the two bonds flanking
    the shared site are both weak, so exactly one chiral zero mode sits at
    the wall and both chain ends terminate on strong bonds.
    """
    if config.variant in ("topological", "trivial"):
        n_sites = 2 * config.n_cells
        bonds = np.empty(n_sites - 1)
        bonds[0::2] = config.t_intra
        bonds[1::2] = config.t_inter
    else:
        strong, weak = sorted((config.t_intra, config.t_inter), key=abs, reverse=True)
        n_sites = 2 * config.n_cells - 1
        wall = domain_wall_site(config.n_cells)  # 1-based; = 2w+1 with w = n_cells//2
        bonds = np.full(n_sites - 1, weak)
        b = np.arange(1, n_sites)  # 1-based bond index, bond b joins sites b, b+1
        bonds[(b % 2 == 1) & (b <= wall - 2)] = strong
        bonds[(b % 2 == 0) & (b >= wall + 1)] = strong
    m = _open_chain("ssh", n_sites, -bonds, -bonds)
    return Operator(m)


def bbh(n_x: int, n_y: int, gamma: float, lam: float) -> Operator:
    """Square-lattice quadrupole model with pi flux through every plaquette.

    Each unit cell is a 2x2 block of sites; gamma couples sites inside a
    cell, lam couples neighboring cells, open boundaries.  The gauge flips
    the sign of every x hopping on even rows, which makes the product of
    hopping signs around any plaquette equal to -1.
    """
    if n_x < 2 or n_y < 2:
        raise DimensionError("bbh needs n_x, n_y >= 2")
    lx, ly = 2 * n_x, 2 * n_y
    site = np.arange(lx * ly)
    i, j = bbh_site_coords(site, n_x)
    m = np.zeros((site.size, site.size))
    # x bonds (i, j)-(i+1, j), sign -1 on even rows; y bonds (i, j)-(i, j+1)
    x, y = site[i < lx], site[j < ly]
    tx = np.where(i % 2 == 1, gamma, lam) * np.where(j % 2 == 1, 1.0, -1.0)
    ty = np.where(j % 2 == 1, gamma, lam)
    m[x, x + 1] = m[x + 1, x] = tx[x]
    m[y, y + lx] = m[y + lx, y] = ty[y]
    return Operator(m)


def bbh_site_coords(flat_index, n_x: int):
    """Map flat site indices of the bbh lattice to 1-based (column, row).

    Works elementwise: an integer gives a pair of ints, an index array a
    pair of arrays.  Sites run row by row, 2 * n_x to a row.
    """
    lx = 2 * n_x
    return flat_index % lx + 1, flat_index // lx + 1
