"""Extended-space lift of a static Hamiltonian plus a periodic drive.

A drive with N incommensurate tones maps onto a block matrix over harmonic
sectors m = (m1, ..., mN) with -M_i <= m_i <= M_i: the diagonal sectors hold
h0 plus the ladder shift m1 w1 + ... + mN wN (hbar = 1), and sector (m, m')
holds the block B_(m - m') of the drive dict {k: B_k}.  In Kronecker form
this is I_S (x) h0 + diag(m . w) (x) I_n + sum_k S_k (x) B_k.  Flat indices
run site-fastest, then m1, then m2 and so on, so site profiles come out of
a plain reshape; SambeIndexMap is the one owner of that order.

Every two-site lift is offered two maps: the generalized parity
P = sigma_x (x) (-1)^(sum m) behind coherent destruction of tunneling and
the chiral pairing S = J (x) (m -> -m), J = [[0, 1], [-1, 0]].  Operator
keeps them where they hold exactly (P commutes with H, S anticommutes with
H and P), as on the driven two-level system, so factorize solves half of it.

Drive blocks may be stacks (..., n, n), one block per point of a parameter
sweep; the lift is then the stack (..., d, d) of the lifts of those points,
which linalg.factorize solves in one stacked call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import Operator, SignedPermutation, batch_value


@dataclass(frozen=True, eq=False)
class SambeIndexMap:
    """Bijection between flat extended-space indices and (site, harmonics).

    Sites are 0-based array rows here (site n of the physics conventions is
    row n-1); harmonics run in [-M_i, M_i] for each drive tone.  Flat index
    = sector * base_dim + site, and row s of ``harmonics`` holds the
    harmonics of sector s.
    """

    base_dim: int
    truncations: tuple

    def __post_init__(self):
        if any(m < 0 for m in self.truncations):
            raise ValueError(f"truncations must be >= 0, got {self.truncations}")

    @property
    def sector_count(self) -> int:
        return math.prod(2 * m + 1 for m in self.truncations)

    @property
    def flat_dim(self) -> int:
        return self.base_dim * self.sector_count

    @property
    def _shape(self) -> tuple:
        # slowest tone first, so a C-order ravel runs m1 fastest
        return tuple(2 * m + 1 for m in reversed(self.truncations))

    @property
    def harmonics(self) -> np.ndarray:
        """(sector_count, tones) table of the harmonics of every sector, in flat order."""
        index = np.indices(self._shape).reshape(len(self.truncations), -1)
        return index[::-1].T - np.array(self.truncations, dtype=int)

    def sectors(self, harmonics) -> np.ndarray:
        """Sector index of each row of a (..., tones) harmonic array; inverts ``harmonics``."""
        shifted = np.asarray(harmonics) + np.array(self.truncations, dtype=int)
        return np.ravel_multi_index(tuple(np.moveaxis(shifted, -1, 0)[::-1]), self._shape)

    def _by_sector(self, values) -> np.ndarray:
        """Flat extended-space vectors (..., flat_dim) as (..., sector_count, base_dim)."""
        v = np.asarray(values)
        if v.shape[-1:] != (self.flat_dim,):
            raise DimensionError(f"vector has shape {v.shape}, expected (..., {self.flat_dim})")
        return v.reshape(v.shape[:-1] + (self.sector_count, self.base_dim))

    def site_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum flat extended-space vectors over harmonics: w(site) = sum_m values(site, m)."""
        return self._by_sector(values).sum(axis=-2)

    def edge_sector_weight(self, values: np.ndarray):
        """Fraction of sum |values| in the sectors on the truncation edge, per vector.

        A sector is on the edge when some tone with M_i > 0 sits at
        |m_i| = M_i.  A large fraction means the harmonic truncation cuts
        off weight the vector still carries; NaN for an all-zero vector.
        """
        per_sector = np.abs(self._by_sector(values)).sum(axis=-1)
        m = np.array(self.truncations, dtype=int)
        edge = np.flatnonzero(np.any((np.abs(self.harmonics) == m) & (m > 0), axis=1))
        total = per_sector.sum(axis=-1)
        # take keeps the edge sectors of each vector contiguous, so each sum
        # rounds as it does for one vector
        with np.errstate(invalid="ignore"):  # 0 / 0 is the NaN of an all-zero vector
            return batch_value(per_sector.take(edge, axis=-1).sum(axis=-1) / total)


@functools.lru_cache(maxsize=16)
def _two_level_maps(truncations: tuple) -> tuple:
    """(P, S) of a two-site base in flat order, built once per truncation.

    P = sigma_x (x) (-1)^(sum m) swaps the two sites of every sector and
    signs both by the sector's parity; S = J (x) (m -> -m) sends site 0
    of sector m to site 1 of sector -m, and site 1 to minus site 0.
    """
    index_map = SambeIndexMap(base_dim=2, truncations=truncations)
    harmonics, flat = index_map.harmonics, np.arange(index_map.flat_dim)
    site = flat % 2
    parity = SignedPermutation(flat ^ 1, np.repeat((-1.0) ** harmonics.sum(axis=1), 2))
    mirror = np.repeat(index_map.sectors(-harmonics), 2)
    pairing = SignedPermutation(2 * mirror + 1 - site, 1.0 - 2.0 * site)
    return parity, pairing


@dataclass(frozen=True, eq=False)
class SambeOperator:
    """Extended-space operator plus the bookkeeping needed to read it."""

    matrix: Operator
    index_map: SambeIndexMap


def build_sambe(h0: Operator, drive: dict, omegas, truncations) -> SambeOperator:
    """Lift h0 plus an N-tone drive onto the harmonic sectors |m_i| <= M_i.

    drive maps a harmonic delta (int for one tone, N-tuple otherwise) to the
    Operator B_delta on sectors (m, m - delta); diagonal sectors hold
    h0 + (m . omega) I.  The lift is Hermitian when h0 is and
    B_(-delta) = B_delta^dag, as for every cosine drive, and real when h0
    and every block are.  Two-site lifts are offered _two_level_maps, which
    Operator keeps where they are exact symmetries.  A harmonic coupling no
    retained sector pair adds nothing; a block of the wrong dim or a key of
    the wrong tone count raises DimensionError.

    h0 is one operator, but the blocks may be stacks (..., n, n): the lift
    is then the stack of the lifts of every matrix of the broadcast block
    stacks, each entry for entry the lift of that point on its own.
    """
    omegas = tuple(omegas)
    truncations = tuple(truncations)
    if not omegas or len(omegas) != len(truncations):
        raise DimensionError(f"{len(omegas)} frequencies for {len(truncations)} truncations")
    if not all(0.0 < w < math.inf for w in omegas):  # NaN fails too
        raise ValueError("drive frequencies must be positive and finite")
    index_map = SambeIndexMap(base_dim=h0.dim, truncations=truncations)
    harmonics = index_map.harmonics
    n, s = h0.dim, index_map.sector_count
    dtype = np.result_type(h0.entries, *(block.entries for block in drive.values()))
    batch = np.broadcast_shapes(*(block.entries.shape[:-2] for block in drive.values()))
    mat = np.zeros(batch + (s, n, s, n), dtype=dtype)
    diag = np.arange(s)
    shifts = sum(harmonics[:, i] * w for i, w in enumerate(omegas))
    # the two sector indices put the selected sectors first, ahead of the stack axes
    mat[..., diag, :, diag, :] = (h0.entries + shifts[:, None, None] * np.eye(n, dtype=dtype)).reshape(
        (s,) + (1,) * len(batch) + (n, n)
    )
    for key, block in drive.items():
        if block.dim != n:
            raise DimensionError(f"drive block {key!r} has dim {block.dim}, expected {n}")
        delta = np.atleast_1d(key)
        if delta.shape != (len(omegas),):
            raise DimensionError(f"drive key {key!r} does not name {len(omegas)} tones")
        target = harmonics - delta
        inside = np.all(np.abs(target) <= truncations, axis=1)
        mat[..., diag[inside], :, index_map.sectors(target[inside]), :] += block.entries
    maps = _two_level_maps(truncations) if n == 2 else None
    return SambeOperator(
        matrix=Operator(mat.reshape(batch + (index_map.flat_dim,) * 2), parity_pairing=maps),
        index_map=index_map,
    )


def build_sambe_mono(h0: Operator, drive: dict, omega: float, truncation: int) -> SambeOperator:
    """One-tone build_sambe: harmonics m = -M..M, drive keyed by int."""
    return build_sambe(h0, drive, (omega,), (truncation,))


def build_sambe_duo(
    h0: Operator,
    drive: dict,
    omega1: float,
    omega2: float,
    truncation1: int,
    truncation2: int,
) -> SambeOperator:
    """Two-tone build_sambe: harmonic plane (m1, m2), drive keyed by pairs."""
    return build_sambe(h0, drive, (omega1, omega2), (truncation1, truncation2))
