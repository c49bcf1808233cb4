"""Demand families that only the tests sample: a point mass and two
lognormal families (independent, and joined by a Gaussian copula). The
``simulate`` command builds only ``TwoPointIndependent``, so these and
their ``scipy`` dependency live here, not in the package, as do ``atoms``
and ``side_moments``, which give any family's atoms and moments."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from hfmm.model import SideMoments
from hfmm.simulator import (_SAMPLE_FLOOR, SideDistribution,
                            TwoPointIndependent)


@dataclass(frozen=True)
class PointMass(SideDistribution):
    c: float
    p: float

    def sample(self, u_c, u_p):
        shape = np.shape(u_c)
        return np.full(shape, self.c), np.full(shape, self.p)


def atoms(dist):
    """(c, p, prob) of each atom of a finite-support family (a two-point
    side's floored atoms, which it samples), or None."""
    if isinstance(dist, PointMass):
        return [(dist.c, dist.p, 1.0)]
    if isinstance(dist, TwoPointIndependent):
        c_low, c_high, p_low, p_high = dist._floored
        wc, wp = dist.c_prob_low, dist.p_prob_low
        return [(c, p, w_c * w_p)
                for c, w_c in ((c_low, wc), (c_high, 1 - wc))
                for p, w_p in ((p_low, wp), (p_high, 1 - wp))]
    return None


def moments_from_atoms(atoms) -> SideMoments:
    arr = np.array([(c, p, w) for c, p, w in atoms], dtype=float)
    c, p, w = arr[:, 0], arr[:, 1], arr[:, 2]
    return SideMoments(
        mu_c=float(w @ c),
        mu_c2=float(w @ c ** 2),
        mu_cp=float(w @ (c * p)),
        mu_c2p=float(w @ (c ** 2 * p)),
        mu_c2p2=float(w @ (c ** 2 * p ** 2)),
        mu_p=float(w @ p),
        mu_p2=float(w @ p ** 2),
    )


def side_moments(dist) -> SideMoments:
    """The family's conditional demand moments: over its atoms for a
    finite support, else its own analytic ``side_moments``."""
    found = atoms(dist)
    return moments_from_atoms(found) if found else dist.side_moments()


def _lognormal_moment(m, s, order):
    return math.exp(order * m + 0.5 * (order * s) ** 2)


@dataclass(frozen=True)
class LognormalIndependent(SideDistribution):
    """Independent lognormal c and p (log-mean/log-std parameterization)."""

    m_c: float
    s_c: float
    m_p: float
    s_p: float

    @classmethod
    def from_moments(cls, mu_c, mu_c2, mu_p, mu_p2) -> "LognormalIndependent":
        if mu_c2 <= mu_c ** 2 or mu_p2 <= mu_p ** 2:
            raise ValueError("second moments must exceed squared means")
        s_c = math.sqrt(math.log(mu_c2 / mu_c ** 2))
        s_p = math.sqrt(math.log(mu_p2 / mu_p ** 2))
        return cls(math.log(mu_c) - s_c ** 2 / 2, s_c,
                   math.log(mu_p) - s_p ** 2 / 2, s_p)

    def sample(self, u_c, u_p):
        c = np.exp(self.m_c + self.s_c * ndtri(u_c))
        p = np.exp(self.m_p + self.s_p * ndtri(u_p))
        return np.maximum(c, _SAMPLE_FLOOR), np.maximum(p, _SAMPLE_FLOOR)

    def side_moments(self) -> SideMoments:
        ec = _lognormal_moment(self.m_c, self.s_c, 1)
        ec2 = _lognormal_moment(self.m_c, self.s_c, 2)
        ep = _lognormal_moment(self.m_p, self.s_p, 1)
        ep2 = _lognormal_moment(self.m_p, self.s_p, 2)
        return SideMoments(mu_c=ec, mu_c2=ec2, mu_cp=ec * ep,
                           mu_c2p=ec2 * ep, mu_c2p2=ec2 * ep2,
                           mu_p=ep, mu_p2=ep2)


@dataclass(frozen=True)
class GaussianCopulaLognormal(SideDistribution):
    """Jointly lognormal (c, p): their logs are bivariate normal with
    correlation rho, which induces positive (or negative) Cov(c, p)."""

    m_c: float
    s_c: float
    m_p: float
    s_p: float
    rho: float

    @classmethod
    def from_moments(cls, mu_c, mu_c2, mu_p, mu_p2,
                     mu_cp) -> "GaussianCopulaLognormal":
        """Match marginal moments exactly, then bisect rho until the cross
        moment E[cp] hits mu_cp."""
        base = LognormalIndependent.from_moments(mu_c, mu_c2, mu_p, mu_p2)

        def cross(rho):
            return mu_c * mu_p * math.exp(rho * base.s_c * base.s_p)

        lo, hi = -0.999999, 0.999999
        if not cross(lo) <= mu_cp <= cross(hi):
            raise ValueError(f"mu_cp={mu_cp} unreachable for these marginals")
        for _ in range(200):
            mid = (lo + hi) / 2
            if cross(mid) < mu_cp:
                lo = mid
            else:
                hi = mid
        return cls(base.m_c, base.s_c, base.m_p, base.s_p, (lo + hi) / 2)

    def sample(self, u_c, u_p):
        z1 = ndtri(u_c)
        z2 = self.rho * z1 + math.sqrt(1 - self.rho ** 2) * ndtri(u_p)
        c = np.exp(self.m_c + self.s_c * z1)
        p = np.exp(self.m_p + self.s_p * z2)
        return np.maximum(c, _SAMPLE_FLOOR), np.maximum(p, _SAMPLE_FLOOR)

    def side_moments(self) -> SideMoments:
        def mom(a, b):
            return math.exp(a * self.m_c + b * self.m_p
                            + 0.5 * (a ** 2 * self.s_c ** 2
                                     + b ** 2 * self.s_p ** 2
                                     + 2 * a * b * self.rho
                                     * self.s_c * self.s_p))

        return SideMoments(mu_c=mom(1, 0), mu_c2=mom(2, 0), mu_cp=mom(1, 1),
                           mu_c2p=mom(2, 1), mu_c2p2=mom(2, 2),
                           mu_p=mom(0, 1), mu_p2=mom(0, 2))
