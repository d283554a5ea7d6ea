"""Independent accuracy references, evaluated with mpmath at 60 digits.

Both references start from the raw elements (a, e, tau) and the error angle,
not from any quantity the program computed, so they also measure the
rounding of the program's own derivation.

* ``first_order_arcsec``: the closed form 2 pi eps / (x (1 + x)) per orbit,
  x = sqrt(1 - eps), converted to arcsec per Julian century.
* ``exact_advance``: the apsidal angle of the unlinearized orbit equation
  u'' = -u + c / (1 - q u), c = mu / h^2. With W(u) = u^2/2 + (c/q) ln(1 - q u)
  and E = W(u_p), the advance per radial period is

      2 * integral_0^pi r sin(phi) / sqrt(2 (E - W(m - r cos phi))) dphi - 2 pi

  with m, r the midpoint and half-width of [u_a, u_p]. The integrand is
  analytic on the closed interval, so fixed-order Gauss-Legendre converges
  geometrically; 48 nodes agree with 24 to ~1e-29 rad on these orbits.
  Below 60 digits the 2 pi cancellation gives wrong signs at eps ~ 1e-7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
from mpmath.calculus.quadrature import GaussLegendre

from inputs import CENTURY_DAYS, DAY_S, GM_SUN

DPS = 60
CONVERGED_RAD = 1e-25        # |48-node - 24-node| the exact advance must meet
ZERO_QUANTUM_RAD = 1e-40     # |advance| at q = 0 (Kepler closes exactly)
CROSSCHECK_RAD = 1e-10       # |integrator - exact| at eps ~ 1e-3
FIXED_BITS = 256             # fraction bits of the fixed-point first-order rows


class ReferenceError(RuntimeError):
    """The reference itself failed a self-check; no comparison can be trusted."""


@dataclass
class Reference:
    """Cached 60-digit evaluator; one per benchmark run."""

    _nodes: dict = field(default_factory=dict)
    _orbits: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        with mpmath.workdps(DPS):
            gl = GaussLegendre(mpmath.mp)
            for degree in (4, 5):      # 24 and 48 nodes on [-1, 1]
                self._nodes[degree] = gl.calc_nodes(degree, mpmath.mp.prec)

    def _orbit(self, a: float, e: float, tau_days: float, rule: str):
        key = (a, e, tau_days, rule)
        if key not in self._orbits:
            mpf = mpmath.mpf
            a_, e_, tau = mpf(a), mpf(e), mpf(tau_days)
            b = a_ * mpmath.sqrt(1 - e_ * e_)
            r_p = a_ * (1 - e_)
            h = 2 * mpmath.pi * a_ * b / (tau * mpf(DAY_S))
            scale = r_p if rule == "perihelion" else b
            c = mpf(GM_SUN) / (h * h)
            self._orbits[key] = {
                "c": c, "u_p": 1 / r_p,
                "quantum_per_arcsec": mpmath.pi / 648000 * scale,
                "arcsec_per_century_per_rad": mpf(CENTURY_DAYS) / tau * 648000 / mpmath.pi,
            }
        return self._orbits[key]

    def first_order_arcsec(self, a: float, e: float, tau_days: float, delta: float,
                           rule: str = "perihelion"):
        """Closed-form centurial advance (arcsec) as an mpf."""
        with mpmath.workdps(DPS):
            o = self._orbit(a, e, tau_days, rule)
            eps = mpmath.mpf(delta) * o["quantum_per_arcsec"] * o["c"]
            x = mpmath.sqrt(1 - eps)
            return 2 * mpmath.pi * eps / (x * (1 + x)) * o["arcsec_per_century_per_rad"]

    def max_rel_err(self, a: float, e: float, tau_days: float, rule: str, pairs) -> float:
        """Largest |value - first order| / first order over (delta, value) pairs.

        A zero delta must give exactly zero; anything else counts as infinite.
        Rows are evaluated in integer fixed point with FIXED_BITS fraction
        bits, from the orbit's 60-digit constants: a sweep has thousands of
        rows, and this is about six times faster than mpf arithmetic. Every
        step rounds down by at most one unit in 2**-FIXED_BITS, far below the
        1e-16 relative errors measured.
        """
        one = 1 << FIXED_BITS
        k, scale = self._fixed(a, e, tau_days, rule)
        worst = 0.0
        for delta, value in pairs:
            if delta == 0.0:
                worst = max(worst, 0.0 if value == 0.0 else float("inf"))
                continue
            n, d = delta.as_integer_ratio()
            eps = n * k // d
            x = math.isqrt((one - eps) << FIXED_BITS)
            ref = (eps << 2 * FIXED_BITS) // (x * (one + x)) * scale >> FIXED_BITS
            n, d = float(value).as_integer_ratio()
            worst = max(worst, abs((n << FIXED_BITS) // d - ref) / ref)
        return worst

    def _fixed(self, a: float, e: float, tau_days: float, rule: str) -> tuple[int, int]:
        """eps per arcsec of delta, and arcsec per century of 2 pi eps/(x(1+x)),
        both scaled by 2**FIXED_BITS."""
        with mpmath.workdps(DPS):
            o = self._orbit(a, e, tau_days, rule)
            if "fixed" not in o:
                one = mpmath.mpf(2) ** FIXED_BITS
                o["fixed"] = (int(o["quantum_per_arcsec"] * o["c"] * one),
                              int(2 * mpmath.pi * o["arcsec_per_century_per_rad"] * one))
            return o["fixed"]

    def exact_advance(self, a: float, e: float, tau_days: float, delta: float,
                      rule: str = "perihelion"):
        """Exact perihelion advance per radial period (rad) as an mpf."""
        with mpmath.workdps(DPS):
            o = self._orbit(a, e, tau_days, rule)
            c, u_p = o["c"], o["u_p"]
            q = mpmath.mpf(delta) * o["quantum_per_arcsec"]
            if q == 0:
                def W(u):
                    return u * u / 2 - c * u
            else:
                def W(u):
                    return u * u / 2 + (c / q) * mpmath.log(1 - q * u)
            energy = W(u_p)
            # Kepler's aphelion 2c - u_p seeds the root; findroot can hand
            # back an mpc with a zero imaginary part.
            u_a = mpmath.re(mpmath.findroot(lambda u: W(u) - energy, 2 * c - u_p))
            m, r = (u_p + u_a) / 2, (u_p - u_a) / 2

            def integrand(phi):
                return r * mpmath.sin(phi) / mpmath.sqrt(2 * (energy - W(m - r * mpmath.cos(phi))))

            half = mpmath.pi / 2
            coarse, fine = (2 * half * mpmath.fsum(w * integrand(half * (x + 1)) for x, w in
                                                   self._nodes[degree]) - 2 * mpmath.pi
                            for degree in (4, 5))
            if abs(fine - coarse) > CONVERGED_RAD:
                raise ReferenceError(f"quadrature not converged: {mpmath.nstr(fine - coarse, 3)} rad")
            return fine

    def exact(self, a: float, e: float, tau_days: float, delta: float,
              rule: str = "perihelion"):
        """Exact advance as (rad per radial period, arcsec per century), both mpf."""
        advance = self.exact_advance(a, e, tau_days, delta, rule)
        with mpmath.workdps(DPS):
            return advance, advance * self._orbit(a, e, tau_days, rule)["arcsec_per_century_per_rad"]


def validate(ref: Reference, measured_precession, planet_elements) -> dict:
    """The two self-checks that make the exact reference trustworthy.

    * q = 0: the Kepler orbit closes, so the advance must vanish to 1e-40 rad.
    * eps ~ 1.2e-3 (Mercury, delta = 300"): the exact-force integrator at
      tol 1e-12 must agree to better than 1e-10 rad per orbit.

    Returns the two residuals; raises ReferenceError when either fails.
    """
    a, e, tau = 5.79092e10, 0.20563069, 87.96926
    kepler = abs(ref.exact_advance(a, e, tau, 0.0))
    if kepler >= ZERO_QUANTUM_RAD:
        raise ReferenceError(f"advance at q = 0 is {mpmath.nstr(kepler, 3)} rad")
    measured = measured_precession(planet_elements("Mercury", a, e, tau), 300.0,
                                   n_orbits=50, tol=1e-12).per_orbit_rad
    gap = abs(float(measured - ref.exact_advance(a, e, tau, 300.0)))
    if not gap < CROSSCHECK_RAD:
        raise ReferenceError(f"integrator and exact reference differ by {gap:.3e} rad at eps ~ 1e-3")
    return {"kepler_advance_rad": float(kepler), "crosscheck_gap_rad": gap}
