"""Closed-form engineered-dissipation rates and drive calibration.

Public signatures take linear MHz (the omega/2pi numbers quoted on the
bench); rate outputs are 1/us, so dimensionful formulas convert to angular
units internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RateEstimate:
    """Engineered scattering between two dressed qubit modes.

    ``forward`` is the drive-assisted decay p -> l (the cooled direction),
    ``reverse`` the heating direction l -> p, both 1/us.  ``optimal_detuning``
    is the drive detuning (MHz) that maximizes the forward rate.
    """

    forward: float
    reverse: float
    ratio: float
    optimal_detuning: float


def drive_amplitude(n_bar: float, delta_r: float, kappa: float) -> float:
    """Drive amplitude (MHz) that holds ``n_bar`` photons at this detuning."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    return math.sqrt(n_bar * (delta_r ** 2 + (kappa / 2.0) ** 2))


def golden_rule_rate(chi_kk: float, m_kl: float, m_kp: float, n_bar: float,
                     kappa: float, gap: float, delta_r: float) -> RateEstimate:
    """Drive-assisted scattering rates between dressed modes p and l.

    Arguments in linear MHz: ``chi_kk`` the dispersive shift of the driven
    resonator, ``m_kl``/``m_kp`` the (dimensionless) eigenvector weights of
    its qubit in the two modes, ``gap`` the mode splitting lambda_p -
    lambda_l, and ``delta_r`` the drive detuning.  The resonator's photon-
    number fluctuation spectrum is Lorentzian, so

        forward = 4 n |chi M M|^2 kappa / ((gap - delta_r)^2 + (kappa/2)^2)

    in angular units, and the reverse process sees the spectrum at -gap.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    coupling = 4.0 * n_bar * (TWO_PI * chi_kk * m_kl * m_kp) ** 2
    kap = TWO_PI * kappa

    def lorentzian(offset_mhz: float) -> float:
        off = TWO_PI * offset_mhz
        return kap / (off ** 2 + (kap / 2.0) ** 2)

    forward = coupling * lorentzian(gap - delta_r)
    reverse = coupling * lorentzian(gap + delta_r)
    ratio = math.inf if reverse == 0 else forward / reverse
    return RateEstimate(forward, reverse, ratio, gap)

