"""Wireless-powered relay link: beam/time-split optimization and analysis.

The top level re-exports the names of the README's library example; every
other name is imported from its module (wprelay.montecarlo, wprelay.analysis, ...).
"""

from .channel import SystemParams, sample_channel
from .beamform import solve
from .sysmodel import snr_exact, throughput

__version__ = "0.6.0"

__all__ = ["SystemParams", "sample_channel", "solve", "snr_exact", "throughput",
           "__version__"]
