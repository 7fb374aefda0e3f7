"""Scattering analytics and wavepacket dynamics for 1D tight-binding chains
with non-Hermitian centers: an on-site complex potential, a flux-threaded
gain/loss interferometer, and the asymmetric-hopping dimer it reduces to.
"""

__version__ = "0.1.0"
