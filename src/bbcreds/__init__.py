"""Biometric-bound age credentials.

A signed age-over attestation is encrypted under a secret that can only
be recovered with a stable key reproduced from the holder's biometric,
via a code-offset fuzzy extractor. The package includes synthetic
identities for exercising the protocol, the three-party enrollment and
authentication flows, persistence of the device record, and a Monte-Carlo
FRR/FAR evaluation harness.
"""

__version__ = "0.1.0"
