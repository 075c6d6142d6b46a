"""Exact verification of the sign classification of two integer
sequences, with real-valued envelope checks on the side.

Import from the submodules: sequences (the definitions and the
stepper), intervals (the constant-(r, m) chain), exactarith (the exact
power comparison), verifier (the claim checks and their reports),
analytic (envelopes, roots and float checks) and cli (the command line).
"""

__version__ = "0.1.0"
