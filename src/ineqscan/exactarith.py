"""Exact integer kernel.

Exact ordering of a power of two against a general power.  It runs on
Python's arbitrary-precision integers and no floating point enters any
code path here, so the results are safe to feed into exhaustive sign
classifications.  Integer square roots and powers come from the
standard library (math.isqrt and the built-in **), which are exact on
ints.
"""

LT, EQ, GT = -1, 0, 1


def cmp_pow2_vs_pow(e: int, n: int, k: int) -> int:
    """Exact ordering of 2**e versus n**k: one of LT, EQ, GT.

    The fast path needs only bit lengths: with L = n.bit_length() we have
    2**(L-1) <= n < 2**L, so e >= L*k forces GT, and e <= (L-1)*k forces
    LT provided n is not exactly 2**(L-1).  Everything undecided falls
    back to building both powers and comparing them outright.
    """
    if e < 0 or k < 0:
        raise ValueError("exponents must be non-negative")
    if n < 1:
        raise ValueError("base must be a positive integer")
    if k > 0:
        bits = n.bit_length()
        if e >= bits * k:
            return GT
        if e <= (bits - 1) * k and n != 1 << (bits - 1):
            return LT
    lhs = 1 << e
    rhs = n**k
    if lhs < rhs:
        return LT
    if lhs > rhs:
        return GT
    return EQ
