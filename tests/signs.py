"""Sign vectors as the tests' oracles compare them: tuples of +1, -1 and 0.

The engine keeps a vertex's signs as its plus mask and a face as one int
(`arrangement` module docstring); these helpers turn them into tuples and
back, so an oracle that works on tuples can check the masks, and read a
vertex's rise mask off an oracle's steps.
"""

from __future__ import annotations

from arrangement_lab.arrangement import SignVector, Vertex, sign_tuple


def face_of(signs: SignVector) -> int:
    """The face int of a tuple of signs: bit n-1-k set where sign k is +1,
    and bit 2n-1-k where it is 0."""
    n = len(signs)
    plus = sum(1 << n - 1 - k for k, s in enumerate(signs) if s > 0)
    zero = sum(1 << n - 1 - k for k, s in enumerate(signs) if s == 0)
    return plus | zero << n


def vertex_signs(v: Vertex, n: int) -> SignVector:
    """A vertex's n signs, zero on its tight set."""
    return sign_tuple(v.plus | sum(1 << n - 1 - k for k in v.tight_set) << n, n)


def rise_mask(v: Vertex, steps: tuple, n: int) -> int:
    """The rise mask that v's steps (w-, w+, up), one per tight index, give:
    bit n-1-k set where k's up side is +."""
    return sum(1 << n - 1 - k for k, step in zip(v.tight_set, steps) if step[2] > 0)


def signs_of(faces, n: int) -> list[SignVector]:
    """Face ints, or records with a `signature`, as sign tuples."""
    return [sign_tuple(getattr(face, "signature", face), n) for face in faces]
