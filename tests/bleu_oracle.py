"""BLEU cases the packaged implementation is checked on against the
benchmark's reference BLEU (``bench/oracle.py``)."""

# (candidate, reference) token-string pairs covering identity, reorder,
# clipping, brevity, disjoint, and length-edge behavior.
CASES = [
    ("x = 7 - 3", "x = 7 - 3"),
    ("x = 7 - 3", "x = 3 - 7"),
    ("x = 2 + 4", "x = 2 + 3"),
    ("x = 3 + 2", "x = 2 + 3"),
    ("x = 5", "x = 7 - 3"),
    ("x = 1 + 2 + 3", "x = 1 + 2"),
    ("2 2 2", "2"),
    ("a b c d", "e f g h"),
    ("x = ( 1 + 2 ) / 3", "x = ( 1 + 2 ) / 3"),
    ("x = ( 1 + 2 ) / 3", "x = 1 + 2 / 3"),
    ("x", "x"),
    ("x", "y"),
    ("x = 10 * 4", "x = 10 * 40"),
    ("x = 99 / 9", "x = 9 / 99"),
    ("the cat sat on the mat", "the cat sat on the mat"),
    ("the the the the", "the cat"),
    ("a b", "a b c d e f"),
    ("a b c d e f", "a b"),
    ("x = 1 - 1 + 1", "x = 1 + 1 - 1"),
    ("x = 12 + 7", "x = 12 + 7 - 1"),
    ("", "x = 1"),
    ("x = 8 / 2", "x = 8 / 2"),
]
