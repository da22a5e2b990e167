"""Text normalization, tokenization, and vocabulary handling.

Raw problem and equation strings are lowercased, trimmed, and split into a
plain ``list[str]`` in which every punctuation mark (including the Bengali
danda) is its own token. Token/id mapping is handled by :class:`Vocab` with
four reserved ids.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from .atomic import read_utf8, write_text_atomic

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)

BENGALI_DIGITS = "০১২৩৪৫৬৭৮৯"
ASCII_DIGITS = "0123456789"
_BN_TO_ASCII = str.maketrans(BENGALI_DIGITS, ASCII_DIGITS)
_ASCII_TO_BN = str.maketrans(ASCII_DIGITS, BENGALI_DIGITS)

DANDA = "।"  # Bengali full stop

# Danda, ASCII sentence punctuation, and the equation symbols; anything not
# listed passes through untouched.
PUNCTUATION = DANDA + ",?.()+-*/="


def normalize_digits(s: str, direction: str) -> str:
    """Map digit characters between Bengali and ASCII, leaving the rest alone.

    ``direction`` is ``"bengali_to_ascii"`` or ``"ascii_to_bengali"``. The two
    directions are exact inverses on digit characters.
    """
    if direction == "bengali_to_ascii":
        return s.translate(_BN_TO_ASCII)
    if direction == "ascii_to_bengali":
        return s.translate(_ASCII_TO_BN)
    raise ValueError(f"unknown direction: {direction!r}")


def tokenize(s: str) -> list[str]:
    """Lowercase ``s``, space out punctuation and split on whitespace. A period
    flanked by digits on both sides is kept in place so decimal literals like
    ``2.5`` survive as one token. Never yields empty tokens."""
    return _spaced(s).split()


def _spaced(s: str) -> str:
    """``s`` lowercased with a space on each side of every punctuation mark
    but a period between two digits (``str.isdigit``, so ``²`` counts)."""
    s = s.lower()
    if "." in s:
        parts = s.split(".")
        out = [parts[0]]
        for left, right in zip(parts, parts[1:]):
            out.append("." if left[-1:].isdigit() and right[:1].isdigit() else " . ")
            out.append(right)
        s = "".join(out)
    for ch in PUNCTUATION:
        if ch in s and ch != ".":
            s = s.replace(ch, f" {ch} ")
    return s


class Vocab:
    """Bijective token/id mapping with reserved ids 0..3.

    Ids 0..3 are PAD, BOS, EOS, UNK. Data tokens occupy ids 4 and up, ordered
    by descending frequency with lexicographic tie-breaking so construction is
    deterministic.
    """

    def __init__(self, tokens: Sequence[str]):
        for t in tokens:
            if t in RESERVED_TOKENS:
                raise ValueError(f"token {t!r} collides with a reserved token")
        self.id_to_token: list[str] = list(RESERVED_TOKENS) + list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < len(self.id_to_token):
            raise ValueError(f"id {idx} out of range for vocabulary of size {len(self)}")
        return self.id_to_token[idx]

    def save(self, path: str | Path) -> None:
        write_text_atomic(path, "\n".join(self.id_to_token) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        lines = read_utf8(path).split("\n")
        if lines and lines[-1] == "":
            lines = lines[:-1]
        return cls.from_stored(lines, path)

    @classmethod
    def from_stored(cls, tokens: Sequence[str], source: str | Path) -> "Vocab":
        """The vocabulary stored as ``tokens``, its ids in order; a ValueError names ``source``."""
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            raise ValueError(f"{source}: does not start with the reserved tokens {RESERVED_TOKENS}")
        try:
            return cls(tokens[4:])
        except ValueError as exc:  # a duplicate or reserved token
            raise ValueError(f"{source}: {exc}") from exc


def build_vocab(corpus: Iterable[Sequence[str]]) -> Vocab:
    """Collect every token of ``corpus`` into a :class:`Vocab`, most frequent
    first, ties in lexicographic order."""
    freq: Counter[str] = Counter()
    for tokens in corpus:
        freq.update(tokens)
    return Vocab(sorted(freq, key=lambda t: (-freq[t], t)))


def encode(tokens: Sequence[str], vocab: Vocab, add_bos_eos: bool = False) -> list[int]:
    """Map tokens to ids; unknown tokens become UNK."""
    id_of = vocab.token_to_id.get
    ids = [id_of(t, UNK_ID) for t in tokens]
    if add_bos_eos:
        return [BOS_ID] + ids + [EOS_ID]
    return ids


def decode(ids: Sequence[int], vocab: Vocab) -> list[str]:
    """Map ids back to tokens, dropping PAD/BOS/EOS. Inverse of :func:`encode`
    up to UNK, which is kept since it marks a real (if unknown) input token."""
    return [vocab.token_of(i) for i in ids if i not in (PAD_ID, BOS_ID, EOS_ID)]
