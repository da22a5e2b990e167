"""Text normalization, tokenization, and vocabulary handling.

Raw problem and equation strings are lowercased, trimmed, and split so that
every punctuation mark (including the Bengali danda) becomes its own token.
Token/id mapping is handled by :class:`Vocab` with four reserved ids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .atomic import write_text_atomic

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)

BENGALI_DIGITS = "০১২৩৪৫৬৭৮৯"
ASCII_DIGITS = "0123456789"
_BN_TO_ASCII = str.maketrans(BENGALI_DIGITS, ASCII_DIGITS)
_ASCII_TO_BN = str.maketrans(ASCII_DIGITS, BENGALI_DIGITS)

DANDA = "।"  # Bengali full stop

# Danda, ASCII sentence punctuation, and the equation symbols. Extendable per
# call site; anything not listed passes through untouched.
DEFAULT_PUNCTUATION = frozenset(DANDA + ",?.()+-*/=")


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


def normalize_text(s: str, punctuation: frozenset[str] = DEFAULT_PUNCTUATION) -> str:
    """Lowercase, trim, collapse whitespace, and space out punctuation.

    A period flanked by digits on both sides is kept in place so decimal
    literals like ``2.5`` survive as one token. Idempotent.
    """
    return " ".join(_spaced(s, punctuation).split())


def _spaced(s: str, punctuation: frozenset[str]) -> str:
    """``s`` lowercased with a space on each side of every punctuation mark
    but a period between two digits (``str.isdigit``, so ``²`` counts)."""
    s = s.lower()
    if "." in s and "." in punctuation:
        parts = s.split(".")
        out = [parts[0]]
        for left, right in zip(parts, parts[1:]):
            out.append("." if left[-1:].isdigit() and right[:1].isdigit() else " . ")
            out.append(right)
        s = "".join(out)
    for ch in punctuation:
        if ch in s and ch != "." and len(ch) == 1:
            s = s.replace(ch, f" {ch} ")
    return s


@dataclass
class TokenSequence:
    """An ordered token list, optionally paired with vocabulary ids."""

    tokens: list[str]
    ids: list[int] | None = None

    def __len__(self) -> int:
        return len(self.tokens)


def tokenize(s: str, punctuation: frozenset[str] = DEFAULT_PUNCTUATION) -> TokenSequence:
    """Normalize ``s`` and split on spaces. Never yields empty tokens."""
    return TokenSequence(tokens=_spaced(s, punctuation).split())


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

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

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
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        if lines and lines[-1] == "":
            lines = lines[:-1]
        if tuple(lines[:4]) != RESERVED_TOKENS:
            raise ValueError(f"{path}: first four lines must be {RESERVED_TOKENS}")
        return cls(lines[4:])


def build_vocab(corpus: Iterable[TokenSequence | Sequence[str]], min_freq: int = 1) -> Vocab:
    """Collect tokens with frequency >= ``min_freq`` into a :class:`Vocab`."""
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    freq: Counter[str] = Counter()
    for seq in corpus:
        tokens = seq.tokens if isinstance(seq, TokenSequence) else seq
        freq.update(tokens)
    kept = sorted(
        (t for t, c in freq.items() if c >= min_freq),
        key=lambda t: (-freq[t], t),
    )
    return Vocab(kept)


def encode(seq: TokenSequence | Sequence[str], vocab: Vocab, add_bos_eos: bool = False) -> list[int]:
    """Map tokens to ids; unknown tokens become UNK."""
    tokens = seq.tokens if isinstance(seq, TokenSequence) else seq
    id_of = vocab.token_to_id.get
    ids = [id_of(t, UNK_ID) for t in tokens]
    if add_bos_eos:
        return [BOS_ID] + ids + [EOS_ID]
    return ids


def decode(ids: Sequence[int], vocab: Vocab, strip_special: bool = False) -> TokenSequence:
    """Map ids back to tokens. Inverse of :func:`encode` up to UNK.

    With ``strip_special`` the PAD/BOS/EOS ids are dropped; UNK is kept since
    it marks a real (if unknown) input token.
    """
    kept = list(ids)
    if strip_special:
        kept = [i for i in kept if i not in (PAD_ID, BOS_ID, EOS_ID)]
    return TokenSequence(tokens=[vocab.token_of(i) for i in kept], ids=kept)
