"""Text normalization, tokenization, and vocabulary tests."""

import random

import pytest
from hypothesis import given, strategies as st

from mwp.preprocess import (
    BOS_ID,
    DANDA,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    Vocab,
    build_vocab,
    decode,
    encode,
    normalize_digits,
    tokenize,
)

BENGALI = "০১২৩৪৫৬৭৮৯"
ASCII = "0123456789"


# --- digit normalization ----------------------------------------------------


def test_digit_maps():
    assert normalize_digits("৩৫", "bengali_to_ascii") == "35"
    assert normalize_digits("35", "ascii_to_bengali") == "৩৫"
    assert normalize_digits("abc", "bengali_to_ascii") == "abc"


def test_digit_direction_validated():
    with pytest.raises(ValueError):
        normalize_digits("35", "sideways")


def test_digit_round_trip_random():
    rng = random.Random(123)
    alphabet = BENGALI + "abcXYZ আমি ।?.,"
    for _ in range(300):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        assert normalize_digits(normalize_digits(s, "bengali_to_ascii"), "ascii_to_bengali") == s


@given(st.text(alphabet=ASCII + "abc xyz", max_size=50))
def test_digit_round_trip_ascii_side(s):
    assert normalize_digits(normalize_digits(s, "ascii_to_bengali"), "bengali_to_ascii") == s


def test_digit_preserves_length():
    s = "৩৫ cows, 7 hens"
    assert len(normalize_digits(s, "bengali_to_ascii")) == len(s)


# --- normalization and tokenization ----------------------------------------


def normalized(s):
    return " ".join(tokenize(s))


def test_normalize_lowercases():
    assert normalized("ABC Def") == "abc def"


def test_normalize_collapses_whitespace():
    assert normalized("  a\t b\n\nc  ") == "a b c"


def test_danda_is_own_token():
    tokens = tokenize("আমার পাঁচটি আম আছে।")
    assert tokens[-1] == DANDA
    assert DANDA not in "".join(tokens[:-1])


def test_question_mark_split():
    assert tokenize("মোট কত?") == ["মোট", "কত", "?"]


def test_operators_split():
    assert tokenize("x=3+4") == ["x", "=", "3", "+", "4"]
    assert tokenize("x=(7-3)") == ["x", "=", "(", "7", "-", "3", ")"]


def test_decimal_point_kept_between_digits():
    assert tokenize("x = 3.5") == ["x", "=", "3.5"]
    assert tokenize("৩.৫ কেজি") == ["৩.৫", "কেজি"]


def test_sentence_final_dot_split():
    assert tokenize("there are 5.") == ["there", "are", "5", "."]
    assert tokenize("a. b") == ["a", ".", "b"]


def test_normalize_idempotent_examples():
    for s in ("আমার ৫টি আম আছে।", "x = (7-3)?", "A  B.C 1.5"):
        once = normalized(s)
        assert normalized(once) == once


@given(st.text(max_size=80))
def test_normalize_idempotent_property(s):
    once = normalized(s)
    assert normalized(once) == once


@given(st.text(max_size=80))
def test_tokenize_no_empty_tokens(s):
    assert all(t for t in tokenize(s))


# --- vocabulary -------------------------------------------------------------


def test_reserved_ids():
    vocab = Vocab(["মোট", "কত"])
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
    assert [vocab.token_of(i) for i in range(4)] == list(RESERVED_TOKENS)
    assert vocab.id_of("মোট") == 4


def test_vocab_rejects_reserved_and_duplicates():
    with pytest.raises(ValueError):
        Vocab(["<pad>"])
    with pytest.raises(ValueError):
        Vocab(["a", "a"])


def test_vocab_unknown_token_maps_to_unk():
    vocab = Vocab(["a"])
    assert vocab.id_of("zzz") == UNK_ID


def test_vocab_token_of_range():
    vocab = Vocab(["a"])
    with pytest.raises(ValueError):
        vocab.token_of(99)
    with pytest.raises(ValueError):
        vocab.token_of(-1)


def test_build_vocab_frequency_then_lexicographic():
    corpus = [["b", "b", "a"], ["a", "c", "b"]]
    vocab = build_vocab(corpus)
    # b appears 3x, a 2x, c 1x
    assert [vocab.token_of(i) for i in (4, 5, 6)] == ["b", "a", "c"]
    tied = build_vocab([["z", "y"]])
    assert [tied.token_of(i) for i in (4, 5)] == ["y", "z"]


def test_vocab_save_load_round_trip(tmp_path):
    vocab = build_vocab([tokenize("আমার ৫ টি আম আছে।")])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocab.load(path)
    assert loaded.id_to_token == vocab.id_to_token


def test_vocab_load_rejects_bad_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\nc\nd\ne\n", encoding="utf-8")
    with pytest.raises(ValueError):
        Vocab.load(path)


@pytest.mark.parametrize("tokens, problem", [(["a", "b", "a"], "duplicate tokens in vocabulary"),
                                             (["a", "<pad>"], "token '<pad>' collides with a reserved token")])
def test_vocab_load_names_the_file_of_a_bad_token_list(tmp_path, tokens, problem):
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join([*RESERVED_TOKENS, *tokens]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        Vocab.load(path)
    assert str(err.value) == f"{path}: {problem}"


def test_vocab_load_names_a_non_utf8_file(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes("\n".join(RESERVED_TOKENS).encode() + b"\n\xe0\n")
    with pytest.raises(ValueError) as err:
        Vocab.load(path)
    assert str(err.value) == f"{path} is not UTF-8 text: invalid continuation byte at byte 24"


# --- encoding ---------------------------------------------------------------


def test_encode_decode_round_trip():
    vocab = build_vocab([["মোট", "কত", "?"]])
    tokens = ["মোট", "কত", "?"]
    ids = encode(tokens, vocab)
    assert decode(ids, vocab) == tokens


def test_encode_adds_bos_eos():
    vocab = Vocab(["a"])
    assert encode(["a"], vocab, add_bos_eos=True) == [BOS_ID, 4, EOS_ID]


def test_decode_strip_special_keeps_unk():
    vocab = Vocab(["a"])
    ids = [PAD_ID, BOS_ID, 4, UNK_ID, EOS_ID]
    assert decode(ids, vocab) == ["a", "<unk>"]


def test_encode_unknown_to_unk():
    vocab = Vocab(["a"])
    assert encode(["a", "zz"], vocab) == [4, UNK_ID]


@given(st.lists(st.sampled_from(["আম", "কলা", "মোট", "?", "৩"]), max_size=12))
def test_encode_decode_identity_over_known_tokens(tokens):
    vocab = build_vocab([["আম", "কলা", "মোট", "?", "৩"]])
    assert decode(encode(tokens, vocab), vocab) == tokens
