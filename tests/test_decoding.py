"""Decoding tests: greedy (beam width 1) and wider beams, stopping,
determinism, and the cached decoder against naive full-prefix references."""

import functools
import tracemalloc

import numpy as np
import pytest

from mwp.model import decoding
from mwp.model.config import ModelConfig, TrainConfig
from mwp.model.decoding import CHUNK_ROWS, beam_decode, beam_decode_batch
from mwp.model.network import (
    DecoderCache,
    decode_step,
    encode,
    forward,
    init_parameters,
    position_table,
    start_decoding,
)
from mwp.model.training import prepare_pairs, train
from mwp.preprocess import BOS_ID, EOS_ID, PAD_ID, build_vocab, tokenize
from mwp.synth import generate_synthetic

WIDTH4_RECORDS = CHUNK_ROWS // 4  # records in a chunk of beam width 4
SMALL = dict(d_model=16, n_heads=2, d_ff=32, n_encoder_layers=1, n_decoder_layers=1,
             dropout=0.0, max_len=32)


def random_setup(seed, src_vocab=11, tgt_vocab=9):
    config = ModelConfig(src_vocab_size=src_vocab, tgt_vocab_size=tgt_vocab, **SMALL)
    params = init_parameters(config, np.random.default_rng(seed))
    return params, config


@functools.lru_cache(maxsize=1)
def overfit_setup():
    """A tiny model trained to reproduce three synthetic equations exactly."""
    records = generate_synthetic(3, seed=2)
    src_vocab = build_vocab([tokenize(r.problem_text) for r in records])
    tgt_vocab = build_vocab([tokenize(r.equation_text) for r in records])
    pairs = prepare_pairs(records, src_vocab, tgt_vocab)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab), **SMALL)
    params = init_parameters(config, np.random.default_rng(0))
    tc = TrainConfig(batch_size=3, epochs=150, learning_rate=3e-3, seed=0)
    params = train(params, config, tc, pairs)
    return params, config, pairs


# --- greedy --------------------------------------------------------------------


def test_greedy_respects_step_limit():
    params, config = random_setup(0)
    out = beam_decode_batch(params, config, [[5, 6, 7]], beam_size=1, max_steps=4)[0]
    assert len(out) <= 4
    assert all(isinstance(t, int) and 0 <= t < config.tgt_vocab_size for t in out)


def test_greedy_default_limit_is_max_len():
    params, config = random_setup(1)
    out = beam_decode_batch(params, config, [[5, 6]], beam_size=1)[0]
    assert len(out) <= config.max_len - 1


def test_greedy_excludes_bos_and_eos():
    params, config = random_setup(2)
    out = beam_decode_batch(params, config, [[4, 5, 6]], beam_size=1, max_steps=10)[0]
    assert BOS_ID not in out
    assert EOS_ID not in out


def test_greedy_is_deterministic():
    params, config = random_setup(3)
    a = beam_decode_batch(params, config, [[5, 8, 3]], beam_size=1, max_steps=8)[0]
    b = beam_decode_batch(params, config, [[5, 8, 3]], beam_size=1, max_steps=8)[0]
    assert a == b


def test_greedy_breaks_argmax_ties_toward_smallest_id():
    # All-zero parameters make every token equally likely at every step, so
    # the argmax must consistently resolve to token id 0.
    params, config = random_setup(5)
    params = {k: np.zeros_like(v) for k, v in params.items()}
    out = beam_decode_batch(params, config, [[5, 6]], beam_size=1, max_steps=5)[0]
    assert out == [0] * 5


# --- beam ----------------------------------------------------------------------


def test_beam_size_one_equals_greedy_on_random_models():
    for seed in range(6):
        params, config = random_setup(seed + 10)
        src = [4 + seed, 5, 6]
        assert beam_decode(params, config, src, beam_size=1) == reference_greedy(params, config, src)


def test_beam_rejects_nonpositive_size():
    params, config = random_setup(20)
    with pytest.raises(ValueError, match="beam_size"):
        beam_decode(params, config, [5], beam_size=0)
    with pytest.raises(ValueError, match="beam_size"):
        beam_decode(params, config, [5], beam_size=-2)


def test_beam_respects_step_limit():
    params, config = random_setup(21)
    out = beam_decode(params, config, [5, 6, 7], beam_size=3, max_steps=4)
    assert len(out) <= 4
    assert BOS_ID not in out and EOS_ID not in out


def test_beam_is_deterministic():
    params, config = random_setup(22)
    a = beam_decode(params, config, [7, 3, 5], beam_size=4, max_steps=8)
    b = beam_decode(params, config, [7, 3, 5], beam_size=4, max_steps=8)
    assert a == b


def test_beam_accepts_1d_and_2d_sources():
    params, config = random_setup(4)
    flat = beam_decode(params, config, [5, 6, 7], beam_size=2, max_steps=6)
    batched = beam_decode(params, config, np.array([[5, 6, 7]]), beam_size=2, max_steps=6)
    assert flat == batched


# --- behaviour on a trained model ------------------------------------------------


def test_trained_model_decodes_exact_targets():
    params, config, pairs = overfit_setup()
    for src, tgt in pairs:
        want = tgt[1:-1]  # strip BOS/EOS
        got = beam_decode_batch(params, config, [src], beam_size=1)[0]
        # EOS fired at the right step: lengths match, not just prefixes.
        assert got == want


def test_beam_agrees_with_greedy_on_trained_model():
    params, config, pairs = overfit_setup()
    for src, tgt in pairs:
        want = tgt[1:-1]
        for beam_size in (1, 2, 4):
            assert beam_decode(params, config, src, beam_size=beam_size) == want


# --- cached decoders against naive full-prefix references ---------------------------
# The references re-run the whole model over the prefix at every step, the
# way decoding worked before the key/value cache: both through ``forward``
# (the training stack), beam over the source repeated once per live
# hypothesis.


def reference_greedy(params, config, src, max_steps=None):
    limit = config.max_len - 1 if max_steps is None else max_steps
    seq = [BOS_ID]
    for _ in range(limit):
        logits = forward(params, config, np.array([src]), np.array([seq]))
        next_id = int(np.argmax(logits[0, -1]))
        if next_id == EOS_ID:
            break
        seq.append(next_id)
    return seq[1:]


def reference_beam(params, config, src, beam_size, max_steps=None):
    limit = config.max_len - 1 if max_steps is None else max_steps
    beams = [((BOS_ID,), 0.0, False)]
    for _ in range(limit):
        live = [h for h in beams if not h[2]]
        if not live:
            break
        logits = forward(params, config, np.array([src] * len(live)), np.array([h[0] for h in live]))
        candidates = [h for h in beams if h[2]]
        for row, (tokens, score, _) in enumerate(live):
            shifted = logits[row, -1] - logits[row, -1].max()
            logp = shifted - np.log(np.exp(shifted).sum())
            for token in np.argsort(-logp, kind="stable")[: beam_size + 1]:
                token = int(token)
                if token == EOS_ID:
                    candidates.append((tokens, score + float(logp[token]), True))
                else:
                    candidates.append((tokens + (token,), score + float(logp[token]), False))
        candidates.sort(key=lambda h: (-h[1], h[0]))
        beams = candidates[:beam_size]
        if all(h[2] for h in beams):
            break

    def final_score(h):
        return h[1] / max(len(h[0]) - 1 + (1 if h[2] else 0), 1)

    return list(min(beams, key=lambda h: (-final_score(h), h[0]))[0][1:])


def mixed_sources(seed, n, vocab=11):
    """``n`` sources of lengths 1..12 with ids from 3 up, so none is PAD."""
    rng = np.random.default_rng(seed)
    sources = []
    for _ in range(n):
        src = rng.integers(3, vocab, size=int(rng.integers(1, 13))).tolist()
        sources.append(src)
    return sources


@pytest.mark.parametrize("n", sorted({1, 8, 9, 19, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3}))
def test_batched_greedy_matches_reference_on_random_models(n):
    # at width 1 a chunk holds CHUNK_ROWS records: n = chunk + 1 leaves a
    # one-record chunk; 2 chunks + 3 crosses two boundaries; 8, 9 and 19
    # fill part of a chunk and cross encoder slices
    for seed in range(3):
        params, config = random_setup(100 + seed)
        sources = mixed_sources(seed, n)
        want = [reference_greedy(params, config, src) for src in sources]
        assert beam_decode_batch(params, config, sources, beam_size=1) == want
        assert [beam_decode_batch(params, config, [src], beam_size=1)[0] for src in sources] == want


def test_batched_greedy_matches_reference_with_step_limit():
    params, config = random_setup(110)
    sources = mixed_sources(7, CHUNK_ROWS + 2)
    for max_steps in (0, 1, 3):
        want = [reference_greedy(params, config, src, max_steps) for src in sources]
        assert beam_decode_batch(params, config, sources, beam_size=1, max_steps=max_steps) == want


def test_batched_greedy_masks_generated_pad_tokens():
    # a bias toward PAD makes the decoder feed PAD back in; those positions
    # must stay hidden from attention, as they are in a full forward
    params, config = random_setup(111)
    params["out.b"][PAD_ID] = 1.0
    sources = mixed_sources(8, CHUNK_ROWS + 1)
    got = beam_decode_batch(params, config, sources, beam_size=1, max_steps=12)
    assert got == [reference_greedy(params, config, src, 12) for src in sources]
    # some record goes on to a real token after feeding PAD back in
    assert any(PAD_ID in ids and set(ids[ids.index(PAD_ID):]) - {PAD_ID} for ids in got)


def test_batched_greedy_all_zero_params_emits_pad():
    params, config = random_setup(112)
    params = {k: np.zeros_like(v) for k, v in params.items()}
    sources = mixed_sources(9, CHUNK_ROWS + 1)
    got = beam_decode_batch(params, config, sources, beam_size=1, max_steps=6)
    assert got == [reference_greedy(params, config, src, 6) for src in sources] == [[PAD_ID] * 6] * len(sources)


def test_batched_greedy_matches_reference_on_trained_model():
    params, config, pairs = overfit_setup()
    sources = [src for src, _ in pairs] * 3
    want = [reference_greedy(params, config, src) for src in sources]
    assert beam_decode_batch(params, config, sources, beam_size=1) == want == [tgt[1:-1] for _, tgt in pairs] * 3


def test_batched_greedy_rejects_empty_and_overlong_sources():
    params, config = random_setup(113)
    assert beam_decode_batch(params, config, [], beam_size=1) == []
    with pytest.raises(ValueError, match="zero time steps"):
        beam_decode_batch(params, config, [[5, 6], []], beam_size=1)
    with pytest.raises(ValueError, match="max_len"):
        beam_decode_batch(params, config, [[5] * (config.max_len + 1)], beam_size=1)


@pytest.mark.parametrize("beam_size", [1, 2, 4])
def test_cached_beam_matches_reference_on_random_models(beam_size):
    for seed in range(4):
        params, config = random_setup(120 + seed)
        for src in mixed_sources(seed, 3):
            assert beam_decode(params, config, src, beam_size=beam_size) == reference_beam(params, config, src, beam_size)
            assert beam_decode(params, config, src, beam_size=beam_size, max_steps=3) == (
                reference_beam(params, config, src, beam_size, max_steps=3))


@pytest.mark.parametrize("beam_size", [1, 2, 4])
def test_cached_beam_matches_reference_on_trained_model(beam_size):
    params, config, pairs = overfit_setup()
    for src, _ in pairs:
        assert beam_decode(params, config, src, beam_size=beam_size) == reference_beam(params, config, src, beam_size)


@pytest.mark.parametrize("beam_size", [1, 2, 4])
# 4, 5 and 14 fill part of a chunk or a chunk and a remainder; the rest sit
# on the chunk boundaries of width 4
@pytest.mark.parametrize("n", sorted({1, 4, 5, 14, WIDTH4_RECORDS - 1, WIDTH4_RECORDS, WIDTH4_RECORDS + 1,
                                      3 * WIDTH4_RECORDS + 2}))
def test_batched_beam_matches_reference_on_random_models(n, beam_size):
    # sources of lengths 1..12 share chunks, so padded source positions must be masked
    for seed in range(2):
        params, config = random_setup(140 + seed)
        sources = mixed_sources(20 + seed, n)
        want = [reference_beam(params, config, src, beam_size) for src in sources]
        assert beam_decode_batch(params, config, sources, beam_size=beam_size) == want


@pytest.mark.parametrize("beam_size", [1, 2, 4])
def test_batched_beam_matches_reference_with_step_limit(beam_size):
    params, config = random_setup(142)
    sources = mixed_sources(22, WIDTH4_RECORDS + 2)
    for max_steps in (0, 1, 3):
        want = [reference_beam(params, config, src, beam_size, max_steps) for src in sources]
        assert beam_decode_batch(params, config, sources, beam_size=beam_size, max_steps=max_steps) == want


@pytest.mark.parametrize("beam_size", [2, 4])
def test_batched_beam_records_finishing_at_different_steps(beam_size):
    # a bias toward EOS ends some records' beams after a few steps while
    # others in the same chunk run on to the step limit
    params, config = random_setup(131)
    params["out.b"][EOS_ID] = 2.0
    sources = mixed_sources(131, 2 * WIDTH4_RECORDS + 1)
    want = [reference_beam(params, config, src, beam_size) for src in sources]
    got = beam_decode_batch(params, config, sources, beam_size=beam_size)
    assert got == want
    assert len({len(ids) for ids in got}) >= 3


def test_batched_beam_matches_reference_on_trained_model():
    params, config, pairs = overfit_setup()
    sources = [src for src, _ in pairs] * 3
    for beam_size in (1, 2, 4):
        want = [reference_beam(params, config, src, beam_size) for src in sources]
        assert beam_decode_batch(params, config, sources, beam_size=beam_size) == want


def test_batched_beam_returns_input_order():
    params, config = random_setup(143)
    params["out.b"][EOS_ID] = 2.0
    sources = mixed_sources(23, 2 * WIDTH4_RECORDS + 3)
    got = beam_decode_batch(params, config, sources, beam_size=3)
    assert got == [beam_decode(params, config, src, beam_size=3) for src in sources]
    # longest source first reverses the order the chunks decode in
    order = sorted(range(len(sources)), key=lambda i: -len(sources[i]))
    assert beam_decode_batch(params, config, [sources[i] for i in order], beam_size=3) == [got[i] for i in order]


def test_batched_beam_size_one_equals_batched_greedy():
    for seed in range(3):
        params, config = random_setup(144 + seed)
        sources = mixed_sources(24 + seed, CHUNK_ROWS + WIDTH4_RECORDS + 1)
        want = [reference_greedy(params, config, src) for src in sources]
        assert beam_decode_batch(params, config, sources, beam_size=1) == want


def test_batched_beam_rejects_bad_input():
    params, config = random_setup(147)
    assert beam_decode_batch(params, config, []) == []
    with pytest.raises(ValueError, match="zero time steps"):
        beam_decode_batch(params, config, [[5, 6], []])
    with pytest.raises(ValueError, match="max_len"):
        beam_decode_batch(params, config, [[5] * (config.max_len + 1)])
    with pytest.raises(ValueError, match="beam_size"):
        beam_decode_batch(params, config, [[5]], beam_size=0)


def test_position_table_is_cached_and_read_only():
    table = position_table(32, 16)
    assert position_table(32, 16) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


# --- beam rows share their record's cross-attention keys and values ------------


@pytest.mark.parametrize("chunk_rows", [1, 4, 8, 16])
def test_beam_ids_do_not_depend_on_chunk_size(chunk_rows, monkeypatch):
    # 19 mixed-length sources: chunks of every size pad differently and
    # leave a short last chunk; 1 row is fewer than a beam, so one record
    monkeypatch.setattr(decoding, "CHUNK_ROWS", chunk_rows)
    params, config = random_setup(150)
    params["out.b"][EOS_ID] = 1.0
    sources = mixed_sources(150, 19)
    for beam_size in (2, 4):
        want = [reference_beam(params, config, src, beam_size) for src in sources]
        assert beam_decode_batch(params, config, sources, beam_size=beam_size) == want


def test_select_shares_cross_keys_values_and_source_mask():
    params, config = random_setup(151)
    sources = [[5, 6, 7, 8], [4, 9], [3, 4, 5]]
    src = np.array([s + [PAD_ID] * (4 - len(s)) for s in sources])
    memory, src_mask = encode(params, config, src)
    cache = start_decoding(params, config, memory, src_mask)
    decode_step(params, config, cache, [BOS_ID] * 3)
    beams = cache.select([2, 0, 2, 1])  # a record's hypotheses repeat its row
    dropped = beams.select([3, 0])  # a greedy drop keeps a subset of rows
    for selected, record in ((beams, [2, 0, 2, 1]), (dropped, [1, 2])):
        assert selected.src_mask is cache.src_mask
        for (k, v), (k0, v0) in zip(selected.cross, cache.cross):
            assert k is k0 and v is v0
        assert selected.record.tolist() == record
    # each row decodes as its record would on its own
    logits = decode_step(params, config, dropped, [7, 5])
    for row, (record, token) in enumerate(zip([1, 2], [7, 5])):
        alone = start_decoding(params, config, *encode(params, config, [sources[record]]))
        decode_step(params, config, alone, [BOS_ID])
        np.testing.assert_allclose(logits[row], decode_step(params, config, alone, [token])[0], rtol=0, atol=1e-12)


def test_decoders_never_copy_cross_keys_and_values(monkeypatch):
    # every select during a real decode keeps the very same cross arrays and
    # composes the row -> record index with the rows it picks, or keeps
    # every row in order and is the cache itself
    seen = []
    select = DecoderCache.select

    def checked_select(self, rows):
        out = select(self, rows)
        if out is self:
            assert np.asarray(rows).tolist() == list(range(len(self.key_ok)))
            return out
        assert out.src_mask is self.src_mask
        assert all(k is k0 and v is v0 for (k, v), (k0, v0) in zip(out.cross, self.cross))
        before = np.arange(len(self.key_ok)) if self.record is None else self.record
        assert out.record.tolist() == before[np.asarray(rows)].tolist()
        assert out.record.max() < len(self.src_mask)
        seen.append(len(rows))
        return out

    monkeypatch.setattr(DecoderCache, "select", checked_select)
    params, config = random_setup(152)
    params["out.b"][EOS_ID] = 2.0
    sources = mixed_sources(152, 11)
    got = beam_decode_batch(params, config, sources, beam_size=3)
    assert got == [reference_beam(params, config, src, 3) for src in sources]
    assert seen  # rows were dropped or regrouped at least once


def test_select_of_every_row_in_order_is_the_cache_itself():
    # greedy keeps every row in order at each step where no record ends: that
    # select copies no self-attention keys and keeps the row -> record index
    params, config = random_setup(153)
    cache = start_decoding(params, config, *encode(params, config, [[5, 6, 7], [4, 9, 3]]))
    decode_step(params, config, cache, [BOS_ID] * 2)
    keys, values, key_ok, record = cache.keys, cache.values, cache.key_ok, cache.record
    assert cache.select(range(2)) is cache
    assert cache.keys is keys and cache.values is values and cache.key_ok is key_ok and cache.record is record
    regrouped = cache.select([1, 0])
    assert regrouped.select([0, 1]) is regrouped
    assert regrouped.record.tolist() == [1, 0]
    assert cache.select([0]) is not cache  # a subset is a new cache


# --- chunks encoded in slices, one cache alive at a time ----------------------------


def test_encode_of_a_padded_batch_equals_its_slices_bit_for_bit():
    config = ModelConfig(src_vocab_size=11, tgt_vocab_size=9, dropout=0.0)  # the reference shape
    params = init_parameters(config, np.random.default_rng(160))
    sources = sorted(mixed_sources(160, 3 * decoding.ENCODE_ROWS + 5), key=len)
    src = np.full((len(sources), max(map(len, sources))), PAD_ID)
    for row, s in enumerate(sources):
        src[row, : len(s)] = s
    memory, src_mask = encode(params, config, src)
    sliced_memory, sliced_mask = decoding._encode_in_slices(params, config, src)
    assert np.array_equal(sliced_memory, memory) and np.array_equal(sliced_mask, src_mask)


def test_greedy_memory_peak_does_not_grow_with_chunks():
    # every record decodes to the step limit, so each chunk's cache reaches
    # its full size; a cache kept alive while the next chunk is encoded
    # raises the peak by about 1.8x at this shape
    params, config = random_setup(161)
    params["out.b"][EOS_ID] = -1e3
    rng = np.random.default_rng(161)
    sources = [rng.integers(3, 11, size=30) for _ in range(3 * CHUNK_ROWS)]

    def peak(batch):
        tracemalloc.start()
        beam_decode_batch(params, config, batch, beam_size=1)
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    beam_decode_batch(params, config, sources[:1], beam_size=1)  # builds the cached position table
    one_chunk = peak(sources[:CHUNK_ROWS])
    assert peak(sources) <= 1.1 * one_chunk
