"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

These are the binding end-to-end checks for the toolkit: gradient
correctness, attention invariants, decoder causality, small-scale training
runs, exact equation evaluation, BLEU behavior, determinism, and Bengali
text handling. Thresholds and runtime budgets are asserted, not advisory.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from bleu_oracle import CASES
from test_attention import attend
from test_equation import oracle_eval, random_expr
from test_metrics import oracle

from mwp import dataset as ds
from mwp.cli import main
from mwp.equation import DivisionByZero, Equation, evaluate, parse_equation, to_canonical_string
from mwp.metrics import CORRECT, WRONG, corpus_bleu, evaluate_corpus, sentence_bleu
from mwp.model.config import ModelConfig, TrainConfig
from mwp.model.decoding import beam_decode_batch
from mwp.model.network import backward, cross_entropy_loss, forward, init_parameters
from mwp.model.training import prepare_pairs, train
from mwp.preprocess import DANDA, build_vocab, normalize_digits, tokenize
from mwp.synth import generate_synthetic


def check(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# 1. Analytic gradients against central finite differences on a tiny model.


def test_c01_gradients_match_finite_differences():
    start = time.monotonic()
    config = ModelConfig(src_vocab_size=12, tgt_vocab_size=12, d_model=8, n_heads=2,
                         d_ff=16, n_encoder_layers=1, n_decoder_layers=1,
                         dropout=0.0, max_len=6)
    params = init_parameters(config, np.random.default_rng(0))
    src = np.array([[4, 5, 6, 7, 11, 0], [8, 9, 10, 0, 0, 0]])
    tgt_in = np.array([[1, 6, 7, 8, 4, 5], [1, 9, 10, 0, 0, 0]])
    tgt_out = np.array([[6, 7, 8, 4, 5, 2], [9, 10, 2, 0, 0, 0]])

    _, grads = backward(params, config, src, tgt_in, tgt_out)
    eps = 1e-5
    sample = np.random.default_rng(1)
    worst = 0.0
    for key in sorted(params):
        flat = params[key].reshape(-1)
        for i in sample.choice(flat.size, size=min(4, flat.size), replace=False):
            saved = flat[i]
            flat[i] = saved + eps
            up = cross_entropy_loss(forward(params, config, src, tgt_in), tgt_out)
            flat[i] = saved - eps
            down = cross_entropy_loss(forward(params, config, src, tgt_in), tgt_out)
            flat[i] = saved
            fd = (up - down) / (2 * eps)
            analytic = grads[key].reshape(-1)[i]
            worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8))
    elapsed = time.monotonic() - start
    check("gradient check", worst <= 1e-3 and elapsed < 60,
          f"max rel err {worst:.2e} (tol 1e-3), {elapsed:.1f}s (< 60s)")


# 2. Attention invariants on 1,000 random (Q, K, V, mask) instances.


def test_c02_attention_invariants():
    rng = np.random.default_rng(2)
    worst_sum, worst_masked, worst_uniform = 0.0, 0.0, 0.0
    single_exact = True
    for _ in range(1000):
        tq, tk = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        dk, dv = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        q = rng.normal(size=(tq, dk))
        k = rng.normal(size=(tk, dk))
        v = rng.normal(size=(tk, dv))
        mask = rng.random(size=(tq, tk)) < 0.7
        w, _ = attend(q, k, v, mask)
        live = mask.any(axis=-1)
        if live.any():
            worst_sum = max(worst_sum, float(np.abs(w.sum(-1)[live] - 1.0).max()))
        if (~mask).any():
            worst_masked = max(worst_masked, float(w[~mask].max()))

        one_k = rng.normal(size=(1, dk))
        one_v = rng.normal(size=(1, dv))
        _, out = attend(q, one_k, one_v)
        single_exact = single_exact and np.array_equal(out, np.repeat(one_v, tq, axis=0))

        _, uniform = attend(np.zeros((tq, dk)), k, v)
        worst_uniform = max(worst_uniform, float(np.abs(uniform - v.mean(axis=0)).max()))
    ok = worst_sum <= 1e-9 and worst_masked <= 1e-12 and single_exact and worst_uniform <= 1e-12
    check("attention invariants", ok,
          f"1000 instances: row-sum err {worst_sum:.1e} (tol 1e-9), "
          f"masked weight {worst_masked:.1e} (tol 1e-12), single-key exact {single_exact}, "
          f"uniform-score err {worst_uniform:.1e} (tol 1e-12)")


# 3. Decoder causality: future target tokens never touch earlier logits.


def test_c03_causality_exact():
    config = ModelConfig(src_vocab_size=15, tgt_vocab_size=15, d_model=16, n_heads=2,
                         d_ff=32, n_encoder_layers=1, n_decoder_layers=1,
                         dropout=0.0, max_len=8)
    params = init_parameters(config, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    checked, exact = 0, True
    for _ in range(100):
        src = rng.integers(4, 15, size=(1, int(rng.integers(1, 7))))
        tgt = rng.integers(4, 15, size=(1, int(rng.integers(2, 7))))
        base = forward(params, config, src, tgt)
        for t in range(tgt.shape[1] - 1):
            perturbed = tgt.copy()
            perturbed[0, t + 1:] = rng.integers(4, 15, size=tgt.shape[1] - t - 1)
            logits = forward(params, config, src, perturbed)
            exact = exact and np.array_equal(logits[0, : t + 1], base[0, : t + 1])
            checked += 1
    check("causality", exact, f"100 inputs, {checked} future perturbations, exact equality {exact}")


# 4. Overfit: 64 records, reference configuration, >= 95% exact match.


@pytest.mark.slow
def test_c04_overfit_64_records():
    start = time.monotonic()
    records = generate_synthetic(64, seed=0)
    src_vocab = build_vocab(tokenize(r.problem_text) for r in records)
    tgt_vocab = build_vocab(tokenize(r.equation_text) for r in records)
    pairs = prepare_pairs(records, src_vocab, tgt_vocab)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab))
    params = init_parameters(config, np.random.default_rng(0))
    epochs = 100  # within the 300-epoch budget
    params = train(params, config, TrainConfig(batch_size=8, epochs=epochs, seed=0), pairs)
    decoded = beam_decode_batch(params, config, [src for src, _ in pairs], beam_size=1)
    hits = sum(got == tgt[1:-1] for got, (_, tgt) in zip(decoded, pairs))
    elapsed = time.monotonic() - start
    check("overfit", hits >= 0.95 * len(pairs) and elapsed < 300,
          f"{hits}/{len(pairs)} exact-match after {epochs} epochs (need >= 61), "
          f"{elapsed:.0f}s (< 300s)")


# 5. End-to-end generalization through the command-line pipeline.


@pytest.mark.slow
def test_c05_end_to_end_generalization(tmp_path):
    start = time.monotonic()
    data = tmp_path / "data.jsonl"
    assert main(["datagen", "--n", "1000", "--seed", "11", "--out", str(data)]) == 0
    assert main(["split", "--in", str(data), "--out", str(tmp_path / "parts"), "--seed", "11"]) == 0
    sizes = {
        name: len(ds.load_dataset(tmp_path / "parts" / f"{name}.jsonl"))
        for name in ("train", "validation", "test")
    }
    assert sizes == {"train": 800, "validation": 100, "test": 100}

    config = tmp_path / "run.cfg"
    config.write_text(
        "\n".join(
            [
                f"data.train = {tmp_path / 'parts' / 'train.jsonl'}",
                f"data.validation = {tmp_path / 'parts' / 'validation.jsonl'}",
                f"data.test = {tmp_path / 'parts' / 'test.jsonl'}",
                f"paths.vocab_dir = {tmp_path / 'vocab'}",
                f"paths.grid_report = {tmp_path / 'grid.json'}",
                "grid.batch_sizes = 8",
                "grid.epochs = 5,15",
            ]
        ),
        encoding="utf-8",
    )
    assert main(["grid", "--config", str(config)]) == 0
    rows = json.loads((tmp_path / "grid.json").read_text(encoding="utf-8"))["rows"]
    assert [(r["batch_size"], r["epochs"]) for r in rows] == [(8, 5), (8, 15)]
    acc5, acc15 = rows[0]["accuracy"], rows[1]["accuracy"]
    elapsed = time.monotonic() - start
    check("end-to-end generalization", acc15 >= 0.90 and acc15 >= acc5 and elapsed < 1800,
          f"batch 8: accuracy {acc15:.3f} at 15 epochs (need >= 0.90), "
          f"{acc5:.3f} at 5 epochs (monotone), {elapsed:.0f}s (< 1800s)")


# 6. Exact evaluation and canonicalization on 10,000 random expressions.


def test_c06_equation_oracle_equivalence():
    rng = random.Random(20240815)
    values_checked, zero_cases, identity_ok, value_ok = 0, 0, True, True
    for _ in range(10000):
        expr = random_expr(rng, depth=4)
        equation = Equation("x", expr)
        identity_ok = identity_ok and parse_equation(to_canonical_string(equation)) == equation
        try:
            expected = oracle_eval(expr)
        except ZeroDivisionError:
            zero_cases += 1
            with pytest.raises(DivisionByZero):
                evaluate(expr)
            continue
        value_ok = value_ok and evaluate(expr) == expected
        values_checked += 1
    check("equation oracle equivalence", value_ok and identity_ok and values_checked >= 8000,
          f"{values_checked} exact values, {zero_cases} agreed division-by-zero cases, "
          f"parse(canonical) identity on all 10000")


# 7. BLEU against an independent oracle plus the two boundary cases.


def test_c07_bleu_matches_oracle():
    worst = 0.0
    for candidate, reference in CASES:
        got = sentence_bleu(candidate.split(), reference.split())
        want = oracle.sentence_bleu(candidate.split(), reference.split())
        worst = max(worst, abs(got - want))
    same = "x = 7 - 3".split()
    identical = corpus_bleu([(same, same)])
    disjoint_sentence = sentence_bleu("y + 1 2".split(), same)
    disjoint_corpus = corpus_bleu([("y + 1 2".split(), same)])
    ok = (len(CASES) >= 20 and worst <= 1e-9 and identical == 100.0
          and disjoint_sentence == 0.0 and disjoint_corpus == 0.0)
    check("bleu", ok,
          f"{len(CASES)} oracle cases, max abs err {worst:.1e} (tol 1e-9), "
          f"identical -> {identical}, disjoint -> {disjoint_sentence}")


# 8. Reordered terms can out-score a value-correct prediction on BLEU.


def test_c08_bleu_accuracy_divergence():
    reference = "x = 7 - 3"
    reordered_wrong = "x = 3 - 7"   # same tokens, wrong value (-4)
    different_right = "x = 5 - 1"   # different surface, right value (4)
    bleu_wrong = sentence_bleu(reordered_wrong.split(), reference.split())
    bleu_right = sentence_bleu(different_right.split(), reference.split())
    records = [ds.MwpRecord(str(i), f"problem {i}", reference) for i in range(2)]
    report = evaluate_corpus([reordered_wrong, different_right], records)
    verdicts = [r["verdict"] for r in report["per_record"]]
    ok = bleu_wrong > bleu_right and verdicts == [WRONG, CORRECT]
    check("bleu/accuracy divergence", ok,
          f"value-wrong bleu {bleu_wrong:.4f} > value-correct bleu {bleu_right:.4f}, "
          f"verdicts ({verdicts[0]}, {verdicts[1]})")


# 9. Bit-level determinism of training and splitting.


def test_c09_determinism(tmp_path):
    data = tmp_path / "data.jsonl"
    assert main(["datagen", "--n", "24", "--seed", "6", "--out", str(data)]) == 0
    for out in ("p1", "p2"):
        assert main(["split", "--in", str(data), "--out", str(tmp_path / out), "--seed", "7"]) == 0
    splits_identical = all(
        (tmp_path / "p1" / f"{name}.jsonl").read_bytes()
        == (tmp_path / "p2" / f"{name}.jsonl").read_bytes()
        for name in ("train", "validation", "test")
    )

    config = tmp_path / "run.cfg"
    config.write_text(
        "\n".join(
            [
                f"data.train = {tmp_path / 'p1' / 'train.jsonl'}",
                f"data.validation = {tmp_path / 'p1' / 'validation.jsonl'}",
                f"data.test = {tmp_path / 'p1' / 'test.jsonl'}",
                f"paths.vocab_dir = {tmp_path / 'vocab'}",
                f"paths.checkpoint = {tmp_path / 'model.ckpt'}",
                f"paths.history = {tmp_path / 'history.txt'}",
                "model.d_model = 16",
                "model.n_heads = 2",
                "model.d_ff = 32",
                "model.n_encoder_layers = 1",
                "model.n_decoder_layers = 1",
                "train.batch_size = 4",
                "train.epochs = 2",
            ]
        ),
        encoding="utf-8",
    )
    assert main(["train", "--config", str(config), "--seed", "5"]) == 0
    first = (tmp_path / "model.ckpt").read_bytes()
    assert main(["train", "--config", str(config), "--seed", "5"]) == 0
    second = (tmp_path / "model.ckpt").read_bytes()
    ok = splits_identical and first == second
    check("determinism", ok,
          f"split byte-identical {splits_identical}, "
          f"checkpoint byte-identical {first == second} ({len(first)} bytes)")


# 10. Digit normalization round-trips; the danda tokenizes on its own.


def test_c10_digits_and_danda():
    rng = random.Random(10)
    pool = "০১২৩৪৫৬৭৮৯0123456789 আমকলাবইছিলএখনমোট।?,.+-*/=()abcxyz"
    digits_ok = True
    for _ in range(1000):
        s = "".join(rng.choice(pool) for _ in range(rng.randint(0, 40)))
        ascii_form = normalize_digits(s, "bengali_to_ascii")
        bengali_form = normalize_digits(s, "ascii_to_bengali")
        digits_ok = digits_ok and (
            normalize_digits(bengali_form, "bengali_to_ascii") == ascii_form
            and normalize_digits(ascii_form, "ascii_to_bengali") == bengali_form
            and normalize_digits(ascii_form, "bengali_to_ascii") == ascii_form
            and normalize_digits(
                normalize_digits(bengali_form, "bengali_to_ascii"), "ascii_to_bengali"
            ) == bengali_form
        )

    # 25 two-statement problems = a 50-sentence danda fixture
    records = generate_synthetic(25, seed=3)
    danda_tokens, danda_ok = 0, True
    for record in records:
        tokens = tokenize(record.problem_text)
        danda_tokens += tokens.count(DANDA)
        danda_ok = danda_ok and all(DANDA not in tok for tok in tokens if tok != DANDA)
    ok = digits_ok and danda_ok and danda_tokens == 50
    check("digits and danda", ok,
          f"1000 round-trips ok {digits_ok}, {danda_tokens}/50 danda sentences split cleanly")
