"""End-to-end acceptance gates: pinned sample counts, exhaustive
enumerations where feasible, and wall-clock budgets.  Each test prints
one PASS/FAIL line for its criterion."""

import itertools
import json
import os
import random
import time

from sforge import (
    Context,
    DiagonalElement,
    HomotopeTower,
    IdempotentFamily,
    MatrixAlgebra,
    Zmod,
    crossed_module_verify,
    enumerate_gl,
    exhaustive_relation_grid,
    express_as_commutators,
    f_alpha,
    g_alpha,
    gauss_decompose,
    presentation_relation_check,
    random_word,
    reduce_word,
    sample_gl,
    sample_relations,
    scaled_operator_suite,
    st_eval,
    tower_relation_suite,
)
from sforge.cli import main as cli_main

RELATION_SAMPLES = 1000
RELATION_BUDGET_S = 30.0
GAUSS_RANDOM_SAMPLES = 1000
GAUSS_BUDGET_S = 60.0
PRESENTATION_SAMPLES = 10_000
MERGE_WORD_SAMPLES = 500
CROSSED_TRIPLES = 200
CROSSED_BUDGET_S = 120.0
TOWER_SAMPLES_PER_LEVEL = 500
OPERATOR_EXTRA_MAX = 2


def _verdict(num, label, ok, detail):
    line = "%s criterion %d (%s): %s" % ("PASS" if ok else "FAIL", num, label, detail)
    print(line)
    assert ok, line


def _matrix_units(base_mod, n):
    return IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(base_mod), n))


def test_criterion_1_relation_suite():
    started = time.perf_counter()
    rng = random.Random(101)
    sampled = exhausted = bad = 0
    for n in (3, 4, 5):
        for m in (2, 3, 4):
            fam = _matrix_units(m, n)
            ctx = Context(fam)
            kinds = ("St1", "St2", "St3")
            for res in sample_relations(ctx, rng, kinds, RELATION_SAMPLES).values():
                sampled += res["checked"]
                bad += res["violations"]
            for kind in kinds:
                grid = exhaustive_relation_grid(ctx, kind, cap=256)
                exhausted += grid["checked"]
                bad += grid["violations"]
                assert grid["tuples_skipped"] == 0
    elapsed = time.perf_counter() - started
    ok = bad == 0 and sampled == 27 * RELATION_SAMPLES and elapsed < RELATION_BUDGET_S
    _verdict(
        1,
        "relation suite",
        ok,
        "%d sampled + %d exhaustive checks, %d violations, %.1fs < %.0fs"
        % (sampled, exhausted, bad, elapsed, RELATION_BUDGET_S),
    )


def _two_sided_unit_count(alg):
    els = list(alg.elements())
    return sum(
        1
        for m in els
        if any(alg.mul(m, v) == alg.one and alg.mul(v, m) == alg.one for v in els)
    )


def _f2_full_rank_count(n):
    count = 0
    for rows in itertools.product(range(1 << n), repeat=n):
        rows = list(rows)
        rank = 0
        for c in range(n):
            bit = 1 << c
            pivot = next((r for r in range(rank, n) if rows[r] & bit), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for r in range(n):
                if r != rank and rows[r] & bit:
                    rows[r] ^= rows[rank]
            rank += 1
        count += rank == n
    return count


def test_criterion_2_gauss_decomposition():
    started = time.perf_counter()
    frozen = {(2, 2): 6, (2, 4): 96, (3, 2): 168}
    checked = bad = 0
    for (n, m), order in frozen.items():
        fam = _matrix_units(m, n)
        alg = fam.algebra
        oracle = _f2_full_rank_count(n) if (n, m) == (3, 2) else _two_sided_unit_count(alg)
        assert oracle == order, "independent unit count disagrees"
        seen = 0
        for g in enumerate_gl(alg):
            fac = gauss_decompose(fam, g)
            prod = alg.mul(st_eval(fac.word()), fac.d.embed())
            checked += 1
            bad += prod != g
            seen += 1
        assert seen == order, "enumerated group order disagrees"
    fam = _matrix_units(3, 4)
    alg = fam.algebra
    rng = random.Random(202)
    for _ in range(GAUSS_RANDOM_SAMPLES):
        g = sample_gl(alg, rng)
        fac = gauss_decompose(fam, g)
        checked += 1
        bad += alg.mul(st_eval(fac.word()), fac.d.embed()) != g
    elapsed = time.perf_counter() - started
    ok = bad == 0 and elapsed < GAUSS_BUDGET_S
    _verdict(
        2,
        "Gauss decomposition",
        ok,
        "orders 6/96/168 verified, %d reconstructions, %d violations, %.1fs < %.0fs"
        % (checked, bad, elapsed, GAUSS_BUDGET_S),
    )


def test_criterion_3_two_block_presentation():
    rng = random.Random(303)
    rep_f2 = presentation_relation_check(_matrix_units(2, 2), 1)
    rep_z4 = presentation_relation_check(
        _matrix_units(4, 2),
        1,
        rng=rng,
        samples=PRESENTATION_SAMPLES,
        word_samples=PRESENTATION_SAMPLES,
    )
    ok = (
        rep_f2["checked"] == 6
        and rep_f2["violation_count"] == 0
        and rep_f2["max_pairs"] <= 3
        and rep_z4["checked"] + rep_z4["singular_skipped"] == PRESENTATION_SAMPLES
        and rep_z4["violation_count"] == 0
        and rep_z4["max_pairs"] <= 3
        and rep_z4["diagonal_words"] > 0
    )
    _verdict(
        3,
        "three-pair presentation",
        ok,
        "exhaustive 6 units + %d samples (%d units), %d diagonal words re-decomposed, max %d pairs"
        % (
            PRESENTATION_SAMPLES,
            rep_z4["checked"],
            rep_z4["diagonal_words"],
            max(rep_f2["max_pairs"], rep_z4["max_pairs"]),
        ),
    )


def test_criterion_4_split_merge_maps():
    rng = random.Random(404)
    checked = bad = 0
    for m in (2, 3):
        fam = _matrix_units(m, 4)
        coarse, ref = fam.merge(3, 4)
        ctx_coarse = Context(coarse)
        ctx_fine = Context(fam)
        for _ in range(MERGE_WORD_SAMPLES):
            w = random_word(ctx_coarse, rng, rng.randrange(1, 5))
            back = g_alpha(f_alpha(w, ref), ref)
            checked += 1
            bad += reduce_word(back) != reduce_word(w)
        for _ in range(MERGE_WORD_SAMPLES):
            w = random_word(ctx_fine, rng, rng.randrange(1, 5))
            round_trip = f_alpha(g_alpha(w, ref), ref)
            checked += 1
            bad += st_eval(round_trip) != st_eval(w)
    ok = bad == 0 and checked == 4 * MERGE_WORD_SAMPLES
    _verdict(
        4,
        "split/merge word maps",
        ok,
        "%d word identities + st agreements over two base rings, %d violations"
        % (checked, bad),
    )


def test_criterion_5_crossed_module_suite():
    started = time.perf_counter()
    details = []
    bad = 0
    for m, n in ((4, 3), (3, 4)):
        fam = _matrix_units(m, n)
        report = crossed_module_verify(fam, random.Random(505), samples=CROSSED_TRIPLES)
        bad += report["violations"]
        for name, tally in report["axioms"].items():
            assert tally["checked"] > 0, name
        details.append("M(%d,Z/%d): %s" % (n, m, report["verdict"]))
    elapsed = time.perf_counter() - started
    ok = bad == 0 and elapsed < CROSSED_BUDGET_S
    _verdict(
        5,
        "crossed module axioms",
        ok,
        "%s, %d triples each, %d violations, %.1fs < %.0fs"
        % ("; ".join(details), CROSSED_TRIPLES, bad, elapsed, CROSSED_BUDGET_S),
    )


def test_criterion_6_homotope_tower():
    alg = MatrixAlgebra(Zmod(12), 4)
    fam = IdempotentFamily.matrix_units(alg)
    tower = HomotopeTower(fam, 2, k_max=4)
    rng = random.Random(606)
    rel = tower_relation_suite(tower, rng, samples_per_level=TOWER_SAMPLES_PER_LEVEL)
    ops = scaled_operator_suite(tower, rng, max_extra=OPERATOR_EXTRA_MAX)
    level_ok = rel["status"] == "checked" and rel["violations"] == 0
    for level in rel["levels"].values():
        for kind in ("St1", "St2", "St3"):
            level_ok = level_ok and level[kind]["checked"] == TOWER_SAMPLES_PER_LEVEL
        level_ok = level_ok and level["equivariance"]["checked"] > 0
        level_ok = level_ok and all(slot["violations"] == 0 for slot in level.values())
    ops_ok = (
        ops["violations"] == 0
        and ops["pairs_checked"] == 36
        and ops["extra_exponent_max"] <= OPERATOR_EXTRA_MAX
        and ops["identities"]["violations"] == 0
    )
    ok = level_ok and ops_ok
    _verdict(
        6,
        "homotope tower",
        ok,
        "5 levels x %d scaled relations, equivariance per level, "
        "36 operator pairs equivalent within extra exponent %d"
        % (TOWER_SAMPLES_PER_LEVEL, ops["extra_exponent_max"]),
    )


def test_criterion_7_perfectness_witnesses():
    fam = _matrix_units(2, 4)
    ctx = Context(fam)
    alg = fam.algebra
    checked = bad = 0
    for i in fam.labels():
        for k in fam.labels():
            if i == k:
                continue
            for c in fam.component_elements(i, k):
                for j in fam.labels():
                    if j in (i, k):
                        continue
                    w = express_as_commutators(ctx, i, k, c, j=j)
                    checked += 1
                    bad += st_eval(w) != alg.add(alg.one, fam.to_matrix(c, i, k))
    ok = bad == 0 and checked == 12 * 2 * 2
    _verdict(
        7,
        "perfectness witnesses",
        ok,
        "%d exhaustive payload/auxiliary combinations, %d violations" % (checked, bad),
    )


def test_criterion_8_deterministic_reports(tmp_path, capsys):
    config = {
        "ring": {"kind": "Mat", "size": 4, "base": {"kind": "Zmod", "m": 12}},
        "scale": 2,
        "system": "homotope",
        "k_max": 3,
        "samples": 80,
        "seed": 11,
    }
    cfg_path = tmp_path / "tower.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    outs = []
    payloads = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code = cli_main(
            ["tower", "--config", str(cfg_path), "--out", str(out_dir)]
        )
        assert code == 0
        outs.append(capsys.readouterr().out)
        (run_dir,) = os.listdir(out_dir)
        with open(os.path.join(out_dir, run_dir, "report.json"), "rb") as fh:
            payloads.append(fh.read())
    ok = outs[0] == outs[1] and payloads[0] == payloads[1] and len(payloads[0]) > 0
    _verdict(
        8,
        "byte-identical reports",
        ok,
        "two runs, %d report bytes, stdout and file copies agree" % len(payloads[0]),
    )
