import json
import random

import pytest

from sforge import (
    GF,
    Context,
    CrossedModuleAction,
    IdempotentFamily,
    IndexClash,
    MatrixAlgebra,
    NotUnipotentSupport,
    Word,
    Zmod,
    ad_commutator_path,
    crossed_module_verify,
    express_as_commutators,
    gen,
    random_word,
    sample_gl,
    st_eval,
    u_normal_form,
)
from sforge import crossed as crossed_module
from sforge.cli import main
from sforge.words import support_sign


def _conj(alg, g, m):
    return alg.mul(g, alg.mul(m, alg.inv(g)))


def test_action_matches_matrix_conjugation(m3z4, rng):
    alg = m3z4.algebra
    action = CrossedModuleAction(m3z4)
    ctx = action.context
    for _ in range(80):
        g = sample_gl(alg, rng)
        w = random_word(ctx, rng, rng.randrange(4))
        assert st_eval(action.apply(g, w)) == _conj(alg, g, st_eval(w))


def test_lift_cache_is_deterministic(m3z4, rng):
    alg = m3z4.algebra
    action = CrossedModuleAction(m3z4)
    g = sample_gl(alg, rng)
    w1, d1 = action.lift(g)
    w2, d2 = action.lift(g)
    assert w1 is w2 and d1 is d2
    fresh = CrossedModuleAction(m3z4)
    w3, d3 = fresh.lift(g)
    assert w1 == w3 and d1 == d3


@pytest.mark.parametrize("drop_diagonal", [False, True])
def test_lift_words_are_inverted_once(m3z4, rng, monkeypatch, drop_diagonal):
    """apply inverts w_g when it caches the lift, never again; the
    commutator path is Ad_g of each letter of the expansion, concatenated,
    and inverts no word, yet each commutator's second half is letter for
    letter the inverse of its first."""
    alg = m3z4.algebra
    action = CrossedModuleAction(m3z4, drop_diagonal=drop_diagonal)
    ctx = action.context
    inverted = []
    original = Word.inverse

    def counted(self):
        inverted.append(len(self))
        return original(self)

    gs = [sample_gl(alg, rng) for _ in range(6)]
    for g in gs:
        action.lift(g)
    monkeypatch.setattr(Word, "inverse", counted)
    for _ in range(40):
        g = rng.choice(gs)
        w = random_word(ctx, rng, rng.randrange(4))
        action.apply(g, w)
        i, k = rng.sample(list(m3z4.labels()), 2)
        c = m3z4.sample_component(i, k, rng)
        path = ad_commutator_path(action, g, i, k, c)
        images = [
            action.apply(g, Word(ctx, (L,)))
            for L in express_as_commutators(ctx, i, k, c).letters
        ]
        assert path.letters == tuple(L for y in images for L in y.letters)
        for p in range(0, len(images), 4):
            assert images[p + 2].letters == original(images[p]).letters
            assert images[p + 3].letters == original(images[p + 1]).letters
        assert not inverted


def test_y_lift_agrees_across_base_points(m3z4, rng):
    alg = m3z4.algebra
    action = CrossedModuleAction(m3z4)
    for _ in range(60):
        g = sample_gl(alg, rng)
        i, j = rng.sample(list(m3z4.labels()), 2)
        a = m3z4.sample_component(i, j, rng)
        plain = action.apply(g, gen(action.context, i, j, a))
        alt = action.apply(g, express_as_commutators(action.context, i, j, a))
        want = _conj(alg, g, alg.add(alg.one, m3z4.to_matrix(a, i, j)))
        assert st_eval(plain) == want
        assert st_eval(alt) == want


def test_commutator_path_is_aux_independent(m4f3, rng):
    alg = m4f3.algebra
    action = CrossedModuleAction(m4f3)
    for _ in range(25):
        g = sample_gl(alg, rng)
        i, k = rng.sample(list(m4f3.labels()), 2)
        c = m4f3.sample_component(i, k, rng)
        direct = action.apply(g, gen(action.context, i, k, c))
        want = st_eval(direct)
        for j in m4f3.labels():
            if j in (i, k):
                continue
            path = ad_commutator_path(action, g, i, k, c, j=j)
            assert st_eval(path) == want
        with pytest.raises(IndexClash):
            ad_commutator_path(action, g, i, k, c, j=i)


def test_verify_clean_m3z4(m3z4, rng):
    report = crossed_module_verify(m3z4, rng, samples=60)
    assert report["verdict"] == "pass"
    assert report["violations"] == 0
    axioms = report["axioms"]
    assert set(axioms) == {
        "cm1_equivariance",
        "cm2_inner_st",
        "cm2_inner_word",
        "cm3_product",
        "cm4_cross_path",
        "cm5_normality",
    }
    for tally in axioms.values():
        assert tally["violations"] == 0
        assert tally["checked"] > 0
    assert axioms["cm2_inner_word"]["oracle"] == "normal-form"


def test_verify_clean_m4f3(m4f3, rng):
    report = crossed_module_verify(m4f3, rng, samples=60)
    assert report["verdict"] == "pass"
    assert report["violations"] == 0


def test_verify_flags_dropped_diagonal(m3z4, rng):
    report = crossed_module_verify(m3z4, rng, samples=40, fault="drop-diagonal")
    assert report["verdict"] == "fail"
    assert report["violations"] > 0
    axioms = report["axioms"]
    flagged = axioms["cm1_equivariance"]["violations"] + axioms["cm2_inner_st"]["violations"]
    assert flagged > 0
    assert "witness" in axioms["cm1_equivariance"] or "witness" in axioms["cm2_inner_st"]


def _normal_forms_equal(x, y):
    """The normal-form oracle: a word off both triangles has none, and
    counts as unequal to every word."""
    try:
        return u_normal_form(x) == u_normal_form(y)
    except NotUnipotentSupport:
        return False


@pytest.mark.parametrize("base", [Zmod(4), GF(2, [1, 1, 1])], ids=["Z4", "GF4"])
def test_one_triangle_st_comparison_is_the_normal_form_oracle(base):
    """cm2_inner_word's decision, both words in one triangle and their st
    images equal, is normal-form equality, on pairs of words in U+, U-
    and off both, including shuffles, normal forms and words padded by
    a relator of the other triangle, over M(3, Z/4) and M(3, GF(4))."""
    fam = IdempotentFamily.matrix_units(MatrixAlgebra(base, 3))
    ctx = Context(fam)
    rng = random.Random(repr(base.to_json()))
    seen = set()
    for _ in range(400):
        x = random_word(ctx, rng, rng.randrange(5), sign=rng.choice((1, -1, None)))
        shuffled = list(x.letters)
        rng.shuffle(shuffled)
        a = fam.sample_component(2, 1, rng)
        pad = gen(ctx, 2, 1, a) * gen(ctx, 2, 1, a, e=-1)
        y = rng.choice((
            random_word(ctx, rng, rng.randrange(5), sign=rng.choice((1, -1, None))),
            Word(ctx, tuple(shuffled)),
            Word(ctx),
            x * pad,
            u_normal_form(x) if support_sign(x) is not None else x.inverse(),
        ))
        for p, q in ((x, y), (y, x)):
            decided = support_sign(p) is not None and support_sign(q) is not None and st_eval(p) == st_eval(q)
            oracle = _normal_forms_equal(p, q)
            assert decided == oracle, (p, q)
            seen.add((oracle, support_sign(p) is None or support_sign(q) is None))
    assert seen == {(True, False), (False, False), (False, True)}


def test_lift_leaving_its_triangle_is_a_counted_violation(tmp_path, capsys, monkeypatch):
    """A lift word padded by h_12(-1)^2, which st sends to 1, leaves
    every triangle: Ad_{st(h)}(w) no longer lies in U+, so cm2_inner_word
    counts a violation, with a witness, on every sample, the st-graded
    axioms all hold, and the run prints its report rather than stopping
    with an error.
    Here h_12(-1) = w_12(-1) w_12(-1), w_12(u) = x_12(u) x_21(-u^-1) x_12(u)."""
    lift_to_st = crossed_module.lift_to_st

    def padded(fam, g):
        w, d = lift_to_st(fam, g)
        ctx = w.context
        minus_one, one = (fam.algebra.base.element(-1),), (fam.algebra.base.one,)
        w12 = gen(ctx, 1, 2, minus_one) * gen(ctx, 2, 1, one) * gen(ctx, 1, 2, minus_one)
        h12 = w12 * w12
        return w * h12 * h12, d

    monkeypatch.setattr(crossed_module, "lift_to_st", padded)
    ring = {"kind": "Mat", "size": 4, "base": {"kind": "Zmod", "m": 4}}
    cfg = tmp_path / "cm.json"
    cfg.write_text(json.dumps({"ring": ring, "family": "units", "samples": 20}), encoding="utf-8")
    code = main(["crossed-module", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 1
    assert "error:" not in err
    report = json.loads(out)
    assert report["verdict"] == "fail"
    axioms = report["suites"]["axioms"]
    assert axioms["cm2_inner_word"]["checked"] == axioms["cm2_inner_word"]["violations"] == 20
    assert "witness" in axioms["cm2_inner_word"]
    assert all(t["violations"] == 0 for name, t in axioms.items() if name != "cm2_inner_word")
    assert report["violations"] == 20
