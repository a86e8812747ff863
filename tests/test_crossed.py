import random

import pytest

from sforge import (
    Context,
    CrossedModuleAction,
    IndexClash,
    Word,
    ad_commutator_path,
    crossed_module_verify,
    express_as_commutators,
    gen,
    random_word,
    sample_gl,
    st_eval,
)


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
