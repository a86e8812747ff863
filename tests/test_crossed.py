import random

import pytest

from sforge import (
    Context,
    CrossedModuleAction,
    IndexClash,
    ad_commutator_path,
    crossed_module_verify,
    gen,
    random_word,
    sample_gl,
    st_eval,
    y_commutator,
    y_lift,
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


def test_y_lift_agrees_across_base_points(m3z4, rng):
    alg = m3z4.algebra
    action = CrossedModuleAction(m3z4)
    for _ in range(60):
        g = sample_gl(alg, rng)
        i, j = rng.sample(list(m3z4.labels()), 2)
        a = m3z4.sample_component(i, j, rng)
        plain = y_lift(action, g, i, j, a)
        alt = y_lift(action, g, i, j, a, via_commutators=True)
        want = _conj(alg, g, alg.add(alg.one, m3z4.to_matrix(a, i, j)))
        assert st_eval(plain) == want
        assert st_eval(alt) == want


def test_y_commutator_is_biadditive_under_st(m3z4, rng):
    alg = m3z4.algebra
    action = CrossedModuleAction(m3z4)
    for _ in range(40):
        g = sample_gl(alg, rng)
        i, j, k = rng.sample(list(m3z4.labels()), 3)
        a1 = m3z4.sample_component(i, j, rng)
        a2 = m3z4.sample_component(i, j, rng)
        b = m3z4.sample_component(j, k, rng)
        a12 = tuple(map(alg.base.add, a1, a2))
        lhs = y_commutator(action, g, i, j, k, a12, b)
        rhs = y_commutator(action, g, i, j, k, a1, b) * y_commutator(
            action, g, i, j, k, a2, b
        )
        assert st_eval(lhs) == st_eval(rhs)
    with pytest.raises(IndexClash):
        y_commutator(action, alg.one, 1, 1, 2, alg.zero, alg.zero)


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
