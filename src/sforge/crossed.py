"""The conjugation action of GL(R) on Steinberg words and the crossed
module axioms for st.

Ad_g is built from the Gauss lift: with (w_g, d) = lift_to_st(g), the
image of a word w is w_g * (d acting on w) * w_g^{-1}.  The commutator
path applies Ad_g to each letter of express_as_commutators, the one
expansion of a letter through witness commutators, so no Ad_g word is
inverted; both paths must agree under st, for every choice of the
auxiliary block.

Word equality in the Steinberg group is generally undecided, so each
axiom records which oracle certified it: plain st comparison, or
"normal-form" for cm2_inner_word, whose words are meant to lie in U+.
There one triangle test (support_sign) and one st comparison decide
equality exactly, since st is injective on U+ and on U-: the verdict is
that of comparing the two normal forms, and none is computed.  A word
that leaves its triangle is a counted violation, with st(h) as witness.
"""

from __future__ import annotations

from .gauss import lift_to_st, sample_gl
from .words import (
    Context,
    DiagonalElement,
    Word,
    diag_act,
    express_as_commutators,
    gen,
    random_word,
    require_blocks,
    st_eval,
    support_sign,
)


class CrossedModuleAction:
    """Conjugation action of GL(R) on words via cached Gauss lifts.

    drop_diagonal deliberately corrupts the lift by discarding its
    diagonal factor; the verifier must catch the resulting violations.
    """

    def __init__(self, family, drop_diagonal=False):
        self.family = family
        self.context = Context(family)
        self.drop_diagonal = drop_diagonal
        self._lifts = {}
        self._lift_inverses = {}

    def lift(self, g):
        got = self._lifts.get(g)
        if got is None:
            w, d = lift_to_st(self.family, g)
            if self.drop_diagonal:
                d = DiagonalElement.identity(self.family)
            got = (w, d)
            self._lifts[g] = got
            self._lift_inverses[g] = w.inverse()
        return got

    def apply(self, g, w):
        """Ad_g(w) = w_g (d acting on w) w_g^-1; w_g^-1 is cached with the lift."""
        wg, d = self.lift(g)
        return wg * diag_act(d, w) * self._lift_inverses[g]


def ad_commutator_path(action, g, i, k, c, j=None):
    """Conjugate x_ik(c) by g through witness commutators: Ad_g of each
    letter of express_as_commutators(ctx, i, k, c, j), concatenated.

    Ad_g of x_ij(-a) is letter for letter the inverse of Ad_g of x_ij(a),
    since u_i (-a) u_j^-1 = -(u_i a u_j^-1), so no Ad_g word is inverted.
    """
    ctx = action.context
    out = []
    for L in express_as_commutators(ctx, i, k, c, j).letters:
        out.extend(action.apply(g, Word(ctx, (L,))).letters)
    return Word(ctx, tuple(out))


def _conj(alg, g, g_inv, m):
    return alg.mul(g, alg.mul(m, g_inv))


class _AxiomTally:
    def __init__(self, oracle):
        self.checked = 0
        self.violations = 0
        self.witness = None
        self.oracle = oracle

    def record(self, ok, witness=None):
        self.checked += 1
        if not ok:
            self.violations += 1
            if self.witness is None:
                self.witness = witness

    def to_json(self):
        out = {
            "checked": self.checked,
            "oracle": self.oracle,
            "violations": self.violations,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def crossed_module_verify(fam, rng, samples=200, fault=None):
    """Run the five-axiom suite on sampled (g, h, w) triples, h and w
    words of 2 letters.

    Checks, per sample: exact st-equivariance of Ad_g; agreement of
    Ad_{st(h)} with conjugation by h (st always, and exact in the
    Steinberg group for h and w in U+: Ad_{st(h)}(w) must lie in one
    triangle, where its st image decides it); compatibility with
    products gg'; agreement of the direct and commutator paths on
    generators for every auxiliary block; and the normality witness that conjugated transvections stay
    elementary.  fault="drop-diagonal" corrupts the lift on purpose.
    Needs two blocks: every sample draws two distinct labels.
    """
    require_blocks(fam, 2, "the crossed-module suite")
    alg = fam.algebra
    ctx = Context(fam)
    action = CrossedModuleAction(fam, drop_diagonal=(fault == "drop-diagonal"))
    tallies = {
        "cm1_equivariance": _AxiomTally("st"),
        "cm2_inner_st": _AxiomTally("st"),
        "cm2_inner_word": _AxiomTally("normal-form"),
        "cm3_product": _AxiomTally("st"),
        "cm4_cross_path": _AxiomTally("st"),
        "cm5_normality": _AxiomTally("st"),
    }
    labels = list(fam.labels())
    for _ in range(samples):
        g = sample_gl(alg, rng)
        g_inv = alg.inv(g)
        w = random_word(ctx, rng, 2)
        h = random_word(ctx, rng, 2)

        out = action.apply(g, w)
        target = _conj(alg, g, g_inv, st_eval(w))
        tallies["cm1_equivariance"].record(
            st_eval(out) == target, witness=alg.element_to_json(g)
        )

        sh = st_eval(h)
        out_h = action.apply(sh, w)
        inner = h * w * h.inverse()
        tallies["cm2_inner_st"].record(
            st_eval(out_h) == st_eval(inner), witness=alg.element_to_json(sh)
        )

        h_up = random_word(ctx, rng, 2, sign=1)
        w_up = random_word(ctx, rng, 2, sign=1)
        sh_up = st_eval(h_up)
        out_up = action.apply(sh_up, w_up)
        inner_up = h_up * w_up * h_up.inverse()
        tallies["cm2_inner_word"].record(
            support_sign(out_up) is not None and st_eval(out_up) == st_eval(inner_up),
            witness=alg.element_to_json(sh_up),
        )

        g2 = sample_gl(alg, rng)
        lhs = action.apply(alg.mul(g, g2), w)
        rhs = action.apply(g, action.apply(g2, w))
        tallies["cm3_product"].record(st_eval(lhs) == st_eval(rhs))

        i, k = rng.sample(labels, 2)
        c = fam.sample_component(i, k, rng)
        letter = gen(ctx, i, k, c)
        st_direct = st_eval(action.apply(g, letter))
        for j in labels:
            if j in (i, k):
                continue
            viaj = ad_commutator_path(action, g, i, k, c, j=j)
            tallies["cm4_cross_path"].record(
                st_eval(viaj) == st_direct, witness=[i, j, k]
            )

        tallies["cm5_normality"].record(
            st_direct == _conj(alg, g, g_inv, st_eval(letter)),
            witness=[i, k],
        )
    axioms = {name: t.to_json() for name, t in tallies.items()}
    bad = sum(t.violations for t in tallies.values())
    return {
        "axioms": axioms,
        "samples": samples,
        "verdict": "pass" if bad == 0 else "fail",
        "violations": bad,
    }
