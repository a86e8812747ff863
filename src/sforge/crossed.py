"""The conjugation action of GL(R) on Steinberg words and the crossed
module axioms for st.

Ad_g is built from the Gauss lift: with (w_g, d) = lift_to_st(g), the
image of a word w is w_g * (d acting on w) * w_g^{-1}.  The alternative
construction conjugates commutator expansions of single letters through
witness decompositions; both paths must agree under st, for every choice
of the auxiliary block.

Word equality in the Steinberg group is generally undecided, so each
axiom records which oracle certified it: plain st comparison, or the
exact unipotent normal form when every word involved is supported on one
triangle.
"""

from __future__ import annotations

from .gauss import lift_to_st, sample_gl
from .peirce import IndexClash, morita_decompose
from .rings import SforgeError
from .words import (
    Context,
    DiagonalElement,
    Word,
    commutator,
    diag_act,
    express_as_commutators,
    gen,
    random_word,
    require_blocks,
    st_eval,
    u_normal_form,
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

    def lift(self, g):
        got = self._lifts.get(g)
        if got is None:
            w, d = lift_to_st(self.family, g)
            if self.drop_diagonal:
                d = DiagonalElement.identity(self.family)
            got = (w, d)
            self._lifts[g] = got
        return got

    def apply(self, g, w):
        wg, d = self.lift(g)
        return wg * diag_act(d, w) * wg.inverse()


def y_lift(action, g, i, j, a, via_commutators=False):
    """A word whose st image is g (1 + a) g^{-1}, a in R_ij.

    The default base point conjugates the single letter; the alternative
    conjugates a commutator expansion of it, giving a genuinely different
    word with the same image.
    """
    ctx = action.context
    base = (
        express_as_commutators(ctx, i, j, a)
        if via_commutators
        else gen(ctx, i, j, a)
    )
    return action.apply(g, base)


def y_commutator(action, g, i, j, k, a, b, via_commutators=False):
    """The commutator of lifts of g t_ij(a) g^{-1} and g t_jk(b) g^{-1}."""
    if len({i, j, k}) != 3:
        raise IndexClash("need three distinct block labels")
    y1 = y_lift(action, g, i, j, a, via_commutators=via_commutators)
    y2 = y_lift(action, g, j, k, b)
    return commutator(y1, y2)


def ad_commutator_path(action, g, i, k, c, j=None):
    """Conjugate x_ik(c) by g through witness commutators.

    c is split through the auxiliary block j (smallest valid label by
    default) and each pair contributes one y-commutator.
    """
    fam = action.family
    require_blocks(fam, 3, "the commutator path")
    if j is None:
        j = min(t for t in fam.labels() if t not in (i, k))
    if j in (i, k):
        raise IndexClash("auxiliary label must avoid the endpoints")
    out = Word(action.context)
    for a, b in morita_decompose(fam, c, i, j, k):
        out = out * y_commutator(action, g, i, j, k, a, b)
    return out


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


def crossed_module_verify(fam, rng, samples=200, fault=None, word_length=2):
    """Run the five-axiom suite on sampled (g, h, w) triples.

    Checks, per sample: exact st-equivariance of Ad_g; agreement of
    Ad_{st(h)} with conjugation by h (st always, word-level normal forms
    on triangular cases); compatibility with products gg'; agreement of
    the direct and commutator paths on generators for every auxiliary
    block; and the normality witness that conjugated transvections stay
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
        w = random_word(ctx, rng, word_length)
        h = random_word(ctx, rng, word_length)

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

        h_up = random_word(ctx, rng, word_length, sign=1)
        w_up = random_word(ctx, rng, word_length, sign=1)
        out_up = action.apply(st_eval(h_up), w_up)
        inner_up = h_up * w_up * h_up.inverse()
        tallies["cm2_inner_word"].record(
            u_normal_form(out_up) == u_normal_form(inner_up)
        )

        g2 = sample_gl(alg, rng)
        lhs = action.apply(alg.mul(g, g2), w)
        rhs = action.apply(g, action.apply(g2, w))
        tallies["cm3_product"].record(st_eval(lhs) == st_eval(rhs))

        i, k = rng.sample(labels, 2)
        c = fam.sample_component(i, k, rng)
        letter = gen(ctx, i, k, c)
        direct = action.apply(g, letter)
        for j in labels:
            if j in (i, k):
                continue
            viaj = ad_commutator_path(action, g, i, k, c, j=j)
            tallies["cm4_cross_path"].record(
                st_eval(viaj) == st_eval(direct), witness=[i, j, k]
            )

        tallies["cm5_normality"].record(
            st_eval(direct) == _conj(alg, g, g_inv, st_eval(letter)),
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
