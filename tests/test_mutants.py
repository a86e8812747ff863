"""Mutation tests: one defect patched in at a time, run through cli.main.

A flagged mutant must exit 1 and still print its report, with exactly
the counted violations listed for it.  An unflagged mutant is a defect
no check catches yet: it must run clean, and its entry names the
ROADMAP.md item that is to make it fail, so fixing that item turns its
entry into a flagged one.
"""

import json
import sys

import pytest

from sforge import Letter, Word, words
from sforge import tower as tower_module
from sforge.cli import main

# crossed-gf9-n4's config: over GF(9) a corner unit is not its own inverse
GF9 = (
    "crossed-module",
    {
        "ring": {"kind": "Mat", "size": 4, "base": {"kind": "GF", "p": 3, "f": [1, 0, 1]}},
        "family": "units",
        "samples": 20,
        "seed": 0,
    },
)

# tower-z12-n4-s2's config at 500 samples
TOWER = (
    "tower",
    {
        "ring": {"kind": "Mat", "size": 4, "base": {"kind": "Zmod", "m": 12}},
        "family": "units",
        "scale": 2,
        "system": "homotope",
        "k_max": 4,
        "samples": 500,
        "seed": 0,
    },
)


# the originals, captured before any binding is replaced
_express = words.express_as_commutators
_f_alpha = words.f_alpha
_u_normal_form = words.u_normal_form


def _negated(fam, L):
    return Letter(L.i, L.j, tuple(map(fam.algebra.base.neg, L.a)))


def diag_act_without_inverse(d, w):
    """diag_act with u_j in place of u_j^-1: x_ij(a) -> x_ij(u_i a u_j)."""
    fam = w.context.family
    us, mul = d.blocks, fam.block_mul
    return Word(
        w.context,
        tuple(
            Letter(L.i, L.j, mul(mul(us[L.i - 1], L.i, L.i, L.a, L.j), L.i, L.j, us[L.j - 1], L.j))
            for L in w.letters
        ),
    )


def commutators_with_negated_a(ctx, i, k, c, j=None):
    """express_as_commutators with each a negated: every quadruple
    x_ij(a) x_jk(b) x_ij(-a) x_jk(-b) becomes x_ij(-a) x_jk(b) x_ij(a) x_jk(-b)."""
    w = _express(ctx, i, k, c, j)
    fam = ctx.family
    return Word(
        ctx, tuple(_negated(fam, L) if t % 4 in (0, 2) else L for t, L in enumerate(w.letters))
    )


def premorphism_always_equivalent(tower, i, j, f, g, carrier, budget=None):
    return tower_module.EquivVerdict("equivalent", 0, None)


def f_alpha_negated(w, ref):
    out = _f_alpha(w, ref)
    fam = out.context.family
    return Word(out.context, tuple(_negated(fam, L) for L in out.letters))


def u_normal_form_short(w):
    out = _u_normal_form(w)
    return Word(out.context, out.letters[:-1])


# (original, mutant, config, the counted violations it must give, by
# report path under "suites")
FLAGGED = {
    "diag_act-uses-u_j": (
        words.diag_act,
        diag_act_without_inverse,
        GF9,
        {
            "axioms/cm1_equivariance": 16,
            "axioms/cm3_product": 20,
            "axioms/cm4_cross_path": 20,
            "axioms/cm5_normality": 10,
        },
    ),
    "express_as_commutators-negates-a": (
        _express,
        commutators_with_negated_a,
        GF9,
        {"axioms/cm4_cross_path": 32},
    ),
}

# (original, mutant, why no check flags it yet: the ROADMAP.md item that
# is to flag it); each runs clean on both configs
UNFLAGGED = {
    # the tower run only warns that no inequivalent operator pair was found
    "premorphism_equiv-always-equivalent": (
        tower_module.premorphism_equiv, premorphism_always_equivalent, "item 3"
    ),
    "f_alpha-negates-payloads": (_f_alpha, f_alpha_negated, "item 8"),
    "u_normal_form-drops-last-letter": (
        _u_normal_form, u_normal_form_short, "no check path, by design"
    ),
}


def patch_everywhere(monkeypatch, original, mutant):
    """Bind the mutant in place of every loaded sforge module's binding of
    the original function, since each module that imports it holds its own."""
    name = original.__name__
    bound = 0
    for mod in list(sys.modules.values()):
        ours = getattr(mod, "__name__", "").startswith("sforge")
        if ours and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, mutant)
            bound += 1
    assert bound


def run(tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main([command, "--config", str(path)])
    return code, json.loads(capsys.readouterr().out)


def counted_violations(node, path=""):
    """{path: violations} for every tally with a nonzero count."""
    out = {}
    if isinstance(node, dict):
        if "checked" in node and node.get("violations"):
            out[path.lstrip("/")] = node["violations"]
        for key, child in node.items():
            out.update(counted_violations(child, path + "/" + key))
    return out


@pytest.mark.parametrize("name", sorted(FLAGGED))
def test_flagged_mutant_exits_one_with_its_violations(tmp_path, capsys, monkeypatch, name):
    original, mutant, (command, config), want = FLAGGED[name]
    patch_everywhere(monkeypatch, original, mutant)
    code, report = run(tmp_path, capsys, command, config)
    assert code == 1
    assert report["verdict"] == "fail"
    assert counted_violations(report["suites"]) == want
    assert report["violations"] == sum(want.values())


def test_commutator_mutant_cancels_out_of_the_tower(tmp_path, capsys, monkeypatch):
    """The tower acts on its presented source and decides on it, so a
    fault in express_as_commutators cancels there (ad_equivariance_check)."""
    patch_everywhere(monkeypatch, _express, commutators_with_negated_a)
    code, report = run(tmp_path, capsys, *TOWER)
    assert code == 0 and report["violations"] == 0


@pytest.mark.parametrize("config", [GF9, TOWER], ids=["GF9", "tower"])
@pytest.mark.parametrize("name", sorted(UNFLAGGED))
def test_unflagged_mutant_runs_clean(tmp_path, capsys, monkeypatch, name, config):
    original, mutant, _ = UNFLAGGED[name]
    patch_everywhere(monkeypatch, original, mutant)
    code, report = run(tmp_path, capsys, *config)
    assert code == 0 and report["violations"] == 0
    assert counted_violations(report["suites"]) == {}
