"""Generated configs through the CLI: no traceback, and deterministic reports.

Every command runs in process through ``cli.main`` on config dicts over
tiny rings (Z/m with m <= 12, GF(4), GF(9); matrix size <= 3).  Each
field is usually valid, and now and then a JSON value of the wrong type:
a boolean, a float, a string, a list or null.  Whatever the config, the
exit code is 0, 1 or 2, no exception escapes, and the same config prints
the same bytes twice.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from sforge.cli import main

COMMANDS = ("relations", "gauss", "crossed-module", "tower")

BASES = st.one_of(
    st.builds(lambda m: {"kind": "Zmod", "m": m}, st.integers(1, 12)),
    st.sampled_from(
        [{"kind": "GF", "p": 2, "f": [1, 1, 1]}, {"kind": "GF", "p": 3, "f": [1, 0, 1]}]
    ),
)

# JSON values that are neither ring elements nor counts
JUNK = st.one_of(
    st.booleans(),
    st.floats(-3, 30, allow_nan=False),
    st.text("0123456789x", max_size=2),
    st.lists(
        st.one_of(st.booleans(), st.floats(0, 2), st.text("01", max_size=1)), max_size=2
    ),
    st.none(),
)


def usually(valid):
    """valid, or one time in eight a junk value."""
    return st.integers(0, 7).flatmap(lambda k: JUNK if k == 7 else valid)


def base_elements(base):
    if base["kind"] == "Zmod":
        return st.integers(-3, 30)
    return st.one_of(st.integers(-3, 30), st.lists(st.integers(-1, 4), max_size=3))


@st.composite
def families(draw, size):
    kind = draw(st.sampled_from(["units", "blocks", "blocks", "bad"]))
    if kind == "units":
        return "units"
    if kind == "blocks":
        order = draw(st.permutations(range(size)))
        cuts = sorted(draw(st.sets(st.integers(1, size))) - {size})
        bounds = [0, *cuts, size]
        return {"blocks": [order[a:b] for a, b in zip(bounds, bounds[1:])]}
    malformed = [{"blocks": [[0, 0]]}, {"blocks": []}, {"blocks": "01"}, 3]
    return draw(st.sampled_from(malformed))


@st.composite
def configs(draw):
    size = draw(st.integers(1, 3))
    base = draw(BASES)
    element = base_elements(base)
    cfg = {
        "ring": {"kind": "Mat", "size": size, "base": base},
        "samples": draw(usually(st.integers(1, 3))),
        "k_max": draw(usually(st.integers(0, 2))),
        "seed": draw(usually(st.integers(0, 5))),
    }
    if draw(st.booleans()):
        cfg["family"] = draw(families(size))
    if draw(st.integers(0, 3)):
        cfg["scale"] = draw(usually(element))
    if draw(st.booleans()):
        cfg["system"] = draw(st.sampled_from(["plain", "homotope", "affine"]))
    if draw(st.booleans()):
        row = st.lists(usually(element), min_size=size, max_size=size)
        cfg["element"] = draw(usually(st.lists(row, min_size=size, max_size=size)))
    return cfg


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(COMMANDS), cfg=configs())
def test_generated_configs_exit_cleanly_and_deterministically(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        first = run([command, "--config", path])
        second = run([command, "--config", path])
    code, out, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert second[:2] == (code, out)
    if code == 2:
        assert out == ""
