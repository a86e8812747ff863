"""Command line front end for the relation, factorization and verifier suites.

All subcommands read one JSON config (ring and family descriptors plus
optional scale, level budget, sample count and seed) and emit a single
JSON report with sorted keys.  Reports are byte-identical across runs
with the same config, seed and package version; timings are printed to
stderr and never enter the report.  Exit status: 0 for a clean or
warning-only run, 1 when violations were found, 2 for usage or config
errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time

from . import __version__
from .crossed import crossed_module_verify
from .gauss import NotInvertible, enumerate_gl, gauss_decompose, sample_gl
from .peirce import BadFamily, family_from_json
from .rings import MatrixAlgebra, SforgeError, is_json_int, ring_from_json
from .tower import (
    HomotopeTower,
    PowerSequenceTooLong,
    actor_relation_suite,
    scaled_operator_suite,
    split_naturality_suite,
    tower_relation_suite,
)
from .words import (
    Context,
    RankTooSmall,
    exhaustive_relation_grid,
    require_blocks,
    sample_relations,
)

_CONFIG_FIELDS = {
    "element",
    "family",
    "k_max",
    "ring",
    "samples",
    "scale",
    "seed",
    "system",
}

# gauss --exhaustive unit-tests every one of the |A|^(n^2) matrices; M(4, Z/2),
# at 2^16 of them, takes about 16 s on a 2-vCPU host, so larger rings are
# refused before any work rather than left running for hours
EXHAUSTIVE_GAUSS_MAX = 2 ** 16

_FAULTS = {
    "relations": ("st3-zero",),
    "gauss": (),
    "crossed-module": ("drop-diagonal",),
    "tower": ("drop-scale",),
}


class ConfigError(SforgeError):
    """The config file is missing, malformed, or inconsistent."""


def _check_int(value, what, least=None):
    """value, if it is a JSON integer of at least `least`."""
    if not is_json_int(value) or (least is not None and value < least):
        raise ConfigError("%s, got %s" % (what, json.dumps(value)))
    return value


class InstanceConfig:
    """One parsed run configuration, CLI overrides already applied."""

    def __init__(self, ring, family, scale, k_max, samples, seed, element, system):
        self.ring = ring
        self.family = family
        self.scale = scale
        self.k_max = k_max
        self.samples = samples
        self.seed = seed
        self.element = element
        self.system = system

    @classmethod
    def load(cls, path, seed=None, samples=None):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc)
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc)
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(raw) - _CONFIG_FIELDS)
        if unknown:
            raise ConfigError("unknown config fields: %s" % ", ".join(unknown))
        if "ring" not in raw:
            raise ConfigError("config needs a 'ring' descriptor")
        try:
            ring = ring_from_json(raw["ring"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError("bad ring descriptor: %s" % exc)

        if not isinstance(ring, MatrixAlgebra):
            raise ConfigError(
                "every command needs a matrix ring ({\"kind\": \"Mat\", ...}), "
                "got %s" % ring.kind
            )
        try:
            family = family_from_json(ring, raw.get("family", "units"))
        except (BadFamily, ValueError, TypeError, IndexError) as exc:
            raise ConfigError("bad family descriptor: %s" % exc)

        scale = None
        if "scale" in raw:
            try:
                scale = ring.base.element_from_json(raw["scale"])
            except (ValueError, TypeError) as exc:
                raise ConfigError("bad scale element: %s" % exc)

        k_max = _check_int(
            raw.get("k_max", 6), "k_max must be a nonnegative integer", 0
        )
        if samples is None:
            samples = raw.get("samples", 200)
        _check_int(samples, "samples must be a positive integer", 1)
        if seed is None:
            seed = raw.get("seed", 0)
        _check_int(seed, "seed must be an integer")
        system = raw.get("system", "plain")
        if system not in ("plain", "homotope"):
            raise ConfigError("system must be 'plain' or 'homotope'")
        element = raw.get("element")
        return cls(ring, family, scale, k_max, samples, seed, element, system)

    def echo(self):
        out = {
            "family": self.family.to_json(),
            "k_max": self.k_max,
            "ring": self.ring.to_json(),
            "samples": self.samples,
            "seed": self.seed,
            "system": self.system,
        }
        if self.scale is not None:
            out["scale"] = self.ring.base.element_to_json(self.scale)
        if self.element is not None:
            out["element"] = self.element
        return out

    def config_hash(self, command):
        blob = json.dumps(
            {"command": command, "config": self.echo(), "version": __version__},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cmd_relations(cfg, args):
    fam = cfg.family
    require_blocks(fam, 2, "the relation suite")  # samples two distinct labels
    rng = random.Random(cfg.seed)
    contexts = [("plain", Context(fam))]
    if cfg.system == "homotope" or cfg.scale is not None:
        if cfg.scale is None:
            raise ConfigError("homotope relation runs need a scale element")
        tower = HomotopeTower(fam, cfg.scale, cfg.k_max)
        for k in range(cfg.k_max + 1):
            contexts.append(("level-%d" % k, tower.context(k)))

    # below 3 blocks (St3) has no index triple and is reported empty
    kinds = ("St1", "St2", "St3") if fam.n >= 3 else ("St1", "St2")
    suites = {}
    violations = 0
    for tag, ctx in contexts:
        per = {"St3": {"checked": 0, "violations": 0}}
        per.update(sample_relations(ctx, rng, kinds, cfg.samples, args.inject_fault))
        violations += sum(v["violations"] for v in per.values())
        if args.exhaustive:
            for kind in kinds:
                grid = exhaustive_relation_grid(ctx, kind)
                per[kind + "_exhaustive"] = grid
                violations += grid["violations"]
        suites[tag] = per
    return suites, violations, []


def cmd_gauss(cfg, args):
    fam = cfg.family
    alg = fam.algebra
    rng = random.Random(cfg.seed)
    suites = {}
    violations = 0
    if cfg.element is not None:
        try:
            g = alg.element_from_json(cfg.element)
        except (ValueError, TypeError) as exc:
            raise ConfigError("bad element: %s" % exc)
        try:
            fac = gauss_decompose(fam, g)
            suites["element"] = {
                "factorization": fac.to_json(),
                "reconstructed": True,
            }
        except NotInvertible as exc:
            suites["element"] = {"error": str(exc), "reconstructed": False}
            violations += 1
    elif args.exhaustive:
        if alg.size > EXHAUSTIVE_GAUSS_MAX:
            raise ConfigError(
                "gauss --exhaustive would enumerate |A|^(n^2) = %d^%d = %d matrices; "
                "the bound is %d" % (alg.base.size, alg.n * alg.n, alg.size, EXHAUSTIVE_GAUSS_MAX)
            )
        count = 0
        sample = None
        for g in enumerate_gl(alg):
            fac = gauss_decompose(fam, g)
            count += 1
            if sample is None:
                sample = fac.to_json()
        suites["exhaustive"] = {
            "group_order": count,
            "reconstructed": count,
            "sample_factorization": sample,
        }
    else:
        for _ in range(cfg.samples):
            gauss_decompose(fam, sample_gl(alg, rng))
        suites["random"] = {"checked": cfg.samples, "reconstructed": cfg.samples}
    return suites, violations, []


def cmd_crossed_module(cfg, args):
    fam = cfg.family
    rng = random.Random(cfg.seed)
    report = crossed_module_verify(
        fam, rng, samples=cfg.samples, fault=args.inject_fault
    )
    suites = {"axioms": report["axioms"], "samples": report["samples"]}
    return suites, report["violations"], []


def cmd_tower(cfg, args):
    fam = cfg.family
    if cfg.scale is None:
        raise ConfigError("tower runs need a scale element")
    tower = HomotopeTower(fam, cfg.scale, cfg.k_max)
    rng = random.Random(cfg.seed)
    per_level = max(1, cfg.samples // (cfg.k_max + 1))
    mutate = "drop-scale" if args.inject_fault == "drop-scale" else None

    suites = {}
    violations = 0
    rel = tower_relation_suite(tower, rng, samples_per_level=per_level, mutate=mutate)
    warnings = list(rel.pop("warnings"))
    suites["relations"] = rel
    violations += rel["violations"]
    if rel["status"] == "inconclusive":
        suites["note"] = "level budget 0: equivalences reported as inconclusive only"
        return suites, violations, warnings

    try:
        nat = split_naturality_suite(tower, rng, samples=min(cfg.samples, 50))
    except RankTooSmall as exc:
        nat = {"checked": 0, "violations": 0}
        warnings.append("split_naturality skipped: %s" % exc)
    suites["split_naturality"] = nat
    violations += nat["violations"]

    act = actor_relation_suite(tower, rng, samples=min(per_level, 25))
    suites["actor_relations"] = act
    violations += act["violations"]

    ops = scaled_operator_suite(tower, rng)
    suites["operators"] = ops
    violations += ops["violations"] + ops["identities"]["violations"]
    if not ops["inequivalent_found"]:
        warnings.append("no inequivalent operator pair found on this carrier")
    return suites, violations, warnings


_HANDLERS = {
    "relations": cmd_relations,
    "gauss": cmd_gauss,
    "crossed-module": cmd_crossed_module,
    "tower": cmd_tower,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sforge",
        description="relation suites, Gauss factorizations and action verifiers "
        "over finite rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "relations": "sample and exhaust the generator relations",
        "gauss": "factor unit matrices through triangular words",
        "crossed-module": "verify the five lifting axioms on sampled triples",
        "tower": "run the scaled relation and action suites level by level",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--samples", type=int, help="override the sample count")
        sp.add_argument("--out", help="directory for run reports")
        if name in ("relations", "gauss"):
            sp.add_argument("--exhaustive", action="store_true", help="enumerate, not sample")
        if _FAULTS[name]:
            sp.add_argument(
                "--inject-fault",
                choices=_FAULTS[name],
                help="corrupt the checked identity on purpose",
            )
        else:
            sp.set_defaults(inject_fault=None)
    return parser


def _emit(report, out_dir, run_hash):
    payload = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    sys.stdout.write(payload)
    if out_dir:
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        base = "%s-%s" % (stamp, run_hash[:12])
        run_dir = os.path.join(out_dir, base)
        k = 1
        while os.path.exists(run_dir):
            run_dir = os.path.join(out_dir, "%s-%d" % (base, k))
            k += 1
        os.makedirs(run_dir)
        path = os.path.join(run_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print("report written to %s" % path, file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out:
        # refuse an unusable --out before any work, not after the report
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            parser.error("--out %s is not a usable directory: %s" % (args.out, exc))
    try:
        cfg = InstanceConfig.load(args.config, seed=args.seed, samples=args.samples)
        started = time.perf_counter()
        suites, violations, warnings = _HANDLERS[args.command](cfg, args)
        elapsed = time.perf_counter() - started
    except (ConfigError, RankTooSmall, PowerSequenceTooLong) as exc:
        # too few blocks for the command, or a scale whose power sequence
        # is too long to tabulate, is a property of the config
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except SforgeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("%s finished in %.2fs" % (args.command, elapsed), file=sys.stderr)
    verdict = "fail" if violations else ("warn" if warnings else "pass")
    report = {
        "artifact": {"name": "sforge", "version": __version__},
        "command": args.command,
        "config": cfg.echo(),
        "suites": suites,
        "verdict": verdict,
        "violations": violations,
        "warnings": warnings,
    }
    _emit(report, args.out, cfg.config_hash(args.command))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
