"""Workload job configs made from a seed, and the per-job correctness gate.

The benchmark seed picks the job's own `seed`, which drives the program's
random draws (Fitting splits, the free peel, norm forms).  The action stays as
written: conjugating the generators changes how much work a job does (about
15% on `s3_sweep`), which would swamp the spread the benchmark must resolve.
Every invariant below holds for every seed; the default seed gives job seed
7, whose canonical reports have recorded digests.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

DEFAULT_SEED = 0

S3_GENS = ["2 2\n0 1\n1 0\n", "2 2\n1 1\n0 1\n"]   # S3 = GL2(F2) on P^1 over GF(2)
ALL_CHECKS = ["decompose", "description", "delta_vanishing", "growth",
              "ramification", "koszul", "surface_progression", "char_growth"]

BASES = {
    "s3_sweep": {"field": {"p": 2, "e": 1}, "generators": S3_GENS, "n_max": 150,
                 "checks": ["decompose", "description", "growth", "ramification",
                            "surface_progression"]},
    "s3_all_checks": {"field": {"p": 2, "e": 1}, "generators": S3_GENS, "n_max": 60,
                      "checks": ALL_CHECKS},
    # the P^3 half of acceptance criterion 8: t = 3..5, j = 0..2
    "koszul_p3_gf9": {"field": {"p": 3, "e": 2},
                      "generators": ["4 4\n00 00 10 00\n10 00 00 00\n00 10 00 00\n00 00 00 10\n"],
                      "n_max": 17, "checks": ["decompose", "koszul"]},
    # self-test configs, small enough to run in about a second each
    "tiny_s3": {"field": {"p": 2, "e": 1}, "generators": S3_GENS, "n_max": 12,
                "checks": ["decompose", "description", "growth", "ramification"]},
    "koszul_p2_gf4": {"field": {"p": 2, "e": 2},
                      "generators": ["3 3\n10 10 00\n00 10 00\n00 00 10\n"],
                      "n_max": 21, "checks": ["decompose", "koszul"]},
}

WORKLOADS = ("s3_sweep", "s3_all_checks", "koszul_p3_gf9")

# sha256 of the canonical report for the default seed, per config
DIGESTS = {
    "s3_sweep": "f58ccf63bc83193153538338a2914d321376f5d872e01287c638bce69d050627",
    "s3_all_checks": "5cd1e90b1ccb8ab015d1b4529d9fe9a23a79e6a829b3fdde5e58e70762e5281c",
    "koszul_p3_gf9": "8f51589991125960e44ceb745c1066e539506020f5ad77250a3c335aa12c24b1",
    "tiny_s3": "d5e20a993e0a49a7a131d19bbf96bc0fe0baa367a1f19320b1a419bc82cfa686",
    "koszul_p2_gf4": "0121c256315368524b4ac615c7a605011f9efffed9c96a83c15a22b2f23e6b2c",
}


def job_config(base: str, seed: int) -> dict:
    """The job config a benchmark seed makes from a base config."""
    cfg = json.loads(json.dumps(BASES[base]))
    cfg["seed"] = 7 if seed == DEFAULT_SEED else random.Random(f"{base}/{seed}").randrange(2**31)
    return cfg


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def gate(config: dict, exit_code: int, text: str | None,
         expected_digest: str | None = None) -> list[str]:
    """Every reason this job's output is wrong; empty when it passes.

    Seed-independent invariants: each Sym^n splits into classes whose
    dimensions add up to C(n+d, d); each Koszul complex is exact and splits
    stagewise, with free Euler multiple m^d/#G; the order d+1 character
    differences vanish at stride (#G)^2 and the order d ones do not.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if text is None:
        return ["no report written"]
    problems = []
    report = json.loads(text)
    if report["errors"]:
        problems.append(f"errors: {sorted(report['errors'])}")
    checks = report["checks"]
    d = report["group"]["dim"] - 1
    order = report["group"]["order"]
    for name in config["checks"]:
        if name not in checks:
            problems.append(f"check {name} missing")
    dec = checks.get("decompose")
    if dec is not None:
        dims = dec["class_dims"]
        if sorted(map(int, dec["vectors"])) != list(range(config["n_max"] + 1)):
            problems.append("decompose: degrees missing")
        for n, vec in dec["vectors"].items():
            total = sum(dims[mid] * mult for mid, mult in vec.items())
            if total != math.comb(int(n) + d, d):
                problems.append(f"decompose: Sym^{n} class dims sum to {total}")
    kz = checks.get("koszul")
    if kz is not None:
        m = kz["form_degree"]
        for c in kz["complexes"]:
            euler = c["euler_free_multiple"]
            if not (c["exact"] and c["all_split"]
                    and euler is not None and euler * order == m ** d):
                problems.append(f"koszul: complex t={c['t']} j={c['j']} fails")
    dv = checks.get("delta_vanishing")
    if dv is not None and not (dv["all_vanish_hi"] and not dv["any_vanish_lo"]):
        problems.append("delta_vanishing: wrong vanishing pattern")
    if expected_digest is not None and digest(text) != expected_digest:
        problems.append("canonical report digest differs from the recorded one")
    return problems
