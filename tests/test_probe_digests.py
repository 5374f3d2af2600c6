"""Probe jobs keep their report bytes.

Each P¹ probe is a long sweep whose degrees nearly all take the recursion,
so most of its cokernels repeat an earlier one's matrices; its digest was
recorded on the code that decomposed every cokernel from scratch.  The
character probes run the Brauer-character checks on groups whose modulus N
(the lcm of the p-regular element orders) is composite, which no benchmark
config reaches; their digests were recorded on the code that kept each
character as a per-class dict of tuples.  The P² probes run the plane's
sweep, whose splits go through the Fitting primary split
(`gf.poly_coprime_split`); their digests were recorded on the code whose
field layer had a second, list-based polynomial engine.  S3-P2-GF2-koszul is
the one pinned job whose Koszul degrees (up to 25) pass its `n_max` (12): its
Koszul stage extends the job's sweep, and its digest was recorded on the code
that first did so, whose report differed from the code before only in
`euler_free_multiple` (null on 5 of 6 complexes before).  Every expected value
is the first 16 hex digits of the sha256 of `canonical_json`.
"""

import hashlib

import pytest

from sympow.pipeline import canonical_json, config_from_dict, run

from test_recursion import GROUPS

PROBES = {
    "S3-GF2": (600, "4d787faadc1f377f"),
    "GL2F3-GF3": (200, "6b50a3e4d03f0177"),
    "SL2F4-GF4": (150, "dda0db8d9ed474ec"),
    "C3-GF4": (300, "9be4b25f1404bef6"),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_p1_probe_keeps_its_digest(name):
    field, gens, _, m = GROUPS[name]
    n_max, digest = PROBES[name]
    cfg = config_from_dict({"field": field, "generators": gens, "n_max": n_max, "seed": 7,
                            "checks": ["decompose", "description"]})
    report = run(cfg)
    assert report["errors"] == {}
    assert report["volatile"]["sweep"] == {"form_degree": m, "recursion": n_max + 1 - m,
                                           "direct": m}
    text = canonical_json(report)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


GL3_GENS = ["3 3\n1 1 0\n0 1 0\n0 0 1\n", "3 3\n0 0 1\n1 0 0\n0 1 0\n"]
S3_PLANE_GENS = ["3 3\n0 1 0\n1 0 0\n0 0 1\n", "3 3\n0 0 1\n1 0 0\n0 1 0\n"]
CHAR_CHECKS = ["delta_vanishing", "char_growth", "description"]

# name: (field, generators, checks, digest); N = 8, 15, 2 and 21
CHAR_PROBES = {
    "GL2F3-GF3": (GROUPS["GL2F3-GF3"][0], GROUPS["GL2F3-GF3"][1], CHAR_CHECKS,
                  "acbdb57081971e7d"),
    "SL2F4-GF4": (GROUPS["SL2F4-GF4"][0], GROUPS["SL2F4-GF4"][1], CHAR_CHECKS,
                  "9ef3ea5cdb3d30c1"),
    "S3-P2-GF3": ({"p": 3, "e": 1}, S3_PLANE_GENS, CHAR_CHECKS, "1a0da202476e15c0"),
    "GL3F2-P2": ({"p": 2, "e": 1}, GL3_GENS, ["char_growth", "delta_vanishing"],
                 "020045f24cd0c186"),
}


@pytest.mark.parametrize("name", sorted(CHAR_PROBES))
def test_character_probe_keeps_its_digest(name):
    field, gens, checks, digest = CHAR_PROBES[name]
    cfg = config_from_dict({"field": field, "generators": gens, "n_max": 12, "seed": 7,
                            "checks": checks})
    report = run(cfg)
    text = canonical_json(report)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# name: (p, generators, n_max, checks, digest); seed 7, prime fields
P2_PROBES = {
    "S3-P2-GF2": (2, S3_PLANE_GENS, 16, ["decompose", "description"], "aed90e9c5f1c9595"),
    "S3-P2-GF3": (3, S3_PLANE_GENS, 12, ["decompose", "description"], "7b7ef09520197898"),
    "GL3F2-P2": (2, GL3_GENS, 8, ["decompose"], "12ead18b6f1ec571"),
    "S3-P2-GF2-koszul": (2, S3_PLANE_GENS, 12, ["decompose", "koszul"], "11c63c5e22929e42"),
}


@pytest.mark.parametrize("name", sorted(P2_PROBES))
def test_p2_probe_keeps_its_digest(name):
    p, gens, n_max, checks, digest = P2_PROBES[name]
    cfg = config_from_dict({"field": {"p": p, "e": 1}, "generators": gens, "n_max": n_max,
                            "seed": 7, "checks": checks})
    report = run(cfg)
    assert report["errors"] == {}
    text = canonical_json(report)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
