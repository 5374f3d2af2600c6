"""Four P¹ probe sweeps keep the report bytes they had before the cokernel memo.

Each probe is a long P¹ sweep whose degrees nearly all take the recursion,
so most of its cokernels repeat an earlier one's matrices.  The expected
values are the first 16 hex digits of the sha256 of `canonical_json`,
recorded on the code that decomposed every cokernel from scratch.
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
