"""Every benchmark config's default-seed report keeps its recorded digest.

`perfbench/workloads.py` pins the sha256 of each config's canonical report
at the default seed and gates every benchmark job on it.  This test runs the
same five jobs through `sympow analyze` and applies that gate, so a change
of report bytes fails here and not only inside the benchmark.  It reads
perfbench and changes nothing there.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from sympow.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


wl = _load_workloads()


@pytest.mark.parametrize("name", sorted(wl.DIGESTS))
def test_default_seed_report_keeps_its_digest(tmp_path, name):
    cfg = wl.job_config(name, wl.DEFAULT_SEED)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    report = tmp_path / "report.json"
    code = main(["analyze", "--config", str(config_path), "--jobs", "1",
                 "--output", str(report), "--cache-dir", str(tmp_path / "cache")])
    text = report.read_text() if report.exists() else None
    assert wl.gate(cfg, code, text, wl.DIGESTS[name]) == []
