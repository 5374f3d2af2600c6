"""Config validation, orchestration determinism, caching, and emission.

The fixture job is C2 acting on the projective line over GF(2) with a small
degree window, so a full analyze run takes well under a second and the
byte-identity comparisons can afford to run it several times.
"""

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from sympow.cli import main
from sympow.modules import _content_digest
from sympow.pipeline import (CHECKS, ConfigError, canonical_json,
                             config_from_dict, job_key, load_config, run,
                             run_single)

BASE = {
    "field": {"p": 2, "e": 1},
    "generators": ["2 2\n1 1\n0 1\n"],
    "n_max": 16,
    "seed": 7,
    "checks": ["decompose", "description", "growth", "ramification"],
}


def write_config(tmp_path, name="job.json", **overrides):
    raw = {**BASE, **overrides}
    for key in [k for k, v in raw.items() if v is None]:
        del raw[key]
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_load_config_minimal(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.p == 2 and cfg.e == 1
    assert cfg.n_max == 16 and cfg.seed == 7
    assert cfg.checks == ("decompose", "description", "growth", "ramification")
    assert cfg.output_format == "json"
    # a "jobs" key is ignored like any other unknown key
    assert load_config(write_config(tmp_path, name="jobs.json", jobs=4)) == cfg


@pytest.mark.parametrize("overrides,fragment", [
    ({"seed": None}, "seed required"),
    ({"generators": ["2 3\n1 1 0\n0 1 1\n"]}, "generator 0 is not square"),
    ({"generators": ["2 2\n1 1\n0 1\n", "3 3\n1 0 0\n0 1 0\n0 0 1\n"]}, "expected 2"),
    ({"n_max": 3}, "n_max"),
    ({"checks": ["decompose", "frobnicate"]}, "unknown checks"),
    ({"output": {"format": "yaml"}}, "output format"),
    ({"generators": []}, "generators"),
    ({"m_candidates": [2, 0]}, "m_candidates"),
    ({"field": {"p": "two"}}, "field.p must be an integer"),
    ({"field": {"p": 2, "e": "1.5"}}, "field.e must be an integer"),
    ({"seed": "seven"}, "seed must be an integer"),
    ({"n_max": "16x"}, "n_max must be an integer"),
    ({"m_candidates": [2, "four"]}, "m_candidates entry must be an integer"),
    ({"m_candidates": "24"}, "m_candidates must be a list"),
    ({"output": "report.json"}, "output must be an object"),
    ({"checks": "decompose"}, "checks must be a list"),
    ({"cache_dir": 5}, "cache_dir must be a path string"),
    ({"output": {"path": ["r.json"]}}, "output.path must be a path string"),
    # only JSON integers count: floats, booleans and numeric strings are refused
    ({"field": {"p": 2.9}}, "field.p must be an integer"),
    ({"field": {"p": 2.0}}, "field.p must be an integer"),
    ({"field": {"p": 2, "e": True}}, "field.e must be an integer"),
    ({"n_max": 16.7}, "n_max must be an integer"),
    ({"n_max": "16"}, "n_max must be an integer"),
    ({"seed": 7.5}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"m_candidates": [2.5, 4]}, "m_candidates entry must be an integer"),
    ({"m_candidates": [2, "4"]}, "m_candidates entry must be an integer"),
    ({"m_candidates": [False]}, "m_candidates entry must be an integer"),
    ({"generators": [""]}, "generator 0: empty matrix text"),
    ({"generators": ["0 0\n"]}, "generator 0 has size 0"),
    ({"m_candidates": []}, "m_candidates must not be empty"),
    ({"checks": []}, "checks must not be empty; omit it to run every check"),
])
def test_config_validation_errors(tmp_path, capsys, overrides, fragment):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=fragment):
        load_config(path)
    assert main(["analyze", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "field": {"p": 2},\n  oops\n}')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(str(path))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/job.json")


def test_analyze_deterministic_and_cache_sound(tmp_path):
    cfg_path = write_config(tmp_path, cache_dir=str(tmp_path / "cache"))
    outs = [str(tmp_path / f"r{i}.json") for i in range(3)]
    assert main(["analyze", "--config", cfg_path, "--output", outs[0]]) == 0
    # warm cache
    assert main(["analyze", "--config", cfg_path, "--output", outs[1]]) == 0
    import shutil
    shutil.rmtree(tmp_path / "cache")
    # cold again
    assert main(["analyze", "--config", cfg_path, "--output", outs[2]]) == 0
    blobs = [open(o, "rb").read() for o in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    report = json.loads(blobs[0])
    assert report["errors"] == {}
    assert report["checks"]["description"]["found"]
    assert "volatile" not in report


def _truncate(doc):
    text = doc.read_text()
    doc.write_text(text[: len(text) // 2])


def _write_signed(doc, raw):
    """Write a hand-edited document with the digest of its content, as a
    writer would, so that loading it reaches the check its damage is for."""
    content = {k: v for k, v in raw.items() if k != "sha256"}
    doc.write_text(json.dumps({"sha256": _content_digest(content), **content}))


def _dangling_id(doc):
    raw = json.loads(doc.read_text())
    raw["vectors"]["3"] = {str(len(raw["classes"])): 1}
    _write_signed(doc, raw)


def _non_square_class(doc):
    raw = json.loads(doc.read_text())
    raw["classes"][0]["gens"][0] = "1 2\n1 0\n"
    _write_signed(doc, raw)


def _wrong_dim_class(doc):
    # square generators, but not of the dimension the entry declares
    raw = json.loads(doc.read_text())
    raw["classes"][0]["dim"] += 1
    _write_signed(doc, raw)


@pytest.mark.parametrize("damage", [
    _truncate,
    lambda doc: doc.write_text("[]"),
    lambda doc: _write_signed(doc, {"classes": 5, "vectors": {}}),
    _non_square_class,
    _dangling_id,
    _wrong_dim_class,
], ids=["truncated", "list", "wrong-shape", "non-square-class", "dangling-id",
        "wrong-dim-class"])
def test_corrupt_cache_entry_is_a_miss(tmp_path, damage):
    cfg_path = write_config(tmp_path, cache_dir=str(tmp_path / "cache"))
    ref, out = str(tmp_path / "ref.json"), str(tmp_path / "out.json")
    assert main(["analyze", "--config", cfg_path, "--output", ref]) == 0
    cfg = load_config(cfg_path)
    doc = tmp_path / "cache" / f"{job_key(cfg)}.json"
    whole = doc.read_bytes()

    damage(doc)
    assert main(["analyze", "--config", cfg_path, "--output", out]) == 0
    assert open(ref, "rb").read() == open(out, "rb").read()
    assert doc.read_bytes() == whole
    damage(doc)
    damaged = doc.read_bytes()
    # a read alone changes nothing
    run_single(cfg, 5)
    assert doc.read_bytes() == damaged
    report = run(cfg)
    assert report["volatile"]["cache"] == {"hits": 0, "misses": 17, "corrupt": 1}
    assert canonical_json(report) == open(ref).read()
    # the document was rewritten whole
    assert doc.read_bytes() == whole
    assert run(cfg)["volatile"]["cache"] == {"hits": 17, "misses": 0, "corrupt": 0}
    assert os.listdir(tmp_path / "cache") == [doc.name]


@pytest.mark.parametrize("edit", [
    pytest.param({"1": 4}, id="4"),
    pytest.param({"1": 0}, id="0"),
    pytest.param({"1": -3}, id="-3"),
    pytest.param({"0": 0}, id="zero-class"),
])
def test_damaged_multiplicity_is_a_miss(tmp_path, edit):
    """A vector that cannot be degree n's (a multiplicity below 1, or class
    dimensions that do not add up to n + 1 on P^1) is a corrupt document.
    A class listed with multiplicity 0 is one even though the dimensions
    still add up."""
    cfg = config_from_dict({**BASE, "generators": S3_GENS, "n_max": 12,
                            "cache_dir": str(tmp_path / "cache")})
    cold = canonical_json(run(cfg))
    doc = tmp_path / "cache" / f"{job_key(cfg)}.json"
    raw = json.loads(doc.read_text())
    assert raw["vectors"]["9"] == {"1": 3, "2": 2}
    raw["vectors"]["9"].update(edit)
    _write_signed(doc, raw)
    warm = run(cfg)
    assert warm["volatile"]["cache"]["corrupt"] == 1
    assert canonical_json(warm) == cold


def test_swapped_multiplicities_are_a_miss(tmp_path):
    """Degree 9 of the S3 job holds two 2-dimensional classes; swapping
    their multiplicities keeps every count positive and the dimensions
    adding up, and only the digest sees the damage."""
    cfg = config_from_dict({**BASE, "generators": S3_GENS, "n_max": 12,
                            "cache_dir": str(tmp_path / "cache")})
    cold = canonical_json(run(cfg))
    doc = tmp_path / "cache" / f"{job_key(cfg)}.json"
    whole = doc.read_bytes()
    raw = json.loads(whole)
    assert raw["vectors"]["9"] == {"1": 3, "2": 2}
    assert [raw["classes"][i]["dim"] for i in (1, 2)] == [2, 2]
    raw["vectors"]["9"] = {"1": 2, "2": 3}
    doc.write_text(json.dumps(raw))
    warm = run(cfg)
    assert warm["volatile"]["cache"] == {"hits": 0, "misses": 13, "corrupt": 1}
    assert canonical_json(warm) == cold
    assert doc.read_bytes() == whole


def test_document_without_digest_is_rewritten(tmp_path):
    """A document written before documents carried a digest reads as
    corrupt once; the sweep then rewrites it whole, digest included."""
    cfg = config_from_dict({**BASE, "cache_dir": str(tmp_path / "cache")})
    run(cfg)
    doc = tmp_path / "cache" / f"{job_key(cfg)}.json"
    whole = doc.read_bytes()
    raw = json.loads(whole)
    del raw["sha256"]
    doc.write_text(json.dumps(raw))
    assert run(cfg)["volatile"]["cache"] == {"hits": 0, "misses": 17, "corrupt": 1}
    assert doc.read_bytes() == whole
    assert run(cfg)["volatile"]["cache"] == {"hits": 17, "misses": 0, "corrupt": 0}


def test_smaller_job_keeps_higher_degrees(tmp_path):
    cache = tmp_path / "cache"
    run(config_from_dict({**BASE, "cache_dir": str(cache)}))
    small = config_from_dict({**BASE, "n_max": 8, "cache_dir": str(cache)})
    doc = cache / f"{job_key(small)}.json"
    whole = doc.read_bytes()
    raw = json.loads(whole)
    del raw["vectors"]["4"]
    # a whole document without degree 4, digest and all
    _write_signed(doc, raw)
    assert run(small)["volatile"]["cache"] == {"hits": 8, "misses": 1, "corrupt": 0}
    # degree 4 is back, and degrees 9..16 survived the n_max = 8 rewrite
    assert doc.read_bytes() == whole


S3_GENS = ["2 2\n0 1\n1 0\n", "2 2\n1 1\n0 1\n"]
S3_PLANE_GENS = ["3 3\n0 1 0\n1 0 0\n0 0 1\n", "3 3\n0 0 1\n1 0 0\n0 1 0\n"]


def forbid_processes(monkeypatch):
    def no_process(self):
        raise AssertionError("the sweep started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)


def test_parallel_jobs_match_sequential(tmp_path, monkeypatch, capsys):
    # --jobs is accepted and ignored: same report bytes, no process started
    forbid_processes(monkeypatch)
    cfg_path = write_config(tmp_path)
    a, b = str(tmp_path / "seq.json"), str(tmp_path / "par.json")
    assert main(["analyze", "--config", cfg_path, "--output", a]) == 0
    assert main(["analyze", "--config", cfg_path, "--output", b, "--jobs", "2"]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    capsys.readouterr()
    assert main(["analyze", "--config", cfg_path, "--jobs", "0"]) == 1
    assert "at least 1" in capsys.readouterr().err


def test_parallel_jobs_write_the_same_cache(tmp_path, monkeypatch):
    forbid_processes(monkeypatch)
    docs = {}
    for jobs in (1, 2):
        cache = tmp_path / f"cache{jobs}"
        # a P^2 job, whose degrees are all decomposed directly
        cfg_path = write_config(tmp_path, name=f"job{jobs}.json", generators=S3_PLANE_GENS,
                                n_max=10, cache_dir=str(cache))
        out = str(tmp_path / f"out{jobs}.json")
        assert main(["analyze", "--config", cfg_path, "--output", out, "--jobs", str(jobs)]) == 0
        assert os.listdir(cache) == [f"{job_key(load_config(cfg_path))}.json"]
        docs[jobs] = (cache / os.listdir(cache)[0]).read_bytes()
    doc = json.loads(docs[1])
    assert sorted(map(int, doc["vectors"])) == list(range(11)) and doc["classes"]
    assert docs[1] == docs[2]


def test_p1_sweep_with_a_form_opens_no_pool(tmp_path, monkeypatch):
    # degree n needs degree n - m, so the recursion sweeps in this process
    forbid_processes(monkeypatch)
    cfg_path = write_config(tmp_path, generators=S3_GENS, checks=["decompose"])
    report = run(load_config(cfg_path))
    assert report["volatile"]["sweep"] == {"form_degree": 2, "recursion": 15, "direct": 2}
    out = tmp_path / "out.json"
    assert main(["analyze", "--config", cfg_path, "--output", str(out), "--jobs", "2"]) == 0
    assert out.read_text() == canonical_json(report)


def test_plane_sweep_takes_the_direct_route():
    # S3 permuting the coordinates of the plane: no recursion off P^1
    report = run(config_from_dict({**BASE, "generators": S3_PLANE_GENS, "n_max": 10,
                                   "checks": ["decompose", "growth"]}))
    assert report["errors"] == {}
    assert report["volatile"]["sweep"] == {"form_degree": None, "recursion": 0, "direct": 11}


def test_one_dimensional_invariants_are_drawn_once(monkeypatch):
    import sympow.pipeline as pipeline

    built = []

    class CountingCokernels(pipeline.Cokernels):
        def __init__(self, G, form):
            built.append(len(form) - 1)
            super().__init__(G, form)

    reference = canonical_json(run(config_from_dict(BASE)))
    monkeypatch.setattr(pipeline, "Cokernels", CountingCokernels)
    report = run(config_from_dict(BASE))
    # C2's degree-1 invariants are the line through x, whose Q_1 is not
    # projective; degree 2 has a two-dimensional space and a form on the first draw
    assert built == [1, 2]
    assert report["volatile"]["sweep"] == {"form_degree": 2, "recursion": 15, "direct": 2}
    assert canonical_json(report) == reference


def test_concurrent_writers_leave_one_whole_document(tmp_path):
    # three processes on two cores sweep one job into one cache directory
    cfg = config_from_dict({**BASE, "generators": S3_GENS, "n_max": 24,
                            "cache_dir": str(tmp_path / "cache")})
    ref = canonical_json(run(config_from_dict({**BASE, "generators": S3_GENS, "n_max": 24})))
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=3, mp_context=spawn) as pool:
        futures = [pool.submit(run, cfg) for _ in range(3)]
        reports = [f.result(timeout=300) for f in futures]
    assert all(canonical_json(r) == ref for r in reports)
    assert os.listdir(tmp_path / "cache") == [f"{job_key(cfg)}.json"]
    assert run(cfg)["volatile"]["cache"] == {"hits": 25, "misses": 0, "corrupt": 0}


def test_sequential_sweep_decomposes_kg_once(tmp_path, monkeypatch):
    import sympow.modules as modules

    calls = []
    real = modules.regular_rep

    def counting(G):
        calls.append(G.order)
        return real(G)

    monkeypatch.setattr(modules, "regular_rep", counting)
    # on P^1 the recursion decomposes only m-dimensional cokernels past the
    # form's degree, so kG may never be split at all
    report = run(config_from_dict({**BASE, "generators": S3_GENS, "n_max": 20,
                                   "checks": ["decompose"]}))
    assert report["errors"] == {}
    assert report["volatile"]["sweep"]["recursion"] > 0
    assert calls in ([], [6])
    calls.clear()
    report = run(config_from_dict({**BASE, "generators": S3_PLANE_GENS, "n_max": 10,
                                   "checks": ["decompose"]}))
    assert report["errors"] == {}
    assert calls == [6]


def test_delta_job_computes_one_character_sequence(monkeypatch):
    import sympow.chars as chars
    import sympow.pipeline as pipeline

    calls = []
    real = chars.sym_brauer_sequence

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(chars, "sym_brauer_sequence", counting)
    monkeypatch.setattr(pipeline, "sym_brauer_sequence", counting)
    report = run(config_from_dict({**BASE, "generators": S3_GENS,
                                   "checks": ["delta_vanishing"]}))
    delta = report["checks"]["delta_vanishing"]
    assert delta["all_vanish_hi"] and not delta["any_vanish_lo"]
    assert len(delta["order_hi"]) == len(delta["order_lo"]) == 36
    assert len(calls) == 1


def test_char_growth_job_computes_one_character_sequence(monkeypatch):
    import sympow.chars as chars
    import sympow.pipeline as pipeline

    calls = []
    real = chars.sym_brauer_sequence

    def counting(*args):
        calls.append(list(args[1]))
        return real(*args)

    monkeypatch.setattr(chars, "sym_brauer_sequence", counting)
    monkeypatch.setattr(pipeline, "sym_brauer_sequence", counting)
    report = run(config_from_dict({**BASE, "generators": S3_GENS, "checks": ["char_growth"]}))
    growth = report["checks"]["char_growth"]
    assert report["errors"] == {} and growth["ok"]
    assert len(growth["classes"]) == 2
    assert len(calls) == 1


def test_seed_override_changes_echo_not_content(tmp_path):
    cfg_path = write_config(tmp_path)
    a, b = str(tmp_path / "s7.json"), str(tmp_path / "s8.json")
    main(["analyze", "--config", cfg_path, "--output", a])
    main(["analyze", "--config", cfg_path, "--output", b, "--seed", "8"])
    ra, rb = json.load(open(a)), json.load(open(b))
    assert ra["echo"]["seed"] == 7 and rb["echo"]["seed"] == 8
    # the decomposition itself is canonical, whatever the seed
    assert ra["checks"]["decompose"]["vectors"] == rb["checks"]["decompose"]["vectors"]


def test_csv_emission_row_counts(tmp_path):
    cfg_path = write_config(tmp_path)
    outdir = tmp_path / "tables"
    rc = main(["analyze", "--config", cfg_path, "--output", str(outdir),
               "--format", "csv"])
    assert rc == 0
    dec = (outdir / "decompositions.csv").read_text().splitlines()
    assert dec[0] == "n,id,mult"
    jpath = str(tmp_path / "ref.json")
    main(["analyze", "--config", cfg_path, "--output", jpath])
    vectors = json.load(open(jpath))["checks"]["decompose"]["vectors"]
    assert len(dec) - 1 == sum(len(v) for v in vectors.values())
    growth = (outdir / "growth.csv").read_text().splitlines()
    assert growth[0] == "residue,degree,coeffs" and len(growth) == 2
    chars = (outdir / "characters.csv").read_text().splitlines()
    assert chars[0] == "n,class_rep,coord,value"


def test_capacity_overflow_degrades_gracefully(tmp_path, monkeypatch):
    monkeypatch.setattr("sympow.groups.SYM_DIM_CAP", 20)
    cfg_path = write_config(
        tmp_path,
        generators=["3 3\n1 0 0\n0 1 0\n0 0 1\n"],
        n_max=10,
        checks=["decompose", "growth", "ramification"],
    )
    out = str(tmp_path / "partial.json")
    assert main(["analyze", "--config", cfg_path, "--output", out]) == 2
    report = json.load(open(out))
    assert any(k.startswith("decompose_n") for k in report["errors"])
    ns = sorted(int(n) for n in report["checks"]["decompose"]["vectors"])
    assert ns == [0, 1, 2, 3, 4]  # C(n+2,2) > 20 first at n = 5
    # independent checks are untouched by the overflow
    assert report["checks"]["growth"]["ok"]
    assert report["checks"]["ramification"]["dimB"] == "empty"


@pytest.mark.parametrize("generator", ["3 3\n1 0 0\n0 1 0\n0 0 1\n",
                                       "3 3\n1 1 0\n0 1 0\n0 0 1\n"],
                         ids=["trivial", "unipotent"])
def test_capacity_overflow_leaves_no_class_behind(monkeypatch, generator):
    # the sweep builds Sym^5 (dimension 21) before it touches the registry
    monkeypatch.setattr("sympow.groups.SYM_DIM_CAP", 20)
    job = {**BASE, "generators": [generator], "checks": ["decompose"]}
    over = run(config_from_dict({**job, "n_max": 10}))
    fits = run(config_from_dict({**job, "n_max": 4}))
    assert list(over["errors"]) == ["decompose_n5"] and fits["errors"] == {}
    assert over["checks"]["decompose"] == fits["checks"]["decompose"]


def test_failing_degree_ends_the_sweep(monkeypatch):
    import sympow.pipeline as pipeline

    built, real_sym_power, real_decompose = [], pipeline.sym_power, pipeline.decompose

    def recording_sym_power(G, n):
        built.append(n)
        return real_sym_power(G, n)

    def failing_decompose(M, registry, seed):
        if M.dim == 10:  # Sym^3 on P^2
            raise RuntimeError("decompose failed")
        return real_decompose(M, registry, seed)

    monkeypatch.setattr(pipeline, "sym_power", recording_sym_power)
    monkeypatch.setattr(pipeline, "decompose", failing_decompose)
    job = {**BASE, "generators": ["3 3\n1 1 0\n0 1 0\n0 0 1\n"]}
    report = run(config_from_dict({**job, "checks": ["decompose"]}))
    assert built == [0, 1, 2, 3]
    assert report["errors"] == {"decompose_n3": "RuntimeError: decompose failed"}
    assert sorted(report["checks"]["decompose"]["vectors"]) == [0, 1, 2]
    # the Koszul stage extends the same sweep, which does not try degree 3 again
    built.clear()
    report = run(config_from_dict({**job, "checks": ["decompose", "koszul"]}))
    assert built == [0, 1, 2, 3]
    assert report["errors"] == {"decompose_n3": "RuntimeError: decompose failed",
                                "koszul": "RuntimeError: decompose failed"}


def test_repeated_koszul_job_in_one_process_does_the_same_work(monkeypatch):
    import sympow.groups as groups
    import sympow.koszul as koszul

    degrees, checks = [], []
    real_stream, real_check = groups.sym_matrix_stream, koszul.is_invariant_form

    def counting_stream(*args, **kwargs):
        for k, S in real_stream(*args, **kwargs):
            degrees.append(k)
            yield k, S

    def counting_check(G, form, deg):
        checks.append(deg)
        return real_check(G, form, deg)

    monkeypatch.setattr(groups, "sym_matrix_stream", counting_stream)
    monkeypatch.setattr(koszul, "is_invariant_form", counting_check)
    cfg = config_from_dict({**BASE, "generators": S3_GENS, "checks": ["koszul"]})
    counts, texts = [], []
    for _ in range(2):
        degrees.clear()
        checks.clear()
        report = run(cfg)
        assert report["errors"] == {}
        counts.append((len(degrees), len(checks)))
        texts.append(canonical_json(report))
    assert counts[0][0] > 0 and counts[0][1] > 0
    assert counts[0] == counts[1]
    assert texts[0] == texts[1]


def test_delta_window_past_sym_cap(tmp_path):
    # GL3(F2) on P^2: at stride 168^2 even the shortest window is past the cap
    gl3 = write_config(tmp_path, "gl3.json", checks=["delta_vanishing"], generators=[
        "3 3\n1 1 0\n0 1 0\n0 0 1\n", "3 3\n0 0 1\n1 0 0\n0 1 0\n"])
    out = str(tmp_path / "gl3_report.json")
    assert main(["analyze", "--config", gl3, "--output", out]) == 2
    assert json.load(open(out))["errors"] == {
        "delta_vanishing": "CapacityError: sym dimension exceeds cap 50000"}
    # the unitriangular 2-group of order 8: only the identity is 2-regular
    u3 = write_config(tmp_path, "u3.json", checks=["delta_vanishing"], generators=[
        "3 3\n1 1 0\n0 1 0\n0 0 1\n", "3 3\n1 0 0\n0 1 1\n0 0 1\n"])
    out = str(tmp_path / "u3_report.json")
    assert main(["analyze", "--config", u3, "--output", out]) == 0
    delta = json.load(open(out))["checks"]["delta_vanishing"]
    assert delta["stride"] == 64 and delta["all_vanish_hi"] and not delta["any_vanish_lo"]


def test_check_subcommand_surfaces_errors(tmp_path):
    cfg_path = write_config(
        tmp_path,
        field={"p": 2, "e": 2},
        generators=["2 2\n01 00\n00 01\n"],
    )
    out = str(tmp_path / "scalar.json")
    rc = main(["check", "--config", cfg_path, "--name", "ramification",
               "--output", out])
    assert rc == 2
    report = json.load(open(out))
    assert "scalar" in report["errors"]["ramification"]


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.mark.parametrize("command", [["analyze"], ["check", "--name", "growth"],
                                     ["decompose", "--n", "3"]],
                         ids=["analyze", "check", "decompose"])
def test_singular_generator_is_one_error_line(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, generators=["2 2\n1 1\n0 1\n", "2 2\n1 1\n1 1\n"])
    assert main([command[0], "--config", cfg_path, *command[1:]]) == 1
    assert _one_error_line(capsys) == "error: generator 1 is not invertible"


@pytest.mark.parametrize("command", [["analyze"], ["check", "--name", "koszul"]],
                         ids=["analyze", "check"])
def test_koszul_on_a_point_is_one_error_line(tmp_path, capsys, command):
    """A one-dimensional action (P^0) has no Koszul forms: the default check
    list under `analyze`, or `check --name koszul` over a config that does
    not list it, is refused before any check runs."""
    checks = None if command[0] == "analyze" else BASE["checks"]
    cfg_path = write_config(tmp_path, field={"p": 2}, generators=["1 1\n1\n"], n_max=8,
                            seed=1, checks=checks)
    out = tmp_path / "report.json"
    assert main([command[0], "--config", cfg_path, *command[1:], "--output", str(out)]) == 1
    assert _one_error_line(capsys) == (
        "error: the koszul check needs an action on at least two coordinates")
    assert not out.exists()
    assert main(["analyze", "--config", write_config(tmp_path, "rest.json", field={"p": 2},
                 generators=["1 1\n1\n"], n_max=8, seed=1,
                 checks=[c for c in CHECKS if c != "koszul"]), "--output", str(out)]) == 0


def test_degree_past_the_sym_cap_is_one_error_line(tmp_path, capsys):
    # C3 permuting three coordinates of P^3 over GF(9): dim Sym^100 = C(103, 3)
    cfg_path = write_config(tmp_path, field={"p": 3, "e": 2}, generators=[
        "4 4\n00 00 10 00\n10 00 00 00\n00 10 00 00\n00 00 00 10\n"])
    assert main(["decompose", "--config", cfg_path, "--n", "100"]) == 1
    assert _one_error_line(capsys) == "error: sym dimension exceeds cap 50000"


def test_unwritable_output_is_one_error_line(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "missing" / "report.json"
    assert main(["analyze", "--config", cfg_path, "--output", str(out)]) == 1
    assert _one_error_line(capsys).startswith("error: [Errno 2] No such file or directory")
    assert not out.parent.exists()


def test_decompose_subcommand_prints_vector(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["decompose", "--config", cfg_path, "--n", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 6
    total = sum(payload["vec"][k] * payload["class_dims"][k] for k in payload["vec"])
    assert total == 7


def test_run_single_matches_full_sweep(tmp_path):
    cfg = config_from_dict({**BASE, "cache_dir": str(tmp_path / "cache")})
    report = run(cfg)
    # warm registry: single-degree ids agree with the sweep's numbering
    single = run_single(cfg, 5)
    assert single["vec"] == report["checks"]["decompose"]["vectors"][5]
    # cold registry: ids are job-local but the class content is the same
    cold = run_single(config_from_dict(BASE), 5)
    assert sorted(cold["class_dims"][m] for m in cold["vec"] for _ in range(cold["vec"][m])) == [2, 2, 2]


def test_echo_materializes_defaults():
    cfg = config_from_dict({**BASE, "checks": ["decompose"]})
    report = run(cfg)
    assert report["echo"]["m_candidates"] == [1, 2, 4]
    assert report["echo"]["seed"] == 7
    assert "jobs" not in report["echo"]


def test_job_key_ignores_whitespace_and_seed():
    cfg_a = config_from_dict(BASE)
    cfg_b = config_from_dict({**BASE, "seed": 99,
                              "generators": ["2 2\n 1  1\n 0  1\n"]})
    assert job_key(cfg_a) == job_key(cfg_b)


def test_canonical_json_drops_volatile():
    cfg = config_from_dict({**BASE, "checks": ["growth"]})
    report = run(cfg)
    assert "volatile" in report and "elapsed_s" in report["volatile"]
    assert '"volatile"' not in canonical_json(report)
