import csv
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest

import pareto_cat as pc
from pareto_cat.cli import build_parser, main

from conftest import FIXTURES, fixture_doc, many_objectives_doc, worst_case_doc

CHAIN3 = str(pc.fixture_path("chain3"))
CYCLE2 = str(pc.fixture_path("cycle2"))
STAIRCASE = str(pc.fixture_path("staircase"))


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------- validate

def test_validate_ok(capsys):
    code, doc, _ = run_json(capsys, ["validate", CHAIN3])
    assert code == 0
    assert doc["ok"] is True
    assert doc["problems"] == []
    assert doc["objects"] == 4 and doc["system_size"] == 2


def test_validate_reports_problems(tmp_path, capsys):
    bad = fixture_doc("chain3")
    bad["category"]["hom"][2][0] = 0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, doc, _ = run_json(capsys, ["validate", str(p)])
    assert code == 1
    assert doc["ok"] is False
    assert any(q["code"] == "rescat.hom.transitivity" for q in doc["problems"])
    assert all({"code", "path", "message"} <= set(q) for q in doc["problems"])
    # closure on load repairs the missing composite arrow
    code, doc, _ = run_json(capsys, ["validate", str(p), "--close-hom"])
    assert code == 0 and doc["ok"] is True


def test_validate_checks_map_ranges_past_the_cap(tmp_path, capsys):
    bad = fixture_doc("staircase")
    bad["valuations"][0]["map"]["h"][0] = 99
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    for argv in (["validate", str(p)], ["validate", str(p), "--cap", "1"]):
        code, doc, _ = run_json(capsys, argv)
        assert code == 1 and doc["ok"] is False
        assert [(q["code"], q["path"]) for q in doc["problems"]] == [
            ("valuation.range", "valuations[0].map.h")]


def test_validate_past_the_cap_says_what_it_skipped(capsys):
    code, doc, err = run_json(capsys, ["validate", STAIRCASE])
    assert (code, doc["ok"], err) == (0, True, "")
    code, capped, err = run_json(capsys, ["validate", STAIRCASE, "--cap", "1"])
    assert (code, capped) == (0, doc)
    assert err == ("pareto-cat: warning: valuation.iso_respect not checked: "
                   "4^2 systems exceeds cap 1\n")


def test_missing_file_is_a_domain_error(capsys):
    code, out, err = run(capsys, ["validate", "/no/such/file.json"])
    assert code == 1
    assert "parse.io" in err


def test_unparseable_file(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{ nope")
    code, out, err = run(capsys, ["validate", str(p)])
    assert code == 1
    assert "parse.json" in err


# ---------------------------------------------------------------- frontier

def test_frontier_json(capsys):
    code, doc, err = run_json(capsys, ["frontier", CHAIN3])
    assert code == 0
    assert doc["frontier_count"] == 4
    assert doc["admissible_count"] == 15
    reps = {tuple(g["representative"]) for g in doc["groups"]}
    assert reps == {(0, 1), (1, 0)}


def test_frontier_csv(tmp_path, capsys):
    target = tmp_path / "front.csv"
    code, out, err = run(capsys, ["frontier", CHAIN3, "--out", str(target)])
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "group,representative,member"
    assert len(lines) == 5  # header + 4 frontier members
    assert out == ""  # redirected, nothing on stdout


def test_frontier_thread_count_invariance(capsys):
    code1, out1, _ = run(capsys, ["frontier", STAIRCASE, "--threads", "1"])
    code2, out2, _ = run(capsys, ["frontier", STAIRCASE, "--threads", "4"])
    assert code1 == code2 == 0
    assert out1 == out2


# ------------------------------------------------------------------ lambda

def test_lambda_float_and_exact(capsys):
    code, doc, _ = run_json(capsys, ["lambda", CHAIN3, "1,1"])
    assert code == 0
    assert doc["mass"] == pytest.approx(0.32)
    assert doc["on_frontier"] is False
    code, doc, _ = run_json(capsys, ["lambda", CHAIN3, "1,1", "--exact"])
    assert doc["mass"] == "8/25"
    code, doc, _ = run_json(capsys, ["lambda", CHAIN3, "0,1"])
    assert doc["mass"] == 0 and doc["on_frontier"] is True


@pytest.mark.parametrize("count", [64, 65])
def test_frontier_and_lambda_past_64_objectives(tmp_path, capsys, count):
    path = tmp_path / "many.json"
    path.write_text(json.dumps(many_objectives_doc(count)))
    code, doc, _ = run_json(capsys, ["frontier", str(path)])
    assert code == 0
    assert doc["frontier_count"] == 1
    assert [g["members"] for g in doc["groups"]] == [[[1]]]
    code, doc, _ = run_json(capsys, ["lambda", str(path), "0", "--exact"])
    assert code == 0
    assert doc == {"system": [0], "mass": "1/2", "on_frontier": False}


def test_lambda_rejects_bad_system(capsys):
    code, out, err = run(capsys, ["lambda", CHAIN3, "1,9"])
    assert code == 1 and "error" in err
    code, out, err = run(capsys, ["lambda", CHAIN3, "1"])
    assert code == 1
    code, out, err = run(capsys, ["lambda", CHAIN3, "x,y"])
    assert code == 1


def test_lambda_inadmissible_system(capsys):
    code, out, err = run(capsys, ["lambda", CHAIN3, "0,0"])
    assert code == 1 and "error" in err


# ---------------------------------------------------------------- particle

def test_particle_deterministic_and_seeded(capsys):
    argv = ["particle", CHAIN3, "--draws", "6", "--seed", "3"]
    code1, out1, err1 = run(capsys, argv)
    code2, out2, err2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "generated seed" not in err1
    doc = json.loads(out1)
    assert doc["seed"] == 3
    assert len(doc["draws"]) == 7
    assert sum(doc["coeffs"]) == pytest.approx(1.0, abs=1e-12)


def test_particle_generates_and_reports_seed(capsys):
    code, out, err = run(capsys, ["particle", CHAIN3, "--draws", "2"])
    assert code == 0
    assert "generated seed" in err
    doc = json.loads(out)
    assert isinstance(doc["seed"], int)


def test_particle_exact_output(capsys):
    code, doc, _ = run_json(
        capsys, ["particle", CYCLE2, "--draws", "5", "--seed", "8", "--exact"]
    )
    assert code == 0
    assert all(isinstance(v, str) for v in doc["jump_probs"])
    assert set(doc["jump_probs"]) == {"1/3"}
    assert doc["coeffs"][-1] == "1/3"


# ------------------------------------------------------------------- swarm

def test_swarm_json_and_csv(tmp_path, capsys):
    argv = ["swarm", STAIRCASE, "--particles", "3", "--draws", "6", "--seed", "4",
            "--epsilon", "1"]
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert doc["config"] == {"particles": 3, "draws": 6, "epsilon": 1, "seed": 4}
    assert doc["statistics"]["precision"] in (None, 1.0)

    target = tmp_path / "flags.csv"
    code, out, _ = run(capsys, argv + ["--out", str(target)])
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "particle,draw_index,system,epsilon,witness"
    assert len(lines) == len(doc["flagged"]) + 1


def test_swarm_refuses_to_list_too_many_chains(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["swarm", CYCLE2, "--particles", "1", "--draws", "50",
                                  "--seed", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == ("pareto-cat: error: listing 290304 longest chains of length 27 "
                   "exceeds cap 1000000\n")


def test_swarm_byte_identical_across_runs_and_threads(capsys):
    base = ["swarm", CHAIN3, "--particles", "4", "--draws", "8", "--seed", "12",
            "--epsilon", "1"]
    outs = []
    for argv in (base + ["--threads", "1"], base + ["--threads", "1"],
                 base + ["--threads", "8"]):
        code, out, _ = run(capsys, argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def _frontier_rows(doc):
    return [[str(gi), " ".join(map(str, g["representative"])), " ".join(map(str, m))]
            for gi, g in enumerate(doc["groups"]) for m in g["members"]]


def _flag_rows(doc):
    return [[str(f["particle"]), str(f["draw_index"]), " ".join(map(str, f["functor"])),
             str(f["epsilon"]), ";".join(f"{p}:{d}" for p, d in f["witness"])]
            for f in doc["flagged"]]


@pytest.mark.parametrize("argv, rows", [
    (["frontier", CHAIN3], _frontier_rows),
    (["swarm", STAIRCASE, "--particles", "8", "--draws", "20", "--epsilon", "1",
      "--seed", "2026"], _flag_rows),
])
def test_csv_rows_match_json_output(tmp_path, capsys, argv, rows):
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, argv + ["--out", str(target)])
    assert code == 0 and out == ""
    with open(target, newline="") as fh:
        written = list(csv.reader(fh))
    assert written[1:] == rows(doc) != []


def _csv_writer_text(rows) -> bytes:
    fh = io.StringIO(newline="")
    csv.writer(fh).writerows(rows)
    return fh.getvalue().encode()


@pytest.mark.parametrize("argv, header, rows", [
    *((["frontier", str(pc.fixture_path(name))], ["group", "representative", "member"],
      _frontier_rows) for name in FIXTURES),
    (["swarm", STAIRCASE, "--particles", "8", "--draws", "20", "--epsilon", "1",
      "--seed", "2026"], ["particle", "draw_index", "system", "epsilon", "witness"],
     _flag_rows),
])
def test_csv_text_is_what_csv_writer_writes(tmp_path, capsys, argv, header, rows):
    """The CSV text is written by format strings; ``csv.writer`` would
    write the same bytes from the JSON document's rows."""
    code, doc, _ = run_json(capsys, argv)
    target = tmp_path / "out.csv"
    assert run(capsys, argv + ["--out", str(target)])[0] == code == 0
    assert target.read_bytes() == _csv_writer_text([header] + rows(doc))


# ------------------------------------------- the worst case at the default cap

# sha256 of ``frontier --out x.csv`` on worst_case_doc(n), n = 0..8, as
# ``csv.writer`` wrote it before the CSV text was written by format strings
WORST_CASE_CSV_DIGESTS = (
    "80db39acf4749ff002e11dba21983d34ae8c9ad1847d07da5c059c217852e52f",
    "f4561379a9dedcc30dc64d689050afef0f0e34261d761d5dfac050bc5095cb99",
    "4e153f91a578d286475ecde6609b40708d33b2877cc57d81f870c8beced97cd1",
    "6bf7ba4295ce71fbb479d0368ef7a86c5cc4bd69f327f465419d825239a4a665",
    "5fe1b5e61f4d0a43af0f33cde044c351650c7f2d7b70ce5fb297d1c908236db1",
    "eddb50eafd2baccd42711619bae01530aebc2f11535a6b76123da40879cdf4a0",
    "d27f0678f6a29959c1783277f404ed40ff61eb14ac578e2ebff3e8b856a277bd",
    "0f667ede01748155351ede40f9e59ba0c67ad24db20d0f20f6c05d46c070a242",
    "75e8d7160146058fe52cbb571c318aefa2117f2c334aa8de7e5b4146ac9d00e5",
)


@pytest.mark.parametrize("n", range(len(WORST_CASE_CSV_DIGESTS)))
def test_worst_case_frontier_bytes(tmp_path, capsys, n):
    path = tmp_path / "worst.json"
    path.write_text(json.dumps(worst_case_doc(n)))
    code, out, err = run(capsys, ["frontier", str(path)])
    assert (code, err) == (0, "")
    result = pc.pareto_frontier(pc.load_instance(path).system)
    assert out == json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
    target = tmp_path / "x.csv"
    assert run(capsys, ["frontier", str(path), "--out", str(target)])[:2] == (0, "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == WORST_CASE_CSV_DIGESTS[n]


# Runs the command given as its arguments, its stdout sent to /dev/null,
# and prints the child's peak RSS in KiB. A fresh process, so no earlier
# child's peak counts.
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""
# At n = 19 (524,288 systems, a 288 MB JSON text, a 44 MB CSV text) either
# run peaks at ~102 MB: ~44 MB is the interpreter, numpy and the load, and
# the rest the frontier's tables and one chunk of rows at a time. Holding
# the text whole took 2,531 MB (JSON) and 679 MB (CSV).
PEAK_RSS_MB = 150


@pytest.mark.parametrize("out", [None, "x.csv"], ids=["json", "csv"])
def test_worst_case_frontier_peak_rss_at_the_cap(tmp_path, out):
    path = tmp_path / "worst.json"
    path.write_text(json.dumps(worst_case_doc(19)))
    argv = [sys.executable, "-m", "pareto_cat.cli", "frontier", str(path)]
    if out:
        argv += ["--out", str(tmp_path / out)]
    peak = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True,
                          text=True, check=True).stdout
    assert int(peak) / 1024 < PEAK_RSS_MB
    if out:
        with open(tmp_path / out, "rb") as fh:
            assert sum(1 for _ in fh) == 2**19  # the header and 2^19 - 1 members


# ----------------------------------------------------- certify / interleave

def test_certify(capsys):
    code, doc, _ = run_json(capsys, ["certify", STAIRCASE, "1,1", "--epsilon", "1"])
    assert code == 0 and doc["certified"] is True
    code, doc, _ = run_json(capsys, ["certify", STAIRCASE, "1,1"])
    assert code == 0 and doc["certified"] is False
    code, out, err = run(capsys, ["certify", STAIRCASE, "0,0", "--epsilon", "1"])
    assert code == 1  # inadmissible input


def test_certify_rejects_negative_epsilon(capsys):
    code, out, err = run(capsys, ["certify", STAIRCASE, "0,1", "--epsilon", "-1"])
    assert code == 1 and out == ""
    assert err == "pareto-cat: error: epsilon must be non-negative, got -1\n"



@pytest.mark.parametrize("argv, seed", [
    (["particle", STAIRCASE, "--draws", "2"], "-1"),
    (["swarm", STAIRCASE, "--particles", "1", "--draws", "2"], "-3")])
def test_negative_seed_is_one_error_line(capsys, argv, seed):
    code, out, err = run(capsys, argv + ["--seed", seed])
    assert code == 1 and out == ""
    assert err == f"pareto-cat: error: seed must be non-negative, got {seed}\n"


def test_interleave(capsys):
    code, doc, _ = run_json(capsys, ["interleave", STAIRCASE, "1,1", "0,1"])
    assert code == 0 and doc["distance"] == 1
    code, doc, _ = run_json(capsys, ["interleave", CYCLE2, "1", "2"])
    assert code == 0 and doc["distance"] == "inf"
    code, out, err = run(capsys, ["interleave", STAIRCASE, "1,1", "0,1",
                                  "--alpha", "7"])
    assert code == 1


def test_rate(capsys):
    code, doc, _ = run_json(capsys, ["rate", CHAIN3, "2", "1"])
    assert code == 0
    assert doc["rate"] is not None
    code, out, err = run(capsys, ["rate", CHAIN3, "9", "1"])
    assert code == 1


def test_rate_reads_a_huge_window_off_the_power_cycle(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["rate", CHAIN3, "3", "0", "--n-max", "1000000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["rate"] == "1000000000"


def test_out_of_range_alpha_and_object_ids_are_one_error_line(capsys):
    assert run(capsys, ["rate", CHAIN3, "9", "1"]) == (
        1, "", "pareto-cat: error: object id out of range: (9,1)\n")
    assert run(capsys, ["interleave", STAIRCASE, "1,1", "0,1", "--alpha", "-1"]) == (
        1, "", "pareto-cat: error: alpha must be in 0..1\n")


# ------------------------------------------------------------ shared paths

def test_csv_unsupported_for_scalar_commands(tmp_path, capsys):
    target = tmp_path / "result.csv"
    for argv in (["validate", CHAIN3],
                 ["lambda", CHAIN3, "1,1"],
                 ["particle", CHAIN3, "--draws", "2", "--seed", "1"],
                 ["certify", STAIRCASE, "1,1", "--epsilon", "1"],
                 ["interleave", STAIRCASE, "1,1", "0,1"],
                 ["rate", CHAIN3, "2", "1"]):
        code, out, err = run(capsys, argv + ["--out", str(target)])
        assert (code, out) == (1, ""), argv
        assert "CSV output is not available" in err
        assert not target.exists()


def test_out_writes_json_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["frontier", CHAIN3, "--out", str(target)])
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["frontier_count"] == 4


@pytest.mark.parametrize("name", ["report.json", "report.csv"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, where, name):
    target = tmp_path / "absent" / name
    if where == "directory":
        target = tmp_path / name
        target.mkdir()
    code, out, err = run(capsys, ["frontier", STAIRCASE, "--out", str(target)])
    assert code == 1 and out == ""
    assert err.startswith(f"pareto-cat: error: cannot write {target}: ")
    assert err.count("\n") == 1


def test_empty_admissible_warning_and_failures(tmp_path, capsys):
    doc = {
        "category": {
            "objects": 2,
            "hom": [[1, 0], [0, 1]],
            "iso_classes": [[0], [1]],
            "unit": 0,
            "tensor": [[0, 1], [1, 1]],
        },
        "system_size": 1,
        "valuations": [{
            "target": {"objects": 2, "hom": [[1, 0], [0, 1]],
                       "iso_classes": [[0], [1]]},
            "goal": 1,
            "map": {"kind": "composed", "h": [0, 0]},
        }],
        "distribution": {"weights": [0.5, 0.5]},
    }
    p = tmp_path / "void.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["frontier", str(p)])
    assert code == 0
    assert "admissible mass is zero" in err
    assert json.loads(out)["groups"] == []
    code, out, err = run(capsys, ["particle", str(p), "--draws", "2", "--seed", "1"])
    assert code == 1
    assert "admissible mass is zero" in err


def test_swarm_on_an_empty_admissible_set_is_one_domain_error(tmp_path, capsys):
    doc = fixture_doc("chain3")
    doc["valuations"][0]["map"]["h"] = [0, 0, 0, 0]
    doc["valuations"][0]["goal"] = 2  # no arrow 0 -> 2
    p = tmp_path / "void.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["swarm", str(p), "--particles", "2", "--draws", "2",
                                  "--seed", "1"])
    assert code == 1 and out == ""
    assert "admissible mass is zero" in err
    assert err.endswith("pareto-cat: error: cannot sample: no admissible systems\n")


def test_queries_without_a_scale_section_name_it(tmp_path, capsys):
    doc = fixture_doc("chain3")
    doc.pop("scale")
    p = tmp_path / "unscaled.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["interleave", str(p), "1,1", "0,1"])
    assert code == 1 and out == ""
    assert err.startswith("pareto-cat: error: scale.missing at scale: ")
    messages = set()
    for argv in (["swarm", str(p), "--particles", "2", "--draws", "2", "--seed", "1"],
                 ["certify", str(p), "1,1", "--epsilon", "1"]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        messages.add(err)
    assert messages == {"pareto-cat: error: this query needs the instance's scale section\n"}


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frontier"])  # missing instance path
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["particle", CHAIN3])  # missing required --draws
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command", CHAIN3])
    assert e.value.code == 2
    for command in (["frontier", CHAIN3], ["lambda", CHAIN3, "1,1"],
                    ["swarm", CHAIN3, "--particles", "2", "--draws", "2"]):
        with pytest.raises(SystemExit) as e:
            main(command + ["--threads", "0"])
        assert e.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["particle", CHAIN3, "--draws", "2", "--seed", "1", "--budget", "-5"],
    ["particle", CHAIN3, "--draws", "2", "--seed", "1", "--budget", "0"],
    ["frontier", CHAIN3, "--cap", "-1"],
    ["frontier", CHAIN3, "--cap", "0"],
], ids=["budget-negative", "budget-zero", "cap-negative", "cap-zero"])
def test_non_positive_budget_and_cap_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be a positive integer" in err


def test_every_option_has_help():
    """``--help`` describes every argument of every subcommand."""
    sub, = (a for a in build_parser()._actions if a.choices)
    missing = [f"{name} {'/'.join(a.option_strings) or a.dest}"
               for name, parser in sub.choices.items() for a in parser._actions
               if a.option_strings != ["-h", "--help"] and not a.help]
    assert missing == []


# ------------------------------------------------------- frozen output bytes

# sha256 of each command's stdout, as printed before the chain walk kept
# one record per class vector and per rank: any change to the stochastic
# route's bytes shows here.
STOCHASTIC_ARGS = {
    "swarm": ["swarm", "--particles", "4", "--draws", "24", "--epsilon", "1"],
    "particle": ["particle", "--draws", "40"],
    "particle-exact": ["particle", "--draws", "40", "--exact"],
}
STOCHASTIC_DIGESTS = {
    ("swarm", "chain3"): (
        "0c97b7588b273ed1811d1916aaa98457104f8f36d126b55c45b0476af983caea",
        "4a10d60fa4d76568bbb1e11d1abe22afb8691527b98631d44156028a72edf366",
        "435c2b980f546ad9507d91101f74ad2db0fc6420e7efe63fb08ae0203c4a9aa1",
    ),
    ("particle", "chain3"): (
        "0421b495810b2228599bfdbd29a5b3e411be69951414c940884d7b652363c79d",
        "e8c07045c4fe1f508d6a7d101e869ccd3c15d1a930c171f07cc6fecf1bec78e9",
        "6b30b75aa27e31d647290699a4beaa47f03792f4be413390617401e47c0a048a",
    ),
    ("particle-exact", "chain3"): (
        "c99b103063e1332b5ba0185b33ebe5be8c6f71093f338d5141b596ec45f48878",
        "edf3986646942f89aa45755f7059f34ffc4bb08c0c9508a2ec40f701c2180234",
        "1ff8df305edf6f00d955f257f62b0e9df07a60bba04af296e657c39424793428",
    ),
    ("swarm", "cycle2"): (
        "2a07302763ef26883c21e812237a447dfb5bf1fb2edadf1b0cbd5eaaefdc5323",
        "4102df646920afa041d2314ad4b11c6f2806ff924aedff80afe480277bdae48d",
        "44130809e322292795ae74fe4cf724f65bd42c5649b0177600ad1751d3fd7ff8",
    ),
    ("particle", "cycle2"): (
        "27c751ece47a3f88ae2b2d592c386cc21e9fda64c0059a9fcc72e2c7bae8ae87",
        "c128effe3d77c83c3f727d3d33a2486b64b330f37713ab97526ced5d0b8bd864",
        "e1ee1ee2bf05638ec390b72d53099a53588fe5ed97a9130b50bf031dc666a0cf",
    ),
    ("particle-exact", "cycle2"): (
        "317b2f5ffdf4928fb0a59f606d89c859efe5771a0618c227aea348a8a5d7c18e",
        "e67fa11f9c855880aaf791256fe9b94abd19099f3bdd50aa32fd3b1637fda491",
        "e3a4fdcbf1c5df96b714c9ed884d50937407f6e5bd44593043637118a44bbaec",
    ),
    ("swarm", "staircase"): (
        "c2424cfc4bf2aeb667ad91f44d40040fbf9474f0de6fd7ed48ac2ba11c03f729",
        "dd5ccd2a46fc2e321bb8e8ad3a915e01c68497812fa1e343df027bd904be0a6f",
        "89de224cbcf2633b6b67151ffefe95f078cf5d3ec31c198e9b3a97af9411bafd",
    ),
    ("particle", "staircase"): (
        "a69430c185291421f351be9e446782f31bc52d158d9620c19f29efff46ce1fd3",
        "90f63c4ac659edf555e18ab7d66d1272bcca7f0d19c93f615d00244174ba583b",
        "fd99e14882ba2b45db4050dca4c8f268604d96e5c194192873a03d25ff0c53c6",
    ),
    ("particle-exact", "staircase"): (
        "84da41822877ccdc2fa6ec5442aaf9cc955a164887f82e22996f974505f5df3b",
        "a08bac066e5124be6ea30cc569176d9537dde352d8d1f55d69f5497b40474390",
        "6ce8e3ea27747a33521aae55209b57079fe40d18ff4f82400c64b979d2245816",
    ),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("command, name", sorted(STOCHASTIC_DIGESTS))
def test_stochastic_route_bytes_are_frozen(capsys, command, name, seed):
    cmd, *options = STOCHASTIC_ARGS[command]
    code, out, _ = run(capsys, [cmd, str(pc.fixture_path(name)), *options, "--seed", str(seed)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STOCHASTIC_DIGESTS[command, name][seed - 1]


# sha256 of each deterministic command's output on every bundled fixture
# (stdout, or the file ``--out`` writes for ``frontier-csv``), as printed
# before ``main`` took over each subcommand's load and emit. ``{x}`` and
# ``{y}`` stand for the fixture's query systems below.
DETERMINISTIC_ARGS = {
    "validate": ["validate"],
    "frontier": ["frontier"],
    "frontier-csv": ["frontier", "--out", "{csv}"],
    "lambda": ["lambda", "{x}"],
    "lambda-exact": ["lambda", "{x}", "--exact"],
    "certify": ["certify", "{x}", "--epsilon", "1"],
    "interleave": ["interleave", "{x}", "{y}"],
    "rate": ["rate", "2", "1"],
}
QUERY_SYSTEMS = {"chain3": ("1,1", "0,1"), "cycle2": ("1", "2"),
                 "staircase": ("1,1", "0,1")}
DETERMINISTIC_DIGESTS = {
    ("validate", "chain3"):
        "b4d88b84148a82f8b139dab1fbc67b48689b5f3c0d7a692b00ffb8b9d0bddcba",
    ("validate", "cycle2"):
        "a17fa0ad2e5aa9dc76f0a3d7c4f8ce24fadcbb6a2b646bdfd66be64920030571",
    ("validate", "staircase"):
        "12b41ae3dc44a7e2c729c552dab3dda74adf0199c0a4b15605bfd04ae539bc26",
    ("frontier", "chain3"):
        "3adc99893c87871de6467937cec2acdb3f17e6b072be5873f9d9da499b5ce4cb",
    ("frontier", "cycle2"):
        "18abc442249942bd995da1753b91035dc26dd1f79b64e556250e500a7fdcefdf",
    ("frontier", "staircase"):
        "69b6f9d270c654f68dddcce264de6303dfbf434d43d4f196330714f808f064d2",
    ("frontier-csv", "chain3"):
        "aa3035c9e39bc2fac827d63ae1aa1920943d686981b9ea3205fc0234b8420ab5",
    ("frontier-csv", "cycle2"):
        "34dae1f88218b7ba7f075eb1598bdfeada4cb66c402c2b4feaa0e4212cfedc71",
    ("frontier-csv", "staircase"):
        "19a49c01d2d954b0c6c4ea5cba03c87d45588139b2379e85f08484b418849d60",
    ("lambda", "chain3"):
        "8ceaaa6c1b793f1767db652d3b9f86b4349cfcb7aa19846bad23735901d8ebcb",
    ("lambda", "cycle2"):
        "724cde84cbf95a0bcfc3d6b3c03016d11e447023ef50815a78b3ade12eca63c2",
    ("lambda", "staircase"):
        "db4e387c71fd872cf70884157b282dc4fde15595adc269288c57a16688b04e34",
    ("lambda-exact", "chain3"):
        "b77f754064cd95d308a95171a823e8483c885437c59dec7babe39b2b831db3ed",
    ("lambda-exact", "cycle2"):
        "9b9fb0183f9f1a989ac9d5d841cb3ac3f240cb898ae07a2117e7def2a6f71b9e",
    ("lambda-exact", "staircase"):
        "51b6a92e3630a6b352f8c90b81eb998a472ae3f03941872cd0929fab97f58646",
    ("certify", "chain3"):
        "d7d3132e77e83c874c7b0aafdf41973d610d593951f3a84628cd54b97876294a",
    ("certify", "cycle2"):
        "3c1774d60c86de967b80e29919fe284464dd578d1a42342987946e6f75ffaa0d",
    ("certify", "staircase"):
        "d7d3132e77e83c874c7b0aafdf41973d610d593951f3a84628cd54b97876294a",
    ("interleave", "chain3"):
        "f07acfb8708e55a0f5a57d0208e773966a92f6a9e941b38dae5fe37159f67ba0",
    ("interleave", "cycle2"):
        "a9531ceaca8fd20ab9cf7f6f4c4c730f22259fae630146e6bb3c89856832d546",
    ("interleave", "staircase"):
        "f07acfb8708e55a0f5a57d0208e773966a92f6a9e941b38dae5fe37159f67ba0",
    ("rate", "chain3"):
        "226b53f3c6a939cd805f246ef1367d7f04eb728ba61feee0f57304eae0a0483f",
    ("rate", "cycle2"):
        "226b53f3c6a939cd805f246ef1367d7f04eb728ba61feee0f57304eae0a0483f",
    ("rate", "staircase"):
        "10b25f25035190e8ee42d31cf6c303d66a0cdba5e0d2c5065bd261ffa7337b95",
}


@pytest.mark.parametrize("command, name", sorted(DETERMINISTIC_DIGESTS))
def test_deterministic_route_bytes_are_frozen(tmp_path, capsys, command, name):
    cmd, *options = DETERMINISTIC_ARGS[command]
    x, y = QUERY_SYSTEMS[name]
    target = tmp_path / "out.csv"
    options = [o.format(x=x, y=y, csv=target) for o in options]
    code, out, err = run(capsys, [cmd, str(pc.fixture_path(name)), *options])
    assert (code, err) == (0, "")
    data = out.encode()
    if command == "frontier-csv":
        assert out == ""
        data = target.read_bytes()
    assert hashlib.sha256(data).hexdigest() == DETERMINISTIC_DIGESTS[command, name]
