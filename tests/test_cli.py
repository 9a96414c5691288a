import csv
import json
import time

import pytest

import pareto_cat as pc
from pareto_cat.cli import main

from conftest import fixture_doc

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


# ----------------------------------------------------- certify / interleave

def test_certify(capsys):
    code, doc, _ = run_json(capsys, ["certify", STAIRCASE, "1,1", "--epsilon", "1"])
    assert code == 0 and doc["certified"] is True
    code, doc, _ = run_json(capsys, ["certify", STAIRCASE, "1,1"])
    assert code == 0 and doc["certified"] is False
    code, out, err = run(capsys, ["certify", STAIRCASE, "0,0", "--epsilon", "1"])
    assert code == 1  # inadmissible input


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


# ------------------------------------------------------------ shared paths

def test_csv_unsupported_for_scalar_commands(tmp_path, capsys):
    target = tmp_path / "mass.csv"
    code, out, err = run(capsys, ["lambda", CHAIN3, "1,1", "--out", str(target)])
    assert code == 1
    assert "CSV output is not available" in err
    assert not target.exists()


def test_out_writes_json_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["frontier", CHAIN3, "--out", str(target)])
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["frontier_count"] == 4


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
