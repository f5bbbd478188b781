import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from gqcovers.autgroup import automorphism_group
from gqcovers.cli import main, run_suite
from gqcovers.incidence import IncidenceStructure, SubGeometryEmbedding


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cwd = os.getcwd()
    os.chdir(d)
    yield d
    os.chdir(cwd)


@pytest.fixture(scope="module")
def pair_files(workdir):
    """g.json and g.embedding.json (Q(5,2) with its Q(4,2) section) and the
    derived pair under pair/, built in the working directory for the tests
    that read them."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["construct", "--family", "q5q4", "--q", "2", "--out", "g.json"]) == 0
        assert run(["subtend", "--ambient", "g.json", "--embedding", "g.embedding.json",
                    "--out", "pair"]) == 0


def test_construct_and_subtend(workdir, capsys):
    assert run(["construct", "--family", "q5q4", "--q", "2", "--out", "g.json"]) == 0
    assert os.path.exists("g.json") and os.path.exists("g.embedding.json")
    assert (
        run(
            [
                "subtend",
                "--ambient",
                "g.json",
                "--embedding",
                "g.embedding.json",
                "--out",
                "pair",
            ]
        )
        == 0
    )
    for name in ("ambient.json", "embedding.json", "A.json", "E.json", "pi.json", "census.json"):
        assert os.path.exists(os.path.join("pair", name))
    census = json.load(open("pair/census.json"))
    assert census["census"] == {"2": 6}
    assert census["schema_version"] == "1"
    capsys.readouterr()


def test_spg_check_cli(workdir, pair_files, capsys):
    assert run(["spg-check", "--geometry", "pair/E.json", "--expect", "1,4,2,4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "pass" and out["parameters"] == [1, 4, 2, 4]
    # mu is vacuous at q=2, so break a measurable parameter instead
    assert run(["spg-check", "--geometry", "pair/E.json", "--expect", "1,4,3,4"]) == 1


def test_factorize_cli(workdir, pair_files, capsys):
    assert run(["factorize", "--pair", "pair", "--cover", "pair/pi.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["orientation"] == "direct"
    assert out["e_point_perm"] == list(range(6))


def test_enumerate_covers_cli(workdir, pair_files, capsys):
    assert run(["enumerate-covers", "--pair", "pair"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 720


def test_reconstruct_cli(workdir, pair_files, capsys):
    assert run(["reconstruct", "--pair", "pair", "--cover", "pair/pi.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["points"] == 27 and out["lines"] == 45


def test_transversal_cli(workdir, pair_files, capsys):
    assert (
        run(["transversal-config", "--pair", "pair", "--samples", "30", "--seed", "0"])
        == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert out["single_coplanar"] == 30 and out["multi_coplanar"] == 0


def test_aut_and_extend_cli(workdir, pair_files, capsys):
    assert run(["construct", "--family", "grid", "--q", "2", "--out", "grid.json"]) == 0
    capsys.readouterr()
    assert run(["aut", "--geometry", "grid.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 72

    ident = {"points": list(range(15)), "lines": list(range(15))}
    with open("phi.json", "w") as fh:
        json.dump(ident, fh)
    assert (
        run(
            [
                "extend",
                "--ambient",
                "g.json",
                "--embedding",
                "g.embedding.json",
                "--phi",
                "phi.json",
                "--all",
            ]
        )
        == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert out["extension_count"] == 2 and out["kernel_order"] == 2


def test_extend_cli_exit_status(workdir, capsys):
    """Generators of Aut(grid(3)) inside Q(4,3): one without an extension
    gives a failing verdict and exit status 1, one with an extension 0."""
    assert run(["construct", "--family", "q4q3", "--q", "3", "--out", "q43.json"]) == 0
    capsys.readouterr()
    emb = SubGeometryEmbedding.load("q43.embedding.json", IncidenceStructure.load("q43.json"))
    statuses = []
    for gen in automorphism_group(emb.substructure).geometry_generators:
        with open("gen.json", "w") as fh:
            json.dump(gen.to_json_dict(), fh)
        status = run(["extend", "--ambient", "q43.json", "--embedding", "q43.embedding.json",
                      "--phi", "gen.json"])
        out = json.loads(capsys.readouterr().out)
        assert status == (0 if out["verdict"] == "pass" else 1)
        assert (out["extension_count"] > 0) == (out["verdict"] == "pass")
        statuses.append(status)
    assert set(statuses) == {0, 1}


def test_suite_manifest_deterministic(workdir):
    status1, m1 = run_suite("lower-q3", out_dir="suites", seed=0)
    status2, m2 = run_suite("lower-q3", out_dir="suites", seed=0)
    assert status1 == status2 == 0
    m1.pop("timings")
    m2.pop("timings")
    assert m1 == m2


def test_suite_cache_and_no_build(workdir, tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("cache"))
    with pytest.raises(FileNotFoundError):
        run_suite("lower-q3", seed=0, no_build=True, cache=cache)
    status, _m = run_suite("lower-q3", seed=0, cache=cache)
    assert status == 0
    assert os.path.exists(os.path.join(cache, "q5q4-3.json"))
    # now the cache satisfies --no-build
    status, _m = run_suite("lower-q3", seed=0, no_build=True, cache=cache)
    assert status == 0


def test_suite_refuses_optimized_python():
    """python -O strips the asserts the suite checks are made of, so a suite
    must not run there and report every check passed."""
    code = "from gqcovers.cli import run_suite; run_suite('lower-q3')"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, env=env)
    assert proc.returncode != 0 and b"python -O strips" in proc.stderr


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_aut_stabilize_cli(workdir, capsys):
    # stabilize the hyperplane section Q(4,2) inside Aut(Q(5,2))
    assert run(["construct", "--family", "q5q4", "--q", "2", "--out", "stab.json"]) == 0
    emb = json.load(open("stab.embedding.json"))
    with open("subset.json", "w") as fh:
        json.dump({"points": emb["points"], "lines": emb["lines"]}, fh)
    capsys.readouterr()
    assert run(["aut", "--geometry", "stab.json", "--stabilize", "subset.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 51840 and out["stabilizer_order"] == 1440


@pytest.mark.parametrize(
    "subset,message",
    [({"points": [99]}, '"points" holds 99, not an integer in 0..14'),
     ({"lines": [-1]}, '"lines" holds -1, not an integer in 0..14'),
     ({"points": [1.0]}, '"points" holds 1.0, not an integer'),
     ([0, 1], "the subset must be"),
     ({"lines": 3}, "the subset must be")],
    ids=["point-out-of-range", "negative-line", "float-point", "list", "bare-index"],
)
def test_aut_stabilize_rejects_bad_indices(workdir, capsys, subset, message):
    """Index 99 used to crash with an IndexError, and line -1 aliased to the
    last point and passed with stabilizer order 2."""
    assert run(["construct", "--family", "q4", "--q", "2", "--out", "q4.json"]) == 0
    with open("bad-subset.json", "w") as fh:
        json.dump(subset, fh)
    capsys.readouterr()
    with pytest.raises(SystemExit, match=message):
        run(["aut", "--geometry", "q4.json", "--stabilize", "bad-subset.json"])
    assert capsys.readouterr().out == ""
