import json
import math
from fractions import Fraction as F

import pytest

import pentakin.cli as cli
from helpers import ar_planar_pentapod, three_real_darboux_pentapod
from pentakin.cli import build_parser, load_geometry, run_command

REFERENCE_GEOMETRY = {
    "platform": ["0", "1", "3", "-1", "-2"],
    "base": [["0", "0", "0"], ["0", "1", "-1"], ["3/5", "6/5", "3"],
             ["1", "0", "1/3"], ["6/5", "2/5", "1/2"]],
}

REFERENCE_QUARTIC = ["76425120000", "-291209472000", "241133479200",
                     "69486876480", "4316636297"]


@pytest.fixture
def geom_file(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(REFERENCE_GEOMETRY))
    return str(path)


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestGeometryIO:

    def test_roundtrip_exact(self, geom_file):
        p = load_geometry(geom_file)
        assert p.platform == (0, 1, 3, -1, -2)
        assert p.legs[2].base == (F(3, 5), F(6, 5), 3)

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = run_command(["classify", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_frame_transform(self, tmp_path):
        doc = dict(REFERENCE_GEOMETRY)
        doc["frame"] = {"rotation": [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                        "translation": [1, 2, 3]}
        path = tmp_path / "framed.json"
        path.write_text(json.dumps(doc))
        p = load_geometry(str(path))
        assert p.legs[1].base == (0 - 1 + 1, 0 + 2, -1 + 3)


class TestCommands:

    def test_classify(self, geom_file, capsys):
        code, doc = run(capsys, "classify", geom_file)
        assert code == 0
        assert doc["type"] == "Type1"
        assert doc["archSingular"] is False

    def test_dk_exact(self, geom_file, capsys):
        code, doc = run(capsys, "dk", geom_file, "--lengths", "2,1,5,3,4",
                        "--exact")
        assert code == 0
        assert doc["degree"] == 4
        assert doc["coefficients"] == REFERENCE_QUARTIC
        for sol in doc["realSolutions"]:
            assert sol["residual"] <= 1e-9

    def test_bonds(self, geom_file, capsys):
        code, doc = run(capsys, "bonds", geom_file)
        assert code == 0
        assert doc["hasBond"] and doc["jacobianRank"] == 7
        assert len(doc["bonds"]) == 2

    def test_maxreal(self, geom_file, capsys):
        code, doc = run(capsys, "maxreal", geom_file)
        assert code == 0
        assert doc["maxRealSolutions"] == 4

    def test_validate_failure_names_item(self, tmp_path, capsys):
        doc = {"platform": [0, 0, 0, 1, 2],
               "base": [[0, 0, 0], [1, 0, 0], [2, 1, 0], [1, 1, 1],
                        [2, 2, 2]]}
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(doc))
        code = run_command(["validate", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["violations"][0]["item"] == "i"

    def test_arch_singular_exit_code(self, tmp_path, capsys):
        doc = {"platform": [0, 1, 2, 3, 4],
               "base": [[0, 0, 0], [1, 0, 0], [4, 0, 0], [9, 0, 0],
                        [16, 0, 0]]}
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(doc))
        code = run_command(["classify", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert out["archSingular"] is True and out["case"] == 5

    def test_synth_exact(self, capsys):
        code, doc = run(capsys, "synth", "--type", "1", "--a2", "0,1",
                        "--a4", "2", "--m5", "1,1,1", "--r1sq", "3",
                        "--exact", "--legs-at", "0,1,2")
        assert code == 0
        assert doc["p2"] == {"re": "-3/25", "im": "-21/25"}
        assert doc["p4"] == "-3/5"
        assert doc["p5"] == "46/75"
        assert doc["legs"][1]["r2"] == "142/75"
        assert "error" in doc["legs"][2]  # exceptional platform point

    def test_trace_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, doc = run(capsys, "trace", "--type", "1", "--a2", "0,1",
                        "--a4", "2", "--m5", "1,1,1", "--r1sq", "3",
                        "--samples", "10", "--out", str(out),
                        "--track", "0,1")
        assert code == 0 and doc["real"]
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,y1,y2,y3,px_0,py_0,pz_0,px_1,py_1,pz_1"
        row = [float(v) for v in lines[1].split(",")]
        assert len(row) == 13
        # tracked point 0 is the displaced platform origin: (-y1, -y2, -y3)
        assert math.isclose(row[7], -row[4], rel_tol=1e-12)

    def test_deterministic_reports(self, geom_file, capsys):
        _, doc1 = run(capsys, "dk", geom_file, "--lengths", "2,1,5,3,4")
        _, doc2 = run(capsys, "dk", geom_file, "--lengths", "2,1,5,3,4")
        assert doc1 == doc2


def _geometry_file(tmp_path, p, name):
    path = tmp_path / name
    path.write_text(json.dumps({
        "platform": [str(leg.a) for leg in p.legs],
        "base": [[str(c) for c in leg.base] for leg in p.legs]}))
    return str(path)


class TestReports:

    def test_real_darboux_points_emitted_real(self, tmp_path, capsys):
        path = _geometry_file(tmp_path, three_real_darboux_pentapod(),
                              "generic.json")
        code, doc = run(capsys, "classify", path)
        assert code == 0 and doc["type"] == "Type1"
        points = doc["darbouxPoints"]
        assert len(points) == 3
        assert all(dp["real"] is True and isinstance(dp["a"], float)
                   for dp in points)
        assert [dp["a"] for dp in points] == sorted(dp["a"] for dp in points)

    def test_bond_multiplicity_is_integer(self, tmp_path, capsys):
        path = _geometry_file(tmp_path, ar_planar_pentapod(), "ar.json")
        code, doc = run(capsys, "bonds", path)
        assert code == 0 and len(doc["bonds"]) == 2
        assert all(type(b["multiplicity"]) is int for b in doc["bonds"])


class TestTolerance:

    def test_tol_reaches_dk_and_bonds(self, geom_file, capsys, monkeypatch):
        seen = {}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                seen[name] = kwargs.get("tol")
                return fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, wrapped)

        spy("solve_dk", cli.solve_dk)
        spy("necessity_verdict", cli.necessity_verdict)
        assert run(capsys, "dk", geom_file, "--lengths", "2,1,5,3,4",
                   "--tol", "1e-7")[0] == 0
        assert run(capsys, "bonds", geom_file, "--tol", "1e-7")[0] == 0
        assert seen == {"solve_dk": 1e-7, "necessity_verdict": 1e-7}

    def test_help_names_exact_commands(self):
        sub = next(a for a in build_parser()._actions
                   if a.dest == "command").choices
        for name in ("validate", "classify", "maxreal", "synth"):
            tol = next(a for a in sub[name]._actions if a.dest == "tol")
            assert "ignored" in tol.help
        for name in ("dk", "bonds", "trace"):
            tol = next(a for a in sub[name]._actions if a.dest == "tol")
            assert tol.default == 1e-9 and "ignored" not in tol.help


def _reference_with(**changes):
    doc = json.loads(json.dumps(REFERENCE_GEOMETRY))
    doc.update(changes)
    return doc


# degenerate but well-formed geometries, and the exit code each must give
_COINCIDENT = _reference_with(
    platform=["0", "0", "3", "-1", "-2"],
    base=[["0", "0", "0"]] * 2 + REFERENCE_GEOMETRY["base"][2:],
    lengths=[2, 2, 5, 3, 4])
_ZERO_LENGTH = _reference_with(lengths=[0, 1, 5, 3, 4])
_NO_REAL_POSE = _reference_with(lengths=[100, "1/100", 100, "1/100", 100])

# malformed geometries: each must end in exit 1 with a JSON error
_MALFORMED = {
    "top-level-number": 5,
    "platform-number": _reference_with(platform=5),
    "base-entry-number": _reference_with(
        base=REFERENCE_GEOMETRY["base"][:4] + [5]),
    "lengths-number": _reference_with(lengths=5),
    "frame-list": _reference_with(frame=[1]),
    "platform-true": _reference_with(platform=["0", "1", "3", "-1", True]),
    "platform-false": _reference_with(platform=[False, "1", "3", "-1", "-2"]),
}


class TestContract:

    @pytest.mark.parametrize("command",
                             ["dk", "bonds", "maxreal", "classify", "validate"])
    @pytest.mark.parametrize("doc, want", [
        (_COINCIDENT, 3), (_ZERO_LENGTH, 3), (_NO_REAL_POSE, 0),
    ], ids=["coincident-legs", "zero-length", "no-real-pose"])
    def test_degenerate_inputs(self, tmp_path, capsys, command, doc, want):
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(doc))
        code = run_command([command, str(path)])
        out, err = capsys.readouterr()
        assert code == want
        if want:
            assert out == "" and "error" in json.loads(err)
        else:
            assert err == ""
            if command == "dk":
                assert json.loads(out)["realSolutions"] == []

    @pytest.mark.parametrize("lengths", ["2,1,5,3", "2,1,5,3,4,6"])
    def test_dk_length_count(self, geom_file, capsys, lengths):
        code = run_command(["dk", geom_file, "--lengths", lengths])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "need 5 leg lengths" in json.loads(err)["error"]

    @pytest.mark.parametrize("doc", _MALFORMED.values(), ids=_MALFORMED.keys())
    def test_malformed_geometry(self, tmp_path, capsys, doc):
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(doc))
        code = run_command(["validate", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "abc", "argument --samples: invalid int value"),
        ("--a2", "0,1,2", "--a2: need 1 or 2 numbers, got 3"),
        ("--m5", "1,1", "--m5: need 3 numbers, got 2"),
    ], ids=["usage-error", "a2-three-parts", "m5-two-parts"])
    def test_malformed_design_arguments(self, capsys, flag, value, message):
        args = {"--a2": "0,1", "--a4": "2", "--m5": "1,1,1", "--r1sq": "3",
                "--samples": "10", flag: value}
        argv = ["trace", "--type", "1"] + [x for kv in args.items() for x in kv]
        code = run_command(argv)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert json.loads(err)["error"].startswith(message)

    @pytest.mark.parametrize("command, flag, value", [
        ("synth", "--m5", "1,,1,1"),
        ("dk", "--lengths", "2,,1,5,3,4"),
        ("synth", "--legs-at", "0,1,"),
        ("trace", "--track", ",1"),
    ], ids=["m5", "lengths", "legs-at", "track"])
    def test_empty_list_entry(self, geom_file, capsys, command, flag, value):
        # an empty entry is malformed input, not a list one entry shorter
        design = ["--type", "1", "--a2", "0,1", "--a4", "2", "--m5", "1,1,1",
                  "--r1sq", "3"]
        argv = {"dk": ["dk", geom_file], "synth": ["synth", *design],
                "trace": ["trace", *design, "--samples", "10"]}[command]
        code = run_command(argv + [flag, value])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == f"{flag}: empty entry in {value!r}"

    @pytest.mark.parametrize("flag, value, key, want", [
        ("--a2", "-3,1", "a2", {"re": "-3", "im": "1"}),
        ("--m5", "-2,-2,0", "m5", ["-2", "-2", "0"]),
        ("--a4", "-1/2", "a4", "-1/2"),
    ], ids=["a2", "m5", "a4"])
    def test_value_with_minus_sign(self, capsys, flag, value, key, want):
        # a value that starts with a minus sign is a value, not a flag
        args = {"--a2": "0,1", "--a4": "2", "--m5": "1,1,1", "--r1sq": "3",
                flag: value}
        argv = ["synth", "--type", "1", "--exact"] + [
            x for kv in args.items() for x in kv]
        code, doc = run(capsys, *argv)
        assert code == 0 and doc[key] == want

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_command(["trace", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pentakin trace")
