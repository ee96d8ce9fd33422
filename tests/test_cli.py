import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from importlib import resources

import tverberg
from tverberg import circle as ci
from tverberg import complexes as cx
from tverberg import plmaps as pl
from tverberg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_python(script, *args):
    """Run script in a fresh interpreter, warnings as errors, that imports this tverberg package."""
    src = str(Path(tverberg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", "-c", script, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)


def schema(name):
    ref = resources.files("tverberg") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def validate(kind, payload):
    jsonschema.validate(payload, schema(kind))


@pytest.fixture
def radon_files(tmp_path):
    complex_path = tmp_path / "complex.json"
    map_path = tmp_path / "map.json"
    complex_path.write_text(json.dumps(
        {"num_vertices": 4, "maximal_faces": [[0, 1, 2, 3]]}
    ))
    map_path.write_text(json.dumps({
        "d": 2,
        "coords": {"0": ["0", "0"], "1": ["1", "0"], "2": ["0", "1"], "3": ["1", "1"]},
    }))
    return str(complex_path), str(map_path)


@pytest.fixture
def triangle_files(tmp_path):
    complex_path = tmp_path / "c.json"
    map_path = tmp_path / "m.json"
    complex_path.write_text(json.dumps(
        {"num_vertices": 3, "maximal_faces": [[0, 1, 2]]}
    ))
    map_path.write_text(json.dumps({
        "d": 2, "coords": {"0": ["0", "0"], "1": ["1", "0"], "2": ["0", "1"]},
    }))
    return str(complex_path), str(map_path)


def test_commands_run_without_scipy(radon_files):
    """scipy is a test dependency only: no subcommand imports it."""
    complex_path, map_path = radon_files
    script = ("import contextlib, io, sys\n"
              "sys.modules['scipy'] = None  # every import of scipy now fails\n"
              "from tverberg.cli import main\n"
              "commands = [['bounds', '--r', '6', '--d', '54'], ['cert', '--r', '6'],\n"
              "            ['check', '--complex', sys.argv[1], '--map', sys.argv[2], '--r', '2'],\n"
              "            ['delprod', '--N', '9', '--k', '2', '--r', '3'],\n"
              "            ['eqmap', 'verify', '--r', '6', '--samples', '200']]\n"
              "for argv in commands:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = main(argv)\n"
              "    print(argv[0], code)\n")
    proc = run_python(script, complex_path, map_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["bounds", "0", "cert", "0", "check", "1",
                                   "delprod", "0", "eqmap", "0"]


# Runs main on the arguments after the script and prints its exit code, then
# whether numpy was loaded: eqmaps imports numpy, the package runs eqmaps
# only on the first read of one of its attributes, and `eqmap winding` reads
# only the numpy-free circle.
NUMPY_PROBE = ("import contextlib, io, sys\n"
               "from tverberg.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    code = main(sys.argv[1:])\n"
               "print(code, any(name.startswith('numpy.') for name in sys.modules))\n")


@pytest.mark.parametrize("argv", [
    ["bounds", "--r", "6", "--d", "54"],
    ["cert", "--r", "10"],
    ["check", "--r", "2"],
    ["delprod", "--N", "280", "--k", "45", "--r", "6"],
    ["eqmap", "winding", "--r", "2", "--plan", "1:-"],
], ids=["bounds", "cert", "check", "delprod", "winding"])
def test_exact_subcommands_start_without_numpy(triangle_files, argv):
    if argv[0] == "check":
        argv = argv + ["--complex", triangle_files[0], "--map", triangle_files[1]]
    proc = run_python(NUMPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_eqmap_loads_numpy():
    proc = run_python(NUMPY_PROBE, "eqmap", "build", "--r", "6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True"]


def test_cli_import_registers_eqmaps_but_runs_nothing():
    """perfbench/tracer.py wraps the tverberg modules registered by `import tverberg.cli`;
    they are registered, not run, and numpy is not loaded."""
    proc = run_python("import sys, types, tverberg.cli\n"
                      "print('tverberg.eqmaps' in sys.modules,\n"
                      "      [name for name, module in sys.modules.items() if name.startswith('tverberg.')\n"
                      "       and name != 'tverberg.cli' and type(module) is types.ModuleType],\n"
                      "      any(name.startswith('numpy.') for name in sys.modules))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "[]", "False"]


# Runs main on the arguments after the script and prints its exit code and
# the tverberg modules that ran: the package registers each module lazily,
# and one that has not run still has the lazy module type.
MODULE_PROBE = ("import contextlib, io, sys, types\n"
                "from tverberg.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = main(sys.argv[1:])\n"
                "print(code, *(name for name in ('bounds', 'circle', 'complexes', 'eqmaps',\n"
                "                                'numbercert', 'plmaps')\n"
                "              if type(sys.modules['tverberg.' + name]) is types.ModuleType))\n")


@pytest.mark.parametrize("argv, ran", [
    (["delprod", "--N", "280", "--k", "45", "--r", "6"], ["complexes"]),
    (["check", "--r", "2"], ["complexes", "plmaps"]),
    (["bounds", "--r", "6", "--d", "54"], ["bounds", "numbercert"]),
    (["cert", "--r", "10"], ["numbercert"]),
    (["eqmap", "build", "--r", "6"], ["circle", "eqmaps", "numbercert"]),
    (["eqmap", "winding", "--r", "2", "--plan", "1:-"], ["circle", "numbercert"]),
], ids=["delprod", "check", "bounds", "cert", "eqmap", "winding"])
def test_subcommand_runs_only_the_modules_it_needs(triangle_files, argv, ran):
    if argv[0] == "check":
        argv = argv + ["--complex", triangle_files[0], "--map", triangle_files[1]]
    proc = run_python(MODULE_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", *ran]


def test_monkeypatch_on_a_module_that_has_not_run():
    """setattr reads the attribute first, which runs the module, and then replaces it."""
    script = ("import contextlib, io, json, types, pytest, tverberg\n"
              "from tverberg.cli import main\n"
              "assert type(tverberg.bounds) is not types.ModuleType\n"
              "out = io.StringIO()\n"
              "with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):\n"
              "    mp.setattr(tverberg.bounds, 'classic_N', lambda r, d: -1)\n"
              "    code = main(['bounds', '--r', '6', '--d', '54'])\n"
              "print(code, json.loads(out.getvalue())['outputs']['classic_N'])\n")
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "-1"]


def test_exact_subcommands_run_with_numpy_blocked(triangle_files):
    """The winding rows: a plan, r = 3 and a 501-step plan (input errors), and
    a sample budget too small to converge (numerical degeneracy)."""
    script = ("import contextlib, io, sys\n"
              "sys.modules['numpy'] = None  # every import of numpy now fails\n"
              "import tverberg\n"
              "from tverberg.cli import main\n"
              "codes = []\n"
              "winding = ['eqmap', 'winding', '--r', '2', '--plan']\n"
              "for argv in (['bounds', '--r', '6', '--d', '54'], ['cert', '--r', '10'],\n"
              "             ['check', '--complex', sys.argv[1], '--map', sys.argv[2], '--r', '2'],\n"
              "             ['delprod', '--N', '9', '--k', '2', '--r', '3'],\n"
              "             winding + ['1:-'], ['eqmap', 'winding', '--r', '3', '--plan', '1:-'],\n"
              "             winding + [','.join(['1:-'] * 501)]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        codes.append(main(argv))\n"
              "tverberg.circle.MAX_WINDING_SAMPLES = 512\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes.append(main(winding + ['1:-']))\n"
              "print(*codes)\n")
    proc = run_python(script, *triangle_files)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0", "0", "0", "2", "2", "3"]


def test_eqmap_with_numpy_blocked_names_numpy():
    """The ModuleNotFoundError leaves main as it is: no except clause of main runs eqmaps.
    eqmaps is not run at all, so a second call fails the same way, not on a half-run module."""
    script = ("import sys, types\n"
              "sys.modules['numpy'] = None\n"
              "from tverberg.cli import main\n"
              "for _ in range(2):\n"
              "    try:\n"
              "        main(['eqmap', 'build', '--r', '2', '--plan', '1:-'])\n"
              "    except ModuleNotFoundError as exc:\n"
              "        print(exc.name, exc.__context__)\n"
              "print(type(sys.modules['tverberg.eqmaps']) is not types.ModuleType)\n")
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy", "None", "numpy", "None", "True"]


@pytest.mark.parametrize("numpy", ["present", "blocked"])
def test_unexpected_error_leaves_eqmaps_unrun(numpy):
    """An error that main does not handle reaches the caller as it is, and the
    except clauses it passes do not run eqmaps or load numpy."""
    script = ("import sys, types\n"
              "if sys.argv[1] == 'blocked':\n"
              "    sys.modules['numpy'] = None\n"
              "import tverberg\n"
              "from tverberg.cli import main\n"
              "def planted(*args):\n"
              "    raise MemoryError('planted')\n"
              "tverberg.complexes.skeleton_orbits = planted\n"
              "try:\n"
              "    main(['delprod', '--N', '9', '--k', '2', '--r', '3'])\n"
              "except MemoryError as exc:\n"
              "    print(exc, type(sys.modules['tverberg.eqmaps']) is not types.ModuleType,\n"
              "          any(name.startswith('numpy.') for name in sys.modules))\n")
    proc = run_python(script, numpy)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["planted", "True", "False"]


@pytest.mark.parametrize("argv", [["bounds", "--r", "6", "--d", "54"], ["cert", "--r", "4"]],
                         ids=["bounds", "cert-input-error"])
def test_unwritable_json_path_is_input_error(capsys, tmp_path, argv):
    for path in (tmp_path / "missing" / "x.json", tmp_path):  # no such directory; a directory
        code = main(argv + ["--json", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert str(path) in report["error"] and report["flags"] == {"pass": False}
        assert captured.err == ""
    assert list(tmp_path.iterdir()) == []


class TestReport:
    """main builds every report: argv as given, the input digest, the exit-code mapping."""

    def test_command_is_argv_as_given(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["bounds", "--r", "6", "--d", "54", "--json", "bounds"]
        code, report = run_cli(capsys, *argv)
        assert code == 0
        assert report["command"] == argv
        assert json.loads((tmp_path / "bounds").read_text()) == report

    def test_check_digest_covers_the_file_bytes(self, capsys, tmp_path, monkeypatch, radon_files):
        monkeypatch.chdir(tmp_path)
        complex_path, map_path = radon_files
        code, report = run_cli(capsys, "check", "--complex", complex_path, "--map", map_path,
                               "--r", "2", "--maximal-only")
        assert code == 1

        def sha(blob):
            return hashlib.sha256(blob).hexdigest()

        inputs = {"cmd": "check", "r": 2, "complex": sha(Path(complex_path).read_bytes()),
                  "map": sha(Path(map_path).read_bytes()), "maximal_only": True}
        blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
        assert report["inputs_digest"] == sha(blob)

    def test_byte_order_mark_is_input_error(self, capsys, tmp_path, monkeypatch, radon_files):
        monkeypatch.chdir(tmp_path)
        complex_path, map_path = radon_files
        Path(complex_path).write_bytes(b"\xef\xbb\xbf" + Path(complex_path).read_bytes())
        code = main(["check", "--complex", complex_path, "--map", map_path, "--r", "2"])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert "BOM" in report["error"] and report["flags"] == {"pass": False}
        assert captured.err == ""

    def test_numerical_degeneracy_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def no_convergence(circle_map):
            raise ci.WindingNonconvergenceError("no convergence within 512 samples")

        monkeypatch.setattr(ci, "winding_number", no_convergence)
        code = main(["eqmap", "winding", "--r", "2", "--plan", "1:-"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out) == {"error": "no convergence within 512 samples",
                                            "flags": {"pass": False}}
        assert captured.err == ""


class TestBounds:
    def test_6_54(self, capsys):
        code, report = run_cli(capsys, "bounds", "--r", "6", "--d", "54")
        assert code == 0
        validate("report", report)
        out = report["outputs"]
        assert out["tverberg_N"] == 280
        assert out["classic_N"] == 275
        assert out["theorem1_decomposition"]["k"] == 45
        assert isinstance(out["frick_F_estimate"]["value"], str)
        assert out["warnings"] == []

    def test_report_shape(self, capsys):
        """The decomposition and corollary A records without the inputs they echo."""
        code, report = run_cli(capsys, "bounds", "--r", "6", "--d", "54", "--q", "8")
        assert code == 0
        out = report["outputs"]
        assert out["theorem1_decomposition"] == {"k": 45, "vkf_target": 53, "N": 280}
        assert out["corollary_a"] == {"d": 55, "target_dim": 54, "N": 280}

    def test_6_55(self, capsys):
        code, report = run_cli(capsys, "bounds", "--r", "6", "--d", "55")
        assert code == 0
        assert report["outputs"]["classic_N"] == 280
        assert report["outputs"]["tverberg_N"] == 280

    def test_prime_power_warning(self, capsys):
        code, report = run_cli(capsys, "bounds", "--r", "4", "--d", "54")
        assert code == 0
        assert report["outputs"]["prime_power"] == [2, 2]
        assert any("prime power" in w for w in report["outputs"]["warnings"])

    def test_corollary_flags(self, capsys):
        code, report = run_cli(capsys, "bounds", "--r", "6", "--d", "55", "--q", "8",
                               "--s", "0", "--k", "45")
        assert code == 0
        out = report["outputs"]
        assert out["corollary_a"] == {"d": 55, "target_dim": 54, "N": 280}
        assert out["corollary_b"] is False  # 55 < 2*36
        assert out["mw_codimension_ok"] is True

    def test_bad_q_is_input_error(self, capsys):
        code, report = run_cli(capsys, "bounds", "--r", "6", "--d", "55", "--q", "7")
        assert code == 2
        assert "error" in report


class TestCert:
    def test_r6(self, capsys):
        code, report = run_cli(capsys, "cert", "--r", "6")
        assert code == 0
        validate("report", report)
        out = report["outputs"]
        validate("certificate", out["certificate"])
        validate("plan", out["plan"])
        assert out["checksum"] == "-1"
        assert [(s["k"], s["sign"]) for s in out["plan"]["steps"]] == [
            (1, -1), (2, -1), (3, 1)
        ]

    def test_r10(self, capsys):
        code, report = run_cli(capsys, "cert", "--r", "10")
        assert code == 0
        validate("report", report)
        out = report["outputs"]
        validate("certificate", out["certificate"])
        validate("plan", out["plan"])
        assert out["checksum"] == "-1"
        assert len(out["plan"]["steps"]) == 7
        assert out["plan"]["target"] == 0

    def test_r8_prime_power(self, capsys):
        code, report = run_cli(capsys, "cert", "--r", "8")
        assert code == 2
        assert "gcd" in report["error"] and "2" in report["error"]

    @pytest.mark.parametrize("argv, message", [
        (("cert", "--r", "10007"), "no certificate for r=10007: gcd of C(10007,1..10006) is "
                                   "10007, so -1 is not an integer combination"),
        (("cert", "--r", "1002"), "certificate for r=1002 refused: lattice reduction beyond "
                                  "the cap MAX_CERT_R = 300"),
        (("bounds", "--r", "2305843009213693951", "--d", "54"),
         "prime-power test refuses r=2305843009213693951, beyond the cap "
         "MAX_PRIME_POWER_R = 1000000000000"),
    ], ids=["prime", "beyond-cert-cap", "beyond-prime-power-cap"])
    def test_large_r_fails_fast(self, capsys, deadline, argv, message):
        with deadline(5):
            code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {"error": message, "flags": {"pass": False}}
        assert captured.err == ""

    def test_json_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, report = run_cli(capsys, "cert", "--r", "6", "--json", str(out_path))
        assert code == 0
        on_disk = json.loads(out_path.read_text())
        assert on_disk == report
        validate("certificate", on_disk["outputs"]["certificate"])


class TestCheck:
    def test_radon_square_fails_with_witness(self, capsys, radon_files):
        complex_path, map_path = radon_files
        code, report = run_cli(
            capsys, "check", "--complex", complex_path, "--map", map_path, "--r", "2"
        )
        assert code == 1
        validate("report", report)
        out = report["outputs"]
        assert out["passed"] is False
        validate("witness", out["witness"])
        assert out["witness"]["faces"] == [[0, 3], [1, 2]]
        assert out["witness"]["point"] == ["1/2", "1/2"]

    def test_triangle_passes(self, capsys, triangle_files):
        complex_path, map_path = triangle_files
        code, report = run_cli(capsys, "check", "--complex", complex_path, "--map", map_path,
                               "--r", "2")
        assert code == 0
        assert report["outputs"]["passed"] is True

    @pytest.mark.parametrize("key, message", [
        ("9", "map vertex key '9' is not a decimal vertex number in 0..3"),
        ("-1", "map vertex key '-1' is not a decimal vertex number in 0..3"),
        ("01", "map vertex key '01' repeats vertex 1"),
    ])
    def test_bad_map_vertex_key_is_input_error(self, capsys, radon_files, key, message):
        complex_path, map_path = radon_files
        with open(map_path) as handle:
            obj = json.load(handle)
        obj["coords"][key] = ["5", "5"]
        with open(map_path, "w") as handle:
            json.dump(obj, handle)
        code = main(["check", "--complex", complex_path, "--map", map_path, "--r", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {"error": message, "flags": {"pass": False}}
        assert captured.err == ""

    @pytest.mark.parametrize("edit, message", [
        ({"coords": {"0": [0.1, 0], "1": ["1", "0"], "2": ["0", "1"], "3": ["1", "1"]}},
         "map point '0' must be a list of rational strings, got [0.1, 0]"),
        ({"coords": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
         "map coords must be an object keyed by vertex number"),
        ({"d": 2.7}, "map dimension d must be a non-negative integer, got 2.7"),
    ])
    def test_malformed_map_is_input_error(self, capsys, radon_files, edit, message):
        complex_path, map_path = radon_files
        with open(map_path) as handle:
            obj = json.load(handle)
        obj.update(edit)
        with open(map_path, "w") as handle:
            json.dump(obj, handle)
        code = main(["check", "--complex", complex_path, "--map", map_path, "--r", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {"error": message, "flags": {"pass": False}}
        assert captured.err == ""

    @pytest.mark.parametrize("make", [
        lambda obj: [1, 2],
        lambda obj: {"d": obj["d"]},
        lambda obj: {"coords": obj["coords"]},
    ], ids=["list", "no-coords", "no-d"])
    def test_map_without_d_or_coords_is_input_error(self, capsys, radon_files, make):
        complex_path, map_path = radon_files
        with open(map_path) as handle:
            obj = make(json.load(handle))
        with open(map_path, "w") as handle:
            json.dump(obj, handle)
        code = main(["check", "--complex", complex_path, "--map", map_path, "--r", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {"error": "map must be an object with d and coords",
                                            "flags": {"pass": False}}
        assert captured.err == ""

    @pytest.mark.parametrize("obj, message", [
        ({"num_vertices": 2.9, "maximal_faces": [[0, 1]]},
         "complex num_vertices must be a non-negative integer, got 2.9"),
        ([[0, 1]], "complex must be an object with num_vertices and maximal_faces"),
        ({"num_vertices": 4, "maximal_faces": {"0": [0, 1]}},
         "complex maximal_faces must be a list of non-empty lists of vertices in 0..3"),
        ({"maximal_faces": [[0, 1]]},
         "complex must be an object with num_vertices and maximal_faces"),
    ])
    def test_malformed_complex_is_input_error(self, capsys, radon_files, obj, message):
        complex_path, map_path = radon_files
        with open(complex_path, "w") as handle:
            json.dump(obj, handle)
        code = main(["check", "--complex", complex_path, "--map", map_path, "--r", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {"error": message, "flags": {"pass": False}}
        assert captured.err == ""

    def test_deeply_nested_json_is_input_error(self, capsys, radon_files):
        complex_path, map_path = radon_files
        Path(complex_path).write_text("[" * 100000)
        code = main(["check", "--complex", complex_path, "--map", map_path, "--r", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {
            "error": f"{complex_path}: JSON nested too deeply to parse", "flags": {"pass": False}}
        assert captured.err == ""

    def test_exponential_face_listing_is_input_error(self, capsys, tmp_path, deadline):
        """One 39-simplex on 40 vertices: 2^40 - 1 faces, refused before any is listed."""
        complex_path, map_path = tmp_path / "c.json", tmp_path / "m.json"
        complex_path.write_text(json.dumps({"num_vertices": 40, "maximal_faces": [list(range(40))]}))
        map_path.write_text(json.dumps({"d": 2, "coords": {str(v): [str(v), str(v * v)]
                                                           for v in range(40)}}))
        with deadline(1.0):
            code = main(["check", "--complex", str(complex_path), "--map", str(map_path),
                         "--r", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {
            "error": "listing the faces of the complex takes 1099511627775 subsets of its "
                     f"maximal faces, beyond the cap MAX_FACE_LISTING = {cx.MAX_FACE_LISTING}",
            "flags": {"pass": False}}
        assert captured.err == ""

    def test_pair_work_beyond_the_cap_is_input_error(self, capsys, tmp_path, deadline):
        """One 18-simplex on 19 vertices: 524,287 faces, within the face cap, but
        524,287^2 face pairs for the box graph, refused before any face is listed."""
        complex_path, map_path = tmp_path / "c.json", tmp_path / "m.json"
        complex_path.write_text(json.dumps({"num_vertices": 19, "maximal_faces": [list(range(19))]}))
        map_path.write_text(json.dumps({"d": 2, "coords": {str(v): [str(v), str(v * v)]
                                                           for v in range(19)}}))
        with deadline(1.0):
            code = main(["check", "--complex", str(complex_path), "--map", str(map_path),
                         "--r", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {
            "error": "the box graph of the complex could test 274876858369 face pairs, "
                     f"beyond the cap MAX_PAIR_WORK = {pl.MAX_PAIR_WORK}",
            "flags": {"pass": False}}
        assert captured.err == ""

    def test_parallel_flag_is_gone(self, capsys, radon_files):
        complex_path, map_path = radon_files
        with pytest.raises(SystemExit) as exc:
            main(["check", "--complex", complex_path, "--map", map_path, "--r", "2", "--parallel"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --parallel" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys, tmp_path, radon_files):
        complex_path, map_path = radon_files
        for paths in ((str(tmp_path / "nope.json"), str(tmp_path / "nope2.json")),
                      (str(tmp_path), map_path),  # unreadable paths: directories
                      (complex_path, str(tmp_path))):
            code = main(["check", "--complex", paths[0], "--map", paths[1], "--r", "2"])
            captured = capsys.readouterr()
            assert code == 2
            assert json.loads(captured.out)["flags"] == {"pass": False}
            assert captured.err == ""


class TestEqmap:
    def test_winding(self, capsys):
        code, report = run_cli(capsys, "eqmap", "winding", "--r", "2", "--plan", "1:-")
        assert code == 0
        assert report["outputs"]["winding"] == -1
        assert report["outputs"]["ledger"]["running"] == [1, -1]

    def test_build_r6_auto(self, capsys):
        code, report = run_cli(capsys, "eqmap", "build", "--r", "6",
                               "--samples", "500", "--seed", "42")
        assert code == 0
        out = report["outputs"]
        assert out["final_degree"] == 0
        assert out["ledger"]["running"] == [1, -5, -20, 0]
        assert out["equivariance_max_residual"] < 1e-9
        assert out["homotopy_zero_residual"] < 1e-9
        validate("plan", out["map"])

    def test_build_r10_auto(self, capsys):
        code, report = run_cli(capsys, "eqmap", "build", "--r", "10", "--plan", "auto",
                               "--samples", "200", "--seed", "1")
        assert code == 0
        validate("report", report)
        out = report["outputs"]
        assert out["final_degree"] == 0
        assert len(out["ledger"]["running"]) == 8
        validate("plan", out["map"])

    def test_build_r2_100_steps_is_equivariant(self, capsys):
        """The bump uses the direct distance to the center: the expanded form's
        round-off pushed this plan's residual to 1.6e-9, over the 1e-9 bound."""
        code, report = run_cli(capsys, "eqmap", "build", "--r", "2",
                               "--plan", ",".join(["1:-"] * 100))
        assert code == 0
        assert report["outputs"]["equivariance_max_residual"] < 1e-9

    @pytest.mark.parametrize("r, plan, message", [
        ("18", "auto", "plan step k=5 has C(18,5) = 8568 centers, beyond the builder's "
                       "cap MAX_ORBIT = 5005"),
        ("2", ",".join(["1:-,1:+"] * 550), "plan has 1100 steps, beyond the builder's "
                                           "cap MAX_PLAN_STEPS = 500"),
    ], ids=["r18-auto", "r2-1100-steps"])
    def test_build_beyond_the_caps_is_input_error(self, capsys, r, plan, message):
        code = main(["eqmap", "build", "--r", r, "--plan", plan])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {"error": message, "flags": {"pass": False}}
        assert captured.err == ""

    def test_build_orbit_beyond_the_cap_lists_no_center(self, capsys, deadline, monkeypatch):
        """C(26,13) = 10,400,600 centers would take about 4.3 GB to list; the
        cap refuses the plan before _orbit_centers runs, which it does at k = 1."""
        from tverberg import eqmaps as eq

        calls = []
        listed = eq._orbit_centers
        monkeypatch.setattr(eq, "_orbit_centers", lambda *args: calls.append(args) or listed(*args))
        assert run_cli(capsys, "eqmap", "build", "--r", "26", "--plan", "1:-",
                       "--samples", "5")[0] == 0
        assert calls == [(26, 1, 0.0)]
        calls.clear()
        with deadline(1.0):
            code, report = run_cli(capsys, "eqmap", "build", "--r", "26", "--plan", "13:-")
        assert code == 2
        assert report == {"error": "plan step k=13 has C(26,13) = 10400600 centers, beyond the "
                                   "builder's cap MAX_ORBIT = 5005", "flags": {"pass": False}}
        assert calls == []

    def test_build_r15_auto_peak_memory(self):
        """No orbit is measured against a whole other orbit: a fresh process building
        the r = 15 auto plan (orbits up to C(15,6) = 5,005) peaks under 150 MB.
        The peak is the child's own VmHWM: its ru_maxrss starts at the RSS of the
        process that spawned it, which grows as the test session runs."""
        script = ("import re, sys\n"
                  "from tverberg.cli import main\n"
                  "code = main(['eqmap', 'build', '--r', '15', '--plan', 'auto'])\n"
                  "with open('/proc/self/status') as status:\n"
                  "    peak = re.search(r'VmHWM:\\s*(\\d+) kB', status.read()).group(1)\n"
                  "print(code, peak, file=sys.stderr)\n")
        proc = run_python(script)
        code, peak_kib = map(int, proc.stderr.split()[-2:])
        assert code == 0
        assert peak_kib / 1024 < 150

    def test_verify_r6_auto(self, capsys):
        code, report = run_cli(capsys, "eqmap", "verify", "--r", "6", "--plan", "auto",
                               "--samples", "10000", "--seed", "1")
        assert code == 0
        validate("report", report)
        assert report["flags"]["pass"] is True
        out = report["outputs"]
        # each step's 10,000 points in its own ball, about (5/8)^2 of them in the zero zone
        assert out["spurious_zero_min"] == 0.04138027473292856
        assert out["spurious_zero_where"] == {
            "k": 3, "distance_in_R": 0.10755183344032206, "t": 0.501758154904195}
        assert out["spurious_zero_steps"] == [
            {"k": 1, "evaluations": 10000, "in_zero_zone": 3856},
            {"k": 2, "evaluations": 10000, "in_zero_zone": 4000},
            {"k": 3, "evaluations": 10000, "in_zero_zone": 3999},
        ]
        assert out["spurious_zero_evaluations"] == 30000

    def test_verify_r6_seed42_minimum_quoted_in_readme(self, capsys):
        code, report = run_cli(capsys, "eqmap", "verify", "--r", "6",
                               "--samples", "10000", "--seed", "42")
        assert code == 0
        assert round(report["outputs"]["spurious_zero_min"], 3) == 0.047

    def test_verify_beyond_the_work_cap_is_input_error(self, capsys, deadline, monkeypatch):
        """The work of verify, equivariance, search and stencils, is refused before the map
        is built, and so is the equivariance work of build."""
        from tverberg import eqmaps as eq

        def unbuilt(plan):
            raise AssertionError("the map was built before the work cap was checked")

        monkeypatch.setattr(eq, "build_from_plan", unbuilt)
        with deadline(1.0):
            code, report = run_cli(capsys, "eqmap", "verify", "--r", "300", "--plan", "1:-",
                                   "--samples", "200")
        assert code == 2
        assert report == {"error": "eqmap verify at r=300 would do 8,100,001,600 units of work "
                                   "(1,200 for the equivariance row-steps, 400 for the search "
                                   "row-steps and 8,100,000,000 for the stencils), "
                                   "beyond the cap eqmaps.MAX_VERIFY_WORK = 300,000,000",
                          "flags": {"pass": False}}
        plan = ",".join(["1:-,1:+"] * 250)
        with deadline(1.0):
            code, report = run_cli(capsys, "eqmap", "build", "--r", "2", "--plan", plan,
                                   "--samples", "1000000")
        assert code == 2
        assert report == {"error": "eqmap build at r=2 would do 2,000,000,000 units of work "
                                   "(2,000,000,000 for the equivariance row-steps), "
                                   "beyond the cap eqmaps.MAX_VERIFY_WORK = 300,000,000",
                          "flags": {"pass": False}}

    @pytest.mark.parametrize("mode, message", [
        ("build", "plan step k=1 has C(1000000000,1) = 1000000000 centers, beyond the "
                  "builder's cap MAX_ORBIT = 5005"),
        ("verify", "eqmap verify at r=1000000000 would do "),
    ])
    def test_huge_r_is_refused_fast(self, capsys, deadline, mode, message):
        """At r = 10^9 build passes the work cap and meets the orbit cap; verify
        meets the work cap.  Neither lists anything of size r first."""
        with deadline(1.0):
            code, report = run_cli(capsys, "eqmap", mode, "--r", "1000000000", "--plan", "1:-",
                                   "--samples", "1")
        assert code == 2
        assert report["error"].startswith(message)

    def test_verify_empty_plan_searches_the_identity(self, capsys):
        code, report = run_cli(capsys, "eqmap", "verify", "--r", "2", "--plan", "",
                               "--samples", "10")
        assert code == 0
        validate("report", report)
        out = report["outputs"]
        assert out["final_degree"] == 1 and out["local_degrees"] == []
        assert abs(out["spurious_zero_min"] - 1.0) < 1e-9
        assert out["spurious_zero_steps"] == [{"k": None, "evaluations": 10, "in_zero_zone": 0}]

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_empty_sample_set_is_input_error(self, capsys, samples):
        code, report = run_cli(capsys, "eqmap", "verify", "--r", "6", "--samples", samples)
        assert code == 2
        assert report["error"] == "samples must be >= 1"

    @pytest.mark.parametrize("mode", ["build", "verify"])
    def test_samples_beyond_the_cap_are_input_error(self, capsys, deadline, mode):
        with deadline(1.0):
            code, report = run_cli(capsys, "eqmap", mode, "--r", "6",
                                   "--samples", "1000000000000")
        assert code == 2
        assert report == {"error": "samples = 1,000,000,000,000 is beyond the cap "
                                   "eqmaps.MAX_SAMPLES = 1,000,000", "flags": {"pass": False}}

    @pytest.mark.parametrize("mode", ["build", "verify", "winding"])
    @pytest.mark.parametrize("plan, step", [("a:-", "a:-"), ("1:-, 1.5:+", "1.5:+"), ("1", "1")])
    def test_bad_plan_step_is_input_error(self, capsys, mode, plan, step):
        code, report = run_cli(capsys, "eqmap", mode, "--r", "6", "--plan", plan)
        assert code == 2
        assert report == {"error": f"bad plan step {step!r}; expected 'k:+' or 'k:-'",
                          "flags": {"pass": False}}

    @pytest.mark.parametrize("mode", ["build", "verify"])
    def test_negative_seed_is_input_error_before_the_build(self, capsys, monkeypatch, mode):
        from tverberg import eqmaps as eq

        def unbuilt(plan):
            raise AssertionError("the map was built before the seed was checked")

        monkeypatch.setattr(eq, "build_from_plan", unbuilt)
        code, report = run_cli(capsys, "eqmap", mode, "--r", "6", "--seed", "-1",
                               "--samples", "10")
        assert code == 2
        assert report == {"error": "--seed must be >= 0, got -1", "flags": {"pass": False}}

    def test_build_r4_is_input_error(self, capsys):
        code, report = run_cli(capsys, "eqmap", "build", "--r", "4")
        assert code == 2

    def test_reproducible_outputs(self, capsys):
        _, first = run_cli(capsys, "eqmap", "build", "--r", "6",
                           "--samples", "400", "--seed", "7")
        _, second = run_cli(capsys, "eqmap", "build", "--r", "6",
                            "--samples", "400", "--seed", "7")
        assert first["outputs"] == second["outputs"]
        assert first["inputs_digest"] == second["inputs_digest"]


class TestDelprod:
    def test_k3(self, capsys):
        code, report = run_cli(capsys, "delprod", "--N", "2", "--k", "1", "--r", "2")
        assert code == 0
        out = report["outputs"]
        assert out["cells_by_dim"] == {"0": 6, "1": 6}
        assert out["dimension"] == 1
        assert out["orbits"] == 6
        assert out["free_action"] is True

    def test_edge(self, capsys):
        code, report = run_cli(capsys, "delprod", "--N", "1", "--k", "1", "--r", "2")
        assert code == 0
        assert report["outputs"]["cells_by_dim"] == {"0": 2}
        assert report["outputs"]["dimension"] == 0

    def test_empty(self, capsys):
        code, report = run_cli(capsys, "delprod", "--N", "2", "--k", "2", "--r", "4")
        assert code == 0
        assert report["outputs"]["cells_by_dim"] == {}
        assert report["outputs"]["dimension"] is None

    def test_orbits_times_r_factorial_is_the_cell_total(self, capsys):
        code, report = run_cli(capsys, "delprod", "--N", "9", "--k", "2", "--r", "3")
        assert code == 0
        validate("report", report)
        out = report["outputs"]
        assert out["orbits"] == 59830
        assert out["orbits"] * 6 == sum(out["cells_by_dim"].values()) == 358980
        assert out["dimension"] == 6 and out["free_action"] is True

    def test_more_faces_than_vertices(self, capsys, deadline):
        with deadline(2.0):
            code, report = run_cli(capsys, "delprod", "--N", "9", "--k", "2", "--r", "11")
        assert code == 0
        out = report["outputs"]
        assert out["cells_by_dim"] == {} and out["dimension"] is None
        assert out["orbits"] == 0 and out["free_action"] is True

    def test_more_faces_than_vertices_is_no_work(self, capsys, deadline):
        """r > N+1 leaves no cell: no level loop and no r! (r! of 3e6 takes minutes)."""
        with deadline(1.0):
            code, report = run_cli(capsys, "delprod", "--N", "5", "--k", "0", "--r", "3000000")
        assert code == 0
        out = report["outputs"]
        assert out["cells_by_dim"] == {} and out["dimension"] is None
        assert out["orbits"] == 0 and out["free_action"] is True

    def test_beyond_the_work_cap_is_input_error(self, capsys, deadline):
        with deadline(1.0):
            code, report = run_cli(capsys, "delprod", "--N", "3000", "--k", "400", "--r", "6")
        assert code == 2
        assert report == {"error": f"(N+1)(k+1)r = 7220406 is beyond the cap "
                                   f"MAX_SKELETON_WORK = {cx.MAX_SKELETON_WORK}",
                          "flags": {"pass": False}}
        assert 2057 * 342 * 6 <= cx.MAX_SKELETON_WORK  # the paper's d = 400 instance

    @pytest.mark.parametrize("N, k, r", [(30, 5, 4), (280, 45, 6)])
    def test_large_skeleton_lists_no_face(self, capsys, deadline, N, k, r):
        with deadline(2.0):
            code, report = run_cli(capsys, "delprod", "--N", str(N), "--k", str(k),
                                   "--r", str(r))
        assert code == 0
        out = report["outputs"]
        assert out["free_action"] is True
        assert out["dimension"] == r * k
        assert sum(out["cells_by_dim"].values()) == math.factorial(r) * out["orbits"]

    def test_wrong_cell_total_fails_freeness(self, capsys, monkeypatch):
        closed_form = cx.skeleton_cells_by_dim

        def one_cell_too_many(N, k, r):
            cells = closed_form(N, k, r)
            cells[min(cells)] += 1
            return cells

        monkeypatch.setattr(cx, "skeleton_cells_by_dim", one_cell_too_many)
        code, report = run_cli(capsys, "delprod", "--N", "4", "--k", "1", "--r", "2")
        assert code == 1
        assert report["flags"]["pass"] is False
        assert report["outputs"]["free_action"] is False

    @pytest.mark.parametrize("N,k,r", [(3, 4, 2), (-1, 0, 2), (3, 1, 1)])
    def test_invalid_input(self, capsys, N, k, r):
        code, report = run_cli(capsys, "delprod", "--N", str(N), "--k", str(k), "--r", str(r))
        assert code == 2
        assert report["flags"]["pass"] is False
