"""What `import realcubic` and a CLI command load, and the package namespace.

A command that calls two modules should pay for importing two: one new
top-level import in the package or in ``cli`` would load the whole library
again without changing any output. Each check runs in a fresh interpreter
and reads ``type(module) is ModuleType`` over ``sys.modules``, which does
not load a lazy module (``hasattr`` or ``vars`` would).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import realcubic

LAYERS = ("atlas", "intmat", "lattices", "ramified", "surgery", "topology",
          "walls")
# what the package re-exports, by home module, in the order of __all__
EXPORTS = {
    "atlas": "Atlas Edge MoveKind VertexData VertexId atlas_to_dot "
             "atlas_to_json build_atlas classify_type validate_atlas "
             "vertex_invariants",
    "intmat": "AbelianGroup cokernel det smith_normal_form",
    "lattices": "AMBIENT_M AMBIENT_M0 DegenerateLatticeError DiscriminantForm "
                "GramMatrix IndefiniteLatticeError LatticeExpr ParseError "
                "discriminant_form discriminant_group enumerate_norm_vectors "
                "gram is_six_root parse_lattice_expr signature",
    "ramified": "PerturbationData add_unknotted_handle euler_perturbation "
                "handle_counts lift_morse_index",
    "surgery": "GroupPresentation abelianization blow_down blow_up "
               "h1_from_linking lifted_framing slide spiral_scenario",
    "topology": "MorseEvent RealLocusDescriptor apply_morse "
                "descriptor_invariants facet_index_options propagate verify",
    "walls": "CuspVerdict classify_move cusp_stratum find_a2_pair "
             "mod3_condition refute_a2_mod2",
}

REPORT = (
    "import contextlib, io, json, sys, types\n"
    "LAYERS = {layers!r}\n"
    "{body}\n"
    "print(json.dumps(sorted(n for n in LAYERS if type(\n"
    "    sys.modules['realcubic.' + n]) is types.ModuleType)))\n"
)


def python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def loaded_after(body: str) -> list[str]:
    proc = python("-c", REPORT.format(layers=LAYERS, body=body))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_library_module():
    assert loaded_after("import realcubic") == []
    # cli binds the modules it calls without running them
    assert loaded_after("import realcubic.cli") == []


@pytest.mark.parametrize("argv,modules", [
    (["surgery", "spiral"], ["intmat", "surgery"]),
    (["ramified", "euler", "--chiP", "3", "--chiPplus", "2", "--chiL", "1"],
     ["ramified"]),
    (["lattice", "info", "A2"], ["intmat", "lattices"]),
    (["atlas", "build", "--graph", "k4", "--format", "json"],
     ["atlas", "intmat", "lattices"]),
])
def test_command_loads_only_what_it_calls(argv, modules):
    body = ("from realcubic.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n")
    assert loaded_after(body) == modules


def test_lattice_info_loads_no_fractions():
    # q values are integer pairs: fractions would pull in decimal and
    # numbers, a few ms of every cold lattice command
    proc = python("-c", "import contextlib, io, sys\n"
                  "from realcubic.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    assert main(['lattice', 'info', 'A2']) == 0\n"
                  "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_first_name_binds_every_export():
    body = ("import realcubic\n"
            "realcubic.gram\n"
            "assert set(realcubic.__all__) <= set(vars(realcubic))\n")
    assert loaded_after(body) == list(LAYERS)


def test_every_layer_is_in_sys_modules_after_cli_import():
    # the benchmark's tracer reads sys.modules["realcubic.<layer>"]
    body = ("import realcubic.cli\n"
            "assert all('realcubic.' + n in sys.modules for n in LAYERS)\n")
    assert loaded_after(body) == []


def test_all_is_the_exported_names_of_their_home_modules():
    want = [name for names in EXPORTS.values() for name in names.split()]
    assert len(want) == 56
    assert realcubic.__all__ == want
    for module, names in EXPORTS.items():
        home = getattr(realcubic, module)
        assert sys.modules[f"realcubic.{module}"] is home
        for name in names.split():
            assert getattr(realcubic, name) is getattr(home, name), name
    assert set(want) <= set(dir(realcubic))
    # walls uses the atlas's move vocabulary, and older code imports it there
    assert realcubic.walls.MoveKind is realcubic.atlas.MoveKind
    with pytest.raises(AttributeError):
        realcubic.no_such_name


def test_cli_module_runs_without_warnings():
    # registering cli lazily would make runpy warn that it is already in
    # sys.modules
    proc = python("-W", "error", "-m", "realcubic.cli", "surgery", "spiral")
    assert proc.returncode == 0 and proc.stderr == ""
