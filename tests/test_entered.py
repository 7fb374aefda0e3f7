"""Every function in src is entered by a scenario run, or is on ALLOWLIST
with the reason it stays. A fresh interpreter sets a `sys.setprofile` hook
before it imports nhscatter, so class bodies and module-level comprehensions
count too, and records each src code object it enters while it

- writes the reference output set (tests/reference_outputs.py),
- reruns absorb from that run's own config.ini (load_config, from_ini), and
- runs an amplify whose one step is too large, which aborts inside the frame
  stream and so discards the frame file it had begun.

`unentered` compares that record with every code object that `compile` makes
of each src file on the same interpreter, so a comprehension that Python
3.12 inlines into its function (PEP 709) is missing from both."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

#: qualified name -> why it stays in src though no scenario enters it; an
#: entry covers the code nested in it
ALLOWLIST = {
    "dynamics.Propagator.frames": "the README library sketch (tests/test_readme.py) "
    "collects frames with it, and perfbench/tracing.py wraps it",
    "dynamics.Propagator.states": "the one psi output, which the Pade, DOP853 and "
    "eigendecomposition oracle tests compare, and perfbench/tracing.py wraps it",
    "scattering.scattering_residual": "tests/test_acceptance.py imports it, and the "
    "acceptance suite is kept as it is",
}

# argv: src, tests, an output directory. Writes OUT/entered.json: the CLI exit
# status of each run and the [file name, first line, name] of each src code
# object entered
RECORD = r"""
import json, os, sys
from pathlib import Path

src, tests, out = map(Path, sys.argv[1:])
package = os.path.join(str(src), "nhscatter", "")
entered = set()


def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        entered.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))


sys.path[:0] = [str(src), str(tests)]
sys.setprofile(hook)
from nhscatter.cli import main
from reference_outputs import write_reference_outputs

codes = [
    write_reference_outputs(out / "reference"),
    main(["absorb", "--config", str(out / "reference" / "absorb" / "config.ini"),
          "--out", str(out / "rerun")]),
    main(["amplify", "--set", "time.t_max=1e12", "--set", "time.dt=1e12",
          "--out", str(out / "aborted")]),
]
sys.setprofile(None)
(out / "entered.json").write_text(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def code_names(sources) -> dict:
    """(file name, first line, name) -> qualified name of every code object
    that `compile` makes of each source, ``{file name: text}``, but the
    modules themselves: their bodies run on import, and __main__'s only under
    ``python -m``. The qualified name is the module's, then each enclosing
    class or function, as co_qualname reads from Python 3.11 on without its
    "<locals>". Two code objects of one name that start on one line (two
    comprehensions) share a key, so entering one enters both."""
    names = {}

    def walk(code, scope, file):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                name = f"{scope}.{const.co_name}"
                names[file, const.co_firstlineno, const.co_name] = name
                walk(const, name, file)

    for file, text in sources.items():
        walk(compile(text, file, "exec"), Path(file).stem, file)
    return names


def unentered(entered, sources, allowlist=ALLOWLIST) -> list[str]:
    """One line for each code object of ``sources`` whose key is not in
    ``entered`` and that no allowlist entry covers, and for each allowlist
    entry that is entered or names no code object: empty when src holds
    only what the runs enter and what the allowlist keeps."""
    names = code_names(sources)
    entered = set(map(tuple, entered))
    report = [
        f"{name} is entered by no scenario run"
        for key, name in names.items()
        if key not in entered and not any(name == e or name.startswith(f"{e}.") for e in allowlist)
    ]
    for entry in allowlist:
        keys = [key for key, name in names.items() if name == entry]
        if not keys:
            report.append(f"{entry} is allowlisted but is not in src")
        elif not entered.isdisjoint(keys):
            report.append(f"{entry} is allowlisted but a scenario run enters it")
    return report


def src_sources() -> dict:
    return {path.name: path.read_text() for path in sorted((SRC / "nhscatter").glob("*.py"))}


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    out = tmp_path_factory.mktemp("entered")
    args = [sys.executable, "-c", RECORD, str(SRC), str(TESTS), str(out)]
    run = subprocess.run(args, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    record = json.loads((out / "entered.json").read_text())
    assert record["codes"] == [0, 0, 2]  # the reference set and the rerun pass, amplify aborts
    return record["entered"]


def test_src_holds_what_the_scenarios_run(entered):
    report = unentered(entered, src_sources())
    assert report == [], "\n".join(report)


def test_an_uncalled_function_is_reported(entered):
    sources = src_sources()
    sources["lattice.py"] += "\n\ndef unused():\n    pass\n"
    assert unentered(entered, sources) == ["lattice.unused is entered by no scenario run"]


def test_an_entered_or_missing_allowlist_entry_is_reported(entered):
    allowlist = {**ALLOWLIST, "lattice.build_hamiltonian": "", "lattice.site_index": ""}
    assert unentered(entered, src_sources(), allowlist) == [
        "lattice.build_hamiltonian is allowlisted but a scenario run enters it",
        "lattice.site_index is allowlisted but is not in src",
    ]
