"""The package loads only what is used.

``import locale_forge`` loads no submodule, each CLI verb loads only the
modules it calls into, and no verb loads ``dataclasses`` or ``inspect``:
the records are plain classes, so nothing generates code at import.  Each
check runs in a fresh interpreter and reads ``sys.modules`` afterwards."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import locale_forge

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter with ``src`` on the path; it
    prints one JSON document last, which is returned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# standard modules that no verb needs; ``_hashlib`` is OpenSSL's
WATCHED = ("hashlib", "_hashlib", "dataclasses", "inspect")


def loaded_after_main(*argv: str) -> dict:
    """The exit code of ``main(argv)`` and the modules loaded after it
    (``locale_forge.`` submodules by their short name, plus those of
    ``WATCHED``)."""
    return fresh(
        "import contextlib, io, json, sys\n"
        "from locale_forge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({list(argv)!r})\n"
        "mods = sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('locale_forge.'))\n"
        f"mods += [m for m in {WATCHED!r} if m in sys.modules]\n"
        "print(json.dumps({'code': code, 'modules': mods}))\n"
    )


def test_the_root_loads_no_submodule():
    out = fresh(
        "import json, sys\n"
        "import locale_forge\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('locale_forge.'))))\n"
    )
    assert out == []


def test_a_text_example_loads_no_oracle_and_no_json_form():
    out = loaded_after_main("example", "circle-open")
    assert out["code"] == 0
    assert not {"suites", "serialize", "evaluate", "hashlib"} & set(out["modules"])
    assert {"intervals", "dsl", "transform"} <= set(out["modules"])


def test_a_json_example_loads_no_openssl():
    """The provenance hash of a JSON example takes SHA-256 from the
    interpreter's own module, not through ``hashlib``."""
    out = loaded_after_main("example", "z2-swap", "--format", "json")
    assert out["code"] == 0
    assert "serialize" in out["modules"]
    assert not {"hashlib", "_hashlib"} & set(out["modules"])


def test_the_provenance_hash_is_sha256_of_the_json_form():
    import hashlib

    from locale_forge.intervals import unit_interval_presentation
    from locale_forge.serialize import presentation_to_jsonable
    from locale_forge.transform import _parent_hash

    p = unit_interval_presentation()
    blob = json.dumps(presentation_to_jsonable(p), sort_keys=True)
    assert _parent_hash(p) == hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_the_kleene_suite_loads_no_symbolic_layer():
    out = loaded_after_main("verify", "--kleene", "--count", "2")
    assert out["code"] == 0
    assert not {"dsl", "intervals", "serialize", "transform"} & set(out["modules"])
    assert "suites" in out["modules"]


# the verbs of the cli-verbs benchmark workload, with small suites
CLI_VERBS = [
    ["example", "circle-open"],
    ["example", "circle-proper", "--simplify", "--format", "json"],
    ["example", "z2-swap", "--format", "json"],
    ["example", "nat-reverse"],
    ["eval", "{line}", "--grid=-1,1/2"],
    ["verify", "--oracle", "--mode", "open", "--count", "2"],
    ["verify", "--coverage", "--count", "2"],
    ["verify", "--kleene", "--count", "2"],
]


@pytest.mark.parametrize("argv", CLI_VERBS, ids=lambda argv: " ".join(argv[:2]))
def test_no_verb_generates_code_at_start_up(argv, tmp_path):
    line = tmp_path / "line.pres"
    line.write_text("domain interval-R\nkind sup\ninclude standard\n")
    out = loaded_after_main(*(arg.format(line=line) for arg in argv))
    assert out["code"] == 0
    assert not {"dataclasses", "inspect"} & set(out["modules"])


def test_the_suites_module_generates_no_code_at_import():
    out = fresh(
        "import json, sys\n"
        "import locale_forge.suites\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))\n"
    )
    assert out == []


@pytest.mark.parametrize("name", locale_forge.__all__)
def test_every_exported_name_is_its_submodule_attribute(name):
    module = getattr(locale_forge, locale_forge._EXPORTS[name])
    assert getattr(locale_forge, name) is getattr(module, name)


def test_import_star_and_dir_list_every_exported_name():
    namespace: dict = {}
    exec("from locale_forge import *", namespace)
    assert set(locale_forge.__all__) <= set(namespace)
    assert set(locale_forge.__all__) <= set(dir(locale_forge))


def test_every_submodule_is_reachable_from_the_root():
    modules = {path.stem for path in (SRC / "locale_forge").glob("*.py")} - {"__init__"}
    assert locale_forge._SUBMODULES == modules
    out = fresh(
        "import json, locale_forge\n"
        "print(json.dumps([locale_forge.records.__name__, 'records' in dir(locale_forge)]))\n"
    )
    assert out == ["locale_forge.records", True]


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        locale_forge.no_such_name
    assert not hasattr(locale_forge, "ParseErrors")


def test_a_builtin_domain_parses_without_importing_intervals_first():
    out = fresh(
        "import json, sys\n"
        "from locale_forge.dsl import parse\n"
        "before = 'locale_forge.intervals' in sys.modules\n"
        "p = parse('domain interval-R\\nkind sup\\n')\n"
        "print(json.dumps([before, p.domain.descriptor()]))\n"
    )
    assert out == [False, {"type": "interval-R"}]


def test_a_builtin_domain_reads_from_json_without_importing_intervals_first():
    out = fresh(
        "import json, sys\n"
        "from locale_forge.serialize import presentation_from_jsonable\n"
        "before = 'locale_forge.intervals' in sys.modules\n"
        "doc = {'kind': 'preframe', 'domain': {'type': 'interval-01'}, 'relations': []}\n"
        "p = presentation_from_jsonable(doc)\n"
        "print(json.dumps([before, p.domain.descriptor()]))\n"
    )
    assert out == [False, {"type": "interval-01"}]
