import json
import subprocess
import sys

import pytest

from conftest import cc_shift_family


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "locale_forge.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def two_point_file(tmp_path):
    f = tmp_path / "two_point.pres"
    f.write_text(
        "domain finite { gens z, a, b, t; leq z <= a; leq z <= b; leq a <= t; leq b <= t; }\n"
        "kind sup\n"
        "rel a v b = t\n"
        "rel z = 0\n"
    )
    return str(f)


@pytest.fixture
def swap_spec_file(tmp_path):
    f = tmp_path / "swap.spec"
    f.write_text(
        "domain finite { gens z, a, b, t; leq z <= a; leq z <= b; leq a <= t; leq b <= t; }\n"
        "quotient open\n"
        "image z = z\nimage a = a v b\nimage b = a v b\nimage t = t\n"
    )
    return str(f)


class TestVerbs:
    def test_check_pass(self, two_point_file):
        rc, out, err = run_cli("check", two_point_file)
        assert rc == 0
        assert "fail" not in out

    def test_check_failure_exits_one(self, tmp_path):
        f = tmp_path / "bad.pres"
        f.write_text(
            "domain finite { gens z, a, b, t; leq z <= a; leq z <= b; leq a <= t; leq b <= t; }\n"
            "kind sup\nrel t <= z\n"
        )
        rc, out, err = run_cli("check", str(f), "--no-oracle")
        assert rc == 1
        assert "fail" in out

    def test_eval_frame(self, two_point_file):
        rc, out, err = run_cli("eval", two_point_file, "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["carrier"]["elements"]) == 4

    def test_eval_grid(self, tmp_path):
        f = tmp_path / "reals.pres"
        f.write_text("domain interval-R\nkind sup\ninclude standard\n")
        rc, out, err = run_cli("eval", f"{f}", "--grid", "0,1/2,1", "--format", "json")
        assert rc == 0
        json.loads(out)

    @pytest.mark.parametrize("verb", ["eval", "check"])
    def test_grid_over_a_non_finite_domain_without_schemas(self, tmp_path, verb):
        # the grid instantiates a presentation whose domain is not finite,
        # schemas or not; without one, both verbs ask for it
        f = tmp_path / "interval.pres"
        f.write_text("domain interval-R\nkind sup\nrel OI(0,1) <= OI(-inf,+inf)\n")
        rc, out, err = run_cli(verb, str(f), "--grid", "0,1")
        assert rc == 0, err
        assert out != ""
        rc, out, err = run_cli(verb, str(f))
        assert rc == 2 and out == ""
        assert json.loads(err)["detail"].startswith("interval-R domain: supply a grid")

    @pytest.mark.parametrize("verb", ["eval", "check"])
    def test_grid_starting_with_a_negative_point(self, tmp_path, verb):
        f = tmp_path / "reals.pres"
        f.write_text("domain interval-R\nkind sup\ninclude standard\n")
        spaced = run_cli(verb, str(f), "--grid", "-1/2,1/3,2")
        joined = run_cli(verb, str(f), "--grid=-1/2,1/3,2")
        assert spaced[0] == joined[0] == 0, spaced[2]
        assert spaced[1] == joined[1] != ""

    @pytest.mark.parametrize("verb", ["eval", "check"])
    @pytest.mark.parametrize("grid", ["", ",", " , "])
    def test_a_grid_without_points_is_an_input_error(self, tmp_path, two_point_file, verb, grid):
        f = tmp_path / "reals.pres"
        f.write_text("domain interval-R\nkind sup\ninclude standard\n")
        for path in (str(f), two_point_file):
            rc, out, err = run_cli(verb, path, "--grid", grid)
            assert rc == 2 and out == ""
            assert json.loads(err) == {"error": "input", "detail": "empty instantiation grid"}

    def test_transform_and_roundtrip(self, two_point_file, swap_spec_file, tmp_path):
        rc, out, err = run_cli(
            "transform", two_point_file, "--spec", swap_spec_file, "--format", "json"
        )
        assert rc == 0, err
        doc = json.loads(out)
        assert doc["provenance"]["mode"] == "open"
        assert doc["domain"]["type"] == "tagged"

    def test_parse_error_is_usage(self, tmp_path):
        f = tmp_path / "broken.pres"
        f.write_text("domain finite { gens a; } kind sup\nrel join(a\n")
        rc, out, err = run_cli("check", str(f))
        assert rc == 2
        assert json.loads(err)["error"] == "input"

    def test_usage_error(self):
        rc, out, err = run_cli("frobnicate")
        assert rc == 2

    def test_a_declared_meet_that_conflicts_with_the_order(self, tmp_path):
        f = tmp_path / "wrong_meet.pres"
        f.write_text(
            "domain finite { gens z, a, b, t; leq z <= a; leq z <= b; leq a <= t; leq b <= t; "
            "meet a b = a; ops meet }\nkind sup\n"
        )
        rc, out, err = run_cli("check", str(f))
        assert rc == 2 and out == ""
        assert json.loads(err) == {
            "error": "module",
            "detail": "declared meet a b = a conflicts with the order (expected z)",
        }

    def test_scale_limit_is_a_module_error(self, tmp_path):
        f = tmp_path / "antichain.pres"
        gens = ", ".join(f"g{i}" for i in range(13))
        f.write_text(f"domain finite {{ gens {gens}; }}\nkind sup\n")
        rc, out, err = run_cli("eval", str(f), "--category", "sup")
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "module", "detail": "free suplattice exceeds oracle scale"}


class TestExamples:
    def test_circle_open_matches_golden_and_deterministic(self):
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden" / "circle_open.txt"
        rc1, out1, _ = run_cli("example", "circle-open")
        rc2, out2, _ = run_cli("example", "circle-open")
        assert rc1 == rc2 == 0
        assert out1 == out2 == golden.read_text()

    def test_circle_proper_golden_json(self):
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden" / "circle_proper_raw.json"
        rc, out, _ = run_cli("example", "circle-proper", "--format", "json")
        assert rc == 0
        assert json.loads(out) == json.loads(golden.read_text())

    def test_z2_swap(self):
        rc, out, _ = run_cli("example", "z2-swap", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["quotientIsTwoChain"] and doc["matchesFixedPoints"]

    def test_z2_swap_text_reads_back(self):
        from locale_forge.dsl import parse
        from locale_forge.serialize import presentation_from_jsonable

        rc, out, err = run_cli("example", "z2-swap")
        assert rc == 0, err
        text = out.split("transformed presentation:\n", 1)[1].split("\nquotient frame:", 1)[0]
        read = parse(text)
        rc, out, _ = run_cli("example", "z2-swap", "--format", "json")
        want = presentation_from_jsonable(json.loads(out)["transformed"])
        assert (read.kind, read.domain, read.relations) == (want.kind, want.domain, want.relations)

    def test_nat_reverse(self):
        rc, out, _ = run_cli("example", "nat-reverse")
        assert rc == 0
        assert "size 2" in out


class TestVerify:
    def test_oracle_suite_seeded(self):
        rc, out, _ = run_cli(
            "verify", "--oracle", "--mode", "open", "--seed", "7", "--count", "10"
        )
        assert rc == 0
        assert "10/10 pass" in out

    def test_seed_env_var(self):
        rc1, out1, _ = run_cli(
            "verify", "--oracle", "--mode", "semi-open", "--count", "5",
            env_extra={"LOCALE_FORGE_SEED": "123"},
        )
        rc2, out2, _ = run_cli(
            "verify", "--oracle", "--mode", "semi-open", "--count", "5", "--seed", "123"
        )
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_a_seed_env_var_that_is_no_integer_is_an_input_error(self):
        rc, out, err = run_cli("verify", "--kleene", "--count", "1", env_extra={"LOCALE_FORGE_SEED": "abc"})
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": "LOCALE_FORGE_SEED is not an integer: 'abc'"}

    def test_coverage_suite(self):
        rc, out, _ = run_cli(
            "verify", "--coverage", "--kind", "sup", "--seed", "3", "--count", "8"
        )
        assert rc == 0


class TestDerive:
    def test_swap_bundle(self, tmp_path):
        from locale_forge import serialize
        from locale_forge.dsl import parse
        from locale_forge.evaluate import eval_frame

        src = (
            "domain finite { gens z, a, b, t; leq z <= a; leq z <= b; leq a <= t; leq b <= t; }\n"
            "kind sup\nrel a v b = t\nrel z = 0\n"
        )
        parent = parse(src)
        frame = eval_frame(parent)
        X = frame.carrier
        swap = {"z": "z", "a": "b", "b": "a", "t": "t"}
        labels = list(X.elements)
        bundle = {
            "parent": serialize.presentation_to_jsonable(parent),
            "target": serialize.lattice_to_jsonable(X),
            "fstar": {e: e for e in labels},
            "gstar": {e: swap.get(e, e) for e in labels},
        }
        f = tmp_path / "bundle.json"
        f.write_text(json.dumps(bundle))
        rc, out, err = run_cli(
            "derive", str(f), "--mode", "open", "--coequaliser", "--format", "json"
        )
        assert rc == 0, err
        spec = json.loads(out)
        img_a = spec["image"]["a"]["join"]
        assert [c["meet"] for c in img_a] == [["a"], ["b"]]


    def test_proper_coequaliser_that_is_not_idempotent(self, tmp_path):
        # the bundle of test_transform's non-idempotent proper coequaliser
        from locale_forge import serialize
        from locale_forge.dsl import parse
        from locale_forge.lattice import FinitePoset, downsets

        target = downsets(FinitePoset.from_pairs(["a", "b"], [(0, 1)]))
        parent = "domain finite { gens g0, g1, g2; leq g0 <= g1; leq g1 <= g2; ops join }\nkind preframe\n"
        labels = ["g0", "g1", "g2", "1"]
        bundle = {
            "parent": serialize.presentation_to_jsonable(parse(parent)),
            "target": serialize.lattice_to_jsonable(target),
            "fstar": {e: target.elements[i] for e, i in zip(labels, (0, 0, 1, 2))},
            "gstar": {e: target.elements[i] for e, i in zip(labels, (0, 1, 2, 2))},
        }
        f = tmp_path / "bundle.json"
        f.write_text(json.dumps(bundle))
        rc, out, err = run_cli("derive", str(f), "--mode", "proper", "--coequaliser")
        assert rc == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "module" and "('idempotent', ('g2',))" in doc["detail"]


class TestMoreVerbs:
    def test_eval_categories(self, two_point_file, tmp_path):
        for cat, expected in (("sup", 4), ("preframe", 6)):
            rc, out, err = run_cli(
                "eval", two_point_file, "--category", cat, "--format", "json"
            )
            assert rc == 0, err
            doc = json.loads(out)
            assert len(doc["carrier"]["elements"]) == expected
        # dcpo needs directed-join relations; a collapse of two comparable
        # generators evaluates to a 3-element poset
        f = tmp_path / "chain.pres"
        f.write_text(
            "domain finite { gens z, a, b, t; leq z <= a; leq z <= b; leq a <= t; leq b <= t; }\n"
            "kind plain\nrel a = t\n"
        )
        rc, out, err = run_cli("eval", str(f), "--category", "dcpo", "--format", "json")
        assert rc == 0, err
        assert len(json.loads(out)["carrier"]["elements"]) == 3
        # a non-directed join side is a module error for the dcpo category
        rc, out, err = run_cli("eval", two_point_file, "--category", "dcpo")
        assert rc == 2
        assert json.loads(err)["error"] == "module"

    def test_a_clause_repeating_a_generator(self, tmp_path):
        # the clause ``a ^ a`` is ``a`` in every category; the check fails
        # on the missing meet instance z = b
        domain = {"type": "finite", "elements": ["z", "a", "b", "t"],
                  "leq": [[0, 1], [0, 2], [1, 3], [2, 3]], "structure": {"meet": True, "join": False}}
        rel = {"lhs": {"join": [{"meet": ["a", "a"]}]}, "rhs": {"join": [{"meet": ["t"]}]}, "op": "="}
        f = tmp_path / "repeat.json"
        f.write_text(json.dumps({"kind": "sup", "domain": domain, "relations": [{"rel": rel}]}))
        for cat, size in (("sup", 4), ("dcpo", 3)):
            rc, out, err = run_cli("eval", str(f), "--category", cat, "--format", "json")
            assert rc == 0, err
            assert len(json.loads(out)["carrier"]["elements"]) == size
        rc, out, err = run_cli("check", str(f))
        assert rc == 1
        assert "missing z = b" in out

    def test_transform_mode_override(self, two_point_file, tmp_path):
        spec = tmp_path / "ident.spec"
        spec.write_text(
            "domain finite { gens z, a, b, t; leq z <= a; leq z <= b; leq a <= t; leq b <= t; }\n"
            "quotient semi-open\n"
            "image z = z\nimage a = a\nimage b = b\nimage t = t\n"
        )
        rc, out, err = run_cli(
            "transform", two_point_file, "--spec", str(spec), "--mode", "semi-open"
        )
        assert rc == 0, err
        assert "dia" in out
        # overriding with a mismatched mode is a module error
        rc, out, err = run_cli(
            "transform", two_point_file, "--spec", str(spec), "--mode", "open"
        )
        assert rc == 2
        assert json.loads(err)["error"] == "module"

    def test_symbolic_spec_through_cli_equals_example(self, tmp_path):
        from locale_forge import serialize
        from locale_forge.intervals import circle_open_spec

        pres = tmp_path / "reals.pres"
        pres.write_text("domain interval-R\nkind sup\ninclude standard\n")
        spec = tmp_path / "circle.spec.json"
        spec.write_text(json.dumps(serialize.spec_to_jsonable(circle_open_spec())))
        rc, out, err = run_cli("transform", str(pres), "--spec", str(spec))
        assert rc == 0, err
        rc2, out2, _ = run_cli("example", "circle-open")
        assert out == out2

    def test_derive_proper_mode(self, tmp_path):
        from locale_forge import serialize
        from locale_forge.dsl import parse
        from locale_forge.evaluate import eval_frame

        src = (
            "domain finite { gens z, m, u; leq z <= m; leq m <= u; ops join }\n"
            "kind preframe\nrel 1 <= u\n"
        )
        parent = parse(src)
        from locale_forge.presentation import PresentationKind, saturate

        parent = saturate(parent, PresentationKind.PREFRAME)
        frame = eval_frame(parent)
        X = frame.carrier
        two = {"0": "z" if "z" in X.elements else X.elements[0]}
        # target: the two-chain as the opens of the point
        target_doc = {
            "elements": ["bot", "top"],
            "leq": [[0, 0], [0, 1], [1, 1]],
            "flags": {"hasAllMeets": True, "hasAllJoins": True, "distributive": True, "frame": True},
        }
        m_label = X.label(frame.interp["m"])
        bot_label = X.label(X.bottom)
        top_label = X.label(X.top)
        fstar = {e: ("bot" if e in (bot_label, m_label) else "top") for e in X.elements}
        gstar = {e: ("bot" if e == bot_label else "top") for e in X.elements}
        bundle = {
            "parent": serialize.presentation_to_jsonable(parent),
            "target": target_doc,
            "fstar": fstar,
            "gstar": gstar,
        }
        f = tmp_path / "bundle.json"
        f.write_text(json.dumps(bundle))
        rc, out, err = run_cli("derive", str(f), "--mode", "semi-proper", "--format", "json")
        assert rc == 0, err
        spec = json.loads(out)
        img_m = spec["image"]["m"]["join"]
        assert img_m == [{"meet": ["z"]}]

    def test_include_standard_wrong_kind_is_module_error(self, tmp_path):
        f = tmp_path / "bad.pres"
        f.write_text("domain interval-R\nkind preframe\ninclude standard\n")
        rc, out, err = run_cli("check", str(f))
        assert rc == 2
        assert json.loads(err)["error"] == "module"


def as_json(tmp_path, text_file: str) -> str:
    """The JSON form of a presentation or spec file, written beside it."""
    from locale_forge import serialize
    from locale_forge.dsl import parse
    from locale_forge.transform import QuotientSpec

    with open(text_file, encoding="utf-8") as fh:
        doc = parse(fh.read())
    if isinstance(doc, QuotientSpec):
        out = serialize.spec_to_jsonable(doc)
    else:
        out = serialize.presentation_to_jsonable(doc)
    f = tmp_path / (text_file.rsplit("/", 1)[-1] + ".json")
    f.write_text(json.dumps(out))
    return str(f)


class TestWrongInputKind:
    """A quotient spec where a presentation is expected, or the reverse, is
    an input error (exit 2), not an internal one."""

    @pytest.mark.parametrize("verb", ["check", "eval"])
    def test_a_spec_given_as_the_presentation(self, tmp_path, swap_spec_file, verb):
        spec = as_json(tmp_path, swap_spec_file)
        rc, out, err = run_cli(verb, spec)
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": f"{spec} holds a QuotientSpec, not a Presentation"}

    def test_a_presentation_given_as_the_spec(self, tmp_path, two_point_file):
        pres = as_json(tmp_path, two_point_file)
        rc, out, err = run_cli("transform", pres, "--spec", pres)
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": f"{pres} holds a Presentation, not a QuotientSpec"}


class TestMalformedInput:
    """A JSON document with a missing key or a value of the wrong shape is
    an input error (exit 2), not an internal one."""

    @pytest.mark.parametrize("doc", [{"foo": 1}, [1, 2]], ids=["no-kind", "list"])
    def test_check_on_a_malformed_presentation(self, tmp_path, doc):
        f = tmp_path / "a.json"
        f.write_text(json.dumps(doc))
        rc, out, err = run_cli("check", str(f))
        assert rc == 2 and out == ""
        assert json.loads(err)["error"] == "input"

    def test_missing_key_is_named(self, tmp_path):
        f = tmp_path / "a.json"
        f.write_text(json.dumps({"foo": 1}))
        rc, out, err = run_cli("check", str(f))
        assert json.loads(err)["detail"] == f"malformed document {f}: missing key 'kind'"

    @pytest.mark.parametrize(
        "maps, detail",
        [({}, "missing key 'fstar'"), ({"fstar": [], "gstar": []}, "'list' object has no attribute 'items'")],
        ids=["no-maps", "list-maps"],
    )
    def test_derive_bundle_with_malformed_maps(self, tmp_path, maps, detail):
        from locale_forge import serialize
        from locale_forge.dsl import parse
        from locale_forge.evaluate import eval_frame

        parent = parse(
            "domain finite { gens z, a, b, t; leq z <= a; leq z <= b; leq a <= t; leq b <= t; }\n"
            "kind sup\nrel a v b = t\nrel z = 0\n"
        )
        bundle = {
            "parent": serialize.presentation_to_jsonable(parent),
            "target": serialize.lattice_to_jsonable(eval_frame(parent).carrier),
            **maps,
        }
        f = tmp_path / "bundle.json"
        f.write_text(json.dumps(bundle))
        rc, out, err = run_cli("derive", str(f), "--mode", "open")
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": f"malformed document {f}: {detail}"}


    @pytest.mark.parametrize("missing", ["fstar", "gstar"])
    def test_derive_bundle_with_a_partial_map_names_the_element(self, tmp_path, missing):
        from locale_forge import serialize
        from locale_forge.dsl import parse
        from locale_forge.evaluate import eval_frame

        parent = parse(
            "domain finite { gens z, a, b, t; leq z <= a; leq z <= b; leq a <= t; leq b <= t; }\n"
            "kind sup\nrel a v b = t\nrel z = 0\n"
        )
        X = eval_frame(parent).carrier
        maps = {"fstar": {e: e for e in X.elements}, "gstar": {e: e for e in X.elements}}
        del maps[missing][X.elements[1]]
        bundle = {
            "parent": serialize.presentation_to_jsonable(parent),
            "target": serialize.lattice_to_jsonable(X),
            **maps,
        }
        f = tmp_path / "bundle.json"
        f.write_text(json.dumps(bundle))
        rc, out, err = run_cli("derive", str(f), "--mode", "open")
        assert rc == 2 and out == ""
        detail = f"malformed document {f}: {missing} gives no image of the parent element {X.elements[1]!r}"
        assert json.loads(err) == {"error": "input", "detail": detail}
        maps[missing] = {}
        f.write_text(json.dumps({**bundle, **maps}))
        rc, out, err = run_cli("derive", str(f), "--mode", "open")
        assert rc == 2 and json.loads(err)["error"] == "input"

    @pytest.mark.parametrize("key", ["fstar", "gstar"])
    @pytest.mark.parametrize("side", ["parent", "target"])
    def test_derive_bundle_naming_an_unknown_element(self, tmp_path, key, side):
        """A map entry whose label is no element of the parent, or whose
        image is no element of the target, is named as such, not as a
        missing key."""
        from locale_forge import serialize
        from locale_forge.dsl import parse
        from locale_forge.evaluate import eval_frame

        parent = parse(
            "domain finite { gens z, a, b, t; leq z <= a; leq z <= b; leq a <= t; leq b <= t; }\n"
            "kind sup\nrel a v b = t\nrel z = 0\n"
        )
        X = eval_frame(parent).carrier
        maps = {"fstar": {e: e for e in X.elements}, "gstar": {e: e for e in X.elements}}
        if side == "parent":
            maps[key]["w"] = X.elements[0]
            detail = f"{key} maps 'w', which is not an element of the parent"
        else:
            maps[key][X.elements[1]] = "w"
            detail = f"{key} sends {X.elements[1]!r} to 'w', which is not an element of the target"
        bundle = {
            "parent": serialize.presentation_to_jsonable(parent),
            "target": serialize.lattice_to_jsonable(X),
            **maps,
        }
        f = tmp_path / "bundle.json"
        f.write_text(json.dumps(bundle))
        rc, out, err = run_cli("derive", str(f), "--mode", "open")
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": f"malformed document {f}: {detail}"}

    @pytest.mark.parametrize("verb", ["check", "eval"])
    def test_a_grid_for_a_finite_presentation_is_an_input_error(self, two_point_file, verb):
        """A finite presentation without schemas has nothing to instantiate,
        so a grid given for it is refused, as an empty grid is."""
        rc, out, err = run_cli(verb, two_point_file, "--grid", "0,1")
        assert rc == 2 and out == ""
        assert json.loads(err) == {
            "error": "input",
            "detail": "--grid given for a finite presentation without schemas, which has nothing to instantiate",
        }
        rc, out, err = run_cli(verb, two_point_file)
        assert rc == 0 and err == ""

    @pytest.mark.parametrize("verb", ["eval", "check"])
    @pytest.mark.parametrize(
        "domain, kind, gen, twin",
        [("interval-R", "sup", "OI(0,2/2)", "OI(0,1)"), ("interval-01", "preframe", "CC(0,2/4)", "CC(0,1/2)")],
    )
    def test_an_interval_spelled_another_way_is_named(self, tmp_path, verb, domain, kind, gen, twin):
        """Each interval has one spelling: a document that writes another,
        beside the canonical one, names it."""
        rel = {"lhs": {"join": [{"meet": [gen]}]}, "rhs": {"join": [{"meet": [twin]}]}, "op": "<="}
        f = tmp_path / "a.json"
        f.write_text(json.dumps({"kind": kind, "domain": {"type": domain}, "relations": [{"rel": rel}]}))
        rc, out, err = run_cli(verb, str(f), "--grid", "0,1")
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": f"generator {gen!r} does not belong to domain {domain!r}"}

    @pytest.mark.parametrize("verb", ["eval", "check"])
    def test_a_generator_outside_a_finite_domain_is_named(self, tmp_path, verb):
        rel = {"lhs": {"join": [{"meet": ["c"]}]}, "rhs": {"join": []}, "op": "="}
        domain = {"type": "finite", "elements": ["a", "b"], "leq": []}
        f = tmp_path / "a.json"
        f.write_text(json.dumps({"kind": "sup", "domain": domain, "relations": [{"rel": rel}]}))
        rc, out, err = run_cli(verb, str(f))
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": "generator 'c' does not belong to domain 'finite'"}

    def test_the_nat_reverse_domain_is_unknown(self, tmp_path):
        """Neither reader knows a domain ``nat-reverse``: the counterexample
        over N is the symbolic ``example nat-reverse``."""
        text = tmp_path / "a.pres"
        text.write_text("domain nat-reverse\nkind plain\nrel N(<=3) <= N(all)\n")
        rc, out, err = run_cli("check", str(text))
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": "line 1, col 8: expected a builtin domain name, found 'nat'"}
        doc = tmp_path / "a.json"
        doc.write_text(json.dumps({"kind": "plain", "domain": {"type": "nat-reverse"}, "relations": []}))
        rc, out, err = run_cli("check", str(doc))
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": "unknown domain descriptor 'nat-reverse'"}

    def test_a_pattern_without_a_constructor_is_malformed(self, tmp_path):
        schema = {"params": [], "conds": [], "lhs": [{"meet": [{"name": "a"}]}], "rhs": [], "op": "="}
        f = tmp_path / "a.json"
        f.write_text(json.dumps({"kind": "sup", "domain": {"type": "interval-R"}, "relations": [{"schema": schema}]}))
        rc, out, err = run_cli("check", str(f), "--grid", "0,1")
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": f"malformed document {f}: missing key 'ctor'"}

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda rel: rel["conds"][0].update(op="~"), "a condition 'op' is one of <, <=, =, !=, >, >=, pairneq, not '~'"),
            (lambda rel: rel["conds"][0].update(op=1.5), "a condition 'op' is one of <, <=, =, !=, >, >=, pairneq, not 1.5"),
            (lambda rel: rel["conds"][0].update(op=["<"]), "a condition 'op' is one of <, <=, =, !=, >, >=, pairneq, not ['<']"),
            (lambda rel: rel["conds"][1].update(left=[]), "a condition '<' has 1 expression(s) in 'left' and in 'right'"),
            (
                lambda rel: rel["conds"][2].update(op="pairneq"),
                "a condition 'pairneq' has 2 expression(s) in 'left' and in 'right'",
            ),
            (lambda rel: rel["lhs"][0]["meet"][0]["args"][0].update(param=3), "a 'param' is a parameter name, not 3"),
            (lambda rel: rel["conds"][0]["right"][0].update(param=["q"]), "a 'param' is a parameter name, not ['q']"),
            (
                lambda rel: rel["rhs"][0]["meet"][0]["args"].__setitem__(
                    1, {"op": "~", "left": {"param": "q"}, "right": {"param": "q'"}}
                ),
                "an endpoint 'op' is 'max' or 'min', not '~'",
            ),
        ],
        ids=["cond-op", "cond-op-number", "cond-op-list", "cond-arity", "pairneq-arity", "param-number", "param-list", "endpoint-op"],
    )
    @pytest.mark.parametrize("verb", ["check", "eval"])
    def test_a_wrong_typed_schema_field_is_named(self, tmp_path, verb, edit, detail):
        """A schema field of the wrong type or shape (a condition's
        operator or arity, a parameter that is no name, an endpoint
        operator) is an input error that names the field, where it was
        an internal error (exit 3) of a later stage."""
        from locale_forge import serialize
        from locale_forge.intervals import real_presentation

        doc = serialize.presentation_to_jsonable(real_presentation())
        edit(doc["relations"][1]["schema"])
        f = tmp_path / "a.json"
        f.write_text(json.dumps(doc))
        rc, out, err = run_cli(verb, str(f), "--grid", "0,1")
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": f"malformed document {f}: {detail}"}

    @pytest.mark.parametrize(
        "relation, edit, name",
        [
            (1, lambda rel: rel["params"].remove("p"), "'p'"),
            (2, lambda rel: rel["rhs"][0]["bound"].remove("p'"), '"p\'"'),
        ],
        ids=["params", "bound"],
    )
    @pytest.mark.parametrize("verb", ["check", "eval"])
    def test_an_undeclared_schema_parameter_is_named(self, tmp_path, verb, relation, edit, name):
        """A pattern or condition naming a parameter that neither the
        schema's ``params`` nor its clause's ``bound`` holds is an input
        error naming it, where instantiation on a grid raised an internal
        ``KeyError`` (exit 3)."""
        from locale_forge import serialize
        from locale_forge.intervals import real_presentation

        doc = serialize.presentation_to_jsonable(real_presentation())
        edit(doc["relations"][relation]["schema"])
        f = tmp_path / "a.json"
        f.write_text(json.dumps(doc))
        rc, out, err = run_cli(verb, str(f), "--grid", "0,1")
        assert rc == 2 and out == ""
        detail = f"malformed document {f}: schema parameter {name} is in neither 'params' nor its clause's 'bound'"
        assert json.loads(err) == {"error": "input", "detail": detail}

    @pytest.mark.parametrize(
        "leq, image",
        [
            ([[0, 1]], {"a": {"join": [{"meet": ["zz"]}]}}),
            ([], {"a": {"join": [{"meet": ["zz"]}]}}),
            ([[0, 1]], {"a": {"join": [{"meet": ["a"]}]}, "zz": {"join": [{"meet": ["b"]}]}}),
        ],
        ids=["chain-image", "antichain-image", "image-key"],
    )
    def test_a_spec_generator_outside_its_domain_is_named(self, tmp_path, leq, image):
        """A quotient spec whose image names a generator outside its domain,
        as a key or inside a term, is an input error naming it, as in a
        presentation; over the 2-antichain it was "domain top needed for
        the unit relation"."""
        domain = {"type": "finite", "elements": ["a", "b"], "leq": leq}
        pres, spec = tmp_path / "p.json", tmp_path / "s.json"
        pres.write_text(json.dumps({"kind": "sup", "domain": domain, "relations": []}))
        spec.write_text(json.dumps({"mode": "open", "domain": domain, "image": image}))
        rc, out, err = run_cli("transform", str(pres), "--spec", str(spec))
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": "generator 'zz' does not belong to domain 'finite'"}

    @pytest.mark.parametrize(
        "field, value, detail",
        [
            ("structure", {"meet": "yes"}, "'structure' flags are true, false or null, not {'meet': 'yes'}"),
            ("elements", [1, 2], "'elements' are distinct strings, not [1, 2]"),
            ("leq", [[0, 1, 1]], "'leq' entries are pairs of integers, not [[0, 1, 1]]"),
        ],
        ids=["structure-flag", "element-numbers", "leq-triple"],
    )
    @pytest.mark.parametrize("verb", ["check", "eval"])
    def test_a_wrong_typed_domain_field_is_named(self, tmp_path, verb, field, value, detail):
        """A finite domain descriptor's elements are distinct strings, its
        ``leq`` entries pairs of integers and its structure flags true,
        false or null; anything else is an input error naming the field,
        where a flag ``"yes"`` passed ``check``, integer elements gave an
        ``eval`` carrier of mixed labels, and a triple was a module error."""
        domain = {"type": "finite", "elements": ["a", "b"], "leq": [], field: value}
        f = tmp_path / "a.json"
        f.write_text(json.dumps({"kind": "sup", "domain": domain, "relations": []}))
        rc, out, err = run_cli(verb, str(f), *(["--format", "json"] if verb == "eval" else []))
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": f"malformed document {f}: {detail}"}

    @pytest.mark.parametrize("verb", ["check", "derive"])
    def test_an_unknown_domain_type_is_an_input_error(self, tmp_path, verb):
        pres = {"kind": "sup", "domain": {"type": "nope"}, "relations": []}
        f = tmp_path / "a.json"
        f.write_text(json.dumps(pres if verb == "check" else {"parent": pres}))
        argv = [verb, str(f)] + (["--mode", "open"] if verb == "derive" else [])
        rc, out, err = run_cli(*argv)
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "input", "detail": "unknown domain descriptor 'nope'"}

    def test_an_unknown_domain_in_text_is_an_input_error_too(self, tmp_path):
        f = tmp_path / "a.pres"
        f.write_text("domain nope\nkind sup\n")
        rc, out, err = run_cli("check", str(f))
        assert rc == 2 and out == ""
        assert json.loads(err)["error"] == "input"


class TestModeChoices:
    """``--mode`` takes a quotient mode's command-line name or JSON
    spelling (or ``cross`` for ``verify``); any other text is a usage
    error, reported by argparse before the verb runs."""

    def test_the_json_spelling_of_a_mode_is_accepted(self):
        rc, out, err = run_cli("verify", "--oracle", "--mode", "semiOpen", "--count", "1")
        assert rc == 0, err
        assert out == "oracle-equivalence[semi-open]: 1/1 pass\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--oracle", "--mode", "bogus"],
            ["transform", "in.pres", "--spec", "in.spec", "--mode", "bogus"],
            ["derive", "bundle.json", "--mode", "bogus"],
        ],
        ids=["verify", "transform", "derive"],
    )
    def test_an_unknown_mode_is_a_usage_error(self, argv):
        rc, out, err = run_cli(*argv)
        assert rc == 2 and out == ""
        assert "argument --mode: invalid choice: 'bogus'" in err


class TestUsageErrorsAreJson:
    """Every usage error, argparse's own included, exits 2 with the
    ``input`` diagnostic on stderr, and no option is silently ignored."""

    @staticmethod
    def detail(*argv):
        rc, out, err = run_cli(*argv)
        assert rc == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "input"
        return doc["detail"]

    def test_an_unknown_verb(self):
        assert self.detail("frobnicate").startswith("argument verb: invalid choice: 'frobnicate'")

    def test_a_suite_that_runs_nothing(self):
        assert self.detail("verify", "--kleene", "--count", "0") == "argument --count: must be at least 1, not 0"

    def test_an_unknown_mode(self):
        assert self.detail("verify", "--oracle", "--mode", "bogus").startswith(
            "argument --mode: invalid choice: 'bogus'"
        )

    def test_two_suites_at_once(self):
        detail = self.detail("verify", "--coverage", "--oracle", "--count", "1")
        assert detail == "argument --oracle: not allowed with argument --coverage"

    def test_no_suite(self):
        assert self.detail("verify", "--count", "1") == "one of the arguments --coverage --oracle --kleene is required"

    @pytest.mark.parametrize("suite", ["--coverage", "--kleene"])
    def test_a_mode_without_the_oracle(self, suite):
        assert self.detail("verify", suite, "--mode", "open", "--count", "1") == "--mode applies only to --oracle"

    @pytest.mark.parametrize("suite", ["--oracle", "--kleene"])
    def test_a_kind_without_coverage(self, suite):
        assert self.detail("verify", suite, "--kind", "sup", "--count", "1") == "--kind applies only to --coverage"

    @pytest.mark.parametrize("name", ["circle-open", "z2-swap", "nat-reverse"])
    def test_simplify_on_another_example(self, name):
        assert self.detail("example", name, "--simplify") == "--simplify applies only to the circle-proper example"


class TestFamilyInput:
    """A Z-indexed family is a clause of a schema; a JSON "rel" term holds
    meets only."""

    # the frame of CC(0,1) <= bigvee n in Z . CC(0+n, 1) on the grid {0, 1}
    CARRIER = "frame carrier with 4 elements\n  CC(0,1)\n  CC(1,1)\n  CC(1,0)\n  1\n"

    def test_a_family_inside_a_rel_term_is_an_input_error(self, tmp_path):
        family = {"var": "n", "body": [{"ctor": "CC", "args": [{"const": "0", "index": True}, {"const": "1"}]}]}
        rel = {"lhs": {"join": [{"meet": ["CC(0,1)"]}]}, "rhs": {"join": [{"family": family}]}, "op": "<="}
        f = tmp_path / "family.json"
        f.write_text(json.dumps({"kind": "preframe", "domain": {"type": "interval-01"}, "relations": [{"rel": rel}]}))
        rc, out, err = run_cli("eval", str(f), "--grid", "0,1")
        assert rc == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "input"
        assert "'schema' relation with 'params': [] and an 'intVar' clause" in doc["detail"]

    @pytest.mark.parametrize("form", ["text", "json"])
    def test_the_family_as_a_schema_without_parameters(self, tmp_path, form):
        from locale_forge import serialize
        from locale_forge.dsl import print_presentation

        p = cc_shift_family()
        f = tmp_path / ("family.pres" if form == "text" else "family.json")
        f.write_text(
            print_presentation(p) if form == "text" else json.dumps(serialize.presentation_to_jsonable(p))
        )
        rc, out, err = run_cli("eval", str(f), "--grid", "0,1")
        assert rc == 0, err
        assert out == self.CARRIER


class TestSuiteCount:
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_a_suite_that_runs_nothing_is_a_usage_error(self, count):
        rc, out, err = run_cli("verify", "--kleene", "--count", count)
        assert rc == 2 and out == ""
        assert "argument --count: must be at least 1" in err

    def test_one_instance_runs(self):
        rc, out, err = run_cli("verify", "--kleene", "--seed", "2", "--count", "1")
        assert rc == 0 and out == "kleene-closure: 1/1 pass\n"


class TestFiniteSchemaInput:
    """Only a parametric domain instantiates schemas, so both readers
    reject a schema over a finite domain, tagged or not, naming it, and the
    JSON reader a quotient spec's schematic cases over one."""

    FINITE = {"type": "finite", "elements": ["z", "a", "t"], "leq": [[0, 1], [1, 2]]}
    PATTERN = {"ctor": "OI", "args": [{"const": "0"}, {"const": "1"}]}
    SCHEMA = {"schema": {"params": [], "conds": [], "lhs": [{"meet": [PATTERN]}], "rhs": [], "op": "="}}

    @pytest.mark.parametrize(
        "domain", ["finite { gens z, a, t; leq z <= a; leq a <= t; }", "tagged dia finite { gens z, t; leq z <= t; }"]
    )
    @pytest.mark.parametrize("verb", ["check", "eval"])
    def test_the_text_parser_names_the_schema_line(self, tmp_path, domain, verb):
        f = tmp_path / "schema.pres"
        f.write_text(f"domain {domain}\nkind sup\n\nschema () : t = 0\n")
        rc, out, err = run_cli(verb, str(f))
        assert rc == 2 and out == ""
        assert json.loads(err) == {
            "error": "input",
            "detail": "line 4, col 1: expected 'rel' (a finite domain takes no schemas), found 'schema'",
        }

    @pytest.mark.parametrize("tagged", [False, True])
    @pytest.mark.parametrize("verb", ["check", "eval"])
    def test_the_json_reader_names_the_schema(self, tmp_path, tagged, verb):
        domain = {"type": "tagged", "tag": "dia", "parent": self.FINITE} if tagged else self.FINITE
        f = tmp_path / "schema.json"
        f.write_text(json.dumps({"kind": "sup", "domain": domain, "relations": [self.SCHEMA]}))
        rc, out, err = run_cli(verb, str(f), "--grid", "0")
        assert rc == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "input"
        assert doc["detail"].startswith(f"malformed document {f}: a finite domain takes no schemas: schema () : ")

    @pytest.mark.parametrize("tagged", [False, True])
    def test_the_json_reader_refuses_schematic_cases(self, tmp_path, tagged):
        domain = {"type": "tagged", "tag": "dia", "parent": self.FINITE} if tagged else self.FINITE
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"kind": "sup", "domain": domain, "relations": []}))
        case = {"pin": [], "conds": [], "term": [{"meet": [self.PATTERN]}]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "open", "domain": domain, "cases": [case]}))
        rc, out, err = run_cli("transform", str(pres), "--spec", str(spec))
        assert rc == 2 and out == ""
        assert json.loads(err) == {
            "error": "input",
            "detail": f"malformed document {spec}: a finite domain takes no schematic cases",
        }
