import base64
import gc
import importlib
import importlib.util
import json
import os
import subprocess
import re
import string
import sys
import weakref
from pathlib import Path

import pytest

import hda_lab.cli
from hda_lab.cli import main
from hda_lab.dimap import pushforward_cube
from hda_lab.exterior import ExteriorElement
from hda_lab.fileformats import (
    canonical_json,
    hda_to_json,
    load_hda,
    render_id,
    save_dimap,
    save_hda,
    save_program,
)
from hda_lab.homology import ZZ, verify_nonmembership
from hda_lab.labeling import degree_monomials, label_to_column, labeled_degree
from hda_lab.models import peterson
from hda_lab.programs import program_to_hda, program_to_json

from conftest import id_form, pack_faces, records, unpack_faces
from test_dimap import subdivision_dimap
from test_fileformats import _drop, _set


def run(argv):
    """main() plus argparse's SystemExit folded into a plain exit code."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert run(["model", "peterson", "--out", str(d / "peterson.json")]) == 0
    assert run(["model", "lock-counter", "--out", str(d / "lock.json")]) == 0
    assert run(["model", "lock-spec", "--out", str(d / "lock_spec.json")]) == 0
    assert run(["model", "torus", "--out", str(d / "torus.json")]) == 0
    assert run(["model", "circle", "--labels", "a1,a2", "--out", str(d / "ca.json")]) == 0
    assert run(["model", "circle", "--labels", "b", "--out", str(d / "cb.json")]) == 0
    return d


def test_model_output_round_trips_to_the_in_memory_model(workdir):
    on_disk = (workdir / "peterson.json").read_text()
    assert on_disk == canonical_json(hda_to_json(program_to_hda(peterson())))
    assert on_disk == canonical_json(json.loads(on_disk))


def test_validate_and_homology_peterson(workdir, capsys):
    assert run(["validate", str(workdir / "peterson.json")]) == 0
    assert "valid: cells 20 34 10" in capsys.readouterr().out

    assert run(["homology", str(workdir / "peterson.json"), "--ring", "z"]) == 0
    out = capsys.readouterr().out
    assert "H_0 = Z\n" in out
    assert "H_1 = Z^5" in out
    assert "H_2 = 0" in out


def test_homology_json_philosophers_three(workdir, capsys):
    path = workdir / "phil3.json"
    assert run(["model", "philosophers", "--n", "3", "--out", str(path)]) == 0
    assert run(["homology", str(path), "--ring", "zp:2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cells"] == [99, 240, 183, 44]
    assert [g["rank"] for g in doc["groups"]] == [1, 3, 0, 0]


def test_labels_text_lock_spec(workdir, capsys):
    assert run(["labels", str(workdir / "lock_spec.json")]) == 0
    out = capsys.readouterr().out
    assert "H_1 = Z^2" in out
    assert "class: x++_0 + x--_0" in out
    assert "class: x++_1 + x--_1" in out
    assert "label image (rank 2)" in out


def test_output_bytes_are_deterministic(workdir, capsys):
    argv = ["labels", str(workdir / "torus.json"), "--format", "json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert run(["model", "peterson"]) == 0
    assert capsys.readouterr().out == (workdir / "peterson.json").read_text()


def test_tensor_of_circles_is_a_torus(workdir, capsys):
    out_path = workdir / "tensor.json"
    code = run(
        ["tensor", str(workdir / "ca.json"), str(workdir / "cb.json"),
         "--out", str(out_path)]
    )
    assert code == 0
    assert run(["validate", str(out_path)]) == 0
    capsys.readouterr()
    assert run(["labels", str(out_path), "--ring", "zp:2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    top = doc["degrees"][2]
    assert top["rank"] == 1
    assert top["classes"] == [{"label": "a1∧b + a2∧b", "order": 0}]


def test_independence_is_ring_sensitive_on_the_torus(workdir, capsys):
    argv = [
        "independence",
        str(workdir / "torus.json"),
        str(workdir / "ca.json"),
        str(workdir / "cb.json"),
    ]
    assert run(argv + ["--ring", "zp:2"]) == 0
    out = capsys.readouterr().out
    assert "no obstruction" in out

    assert run(argv + ["--ring", "z", "--format", "json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "obstruction-found"
    witness = doc["witness"]
    assert witness["degree"] == 2
    assert witness["label"] == "a1∧b + a2∧b"

    # Re-verify the emitted certificate against an independently computed
    # label image, by plain dot products rather than the solver.
    cert = (witness["certificate"]["functional"], witness["certificate"]["modulus"])
    main_hda = load_hda(str(workdir / "torus.json"))
    rep = labeled_degree(main_hda, 2, ZZ)
    monomials = degree_monomials(main_hda.alphabet, 2)
    basis_cols = [label_to_column(x, 2, monomials) for x in rep.label_image_basis]
    idx = {a: i for i, a in enumerate(main_hda.alphabet.letters)}
    terms = {}
    for letters, coeff in witness["terms"]:
        terms[tuple(idx[a] for a in letters)] = coeff
    wedge = ExteriorElement(main_hda.alphabet, ZZ, terms)
    assert verify_nonmembership(
        basis_cols, label_to_column(wedge, 2, monomials), cert
    )


def test_independence_selector_errors(workdir, capsys):
    argv = [
        "independence",
        str(workdir / "torus.json"),
        str(workdir / "ca.json"),
        str(workdir / "cb.json"),
    ]
    assert run(argv + ["--classes", "1:0"]) == 2
    assert "one class selection per part" in capsys.readouterr().out
    assert run(argv + ["--classes", "1-0", "9:9"]) == 1
    assert run(argv + ["--classes", "1:0", "1:5"]) == 2


def test_independence_rejects_foreign_part_alphabet(workdir, capsys):
    code = run(
        ["independence", str(workdir / "lock_spec.json"), str(workdir / "ca.json")]
    )
    assert code == 2
    assert "not in the main alphabet" in capsys.readouterr().out


def test_implements_lock_counter_against_lock_spec(workdir, capsys):
    argv = [
        "implements",
        str(workdir / "lock.json"),
        str(workdir / "lock_spec.json"),
        "--format",
        "json",
    ]
    assert run(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "obstruction-found"
    assert doc["witnesses"][0]["degree"] == 2
    assert doc["witnesses"][0]["label"] == (
        "x++_0∧x++_1 + x++_0∧x--_1 + x--_0∧x++_1 + x--_0∧x--_1"
    )

    assert run(["implements", str(workdir / "lock.json"), str(workdir / "lock.json")]) == 0
    out = capsys.readouterr().out
    assert "no obstruction" in out


def test_implements_alphabet_mismatch(workdir, capsys):
    assert run(
        ["implements", str(workdir / "lock.json"), str(workdir / "torus.json")]
    ) == 2
    assert "alphabet mismatch" in capsys.readouterr().out


@pytest.mark.parametrize("ring", ["z", "zp:2", "zp:3"])
def test_implements_lets_the_implementation_go_before_reading_the_spec(
    ring, workdir, tmp_path, monkeypatch
):
    # One model at a time: the implementation is reduced to its labels, and
    # nothing holds its complex (the homology kept for it included) once the
    # specification is read.  The command runs without the cyclic collector,
    # so the model must go by reference counts alone.
    read = hda_lab.cli._checked_hda
    impl_complex = []
    alive_at_spec_read = []

    def checked(path, analysis):
        if impl_complex:
            alive_at_spec_read.append(impl_complex[0]() is not None)
        h = read(path, analysis)
        if not impl_complex:
            impl_complex.append(weakref.ref(h.complex))
        return h

    monkeypatch.setattr(hda_lab.cli, "_checked_hda", checked)
    argv = ["implements", str(workdir / "lock.json"), str(workdir / "lock_spec.json")]
    assert run(argv + ["--ring", ring, "--out", str(tmp_path / "report")]) == 3
    assert alive_at_spec_read == [False]


@pytest.fixture
def implements_inputs(workdir, tmp_path):
    """Per role, a valid, an invalid (an edge without a word) and an
    unreadable (absent) model file."""
    paths = {}
    for role, name in (("impl", "lock"), ("spec", "lock_spec")):
        doc = id_form(json.loads((workdir / f"{name}.json").read_text()))
        del next(e for e in doc["cubes"] if e["dim"] == 1)["label"]
        invalid = tmp_path / f"{role}-invalid.json"
        invalid.write_text(canonical_json(doc))
        paths[role] = {
            "valid": workdir / f"{name}.json",
            "invalid": invalid,
            "unreadable": tmp_path / f"{role}-absent.json",
        }
    return paths


@pytest.mark.parametrize(
    "impl, spec, code, named",
    [
        ("valid", "unreadable", 1, "spec"),
        ("valid", "invalid", 2, "spec"),
        ("invalid", "invalid", 2, "impl"),
        ("invalid", "unreadable", 2, "impl"),
        ("unreadable", "invalid", 1, "impl"),
        ("unreadable", "unreadable", 1, "impl"),
    ],
)
def test_implements_reports_the_first_broken_input(
    impl, spec, code, named, implements_inputs, capsys
):
    # The implementation is read, checked and reduced to its labels before
    # the specification is read, so a broken implementation is the one
    # reported, and a broken specification is reported as it always was.
    impl_path = implements_inputs["impl"][impl]
    spec_path = implements_inputs["spec"][spec]
    assert run(["implements", str(impl_path), str(spec_path)]) == code
    out, err = capsys.readouterr()
    path = impl_path if named == "impl" else spec_path
    if code == 1:
        assert out == ""
        assert err.startswith(f"hda-lab: {path}: ") and err.count("\n") == 1
    else:
        first, second = out.splitlines()
        assert (first, err) == (f"{path}: invalid", "")
        assert second.startswith("[unlabeled-edge] at (1, ")


# -- the bytes of both analyses ------------------------------------------------------


@pytest.fixture(scope="module")
def analysis_dir(tmp_path_factory):
    """The models of ANALYSIS_BYTES, one HDA file each."""
    from hda_lab import models
    from hda_lab.models import directed_circle, labeled_circle
    from hda_lab.products import tensor_hda

    # A pair whose certificates meet a nonempty span (as in test_labeling).
    spec = tensor_hda(
        directed_circle([("a", "a", "b"), ("c",)]), directed_circle([("d",), ("e", "e")])
    )
    impl = tensor_hda(
        directed_circle([("a", "b", "c", "d", "e")]), directed_circle([("b", "d"), ("c", "e")])
    )
    d = tmp_path_factory.mktemp("analyses")
    for name, h in {
        "peterson": program_to_hda(models.peterson()),
        "lock": program_to_hda(models.lock_counter()),
        "lockspec": models.lock_spec(),
        "torus": models.torus_hda(),
        "hollow": models.boundary_square(),
        "filled": models.filled_square(),
        "ca": labeled_circle(["a1", "a2"]),
        "cb": labeled_circle(["b"]),
        "a": labeled_circle(["a"]),
        "b": labeled_circle(["b"]),
        "ab": labeled_circle(["a", "b"]),
        "spec": spec,
        "impl": impl,
        "main": tensor_hda(spec, directed_circle([("f",)])),
        "d": directed_circle([("d",)]),
        "f": directed_circle([("f",)]),
    }.items():
        save_hda(h, str(d / f"{name}.json"))
    return d


# Command (model names stand for their files) -> SHA-256 of the exit code and
# stdout bytes over z, zp:2 and zp:3, in text and JSON.  The cases reach exit
# 0, 2 and 3, ``--classes``, skipped zero labels and wedges, a zero wedge, a
# wedge above the main model's top dimension, and certificates on a nonempty
# span.
ANALYSIS_BYTES = {
    "implements lock lockspec": "e94b79900ad3654940160d365ffd6d66567263c2cf063df71e9a633812a67a3a",
    "implements lockspec lock": "df4c9c51cd3f0f9b37c999d8b76fb8cd1157179ad19d5842ad2e21dc02b93099",
    "implements peterson peterson": "adadb851aadc6c32c036c7dabed0f2f3078d2373eb092e6b4dc2edcd3d7fb651",
    "implements hollow filled": "84fa81614f77e279f85e60b903d13cad1e93a6ecfca4b6f28629025f099a371f",
    "implements impl spec": "28eb138bdff37aed2a2fb0a383c7923c4acad68995f29135d29d900a66680c6b",
    "implements a b": "aa7a08203caa59af232b784b82c9d8238eb525c79b814f500c96cc4a8ceee553",
    "independence torus ca cb": "5ea4986fe352125a7b1b11f7dbf0d5c5db58e6270c4ac2232919fe9579468c74",
    "independence torus ca cb --classes 1:0 1:0": "5ea4986fe352125a7b1b11f7dbf0d5c5db58e6270c4ac2232919fe9579468c74",
    "independence ab a b": "2a75274cdf432475292778ac8dfec8813357b1de01dc0e4f587b484acf1f647b",
    "independence main spec f": "98a10c800ec6d33c27444f753900bc5013f61574b3986ee3ba58564de8d646b7",
    "independence filled hollow --classes 1:0": "0beeae84c1381d766cdfa96880e00c0e2bfd2db3ac3bda548cc7d50f70c51832",
    "independence filled a a": "8e0185ae566f4bfbc3abf0526ac7ed6aa85727fee31727a26fb2d7e1d747d961",
    "independence main a d f": "934b43583c02a7cfad5f946db4fb92db4724a355ddbc92cfb71187c0d95a3539",
    "independence torus a": "89911a9318df58f01cf970735f85d50eb891fd07901725e27aca1fa35b210a09",
}


@pytest.mark.parametrize("case", list(ANALYSIS_BYTES))
def test_analysis_bytes_are_pinned(case, analysis_dir, capsysbinary):
    from hashlib import sha256

    cmd, *words = case.split()
    argv = [cmd] + [
        w if w.startswith("-") or ":" in w else str(analysis_dir / f"{w}.json") for w in words
    ]
    digest = sha256()
    for ring in ("z", "zp:2", "zp:3"):
        for fmt in ("text", "json"):
            code = run(argv + ["--ring", ring, "--format", fmt])
            digest.update(f"{ring} {fmt} exit {code}\n".encode())
            digest.update(capsysbinary.readouterr().out)
    assert digest.hexdigest() == ANALYSIS_BYTES[case]


def test_dimap_check_subdivision(tmp_path, capsys):
    f = subdivision_dimap()
    save_hda(f.source, str(tmp_path / "src.json"))
    save_hda(f.target, str(tmp_path / "tgt.json"))
    save_dimap(f, str(tmp_path / "map.json"), "src.json", "tgt.json")
    assert run(["dimap-check", str(tmp_path / "map.json")]) == 0
    out = capsys.readouterr().out
    assert "structure: ok" in out
    assert "chain map: ok" in out
    assert "naturality: ok" in out


def test_dimap_check_flags_a_relabeled_target(tmp_path, capsys):
    # Swapping a1 and a2 on every target edge keeps the target a valid
    # automaton (opposite edges still agree) but the map no longer reads
    # the source words along its grid.
    f = subdivision_dimap()
    save_hda(f.source, str(tmp_path / "src.json"))
    doc = hda_to_json(f.target)
    swap = {("a1",): ["a2"], ("a2",): ["a1"]}
    words = doc["dims"][1]["labels"]
    doc["dims"][1]["labels"] = [swap.get(tuple(word), word) for word in words]
    (tmp_path / "tgt.json").write_text(canonical_json(doc))
    assert run(["validate", str(tmp_path / "tgt.json")]) == 0
    capsys.readouterr()
    save_dimap(f, str(tmp_path / "map.json"), "src.json", "tgt.json")
    assert run(["dimap-check", str(tmp_path / "map.json"), "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False


def test_dimap_check_does_not_pass_the_checks_a_broken_map_skips(dimap_dir, tmp_path, capsys):
    # The square's axis permutation [0, 1] is no permutation of 1..2, so the
    # structure check fails and the chain-map and naturality checks never run.
    for name in ("src.json", "tgt.json"):
        (tmp_path / name).write_bytes((dimap_dir / name).read_bytes())
    doc = json.loads((dimap_dir / "map.json").read_text())
    square = next(entry for entry in doc["cubes"] if len(entry["shape"]) == 2)
    square["sigma"] = [0, 1]
    (tmp_path / "map.json").write_text(json.dumps(doc))
    assert run(["dimap-check", str(tmp_path / "map.json")]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("structure: ") and out[0] != "structure: ok"
    assert out[-2:] == ["chain map: not checked", "naturality: not checked"]
    assert run(["dimap-check", str(tmp_path / "map.json"), "--format", "json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["structure"]
    assert report["chain_map"] is None and report["naturality"] is None


def test_dimap_check_reports_only_the_root_cause_of_a_broken_cube(tmp_path, capsys):
    # The torus identity with one grid cell of a square unmapped: the square
    # reports the missing cell, and no face or label defect derived from it.
    from hda_lab.dimap import identity_dimap
    from hda_lab.models import torus_hda

    f = identity_dimap(torus_hda())
    del f.cube_maps[(2, "s1")].flat[(0, 0)]
    save_hda(f.source, str(tmp_path / "torus.json"))
    save_dimap(f, str(tmp_path / "map.json"), "torus.json", "torus.json")
    assert run(["dimap-check", str(tmp_path / "map.json")]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "structure: 1 violations",
        "[flat-missing-cell] at (2, 's1'): grid cell (0, 0) unmapped",
        "chain map: not checked",
        "naturality: not checked",
    ]


def _damaged_map(dimap_dir, tmp_path, change):
    """Arguments naming the subdivision map of ``dimap_dir`` after ``change``
    of its bottom edge's grid data (``dimap.cubes[0]``), and a chain."""
    for name in ("src.json", "tgt.json", "chain.json"):
        (tmp_path / name).write_bytes((dimap_dir / name).read_bytes())
    doc = json.loads((dimap_dir / "map.json").read_text())
    assert doc["cubes"][0]["id"] == "bottom"
    change(doc["cubes"][0])
    (tmp_path / "map.json").write_text(json.dumps(doc))
    return {
        "dimap-check": [str(tmp_path / "map.json")],
        "pushforward": [str(tmp_path / "map.json"), "--chain", f"@{tmp_path / 'chain.json'}"],
    }


@pytest.mark.parametrize("command", ["dimap-check", "pushforward"])
@pytest.mark.parametrize(
    "field,value",
    [("shape", ["x"]), ("shape", [True]), ("shape", [2.0]), ("sigma", [1.0]), ("sigma", [None])],
)
def test_dimap_grid_data_must_be_integers(command, field, value, dimap_dir, tmp_path, capsys):
    args = _damaged_map(dimap_dir, tmp_path, lambda entry: entry.update({field: value}))
    assert run([command, *args[command]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"hda-lab: dimap.cubes[0].{field}: expected list of int\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["dimap-check", "pushforward"])
@pytest.mark.parametrize(
    "change,line",
    [
        (
            lambda entry: entry.update(shape=[10**7]),
            "[flat-missing-cell] at (1, 'bottom'): grid cell ((2, 3),) unmapped",
        ),
        (
            lambda entry: entry["flat"].update({"()": "(0,0)"}),
            "[flat-orphan-cell] at (1, 'bottom'): no grid cell ()",
        ),
    ],
    ids=["huge-shape", "short-coordinate"],
)
def test_broken_grid_data_is_reported(command, change, line, dimap_dir, tmp_path, capsys):
    # A grid of 2 * 10**7 + 1 cells against a table of 5 is reported from
    # the table alone; a coordinate shorter than the grid is an orphan.
    args = _damaged_map(dimap_dir, tmp_path, change)
    assert run([command, *args[command]]) == 2
    out = capsys.readouterr().out.splitlines()
    assert line in out
    assert sum(1 for text in out if text.startswith("[flat-")) == 1


def test_pushforward_through_subdivision(tmp_path, capsys):
    f = subdivision_dimap()
    save_hda(f.source, str(tmp_path / "src.json"))
    save_hda(f.target, str(tmp_path / "tgt.json"))
    save_dimap(f, str(tmp_path / "map.json"), "src.json", "tgt.json")
    square = f.source.complex.cells(2)[0]
    chain = json.dumps({"degree": 2, "coeffs": {str(square): 1}})
    assert run(
        ["pushforward", str(tmp_path / "map.json"), "--chain", chain,
         "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree"] == 2
    expected = pushforward_cube(f, (2, square))
    assert doc["image"] == {render_id(c[1]): k for c, k in expected.items()}
    assert doc["label"] == doc["image_label"]

    spec_file = tmp_path / "chain.json"
    spec_file.write_text(chain)
    assert run(
        ["pushforward", str(tmp_path / "map.json"), "--chain", "@" + str(spec_file),
         "--format", "json"]
    ) == 0
    assert json.loads(capsys.readouterr().out) == doc

    assert run(["pushforward", str(tmp_path / "map.json"), "--chain", "{nope"]) == 1
    assert run(
        ["pushforward", str(tmp_path / "map.json"), "--chain",
         '{"degree": 2, "coeffs": {"missing": 1}}']
    ) == 1


def test_exit_codes_for_broken_input(tmp_path, workdir):
    assert run(["homology", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": [}')
    assert run(["validate", str(bad)]) == 1
    assert run(["homology", str(workdir / "peterson.json"), "--ring", "zp:4"]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["model", "philosophers"]) == 1
    assert run(["model", "circle", "--labels", "a,,b"]) == 1
    assert run(["model", "circle", "--labels", "a..b"]) == 1


def _broken_program(case: str) -> str:
    doc = program_to_json(peterson())
    transition = doc["processes"][0]["transitions"][0]
    if case == "unknown comparison":
        transition["guard"] = ["cmp", "=~", doc["variables"][0]["name"], 0]
    elif case == "text comparison value":
        transition["guard"] = ["cmp", "<", doc["variables"][0]["name"], "zero"]
    elif case == "text effect amount":
        transition["effects"] = [["add", doc["variables"][0]["name"], "one"]]
    elif case == "list in a domain":
        doc["variables"][0]["domain"].append([1])
    else:
        guard = json.dumps(transition["guard"])
        transition["guard"] = "GUARD"
        deep = '["not", ' * 1500 + guard + "]" * 1500
        return canonical_json(doc).replace('"GUARD"', deep)
    return canonical_json(doc)


@pytest.mark.parametrize(
    "case",
    [
        "unknown comparison",
        "text comparison value",
        "text effect amount",
        "list in a domain",
        "guard nested 1500 deep",
    ],
)
def test_malformed_program_file_exits_with_a_message(case, tmp_path, capsys):
    path = tmp_path / "broken.prog.json"
    path.write_text(_broken_program(case))
    assert run(["model", "program", "--file", str(path)]) in (1, 2)
    err = capsys.readouterr().err
    assert err.startswith("hda-lab: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "alphabet, message",
    [
        ([[]], "hda.alphabet: letters must be nonempty strings, got []"),
        ([{}], "hda.alphabet: letters must be nonempty strings, got {}"),
        ([3], "hda.alphabet: letters must be nonempty strings, got 3"),
        (["a", "a"], "hda.alphabet: alphabet letters must be distinct"),
    ],
)
def test_malformed_hda_alphabet_exits_one_with_a_message(
    alphabet, message, workdir, tmp_path, capsys
):
    doc = json.loads((workdir / "peterson.json").read_text())
    doc["alphabet"] = alphabet
    path = tmp_path / "bad_alphabet.json"
    path.write_text(canonical_json(doc))
    for command in ("homology", "labels"):
        assert run([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"hda-lab: {path}: {message}\n"


def _separator_program(state_a: str, state_b: str, action: str) -> dict:
    """Two one-step processes; the separators in the names can merge states."""

    def process(name, source, target, act):
        return {
            "name": name,
            "start": source,
            "states": [source, target],
            "transitions": [
                {"action": act, "effects": [], "from": source, "guard": ["true"], "to": target}
            ],
        }

    return {
        "name": "separators",
        "processes": [process("p", "a", state_a, action), process("q", state_b, "c", "y")],
        "variables": [],
    }


@pytest.mark.parametrize(
    "names, message",
    [
        # ("a", "b,c") and ("a,b", "c") would both key to "a,b,c|".
        (("a,b", "b,c", "x"), "state names must not contain ',' or '|'"),
        (("a|b", "b", "x"), "state names must not contain ',' or '|'"),
        (("b", "b", "x!y"), "action names must be strings without '!'"),
    ],
)
def test_separator_characters_in_program_names_exit_two(names, message, tmp_path, capsys):
    path = tmp_path / "separators.prog.json"
    path.write_text(canonical_json(_separator_program(*names)))
    out = tmp_path / "separators.json"
    assert run(["model", "program", "--file", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hda-lab: invalid program:")
    assert message in err
    assert not out.exists()


def test_separator_free_program_compiles_all_states(tmp_path):
    path = tmp_path / "separators.prog.json"
    path.write_text(canonical_json(_separator_program("a_b", "b_c", "x")))
    out = tmp_path / "separators.json"
    assert run(["model", "program", "--file", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [len(entry["ids"]) for entry in doc["dims"]] == [4, 4, 1]


def test_invalid_hda_exits_two_with_diagnosis(workdir, tmp_path, capsys):
    doc = id_form(json.loads((workdir / "peterson.json").read_text()))
    edge = next(e for e in doc["cubes"] if e["dim"] == 1)
    del edge["label"]
    path = tmp_path / "unlabeled.json"
    path.write_text(canonical_json(doc))
    assert run(["validate", str(path)]) == 2
    assert "unlabeled-edge" in capsys.readouterr().out
    assert run(["homology", str(path)]) == 2
    assert "unlabeled-edge" in capsys.readouterr().out


def test_short_inner_face_tuple_exits_two_without_traceback(workdir, tmp_path, capsys):
    doc = id_form(json.loads((workdir / "peterson.json").read_text()))
    square = next(e for e in doc["cubes"] if e["dim"] == 2)
    edge = next(e for e in doc["cubes"] if e["dim"] == 1 and e["id"] == square["d0"][0])
    edge["d0"] = []
    path = tmp_path / "short_face.json"
    path.write_text(canonical_json(doc))
    for command in ("validate", "homology"):
        assert run([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert f"[face-arity] at (1, '{edge['id']}')" in captured.out
        assert "cubical-identity" not in captured.out
        assert "Traceback" not in captured.out + captured.err


def test_model_program_file_matches_named_model(tmp_path, workdir):
    prog_path = tmp_path / "peterson_prog.json"
    save_program(peterson(), str(prog_path))
    out_path = tmp_path / "compiled.json"
    assert run(["model", "program", "--file", str(prog_path), "--out", str(out_path)]) == 0
    assert out_path.read_text() == (workdir / "peterson.json").read_text()


def test_console_script_entry_point(workdir):
    proc = _python("-m", "hda_lab.cli", "homology", str(workdir / "peterson.json"))
    assert proc.returncode == 0
    assert "H_1 = Z^5" in proc.stdout


def test_vertex_moved_to_a_high_dimension_exits_two(workdir, tmp_path, capsys):
    doc = id_form(json.loads((workdir / "lock_spec.json").read_text()))
    vertex = next(e for e in doc["cubes"] if e["dim"] == 0)
    vertex["dim"] = 300
    path = tmp_path / "high_vertex.json"
    path.write_text(canonical_json(doc))
    assert run(["labels", str(path)]) == 2
    captured = capsys.readouterr()
    assert (
        f"[face-arity] at (300, '{vertex['id']}'): "
        "expected 300 lower and upper faces, got 0/0" in captured.out
    )
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["model", "homology"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_one_with_a_message(command, target, workdir, tmp_path, capsys):
    out = tmp_path / "absent" / "out.json" if target == "missing-dir" else tmp_path
    argv = ["model", "klein"] if command == "model" else ["homology", str(workdir / "torus.json")]
    assert run(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    reason = "No such file or directory" if target == "missing-dir" else "Is a directory"
    assert captured.err == f"hda-lab: {out}: {reason}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{f}"],
        ["homology", "{f}"],
        ["model", "program", "--file", "{f}"],
        ["dimap-check", "{f}"],
        ["pushforward", "{d}/map.json", "--chain", "@{f}"],
    ],
)
def test_input_that_is_not_utf8_exits_one_naming_the_file(argv, dimap_dir, tmp_path, capsys):
    path = tmp_path / "not_utf8.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run([a.format(f=path, d=dimap_dir) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"hda-lab: {path}: 'utf-8' codec can't decode byte 0xff in position 0:"
        " invalid start byte\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("form", ["inline", "file"])
def test_deeply_nested_chain_exits_one_with_a_message(form, dimap_dir, tmp_path, capsys):
    deep = "[" * 100000 + "]" * 100000
    spec = tmp_path / "deep.json"
    spec.write_text(deep)
    chain = deep if form == "inline" else f"@{spec}"
    assert run(["pushforward", str(dimap_dir / "map.json"), "--chain", chain]) == 1
    captured = capsys.readouterr()
    where = "chain" if form == "inline" else spec
    assert captured.err == f"hda-lab: {where}: JSON nested too deeply\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"degree": 1\n"coeffs": {}}', "line 2 column 1: Expecting ',' delimiter"),
        ("[1]", "expected a JSON object"),
        ('{"degree": 1, "coeffs": {"zz": 1}}', "chain.coeffs: no cube 'zz' in degree 1"),
    ],
    ids=["syntax", "not-an-object", "schema"],
)
def test_a_broken_chain_file_exits_one_naming_the_file(
    text, reason, dimap_dir, tmp_path, capsys
):
    spec = tmp_path / "bad.json"
    spec.write_text(text)
    assert run(["pushforward", str(dimap_dir / "map.json"), "--chain", f"@{spec}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"hda-lab: {spec}: {reason}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, where",
    [
        (["validate", "{f}"], "{f}"),
        (["homology", "{f}"], "{f}"),
        (["labels", "{f}"], "{f}"),
        (["tensor", "{f}", "{w}/cb.json"], "{f}"),
        (["model", "program", "--file", "{p}"], "{p}"),
        (["dimap-check", "{m}"], "{m}"),
        (["pushforward", "{d}/map.json", "--chain", "{c}"], "chain"),
        (["pushforward", "{d}/map.json", "--chain", "@{cf}"], "{cf}"),
    ],
)
def test_an_over_long_integer_literal_exits_one_naming_the_file(
    argv, where, workdir, dimap_dir, tmp_path, capsys
):
    # json.loads refuses an int literal past the interpreter's digit limit
    # with a plain ValueError, which is not a validation failure.
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no digit limit")
    big = "9" * (limit + 1)
    klein = tmp_path / "klein.json"
    assert run(["model", "klein", "--out", str(klein)]) == 0
    klein.write_text(f'{{"big": {big}, ' + klein.read_text()[1:])
    names = {"f": klein, "w": workdir, "d": dimap_dir, "c": f'{{"degree": {big}}}'}
    names["cf"] = tmp_path / "chain.json"
    names["cf"].write_text(names["c"])
    for key, source in (("p", "peterson.prog.json"), ("m", "map.json")):
        names[key] = tmp_path / source
        names[key].write_text(f'{{"big": {big}, ' + (dimap_dir / source).read_text()[1:])
    assert run([a.format(**names) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"hda-lab: {where.format(**names)}: Exceeds the limit")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv", [["validate"], ["homology"], ["labels"], ["tensor", "{w}/cb.json"]]
)
@pytest.mark.parametrize("side", ["d0", "d1"])
def test_a_vertex_with_faces_exits_one_naming_the_file(argv, side, workdir, tmp_path, capsys):
    # The writer has no place for a vertex's faces, so the loader refuses
    # them rather than dropping them.
    klein = tmp_path / "klein.json"
    assert run(["model", "klein", "--out", str(klein)]) == 0
    doc = id_form(json.loads(klein.read_text()))
    assert doc["cubes"][0]["dim"] == 0
    doc["cubes"][0][side] = [doc["cubes"][1]["id"]]
    klein.write_text(json.dumps(doc))
    assert run([argv[0], str(klein), *(a.format(w=workdir) for a in argv[1:])]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"hda-lab: {klein}: hda.cubes[0]: a vertex has no faces\n"
    assert captured.out == ""


def _in_form(src, dst, form):
    """Copy every file of ``src`` to ``dst``, automata translated by ``form``."""
    dst.mkdir()
    for path in src.iterdir():
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            if "dims" in doc and "alphabet" in doc:
                doc = form(doc)
            (dst / path.name).write_text(canonical_json(doc))


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{w}/peterson.json"],
        ["validate", "{w}/torus.json"],
        ["homology", "{w}/peterson.json"],
        ["homology", "{w}/torus.json", "--ring", "zp:2"],
        ["labels", "{w}/torus.json"],
        ["labels", "{w}/peterson.json", "--ring", "zp:3"],
        ["implements", "{w}/lock.json", "{w}/lock_spec.json"],
        ["independence", "{w}/torus.json", "{w}/ca.json", "{w}/cb.json"],
        ["dimap-check", "{d}/map.json"],
    ],
)
def test_analyses_give_the_same_bytes_from_either_face_form(
    argv, workdir, dimap_dir, tmp_path, capsys
):
    # The files as written, in the dims form, then in the record form.
    dirs = [(workdir, dimap_dir), (tmp_path / "w-records", tmp_path / "d-records")]
    _in_form(workdir, dirs[1][0], id_form)
    _in_form(dimap_dir, dirs[1][1], id_form)
    assert "dims" in json.loads((workdir / "peterson.json").read_text())
    for fmt in ("text", "json"):
        outputs = []
        for w, d in dirs:
            code = run([a.format(w=w, d=d) for a in argv] + ["--format", fmt])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0][0] in (0, 3)
        assert outputs[0] == outputs[1]


# -- the layout of HDA files -------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "klein"],
        ["model", "peterson"],
        ["model", "circle", "--labels", "é,b"],
        ["model", "philosophers", "--n", "3"],
        ["tensor", "{w}/ca.json", "{w}/cb.json"],
    ],
)
def test_model_and_tensor_write_one_line(argv, workdir, tmp_path, capsys):
    argv = [a.format(w=workdir) for a in argv]
    assert run(argv) == 0
    text = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == text.encode()
    assert text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def _indented(src, dst):
    """Copy every file of ``src`` to ``dst`` in the layout of the writer
    before the one-line HDA files: every document indented by two spaces."""
    dst.mkdir()
    for path in src.iterdir():
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            (dst / path.name).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize("ring", ["z", "zp:2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "{w}/peterson.json"],
        ["homology", "{w}/torus.json"],
        ["labels", "{w}/torus.json"],
        ["labels", "{w}/peterson.json"],
        ["implements", "{w}/lock.json", "{w}/lock_spec.json"],
        ["independence", "{w}/torus.json", "{w}/ca.json", "{w}/cb.json"],
    ],
)
def test_analyses_give_the_same_bytes_from_the_previous_indented_layout(
    argv, ring, workdir, tmp_path, capsys
):
    dirs = [workdir, tmp_path / "indented"]
    _indented(workdir, dirs[1])
    assert (dirs[1] / "peterson.json").read_text().count("\n") > 1
    for fmt in ("text", "json"):
        outputs = []
        for w in dirs:
            code = run([a.format(w=w) for a in argv] + ["--ring", ring, "--format", fmt])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0][0] in (0, 3)
        assert outputs[0] == outputs[1]


# The refusal of a "faces" list of integers, as the writer before the packed
# form made them, whatever its elements.
REWRITE = "a list of positions, as an earlier writer made; run 'model' or 'tensor' again to write this file"


@pytest.mark.parametrize("face", [True, 0.0, -1, "v"])
@pytest.mark.parametrize("command", ["validate", "homology", "labels"])
def test_a_malformed_position_exits_one_naming_the_file(face, command, workdir, tmp_path, capsys):
    doc = json.loads((workdir / "lock_spec.json").read_text())
    last = doc["dims"][-1]
    last["faces"] = unpack_faces(last["faces"])
    last["faces"][-1] = face
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"hda-lab: {path}: hda.dims[{len(doc['dims']) - 1}].faces: {REWRITE}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "homology", "labels"])
def test_a_position_record_file_exits_one_naming_the_file(command, workdir, tmp_path, capsys):
    # One record per cube with faces by position, as one earlier writer made
    # them: the loader no longer reads them, and the first record with faces
    # is named.  The model command writes the file again in the dims form.
    doc = records(json.loads((workdir / "lock_spec.json").read_text()))
    first = next(pos for pos, entry in enumerate(doc["cubes"]) if entry["d0"])
    path = tmp_path / "positions.json"
    path.write_text(json.dumps(doc))
    assert run([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"hda-lab: {path}: hda.cubes[{first}]: face ids must be strings\n"
    assert captured.out == ""


def test_ids_and_positions_in_one_file_exit_one(workdir, tmp_path, capsys):
    # Faces are named by id; a record that names them by position is
    # refused, wherever it stands.
    by_id = id_form(json.loads((workdir / "lock_spec.json").read_text()))
    edges = [pos for pos, entry in enumerate(by_id["cubes"]) if entry["d0"]]
    for pos in (edges[0], edges[-1]):
        mixed = json.loads(json.dumps(by_id))
        mixed["cubes"][pos]["d1"] = [0]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(mixed))
        assert run(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"hda-lab: {path}: hda.cubes[{pos}]: face ids must be strings\n"
        assert captured.out == ""


def _faces(n, change, pack=pack_faces):
    """An edit that makes ``change`` to the positions of dims[n], as a list,
    and writes them back packed, or as ``pack`` gives them."""
    def edit(doc):
        flat = unpack_faces(doc["dims"][n]["faces"])
        change(flat)
        doc["dims"][n]["faces"] = pack(flat)
    return edit


def _text(n, change):
    """An edit that makes ``change`` to the "faces" text of dims[n]."""
    def edit(doc):
        doc["dims"][n]["faces"] = change(doc["dims"][n]["faces"])
    return edit


def _noncanonical(text):
    """The text with the unused low bits of its last character set: the same
    bytes when decoded, but not the text the writer makes."""
    digits = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
    assert text.endswith("=") and not text.endswith("==")
    return text[:-2] + digits[digits.index(text[-2]) | 1] + "="


NOT_BASE64 = "hda.dims[1].faces: expected canonical base64 text"

# Each refused with exit 1 and one line; lock_spec.json has three vertices
# and four one-letter edges, so dims[1] holds 8 positions, 32 bytes.
DIMS_REFUSALS = {
    "extra-key": (_set(["dims", 0, "note"], "x"), "hda.dims[0]: unexpected field 'note'"),
    "missing-key": (_drop(["dims", 1, "faces"]), "hda.dims[1]: missing field 'faces'"),
    "labels-off-dimension-one": (
        _set(["dims", 0, "labels"], []), "hda.dims[0]: labels are only allowed on dimension 1"
    ),
    "not-an-object": (_set(["dims", 1], []), "hda.dims[1]: expected an object"),
    "int-id": (_set(["dims", 0, "ids", 2], 2), "hda.dims[0].ids: ids must be strings"),
    "repeated-id": (_set(["dims", 0, "ids", 2], "v"), "hda.dims[0].ids: repeated id 'v'"),
    "short-faces": (
        _faces(1, lambda flat: flat.pop(7)),
        "hda.dims[1].faces: expected 2 positions per cell, got 7 for 4 cells",
    ),
    "vertex-faces": (
        _set(["dims", 0, "faces"], pack_faces([0] * 6)),
        "hda.dims[0].faces: expected 0 positions per cell, got 6 for 3 cells",
    ),
    # Positions in a list of integers, whatever the list holds.
    **{
        f"{name}-face": (
            _faces(1, lambda flat, face=face: flat.__setitem__(5, face), pack=list),
            f"hda.dims[1].faces: {REWRITE}",
        )
        for name, face in (("bool", True), ("float", 1.0), ("negative", -1), ("string", "v"))
    },
    "integer-list": (_faces(1, lambda flat: None, pack=list), f"hda.dims[1].faces: {REWRITE}"),
    "number": (_set(["dims", 1, "faces"], 5), "hda.dims[1].faces: expected str"),
    # The one text the writer makes, and nothing else that decodes.
    "non-base64-character": (_text(1, lambda t: t[:4] + "*" + t[4:]), NOT_BASE64),
    "non-ascii-character": (_text(1, lambda t: t[:4] + "\u00e9" + t[4:]), NOT_BASE64),
    "bad-padding": (_text(1, lambda t: t.rstrip("=")), NOT_BASE64),
    "newline": (_text(1, lambda t: t[:8] + "\n" + t[8:]), NOT_BASE64),
    "trailing-newline": (_text(1, lambda t: t + "\n"), NOT_BASE64),
    "non-canonical": (_text(1, _noncanonical), NOT_BASE64),
    "ragged-bytes": (
        _text(1, lambda t: base64.b64encode(base64.b64decode(t)[:-2]).decode()),
        "hda.dims[1].faces: 30 bytes are not whole 4-byte positions",
    ),
    "past-the-end": (
        _faces(1, lambda flat: flat.__setitem__(5, 3)),
        "hda.dims[1].faces: position 3 is past the end of dimension 0",
    ),
    "far-past-the-end": (
        _faces(1, lambda flat: flat.__setitem__(0, 2**32 - 1)),
        f"hda.dims[1].faces: position {2**32 - 1} is past the end of dimension 0",
    ),
    "missing-word": (
        _drop(["dims", 1, "labels", 3]),
        "hda.dims[1].labels: expected one word per edge, got 3 for 4 edges",
    ),
    "word-not-a-list": (
        _set(["dims", 1, "labels", 0], "x++_0"), "hda.dims[1].labels: expected a list per word"
    ),
    "int-letter": (_set(["dims", 1, "labels", 0], [3]), "hda.dims[1].labels: letters must be strings"),
    "dims-not-a-list": (lambda doc: doc.update(dims={}), "hda.dims: expected list"),
    "both": (
        lambda doc: doc.update(cubes=id_form(doc)["cubes"]),
        "hda: both 'dims' and 'cubes'; a file holds one of them",
    ),
    "neither": (lambda doc: doc.pop("dims"), "hda: missing field 'dims'"),
}


@pytest.mark.parametrize("case", sorted(DIMS_REFUSALS))
def test_a_malformed_dims_entry_exits_one_naming_the_file(case, workdir, tmp_path, capsys):
    edit, message = DIMS_REFUSALS[case]
    doc = json.loads((workdir / "lock_spec.json").read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "homology"):
        assert run([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"hda-lab: {path}: {message}\n"
        assert captured.out == ""


# Each loads and is reported by validate with exit 2; torus.json has two
# vertices, edges b, b, a1, a2 and two squares.
DIMS_SEMANTIC_DEFECTS = {
    "unlabeled-edge": _drop(["dims", 1, "labels"]),
    "unknown-letter": _set(["dims", 1, "labels"], [["zz"], ["zz"], ["a1"], ["a2"]]),
    "cubical-identity": _faces(1, lambda flat: flat.__setitem__(0, 1)),
    "square-condition": _set(["dims", 1, "labels", 0], ["a1"]),
    "initial-not-in-complex": lambda doc: doc.update(initial=["nowhere"]),
}


@pytest.mark.parametrize("kind", sorted(DIMS_SEMANTIC_DEFECTS))
def test_a_semantic_defect_in_the_dims_form_reaches_validate(kind, workdir, tmp_path, capsys):
    doc = json.loads((workdir / "torus.json").read_text())
    DIMS_SEMANTIC_DEFECTS[kind](doc)
    path = tmp_path / "defect.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert {line.split("]")[0][1:] for line in captured.out.splitlines()[:-1]} == {kind}


def test_report_with_a_lone_surrogate_exits_one_and_writes_nothing(
    tmp_path, capsys, monkeypatch
):
    # A JSON escape such as "\ud800" loads as a letter no encoding can write,
    # so a file with such a letter is refused at load.
    model = tmp_path / "surrogate.json"
    assert run(["model", "circle", "--labels", "x,b", "--out", str(model)]) == 0
    model.write_text(model.read_text().replace('"x"', '"\\ud800"'))
    assert '"\\ud800"' in model.read_text()
    out = tmp_path / "labels.txt"
    for argv in (["validate"], ["labels"], ["labels", "--out", str(out)]):
        assert run([argv[0], str(model), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"hda-lab: {model}: hda.alphabet: letter '\\ud800' holds a lone surrogate\n"
        )
        assert captured.out == ""
        assert not out.exists()
    # A report that holds one all the same is refused before it is written.
    monkeypatch.setitem(hda_lab.cli._DISPATCH, "labels", lambda args: (0, {}, "\ud800\n"))
    for extra in ([], ["--out", str(out)]):
        assert run(["labels", str(model), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "hda-lab: report cannot be written as UTF-8: '\\ud800': surrogates not allowed\n"
        )
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("letter", ["\ud800", "\udced\udca0\udc80", "a\udfff"])
def test_model_circle_refuses_a_letter_with_a_lone_surrogate(letter, tmp_path, capsys):
    # Python decodes argv bytes that are not UTF-8 (b"\xed\xa0\x80") to
    # surrogates; the program must not write a file that it then refuses.
    out = tmp_path / "circle.json"
    assert run(["model", "circle", "--labels", f"{letter},b", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"hda-lab: letter {letter!r} holds a lone surrogate\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "homology"])
def test_empty_letter_in_a_file_exits_one_naming_it(command, tmp_path, capsys):
    model = tmp_path / "empty.json"
    assert run(["model", "circle", "--labels", "x,b", "--out", str(model)]) == 0
    model.write_text(model.read_text().replace('"x"', '""'))
    assert run([command, str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"hda-lab: {model}: hda.alphabet: letters must be nonempty strings, got ''\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["model klein", "tensor {w}/ca.json {w}/cb.json"])
def test_model_and_tensor_encode_the_document_once(command, fmt, workdir, monkeypatch, capsys):
    calls = []

    def counting(doc):
        calls.append(doc)
        return canonical_json(doc)

    monkeypatch.setattr(hda_lab.cli, "canonical_json", counting)
    assert run(command.format(w=workdir).split() + ["--format", fmt]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == canonical_json(calls[0])


# -- what each command loads ------------------------------------------------------

SRC = Path(hda_lab.__file__).resolve().parents[1]


def _python(*args, cwd=None, timeout=None, env=None, text=True):
    """A child interpreter that finds this package first; ``env`` replaces
    this process's environment, and ``text=False`` keeps the output bytes."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(env or os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=text, env=env, cwd=cwd,
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "spec, message",
    [
        ("zp:0", "bad ring spec 'zp:0': use 'z' for the integers"),
        # prime: trial division to its square root would run for hours
        (
            "zp:1000000000000000003",
            "characteristic must be 0 or a prime below 2**31, got 1000000000000000003",
        ),
    ],
)
def test_out_of_range_ring_exits_one_with_a_message(spec, message, workdir):
    peterson_file = str(workdir / "peterson.json")
    proc = _python("-m", "hda_lab.cli", "homology", peterson_file, "--ring", spec, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if not line.startswith(("usage", " "))]
    assert errors == [f"hda-lab homology: error: argument --ring: {message}"]


@pytest.fixture(scope="module")
def dimap_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("dimap")
    f = subdivision_dimap()
    save_hda(f.source, str(d / "src.json"))
    save_hda(f.target, str(d / "tgt.json"))
    save_dimap(f, str(d / "map.json"), "src.json", "tgt.json")
    square = f.source.complex.cells(2)[0]
    (d / "chain.json").write_text(json.dumps({"degree": 2, "coeffs": {str(square): 1}}))
    save_program(peterson(), str(d / "peterson.prog.json"))
    return d


_BASE = "cli fileformats hda precubical rings"
_LABELS = " exterior homology labeling"

# Command line (files relative to the work directories) -> the package's
# modules loaded once it has run, besides hda_lab itself.  Only commands
# that read labels compile the exterior algebra; only products and maps
# compile the cube constructions.
IMPORTS = {
    "validate {w}/peterson.json": _BASE,
    "model klein": _BASE + " models",
    "model peterson": _BASE + " models programs",
    "model circle --labels a.b,c": _BASE + " models",
    "model program --file {d}/peterson.prog.json": _BASE + " programs",
    "tensor {w}/ca.json {w}/cb.json": _BASE + " constructions products",
    "homology {w}/peterson.json": _BASE + " homology",
    "labels {w}/peterson.json": _BASE + _LABELS,
    "implements {w}/lock.json {w}/lock_spec.json": _BASE + _LABELS + " reports",
    "independence {w}/torus.json {w}/ca.json {w}/cb.json": _BASE + _LABELS + " reports",
    "dimap-check {d}/map.json": _BASE + _LABELS + " constructions dimap",
    "pushforward {d}/map.json --chain @{d}/chain.json": _BASE + _LABELS + " constructions dimap",
}


@pytest.mark.parametrize("command", ["validate {t}/dangling.json", *IMPORTS])
def test_report_documents_encode_as_json_dumps(
    command, workdir, dimap_dir, tmp_path, monkeypatch, capsys
):
    doc = id_form(json.loads((workdir / "lock.json").read_text()))
    doc["cubes"][-1]["d0"][0] = "nowhere"
    (tmp_path / "dangling.json").write_text(json.dumps(doc))
    docs = []

    def recording(doc):
        docs.append(doc)
        return canonical_json(doc)

    monkeypatch.setattr(hda_lab.cli, "canonical_json", recording)
    argv = command.format(w=workdir, d=dimap_dir, t=tmp_path).split()
    assert run(argv + ["--format", "json"]) in (0, 2, 3)
    assert len(docs) == 1
    # The HDA files that model and tensor write are one line; reports are indented.
    indent = None if argv[0] in ("model", "tensor") else 2
    assert canonical_json(docs[0]) == json.dumps(docs[0], sort_keys=True, indent=indent) + "\n"
    assert capsys.readouterr().out == canonical_json(docs[0])


# Prints the exit code, the modules loaded when the command first reads an
# input file (or at the end, if it reads none), the modules loaded at the end,
# the top-level modules the run loaded from outside the package and the
# standard library (the package has no runtime dependencies), and which of
# dataclasses and inspect the run loaded (about 10 ms of import between them).
_LOADED_SCRIPT = """
import sys
at_start = set(sys.modules)
import hda_lab.cli as cli

def loaded():
    return " ".join(sorted(m[len("hda_lab."):] for m in sys.modules if m.startswith("hda_lab.")))

first = []

def recording(load):
    def read(path):
        first.append(loaded())
        return load(path)
    return read

for name in ("load_hda", "load_dimap", "load_program"):
    setattr(cli, name, recording(getattr(cli, name)))
code = cli.main(sys.argv[1:])
tops = {m.partition(".")[0] for m in set(sys.modules) - at_start}
foreign = sorted(tops - set(sys.stdlib_module_names) - {"hda_lab"})
heavy = sorted({"dataclasses", "inspect"} & (set(sys.modules) - at_start))
print(code, *(first[:1] or [loaded()]), loaded(), " ".join(foreign), " ".join(heavy), sep="\\n")
"""


@pytest.mark.parametrize("command", sorted(IMPORTS))
def test_each_command_loads_only_the_layers_it_runs(command, workdir, dimap_dir, tmp_path):
    # Loaded before the input is read, so that compiling a layer does not add
    # to the peak memory of a process holding a large automaton.
    argv = command.format(w=workdir, d=dimap_dir).split()
    proc = _python("-c", _LOADED_SCRIPT, *argv, "--out", str(tmp_path / "report"))
    assert proc.stderr == ""
    code, at_first_read, at_end, foreign, heavy = proc.stdout.split("\n")[:5]
    assert code in ("0", "3")
    assert at_end == " ".join(sorted(IMPORTS[command].split()))
    assert at_first_read == at_end
    assert foreign == ""
    # Only the program compiler keeps dataclasses; a command that does not
    # compile a program pays for neither import.
    if "programs" not in at_end.split():
        assert heavy == ""


# -- the cyclic collector and internal errors -----------------------------------------


@pytest.fixture(scope="module")
def large_dir(tmp_path_factory):
    from hda_lab.dimap import identity_dimap
    from hda_lab.models import dining_philosophers
    from test_programs import shuffled_butler

    d = tmp_path_factory.mktemp("large")
    save_program(dining_philosophers(4), str(d / "phil4.prog.json"))
    save_program(shuffled_butler(3, "butler3"), str(d / "butler3.prog.json"))
    for argv in (
        ["model", "philosophers", "--n", "4", "--out", str(d / "phil4.json")],
        ["model", "philosophers", "--n", "3", "--out", str(d / "phil3.json")],
        ["model", "program", "--file", str(d / "butler3.prog.json"), "--out", str(d / "butler3.json")],
    ):
        assert run(argv) == 0
    for i in range(2):
        steps = ",".join(f"{s}_{i}" for s in ("pick_l", "pick_r", "eat", "put_l", "put_r", "think"))
        assert run(["model", "circle", "--labels", steps, "--out", str(d / f"loop{i}.json")]) == 0
    phil3 = load_hda(str(d / "phil3.json"))
    save_dimap(identity_dimap(phil3), str(d / "idmap.json"), "phil3.json", "phil3.json")
    square = phil3.complex.cells(2)[0]
    (d / "chain.json").write_text(json.dumps({"degree": 2, "coeffs": {square: 1}}))
    return d


# Each command of IMPORTS on a large input ({l}: the large_dir fixture).
LARGER = {
    "validate {w}/peterson.json": "validate {l}/phil4.json",
    "model klein": "model circle --labels " + ",".join(f"a{i}.b{i}" for i in range(200)),
    "model peterson": "model philosophers --n 4",
    "model circle --labels a.b,c": "model circle --labels " + ",".join(f"c{i}" for i in range(300)),
    "model program --file {d}/peterson.prog.json": "model program --file {l}/phil4.prog.json",
    "tensor {w}/ca.json {w}/cb.json": "tensor {l}/phil3.json {l}/loop0.json",
    "homology {w}/peterson.json": "homology {l}/phil4.json",
    "labels {w}/peterson.json": "labels {l}/phil4.json",
    "implements {w}/lock.json {w}/lock_spec.json": "implements {l}/phil3.json {l}/butler3.json",
    "independence {w}/torus.json {w}/ca.json {w}/cb.json":
        "independence {l}/phil3.json {l}/loop0.json {l}/loop1.json",
    "dimap-check {d}/map.json": "dimap-check {l}/idmap.json",
    "pushforward {d}/map.json --chain @{d}/chain.json":
        "pushforward {l}/idmap.json --chain @{l}/chain.json",
}

_COLLECTED_SCRIPT = """
import gc, sys
from hda_lab.cli import main
print(main(sys.argv[1:]), gc.collect())
"""


def test_every_command_has_a_larger_input():
    assert sorted(LARGER) == sorted(IMPORTS)


@pytest.mark.parametrize("command", sorted(IMPORTS))
def test_the_cycles_a_command_leaves_do_not_grow_with_its_input(
    command, workdir, dimap_dir, large_dir, tmp_path
):
    # main runs without the cyclic collector; that is safe while the cycles
    # it leaves are the imports' and none are made per cell of the input.
    found = []
    for line in (command, LARGER[command]):
        argv = line.format(w=workdir, d=dimap_dir, l=large_dir).split()
        proc = _python("-c", _COLLECTED_SCRIPT, *argv, "--out", str(tmp_path / "report"))
        assert proc.stderr == ""
        code, collected = proc.stdout.split()
        assert code in ("0", "3")
        found.append(int(collected))
    assert found[0] == found[1]


@pytest.mark.parametrize("collector", [True, False])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "{w}/peterson.json"], 0),
        (["validate", "{w}/nowhere.json"], 1),
        (["validate", "{t}/dangling.json"], 2),
        (["implements", "{w}/lock.json", "{w}/lock_spec.json"], 3),
        (["homology"], 1),
        (["validate", "--help"], 0),
        (["internal-error"], 1),
    ],
)
def test_main_gives_back_the_callers_collector_state(
    argv, code, collector, workdir, tmp_path, monkeypatch, capsys
):
    doc = id_form(json.loads((workdir / "lock.json").read_text()))
    doc["cubes"][-1]["d0"][0] = "nowhere"
    (tmp_path / "dangling.json").write_text(json.dumps(doc))
    if argv == ["internal-error"]:
        monkeypatch.setattr(hda_lab.cli, "all_homology", lambda *a: {}[0])
        argv = ["homology", "{w}/peterson.json"]
    was = gc.isenabled()
    (gc.enable if collector else gc.disable)()
    try:
        assert run([a.format(w=workdir, t=tmp_path) for a in argv]) == code
        assert gc.isenabled() is collector
        # Only the process entry freezes the heap, never a call of main.
        assert gc.get_freeze_count() == 0
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "error, line",
    [
        (RuntimeError("layer broke\non two lines"), "RuntimeError: layer broke on two lines"),
        (KeyError((1, "e")), "KeyError: (1, 'e')"),
    ],
)
def test_an_internal_error_is_one_line_and_writes_no_report(
    error, line, fmt, workdir, tmp_path, monkeypatch, capsys
):
    during = []

    def broken(*args):
        during.append(gc.isenabled())
        raise error

    out = tmp_path / "report"
    argv = ["homology", str(workdir / "peterson.json"), "--format", fmt]
    was = gc.isenabled()
    gc.enable()
    try:
        # Raised by a layer, and raised while the report is encoded.
        for name in ("all_homology", "canonical_json"):
            if name == "canonical_json" and fmt == "text":
                continue
            with monkeypatch.context() as m:
                m.setattr(hda_lab.cli, name, broken)
                for extra in ([], ["--out", str(out)]):
                    assert run(argv + extra) == 1
                    captured = capsys.readouterr()
                    assert captured.err == f"hda-lab: internal error: {line}\n"
                    assert captured.out == ""
                    assert not out.exists()
                    assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during and not any(during)


# -- the names the benchmark's tracer wraps on the cli module ------------------------


def _bench_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Name wrapped on hda_lab.cli -> (defining module, a command that calls it once).
TRACED = {
    "load_hda": ("fileformats", "homology {w}/peterson.json"),
    "load_program": ("fileformats", "model program --file {p}"),
    "hda_to_json": ("fileformats", "model klein"),
    "canonical_json": ("fileformats", "model klein"),
    "validate_hda": ("hda", "validate {w}/peterson.json"),
    "program_to_hda": ("programs", "model peterson"),
    "tensor_hda": ("products", "tensor {w}/ca.json {w}/cb.json"),
    "all_homology": ("homology", "homology {w}/peterson.json"),
    "labeled_homology": ("labeling", "labels {w}/peterson.json"),
    "implements_report": ("reports", "implements {w}/lock.json {w}/lock_spec.json"),
    "independence_report": ("reports", "independence {w}/torus.json {w}/ca.json {w}/cb.json"),
}


def test_traced_names_cover_the_cli_namespace():
    assert sorted(_bench_spans().WRAPPED["hda_lab.cli"]) == sorted(TRACED)


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_name_resolves_to_its_definition_and_runs_once(
    name, workdir, tmp_path, monkeypatch
):
    module, command = TRACED[name]
    fn = getattr(hda_lab.cli, name)
    assert vars(hda_lab.cli)[name] is fn
    assert fn.__module__ == f"hda_lab.{module}"
    assert fn is getattr(importlib.import_module(f"hda_lab.{module}"), name)

    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(hda_lab.cli, name, counting)
    prog = tmp_path / "peterson.prog.json"
    save_program(peterson(), str(prog))
    argv = command.format(w=workdir, p=prog).split()
    assert run(argv + ["--out", str(tmp_path / "report")]) in (0, 3)
    assert calls == [name]


def test_unknown_cli_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'tensor'"):
        hda_lab.cli.tensor


def test_declared_entry_point_runs_a_command(workdir):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = re.search(r'^hda-lab = "(.+)"$', pyproject.read_text(), re.M)
    module, func = target.group(1).split(":")
    script = f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"
    proc = _python("-c", script, "homology", str(workdir / "peterson.json"))
    assert proc.returncode == 0
    assert "H_1 = Z^5" in proc.stdout


# -- child processes: the exit path and the locale ---------------------------------


def _child(argv, script, env=None):
    """(exit code, stdout bytes, stderr bytes) of a child that runs ``script``
    with ``argv``."""
    proc = _python(*script, *argv, env=env, text=False, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


_BY_MAIN = "import sys\nfrom hda_lab.cli import main\nsys.exit(main())\n"
# The entry function must also have frozen the heap once it returns.
_BY_SCRIPT = (
    "import gc, sys\nfrom hda_lab.cli import script\n"
    "code = script()\nassert gc.get_freeze_count() > 0\nsys.exit(code)\n"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["homology", "{w}/peterson.json"], 0),
        (["validate", "{t}/dangling.json"], 2),
        (["implements", "{w}/lock.json", "{w}/lock_spec.json"], 3),
        (["homology"], 1),
    ],
)
def test_the_process_entry_gives_the_bytes_and_code_of_main(argv, code, workdir, tmp_path):
    doc = id_form(json.loads((workdir / "lock.json").read_text()))
    doc["cubes"][-1]["d0"][0] = "nowhere"
    (tmp_path / "dangling.json").write_text(json.dumps(doc))
    argv = [a.format(w=workdir, t=tmp_path) for a in argv]
    want = _child(argv, ["-c", _BY_MAIN])
    assert want[0] == code
    assert _child(argv, ["-c", _BY_SCRIPT]) == want
    assert _child(argv, ["-m", "hda_lab.cli"]) == want


def _ascii_locale():
    """This process's environment with a locale whose encoding is ASCII, and
    no UTF-8 mode."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONUTF8="0")
    return env


def test_files_and_reports_are_utf8_whatever_the_locale(tmp_path, capsys):
    env = _ascii_locale()
    ascii_file = tmp_path / "ec.json"
    assert run(["model", "circle", "--labels", "é,b", "--out", str(ascii_file)]) == 0
    # The same model with the letter written raw, as UTF-8.
    raw_file = tmp_path / "raw.json"
    text = json.dumps(json.loads(ascii_file.read_text()), ensure_ascii=False)
    raw_file.write_bytes(text.encode())
    assert "é" in text
    for model in (ascii_file, raw_file):
        for argv in (["validate", str(model)], ["labels", str(model)]):
            assert run(argv) == 0
            report = capsys.readouterr().out.encode()
            assert _child(argv, ["-m", "hda_lab.cli"], env) == (0, report, b"")
            out = tmp_path / "report"
            assert _child([*argv, "--out", str(out)], ["-m", "hda_lab.cli"], env) == (0, b"", b"")
            assert out.read_bytes() == report
    assert "alphabet: é b" in report.decode()


@pytest.mark.parametrize("option", ["--labels", "--chain"])
def test_command_line_text_is_utf8_whatever_the_locale(option, dimap_dir, tmp_path, capsys):
    # A letter or an id given on the command line, under a locale whose
    # encoding is ASCII and with no UTF-8 mode, reads as it does under UTF-8.
    env = _ascii_locale()
    if option == "--labels":
        argv, shown = ["model", "circle", "--labels", "é,b"], '"\\u00e9"'
    else:
        for name in ("src.json", "tgt.json", "map.json"):
            text = (dimap_dir / name).read_text()
            if name != "tgt.json":  # the square of the source is named é
                text = text.replace('"s"', '"\\u00e9"')
            (tmp_path / name).write_text(text)
        chain = json.dumps({"degree": 2, "coeffs": {"é": 1}}, ensure_ascii=False)
        argv, shown = ["pushforward", str(tmp_path / "map.json"), "--chain", chain], 'chain: {"\\u00e9": 1}'
    assert run(argv) == 0
    report = capsys.readouterr().out.encode()
    assert shown in report.decode()
    # The child gets the UTF-8 bytes a shell would pass, whatever this
    # process's locale.
    assert _child([a.encode() for a in argv], ["-m", "hda_lab.cli"], env) == (0, report, b"")


def test_a_non_ascii_path_names_its_file_whatever_the_locale(tmp_path, capsys):
    # Paths are not text: under an ASCII locale they keep naming the file
    # whose name has those bytes.
    env = _ascii_locale()
    path = os.path.join(os.fsencode(tmp_path), "é.json".encode())
    argv = [b"model", b"circle", b"--labels", "é,b".encode(), b"--out", path]
    assert _child(argv, ["-m", "hda_lab.cli"], env) == (0, b"", b"")
    assert run(["labels", os.fsdecode(path)]) == 0
    report = capsys.readouterr().out.encode()
    assert _child([b"labels", path], ["-m", "hda_lab.cli"], env) == (0, report, b"")


def _refused_at(path, workdir):
    """Write at ``path`` (bytes) a model with a face that names no cell,
    which the analyses refuse with exit 2."""
    doc = id_form(json.loads((workdir / "lock.json").read_text()))
    doc["cubes"][-1]["d0"][0] = "nowhere"
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "name, shown, locale",
    [
        # UTF-8 bytes under an ASCII locale: the report names the file é.json.
        ("é.json".encode(), "é.json", "ascii"),
        # A byte that is not UTF-8, under UTF-8: the report escapes it.
        (b"\xff.json", "\\xff.json", "utf-8"),
    ],
)
def test_a_refused_input_is_reported_whatever_the_bytes_of_its_path(
    name, shown, locale, fmt, workdir, tmp_path, capsys
):
    env = _ascii_locale() if locale == "ascii" else dict(_ascii_locale(), PYTHONUTF8="1")
    path = os.path.join(os.fsencode(tmp_path), name)
    _refused_at(path, workdir)
    argv = [b"homology", path, b"--format", fmt.encode()]
    code, out, err = _child(argv, ["-m", "hda_lab.cli"], env)
    assert (code, err) == (2, b"")
    report = out.decode()
    shown = os.path.join(str(tmp_path), shown)
    if fmt == "json":
        assert json.loads(report)["input"] == shown
    else:
        assert report.splitlines()[0] == f"{shown}: invalid"
    # In process, the path as this process's locale decodes it gives the same bytes.
    assert run(["homology", os.fsdecode(path), "--format", fmt]) == 2
    assert capsys.readouterr().out.encode() == out


def test_a_refusal_can_name_any_in_process_path():
    # A str path may hold a surrogate that no byte decodes to; it is escaped.
    refusal = hda_lab.cli._invalid("homology", "a\ud800\udcff.json", "invalid", [])
    assert refusal.doc["input"] == "a\\ud800\\udcff.json"
    assert refusal.text == "a\\ud800\\udcff.json: invalid\n"

