import json
import subprocess
import sys

import pytest

from hda_lab.cli import main
from hda_lab.dimap import pushforward_cube
from hda_lab.exterior import ExteriorElement
from hda_lab.fileformats import (
    canonical_json,
    hda_to_json,
    load_hda,
    program_to_json,
    render_id,
    save_dimap,
    save_hda,
    save_program,
)
from hda_lab.homology import ZZ, verify_nonmembership
from hda_lab.labeling import degree_monomials, label_to_column, labeled_degree
from hda_lab.models import peterson
from hda_lab.programs import program_to_hda

from test_dimap import subdivision_dimap


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
    for entry in doc["cubes"]:
        if entry["dim"] == 1 and tuple(entry["label"]) in swap:
            entry["label"] = swap[tuple(entry["label"])]
    (tmp_path / "tgt.json").write_text(canonical_json(doc))
    assert run(["validate", str(tmp_path / "tgt.json")]) == 0
    capsys.readouterr()
    save_dimap(f, str(tmp_path / "map.json"), "src.json", "tgt.json")
    assert run(["dimap-check", str(tmp_path / "map.json"), "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False


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


def test_invalid_hda_exits_two_with_diagnosis(workdir, tmp_path, capsys):
    doc = json.loads((workdir / "peterson.json").read_text())
    edge = next(e for e in doc["cubes"] if e["dim"] == 1)
    del edge["label"]
    path = tmp_path / "unlabeled.json"
    path.write_text(canonical_json(doc))
    assert run(["validate", str(path)]) == 2
    assert "unlabeled-edge" in capsys.readouterr().out
    assert run(["homology", str(path)]) == 2
    assert "unlabeled-edge" in capsys.readouterr().out


def test_short_inner_face_tuple_exits_two_without_traceback(workdir, tmp_path, capsys):
    doc = json.loads((workdir / "peterson.json").read_text())
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
    proc = subprocess.run(
        [sys.executable, "-m", "hda_lab.cli", "homology", str(workdir / "peterson.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "H_1 = Z^5" in proc.stdout
