"""Every function and method of the package has a reader besides the tests.

A function defined at module level in ``src/hda_lab``, or a method of a
class defined there, must be named by other code of the package (its own
body does not count), be named in an inline code span of README.md or read
by the code under ``bench/`` (as a name, an attribute or an identifier
string, such as the names it wraps), be called by a library (CALLBACKS), or
be listed in ORACLES (a method as ``Class.method``) with the reason it
stays.  The oracles are the reference implementations, the fixture builders
and the tools that the tests rely on: library code that the tests compare
against, kept in the package beside the code it checks.  Each of them must
still be used by a test, and one that gains a reader leaves the table.  A
method counts as read wherever its name is, whatever the class, but in the
package only as an attribute (``x.name``): a bare name there is a variable
or a function.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hda_lab"

ORACLES = {
    # The paper's two theorems and the lemmas under them.
    "check_tensor_label_identity": "labels are compatible with the tensor product, cell by cell",
    "kunneth_profile": "product Betti numbers against the field Kunneth formula",
    "cross_chain": "the cross product of chains, for the product boundary rule",
    "boundary_violations": "d(d x) = 0 on every cube",
    "corner_word_violations": "direction words agree at every corner of a cube",
    # Fixture builders.
    "two_phase_torus": "two concurrent two-phase loops, built square by square",
    "directed_torus": "two concurrent directed loops, built as a tensor product",
    "labeled_interval": "a chain of edges spelling a word",
    "labeled_circle": "a directed cycle with one letter per edge",
    "interval": "the interval [[k, l]]",
    "standard_cube": "the precubical n-cube",
    # Tools the tests rely on.
    "chain_to_column": "a chain as a coefficient column, for membership oracles",
    "identity_dimap": "the identity as grid data, the unit of the dimap laws",
    "save_dimap": "writes a dimap file for the CLI tests",
    "save_hda": "writes an automaton file for the CLI tests",
    "path_image": "the target path of a source path under a dimap",
    "assert_valid_precubical": "raises on a structural defect of a fixture",
    "Hda.path_word": "the word along a path, for the law that dimaps keep path words",
    "HomologyGroup.generators": "every representative, free then torsion, for the cycle checks",
}

# Methods that a library calls, not the package.
CALLBACKS = {
    "_Parser.error": "argparse reports a usage error through it",
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(qualified name, node) of each module-level function, each class, and
    each method defined in a module-level class body."""
    for top in tree.body:
        if isinstance(top, (*_DEFS, ast.ClassDef)):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, _DEFS):
                    yield f"{top.name}.{node.name}", node


def _functions():
    """{name: module file} of the package's module-level functions and of
    its classes' methods, the latter as "Class.method"."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(ast.parse(path.read_text())):
            if isinstance(node, _DEFS):
                out[name] = path.name
    return out


def _bare(name):
    return name.rpartition(".")[2]


def _package_readers():
    """(names, attributes) read anywhere in the package, outside the body of
    the function or method of the same name (so that recursion is no reader)."""
    names, attributes = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        # Each node's innermost definition: a class comes before its methods.
        owner = {}
        for name, node in _definitions(tree):
            for inner in ast.walk(node):
                owner[inner] = _bare(name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name, out = node.id, names
            elif isinstance(node, ast.Attribute):
                name, out = node.attr, attributes
            else:
                continue
            if name != owner.get(node):
                out.add(name)
    return names, attributes


def _named_in(texts):
    return {word for text in texts for word in re.findall(r"\w+", text)}


def _read_by(tree):
    """The names, attributes and identifier strings that code reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def _outside_readers():
    """(what reads a function, what reads a method), as two sets of names."""
    # README names code in inline code spans; its prose and its fenced
    # examples may use "interval" or "zero" as a word.
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`[^`\n]+`", readme)
    bench = set()
    for path in (ROOT / "bench").glob("*.py"):
        bench |= _read_by(ast.parse(path.read_text()))
    names, attributes = _package_readers()
    outside = _named_in(spans) | bench
    return names | attributes | outside, attributes | outside


def _is_read(name, readers):
    functions, methods = readers
    return _bare(name) in (methods if "." in name else functions)


def test_every_function_has_a_reader_or_is_an_oracle():
    functions = _functions()
    readers = _outside_readers()
    assert [name for name in CALLBACKS if name not in functions] == []
    unread = [
        f"{module}: {name}"
        for name, module in functions.items()
        if not _is_read(name, readers)
        and name not in ORACLES
        and name not in CALLBACKS
        and not (_bare(name).startswith("__") and _bare(name).endswith("__"))
    ]
    assert unread == []


def test_each_oracle_is_a_package_function_only_the_tests_use():
    functions = _functions()
    readers = _outside_readers()
    here = Path(__file__)
    tests = _named_in(p.read_text() for p in here.parent.glob("*.py") if p != here)
    assert [name for name in ORACLES if name not in functions] == []
    assert [name for name in ORACLES if _bare(name) not in tests] == []
    assert [name for name in ORACLES if _is_read(name, readers)] == []
