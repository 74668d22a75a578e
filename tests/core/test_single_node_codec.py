"""Keep the B+-tree's node format and the cuboid record store written once.

Tree nodes used to be pickled Python tuples at a caller-chosen ``fanout``;
they are struct-packed pages now, whose capacity follows from the page
size and the key format.  This test fails when either comes back:

* no module under ``repro/index/`` imports ``pickle`` (a second node
  codec, or a decoded-node cache serialised on the side, would);
* ``fanout`` is a parameter of no method of the tree or of the five
  structures that build one, so nothing can pick a capacity the page
  size does not give;
* every cuboid is a ``ChainStore``: no function under ``repro/`` takes a
  ``compress`` parameter, and no ``CompressedChainStore`` /
  ``compressed`` / ``encode_tid_list`` / ``decode_tid_list`` identifier
  (the retired gap-coded cuboid store and its state) is left.
"""

import ast
import inspect
import io
import tokenize
from pathlib import Path

import repro
import repro.index
from repro.core.chains import ChainStore
from repro.index import BPlusTree, CompositeIndex, SecondaryIndex
from repro.storage import BlobStore

TREE_OWNERS = (BPlusTree, ChainStore, BlobStore, SecondaryIndex, CompositeIndex)
RETIRED_STORE = {
    "CompressedChainStore", "compressed", "encode_tid_list", "decode_tid_list",
}


def _class_def(cls: type) -> ast.ClassDef:
    module = ast.parse(Path(inspect.getsourcefile(cls)).read_text())
    return next(
        node for node in ast.walk(module)
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__
    )


def test_index_package_does_not_import_pickle():
    imported = set()
    for path in Path(repro.index.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
    assert "struct" in imported  # the walk sees bptree's imports
    assert not imported & {"pickle", "cPickle", "marshal", "dill"}


def test_no_signature_takes_a_fanout():
    for cls in TREE_OWNERS:
        for node in ast.walk(_class_def(cls)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                assert "fanout" not in names, f"{cls.__name__}.{node.name}"


def _parameters(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names |= {
                a.arg
                for a in args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg] if a is not None
            }
    return names


def _identifiers(source: str) -> set[str]:
    return {
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.NAME
    }


def test_every_cuboid_is_a_chain_store():
    package = Path(repro.__file__).parent
    found = {}
    for path in sorted(package.rglob("*.py")):
        source = path.read_text()
        hits = RETIRED_STORE & _identifiers(source)
        if "compress" in _parameters(ast.parse(source)):
            hits |= {"compress="}
        if hits:
            found[str(path.relative_to(package))] = hits
    assert found == {}


def test_the_store_checks_see_a_fork_when_there_is_one():
    forked = (
        "from itertools import compress\n"
        "def build(table, *, compress=False):\n"
        "    'a compressed layout in prose is fine'\n"
        "    return list(compress(table, table))\n"
        "class Cuboid:\n"
        "    def spliced(self):\n"
        "        return self.compressed\n"
    )
    assert _parameters(ast.parse(forked)) == {"table", "compress", "self"}
    assert RETIRED_STORE & _identifiers(forked) == {"compressed"}
    legal = "from itertools import compress\nkeep = list(compress(a, b))\n"
    assert "compress" not in _parameters(ast.parse(legal))
    assert RETIRED_STORE & _identifiers(legal) == set()
