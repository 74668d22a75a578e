"""Keep the B+-tree's node format written once, and its capacity derived.

Tree nodes used to be pickled Python tuples at a caller-chosen ``fanout``;
they are struct-packed pages now, whose capacity follows from the page
size and the key format.  This test fails when either comes back:

* no module under ``repro/index/`` imports ``pickle`` (a second node
  codec, or a decoded-node cache serialised on the side, would);
* ``fanout`` is a parameter of no method of the tree or of the five
  structures that build one, so nothing can pick a capacity the page
  size does not give.
"""

import ast
import inspect
from pathlib import Path

import repro.index
from repro.core.chains import ChainStore
from repro.core.compressed import CompressedChainStore
from repro.index import BPlusTree, CompositeIndex, SecondaryIndex
from repro.storage import BlobStore

TREE_OWNERS = (
    BPlusTree, ChainStore, BlobStore, SecondaryIndex, CompositeIndex,
    CompressedChainStore,
)


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
