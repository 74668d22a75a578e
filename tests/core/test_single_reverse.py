"""Keep reverse top-k counting written once.

Reverse top-k used to open one independent search per candidate
function, each pinning its own snapshot and decoding the same pages
again, and the sharded front end asked every shard once per function.
Both entry points now run one family pass, ``count_family``; this test
fails when a second counting loop grows back:

* ``reverse_topk`` and ``ShardEndpoint.reverse_count`` each call
  ``count_family``, and nothing else in either module does;
* ``core/reverse.py`` constructs ``ProgressiveSearch(`` only inside
  ``count_family``, and hands every search the family's shared
  retrieval buffer;
* ``ShardedQueryService._reverse`` makes one ``reverse_count`` call, the
  one in its loop over shards.
"""

import ast
from pathlib import Path

import repro.core.reverse as reverse
import repro.serve.endpoint as endpoint
import repro.serve.sharded as sharded
from tests.core.test_single_search import _call_sites

REVERSE = ast.parse(Path(reverse.__file__).read_text())
ENDPOINT = ast.parse(Path(endpoint.__file__).read_text())
SHARDED = ast.parse(Path(sharded.__file__).read_text())


def test_both_entry_points_run_the_one_family_pass():
    assert _call_sites(REVERSE, "count_family") == ["reverse_topk"]
    assert _call_sites(ENDPOINT, "count_family") == ["ShardEndpoint.reverse_count"]


def test_searches_are_opened_only_by_the_family_pass():
    assert _call_sites(REVERSE, "ProgressiveSearch") == ["count_family"]
    [call] = [
        node
        for node in ast.walk(REVERSE)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "ProgressiveSearch"
    ]
    assert [kw.arg for kw in call.keywords] == ["shared"]


def test_the_sharded_front_end_asks_each_shard_once():
    assert _call_sites(SHARDED, "reverse_count") == ["ShardedQueryService._reverse"]
    loops = [
        node
        for node in ast.walk(SHARDED)
        if isinstance(node, ast.For)
        and any(
            getattr(sub.func, "attr", None) == "reverse_count"
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
        )
    ]
    # one loop holds the call, and it walks the shards the query consults
    assert len(loops) == 1
    assert ast.unparse(loops[0].target) == "sid"
    assert "ShardedQueryService._reverse" in _call_sites(SHARDED, "_targets")
