"""A submit that races ``close()`` raises :class:`ServiceClosedError`.

Every service admits a query in one place: the closed check and the
hand-off to the worker pool happen under the admission lock, and
``close()`` sets the flag under the same lock.  A submit that passed an
unlocked check just before ``close()`` shut the pool down used to get the
executor's untyped ``RuntimeError("cannot schedule new futures after
shutdown")`` instead.

The race is forced deterministically, with no sleeps: the service's
class is swapped for a subclass whose attribute lookup, on the submitting
thread, runs ``close()`` to completion on another thread the first time
the submit reaches for the pool or for a lock — that is, after any
unlocked closed check and before the hand-off.  With the check under the
lock, that point comes before the check, so the submit sees the service
closed.
"""

import random
import threading

import pytest

from repro.core import RankingCube
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.serve import (
    QueryService,
    RoutedQueryService,
    ServiceClosedError,
    ShardedQueryService,
)
from repro.shard import build_sharded

SCHEMA = Schema.of(
    [selection_attr("a1", 3), selection_attr("a2", 4)]
    + [ranking_attr("n1"), ranking_attr("n2")]
)


def make_rows(count=120, seed=11):
    rng = random.Random(seed)
    return [
        (rng.randrange(3), rng.randrange(4), rng.random(), rng.random())
        for _ in range(count)
    ]


def make_cube():
    db = Database(buffer_capacity=64)
    table = db.load_table("R", SCHEMA, make_rows())
    for name in SCHEMA.selection_names:
        table.create_secondary_index(name)
    return table, RankingCube.build(table, block_size=12)


def unsharded():
    table, cube = make_cube()
    return QueryService(cube, table, workers=1)


def routed():
    table, cube = make_cube()
    return RoutedQueryService(cube, table, workers=1)


def thread_sharded():
    return ShardedQueryService(
        build_sharded(SCHEMA, make_rows(), 2, block_size=8), workers=1
    )


def close_inside_submit(service) -> list[str]:
    """Arm the race; returns the (filled on firing) name it fired on."""
    submitter = threading.get_ident()
    serving_class = type(service)
    fired: list[str] = []

    class Racing(serving_class):
        def __getattribute__(self, name):
            if (
                not fired
                and threading.get_ident() == submitter
                and (name == "_pool" or name.endswith("_lock"))
            ):
                fired.append(name)
                closer = threading.Thread(target=serving_class.close, args=(self,))
                closer.start()
                closer.join(timeout=60)
                # this runs inside the submit: a close() waiting for a
                # lock the submit already holds would never finish here
                assert not closer.is_alive(), f"close() blocked at {name}"
            return super().__getattribute__(name)

    service.__class__ = Racing
    return fired


@pytest.mark.parametrize(
    "make_service", [unsharded, routed, thread_sharded],
    ids=["unsharded", "routed", "thread_sharded"],
)
def test_a_submit_racing_close_raises_service_closed(make_service):
    service = make_service()
    query = TopKQuery(3, {"a1": 1}, LinearFunction(["n1", "n2"], [1.0, 0.5]))
    assert len(service.submit(query).result().rows) == 3
    fired = close_inside_submit(service)
    with pytest.raises(ServiceClosedError):
        service.submit(query)
    assert fired, "the race was never armed: no pool or lock lookup"
    with pytest.raises(ServiceClosedError):
        service.submit(query)
