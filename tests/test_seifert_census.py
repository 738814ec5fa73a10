"""scripts/seifert_census.py on three tiny spaces and one over its limit."""

import multiprocessing
import pathlib
import sys

# the spawned workers import the script by name, so its folder goes on the path
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))

import seifert_census  # noqa: E402

TINY = [(0, 1, ((1, 2),)), (1, 0, ()), (0, 0, ((1, 2),) * 4)]


def _run(spaces, limit):
    rows = []
    for index, row in seifert_census.run(spaces, limit):
        assert len(multiprocessing.active_children()) <= seifert_census.WORKERS
        rows.append((index, row))
    assert not multiprocessing.active_children()
    return rows


def test_census_rows_match_certify_in_process():
    rows = _run(TINY, limit=60)
    assert [index for index, _ in rows] == [0, 1, 2]
    statuses = [status for _, (status, _, _) in rows]
    assert statuses == ["no_essential_torus", "nonseparating_torus", "separating_torus"]
    for (_, (status, _, digest)), space in zip(rows, TINY):
        assert (status, digest) == seifert_census.certify_one(*space)[::2]


def test_a_space_over_the_limit_is_a_timeout():
    slow = (0, 0, ((1, 7), (1, 11), (1, 13), (1, 13)))  # an order-4004 field
    rows = _run([slow, TINY[0]], limit=1.0)
    assert rows[0] == (0, ("timeout", 1.0, "-"))
    assert rows[1][1][0] == "no_essential_torus"


def test_census_sizes():
    assert len(seifert_census.census_a()) == 716
    assert len(seifert_census.census_b()) == 7173
