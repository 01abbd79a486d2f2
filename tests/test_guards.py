"""Fail-fast guards: every request runs serially, and a dense Gram or an
explicit strategy that cannot fit is refused before it is allocated.

The Gram cap is tested with the cap monkeypatched low, so that even a broken
check allocates only a small matrix."""

import threading

import numpy as np
import pytest

from querybound import (
    DimOutOfRange,
    Workload,
    all_range,
    cli,
    conjunction,
    crossproduct,
    data_cube,
    haar_strategy,
    hierarchical_strategy,
    identity_strategy,
    kron_strategy,
    workloads,
)


def test_no_request_starts_a_thread(monkeypatch, capsys):
    def refuse(self):
        raise RuntimeError("a request started a thread")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert cli.main(["bound", "--workload", "all-range", "--cells", "8",
                     "--projections", "ranges"]) == 0
    assert cli.main(["run", "--workload", "all-range", "--cells", "3",
                     "--strategy", "identity", "--trials", "50", "--threads", "4"]) == 0


@pytest.fixture
def small_gram_cap(monkeypatch):
    monkeypatch.setattr(workloads, "GRAM_CELL_CAP", 8)
    monkeypatch.setattr(workloads, "EXPLICIT_CELL_CAP", 4)
    monkeypatch.setattr(workloads, "EXPLICIT_ENTRY_CAP", 0)


def test_dense_gram_fallbacks_refuse_grams_beyond_the_cap(small_gram_cap):
    g3 = Workload.from_gram(np.eye(3))
    with pytest.raises(DimOutOfRange):
        all_range([9])
    with pytest.raises(DimOutOfRange):
        all_range([3, 3])
    with pytest.raises(DimOutOfRange):
        data_cube([3, 3], [(1,)], [1.0])
    with pytest.raises(DimOutOfRange):
        crossproduct(g3, g3)
    with pytest.raises(DimOutOfRange):
        conjunction(Workload.from_matrix(np.eye(3)), Workload.from_matrix(np.eye(3)))
    with pytest.raises(DimOutOfRange):
        kron_strategy([g3, g3])
    with pytest.raises(DimOutOfRange):
        _ = Workload.from_matrix(np.ones((1, 9))).gram
    with pytest.raises(DimOutOfRange):
        _ = Workload.from_uniform_gram(9, 1.0, 0.0).gram


def test_grams_at_the_cap_are_still_formed(small_gram_cap):
    assert all_range([8]).gram.shape == (8, 8)
    assert all_range([2, 4]).gram.shape == (8, 8)
    assert data_cube([2, 4], [(1,)], [1.0]).gram.shape == (8, 8)


def test_cli_exits_2_on_a_gram_beyond_the_cap(small_gram_cap, capsys):
    assert cli.main(["bound", "--workload", "all-range", "--cells", "9"]) == 2
    assert "DimOutOfRange" in capsys.readouterr().err


def test_explicit_strategy_constructors_refuse_sizes_beyond_the_cap(small_gram_cap, capsys):
    for make in (identity_strategy, hierarchical_strategy, haar_strategy):
        assert make(8).n == 8
        with pytest.raises(DimOutOfRange):
            make(16)
    assert cli.main(["eval", "--workload", "all-predicate", "--cells", "9",
                     "--strategy", "identity"]) == 2
    assert "DimOutOfRange" in capsys.readouterr().err
