"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def eigensolves(monkeypatch):
    """Row count of every dense eigensolve input (np.linalg.eigh and
    eigvalsh), in call order, from the moment the fixture is set up."""
    rows = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, **kwargs):
            rows.append(np.shape(a)[0])
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return rows


@pytest.fixture
def row_formations(monkeypatch):
    """Cell count of every workload whose explicit rows are formed (through
    Workload._form_matrix), in call order, from the moment the fixture is set up."""
    from querybound import Workload
    cells = []
    real = Workload._form_matrix

    def counted(self):
        cells.append(self.n)
        return real(self)
    monkeypatch.setattr(Workload, "_form_matrix", counted)
    return cells
