"""Fixtures and helpers shared by the test modules."""

import numpy as np
import pytest

from cylreact.coefficients import CONSTANT_ONE, CoefficientModel


class FormulaModel(CoefficientModel):
    """A coefficient a(y, t) with slope a_t(y, t), both given as
    functions of arrays, and no y-power factor.  No family fails the
    structural conditions; this reaches the branches that refuse one."""

    has_t_dependence = True

    def __init__(self, a, a_t):
        super().__init__(CONSTANT_ONE)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a_t", a_t)

    def reduced_a(self, y, t):
        return np.broadcast_to(self.a(y, t), np.broadcast(y, t).shape).copy()

    def reduced_a_t(self, y, t):
        return np.broadcast_to(self.a_t(y, t),
                               np.broadcast(y, t).shape).copy()


@pytest.fixture
def refuse_sparse_work(monkeypatch):
    """Make every sparse product, sparse sum and conversion to CSR or DIA
    raise AssertionError("sparse work refused"), in the compressed
    (CSR/CSC) and DIA formats; returns the refusing function."""
    import scipy.sparse._base as base
    import scipy.sparse._compressed as compressed
    import scipy.sparse._dia as dia

    def refuse(*args, **kwargs):
        raise AssertionError("sparse work refused")

    monkeypatch.setattr(compressed._cs_matrix, "_matmul_sparse", refuse)
    monkeypatch.setattr(compressed._cs_matrix, "_binopt", refuse)
    monkeypatch.setattr(dia._dia_base, "_add_sparse", refuse)
    monkeypatch.setattr(dia._dia_base, "_matmul_sparse", refuse)
    classes = [base._spbase]
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        for name in ("tocsr", "todia"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, refuse)
    return refuse
