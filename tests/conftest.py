"""Fixtures shared by the test modules."""

import pytest


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
