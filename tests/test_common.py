"""Tests for common utilities: validation, ASCII plotting."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.common import as_1d_float, as_csr, check_square, check_symmetric, require
from repro.common.asciiplot import semilogy, sparsity, table
from repro.common.errors import MeshError, ReproError


class TestValidation:
    def test_require(self):
        require(True, ReproError, "fine")
        with pytest.raises(MeshError, match="boom"):
            require(False, MeshError, "boom")

    def test_as_1d_float(self):
        out = as_1d_float([1, 2, 3])
        assert out.dtype == np.float64
        with pytest.raises(ReproError):
            as_1d_float(np.zeros((2, 2)))

    def test_as_csr(self):
        A = as_csr(np.eye(3))
        assert sp.issparse(A) and A.format == "csr"
        assert as_csr(sp.eye(3, format="coo")).format == "csr"
        with pytest.raises(ReproError):
            as_csr(np.zeros(3))

    def test_check_square(self):
        check_square(np.eye(2))
        with pytest.raises(ReproError):
            check_square(np.zeros((2, 3)))

    def test_check_symmetric(self):
        check_symmetric(sp.eye(3))
        A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ReproError):
            check_symmetric(A)


class TestAsciiPlot:
    def test_semilogy_contains_labels(self):
        out = semilogy({"run A": [1, 0.1, 0.01], "run B": [1, 0.5]})
        assert "run A" in out and "run B" in out
        assert "#iterations" in out

    def test_semilogy_empty(self):
        assert "(no data)" in semilogy({})

    def test_semilogy_nonpositive(self):
        assert "no positive" in semilogy({"a": [0.0, -1.0]})

    def test_table_alignment(self):
        out = table(["name", "value"], [["x", 1.5], ["longer", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(ln) for ln in lines)) == 1  # equal widths

    def test_table_title(self):
        out = table(["a"], [[1]], title="TITLE")
        assert out.startswith("TITLE")

    def test_table_scientific_format(self):
        out = table(["v"], [[1.23e-8]])
        assert "1.23e-08" in out

    def test_sparsity_renders(self):
        M = sp.eye(10, format="csr")
        out = sparsity(M, width=20)
        assert "#" in out
        assert out.count("\n") >= 3
