import csv
from pathlib import Path

import pytest

from markovj.integrals import compute_values
from markovj.jfunction import j_coefficients
from markovj.tree import build_tree, find_fraction

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def series():
    return j_coefficients(40)


@pytest.fixture(scope="session")
def reference_rows():
    """The 80 published (p/q, J/q, j) rows."""
    with open(DATA / "reference_values.csv") as fh:
        rows = []
        for rec in csv.DictReader(fh):
            rows.append({
                "p": int(rec["p"]),
                "q": int(rec["q"]),
                "Jq": complex(float(rec["Jq_re"]), float(rec["Jq_im"])),
                "j": complex(float(rec["j_re"]), float(rec["j_im"])),
            })
    assert len(rows) == 80
    return rows


@pytest.fixture(scope="session")
def depth9_values():
    """Cycle values for every node with level <= 9, keyed by path."""
    return compute_values(build_tree(9), tol=1e-10)


@pytest.fixture(scope="session")
def reference_values(reference_rows):
    """Computed values at the 80 published fractions, keyed by (p, q)."""
    nodes = [find_fraction(r["p"], r["q"]) for r in reference_rows]
    values = compute_values(nodes, tol=1e-10)
    return {(n.p, n.q): values[n.path] for n in nodes}
