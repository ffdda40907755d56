"""The block CSV writer against the per-value writer it replaced."""
import numpy as np
import pytest

from dduio._csvio import format_float, read_csv, write_csv


def write_csv_per_value(path, header, rows):
    """One format_float call per value, one write per row."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_float(v) for v in row) + "\n")


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1e-5,
           0.1, 1.0 / 3.0, -2.0, 7.0, 123456789.0, 2.0 ** 53, np.finfo(float).max]

CASES = {
    "special": np.array(SPECIAL).reshape(4, 4),
    "integers": np.arange(-6, 6, dtype=float).reshape(3, 4),
    "one_row": np.array(SPECIAL[:5]),
    "no_columns": np.zeros((3, 0)),
    "no_rows": np.zeros((0, 3)),
    "empty_vector": np.zeros(0),
    "blocks": np.random.default_rng(4).normal(size=(4099, 3)) * 1e3,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_block_writer_matches_per_value_writer(tmp_path, name):
    rows = CASES[name]
    n_cols = np.atleast_2d(rows).shape[1]
    header = [f"c{k}" for k in range(n_cols)]
    write_csv(tmp_path / "new.csv", header, rows)
    write_csv_per_value(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_round_trip_is_bit_exact(tmp_path):
    rows = CASES["blocks"]
    write_csv(tmp_path / "a.csv", ["a", "b", "c"], rows)
    assert np.array_equal(read_csv(tmp_path / "a.csv", 3), rows)


def test_header_mismatch_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ["a"], np.zeros((2, 3)))
