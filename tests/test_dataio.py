import numpy as np
import pytest

from vlpnav.channel import EPOCH_RSS
from vlpnav.dataio import write_csv
from vlpnav.metrics import cdf_table


def _savetxt_bytes(tmp_path, rows, header, fmt="%.12g") -> bytes:
    path = tmp_path / "savetxt.csv"
    np.savetxt(path, rows, fmt=fmt, delimiter=",", header=header, comments="")
    return path.read_bytes()


def _write_csv_bytes(tmp_path, rows, header, fmt="%.12g") -> bytes:
    path = tmp_path / "write_csv.csv"
    write_csv(path, header, rows, fmt)
    return path.read_bytes()


class TestWriteCsv:
    """``write_csv`` writes the bytes ``np.savetxt`` writes."""

    @pytest.mark.parametrize("n_rows", [0, 1, 7, 1024, 1025, 2600])
    def test_float_table(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        rows = rng.normal(size=(n_rows, 7)) * 10.0 ** rng.integers(-15, 15, size=(n_rows, 7))
        rows[::5, 2] = np.round(rows[::5, 2])
        if n_rows:
            rows[0, :4] = [np.nan, np.inf, -0.0, 3.0]
        header = "timestamp_s,ax,ay,az,gx,gy,gz"
        assert (_write_csv_bytes(tmp_path, rows, header)
                == _savetxt_bytes(tmp_path, rows, header))

    def test_epoch_rss_table(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = np.zeros(1500, dtype=EPOCH_RSS)
        rows["timestamp"] = np.repeat(np.arange(300) + 0.5, 5)
        rows["led_id"] = np.tile(np.arange(1, 6), 300)
        rows["value"] = rng.uniform(0.0, 3.0, rows.size)
        rows["variance"] = rng.uniform(1e-6, 1e-3, rows.size)
        rows["flag"] = rng.integers(0, 3, rows.size)
        header = "timestamp_s,led_id,value,variance,flag_truth"
        assert (_write_csv_bytes(tmp_path, rows, header)
                == _savetxt_bytes(tmp_path, rows, header))

    def test_cdf_table(self, tmp_path):
        errors = np.random.default_rng(5).gamma(2.0, 0.03, 1100)
        rows = np.asarray(cdf_table(errors), dtype=float)
        header = "error_3d_m,fraction"
        assert (_write_csv_bytes(tmp_path, rows, header, "%.9g")
                == _savetxt_bytes(tmp_path, rows, header, "%.9g"))
