import numpy as np
import pytest

from sparsesep.errors import ValidationError
from sparsesep.grid import Grid2
from sparsesep.io import RG2_MAGIC, _atomic_write, read_csv_grid, read_rg2, write_csv_grid, write_pgm16, write_rg2


def test_rg2_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    g = Grid2(rng.standard_normal((16, 16)))
    path = tmp_path / "g.rg2"
    write_rg2(str(path), g)
    back = read_rg2(str(path))
    assert back.side == 16
    assert np.array_equal(back.values, g.values)


def test_rg2_header_layout(tmp_path):
    g = Grid2(np.zeros((4, 4)))
    path = tmp_path / "g.rg2"
    write_rg2(str(path), g)
    raw = path.read_bytes()
    assert raw[:4] == RG2_MAGIC
    assert int.from_bytes(raw[4:8], "little") == 4
    assert int.from_bytes(raw[8:12], "little") == 0
    assert len(raw) == 16 + 8 * 16


def test_rg2_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.rg2"
    path.write_bytes(b"nope" + b"\0" * 140)
    with pytest.raises(ValidationError, match="magic"):
        read_rg2(str(path))


def test_rg2_rejects_truncation(tmp_path):
    g = Grid2(np.zeros((4, 4)))
    path = tmp_path / "g.rg2"
    write_rg2(str(path), g)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValidationError):
        read_rg2(str(path))


def test_pgm_export(tmp_path):
    v = np.linspace(0.5, 2.0, 16).reshape(4, 4)
    path = tmp_path / "g.pgm"
    write_pgm16(str(path), Grid2(v))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n4 4\n65535\n")
    pixels = np.frombuffer(raw[len(b"P5\n4 4\n65535\n"):], dtype=">u2")
    assert pixels.min() == 0 and pixels.max() == 65535
    sidecar = (tmp_path / "g.pgm.scale.txt").read_text()
    assert "min 0.5" in sidecar and "max 2.0" in sidecar


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    g = Grid2(rng.standard_normal((8, 8)))
    path = tmp_path / "g.csv"
    write_csv_grid(str(path), g)
    back = read_csv_grid(str(path))
    assert np.array_equal(back.values, g.values)


def test_failed_write_leaves_no_temp_file(tmp_path):
    # os.replace onto a directory fails after the temp file is written.
    target = tmp_path / "target.rg2"
    target.mkdir()
    with pytest.raises(OSError):
        write_rg2(str(target), Grid2(np.zeros((4, 4))))
    # A write that fails after the temp file is opened.
    with pytest.raises(TypeError):
        _atomic_write(str(tmp_path / "g.csv"), object())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target.rg2"]
    assert not any(target.iterdir())
