"""Command-line interface (python -m repro ...)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.io import read_edges, write_edges, write_text_edges


@pytest.fixture
def binfile(tmp_path):
    rng = np.random.default_rng(2)
    edges = rng.integers(0, 400, size=(3000, 2), dtype=np.int64)
    path = tmp_path / "g.bin"
    write_edges(path, edges)
    return path, edges


def test_generate_dataset(tmp_path, capsys):
    out = tmp_path / "g.bin"
    rc = main(["generate", "google", str(out), "--scale", "0.1"])
    assert rc == 0
    assert out.exists()
    assert "edges" in capsys.readouterr().out


def test_generate_raw_kinds(tmp_path):
    for kind in ("web-raw", "rmat-raw", "er-raw"):
        out = tmp_path / f"{kind}.bin"
        assert main(["generate", kind, str(out), "--n", "500",
                     "--degree", "4"]) == 0
        assert len(read_edges(out)) >= 1


def test_info(binfile, capsys):
    path, edges = binfile
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"{len(edges):,}" in out
    assert "avg degree" in out


def test_convert_roundtrip(tmp_path, capsys):
    edges = np.array([[0, 1], [2, 3], [1, 0]], dtype=np.int64)
    txt, bin_, txt2 = tmp_path / "e.txt", tmp_path / "e.bin", tmp_path / "e2.txt"
    write_text_edges(txt, edges)
    assert main(["convert", str(txt), str(bin_), "--to", "binary"]) == 0
    assert (read_edges(bin_) == edges).all()
    assert main(["convert", str(bin_), str(txt2), "--to", "text"]) == 0
    from repro.io import read_text_edges

    assert (read_text_edges(txt2) == edges).all()


def test_partition_report(binfile, capsys):
    path, _ = binfile
    assert main(["partition", str(path), "--parts", "4", "--pulp"]) == 0
    out = capsys.readouterr().out
    for name in ("vertex-block", "edge-block", "random", "pulp"):
        assert name in out


def test_analyze_subset(binfile, capsys):
    path, _ = binfile
    rc = main(["analyze", str(path), "--ranks", "2",
               "--analytics", "pagerank", "wcc", "--iters", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pagerank" in out and "sum=1.0" in out
    assert "wcc" in out and "giant=" in out
    assert "scc" not in out


def test_analyze_all(binfile, capsys):
    path, _ = binfile
    assert main(["analyze", str(path), "--ranks", "2", "--iters", "2",
                 "--partition", "rand"]) == 0
    out = capsys.readouterr().out
    for name in ("pagerank", "labelprop", "wcc", "scc", "harmonic",
                 "kcore", "sssp", "triangles", "diameter"):
        assert name in out


def test_bad_command_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_analyze_checkpoint_roundtrip(binfile, tmp_path, capsys):
    path, _ = binfile
    ckpt = tmp_path / "ckpt"
    rc = main(["analyze", str(path), "--ranks", "2", "--analytics", "wcc",
               "--save-checkpoint", str(ckpt)])
    assert rc == 0
    first = capsys.readouterr().out
    assert "graph built" in first
    assert any(ckpt.glob("rank*.npz"))
    rc = main(["analyze", str(path), "--ranks", "2", "--analytics", "wcc",
               "--checkpoint", str(ckpt)])
    assert rc == 0
    second = capsys.readouterr().out
    assert "graph checkpoint" in second
    # Same analytics output either way (modulo timings).
    assert [ln.split()[-1] for ln in first.splitlines() if "giant=" in ln] \
        == [ln.split()[-1] for ln in second.splitlines() if "giant=" in ln]


def test_serve_default_workload(binfile, capsys):
    path, _ = binfile
    rc = main(["serve", str(path), "--ranks", "2", "--repeat", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "replica group up: 1 replicas" in out
    assert "[cache]" in out  # second repeat of each query hits the cache
    assert "jobs:" in out and "cache:" in out


def test_serve_query_file(binfile, tmp_path, capsys):
    path, _ = binfile
    qfile = tmp_path / "q.txt"
    qfile.write_text(
        "# comment\n"
        "bfs 3\n"
        "bfs 9 direction=in\n"
        "pagerank max_iters=4\n"
        "ppr 7 max_iters=5\n"
        "closeness 2\n"
        "wcc\n")
    rc = main(["serve", str(path), "--ranks", "2",
               "--queries", str(qfile), "--status-json"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("ran]") + out.count("cache]") == 6
    import json

    status = json.loads(out[out.index("{"):])
    assert status["group"]["completed"] == 6
    (replica,) = status["per_replica"]
    assert replica["jobs"]["completed"] == 6
    assert replica["comm"]["n_collectives"] > 0
