"""Every file basisopt writes (cache entries, JSON artifacts, CSV reports)
goes through reference.write_atomically: interleaved writers of one path
leave one writer's complete file, a failed write leaves the previous file
and no temporary file, and each file gets the permissions a plain open()
gives under the process umask."""

import io
import json
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

from basisopt import cli
from basisopt.reference import build_offline_single, load_cached, save_offline_entry

HEADER = ["basis", "value"]


@pytest.fixture(scope="module")
def record(grid_main):
    return build_offline_single(grid_main, 1.5, 5)


def csv_text(rows):
    return "".join(",".join(map(str, row)) + "\n" for row in [HEADER, *rows])


def mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestInterleavedWriters:
    """Writer A pauses in the middle of its write while writer B writes
    the same path from start to end; then A finishes."""

    def test_json(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        path = str(out / "optim_JE_Nb2.json")
        doc_a = {"writer": "A", "x": list(range(3))}
        doc_b = {"writer": "B", "x": list(range(30))}
        dump = json.dump

        def paused_dump(doc, fh, **kwargs):
            if doc is not doc_a:
                return dump(doc, fh, **kwargs)
            text = json.dumps(doc, **kwargs)
            fh.write(text[: len(text) // 2])
            fh.flush()
            cli._write_json(path, doc_b)
            fh.write(text[len(text) // 2 :])

        monkeypatch.setattr(json, "dump", paused_dump)
        cli._write_json(path, doc_a)
        with open(path) as fh:
            text = fh.read()
        complete = [json.dumps(doc, indent=1) + "\n" for doc in (doc_a, doc_b)]
        assert text in complete
        assert os.listdir(out) == ["optim_JE_Nb2.json"]

    def test_csv(self, tmp_path):
        out = tmp_path / "out"
        path = str(out / "criteria_table.csv")
        rows_a = [("A0", 0.0), ("A1", 1.0)]
        rows_b = [(f"B{i}", float(i)) for i in range(30)]

        def paused_rows():
            yield rows_a[0]
            cli.write_csv(path, HEADER, rows_b)
            yield rows_a[1]

        cli.write_csv(path, HEADER, paused_rows())
        with open(path) as fh:
            assert fh.read() in (csv_text(rows_a), csv_text(rows_b))
        assert os.listdir(out) == ["criteria_table.csv"]

    def test_cache_entry(self, tmp_path, monkeypatch, grid_main, record):
        other = replace(record, e_ref=record.e_ref + 1.0)
        savez = np.savez
        complete = []

        def paused_savez(fh, **arrays):
            buffer = io.BytesIO()
            savez(buffer, **arrays)
            data = buffer.getvalue()
            complete.append(data)
            if arrays["e_ref"] != record.e_ref:
                return fh.write(data)
            fh.write(data[: len(data) // 2])
            fh.flush()
            save_offline_entry(str(tmp_path), grid_main, other)
            fh.write(data[len(data) // 2 :])

        monkeypatch.setattr(np, "savez", paused_savez)
        path = save_offline_entry(str(tmp_path), grid_main, record)
        with open(path, "rb") as fh:
            assert fh.read() in complete
        assert load_cached(str(tmp_path), grid_main, 1.5, 5).e_ref in (
            record.e_ref,
            other.e_ref,
        )
        assert os.listdir(tmp_path) == [os.path.basename(path)]


class TestFailedWrite:
    """A write that fails part way leaves the previous file byte for byte
    and no temporary file."""

    def test_csv(self, tmp_path):
        path = tmp_path / "out" / "criteria_table.csv"
        cli.write_csv(str(path), HEADER, [("HBS_Nb1", 1.0)])
        before = path.read_bytes()

        def failing_rows():
            yield ("JE_Nb1", 2.0)
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError):
            cli.write_csv(str(path), HEADER, failing_rows())
        assert path.read_bytes() == before
        assert os.listdir(path.parent) == [path.name]

    def test_cache_entry(self, tmp_path, monkeypatch, grid_main, record):
        path = save_offline_entry(str(tmp_path), grid_main, record)
        with open(path, "rb") as fh:
            before = fh.read()

        def failing_savez(fh, **arrays):
            fh.write(b"PK\x03\x04")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", failing_savez)
        with pytest.raises(OSError):
            save_offline_entry(str(tmp_path), grid_main, record)
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == [os.path.basename(path)]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_files_get_the_mode_of_a_plain_open(tmp_path, grid_main, record, umask):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w"):
            pass
        cli._write_json(str(tmp_path / "out" / "report.json"), {"x": 1})
        cli.write_csv(str(tmp_path / "out" / "table.csv"), HEADER, [("HBS", 1.0)])
        entry = save_offline_entry(str(tmp_path / "cache"), grid_main, record)
    finally:
        os.umask(previous)
    expected = mode(tmp_path / "plain.txt")
    assert expected == 0o666 & ~umask
    assert mode(tmp_path / "out" / "report.json") == expected
    assert mode(tmp_path / "out" / "table.csv") == expected
    assert mode(entry) == expected
