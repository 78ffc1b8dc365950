import json

import numpy as np
import pytest

from cogradar.fileio import read_json, write_csv, write_json


def read_text(path):
    with open(path, newline="") as handle:
        return handle.read()


class TestWriteCsv:
    def test_floats_round_trip_exactly(self, tmp_path):
        path = str(tmp_path / "out.csv")
        values = [0.1, 1 / 3, 2.0**-1074, np.float64(np.pi), np.float64(1e300)]
        write_csv(path, ["x"], [[v] for v in values])
        lines = read_text(path).splitlines()
        assert lines[0] == "x"
        assert lines[1:] == [f"{v:.17g}" for v in values]
        assert [float(line) for line in lines[1:]] == [float(v) for v in values]

    def test_python_and_numpy_floats_written_alike(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_csv(a, ["x"], [[0.1], [2.5]])
        write_csv(b, ["x"], [[np.float64(0.1)], [np.float64(2.5)]])
        assert read_text(a) == read_text(b) == "x\n0.10000000000000001\n2.5\n"

    def test_ints_and_strings_unchanged(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(path, ["a", "b", "c"], [[3, "full_track", ""], [np.int64(-7), "x", 0]])
        assert read_text(path) == "a,b,c\n3,full_track,\n-7,x,0\n"

    def test_crlf_terminator(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(path, ["t", "phase"], [[0.5, "boost"]], lineterminator="\r\n")
        assert read_text(path) == "t,phase\r\n0.5,boost\r\n"

    def test_rows_may_be_a_generator(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(path, ["step"], ([k] for k in range(3)))
        assert read_text(path) == "step\n0\n1\n2\n"


class TestWriteJson:
    def test_two_space_indent_and_trailing_newline(self, tmp_path):
        path = str(tmp_path / "doc.json")
        doc = {"a": [1, 2.5], "b": {"c": True}}
        write_json(path, doc)
        text = read_text(path)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert text.startswith('{\n  "a": [\n    1,')
        assert text.endswith("}\n")
        assert json.loads(text) == doc


class TestReadJson:
    def test_returns_the_document(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": 1, "b": [2.5]}')
        assert read_json(str(path), ("a", "b"), "edges") == {"a": 1, "b": [2.5]}

    def test_names_missing_keys_and_file_kind(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"b": 1}')
        with pytest.raises(ValueError) as info:
            read_json(str(path), ("a", "b", "c"), "Q-table")
        assert str(info.value) == "Q-table file missing keys: ['a', 'c']"

    @pytest.mark.parametrize("text", ["5", "null", "[]", '"a b"'])
    def test_names_file_kind_of_a_non_object(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(TypeError) as info:
            read_json(str(path), ("a", "b"), "edges")
        assert str(info.value) == f"edges file must be an object, got {json.loads(text)!r}"

    def test_no_keys_checks_nothing(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("{}")
        assert read_json(str(path), (), "scenario") == {}
