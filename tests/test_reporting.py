import json
from pathlib import Path

import numpy as np
import pytest

from adwave import experiments as ex
from adwave.reporting import Check, ExperimentReport, fmt, svg_line_plot, write_csv

from oracles import traced_memory


class TestFormatting:
    def test_seventeen_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.33333333333333331"
        assert fmt(0.1) == "0.10000000000000001"
        assert fmt(2.0) == "2"
        assert fmt(float("nan")) == "nan"

    def test_ints_and_bools(self):
        assert fmt(7) == "7"
        assert fmt(True) == "true"
        assert fmt(False) == "false"

    def test_round_trips_through_float(self):
        for x in (np.pi, 1e-300, 123456.789, -0.05):
            assert float(fmt(float(x))) == float(x)


class TestCsv:
    def test_deterministic_bytes(self, tmp_path):
        rows = [(0.1, 1, "a"), (0.2, 2, "b")]
        p1 = write_csv(str(tmp_path / "x.csv"), ["t", "i", "s"], rows)
        p2 = write_csv(str(tmp_path / "y.csv"), ["t", "i", "s"], rows)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        lines = Path(p1).read_text().splitlines()
        assert lines[0] == "t,i,s"
        assert lines[1] == "0.10000000000000001,1,a"


    @pytest.mark.parametrize("rows, body", [
        pytest.param(["0.5,0,1\n0.5,1,-0\n", "x,y,z\n"],
                     "0.5,0,1\n0.5,1,-0\nx,y,z\n", id="str-items-verbatim"),
        pytest.param([(0.1, 1, True), (-0.0, float("nan"), "b"), (1e300, False, 7)],
                     "0.10000000000000001,1,true\n-0,nan,b\n1.0000000000000001e+300,false,7\n",
                     id="tuple-rows"),
        pytest.param([(0.1, 1, "a"), "0.2,2,b\n0.3,3,c\n", (0.4, 4, "d")],
                     "0.10000000000000001,1,a\n0.2,2,b\n0.3,3,c\n0.40000000000000002,4,d\n",
                     id="mixed"),
    ])
    def test_written_bytes(self, tmp_path, rows, body):
        path = write_csv(str(tmp_path / "x.csv"), ["t", "i", "s"], iter(rows))
        assert Path(path).read_bytes() == ("t,i,s\n" + body).encode()

    def test_a_long_stream_is_written_without_holding_it(self, tmp_path):
        """About 16 MiB of blocks pass through while the memory the call
        allocates peaks below 2 MiB: writes are batched, never gathered whole."""
        def blocks():
            for i in range(7400):
                yield f"{i},{'x' * (i % 61)}\n" * 64

        path = str(tmp_path / "x.csv")
        _, peak = traced_memory(lambda: write_csv(path, ["i", "s"], blocks()))
        data = Path(path).read_text()
        assert len(data) > 15 * 2 ** 20
        assert data == "i,s\n" + "".join(blocks())
        assert peak < 2 * 2 ** 20


class TestReport:
    def test_pass_fail_skip_logic(self):
        rep = ExperimentReport("demo")
        rep.check("first", True, 1.0, 2.0)
        rep.check("second", None, float("nan"), float("nan"))
        assert rep.passed and rep.first_failure is None
        rep.check("third", False, 3.0, 2.0)
        assert not rep.passed
        assert rep.first_failure == "third"

    def test_check_line_states_comparison(self):
        c = Check("demo", True, 0.5, 1.0, "<", "note here")
        assert "PASS demo" in c.line()
        assert "0.5" in c.line() and "<" in c.line()
        assert Check("x", None, 0.0, 0.0).line().startswith("SKIP")

    def test_json_is_sorted_and_stable(self, tmp_path):
        rep = ExperimentReport("demo", parameters={"b": 1, "a": 2})
        rep.check("only", True, 1.0, 1.0)
        path = ex.write(rep, str(tmp_path)).artifacts[-1]
        text1 = Path(path).read_text()
        rep2 = ExperimentReport("demo", parameters={"b": 1, "a": 2})
        rep2.check("only", True, 1.0, 1.0)
        (tmp_path / "again").mkdir()
        assert Path(ex.write(rep2, str(tmp_path / "again")).artifacts[-1]).read_text() == text1
        payload = json.loads(text1)
        assert payload["parameters"] == {"a": 2, "b": 1}


def test_the_writers_make_no_directory(tmp_path):
    """The command line makes every output directory; a writer given a
    path in a missing one fails and creates nothing."""
    missing = tmp_path / "missing"
    rep = ExperimentReport("demo", tables=[("x.csv", {"t": [0.5]})])
    for write in (lambda: write_csv(str(missing / "x.csv"), ["t"], [(0.5,)]),
                  lambda: svg_line_plot(str(missing / "p.svg"), [0.0, 1.0], {"y": [0, 1]}),
                  lambda: ex.write(rep, str(missing))):
        with pytest.raises(FileNotFoundError):
            write()
    assert not missing.exists()


class TestSvg:
    def test_valid_xml_with_legend_and_hline(self, tmp_path):
        import xml.dom.minidom
        x = np.linspace(0, 1, 20)
        path = svg_line_plot(str(tmp_path / "p.svg"), x,
                             {"one": np.sin(x), "two": np.cos(x)},
                             title="demo", xlabel="t", ylabel="y", hlines=(1.0,))
        doc = xml.dom.minidom.parse(path)
        text = Path(path).read_text()
        assert "polyline" in text
        assert "demo" in text
        assert text.count("polyline") >= 2

    def test_degenerate_ranges_do_not_crash(self, tmp_path):
        svg_line_plot(str(tmp_path / "flat.svg"), [0.0, 1.0],
                      {"flat": [2.0, 2.0]})
        svg_line_plot(str(tmp_path / "empty.svg"), [], {})
