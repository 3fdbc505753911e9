"""Unit tests for the quick-report generator and its CLI command."""

import pytest

from repro.cli import main
from repro.experiments.quickreport import (
    _markdown_table,
    generate_report,
    write_report,
)
from repro.experiments.runner import ExperimentScale

TINY = ExperimentScale(llc_lines=256, warmup_factor=4, measure_factor=8)
TINY_MIXES = ("mix09_light",)


class TestMarkdownTable:
    def test_shape(self):
        table = _markdown_table(["a", "b"], [[1, 2.5], ["x", 0.1]])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "2.500" in lines[2]

    def test_floats_formatted(self):
        assert "1.234" in _markdown_table(["v"], [[1.23391]])


class TestGenerateReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_report(TINY, mixes=TINY_MIXES)

    def test_contains_all_sections(self, report):
        assert "# RWP reproduction" in report
        assert "## Single-core geomean speedup" in report
        assert "## State overhead" in report
        assert "## 4-core weighted speedup" in report

    def test_mentions_all_policies(self, report):
        for policy in ("dip", "drrip", "ship", "rrp", "rwp"):
            assert policy in report

    def test_reports_gap_and_ratio(self, report):
        assert "RWP vs RRP gap" in report
        assert "ratio **" in report

    def test_write_report(self, tmp_path):
        path = write_report(tmp_path / "deep/report.md", TINY)
        # write_report reruns at the same scale: results are memoized,
        # so this is cheap, and the file must match the generator.
        assert path.exists()
        assert "# RWP reproduction" in path.read_text()


class TestCLIReport:
    def test_report_to_stdout(self, capsys):
        code = main(
            ["report", "--llc-lines", "256", "--accesses", "4096"]
        )
        assert code == 0
        assert "# RWP reproduction" in capsys.readouterr().out

    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        code = main(
            [
                "report",
                "-o", str(out),
                "--llc-lines", "256",
                "--accesses", "4096",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_report_is_identical_under_every_kernel(self, capsys):
        # The kernel axis of the report's determinism: the reference
        # dict driver and the default kernel render the same bytes.
        tiny = ["--llc-lines", "128", "--accesses", "2048", "--no-store"]
        outputs = []
        for kernel in (["--kernel", "dict"], []):
            assert main(["report", *tiny, *kernel]) == 0
            outputs.append(capsys.readouterr().out)
        assert "# RWP reproduction" in outputs[0]
        assert outputs[0] == outputs[1]
