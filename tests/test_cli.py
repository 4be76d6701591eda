"""The `repro` command line: `sweep` is its only command."""

import pytest

from repro.cli import main


class TestMain:
    @pytest.mark.parametrize("argv", [[], ["e5"], ["--list"]])
    def test_anything_but_sweep_names_the_sweep_command(self, argv, capsys):
        assert main(argv) == 2
        assert "repro sweep specs/<file>.json" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_usage_and_exits_zero(self, flag, capsys):
        assert main([flag]) == 0
        assert "repro sweep specs/<file>.json" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["e99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_sweep_dispatch(self, capsys):
        # `repro sweep` routes to the harness parser, whose usage
        # errors also exit 2.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep"])  # missing SPEC argument
        assert excinfo.value.code == 2

    def test_console_entry_point(self):
        from repro.cli import console_main
        import unittest.mock as mock
        with mock.patch("repro.cli.main", return_value=0) as mocked:
            with pytest.raises(SystemExit) as excinfo:
                console_main()
        assert excinfo.value.code == 0
        assert mocked.called
