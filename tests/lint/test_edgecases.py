"""Input edge cases: byte-order marks, CRLF, syntax errors, empty files."""

from repro.lint.engine import iter_python_files, lint_file, run_lint
from repro.lint.model import LintParseError
from repro.lint.module import LintModule, decode_source


class TestByteOrderMark:
    def test_bom_file_parses(self, tmp_path):
        path = tmp_path / "bom.py"
        path.write_bytes(b"\xef\xbb\xbfVALUE = 1\n")
        assert lint_file(path) == []

    def test_bom_does_not_shift_line_numbers(self, tmp_path):
        path = tmp_path / "bom.py"
        path.write_bytes(
            b"\xef\xbb\xbfimport random\n\n\ndef pick(xs):\n"
            b"    return xs[random.randrange(len(xs))]\n"
        )
        findings = lint_file(path)
        assert [f.rule for f in findings] == ["PIC002"]
        assert findings[0].line == 5

    def test_noqa_still_recognized_after_bom(self, tmp_path):
        path = tmp_path / "bom.py"
        path.write_bytes(
            b"\xef\xbb\xbfimport random\n\n\ndef pick(xs):\n"
            b"    return xs[random.randrange(len(xs))]  # pic: noqa: PIC002\n"
        )
        assert lint_file(path) == []

    def test_decode_source_strips_bom(self):
        assert decode_source("x.py", b"\xef\xbb\xbfA = 1\n") == "A = 1\n"


class TestCrlf:
    def test_crlf_file_parses_with_correct_lines(self, tmp_path):
        path = tmp_path / "crlf.py"
        path.write_bytes(
            b"import random\r\n\r\n\r\ndef pick(xs):\r\n"
            b"    return xs[random.randrange(len(xs))]\r\n"
        )
        findings = lint_file(path)
        assert [f.rule for f in findings] == ["PIC002"]
        assert findings[0].line == 5

    def test_crlf_noqa_suppresses(self, tmp_path):
        path = tmp_path / "crlf.py"
        path.write_bytes(
            b"import random\r\n\r\n\r\ndef pick(xs):\r\n"
            b"    return xs[random.randrange(len(xs))]  # pic: noqa\r\n"
        )
        assert lint_file(path) == []


class TestSyntaxErrors:
    def test_syntax_error_is_a_diagnostic_not_a_crash(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n", encoding="utf-8")
        run = run_lint([tmp_path])
        assert run.findings == []
        assert len(run.errors) == 1
        assert "syntax error" in run.errors[0]
        assert "broken.py" in run.errors[0]

    def test_syntax_error_does_not_block_sibling_files(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        (tmp_path / "ok.py").write_text(
            "import random\n\n\ndef pick(xs):\n"
            "    return xs[random.randrange(len(xs))]\n",
            encoding="utf-8",
        )
        run = run_lint([tmp_path])
        assert [f.rule for f in run.findings] == ["PIC002"]
        assert len(run.errors) == 1

    def test_undecodable_bytes_are_a_diagnostic(self, tmp_path):
        path = tmp_path / "latin.py"
        path.write_bytes(b"# caf\xe9\nVALUE = 1\n")
        run = run_lint([tmp_path])
        assert run.findings == []
        assert len(run.errors) == 1
        assert "cannot decode" in run.errors[0]

    def test_lint_module_raises_typed_error(self):
        try:
            LintModule("broken.py", "def broken(:\n")
        except LintParseError as exc:
            assert "broken.py" in str(exc)
        else:
            raise AssertionError("expected LintParseError")


class TestEmptyFiles:
    def test_empty_init_is_clean(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        run = run_lint([tmp_path])
        assert run.findings == []
        assert run.errors == []
        assert run.files_checked == 1

    def test_whitespace_only_file_is_clean(self, tmp_path):
        (tmp_path / "blank.py").write_text("\n\n   \n", encoding="utf-8")
        run = run_lint([tmp_path])
        assert run.findings == []
        assert run.errors == []


class TestOverlappingArguments:
    SOURCE = "import time\n\n\ndef stamp():\n    return time.time()\n"

    def test_a_file_named_three_ways_is_linted_once(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "clock.py").write_text(self.SOURCE, encoding="utf-8")
        run = run_lint([tmp_path, pkg, pkg / "clock.py"])
        assert run.files_checked == 1
        assert [f.rule for f in run.findings] == ["PIC001"]

    def test_first_spelling_and_first_occurrence_order_are_kept(self, tmp_path):
        for name in ("a.py", "b.py", "c.py"):
            (tmp_path / name).write_text("", encoding="utf-8")
        (tmp_path / "sub").mkdir()
        b, c = tmp_path / "b.py", tmp_path / "c.py"
        detour = tmp_path / "sub" / ".." / "c.py"
        assert detour != c and detour.resolve() == c.resolve()
        # A shuffled file list (the perf ledger hands one over) keeps
        # its order; the directory adds only what was not yet listed.
        assert iter_python_files([detour, b, c, tmp_path]) == [detour, b, tmp_path / "a.py"]
