"""The pieces every whole-program pass takes from ``project/walker.py``."""

from repro.lint.module import LintModule
from repro.lint.project.analysis import ProjectAnalysis
from repro.lint.project.graph import module_name_for_virtual_path
from repro.lint.project.ir import build_module_ir
from repro.lint.project.walker import Evaluation, call_tail

SOURCE = (
    "class Box:\n"
    "    def put(self, item, where=None):\n"
    "        return item\n"
    "def put(item, where=None):\n"
    "    return item\n"
    "def caller(box, x):\n"
    "    return x\n"
)


class Receiver(Evaluation):
    """Binds a method's ``self`` to the call form it was reached by."""

    def receiver(self, func):
        return ("receiver of", func[0])


def evaluation(cls=Receiver):
    module = LintModule("pkg/app.py", SOURCE)
    ir = build_module_ir(module, *module_name_for_virtual_path("pkg/app.py"))
    project = ProjectAnalysis([ir])
    functions = project.graph.function_ir
    return cls(project, "pkg.app::caller"), functions["pkg.app::Box.put"], functions["pkg.app::put"]


METH = ["meth", ["name", "box"], "put"]
REF = ["ref", "put"]
DESC = ["desc", ["elem", ["name", "table"]]]


class TestBindArgs:
    def test_function_callee_binds_positionals_in_order(self):
        ev, _method, function = evaluation()
        assert ev.bind_args(function, REF, ["a", "b"], {}) == {"item": "a", "where": "b"}

    def test_method_callee_skips_self_for_every_call_form(self):
        ev, method, _function = evaluation()
        for func in (METH, REF, DESC):
            assert ev.bind_args(method, func, ["a"], {}) == {
                "self": ("receiver of", func[0]),
                "item": "a",
            }

    def test_self_defaults_to_the_domain_bottom(self):
        ev, method, _function = evaluation(Evaluation)
        assert ev.bind_args(method, METH, [], {}) == {"self": Evaluation.bottom}

    def test_keywords_bind_by_name_and_unknown_ones_bind_nothing(self):
        ev, method, function = evaluation()
        assert ev.bind_args(function, REF, ["a"], {"where": "w", "nope": "n"}) == {
            "item": "a",
            "where": "w",
        }
        bound = ev.bind_args(method, METH, [], {"item": "i", "**": "rest"})
        assert bound == {"self": ("receiver of", "meth"), "item": "i"}

    def test_surplus_positionals_bind_nothing(self):
        ev, method, function = evaluation()
        assert ev.bind_args(function, REF, ["a", "b", "c", "d"], {}) == {
            "item": "a",
            "where": "b",
        }
        assert "c" not in ev.bind_args(method, METH, ["a", "b", "c"], {}).values()


class TestEvaluation:
    def test_prologue(self):
        ev, _method, _function = evaluation()
        assert (ev.modkey, ev.cls, ev.fn["params"]) == ("pkg.app", None, ["box", "x"])
        module = LintModule("pkg/app.py", SOURCE)
        ir = build_module_ir(module, *module_name_for_virtual_path("pkg/app.py"))
        project = ProjectAnalysis([ir])
        assert Evaluation(project, "pkg.app::Box.put").cls == "pkg.app.Box"

    def test_report_keeps_the_first_of_identical_findings(self):
        ev, _method, _function = evaluation()
        ev.report("PIC999", 3, 0, "m")
        ev.report("PIC999", 3, 0, "m")
        ev.report("PIC999", 4, 0, "m")
        assert ev.findings == [
            ("PIC999", "pkg.app::caller", 3, 0, "m"),
            ("PIC999", "pkg.app::caller", 4, 0, "m"),
        ]
        # ... and they are the function's latest, as the driver sees it.
        assert ev.an.fix.found["pkg.app::caller"] is ev.findings

    def test_call_tail(self):
        assert (call_tail(METH), call_tail(REF), call_tail(DESC)) == ("put", "put", None)
