"""The --explain corpus is executable: bad fires, good is silent."""

import pytest

from repro.lint import lint_source
from repro.lint.examples import EXAMPLES, explain
from repro.lint.rules import all_rules, family_of


def _rules(source: str) -> set[str]:
    return {f.rule for f in lint_source(source)}


class TestCorpus:
    def test_every_rule_has_an_example(self):
        missing = {r.rule_id for r in all_rules()} - EXAMPLES.keys()
        assert not missing

    @pytest.mark.parametrize("rule_id", sorted(EXAMPLES))
    def test_bad_example_fires(self, rule_id):
        assert rule_id in _rules(EXAMPLES[rule_id].bad)

    @pytest.mark.parametrize("rule_id", sorted(EXAMPLES))
    def test_good_example_is_silent(self, rule_id):
        assert rule_id not in _rules(EXAMPLES[rule_id].good)


class TestExplain:
    def test_explain_renders_all_sections(self):
        text = explain("PIC601")
        assert text is not None
        assert "PIC601" in text
        assert "family: quantity-unit taint" in text
        assert "bad (fires):" in text
        assert "good (silent):" in text

    def test_unknown_rule_is_none(self):
        assert explain("PIC999") is None

    def test_families_cover_all_rules(self):
        for rule in all_rules():
            assert family_of(rule.rule_id) != "unknown"
