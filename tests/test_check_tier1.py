"""``.github/check_tier1.py``, the CI gate on a tier-1 JUnit report, run on
synthetic reports: it passes only when the failures are exactly criteria
02, 07 and 08 and no test was skipped or marked xfail."""

import importlib.util
import pathlib

import pytest

GATE = pathlib.Path(__file__).resolve().parents[1] / ".github" / "check_tier1.py"
_spec = importlib.util.spec_from_file_location("check_tier1", GATE)
check_tier1 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_tier1)

BY_DESIGN = ("test_criterion_02_limit_suite", "test_criterion_07_mirror_distance_trends",
             "test_criterion_08_gap_sweep_trends")
PASSED = ("test_criterion_01_oracle_equivalence_grid",
          "test_criterion_04_certification_equivalence")
# what pytest writes inside a <testcase> for each outcome
OUTCOME = {
    "passed": "",
    "failed": '<failure message="AssertionError">trace</failure>',
    "error": '<error message="fixture failed">trace</error>',
    "skipped": '<skipped type="pytest.skip" message="no mpmath">why</skipped>',
    "xfail": '<skipped type="pytest.xfail" message="expected">why</skipped>',
}


def _report(tmp_path, outcomes):
    """A pytest JUnit report of tests in ``tests/test_acceptance.py``, each
    named test with its outcome."""
    cases = "".join(
        f'<testcase classname="tests.test_acceptance" name="{name}" time="0.01">'
        f"{OUTCOME[outcome]}</testcase>"
        for name, outcome in outcomes.items()
    )
    path = tmp_path / "tier1.xml"
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites name="pytest tests">'
        f'<testsuite name="pytest" tests="{len(outcomes)}">{cases}</testsuite></testsuites>'
    )
    return str(path)


def _tier1(**changed):
    """The by-design failures and two passing tests, with ``changed`` outcomes."""
    return {**dict.fromkeys(BY_DESIGN, "failed"), **dict.fromkeys(PASSED, "passed"), **changed}


def test_exactly_the_by_design_failures_pass(tmp_path, capsys):
    assert check_tier1.main(_report(tmp_path, _tier1())) == 0
    assert capsys.readouterr().out.splitlines() == [
        "5 tests, 3 failed, 0 skipped or xfail",
        "failures are exactly criteria 02, 07 and 08",
    ]


@pytest.mark.parametrize(
    "outcomes, problem",
    [
        (_tier1(test_criterion_04_certification_equivalence="failed"),
         "unexpected failure: tests.test_acceptance::test_criterion_04_certification_equivalence"),
        (_tier1(test_criterion_04_certification_equivalence="error"),
         "unexpected failure: tests.test_acceptance::test_criterion_04_certification_equivalence"),
        (_tier1(test_criterion_07_mirror_distance_trends="passed"),
         "by-design failure passed or did not run: "
         "tests.test_acceptance::test_criterion_07_mirror_distance_trends"),
        (_tier1(test_criterion_01_oracle_equivalence_grid="skipped"),
         "skipped or xfail: tests.test_acceptance::test_criterion_01_oracle_equivalence_grid"),
        (_tier1(test_criterion_01_oracle_equivalence_grid="xfail"),
         "skipped or xfail: tests.test_acceptance::test_criterion_01_oracle_equivalence_grid"),
    ],
    ids=["extra-failure", "extra-error", "by-design-passed", "skipped", "xfail"],
)
def test_anything_else_fails(tmp_path, capsys, outcomes, problem):
    assert check_tier1.main(_report(tmp_path, outcomes)) == 1
    assert problem in capsys.readouterr().out.splitlines()


def test_empty_report_fails(tmp_path, capsys):
    assert check_tier1.main(_report(tmp_path, {})) == 1
    assert capsys.readouterr().out.splitlines()[0] == "0 tests, 0 failed, 0 skipped or xfail"
