from semidual.reporting import FAIL, PASS, Report


def test_check_passes_without_a_witness_and_fails_with_one():
    report = Report()
    report.check("axiom", "coassociativity", None)
    report.check("invariant", "associativity", ("E11", "E12", "E22"))
    report.check("axiom", "counit-left", "s=n2")
    assert report.render().splitlines() == [
        "axiom coassociativity: PASS",
        "invariant associativity: FAIL [witness ('E11', 'E12', 'E22')]",
        "axiom counit-left: FAIL [witness s=n2]"]
    assert [(line.status, line.witness) for line in report.lines] == [
        (PASS, ""), (FAIL, "[witness ('E11', 'E12', 'E22')]"), (FAIL, "[witness s=n2]")]
    assert not report.passed and len(report.failures()) == 2
