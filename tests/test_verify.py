from schur.verify import run_claims


def test_claims_due_after_the_time_limit_do_not_run():
    report = run_claims(2, time_limit=1e-6)
    assert report.claims
    assert all(c.status == "budget" for c in report.claims)
