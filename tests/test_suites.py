import hashlib
import random

import pytest

from downup import (DownUpPresentation, SuiteContext, SuiteResult,
                    gwa_algebra, run_suites, sampling, suites)
from downup.suites import SUITES

from support import std_algebra, std_spec


# sha256 of the seeded draws in test_seeded_draws_are_pinned
DRAW_DIGEST = \
    "04d51d0689ae842f472d9022d8d8e4ef848e71e66845e5409e6dddb061d11674"


def ctx_full(samples=20, **kw):
    return SuiteContext(std_spec(), std_algebra(), samples=samples, **kw)


def test_every_suite_passes():
    results = run_suites(["all"], ctx_full())
    assert [r.name for r in results] == list(SUITES)
    for r in results:
        assert r.ok, (r.name, r.failures)
        assert r.total > 0


def test_results_count_samples():
    res = run_suites(["field"], SuiteContext(samples=37))[0]
    assert res.total == 37 and res.passed == 37


def test_spec_free_suites_need_no_parameters():
    results = run_suites(["field", "params"], SuiteContext(samples=10))
    assert all(r.ok for r in results)


def test_missing_parameters_are_reported():
    with pytest.raises(ValueError, match="missing parameters: d, n1, n2"):
        run_suites(["phi"], SuiteContext(samples=5))
    with pytest.raises(ValueError, match=r"missing f \(coefficient list, "
                                         r"e\.g\. --f 0,1\)"):
        run_suites(["assoc"], SuiteContext(spec=std_spec(), samples=5))


@pytest.mark.parametrize("ctx, message", [
    (SuiteContext(std_spec(), samples=5),
     r"missing f \(coefficient list, e\.g\. --f 0,1\)"),
    (SuiteContext(samples=5), "missing parameters: d, n1, n2"),
], ids=["missing-f", "missing-point"])
def test_missing_inputs_are_refused_before_any_suite_runs(monkeypatch, ctx,
                                                          message):
    calls = []
    monkeypatch.setitem(SUITES, "field", lambda *a: calls.append("field"))
    with pytest.raises(ValueError, match=message):
        run_suites(["field", "assoc"], ctx)
    assert calls == []


def test_unknown_suite_is_named():
    with pytest.raises(ValueError, match="unknown suite 'units'"):
        run_suites(["units"], ctx_full())


def test_repeated_suite_name_runs_once():
    results = run_suites(["field", "phi", "field"], ctx_full(samples=5))
    assert [r.name for r in results] == ["field", "phi"]
    assert results[0].total == 5


def test_all_must_stand_alone():
    with pytest.raises(ValueError, match="'all' must be the only suite name"):
        run_suites(["all", "field"], ctx_full())


def test_indices_suite_on_negative_slope():
    ctx = SuiteContext(spec=std_spec(1, -2, 3), samples=5)
    res = run_suites(["indices"], ctx)[0]
    assert res.ok


def test_failure_capture_is_capped():
    res = SuiteResult("demo")
    for n in range(25):
        res.check(False, "miss %d" % n)
    assert not res.ok
    assert res.total == 25 and res.passed == 0
    assert len(res.failures) == 10
    res.check(True, "hit")
    assert res.passed == 1


def test_oracle_rewrites_each_short_word_once_per_strategy(monkeypatch):
    # the 340 words of length <= 4, once per strategy, and no word again
    calls = []
    rewrite = suites.oracle_normalize
    monkeypatch.setattr(suites, "oracle_normalize",
                        lambda *a, **kw: calls.append(1) or rewrite(*a, **kw))
    assert run_suites(["oracle"], ctx_full())[0].total == 1252
    assert len(calls) == 680


def test_seed_changes_samples_not_verdict():
    a = run_suites(["leibniz"], ctx_full(seed=1, samples=10))[0]
    b = run_suites(["leibniz"], ctx_full(seed=2, samples=10))[0]
    assert a.ok and b.ok


def test_seeded_draws_are_pinned():
    # the seeded suites check what these draws return; a digest of them
    # at fixed seeds and points shows that a change to sampling keeps
    # every sample and the order of every rng draw
    out = []
    # at (3, 2, 1) the h index set is {0}, so no alpha table is drawn
    for (d, n1, n2), f in (((1, 3, 2), [0, 1]), ((2, 3, 5), [0, 1]),
                           ((1, -2, 3), [1, 0, 1]), ((3, 2, 1), [0, 1])):
        spec = std_spec(d, n1, n2)
        algebra = gwa_algebra(DownUpPresentation.from_coefficients(spec, f))
        for seed in (0, 7, 46):
            rng = random.Random(seed)
            for deriv in sampling.random_derivations(rng, spec, algebra.g):
                out.append("%s|%s|%s" % (deriv.weights(), deriv.c0, deriv.b))
            out.append(str(sampling.random_element(
                rng, max_degree=2, max_terms=2)))
            out.append(str(sampling.random_element(rng, with_denominator=True)))
            out.extend(map(str, sampling.random_f_coefficients(rng)))
            out.append(str(rng.getrandbits(32)))
    digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
    assert digest == DRAW_DIGEST
