"""Acceptance criteria, one test per claim, at their full stated sizes.

Each test prints the per-check pass/fail lines of its suite (visible with
pytest -s or in the verify CLI, which runs the same suites).
"""

from rectlab import verify


def _run(suite, ctx, **kwargs):
    res = verify.SUITES[suite](ctx, **kwargs)
    for line in res.lines:
        print(line)
    assert res.ok, f"suite {suite} failed:\n" + "\n".join(
        ln for ln in res.lines if ln.startswith("FAIL"))


def test_criterion_1_catalan(ctx):
    _run("catalan", ctx, max_n=6)


def test_criterion_2_a279555(ctx):
    _run("a279555", ctx, max_n=7, dp_n=100)


def test_criterion_3_conjecture_statistics(ctx):
    _run("conjecture-stats", ctx, max_n=7)


def test_criterion_4_bijection_well_formedness(ctx):
    _run("bijections", ctx, max_n=7)


def test_criterion_5_direct_equals_trace(ctx):
    _run("direct-vs-trace", ctx, max_n=7)


def test_criterion_6_beta_correspondence(ctx):
    _run("beta-correspondence", ctx, max_n=6)


def test_criterion_7_statistics_propositions(ctx):
    _run("stats-props", ctx, max_n=7)


def test_criterion_8_a287709(ctx):
    _run("a287709", ctx, max_n=9)


def test_criterion_9_series(ctx):
    _run("series", ctx)


def test_criterion_10_elementary_classes(ctx):
    _run("elementary", ctx, max_n=7)


def test_criterion_11_guillotine(ctx):
    _run("guillotine", ctx, max_n=6)
