import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from hardylab import closedform as cf
from hardylab import lab
from hardylab.funcs import BumpMixture, random_bump_mixture
from hardylab.hgroup import ProductSpec
from hardylab import measure
from hardylab.measure import Estimate
from hardylab.operators import MonomialWeight

SPEC1 = ProductSpec.of_orders(1)
SPEC2 = ProductSpec.of_orders(1, 1)


def verdicts_ok(report):
    assert all(r.verdict in ("PASS", "FAIL", "INFO") for r in report.rows)
    assert all(v in ("PASS", "FAIL", "INFO") for v in report.summary.values())
    for r in report.rows:
        if r.oracle is not None:
            assert r.deviation is not None and r.sigma_multiple is not None


def gated(est, oracle, gate=None, **rule):
    """A row held to a gate (two-sided at the oracle unless one is given)."""
    return lab.ReportRow.of("row", est, oracle, gate or lab.Gate("key", oracle, oracle, **rule))


def summary_of(rows):
    return lab._report("x", {}, rows, 0).summary


class TestRow:
    def test_zero_error_row_passes_at_a_few_ulp(self):
        r = gated(Estimate(1.0 - 0.8, 0.0, 40_000), 0.2)
        assert r.verdict == "PASS"
        assert r.deviation != 0.0
        assert 0.0 < r.sigma_multiple <= 3.0

    def test_zero_error_row_fails_at_relative_1e_12(self):
        r = gated(Estimate(0.2 * (1 + 1e-12), 0.0, 40_000), 0.2)
        assert r.verdict == "FAIL"
        assert r.sigma_multiple > 3.0

    def test_rounding_scale_error_reads_against_the_rounding_term(self):
        # a standard error far below rounding must not inflate the sigma count
        r = gated(Estimate(1.0 - 0.8, 1e-20, 40_000), 0.2)
        assert r.verdict == "PASS"
        assert r.sigma_multiple <= 3.0

    def test_zero_error_row_reads_against_atol(self):
        # the duality indicator row: constant integrand, many-ulp summation
        # rounding, gated by atol
        est = Estimate(0.2 + 1e-14, 1e-18, 20_000)
        r = gated(est, 0.2, atol=1e-9)
        assert r.verdict == "PASS"
        assert 0.0 < r.sigma_multiple < 1e-3
        assert gated(est, 0.2).sigma_multiple > 3.0

    def test_statistical_row_reads_plain_sigmas(self):
        r = gated(Estimate(1.02, 0.01, 1_000), 1.0)
        assert r.sigma_multiple == abs(1.02 - 1.0) / 0.01
        assert r.verdict == "PASS"
        assert gated(Estimate(1.04, 0.01, 1_000), 1.0).verdict == "FAIL"

    def test_exact_row_gated_by_atol(self):
        r = gated(1.0 + 1e-9, 1.0, atol=1e-8)
        assert r.verdict == "PASS" and r.sigma_multiple == 0.0
        assert gated(1.0 + 1e-7, 1.0, atol=1e-8).verdict == "FAIL"

    def test_oracle_is_separate_from_the_target(self):
        # the C5 control: shown against one value, gated against another
        r = gated(Estimate(1.3, 0.01, 1_000), 1.2, lab.Gate("key", hi=2.0, k=0.0))
        assert r.verdict == "PASS"
        assert r.deviation == 1.3 - 1.2 and r.sigma_multiple == pytest.approx(10.0)
        assert gated(Estimate(2.01, 0.01, 1_000), 1.2, lab.Gate("key", hi=2.0, k=0.0)).verdict == "FAIL"


class TestSigmaRow:
    def test_zero_error_reads_zero_sigma(self):
        # exact values and rows that gate nothing read 0
        r = lab.ReportRow.of("bound", Estimate(0.41, 0.01, 100), 0.5)
        assert (r.verdict, r.deviation, r.sigma_multiple, r.gate) == ("INFO", 0.41 - 0.5, 0.0, None)
        assert gated(0.41, 0.5, lab.Gate("key", lo=0.4)).sigma_multiple == 0.0
        r = lab.ReportRow.of("bound", 0.41)
        assert (r.oracle, r.deviation, r.sigma_multiple) == (None, None, None)

    @pytest.mark.parametrize("dev, verdict", [(0.02, "PASS"), (-0.04, "INFO"), (0.06, "FAIL")])
    def test_default_verdict_follows_sigma_verdict(self, dev, verdict):
        # a budget row reads PASS within 3 sigma, INFO to 4.5, FAIL beyond;
        # a row outside a budget FAILs past 3
        r = gated(Estimate(dev, 0.01, 1_000), 0.0, budget=True)
        assert r.sigma_multiple == abs(dev) / 0.01
        assert r.verdict == verdict
        assert gated(Estimate(dev, 0.01, 1_000), 0.0).verdict == ("PASS" if dev == 0.02 else "FAIL")


class TestGateRules:
    def test_one_sided_relative_bound_of_c5(self):
        # value <= sharp * (1 + 3 se / value): the allowance scales the
        # relative error by the bound, not 3 se
        def c5(value, se):
            return gated(Estimate(value, se, 1_000), 2.0,
                         lab.Gate("key", hi=2.0, rel=se / value)).verdict

        assert c5(2.029, 0.01) == "PASS"  # allowance 2 * 3 * 0.01 / 2.029 = 0.02957
        assert c5(2.0298, 0.01) == "FAIL"  # within 3 se = 0.03, beyond 0.02956
        assert gated(Estimate(2.0298, 0.01, 1_000), 2.0, lab.Gate("key", hi=2.0)).verdict == "PASS"
        assert c5(1.0, 1e-6) == "PASS"  # far below: one-sided

    def test_one_sided_contraction_of_c6(self):
        nf, rel = 1.3, 1.0 / math.sqrt(384)

        def c6(ng):
            return gated(Estimate(ng, nf * rel, 384), nf, lab.Gate("key", hi=nf)).verdict

        assert c6(nf * (1 + 2.9 * rel)) == "PASS"
        assert c6(nf * (1 + 3.1 * rel)) == "FAIL"
        assert c6(0.2 * nf) == "PASS"
        r = gated(Estimate(nf * (1 + 2.0 * rel), nf * rel, 384), nf, lab.Gate("key", hi=nf))
        assert r.sigma_multiple == pytest.approx(2.0)  # an exact value would read 0

    def test_percentage_rule_has_no_error_term(self):
        # the 2% extrapolation rule: k = 0 with atol, whatever the error
        rule = dict(k=0.0, atol=0.02 * 3.0)
        assert gated(Estimate(3.05, 0.5, 100), 3.0, **rule).verdict == "PASS"
        assert gated(Estimate(3.07, 0.5, 100), 3.0, **rule).verdict == "FAIL"
        assert gated(Estimate(2.93, 0.5, 100), 3.0, **rule).verdict == "FAIL"
        assert gated(Estimate(3.07, 0.5, 100), 3.0).verdict == "PASS"  # k = 3 would allow it

    def test_two_sided_interval_of_c7(self):
        def c7(quot):
            return gated(quot, 0.5, lab.Gate("key", 0.41, 0.5))

        assert [c7(q).verdict for q in (0.41, 0.45, 0.5)] == ["PASS"] * 3
        assert [c7(q).verdict for q in (0.40, 0.51, math.nan)] == ["FAIL"] * 3
        assert c7(0.45).sigma_multiple == 0.0 and c7(0.45).deviation == 0.45 - 0.5

    def test_bound_rows(self):
        def bound(value, **ends):
            return lab.ReportRow.of("bound", value, gate=lab.Gate("key", **ends))

        assert bound(float(True), lo=1.0).verdict == "PASS"
        assert bound(float(False), lo=1.0).verdict == "FAIL"
        assert bound(3e-13, hi=1e-12).verdict == "PASS"
        assert bound(2e-12, hi=1e-12).verdict == "FAIL"
        assert bound(0.0, hi=0.0).verdict == "PASS" and bound(1.0, hi=0.0).verdict == "FAIL"
        assert bound(math.nan, hi=0.0).verdict == "FAIL"
        r = bound(1.0, lo=1.0, info=True)
        assert (r.verdict, r.oracle, r.deviation, r.sigma_multiple) == ("INFO", None, None, None)


class TestSummary:
    @staticmethod
    def batch(n, sigmas):
        """n budget rows, the first len(sigmas) at the given sigma multiples
        and the rest at 1 sigma."""
        devs = list(sigmas) + [1.0] * (n - len(sigmas))
        return [gated(Estimate(0.01 * d, 0.01, 1_000), 0.0, budget=True) for d in devs]

    @pytest.mark.parametrize("n, sigmas, verdict", [
        (20, [3.5], "PASS"), (20, [3.5, 3.2], "FAIL"),
        (100, [3.5, 3.2], "PASS"), (100, [3.5, 3.2, 4.0], "FAIL"),
        (100, [4.6], "FAIL"), (1, [4.6], "FAIL"),
    ])
    def test_exceedance_budget(self, n, sigmas, verdict):
        assert summary_of(self.batch(n, sigmas)) == {"key": verdict}

    def test_budget_counts_only_budget_rows(self):
        # C6: the contraction rows share the key but not the budget
        rows = self.batch(20, [3.5]) + [gated(0.9, 1.0, lab.Gate("key", hi=1.0))] * 30
        assert summary_of(rows) == {"key": "PASS"}

    def test_keys_pass_fail_info(self):
        passing = gated(1.0, 1.0)
        failing = gated(2.0, 1.0)
        demo = lab.ReportRow.of("demo", 1.0, gate=lab.Gate("demo", lo=1.0, info=True))
        broken = lab.ReportRow.of("demo", 0.0, gate=lab.Gate("demo", lo=1.0, info=True))
        assert summary_of([passing, lab.ReportRow.of("note", 3.0, 1.0), demo]) == {"key": "PASS", "demo": "INFO"}
        assert summary_of([passing, failing, broken]) == {"key": "FAIL", "demo": "FAIL"}

    def test_declared_keys_come_first_and_empty_ones_read_info(self):
        rows = [lab.ReportRow.of("b", 1.0, gate=lab.Gate("b", lo=1.0)),
                lab.ReportRow.of("a", 1.0, gate=lab.Gate("a", lo=1.0))]
        rep = lab._report("x", {}, rows, 0, keys=("a", "conjecture"))
        assert list(rep.summary.items()) == [("a", "PASS"), ("conjecture", "INFO"), ("b", "PASS")]


class TestSharpnessSweep:
    def test_closed_m1(self):
        rep = lab.sharpness_sweep(2.0, SPEC1, method="closed", seed=0)
        assert rep.summary["C1:extrapolation-2pct"] == "PASS"
        assert rep.summary["C4:bound-chain"] == "PASS"
        verdicts_ok(rep)
        quot = {r.input: r.estimate for r in rep.rows}
        assert quot["quotient eps=0.1"] == pytest.approx(
            cf.power_family_quotient(0.1, 2.0, SPEC1), rel=1e-14
        )

    def test_closed_m2_extrapolates_to_four(self):
        rep = lab.sharpness_sweep(2.0, SPEC2, method="closed", seed=0)
        assert rep.summary["C2:extrapolation-2pct"] == "PASS"
        ext = [r for r in rep.rows if r.input.startswith("extrapolated")][0]
        assert abs(ext.estimate - 4.0) <= 0.08

    def test_radial_method(self):
        rep = lab.sharpness_sweep(2.0, SPEC1, eps_grid=(0.2, 0.1), method="radial", seed=0)
        assert all(r.verdict != "FAIL" for r in rep.rows)
        assert rep.summary["C1:radial-agrees"] == "PASS"

    def test_reproducible(self):
        a = lab.sharpness_sweep(2.0, SPEC1, eps_grid=(0.2, 0.1), method="mc",
                                samples=20_000, inner_samples=128, seed=5)
        b = lab.sharpness_sweep(2.0, SPEC1, eps_grid=(0.2, 0.1), method="mc",
                                samples=20_000, inner_samples=128, seed=5)
        assert [r.estimate for r in a.rows] == [r.estimate for r in b.rows]

    def test_bad_method(self):
        with pytest.raises(ValueError):
            lab.sharpness_sweep(2.0, SPEC1, method="secret")

    def test_extrapolation_error_is_propagated(self):
        eps = (0.2, 0.1, 0.05)
        rep = lab.sharpness_sweep(2.0, SPEC1, eps_grid=eps, method="mc",
                                  samples=20_000, inner_samples=128, seed=5)
        se = {r.input: r.std_error for r in rep.rows}
        # intercept weights of the least-squares line through three points
        xbar = sum(eps) / 3
        sxx = sum((e - xbar) ** 2 for e in eps)
        weights = [1 / 3 - xbar * (e - xbar) / sxx for e in eps]
        want = math.sqrt(sum((w * se[f"quotient eps={e:g}"]) ** 2 for w, e in zip(weights, eps)))
        assert se["extrapolated quotient eps->0"] == pytest.approx(want, rel=1e-12)
        assert want > 0.0
        closed = lab.sharpness_sweep(2.0, SPEC1, eps_grid=eps, method="closed")
        ext = [r for r in closed.rows if r.input.startswith("extrapolated")][0]
        assert ext.std_error == 0.0 and ext.sigma_multiple == 0.0


class TestBoundFuzz:
    def test_small_run_passes(self):
        rep = lab.bound_fuzz(6, 2.0, SPEC1, samples=30_000, seed=2)
        assert rep.summary["C5:no-quotient-exceeds-bound"] == "PASS"
        verdicts_ok(rep)
        assert any("zero mixture rejected" in r.input for r in rep.rows)
        control = [r for r in rep.rows if r.input.startswith("control: centered")][0]
        assert control.estimate < 2.0

    def test_m2(self):
        rep = lab.bound_fuzz(4, 1.5, SPEC2, samples=30_000, seed=3)
        assert rep.summary["C5:no-quotient-exceeds-bound"] == "PASS"

    def test_zero_trials_run_the_control_alone(self):
        # a control-only run has no maximum to report, and its report must
        # serialize as standard JSON
        from hardylab import cli

        rep = lab.bound_fuzz(0, 2.0, SPEC1, samples=4_000, seed=1)
        assert rep.summary == {"C5:no-quotient-exceeds-bound": "PASS"}
        assert not any(r.input == "max quotient" for r in rep.rows)
        rows = json.loads(cli.report_to_json(rep))["rows"]
        assert [r["input"].split(" (")[0] for r in rows] == ["control: centered radial bump",
                                                             "control: zero mixture rejected"]


class TestRadialization:
    def test_m1(self):
        rep = lab.radialization_check(5, 2.0, SPEC1, seed=4)
        assert rep.summary["C6:radialization"] == "PASS"
        verdicts_ok(rep)
        contraction = [r for r in rep.rows if "contraction" in r.input]
        assert contraction and all(r.estimate <= r.oracle * 1.2 for r in contraction)

    def test_m2(self):
        rep = lab.radialization_check(3, 2.0, SPEC2, samples=3_000, seed=5)
        assert rep.summary["C6:radialization"] == "PASS"

    def test_ball_difference_evaluates_each_point_once(self, monkeypatch):
        # the bump half keeps the draw's own f and density; only the
        # uniform half is evaluated, so f sees every sample exactly once
        f = random_bump_mixture(SPEC1, np.random.default_rng(5), center_radius=0.3)
        rows = []
        original = BumpMixture.values_and_envelope

        def counting(self, pts):
            rows.append(pts[0].shape[0])
            return original(self, pts)

        monkeypatch.setattr(BumpMixture, "values_and_envelope", counting)
        est = lab._ball_diff_average(f, lambda pts: np.zeros(pts[0].shape[0]), SPEC1, (1.2,),
                                     16_000, 3)
        assert rows == [4096, 4096, 3904, 3904] and est.samples == 16_000


class TestDuality:
    def test_pair_z_scores_are_calibrated(self):
        # 200 bump-pair z-scores at smoke size (seeds 0-9, fixed in advance
        # like the bounds): mean 0 and sd 1 within about 3 of their standard
        # errors (0.07 and 0.05 for 200 normal scores), and no more than 3
        # beyond 3 sigma, where 0.54 are expected
        z = []
        for seed in range(10):
            rep = lab.duality_check(MonomialWeight((4.0,)), 2.0, SPEC1,
                                    pairs=20, samples=2_000, seed=seed)
            z += [r.deviation / r.std_error for r in rep.rows if r.input.startswith("bump pair=")]
        z = np.asarray(z)
        assert z.size == 200
        assert abs(z.mean()) <= 0.25
        assert 0.85 <= z.std(ddof=1) <= 1.15
        assert np.count_nonzero(np.abs(z) > 3.0) <= 3

    def test_indicator_and_pairs(self):
        rep = lab.duality_check(MonomialWeight((4.0,)), 2.0, SPEC1,
                                pairs=4, samples=15_000, seed=6)
        assert rep.summary["C8:duality"] == "PASS"
        assert rep.summary["cesaro-norm-conjecture"] == "INFO"
        quad_rows = [r for r in rep.rows if "quadrature" in r.input]
        for r in quad_rows:
            assert abs(r.deviation) <= 1e-8

    def test_indicator_quadrature_at_large_q(self):
        # at Q = 202 the adjoint image R^(a+1-Q) G(R) overflows below R of
        # about 0.03 while R^(Q-1) times it stays of order R^2
        spec = ProductSpec.of_orders(100)
        want = spec.factors[0].ball_volume / 3.0
        for adjoint in (False, True):
            got = lab._indicator_pairing_quad(MonomialWeight((2.0,)), spec, adjoint)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_unbounded_dual_exponent_rejected(self):
        import hardylab.operators as ops

        with pytest.raises(ops.UnboundedOperatorError):
            lab.duality_check(MonomialWeight((0.0,)), 2.0, SPEC1, pairs=1, samples=2_000, seed=0)


class TestWeightedSharpness:
    def test_bounded_case(self):
        rep = lab.weighted_sharpness(MonomialWeight((3.0,)), 2.0, SPEC1, seed=7)
        assert rep.summary["C7:weighted-bounds"] == "PASS"
        rows = {r.input: r.estimate for r in rep.rows}
        assert rows["rigorous-bound eps=0.1"] == pytest.approx(0.41281, abs=5e-5)
        assert rows["rigorous-bound eps=0.001"] == pytest.approx(0.49681, abs=5e-5)
        assert rep.params["characteristic"] == 0.5
        assert rep.params["eps_grid"] == [0.1, 0.05, 0.01, 0.001]

    def test_product_case(self):
        rep = lab.weighted_sharpness(MonomialWeight((3.0, 3.0)), 2.0, SPEC2, seed=8)
        assert rep.summary["C7:weighted-bounds"] == "PASS"
        assert rep.params["characteristic"] == 0.25

    def test_unbounded_case_is_info(self):
        rep = lab.weighted_sharpness(MonomialWeight((0.0,)), 2.0, SPEC1, seed=9)
        assert rep.summary["C7:unbounded-demonstrated"] == "INFO"
        bounds = [r.estimate for r in rep.rows if r.input.startswith("rigorous-bound")]
        assert bounds[-1] > 100 * bounds[0]
        assert rep.params["eps_grid"] == [0.1, 0.05, 0.01, 0.001, 0.0001]


class TestGeometry:
    def test_selftest(self):
        rep = lab.geometry_selftest(seed=10, samples=200_000, triples=20_000)
        assert rep.summary["C9:geometry"] == "PASS"
        verdicts_ok(rep)
        ratios = [r.estimate for r in rep.rows if "alternative normalization" in r.input]
        assert all(abs(v - 0.5) < 0.01 for v in ratios)

    def test_volume_check(self):
        rep = lab.volume_check(1, samples=300_000, seed=42)
        assert rep.summary["C9:volume"] == "PASS"
        assert rep.rows[0].estimate == pytest.approx(math.pi**2 / 2, rel=5e-3)

    def test_volume_reproducible(self):
        a = lab.volume_check(2, samples=100_000, seed=1)
        b = lab.volume_check(2, samples=100_000, seed=1)
        assert a.rows[0].estimate == b.rows[0].estimate


def test_no_substream_key_is_drawn_twice(monkeypatch):
    """Rows gated as independent must draw from disjoint Philox streams: no
    experiment may key two substreams alike."""
    mask = (1 << 64) - 1
    original = measure.substream
    keys = []

    def recording(seed, *path):
        keys.append((seed & mask, *(p & mask for p in path)))
        return original(seed, *path)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hardylab") and getattr(mod, "substream", None) is original:
            monkeypatch.setattr(mod, "substream", recording)
    runs = {
        "radialization m=1": lambda: lab.radialization_check(3, 2.0, SPEC1, samples=2_000,
                                                             inner_samples=16, seed=1),
        "fuzz m=2": lambda: lab.bound_fuzz(2, 2.0, SPEC2, samples=4_000, seed=1),
        "duality": lambda: lab.duality_check(MonomialWeight((4.0,)), 2.0, SPEC1, pairs=2,
                                             samples=2_000, seed=1),
        "sharpness mc": lambda: lab.sharpness_sweep(2.0, SPEC1, eps_grid=(0.2, 0.1), method="mc",
                                                    samples=4_000, inner_samples=16, seed=1),
        "geometry": lambda: lab.geometry_selftest(seed=1, samples=20_000, triples=1_000),
    }
    for name, run in runs.items():
        keys.clear()
        run()
        repeated = [k for k, c in Counter(keys).items() if c > 1]
        assert keys and not repeated, f"{name}: {len(repeated)} of {len(keys)} keys drawn twice"


TABLE_WEIGHT = {"factors": [{"t": [0, 0.25, 0.5, 1], "values": [0, 0, 0.2, 1]}]}


@pytest.mark.parametrize("argv", [
    "sharpness --method closed --factors 1 --p 2",
    "sharpness --method closed --factors 1 --p 2 --eps 0.9,0.85,0.8",
    "sharpness --method radial --factors 1 --p 3 --eps 0.2,0.1",
    "sharpness --method mc --factors 1 --p 2 --eps 0.2,0.1 --samples 4000 --inner-samples 16",
    "fuzz --factors 1 --p 2 --trials 2 --samples 4000",
    "radialize-check --factors 1 --p 2 --trials 2 --samples 2000 --inner-samples 16",
    "weighted --weight monomial:3 --p 2",
    "weighted --weight one --p 2",
    "cesaro-duality --weight monomial:4 --p 2 --factors 1 --pairs 3 --samples 2000",
    "cesaro-duality --weight table:table.json --p 2 --factors 1 --pairs 3 --samples 2000",
    "geometry-check --samples 20000",
    "volume --n 1 --samples 20000",
])
def test_every_summary_key_comes_from_its_rows(argv, tmp_path, monkeypatch):
    """The row walk: each subcommand's summary is what `_report` derives from
    the report's own rows, every gated row counts toward a listed key, and a
    row that gates nothing reads INFO.  A key assigned by hand, or a verdict
    kept outside the rows, shows up as a difference."""
    from hardylab import cli

    (tmp_path / "table.json").write_text(json.dumps(TABLE_WEIGHT))
    monkeypatch.chdir(tmp_path)
    reports = []
    monkeypatch.setattr(cli, "emit_report", lambda report, *args, **kwargs: reports.append(report))
    code = cli.run(argv.split() + ["--seed", "1"])
    (rep,) = reports
    assert code == (2 if "FAIL" in rep.summary.values() else 0)
    assert rep.summary and ("FAIL" in rep.summary.values()) == ("--eps 0.9" in argv)
    derived = lab._report(rep.experiment, rep.params, rep.rows, rep.seed, keys=tuple(rep.summary))
    assert list(derived.summary.items()) == list(rep.summary.items())
    for r in rep.rows:
        assert r.gate.key in rep.summary if r.gate else r.verdict == "INFO", r.input
