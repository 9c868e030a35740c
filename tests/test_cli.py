"""Driver tests: option merging, deterministic artifacts, exit statuses,
plot extracts, and the documented summary lines."""

import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from limsuplab import cli
from limsuplab import counting as ct
from limsuplab import farey
from limsuplab import functions as fn
from limsuplab import horoballs as hb
from limsuplab import systems as sy
from limsuplab import ubiquity as ub
from oracles import cf_expansion

GOLDEN_CHAIN = ",".join(["1"] * 120)
# every window passes the per-window base cap; the run as a whole would
# count for minutes
HOROBALLS_LONG_RUN = ["horoballs", "--r-hi", "1/67108864", "--factor",
                      "999/1000", "--points", "100"]
# every count passes, but the last radius has a 5842-digit denominator
HOROBALLS_DIGITS_RUN = ["horoballs", "--r-hi", "1e300", "--factor",
                        "999/1000", "--points", "2048"]
NINES = "9" * 3000
# 1 - 10^-1200: a radius window [lam R, R) far thinner than any float
LAM_NEAR_ONE = "%d/%d" % (10 ** 1200 - 1, 10 ** 1200)
UBIQUITY_RUN = ["ubiquity", "--rho", "6 * r^-2", "--k", "6", "--n-lo", "2",
                "--n-hi", "3"]


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def run_env(argv):
    return cli.run(cli.parse_config(argv))


def serial(argv):
    """argv run in one process: schmidt, the one command with --workers,
    gets --workers 1."""
    return argv + ["--workers", "1"] if argv[0] == "schmidt" else argv


class TestSummaries:
    def test_classify_divergent_line(self, tmp_path, capsys):
        code, out, _ = run_main(
            ["classify", "--series", "r^1 * (r^-2)",
             "--output", str(tmp_path / "c.csv")], capsys)
        assert code == 0
        assert out == "Divergent ⇒ Khintchine divergence case: full measure"

    def test_classify_convergent_line(self, tmp_path, capsys):
        code, out, _ = run_main(
            ["classify", "--series", "r^1 * (r^-3)",
             "--output", str(tmp_path / "c.csv")], capsys)
        assert code == 0
        assert out == "Convergent ⇒ Khintchine convergence case: null set"

    @pytest.mark.parametrize("psi,N,tail", [
        ("(1/4) * r^-1", "50", "(N=50)"),           # 2 q psi(q) = 1/2
        ("r^-3", "5", "(N=5; multiplicity condition 2 q psi(q) < 1 "
         "fails at q = 1)"),
        ("(1/1000) * r^2", "20", "(N=20; multiplicity condition "
         "2 q psi(q) < 1 fails at q = 8)"),        # q^3 >= 500 from q = 8
    ])
    def test_schmidt_names_the_multiplicity_condition(self, tmp_path, capsys,
                                                       psi, N, tail):
        code, out, _ = run_main(
            ["schmidt", "--psi", psi, "--N", N, "--samples", "3",
             "--workers", "1", "--output", str(tmp_path / "s.csv")], capsys)
        assert code == 0
        assert out.startswith("mean ratio ") and out.endswith(
            " over 3 samples " + tail)

    def test_classify_gauge_discrimination(self, tmp_path, capsys):
        # same gauge, psi exponent moved from -3(1+0.1)/2 to -3(1+0.2)/2
        gauge = "r^(2/3) * log(1/r)^(1/10)"
        _, diverging, _ = run_main(
            ["classify", "--weight", "1", "--gauge", gauge,
             "--psi", "r^-3 * log(r)^(-33/20)",
             "--output", str(tmp_path / "a.csv")], capsys)
        _, converging, _ = run_main(
            ["classify", "--weight", "1", "--gauge", gauge,
             "--psi", "r^-3 * log(r)^(-9/5)",
             "--output", str(tmp_path / "b.csv")], capsys)
        assert diverging.startswith("Divergent ⇒ Hausdorff divergence")
        assert converging.startswith("Convergent ⇒ Hausdorff convergence")

    @pytest.mark.parametrize("argv,summary", [
        (["--psi", "r^-2", "--gauge", "r^1"],
         "Divergent ⇒ Hausdorff divergence case, G > 0: "
         "H^f(W) = H^f([0,1]) = 1"),
        (["--psi", "r^-1", "--gauge", "r^2"],
         "Divergent ⇒ Hausdorff divergence case, G > 0: "
         "H^f(W) = H^f([0,1]) = 0"),
        (["--psi", "r^-2", "--gauge", "2 * r^1"],
         "Divergent ⇒ Hausdorff divergence case, G > 0: "
         "H^f(W) = H^f([0,1]) = 2"),
        (["--psi", "r^-3", "--gauge", "r^(1/2)"],
         "Divergent ⇒ Hausdorff divergence case, G > 0: "
         "H^f(W) = H^f([0,1]) = ∞"),
        (["--psi", "r^-2 * log(r)^-1", "--gauge", "r^1"],
         "Divergent ⇒ Hausdorff divergence case, G = 0: "
         "H^f(W) = H^f([0,1]) = 1"),
        (["--psi", "r^-3 * log(r)^(-33/20)",
          "--gauge", "r^(2/3) * log(1/r)^(1/10)"],
         "Divergent ⇒ Hausdorff divergence case: H^f(W) = ∞"),
        (["--psi", "r^-3", "--gauge", "r^(3/4)"],
         "Convergent ⇒ Hausdorff convergence case: H^f(W) = 0"),
        (["--psi", "r^-3", "--gauge", "r^(1/2)", "--weight", "2"],
         "Divergent ⇒ no H^f(W) claim: weight 2 is not 1"),
        (["--psi", "log(r)^-2", "--gauge", "r^(1/2)"],
         "Divergent ⇒ no H^f(W) claim: psi is not k-regular"),
        # an exact scale past float range moves no verdict
        (["--psi", "1e999 * r^-3", "--gauge", "r^(1/2)"],
         "Divergent ⇒ Hausdorff divergence case, G > 0: "
         "H^f(W) = H^f([0,1]) = ∞"),
    ])
    def test_classify_hausdorff_lines(self, tmp_path, capsys, argv, summary):
        code, out, _ = run_main(["classify"] + argv + [
            "--output", str(tmp_path / "h.csv")], capsys)
        assert (code, out) == (0, summary)

    @pytest.mark.parametrize("argv,log10_R", [
        (["horoballs", "--r-hi", "1e999", "--points", "1"], 999),
        (["horoballs", "--r-hi", "1e-400", "--points", "1",
          "--lam", LAM_NEAR_ONE], -400),
    ])
    def test_horoball_radius_past_float_range(self, tmp_path, capsys, argv,
                                              log10_R):
        # float(R) overflows, or is 0: log10 R comes from R's integers
        out = tmp_path / "h.csv"
        code, summary, _ = run_main(argv + ["--output", str(out)], capsys)
        assert code == 0
        assert summary.startswith("no horoballs counted over 1 radius")
        row = out.read_text().splitlines()[-1].split(",")
        assert float(row[1]) == pytest.approx(log10_R)

    def test_ubiquity_scale_past_float_range(self, tmp_path, capsys):
        # every query point lies outside [0, 1]: ranked with no float
        code, out, _ = run_main(
            ["ubiquity", "--rho", "1e999 * r^-2", "--k", "2", "--n-lo", "1",
             "--n-hi", "2", "--balls", "2",
             "--output", str(tmp_path / "u.csv")], capsys)
        assert code == 0
        assert out.startswith("empirical kappa = 1 (1) over 2 balls")

    def test_classify_scale_past_float_range(self, tmp_path, capsys):
        code, out, _ = run_main(
            ["classify", "--series", "1e999 * r^-2",
             "--output", str(tmp_path / "c.csv")], capsys)
        assert (code, out) == (
            0, "Convergent ⇒ Khintchine convergence case: null set")

    def test_critical_exponent_fraction(self, tmp_path, capsys):
        code, out, _ = run_main(
            ["critical-exponent", "--psi", "r^-3", "--weight", "1",
             "--output", str(tmp_path / "e.csv")], capsys)
        assert (code, out) == (0, "2/3")

    def test_critical_exponent_log_scale(self, tmp_path, capsys):
        code, out, _ = run_main(
            ["critical-exponent", "--omega", "2", "--ambient", "3",
             "--output", str(tmp_path / "e.csv")], capsys)
        assert (code, out) == (0, "3/2")


    def test_loglaw_without_excursion_prints_positive_zero(self, tmp_path,
                                                           capsys):
        # the one reported excursion toward 1/3 ends near t = 2.2 < e
        code, out, _ = run_main(
            ["loglaw", "--x", "1/3", "--T", "100",
             "--output", str(tmp_path / "l.csv")], capsys)
        assert (code, out) == (0, "log-law statistic 0.000000 at T=100 "
                                  "(alpha=0)")


class TestExitStatuses:
    def test_unknown_command(self, tmp_path, capsys):
        code, _, err = run_main(["frobnicate"], capsys)
        assert code == 1
        assert "invalid choice" in err

    def test_missing_required_option(self, tmp_path, capsys):
        code, _, err = run_main(["schmidt", "--psi", "r^-2"], capsys)
        assert code == 1
        assert "--N" in err

    def test_bad_rational(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["cf", "--x", "1/0", "--output", str(tmp_path / "x.csv")], capsys)
        assert code == 1

    def test_failed_invariant_is_3(self, tmp_path, capsys, monkeypatch):
        # log_critical_exponent cross-checks n/omega against two series
        # verdicts; one that contradicts it raises, also under python -O
        wrong = fn.series_classify(fn.SeriesSpec(0, fn.approximating(power=-1)))
        monkeypatch.setattr(fn, "series_classify", lambda series: wrong)
        code, _, err = run_main(
            ["critical-exponent", "--omega", "2", "--ambient", "3",
             "--output", str(tmp_path / "e.csv")], capsys)
        assert code == 3
        assert err.startswith("internal invariant violated: series verdict")

    @pytest.mark.parametrize("n,q_cap,code,err", [
        # the far-past test on the given cap comes first, then the cap
        # itself, then the stage against it
        (100, 8193, 2, "resource cap: uniform stage 100 needs weights up "
         "to about 2^258, far past the denominator cap 8193"),
        (6, 8193, 1, "error: q cap 8193 above MAX_UNIFORM_Q = 8192; the "
         "cap can only be lowered"),
        (3, 100, 2, "resource cap: uniform stage needs denominators up to "
         "216 (cap 100)"),
    ])
    def test_uniform_stage_cap_order(self, tmp_path, capsys, n, q_cap, code,
                                     err):
        got = run_main(["ubiquity", "--rho", "6 * r^-2", "--k", "6",
                        "--n-lo", str(n), "--n-hi", str(n), "--q-cap",
                        str(q_cap), "--output", str(tmp_path / "u.csv")],
                       capsys)
        assert got == (code, "", err)

    def test_resource_cap_is_2(self, tmp_path, capsys):
        code, _, err = run_main(
            ["excursions", "--x", "1/2", "--T", "5", "--step", "1e-9",
             "--output", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "cap" in err

    def test_sample_count_past_float_range_is_2(self, tmp_path, capsys):
        # T / step is inf here; counting the samples used to raise
        # OverflowError
        code, _, err = run_main(
            ["excursions", "--x", "0.3", "--T", "1e308", "--step", "1e-3",
             "--output", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert err.startswith("resource cap:") and "cap" in err

    def test_stage_beyond_sieve_cap_is_2(self, tmp_path, capsys,
                                         monkeypatch):
        # stage 31 spans q <= 2^31; the scan must refuse it up front, so
        # building its plan here would be the defect (and a 16 GB array)
        def no_plan(*args):
            raise AssertionError("stage plan built past the sieve cap")
        monkeypatch.setattr(sy, "_stage_ball_plan", no_plan)
        code, _, err = run_main(
            ["stage-scan", "--psi", "r^-3", "--k", "2", "--n-lo", "31",
             "--n-hi", "31", "--subset-cap", "0",
             "--output", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert err.startswith("resource cap:") and "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_horoballs_beyond_count_cap_is_2(self, tmp_path, capsys,
                                             monkeypatch):
        # the 30th radius, 2^-32, bounds 3.2e9 candidate bases; the run
        # must refuse it before counting any radius
        def no_count(*args):
            raise AssertionError("bases counted past the cap")
        monkeypatch.setattr(hb, "_base_range", no_count)
        code, _, err = run_main(
            ["horoballs", "--points", "30",
             "--output", str(tmp_path / "h.csv")], capsys)
        assert code == 2
        assert err.startswith("resource cap:") and "Traceback" not in err
        assert not (tmp_path / "h.csv").exists()

    def test_horoballs_run_beyond_total_cap_is_2(self, tmp_path, capsys,
                                                 monkeypatch):
        # each of the 100 windows near R = 2^-26 passes the per-window
        # cap, but together they bound ~5e9 bases: refused before the
        # first count
        def no_count(*args):
            raise AssertionError("horoballs counted past the run cap")
        monkeypatch.setattr(hb, "count_horoballs", no_count)
        code, _, err = run_main(HOROBALLS_LONG_RUN + [
            "--output", str(tmp_path / "h.csv")], capsys)
        assert code == 2
        assert err.startswith("resource cap:") and "Traceback" not in err
        assert not (tmp_path / "h.csv").exists()

    @pytest.mark.parametrize("argv", [
        HOROBALLS_DIGITS_RUN,
        # a factor of 300 decimal nines: each radius grows by 997 bits
        ["horoballs", "--factor", "0." + "9" * 300, "--points", "20"],
    ])
    def test_horoballs_radii_past_print_limit_are_2(self, tmp_path, capsys,
                                                    monkeypatch, argv):
        # refused in O(1), before any radius is formed or counted
        def no_count(*args):
            raise AssertionError("horoballs counted past the digit limit")
        monkeypatch.setattr(hb, "count_horoballs", no_count)
        code, _, err = run_main(argv + ["--output", str(tmp_path / "h.csv")],
                                capsys)
        assert code == 2
        assert err.startswith("resource cap:") and "\n" not in err
        assert not (tmp_path / "h.csv").exists()

    def test_horoballs_denominator_past_int64_is_counted(self, tmp_path,
                                                        capsys):
        # one window near q = 2^100, counted on Python ints by enumeration
        # (its Mertens table would be far longer than its bases)
        argv = ["horoballs", "--r-hi", "1e-60", "--lam",
                "0.99999999999999999999999999", "--points", "1", "--base",
                "0,1e-40", "--output", str(tmp_path / "h.csv")]
        code, _, err = run_main(argv, capsys)
        assert code == 0, err
        (row,) = run_env(argv).rows
        q_min, q_max = row["q_min"], row["q_max"]
        assert q_max.bit_length() == 100 and q_max - q_min > 1000
        b_hi = Fraction(1, 10 ** 40)
        want = sum(math.gcd(p, q) == 1 for q in range(q_min, q_max + 1)
                   for p in range(0, math.ceil(q * b_hi)))
        assert row["count"] == want

    @pytest.mark.parametrize("argv", [
        # k^n = 10^5000: past 4300 digits, so neither formed nor printed
        ["ubiquity", "--rho", "r^-2", "--k", "100000", "--n-lo", "1000",
         "--n-hi", "1000"],
        ["stage-scan", "--psi", "r^-2", "--k", "100000", "--n-lo", "1",
         "--n-hi", "1000"],
        # a 10^9-stage range: no stage list either
        ["ubiquity", "--rho", "r^-2", "--k", "2", "--n-lo", "1",
         "--n-hi", "1000000000"],
    ])
    def test_stage_range_refused_before_forming_k_power(self, tmp_path,
                                                        capsys, monkeypatch,
                                                        argv):
        # q_interval is the first reader of k^n
        def no_power(*args):
            raise AssertionError("k^n formed past the cap")
        monkeypatch.setattr(sy.ResonantSystem, "q_interval", no_power)
        code, _, err = run_main(argv + ["--output", str(tmp_path / "k.csv")],
                                capsys)
        assert code == 2
        assert err.startswith("resource cap:") and "\n" not in err
        assert not (tmp_path / "k.csv").exists()

    @pytest.mark.parametrize("argv,owner,work", [
        (["ubiquity", "--rho", "6 * r^-2", "--k", "6", "--n-lo", "2",
          "--n-hi", "3", "--balls", str(ub.MAX_BALLS + 1)],
         ub.random, "Random"),
        (["schmidt", "--psi", "(1/4) * r^-1", "--N", "1000", "--samples",
          str(ct.MAX_SAMPLES + 1), "--workers", "1"],
         ct, "schmidt_prediction"),
    ])
    def test_sample_count_beyond_cap_is_2(self, tmp_path, capsys,
                                          monkeypatch, argv, owner, work):
        # refused before the first ball or sample job is built
        def no_work(*args):
            raise AssertionError("work started past the cap")
        monkeypatch.setattr(owner, work, no_work)
        code, _, err = run_main(argv + ["--output", str(tmp_path / "c.csv")],
                                capsys)
        assert code == 2
        assert err.startswith("resource cap:") and "Traceback" not in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("argv,code", [
        (["disjointness", "--q-max", str(hb.MAX_DISJOINTNESS_Q + 1)], 2),
        (["disjointness", "--q-max", "100",
          "--identity-q-max", str(hb.MAX_IDENTITY_Q + 1)], 2),
        # --q-cap may only lower the engine's cap: F_46656 is refused
        (["ubiquity", "--rho", "6 * r^-2", "--k", "6", "--n-lo", "6",
          "--n-hi", "6", "--q-cap", str(ub.MAX_UNIFORM_Q + 1)], 1),
        (["ubiquity", "--rho", "6 * r^-2", "--k", "6", "--n-lo", "1",
          "--n-hi", "6"], 2),  # the largest stage is built first
        (["cf", "--x", "1e-99999"], 1),  # would build a 10^5-digit int
        (["schmidt", "--psi", "(1/4) * r^-1", "--N", str(ct.MAX_N + 1)], 2),
        (["schmidt", "--psi", "r^-2", "--N", "9", "--seed", "-1"], 1),
        (["horoballs", "--points", "200000"], 2),  # took 85 s and 2.6 GB
        (["horoballs", "--points", str(hb.MAX_POINTS + 1),
          "--r-hi", "1e300"], 2),
        # one radius window past MAX_COUNT_BASES
        (["horoballs", "--lam", "1/1000000000", "--points", "1"], 2),
        # an input whose float image is out of range
        (["stage-scan", "--psi", "1e999 * r^-2", "--k", "2", "--n-lo", "1",
          "--n-hi", "2"], 2),
        # k^n = 10^5000 would end in an int-to-str ValueError
        (["ubiquity", "--rho", "r^-2", "--k", "100000", "--n-lo", "1000",
          "--n-hi", "1000"], 2),
        (["stage-scan", "--psi", "r^-2", "--k", "100000", "--n-lo", "1",
          "--n-hi", "1000"], 2),
        (["ubiquity", "--rho", "6 * r^-2", "--k", "6", "--n-lo", "2",
          "--n-hi", "3", "--balls", str(ub.MAX_BALLS + 1)], 2),
        (["schmidt", "--psi", "r^-2", "--N", "1",
          "--samples", str(ct.MAX_SAMPLES + 1)], 2),
        # each single fault of a ubiquity run, refused by the layer that
        # owns its check
        (UBIQUITY_RUN + ["--balls", "0"], 1),
        (UBIQUITY_RUN + ["--min-measure", "0"], 1),
        (UBIQUITY_RUN + ["--n-lo", "0"], 1),
        (UBIQUITY_RUN + ["--n-lo", "3", "--n-hi", "2"], 1),
        (UBIQUITY_RUN + ["--q-cap", str(ub.MAX_UNIFORM_Q + 1)], 1),
        (UBIQUITY_RUN + ["--k", "100000", "--n-lo", "1", "--n-hi", "1000"],
         2),
        # a radius law rho that does not tend to 0
        (["ubiquity", "--rho", "6 * r^2", "--k", "6", "--n-lo", "2",
          "--n-hi", "2"], 1),
    ])
    def test_refused_before_allocating(self, tmp_path, capsys, monkeypatch,
                                       argv, code):
        # both engine builders: the engine itself still runs, and
        # _uniform_q_max refuses a q cap above MAX_UNIFORM_Q and a stage
        # past the cap before it
        def no_build(*args):
            raise AssertionError("uniform stage built past a cap")
        monkeypatch.setattr(ub, "_lattice_blocks", no_build)
        monkeypatch.setattr(ub, "_farey_blocks", no_build)
        if argv[0] == "schmidt":
            # no counting arrays either: a refused schmidt run must not
            # even import numpy
            monkeypatch.setitem(sys.modules, "numpy", None)
        got, _, err = run_main(serial(argv) + ["--output",
                                               str(tmp_path / "r.csv")],
                               capsys)
        assert got == code and "Traceback" not in err
        assert err.startswith("resource cap:" if code == 2 else "error:")

    @pytest.mark.parametrize("argv", [
        ["classify", "--series", "r^(1/0)"],
        ["classify", "--series", "log(r)^(1/0) * r^-2"],
        ["classify", "--series", "exp(-r^(1/0))"],
        ["stage-scan", "--psi", "r^(-1/0)", "--k", "2", "--n-lo", "1",
         "--n-hi", "2"],
        ["classify", "--series", "r^-" + "9" * 5000],
        # forming 10^(10^7) takes seconds: refused from its exponent
        ["classify", "--series", "1e10000000 * r^-2"],
        ["classify", "--series", "1e100000000 * r^-2"],
        ["cf", "--x", "1e1_000_000"],
        ["horoballs", "--base", "1e10000000,1"],
        # exact values past the bounds, which would not print
        ["critical-exponent", "--psi", "r^(-1/%s)" % NINES,
         "--weight", NINES],
        ["critical-exponent", "--omega", "1/2", "--ambient", "9" * 4000],
        ["classify", "--psi", "r^-2", "--gauge",
         "1e999 * 1e999 * 1e999 * 1e999 * 1e999 * r^1"],
        ["classify", "--psi", "r^-" + NINES, "--gauge", "r^" + NINES],
        ["cf", "--x", "1" * 5000],
        ["cf", "--x", "1/" + "3" * 5000],
        ["schmidt", "--psi", "r^-2", "--N", "1" * 5000, "--samples", "1"],
        ["classify", "--series", "2" * 5000 + " * r^-2"],
    ])
    def test_unreadable_numbers_are_1_at_once(self, tmp_path, capsys, argv):
        started = time.perf_counter()
        code, _, err = run_main(argv + ["--output", str(tmp_path / "u.csv")],
                                capsys)
        assert time.perf_counter() - started < 1.0
        assert code == 1 and err.startswith("error:"), err[:200]
        # a huge token is echoed abbreviated: one short line
        assert "\n" not in err and len(err) < 300, err
        # Python's int-limit advice is no use to a CLI user
        assert "set_int_max_str_digits" not in err
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["stage-scan", "--psi", "1e999 * r^-2", "--k", "2", "--n-lo", "1",
         "--n-hi", "2"],
        ["schmidt", "--psi", "1e999 * r^-2", "--N", "10", "--samples", "2"],
    ])
    def test_float_consumers_name_the_field(self, tmp_path, capsys, argv):
        code, _, err = run_main(serial(argv) + ["--output",
                                                str(tmp_path / "f.csv")],
                                capsys)
        assert code == 2
        assert err.startswith("resource cap: scale of '1000")
        assert err.endswith("(1007 characters) has no float image")

    def test_exact_bounds_at_their_edges(self, tmp_path, capsys):
        # every field at MAX_EXACT_BITS: the reduced exponent alpha a + u,
        # the largest value classify prints, has three times the bits
        h = 2 ** fn.MAX_EXACT_BITS
        a, al, u = (-Fraction(h - 1, h - 3), Fraction(h - 5, h - 7),
                    Fraction(h - 9, h - 11))
        out = tmp_path / "b.jsonl"
        argv = ["classify", "--psi", "r^(%s)" % a, "--gauge", "r^(%s)" % al,
                "--weight", str(u), "--format", "jsonl", "--output", str(out)]
        code, _, _ = run_main(argv, capsys)
        assert code == 0
        row = json.loads(out.read_text().splitlines()[1])
        A = Fraction(row["reduced_A"])
        assert A == al * a + u
        assert 3 * fn.MAX_EXACT_BITS - 2 <= fn.height_bits(A) \
            <= fn.MAX_PRINT_BITS
        # one bit more in one field is refused
        argv[2] = "r^(%s)" % Fraction(1 - 2 * h, h - 1)
        code, _, err = run_main(argv, capsys)
        assert code == 1
        assert "past the %d-bit bound" % fn.MAX_EXACT_BITS in err
        # a rational option prints back up to MAX_PRINT_BITS
        top = 2 ** fn.MAX_PRINT_BITS - 1
        code, out_line, _ = run_main(
            ["cf", "--x", "1/%d" % top, "--output", str(tmp_path / "c.csv")],
            capsys)
        assert (code, out_line) == (0, "quotients [%d] (terminated)" % top)
        code, _, err = run_main(
            ["cf", "--x", "1/%d" % (top + 1),
             "--output", str(tmp_path / "c.csv")], capsys)
        assert code == 1
        assert "past the %d-bit bound" % fn.MAX_PRINT_BITS in err

    @pytest.mark.parametrize("option,cap", [
        ("--full-cap", sy.FULL_SWEEP_CAP),
        ("--subset-cap", sy.SUBSET_SWEEP_CAP),
    ])
    def test_stage_scan_caps_can_only_be_lowered(self, tmp_path, capsys,
                                                 monkeypatch, option, cap):
        def no_sieve(*args):
            raise AssertionError("sieved past a refused cap")
        # the totient pass also fills the sweeps' strip table
        monkeypatch.setattr(farey, "totient_sieve", no_sieve)
        monkeypatch.setattr(farey, "smallest_prime_factors", no_sieve)
        code, _, err = run_main(
            ["stage-scan", "--psi", "r^-2", "--k", "2", "--n-lo", "1",
             "--n-hi", "20", option, str(cap + 1),
             "--output", str(tmp_path / "s.csv")], capsys)
        assert code == 1
        assert err.startswith("error:") and "can only be lowered" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("argv,err", [
        (["stage-scan", "--psi", "r^-2", "--k", "2", "--n-lo", "1",
          "--n-hi", "2", "--full-cap", "-1"], "full sweep cap -1 below 0"),
        # past 64 bits a cap is named by its signed bit length
        (["stage-scan", "--psi", "r^-2", "--k", "2", "--n-lo", "1",
          "--n-hi", "2", "--full-cap", str(-10 ** 30)],
         "full sweep cap -~2^100 below 0"),
        (["stage-scan", "--psi", "r^-2", "--k", "2", "--n-lo", "1",
          "--n-hi", "2", "--subset-cap", "-5"],
         "subset sweep cap -5 below 0"),
        (["ubiquity", "--rho", "r^-2", "--k", "2", "--n-lo", "1",
          "--n-hi", "2", "--q-cap", "-3"], "q cap -3 below 0"),
    ])
    def test_negative_cap_is_1(self, tmp_path, capsys, argv, err):
        out = tmp_path / "n.csv"
        got = run_main(argv + ["--output", str(out)], capsys)
        assert got == (1, "", "error: " + err)
        assert not out.exists()
        # a cap of 0 is a cap: it truncates every stage or refuses the
        # uniform stage past it
        code, _, _ = run_main(argv[:-1] + ["0", "--output", str(out)],
                              capsys)
        assert code == (2 if argv[0] == "ubiquity" else 0)

    def test_precision_exhausted_is_2(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["loglaw", "--quotients", "1,1,1,1,1", "--T", "100",
             "--output", str(tmp_path / "x.csv")], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv,index", [
        (["excursions", "--x", "5e-324", "--T", "10"], "a_1"),
        (["loglaw", "--x", "1e-310", "--T", "100"], "a_1"),
        (["loglaw", "--quotients", "1,%d,1" % 10 ** 400, "--T", "10"], "a_2"),
    ])
    def test_quotient_beyond_float_range_is_2(self, tmp_path, capsys, argv,
                                              index):
        code, _, err = run_main(
            argv + ["--output", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "partial quotient %s " % index in err
        assert not (tmp_path / "x.csv").exists()

    def test_exclusive_direction_flags(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["loglaw", "--x", "1/3", "--quotients", "1,2", "--T", "10",
             "--output", str(tmp_path / "x.csv")], capsys)
        assert code == 1

    def test_step_requires_x(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["excursions", "--quotients", GOLDEN_CHAIN, "--T", "5",
             "--step", "0.01", "--output", str(tmp_path / "x.csv")], capsys)
        assert code == 1


class TestConfigMerging:
    def test_file_values_and_flag_override(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[common]\nseed = 9\nformat = jsonl\n"
                       "[schmidt]\npsi = (1/4) * r^-1\nN = 3000\n"
                       "samples = 6\n")
        out_file = tmp_path / "s.jsonl"
        code, _, _ = run_main(
            ["schmidt", "--config", str(ini), "--samples", "4",
             "--output", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().splitlines()
        meta = json.loads(lines[0])["meta"]
        assert meta["config"]["options"]["N"] == "3000"       # from file
        assert meta["config"]["options"]["samples"] == "4"    # flag wins
        assert meta["config"]["options"]["seed"] == "9"
        assert len(lines) == 1 + 4

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["cf", "--x", "1/3", "--config", str(tmp_path / "nope.ini")],
            capsys)
        assert code == 1

    @pytest.mark.parametrize("text", [
        b"[common]\nseed = 1\n[common]\nseed = 2\n",
        b"seed = 1\n",
        b"[schmidt]\npsi = (1/4) * r^-1 %\nN = 100\n",
        b"[common]\nseed = \xff\n",
        b"[schmidt]\npsi = (1/4) * r^-1\nN = 100\nsampels = 5\n",
        b"[common]\nsede = 4\n[schmidt]\npsi = (1/4) * r^-1\nN = 100\n",
    ], ids=["duplicate-section", "no-section-header", "percent",
            "not-utf8", "misspelt-key", "misspelt-common-key"])
    def test_unreadable_or_misspelt_config_is_usage_error(self, text,
                                                          tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_bytes(text)
        out_file = tmp_path / "s.csv"
        code, _, err = run_main(["schmidt", "--config", str(ini),
                                 "--output", str(out_file)], capsys)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert "\n" not in err
        assert not out_file.exists()

    def test_only_schmidt_takes_workers(self, tmp_path, capsys):
        # [common] may hold workers for schmidt; cf takes it nowhere else
        out = str(tmp_path / "w.csv")
        ini = tmp_path / "run.ini"
        for text, code in (("[common]\nworkers = 1\n", 0),
                           ("[cf]\nworkers = 1\n", 1)):
            ini.write_text(text)
            got, _, err = run_main(["cf", "--x", "1/3", "--config", str(ini),
                                    "--output", out], capsys)
            assert got == code, err
        got, _, err = run_main(["cf", "--x", "1/3", "--workers", "1",
                                "--output", out], capsys)
        assert got == 1 and err.startswith("error:")
        ini.write_text("[common]\nworkers = 1\n[schmidt]\npsi = r^-2\n"
                       "N = 100\nsamples = 2\n")
        got, _, _ = run_main(["schmidt", "--config", str(ini), "--output",
                              out], capsys)
        assert got == 0
        assert "workers=1" in (tmp_path / "w.csv").read_text()

    def test_config_values_verbatim_other_commands_keys_skipped(
            self, tmp_path, capsys):
        # psi belongs to other commands, so [common] may hold it for them
        out_file = tmp_path / "c%%.csv"
        ini = tmp_path / "run.ini"
        ini.write_text("[common]\npsi = r^-2\noutput = %s\n[cf]\nx = 1/3\n"
                       % out_file)
        code, _, _ = run_main(["cf", "--config", str(ini)], capsys)
        assert code == 0
        assert out_file.exists()


# runs numpy-free commands in a fresh interpreter, then names every
# module of the contract that got loaded
IMPORT_PROBE = """
import sys
from limsuplab import cli
argvs, refused, out = %r, %r, %r
for argv in argvs:
    assert cli.main(argv + ["--output", out]) == 0, argv
for argv, code in refused:
    assert cli.main(argv + ["--output", out]) == code, argv
print("loaded:", *(m for m in ("numpy", "concurrent.futures")
                   if m in sys.modules))
"""

LEAN_PROBE = """
import sys
from limsuplab import cli
lazy = ("configparser", "csv", "dataclasses", "json", "limsuplab.functions",
        "numpy")
def loaded(stage):
    print("after", stage + ":", *(m for m in lazy if m in sys.modules))
loaded("import")
csv_runs, config, out = %r, %r, %r
for argv in csv_runs:
    assert cli.main(argv + ["--output", out + ".csv"]) == 0, argv
loaded("csv")
assert cli.main(["cf", "--x", "1/3", "--format", "jsonl",
                 "--output", out + ".jsonl"]) == 0
loaded("jsonl")
assert cli.main(["cf", "--x", "1/3", "--config", config,
                 "--output", out + ".csv"]) == 0
loaded("config")
"""

# after each run, names the modules it must not have loaded
RECORD_PROBE = """
import sys
from limsuplab import cli
free, numeric, out = %r, %r, %r
for argvs, unwanted in ((free, ("dataclasses", "inspect")),
                        (numeric, ("dataclasses",))):
    for argv in argvs:
        assert cli.main(argv + ["--output", out]) == 0, argv
        print("loaded by", argv[0] + ":",
              *(m for m in unwanted if m in sys.modules))
"""


def run_probe(probe):
    """Run `probe` in a fresh interpreter on this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


class TestImportOnUse:
    def test_symbolic_and_exact_cf_commands_load_no_numpy(self, tmp_path):
        argvs = [["classify", "--series", "r^1 * (r^-2)"],
                 ["classify", "--psi", "r^-3 * log(r)^(-33/20)",
                  "--gauge", "r^(2/3) * log(1/r)^(1/10)"],
                 ["classify", "--psi", "r^-2", "--gauge", "r^1"],
                 ["critical-exponent", "--psi", "r^-3", "--weight", "1"],
                 ["cf", "--x", "37/100"],
                 ["excursions", "--x", "37/100", "--T", "25"],
                 ["excursions", "--quotients", GOLDEN_CHAIN, "--T", "40"],
                 ["loglaw", "--x", "37/100", "--T", "25"],
                 ["loglaw", "--quotients", GOLDEN_CHAIN, "--T", "40"],
                 ["horoballs", "--points", "13"],
                 ["disjointness", "--q-max", "256"]]
        # a refused run loads nothing it would only need to count or
        # build: a usage error (1) and a stage past the q cap (2)
        refused = [(["schmidt", "--psi", "(1/4) * r^-1", "--N", "0"], 1),
                   (["ubiquity", "--rho", "6 * r^-2", "--k", "6",
                     "--n-lo", "6", "--n-hi", "6"], 2)]
        done = run_probe(IMPORT_PROBE % (argvs, refused,
                                         str(tmp_path / "o.csv")))
        assert done.stdout.splitlines()[-1] == "loaded:"

    def test_commands_load_only_their_layers(self, tmp_path):
        # importing the CLI loads none of these, numpy included; csv runs
        # of the commands that parse no function load csv alone; jsonl
        # output brings json, --config brings configparser
        config = tmp_path / "c.ini"
        config.write_text("[cf]\ndepth = 5\n")
        csv_runs = [["cf", "--x", "37/100"],
                    ["excursions", "--quotients", GOLDEN_CHAIN, "--T", "40"],
                    ["loglaw", "--x", "37/100", "--T", "25"],
                    ["horoballs", "--points", "13", "--base", "0,1/2"],
                    ["disjointness", "--q-max", "64"]]
        done = run_probe(LEAN_PROBE % (csv_runs, str(config),
                                       str(tmp_path / "o")))
        assert [ln for ln in done.stdout.splitlines()
                if ln.startswith("after ")] == [
            "after import:", "after csv: csv",
            "after jsonl: csv json",
            "after config: configparser csv json"]

    def test_no_command_loads_dataclasses(self, tmp_path):
        # every subcommand at README sizes, the numpy-free ones first:
        # numpy itself loads inspect
        free = [["classify", "--series", "r^1 * (r^-2)"],
                ["classify", "--psi", "r^-2", "--gauge", "r^1"],
                ["critical-exponent", "--psi", "r^-3", "--weight", "1"],
                ["cf", "--x", "37/100"],
                ["excursions", "--x", "37/100", "--T", "25"],
                ["loglaw", "--x", "37/100", "--T", "25"],
                ["horoballs"],
                ["disjointness", "--q-max", "100"]]
        numeric = [["stage-scan", "--psi", "r^-3", "--k", "2", "--n-lo", "1",
                    "--n-hi", "10"],
                   ["ubiquity", "--rho", "6 * r^-2", "--k", "6", "--n-lo",
                    "3", "--n-hi", "4"],
                   ["schmidt", "--psi", "(1/4) * r^-1", "--N", "100000",
                    "--samples", "200", "--workers", "1"],
                   ["excursions", "--x", "37/100", "--T", "10", "--step",
                    "0.001"]]
        done = run_probe(RECORD_PROBE % (free, numeric,
                                         str(tmp_path / "o.csv")))
        assert [ln for ln in done.stdout.splitlines()
                if ln.startswith("loaded by ")] == [
            "loaded by %s:" % argv[0] for argv in free + numeric]

    def test_cap_defaults_pinned_to_their_layers(self):
        assert cli._FULL_SWEEP_CAP == str(sy.FULL_SWEEP_CAP)
        assert cli._SUBSET_SWEEP_CAP == str(sy.SUBSET_SWEEP_CAP)
        assert cli._MAX_UNIFORM_Q == str(ub.MAX_UNIFORM_Q)

    @pytest.mark.parametrize("argv,echo", [
        (["stage-scan", "--psi", "r^-3", "--k", "2", "--n-lo", "1",
          "--n-hi", "3"], ("full_cap=32000000", "subset_cap=64000000")),
        (["ubiquity", "--rho", "6 * r^-2", "--k", "6", "--n-lo", "1",
          "--n-hi", "2", "--balls", "2"], ("q_cap=8192",)),
    ])
    def test_artifacts_echo_cap_defaults(self, tmp_path, capsys, argv, echo):
        out = tmp_path / "a.csv"
        code, _, _ = run_main(argv + ["--output", str(out)], capsys)
        assert code == 0
        config = out.read_text().splitlines()[1].split()
        for item in echo:
            assert item in config


# every cap of the package, module by module, at its literal value: a
# check that reads a cap reads whatever value it holds, so only this
# table notices a changed one
CAP_VALUES = {
    "cli": {"_FULL_SWEEP_CAP": "32000000", "_SUBSET_SWEEP_CAP": "64000000"},
    "counting": {"MAX_N": 1000000, "MAX_SAMPLES": 2000},
    "errors": {"MAX_PRINT_BITS": 14284},
    "farey": {"MAX_SIEVE": 100000000},
    "functions": {"MAX_EXACT_BITS": 3571},
    "geodesics": {"_REDUCE_CAP": 100000, "MAX_SAMPLES": 2000000,
                  "_BACKOFF_CAP": 64},
    "horoballs": {"MAX_COUNT_BASES": 64000000, "MAX_MERTENS_TABLE": 4194304,
                  "MAX_POINTS": 2048, "MAX_DISJOINTNESS_Q": 256,
                  "MAX_IDENTITY_Q": 40},
    "systems": {"FULL_SWEEP_CAP": 32000000, "SUBSET_SWEEP_CAP": 64000000,
                "MAX_STAGE_BYTES": 2147483648, "MAX_WEIGHT_BITS": 1048576},
    "ubiquity": {"MAX_UNIFORM_Q": 8192, "MAX_BALLS": 1000},
}


class TestCapValues:
    def test_every_cap_at_its_value(self):
        # a cap is a module-level MAX_* or *_CAP assignment
        package = os.path.dirname(os.path.abspath(cli.__file__))
        found = {}
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name)) as f:
                    caps = [m.group(1) for m in map(
                        re.compile(r"(MAX_\w+|\w*_CAP) = ").match, f)
                        if m]
                if caps:
                    found[name[:-3]] = caps
        assert found == {mod: list(caps) for mod, caps in CAP_VALUES.items()}
        for mod, caps in CAP_VALUES.items():
            module = importlib.import_module("limsuplab." + mod)
            for name, value in caps.items():
                assert getattr(module, name) == value, (mod, name)

    @pytest.mark.parametrize("argv,at", [
        (["schmidt", "--psi", "(1/4) * r^-1", "--N", None, "--samples", "1",
          "--workers", "1"], ct.MAX_N),
        (["schmidt", "--psi", "r^-2", "--N", "1", "--samples", None,
          "--workers", "1"], ct.MAX_SAMPLES),
        # windows from 2^2325 down by halves stay far above any horoball
        (["horoballs", "--r-hi", "1e700", "--factor", "1/2", "--points",
          None], hb.MAX_POINTS),
    ])
    def test_at_the_cap_accepted(self, tmp_path, capsys, argv, at):
        out = tmp_path / "a.csv"
        for value, code in ((at, 0), (at + 1, 2)):
            run = [str(value) if a is None else a for a in argv]
            got, _, err = run_main(run + ["--output", str(out)], capsys)
            assert got == code, err
        assert "(cap %d)" % at in err


class TestArtifacts:
    def test_payload_byte_reproducible_csv(self, tmp_path, capsys):
        argv = ["cf", "--x", "16/113", "--output", str(tmp_path / "r.csv")]
        run_main(argv, capsys)
        first = (tmp_path / "r.csv").read_bytes()
        run_main(argv, capsys)
        second = (tmp_path / "r.csv").read_bytes()
        strip = lambda b: [ln for ln in b.splitlines()
                           if not ln.startswith(b"# wall_clock_s")]
        assert strip(first) == strip(second)

    def test_payload_byte_reproducible_jsonl(self, tmp_path, capsys):
        argv = ["horoballs", "--points", "5", "--format", "jsonl",
                "--output", str(tmp_path / "h.jsonl")]
        run_main(argv, capsys)
        first = (tmp_path / "h.jsonl").read_text().splitlines()
        run_main(argv, capsys)
        second = (tmp_path / "h.jsonl").read_text().splitlines()
        assert first[1:] == second[1:]
        m1, m2 = (json.loads(ln)["meta"] for ln in (first[0], second[0]))
        m1.pop("wall_clock_s"), m2.pop("wall_clock_s")
        assert m1 == m2

    def test_workers_do_not_change_payload(self, tmp_path, monkeypatch):
        # a lowered _POOL_MIN_WORK lets this small run start the pool
        monkeypatch.setattr(ct, "_POOL_MIN_WORK", 1)
        base = ["schmidt", "--psi", "(1/4) * r^-1", "--N", "3000",
                "--samples", "6", "--seed", "9",
                "--output", str(tmp_path / "w.csv")]
        serial = run_env(base + ["--workers", "1"])
        fanned = run_env(base + ["--workers", "2"])
        assert serial.rows == fanned.rows
        assert serial.summary == fanned.summary

    def test_env_var_names_default_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code, _, _ = run_main(["cf", "--x", "1/3"], capsys)
        assert code == 0
        assert (tmp_path / "cf.csv").exists()

    def test_no_temp_files_left_behind(self, tmp_path, capsys):
        run_main(["cf", "--x", "1/3", "--output", str(tmp_path / "c.csv")],
                 capsys)
        leftovers = [p for p in os.listdir(tmp_path)
                     if p.startswith(".limsuplab-")]
        assert leftovers == []

    def test_csv_header_has_config_echo(self, tmp_path, capsys):
        run_main(["disjointness", "--q-max", "30",
                  "--output", str(tmp_path / "d.csv")], capsys)
        head = (tmp_path / "d.csv").read_text().splitlines()[:4]
        assert head[0].startswith("# limsuplab ")
        assert "command=disjointness" in head[1] and "q_max=30" in head[1]
        assert head[2].startswith("# wall_clock_s:")
        assert head[3].startswith("# summary: all 279 horoball interiors")


class TestRows:
    def test_cf_rows_align_quotients_convergents(self, tmp_path):
        env = run_env(["cf", "--x", "16/113",
                       "--output", str(tmp_path / "c.csv")])
        assert [(r["n"], r["a"], r["p"], r["q"]) for r in env.rows] == \
            [(1, 7, 1, 7), (2, 16, 16, 113)]
        assert env.rows[-1]["error"] == 0.0
        assert env.summary == "quotients [7, 16] (terminated)"
        # a deep input: a quadratic row loop took seconds here
        rnd = random.Random(8192)
        den = rnd.getrandbits(8192) | 1 << 8191
        x = Fraction(rnd.randrange(1, den), den)
        env = run_env(["cf", "--x", str(x), "--depth", "4000",
                       "--output", str(tmp_path / "d.csv")])
        quots, p, q, _ = cf_expansion(x, 4000)
        assert [(r["n"], r["a"], r["p"], r["q"]) for r in env.rows] == \
            list(zip(range(1, len(quots) + 1), quots, p[1:], q[1:]))

    def test_stage_scan_partial_sum_accumulates(self, tmp_path):
        env = run_env(["stage-scan", "--psi", "r^-3", "--k", "2",
                       "--n-lo", "1", "--n-hi", "6",
                       "--output", str(tmp_path / "s.csv")])
        partial = 0.0
        for row in env.rows:
            partial += row["measure"]
            assert row["partial_sum"] == pytest.approx(partial)
            assert row["lower"] <= row["measure"] <= row["upper"]
            assert not row["truncated"]

    def test_stage_scan_truncated_stages_leave_measure_blank(self, tmp_path,
                                                            capsys):
        out = tmp_path / "t.csv"
        code, summary, err = run_main(
            ["stage-scan", "--psi", "r^-3", "--k", "2", "--n-lo", "14",
             "--n-hi", "15", "--subset-cap", "0", "--output", str(out)],
            capsys)
        assert (code, err) == (0, "")
        assert summary.endswith("(2 truncated stages)")
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if not ln.startswith("#")]
        header = rows[0]
        body = [dict(zip(header, row)) for row in rows[1:]]
        assert [r["n"] for r in body] == ["14", "15"]
        for r in body:
            assert r["method"] == "per-q-upper" and r["truncated"] == "true"
            assert r["measure"] == "" and r["partial_sum"] == "0.0"

    def test_ubiquity_ratios_exact_and_high(self, tmp_path):
        env = run_env(["ubiquity", "--rho", "6 * r^-2", "--k", "6",
                       "--n-lo", "2", "--n-hi", "3", "--balls", "3",
                       "--seed", "11", "--output", str(tmp_path / "u.csv")])
        assert len(env.rows) == 6
        for row in env.rows:
            exact = Fraction(row["ratio_exact"])
            assert exact >= Fraction(1, 2)
            assert row["ratio"] == pytest.approx(float(exact))

    def test_horoball_band_is_flat(self, tmp_path):
        env = run_env(["horoballs", "--output", str(tmp_path / "h.csv")])
        ratios = [r["ratio"] for r in env.rows]
        assert len(ratios) == 13
        assert max(ratios) / min(ratios) < 2

    def test_horoball_window_shifted_by_an_integer(self, tmp_path):
        # gcd(p + kq, q) = gcd(p, q): bases past int64 count alike
        big = 10 ** 30
        env = run_env(["horoballs", "--points", "13", "--base",
                       "%d,%d" % (big, big + 1),
                       "--output", str(tmp_path / "s.csv")])
        ref = run_env(["horoballs", "--points", "13",
                       "--output", str(tmp_path / "h.csv")])
        assert env.rows == ref.rows

    def test_excursions_exact_golden(self, tmp_path):
        env = run_env(["excursions", "--quotients", GOLDEN_CHAIN,
                       "--T", "20", "--output", str(tmp_path / "g.csv")])
        assert all(r["peak_pen"] == pytest.approx(math.log(math.sqrt(5) / 2))
                   for r in env.rows)

    def test_loglaw_running_max_monotone(self, tmp_path):
        env = run_env(["loglaw", "--quotients", GOLDEN_CHAIN, "--T", "50",
                       "--output", str(tmp_path / "l.csv")])
        maxes = [r["running_max"] for r in env.rows]
        assert maxes == sorted(maxes)
        assert "log-law statistic" in env.summary
        env = run_env(["loglaw", "--quotients", GOLDEN_CHAIN, "--T", "2.72",
                       "--output", str(tmp_path / "e.csv")])
        assert env.rows == []            # no peak past t = e yet

    def test_loglaw_expands_and_runs_the_orbit_once(self, tmp_path,
                                                    monkeypatch):
        # the statistic and the rows share one expansion and one orbit,
        # and print what the two public calls give
        from limsuplab import geodesics as geo
        rnd = random.Random(25)
        den = rnd.getrandbits(600) | 1 << 599
        x = Fraction(rnd.randrange(1, den), den)
        calls = []
        for name in ("_euclid_quotients", "_orbit"):
            def spy(*args, real=getattr(geo, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(geo, name, spy)
        env = run_env(["loglaw", "--x", str(x), "--T", "300", "--alpha",
                       "0.1", "--output", str(tmp_path / "l.csv")])
        assert calls == ["_euclid_quotients", "_orbit"]
        monkeypatch.undo()
        assert env.summary == "log-law statistic %.6f at T=300 (alpha=0.1)" \
            % geo.loglaw_statistic(x, 300.0, 0.1)
        assert [r["t_peak"] for r in env.rows] == \
            [r.t_peak for r in geo.predicted_excursions(x, 300.0)
             if r.t_peak > math.e]
        assert len(env.rows) > 20


# -- seeded fuzz --------------------------------------------------------------

# per subcommand, option: "valid values|values past a resource cap",
# each group separated by ";"
FUZZ_OPTIONS = {
    "classify": {"series": "r^1 * (r^-2);r^-2;r^1 * (r^-3) * log(r)^-1",
                 "psi": "r^-3;r^-2 * log(r)^-1", "weight": "0;1;1/2",
                 "gauge": "r^(2/3);r^(1/2) * log(1/r)^(1/10)"},
    "critical-exponent": {"psi": "r^-3;r^-2 * log(r)^2", "weight": "1;2",
                          "omega": "2;1/2", "ambient": "1;3"},
    "stage-scan": {"psi": "r^-2;r^-3;r^-2 * log(r)^-1|1e999 * r^-2",
                   "k": "2;3|100000",
                   "n-lo": "1;2;3", "n-hi": "1;3;5|31;400;1000",
                   "full-cap": "10;1000", "subset-cap": "0;40"},
    "ubiquity": {"rho": "6 * r^-2;r^-1;r^-2;1e999 * r^-2",
                 "k": "2;3;6|100000",
                 "n-lo": "1;2", "n-hi": "1;2;3|6;40;1000",
                 "balls": "1;3|%d" % (ub.MAX_BALLS + 1),
                 "min-measure": "1/10;1/2;1", "target": "1/2;1/3",
                 "q-cap": "10;100|%d;50000" % (ub.MAX_UNIFORM_Q + 1),
                 "system": "rationals;ford"},
    "schmidt": {"psi": "(1/4) * r^-1;r^-2|1e999 * r^-2",
                "samples": "1;4|%d" % (ct.MAX_SAMPLES + 1),
                "N": "1;500;2000|%d;1000000000" % (ct.MAX_N + 1)},
    "cf": {"x": "16/113;37/100;0.123;1/3", "depth": "1;40;200;1000000000"},
    "excursions": {"x": "37/100;0.3;16/113", "T": "5;10|1e308",
                   "quotients": "1,2,1,4;" + GOLDEN_CHAIN,
                   "step": "0.05;0.1|1e-9"},
    "loglaw": {"x": "37/100;0.3;16/113", "T": "5;25|1e308", "alpha": "0;0.1",
               "quotients": "1,2,1,4;" + GOLDEN_CHAIN},
    "horoballs": {"lam": "1/4;1/2;" + LAM_NEAR_ONE,
                  "r-hi": "1/8;1/2;1e-400;1e999", "factor": "1/2;2/3",
                  "points": "1;4|30;200000", "base": "0,1;1/5,4/5"},
    "disjointness": {
        "q-max": "2;5;12|%d;100000" % (hb.MAX_DISJOINTNESS_Q + 1),
        "identity-q-max": "1;5;8|%d;1000" % (hb.MAX_IDENTITY_Q + 1)},
}
FUZZ_COMMON = {"seed": "0;7", "format": "csv;jsonl"}
FUZZ_EDGE = ["0", "-1", "-7", "nan", "inf", "-inf", "1/0", "1e999",
             "1e-99999", "x", "", "1,,2", "0.5"]
# function texts the parser refuses at once, drawn for function options
FUZZ_FUNCTION_EDGE = ["r^(1/0)", "r^-" + "9" * 5000, "1e10000000 * r^-2"]
FUZZ_FUNCTION_OPTIONS = ("psi", "series", "gauge", "rho")
# whole invocations past a cap, run ahead of the random draws
FUZZ_EDGE_RUNS = [
    ["ubiquity", "--rho", "r^-2", "--k", "100000", "--n-lo", "1000",
     "--n-hi", "1000"],
    ["stage-scan", "--psi", "r^-2", "--k", "100000", "--n-lo", "1",
     "--n-hi", "1000"],
    HOROBALLS_LONG_RUN,
    HOROBALLS_DIGITS_RUN,
]


def fuzz_argv(rnd, out):
    """One invocation: each option present with probability 0.8, its
    value drawn from the valid, edge or past-cap group."""
    command = rnd.choice(sorted(FUZZ_OPTIONS))
    argv = [command]
    for name, spec in {**FUZZ_OPTIONS[command], **FUZZ_COMMON}.items():
        if rnd.random() < 0.8:
            valid, _, past_cap = spec.partition("|")
            edge = FUZZ_EDGE + (FUZZ_FUNCTION_EDGE
                                if name in FUZZ_FUNCTION_OPTIONS else [])
            group = rnd.choices([valid.split(";"), edge,
                                 (past_cap or valid).split(";")],
                                [0.85, 0.1, 0.05])[0]
            argv += ["--" + name, rnd.choice(group)]
    return serial(argv) + ["--output", out]


def test_seeded_fuzz_exits_with_a_documented_status(tmp_path, capsys):
    for argv in FUZZ_EDGE_RUNS:
        code = cli.main(serial(argv) + ["--output", str(tmp_path / "edge")])
        assert code == 2, argv
        assert capsys.readouterr().err.startswith("resource cap:"), argv
    rnd = random.Random(20240)
    seen = {}
    for i in range(300):
        argv = fuzz_argv(rnd, str(tmp_path / ("run%d" % i)))
        code = cli.main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        seen.setdefault(argv[0], set()).add(code)
    assert len(seen) == len(FUZZ_OPTIONS)
    assert {0, 1, 2} <= set().union(*seen.values())


# -- the exit contract over the option grammar --------------------------------

# numbers as the readers meet them: exact and decimal, past float range,
# undefined, and quotients of integers up to 10^400
GRAMMAR_NUMBER = st.one_of(
    st.sampled_from(["1e999", "7/0", "nan", "-inf", "10^30", str(10 ** 30),
                     "0", "-7", "0.37"]),
    st.fractions(max_denominator=1000).map(str),
    st.builds("{}/{}".format, st.integers(-10 ** 400, 10 ** 400),
              st.integers(0, 10 ** 400)))
# the factor grammar scale * r^a * log(r)^b * loglog(r)^c, and exp(-r^w)
GRAMMAR_FUNCTION = st.one_of(
    st.builds("{} * r^{} * log(r)^({})".format, GRAMMAR_NUMBER,
              GRAMMAR_NUMBER, GRAMMAR_NUMBER),
    st.builds("r^({}) * loglog(1/r)^{}".format, GRAMMAR_NUMBER,
              GRAMMAR_NUMBER),
    st.builds("exp(-r^{})".format, GRAMMAR_NUMBER))
# given last, so they win over drawn values: lowered caps, and schmidt in
# this process
LAST_OPTIONS = {"ubiquity": ["--q-cap=100"],
                "stage-scan": ["--full-cap=1000", "--subset-cap=40"],
                "schmidt": ["--workers=1"]}


@st.composite
def grammar_argv(draw):
    """One invocation: each option of FUZZ_OPTIONS present if required,
    else one time in two, its value one of the listed ones six times in
    eight, else drawn from the grammar."""
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    required = {o.name for o in cli._COMMANDS[command] if o.required}
    argv = [command]
    for name, spec in {**FUZZ_OPTIONS[command], **FUZZ_COMMON}.items():
        if name in required or draw(st.booleans()):
            grammar = (GRAMMAR_FUNCTION if name in FUZZ_FUNCTION_OPTIONS
                       else GRAMMAR_NUMBER)
            values = (st.sampled_from(spec.replace("|", ";").split(";"))
                      if draw(st.integers(0, 7)) < 6 else
                      st.one_of(grammar, GRAMMAR_NUMBER))
            argv.append("--%s=%s" % (name, draw(values)))
    return argv + LAST_OPTIONS.get(command, [])


@settings(max_examples=150, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=grammar_argv())
def test_exit_contract_over_the_option_grammar(argv, tmp_path, capsys):
    out = tmp_path / "run.out"
    if out.exists():
        out.unlink()
    code = cli.main(argv + ["--output", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, err)
    # a run writes nothing to stderr, a refusal one line
    assert err.splitlines(keepends=True) == ([err] if code else []), \
        (argv, err)
    if code == 0:
        head = out.read_text(encoding="utf-8").splitlines()
        options = dict(a[2:].split("=", 1) for a in argv[1:])
        if options.get("format", "csv") == "jsonl":
            meta = json.loads(head[0])["meta"]
            assert meta["config"]["command"] == argv[0]
            assert meta["wall_clock_s"] >= 0
        else:
            assert head[0].startswith("# limsuplab ")
            assert head[1].startswith("# config: command=%s " % argv[0])
            assert float(head[2].split(": ")[1]) >= 0
            assert head[3].startswith("# summary: ")
