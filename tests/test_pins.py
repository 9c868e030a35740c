"""Byte pins of the README runs and of the benchmark stages' library values.

CLI rows run through `cli.main` in a fresh directory with no --output (its
path would enter every digest: the sha256 of the artifact without its
`# wall_clock_s:` line).  A `*` in a row's line leaves its middle open, and
a `$NAME` token stands for INPUTS["$NAME"]."""

import hashlib
import random
import re
import shlex
import time
from fractions import Fraction
from typing import NamedTuple, Optional

import pytest

from limsuplab import cli, farey
from limsuplab import functions as fn
from limsuplab import systems as sy
from limsuplab import ubiquity as ub


def seeded_dyadic():
    return "%d/%d" % (random.Random(8).getrandbits(4096) | 1, 1 << 4096)


def seeded_rational():
    r = random.Random(9)
    d = r.getrandbits(1100) | 1 << 1099
    return "%d/%d" % (r.randrange(1, d), d)


def seeded_quotients():
    num, den = random.Random(25).getrandbits(6000) | 1, 1 << 6000
    quots = []
    while num and len(quots) < 3000:
        a, rem = divmod(den, num)
        quots.append(a)
        den, num = num, rem
    return ",".join(map(str, quots))


INPUTS = {
    "$DYADIC": seeded_dyadic(),
    "$RATIONAL": seeded_rational(),
    "$QUOTIENTS": seeded_quotients(),
    # a spike entering at t = 7.4, still in progress at T = 20.19
    "$SPIKE": ",".join(["1"] * 8 + ["1000000"] + ["1"] * 60),
    # a 10^16 quotient peaks past 2^26: the non-cancelling entering offset
    "$HUGE": ",".join(["2", "1", "3", "1", "1", str(10 ** 16)] + ["1"] * 30),
    # a bad last entry is refused, however short the horizon
    "$BAD_LAST": ",".join(["1"] * 2999 + ["0"]),
}
INI_FILES = {"headless.ini": "seed = 1\n",
             "misspelt.ini": "[schmidt]\npsi = r^-2\nN = 100\nsampels = 5\n"}


class Run(NamedTuple):
    cmd: str
    status: int
    line: Optional[str]
    sha256: Optional[str] = None
    seconds: Optional[float] = None     # bound on the elapsed time
    row: Optional[str] = None           # a line the artifact holds


RUNS = [
    Run("excursions --x 37/100 --T 12 --step 0.0001", 0,
        "5 excursions by T=12 (sampled); deepest peak 2.661354 at t=12.000000",
        "771951c97f154895e2a713a089831dc7db474dfc615d1ef2ae949ec8bba89ce6"),
    Run("excursions --x 0.5377636563 --T 8 --step 0.001", 0, None,
        "d25a74a4c34562370c3804cabe6e654cda0b5cb9a260cdcacfd7282675f92fa5"),
    Run("classify --series 'r^(1/0)'", 1, "error:*"),
    Run("schmidt --psi '(1/4) * r^-1' --N 100000 --samples 200 --seed 7", 0,
        "mean ratio 0.999915, stddev 0.001062 over 200 samples (N=100000)"),
    Run("schmidt --psi 'r^-3' --N 5 --samples 3", 0,
        "mean ratio 0.797115, stddev 0.426076 over 3 samples (N=5; "
        "multiplicity condition 2 q psi(q) < 1 fails at q = 1)",
        "0d5e87da0f7f8473faedf32cc13fee8eeff5764f5395348bf05111f38223fab6"),
    Run("loglaw --x 37/100 --T 25", 0,
        "log-law statistic 0.351941 at T=25 (alpha=0)"),
    Run("loglaw --x 1e-300 --T 100", 0,
        "log-law statistic 21.714724 at T=100 (alpha=0)"),
    Run("schmidt --config headless.ini", 1, "error:*"),
    Run("schmidt --config misspelt.ini", 1, "error:*"),
    Run("loglaw --quotients $SPIKE --T 20.19", 0,
        "log-law statistic 4.221874 at T=20.19 (alpha=0)"),
    Run("excursions --quotients $HUGE --T 60", 0,
        "4 excursions by T=60 (exact); deepest peak 36.148214 at t=43.400977",
        "c31c692b4eb3a5967c8f0392a476067a455b4bd0090504dcc95c8f14b441b6c5"),
    Run("cf --x 0.3183098861837 --depth 40", 0,
        "quotients [3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 9, 1, 3, 4, 2, 2, 1, 14, "
        "3, 2, 1, 1, 1, 1, 9] (terminated)",
        "818374c33c7b04eaf1f9da596e7114c65747ed71fd603cb1011484843ee1f63a"),
    Run("cf --x $DYADIC --depth 1000", 0, None,
        "e7ad3d9fcf87f3b4726aad61d42aff81d67ecc810282a17d8522713e52dc19c2"),
    Run("loglaw --x $RATIONAL --T 1000", 0,
        "log-law statistic 2.545377 at T=1000 (alpha=0)",
        "14c7d9c1e9d5b5e719e6acb1e883c908b2c88079b906351ee624ba02a27d5335"),
    Run("loglaw --quotients $QUOTIENTS --T 2000", 0,
        "log-law statistic 1.486509 at T=2000 (alpha=0)",
        "2f3b531d663e45f676777d9bbdc94d05a905ee6ed15dd0745387cdbc53a407ec"),
    Run("excursions --quotients $QUOTIENTS --T 300", 0,
        "93 excursions by T=300 (exact); deepest peak 5.106001 at t=31.052087",
        "e9a86bbaaa504c467bcf8af277192ee29aaa9e0373f02fc8395d19d6a467c762"),
    Run("loglaw --quotients $BAD_LAST --T 20", 1,
        "error: partial quotients must be integers >= 1, got 0"),
    Run("ubiquity --rho '6 * r^-2' --k 6 --n-lo 3 --n-hi 4", 0,
        "empirical kappa = 7424994349284091203436471163/"
        "7867454997630831867126525663 (0.943761) over 20 balls, n=3..4",
        "73a845578806fb367ef47ecd97537f74e7e3db81efc6fd3649a8318ad0689dd0"),
    Run("ubiquity --system ford --rho r^-1 --k 6 --n-lo 8 --n-hi 9", 0,
        "empirical kappa = 47950625/157831416 (0.303809) over 20 balls, n=8..9",
        "00707484d888ec152d13410b01018b67d32842c381b860624e41443a345dd85e"),
    Run("ubiquity --rho '6 * r^-2' --k 5 --n-lo 3 --n-hi 5", 0,
        "empirical kappa = 14020246621268791/14854376261692275 (0.943846) "
        "over 20 balls, n=3..5",
        "4e797d74824a71712d2281e743416f6a0e3f8aea8d620a842fc38fb4d62d376f"),
    Run("ubiquity --rho '6 * r^-2' --k 6 --n-lo 5 --n-hi 5", 0,
        "empirical kappa = * (0.946986) over 20 balls, n=5..5",
        "48fef2a449f6d6ac86f1cacc5d47595f9083dc26321d6ac5ad202d3673f0ed1b"),
    Run("ubiquity --rho '6 * r^-2' --k 2 --n-lo 13 --n-hi 13", 0,
        "empirical kappa = *5108096 (0.946997) over 20 balls, n=13..13",
        "1a87f024dfa2165cc87b32a85fe5fdc193548bf9d3879d6c54219cb7fe3b22ef"),
    Run("ubiquity --rho '6 * r^-2' --k 6 --n-lo 3 --n-hi 5 --balls 1000", 0,
        "empirical kappa = 18317190238848600699797831267/"
        "19713565008759441852907875000 (0.929167) over 1000 balls, n=3..5",
        "b3d0e9ce30fb38b0b72b77540558f06fefbdf9b80e6fdb2755cbe3641e2ba8eb",
        seconds=60),
    Run("ubiquity --rho r^-2 --k 6 --n-lo 3 --n-hi 4", 0,
        "empirical kappa = "
        "1066591270519628161194001118921101313490278682781565730783996279"
        "456097740676881314089199964265943/"
        "1881529042756572993616639880233748758597718490420227414164205202"
        "948680488373102443478077311000000 (0.566875) over 20 balls, n=3..4",
        "3da3bab0b05c8cafd30b2588515ef95512c6a06cd3bc745ebb629187376c0ee5"),
    Run("ubiquity --rho r^-2 --k 6 --n-lo 5 --n-hi 5", 0,
        "empirical kappa = *5383680 (0.567453) over 20 balls, n=5..5",
        "78126a777a5baa2006338d7ed1e52036afdd8942bab34f9d8d4ef0cebb96e5fc"),
    Run("stage-scan --psi r^-3 --k 2 --n-lo 1 --n-hi 10", 0,
        "stage measures n=1..10: partial sum 1.20061 (0 truncated stages)",
        "66ba770c506b7bbf364ccb7bf6b5489972afbeec1438f14aefa23e9c7455cc9e"),
    Run("stage-scan --psi r^-2 --k 5 --n-lo 2 --n-hi 5", 0,
        "stage measures n=2..5: partial sum 3.89269 (0 truncated stages)",
        "eea95774b78fc0850af95da6afa59b1a3338956cb0d14d6381c48edfaeb91a40"),
    Run("stage-scan --psi r^-2 --k 6 --n-lo 6 --n-hi 6 --subset-cap 10000000",
        0, "stage measures n=6..6: partial sum 0 (1 truncated stage)",
        "135e1ba63ea1e7690040a41210f0fd379f6696daae3407686fa367cd400f0da4"),
    Run("stage-scan --psi r^-3 --k 2 --n-lo 14 --n-hi 19 --subset-cap 0", 0,
        "stage measures n=14..19: partial sum 0 (6 truncated stages)",
        "d2119e0c094cb003f3a6a653705aad92c37df2d4a83f3bff6330da7f1a33f549"),
    Run("disjointness --q-max 200", 0,
        "all 12233 horoball interiors disjoint up to q=200 (24463 tangent pairs)",
        "c2af76cf65313c79f9ee6457a6754821e1e5b05272c17dc15468abc2cac26c94"),
    Run("disjointness --q-max 256", 0,
        "all 19949 horoball interiors disjoint up to q=256 (39895 tangent pairs)",
        "b6464debd41e8115255d577bab9fe0094aad2cdd6e13536d17ff4540304f3c0a"),
    Run("horoballs --points 13", 0,
        "count ratio in [0.421875, 0.5] (max/min 1.1852) over 13 radius "
        "scales down from 1/8",
        "4f056f8cee091a20fdc5085418539aca88511114c26fa04923c022d4e8cdcd5f"),
    Run("horoballs --r-hi 1/200000000000000 --base 0,1/10000000 --points 1",
        0, "count ratio in [0.5, 0.5] (max/min 1.0000) over 1 radius scales "
        "down from 1/200000000000000", seconds=30,
        row="1/200000000000000,-14.301029995663981,10000001,20000000,"
        "10000000,0.5"),
]


def matches(got, want):
    head, star, tail = want.partition("*")
    if not star:
        return got == want
    return got.startswith(head) and got[len(head):].endswith(tail)


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.cmd)
def test_cli_run(run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    for name, text in INI_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [INPUTS.get(token, token) for token in shlex.split(run.cmd)]
    started = time.perf_counter()
    status = cli.main(argv)
    elapsed = time.perf_counter() - started
    out, err = capsys.readouterr()
    assert status == run.status, err
    assert run.seconds is None or elapsed < run.seconds
    got = (err if status else out).rstrip("\n")
    assert run.line is None or matches(got, run.line), got
    if status:
        assert "\n" not in got and "Traceback" not in got
        return
    artifact = (tmp_path / ("%s.csv" % argv[0])).read_bytes()
    payload = re.sub(rb"(?m)^# wall_clock_s:.*\n", b"", artifact)
    assert run.sha256 in (None, hashlib.sha256(payload).hexdigest())
    assert run.row is None or run.row.encode() in artifact.splitlines()


def engine_bytes(rho, k, n, listed):
    """(_starts, _merged, _ends) of a rationals stage's engine, whose
    builder `_lattice_is_cheaper` picks: the open-gap list if `listed`."""
    k = Fraction(k)
    q_max = ub._uniform_q_max(sy.classical_rationals(), k, n)
    radius = ub._uniform_radius(fn.parse_function(rho), k, n)
    rn, rd = radius.numerator, radius.denominator
    theta = min(-((-rd) // (2 * rn)), q_max * q_max + 1)
    phi = farey.stage_sieve(q_max)[2]
    assert ub._lattice_is_cheaper(q_max, theta, phi) == listed
    eng = ub.UniformStageEngine(q_max, radius)
    return b"".join(a.tobytes() for a in (eng._starts, eng._merged, eng._ends))


def scan_text(system, fields, scans, subset_cap=sy.SUBSET_SWEEP_CAP):
    """One line per record of each (psi, k, n_lo, n_hi) scan: its
    `fields`, ints in decimal and floats as float.hex."""
    lines = []
    for psi, k, n_lo, n_hi in scans:
        stage = sy.per_point_stage(fn.parse_function(psi), k)
        for rec in sy.stage_measure_scan(system(), stage, n_lo, n_hi,
                                         subset_cap=subset_cap).records:
            values = [getattr(rec, name) for name in fields.split()]
            lines.append(" ".join(v.hex() if isinstance(v, float) else str(v)
                                  for v in values))
    return "\n".join(lines).encode()


FORD, RATIONALS = sy.ford_horoballs, sy.classical_rationals
BRACKET = "value lower upper"
LIBRARY = {
    # q = 1 and 2, either side of a key width change, the benchmark's Ford
    # F_2244, F_3125 and the cap
    **{"farey_keys-%d" % q: (lambda q: farey.farey_keys(q).tobytes(), (q,),
                             want) for q, want in {
        1: "39f2c831336127665370da517f3549511dcafc98d40d37013a2c367dd8c10e15",
        2: "07b8a34e9bc0ad21ea639df899b2cfacae46efed80505197d2571f466898aa25",
        127: "1fcdf7034020d83391c320cd39ab3eedc8eff1770a3d86fad30681fd4b50fa8e",
        128: "1f260ac41f4b3682bf29001baba2ca97275feaa9774cda8f45c48c6630c77173",
        2244: "1f2ee5d4297addf1a0957ca4c9e7c51632f51cadd7193a932a20742c6ca9d3e9",
        3125: "6a97191a69646ea54ca0901b6fed061917fd66a0b937def8783c51b3528b73f5",
        8192: "9a5afca7a1c611ff0de48e518d0b72f2073b5878c72c728a64ddc6d046f07466",
    }.items()},
    "engine-2r^-2-k6-n5": (engine_bytes, ("2 * r^-2", 6, 5, True),
        "420cc3527ef43b32442d37a72a7b6b7079ec75d6d169186b6d35c7ca2cee579e"),
    "engine-6r^-2-k2-n13": (engine_bytes, ("6 * r^-2", 2, 13, True),
        "c1b9584c88c2ce589ced8891cf109e81d003c7a43a98037dbd69c99228d3aa2a"),
    "engine-r^-2-k6-n5": (engine_bytes, ("r^-2", 6, 5, False),
        "1178178bfa51376618874bc0f12be38ae6d4563cd6e1fd4b5c81bf254e085657"),
    # Ford stages 1-24: 0 to 1.27M balls, rows from b = 1
    "ford-values": (scan_text, (FORD, "value", [("r^-1", 2, 1, 24)]),
        "ebae6f7ac178de5e0e77ae9a047b49786dfca26749606396e3685c25957ed00f"),
    "ford-counts": (scan_text, (FORD, "n count pairs", [("r^-1", 2, 1, 24)]),
        "8993c89a58131386bf6ca7a1437498b265f18b70f1e28c3d8fbc245395e25cd6"),
    # up to the 2.97M-ball stage with 2,254 tied positions
    "rationals": (scan_text, (RATIONALS, BRACKET, [("r^-2", 5, 2, 5),
                                                   ("r^-3", 2, 1, 11)]),
        "7c37f07af39e3a047f8c5509cf315afe4159c0f52e618bf1f6af87afa90b9a5e"),
    # stages of 2 and 5 cells, whose rows start past a = 0
    "multi-cell": (scan_text, (RATIONALS, BRACKET, [("r^-3", 2, 12, 13)]),
        "465f21116a67fc6420ce006c5ece6afc0d34ed1538273497da12ee452c2d973e"),
    # the benchmark's per-q requests, one single-stage scan each
    "per-q": (scan_text, (RATIONALS, "n count pairs upper",
                          [("r^-3", 2, n, n) for n in range(14, 20)], 0),
        "916b4e86f69acccfc57c50fb27993db6d7c07727123a4a8a3af51cb7085cd290"),
}


@pytest.mark.parametrize("build,args,want", LIBRARY.values(), ids=LIBRARY)
def test_library_bytes(build, args, want):
    assert hashlib.sha256(build(*args)).hexdigest() == want
