"""Fuzz of the CLI's option table: every config either loads, or is refused
with a ConfigError that names a key the config set; and a run on the cheap
end of the table exits 0, 1 or 2 in bounded memory."""

import math
import tracemalloc

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ellipreg import cli

# Values tried for every row: non-finite and extreme numbers and huge
# integers, and strings that no cast reads
EXTREMES = ("nan", "inf", "-inf", "1e-300", "5e-324", "1e18", "-1e18",
            "1000000000000000000", "-1000000000000000000")
JUNK = ("", "abc", "1,2", "0x10", "5%")

# Per row: values inside the accepted range, and its ends with one step to
# either side.
EDGES = {
    ("run", "dim"): ("1", "2", "3", "4"),
    ("field", "family"): ("identity", "constant", "gilbarg-serrin", "gs",
                          "radial", "Radial", "weird"),
    ("budget", "eps"): ("0", "1e-290", "0.25", "0.5", "1", "1.0000001"),
    ("budget", "k_max"): ("0", "1", "2", "8", "12", "39", "40", "41"),
    ("budget", "tol"): ("9.99e-15", "1e-14", "1e-6", "1e-3"),
    ("budget", "grid_resolution"): ("7", "8", "9", "16", "64", "241", "242",
                                    "262144", "262145"),
    ("budget", "nodes_per_octave"): ("0", "1", "2", "16", "64", "4095",
                                     "4096", "4097"),
    ("budget", "dyn_tol"): ("9.99e-15", "1e-14", "1e-8", "1e-4"),
    ("budget", "dyn_t0"): ("-0.01", "0", "0.5", "10.4", "20"),
    ("budget", "asi_tol"): ("9.99e-15", "1e-14", "1e-5"),
    ("integrate", "generator"): ("field", "exp-decay", "zero",
                                 "one-over-1pt", "bogus"),
    ("integrate", "t0"): ("-0.01", "0", "0.5", "30", "31"),
    ("integrate", "t1"): ("0", "1", "5", "30", "699.99", "700", "700.01",
                          "1e4"),
    ("integrate", "tol"): ("9.99e-15", "1e-14", "1e-9", "1e-6", "1e-3"),
    ("gs", "example"): ("exp-decay", "zero", "cesari-convergent",
                        "cesari-minus-infinity", "bogus"),
    ("gs", "horizon"): ("9.99", "10", "100", "1e4", "1e6", "1000001"),
    ("gs", "decay_exponent"): ("0.5", "0.5000001", "0.6", "0.999", "1"),
    ("gs", "tol"): ("1e-300", "1e-9", "1e-4", "1e-2"),
    ("pde", "n"): ("63", "64", "65", "128", "1024", "1025"),
    ("pde", "boundary"): ("x1", "x2", "harmonic-quadratic", "sin-x1", "one",
                          "bogus"),
    ("pde", "radii"): ("0.5", "0.5, 0.25", "0.5, 0.25, 0.125", "0.5, 0.5",
                       "0.0625, 0.5", "0.06, 0.5", "0.94, 0.5", "0.95"),
    ("pde", "tol"): ("9.99e-15", "1e-14", "1e-12", "1e-8"),
    ("moments", "k_max"): ("0", "1", "12", "40", "41"),
    ("output", "dir"): ("out", "a b"),
}

# A rule tying two keys may name the other one: a shallow profile refuses
# the default dyn_t0, a coarse grid the default radii, a late t0 the
# default t1, and a decay exponent the default Cesari horizon.
TIES = {
    ("budget", "eps"): "[budget] dyn_t0",
    ("budget", "k_max"): "[budget] dyn_t0",
    ("pde", "n"): "[pde] radii",
    ("integrate", "t0"): "[integrate] t1",
    ("gs", "decay_exponent"): "[gs] horizon",
}

# The cheap end of the table, as (lowest, highest) value drawn: a
# run in well under a second (k_max 12 and 64 nodes per octave take about
# 0.6 s in 3-D)
CHEAP = {("budget", "k_max"): (1, 12), ("moments", "k_max"): (1, 12),
         ("budget", "nodes_per_octave"): (1, 64),
         ("budget", "grid_resolution"): (8, 64), ("pde", "n"): (64, 128),
         ("integrate", "t1"): (0, 30)}

# What a run on the cheap end may allocate at its peak (tracemalloc): the
# drawn runs peak at about 2 MB, while [moments] k_max = 1e8, refused now,
# asked for 763 MiB
PEAK_BYTES = 64 * 2 ** 20


def test_every_row_is_fuzzed():
    assert set(EDGES) == {(section, key) for section, key, *_ in cli._OPTIONS}


def _cheap(row, value):
    lo, hi = CHEAP.get(row, (-math.inf, math.inf))
    try:
        return lo <= float(value) <= hi
    except ValueError:
        return True


def _configs(cheap):
    """1-4 distinct rows, each with a value, and a subcommand.  A cheap
    config draws from EDGES alone: with the extremes and junk strings
    beside them, too few configs load to fill the examples."""
    def values(row):
        if cheap:
            return st.sampled_from([v for v in EDGES[row] if _cheap(row, v)])
        return st.sampled_from(EDGES[row] + EXTREMES + JUNK)
    rows = st.lists(st.sampled_from(sorted(EDGES)), min_size=1, max_size=4,
                    unique=True)
    drawn = rows.flatmap(lambda rs: st.tuples(
        *(st.tuples(st.just(r), values(r)) for r in rs)))
    return st.tuples(st.sampled_from(cli.SUBCOMMANDS), drawn)


def _write(path, drawn, base=""):
    """``base`` with each drawn row set; a drawn key replaces its base line."""
    sections = {}
    for line in base.splitlines():
        if line.startswith("["):
            section = sections.setdefault(line.strip("[]"), {})
        elif line:
            key, value = line.split(" = ")
            section[key] = value
    for (section, key), value in drawn:
        sections.setdefault(section, {})[key] = value
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    return str(path)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_configs(cheap=False))
def test_load_returns_or_names_a_drawn_key(tmp_path, config):
    subcommand, drawn = config
    path = _write(tmp_path / "run.ini", drawn)
    try:
        cli.load_config(path, subcommand)
    except cli.ConfigError as e:
        names = [f"[{s}] {k}" for (s, k), _ in drawn]
        names += [TIES[row] for row, _ in drawn if row in TIES]
        assert any(name in str(e) for name in names), (str(e), drawn)


# A base per family, each with the [field] keys its family reads, at a
# shallow budget so that every subcommand has a field and a grid to run on
FIELDS = {
    "identity": "family = identity\n",
    "constant": "family = constant\ndiag = 2, 1\n",
    "gilbarg-serrin": "family = gilbarg-serrin\ng = -1/log(e^2/r)\n"
                      "omega = 1/log(e^2/r)\n",
    "radial": "family = radial\nscale = 0.5*r^0.5\n",
}
SHALLOW = """[budget]
k_max = 8
nodes_per_octave = 8
[pde]
n = 64
radii = 0.5, 0.25, 0.125
"""


def test_cheap_run_exits_0_1_or_2_in_bounded_memory(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setenv("ELLIPREG_OUTDIR", str(tmp_path / "out"))
    # the families and the subcommands of the configs that reached cli.main
    reached, subcommands = set(), set()

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(family=st.sampled_from(sorted(FIELDS)), config=_configs(cheap=True))
    def run(family, config):
        subcommand, drawn = config
        path = _write(tmp_path / "run.ini", drawn,
                      "[field]\n" + FIELDS[family] + SHALLOW)
        try:
            loaded = cli.load_config(path, subcommand)
        except cli.ConfigError:
            assume(False)    # refused while loading: the load fuzz covers it
        reached.add(loaded.options["field"]["family"])
        subcommands.add(subcommand)
        tracemalloc.start()
        try:
            rc = cli.main([subcommand, path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert rc in (cli.EXIT_OK, cli.EXIT_NUMERICAL, cli.EXIT_CONFIG), drawn
        assert peak <= PEAK_BYTES, (peak, drawn)

    run()
    assert set(FIELDS) <= reached, reached
    assert set(cli.SUBCOMMANDS) == subcommands, subcommands
