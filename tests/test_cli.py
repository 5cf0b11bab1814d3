"""Tests for the config loader and the batch subcommands."""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from regimeweave import cli, montecarlo
from regimeweave.cli import (
    ParseError,
    ValidationError,
    _Artifacts,
    cmd_compose,
    cmd_evaluate,
    cmd_simulate,
    cmd_validate,
    load_config,
    main,
    _validate_stream_id,
    parse_grid,
)
from regimeweave.compose import compose_independent
from regimeweave.hjb import solve_income_loading
from regimeweave.markov import RngStream, validate_generator
from regimeweave.montecarlo import estimate_regime_factor
from regimeweave.portfolio import (
    CaseMismatch, Strategy, evaluate_policy, optimal_strategy, simulate_wealth, utility,
)

REPO = Path(__file__).resolve().parents[1]
REFERENCE = str(REPO / "configs" / "reference.json")
RHO_ZERO_CONFIG = str(REPO / "configs" / "rho_zero.json")
COPULA_CONFIG = str(REPO / "configs" / "copula.json")


def minimal_config() -> dict:
    return {
        "chains": {
            "epsilon": [[-0.5, 0.5], [0.3, -0.3]],
            "zeta": [[-0.2, 0.2], [0.7, -0.7]],
            "composition": {"method": "independent"},
        },
        "market": {
            "r": 0.03,
            "rho": 0.35,
            "gamma": 1.2,
            "T": 1.5,
            "regimes": [
                {"alpha": 0.09, "sigma": 0.22, "mu": 0.02, "delta": 0.12},
                {"alpha": 0.04, "sigma": 0.35, "mu": 0.0, "delta": 0.18},
                {"alpha": 0.07, "sigma": 0.28, "mu": 0.015, "delta": 0.1},
                {"alpha": 0.02, "sigma": 0.4, "mu": -0.01, "delta": 0.22},
            ],
        },
        "numerics": {"n_steps": 64, "n_paths": 50, "dt": 0.25, "seed": 3},
        "case": "normal_income",
    }


def dump_config(tmp_path: Path, document: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def absorbing_config(tmp_path: Path) -> str:
    """The reference market on its compound chain with regime 0 made absorbing."""
    document = json.loads(Path(REFERENCE).read_text())
    rates = load_config(REFERENCE).generator.rates.copy()
    rates[0] = 0.0
    document["chains"] = {"compound": rates.tolist()}
    return dump_config(tmp_path, document, "absorbing.json")


def read_csv(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    comments, rows = [], []
    with open(path, newline="") as stream:
        for line in stream:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


def column(header: list[str], rows: list[list[str]], name: str) -> list[str]:
    index = header.index(name)
    return [row[index] for row in rows]


class TestLoadConfig:
    def test_minimal_config_loads(self, tmp_path):
        config = load_config(dump_config(tmp_path, minimal_config()))
        assert config.generator.n_states == 4
        assert config.market.n_regimes == 4
        assert config.case == "normal_income"
        assert config.seed == 3
        assert config.mapping.pair(2) == (0, 1)

    def test_compound_given_directly(self):
        config = load_config(RHO_ZERO_CONFIG)
        assert config.generator.n_states == 2
        assert config.mapping is None
        assert config.chain is None

    def test_regimes_length_mismatch(self, tmp_path):
        document = minimal_config()
        document["market"]["regimes"] = document["market"]["regimes"][:3]
        with pytest.raises(ValidationError, match="market.regimes"):
            load_config(dump_config(tmp_path, document))

    def test_rho_out_of_range(self, tmp_path):
        document = minimal_config()
        document["market"]["rho"] = 1.5
        with pytest.raises(ValidationError, match="market.rho"):
            load_config(dump_config(tmp_path, document))

    def test_all_violations_reported(self, tmp_path):
        document = minimal_config()
        document["market"]["rho"] = 1.5
        document["market"]["gamma"] = -1.0
        document["market"]["regimes"][1]["sigma"] = -0.2
        with pytest.raises(ValidationError) as excinfo:
            load_config(dump_config(tmp_path, document))
        message = str(excinfo.value)
        assert "market.rho" in message
        assert "market.gamma" in message
        assert "market.regimes[1].sigma" in message

        # one round trip names every offending path once: type errors next to
        # range errors, a failed chain next to a bad market, a bad copula
        three_regimes = minimal_config()["market"]["regimes"][:3]
        cases = [
            ([("market", "rho", "a"), ("market", "gamma", -1.0), ("market", "regimes", 1, "sigma", -0.2)],
             ["market.gamma", "market.regimes[1].sigma", "market.rho"]),
            ([("chains", "epsilon", [[-0.5, 0.5], [0.3, 0.3]]), ("market", "T", 0.0)],
             ["chains.epsilon", "market.T"]),
            ([("chains", "composition", {"method": "copula", "correlation": -2.0, "fd_step": 1.0})],
             ["chains.composition.correlation", "chains.composition.fd_step"]),
            ([("market", "regimes", 2, "flat"), ("market", "regimes", 0, "delta", -0.1)],
             ["market.regimes[0].delta", "market.regimes[2]"]),
            ([("market", "regimes", three_regimes)], ["market.regimes"]),
        ]
        for edits, expected in cases:
            document = minimal_config()
            for *keys, last, value in edits:
                target = document
                for key in keys:
                    target = target[key]
                target[last] = value
            with pytest.raises(ValidationError) as excinfo:
                load_config(dump_config(tmp_path, document))
            assert sorted(path for path, _ in excinfo.value.problems) == expected

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "absent.json")

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_config(path)

    def test_unknown_section_flagged(self, tmp_path):
        document = minimal_config()
        document["plotting"] = {"dpi": 300}
        with pytest.raises(ValidationError, match="plotting"):
            load_config(dump_config(tmp_path, document))

    def test_case_rho0_requires_zero_rho(self, tmp_path):
        document = minimal_config()
        document["case"] = "rho0"
        with pytest.raises(ValidationError, match="case"):
            load_config(dump_config(tmp_path, document))

    def test_library_rules_named_by_config_path(self, tmp_path):
        # the step-count, seed and case rules belong to the library; the loader names their paths
        document = minimal_config()
        document["numerics"].update(n_steps=7, seed=-1)
        document["case"] = "lognormal"
        with pytest.raises(ValidationError) as excinfo:
            load_config(dump_config(tmp_path, document))
        assert excinfo.value.problems == (
            ("numerics.n_steps", "must be an even integer >= 8, got 7"),
            ("numerics.seed", "must be an integer in [0, 2**64), got -1"),
            ("case", "unknown case 'lognormal'; expected 'rho0' or 'normal_income'"),
        )
        document = minimal_config()
        document["case"] = "rho0"
        with pytest.raises(ValidationError) as excinfo:
            load_config(dump_config(tmp_path, document))
        assert excinfo.value.problems == (("case", "'rho0' requires zero correlation, got 0.35"),)

    def test_copula_composition_loads(self, tmp_path):
        document = minimal_config()
        document["chains"]["composition"] = {
            "method": "copula",
            "correlation": 0.4,
            "fd_step": 1e-4,
        }
        config = load_config(dump_config(tmp_path, document))
        assert config.chain.method == "copula"
        assert config.chain.copula.correlation == 0.4

    @pytest.mark.parametrize("per_year", [525960.0, 31557600.0])  # minutes, seconds
    def test_compound_generator_in_other_time_units_loads(self, tmp_path, per_year):
        # the copula config's compound chain in finer units: its rows sum to 3.7e-9 and
        # 2.4e-7 by rounding alone, far past an absolute 1e-9, at 1e-16 of the row's rates
        rates = load_config(COPULA_CONFIG).generator.rates * per_year
        document = minimal_config()
        document["chains"] = {"compound": rates.tolist()}
        config = load_config(dump_config(tmp_path, document))
        assert_allclose(config.generator.rates, rates, rtol=0, atol=1e-15 * np.abs(rates).max())

    def test_copula_correlation_out_of_range(self, tmp_path):
        document = minimal_config()
        document["chains"]["composition"] = {"method": "copula", "correlation": -2.0}
        with pytest.raises(ValidationError, match="chains.composition.correlation"):
            load_config(dump_config(tmp_path, document))

    def test_bad_component_generator_reported(self, tmp_path):
        document = minimal_config()
        document["chains"]["epsilon"] = [[-0.5, 0.5], [0.3, 0.3]]
        with pytest.raises(ValidationError, match="chains.epsilon"):
            load_config(dump_config(tmp_path, document))

    def test_config_hash_tracks_content(self, tmp_path):
        first = dump_config(tmp_path, minimal_config(), "a.json")
        again = dump_config(tmp_path, minimal_config(), "b.json")
        changed = minimal_config()
        changed["numerics"]["seed"] = 4
        other = dump_config(tmp_path, changed, "c.json")
        assert load_config(first).config_hash == load_config(again).config_hash
        assert load_config(first).config_hash != load_config(other).config_hash


def test_import_and_load_config_leave_scipy_unimported():
    # a fresh isolated interpreter: no config, copula ones included, needs scipy
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(REPO / 'src')!r})\n"
        "import regimeweave\n"
        "from regimeweave.cli import load_config\n"
        f"load_config({REFERENCE!r})\n"
        f"load_config({RHO_ZERO_CONFIG!r})\n"
        f"assert load_config({COPULA_CONFIG!r}).chain.method == 'copula'\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


class TestParseGrid:
    def test_three_axes(self):
        axes = parse_grid("0:2:5,-1:1:3,0.5:0.5:1")
        assert len(axes) == 3
        assert_allclose(axes[0], np.linspace(0.0, 2.0, 5))
        assert_allclose(axes[1], [-1.0, 0.0, 1.0])
        assert_allclose(axes[2], [0.5])

    def test_rejects_malformed_axis(self):
        with pytest.raises(ParseError):
            parse_grid("0:2")
        with pytest.raises(ParseError):
            parse_grid("0:2:none")
        with pytest.raises(ParseError):
            parse_grid("0:2:0")

    def test_at_most_three_axes(self):
        with pytest.raises(ParseError, match="at most three axes"):
            parse_grid("0:1:2,0:1:2,0:1:2,0:1:2")

    @pytest.mark.parametrize("text", ["0:nan:2", "0:1:2,-inf:1:2", "0:1:2,0:1:2,0:inf:3"])
    def test_rejects_non_finite_bounds(self, text):
        with pytest.raises(ParseError, match="--grid axis .*must be finite"):
            parse_grid(text)


@pytest.mark.parametrize(
    "args, flag",
    [
        (["evaluate", "--x0", "nan"], "--x0"),
        (["simulate", "--y0", "inf"], "--y0"),
        (["evaluate", "--x0=-inf"], "--x0"),
        (["evaluate", "--compare", "nan"], "--compare"),
        (["evaluate", "--compare", "0.5,inf"], "--compare"),
        (["solve", "--grid", "0:1:2,0:nan:2"], "--grid"),
    ],
)
def test_non_finite_flags_are_config_errors(tmp_path, capsys, args, flag):
    out = tmp_path / "out"
    assert main([*args, "--config", REFERENCE, "--out", str(out), "--paths", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and flag in err
    assert not any(out.glob("*"))


def test_every_bad_flag_in_one_error(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["evaluate", "--config", REFERENCE, "--out", str(out), "--seed", "-1", "--paths", "0", "--x0", "nan",
            "--i0", "99"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    for problem in ("--seed: must be an integer in [0, 2**64), got -1", "--paths: must be at least 2, got 0",
                    "--x0: must be finite, got nan", "--i0: must lie in [0, 4), got 99"):
        assert problem in err
    assert not out.exists()


@pytest.mark.parametrize("run", [cmd_simulate, cmd_evaluate])
def test_bad_start_regime_from_the_library(tmp_path, run):
    # a direct call gets the chain simulation's error, not an index into a table
    config = load_config(REFERENCE)
    for regime in (4, -1):
        with pytest.raises(ValueError, match="out of range"):
            run(config, tmp_path, regime=regime, n_paths=4)


def test_seed_range_is_the_stream_key_range(tmp_path, capsys):
    # seeds up to 2**64 - 1 key a stream; the config and the flag share RngStream's rule
    top = str(2**64 - 1)
    assert main(["simulate", "--config", REFERENCE, "--out", str(tmp_path / "a"), "--paths", "2", "--seed", top]) == 0
    assert main(["simulate", "--config", REFERENCE, "--out", str(tmp_path / "b"), "--seed", str(2**64)]) == 2
    assert f"--seed: must be an integer in [0, 2**64), got {2**64}" in capsys.readouterr().err
    document = minimal_config()
    document["numerics"]["seed"] = 2**64
    with pytest.raises(ValidationError) as excinfo:
        load_config(dump_config(tmp_path, document))
    assert excinfo.value.problems == (("numerics.seed", f"must be an integer in [0, 2**64), got {2**64}"),)


def test_malformed_comparison_is_config_error(tmp_path, capsys):
    args = ["evaluate", "--config", REFERENCE, "--out", str(tmp_path), "--compare", "0.5,abc"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("config error: --compare: ")


def test_overflowing_comparison_is_config_error(tmp_path, capsys):
    # no utility survives a position of 1e200; the optimum's does
    args = ["evaluate", "--config", REFERENCE, "--out", str(tmp_path), "--paths", "20",
            "--compare", "0.5,1e200"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --compare: ")
    assert "'constant pi=1e+200'" in err and "float range" in err


def test_overflowing_optimum_is_a_market_error(tmp_path, capsys, monkeypatch):
    import regimeweave.cli as cli

    real = cli._evaluate_policies

    def huge_optimum(market, strategies, *args):
        # the optimum keeps its label at a position no utility survives
        huge = Strategy.constant(market, 1e200, label=strategies[0].label)
        return real(market, [huge, *strategies[1:]], *args)

    monkeypatch.setattr(cli, "_evaluate_policies", huge_optimum)
    args = ["evaluate", "--config", REFERENCE, "--out", str(tmp_path), "--paths", "20",
            "--compare", "1e200"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: market: ") and "'pi-hat (optimal)'" in err


@pytest.mark.parametrize("config", [REFERENCE, COPULA_CONFIG])
def test_report_lists_every_artifact_with_its_provenance(tmp_path, config):
    for command in ("compose", "solve", "simulate", "evaluate", "validate"):
        out = tmp_path / command
        extra = [] if command == "simulate" else ["--paths", "200"]
        assert main([command, "--config", config, "--out", str(out), *extra]) == 0
        report = json.loads((out / f"{command}_report.json").read_text())
        outputs, provenance = report["outputs"], report["provenance"]
        assert sorted(outputs.values()) == sorted(path.name for path in out.iterdir())
        assert provenance.keys() == outputs.keys()
        assert provenance["report"] == "closed-form"
        for key, name in outputs.items():
            if name.endswith(".csv"):
                comments, _, _ = read_csv(out / name)
                assert comments[1] == f"# provenance: {provenance[key]}"
            elif key != "report":
                assert json.loads((out / name).read_text())["provenance"] == provenance[key]
        if command == "compose":
            assert ("independent_diff" in outputs) == (config == COPULA_CONFIG)


def test_table_writer_golden_text(tmp_path):
    config = load_config(REFERENCE)
    out = _Artifacts("solve", config, tmp_path)
    out.table("golden", "units", "closed-form", ["label", "a", "b", "n", "flag"], [
        ["0 (eps=0,zeta=1)", "", None],
        [-0.0, float("nan"), 2.5],
        [np.float64(np.inf), 0.1, -1e-300],
        [3, np.int64(-4), 0],
        [True, False, True],
    ])
    assert (tmp_path / "golden.csv").read_text() == (
        "# units: units\n"
        "# provenance: closed-form\n"
        f"# config: {config.config_hash} seed: {config.seed}\n"
        "label,a,b,n,flag\n"
        '"0 (eps=0,zeta=1)",0,inf,3,True\n'
        ",nan,0.10000000000000001,-4,False\n"
        "None,2.5,-1e-300,0,True\n"
    )
    assert out.outputs == {"golden": "golden.csv"}


@pytest.mark.parametrize("first, second", [
    (["evaluate", "--compare", "0.5", "--paths", "40"], ["evaluate", "--paths", "40"]),
    (["simulate", "--x0", "2", "--paths", "3"], ["simulate", "--paths", "3"]),
])
def test_one_parser_serves_calls_in_turn(tmp_path, first, second):
    # main builds one parser a process: a flag of one call must not leak into the next,
    # so the second call writes what it writes after a fresh parser
    cli._build_parser.cache_clear()
    assert main([*first, "--config", REFERENCE, "--out", str(tmp_path / "first")]) == 0
    assert main([*second, "--config", REFERENCE, "--out", str(tmp_path / "reused")]) == 0
    cli._build_parser.cache_clear()
    assert main([*second, "--config", REFERENCE, "--out", str(tmp_path / "fresh")]) == 0
    names = sorted(path.name for path in (tmp_path / "fresh").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "reused").iterdir())
    for name in names:
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert (tmp_path / "first" / names[0]).read_bytes() != (tmp_path / "fresh" / names[0]).read_bytes()


class TestCompose:
    def test_artifacts_match_composition(self, tmp_path):
        assert main(["compose", "--config", REFERENCE, "--out", str(tmp_path)]) == 0
        comments, header, rows = read_csv(tmp_path / "compound_generator.csv")
        assert any("provenance" in line for line in comments)
        assert header[1] == "0 (eps=0,zeta=0)"
        matrix = np.array([[float(v) for v in row[1:]] for row in rows])
        document = json.loads(Path(REFERENCE).read_text())
        expected = compose_independent(
            validate_generator(document["chains"]["epsilon"]),
            validate_generator(document["chains"]["zeta"]),
        ).generator.rates
        assert_allclose(matrix, expected, rtol=0.0, atol=0.0)

        _, _, stationary_rows = read_csv(tmp_path / "stationary_distribution.csv")
        total = sum(float(row[1]) for row in stationary_rows)
        assert abs(total - 1.0) < 1e-12

    def test_copula_config_emits_diff(self, tmp_path):
        document = minimal_config()
        document["chains"]["composition"] = {
            "method": "copula",
            "correlation": 0.5,
            "fd_step": 1e-4,
        }
        config = load_config(dump_config(tmp_path, document))
        report = cmd_compose(config, tmp_path)
        assert (tmp_path / "independent_diff.csv").exists()
        assert report.results["max_abs_rate_diff"] > 0.0

    @pytest.mark.parametrize("chain", ["absorbing", "reducible"])
    def test_chain_without_unique_stationary_law_is_config_error(self, tmp_path, capsys, chain):
        if chain == "absorbing":
            path = absorbing_config(tmp_path)
        else:  # two closed classes, {0, 1} and {2, 3}
            document = json.loads(Path(REFERENCE).read_text())
            rates = [[-0.5, 0.5, 0, 0], [0.3, -0.3, 0, 0], [0, 0, -0.2, 0.2], [0, 0, 0.7, -0.7]]
            document["chains"] = {"compound": rates}
            path = dump_config(tmp_path, document)
        out = tmp_path / "out"
        assert main(["compose", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: chains: ")
        assert not any(out.iterdir())

    def test_rerun_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        main(["compose", "--config", REFERENCE, "--out", str(first)])
        main(["compose", "--config", REFERENCE, "--out", str(second)])
        for artifact in sorted(first.iterdir()):
            assert artifact.read_bytes() == (second / artifact.name).read_bytes()


class TestSolve:
    def test_rho_zero_config_hedge_column_zero(self, tmp_path):
        assert main(["solve", "--config", RHO_ZERO_CONFIG, "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "strategy.csv")
        hedge_columns = [name for name in header if name.startswith("hedge")]
        assert hedge_columns
        for name in hedge_columns:
            assert all(float(v) == 0.0 for v in column(header, rows, name))

    def test_regime_factors_end_at_one(self, tmp_path):
        assert main(["solve", "--config", RHO_ZERO_CONFIG, "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "regime_factors.csv")
        assert all(float(v) == pytest.approx(1.0, abs=1e-12) for v in rows[-1][1:])

    def test_rho0_case_emits_mc_factors(self, tmp_path):
        document = minimal_config()
        document["market"]["rho"] = 0.0
        document["case"] = "rho0"
        path = dump_config(tmp_path, document)
        code = main(
            ["solve", "--config", path, "--out", str(tmp_path / "out"),
             "--grid", "0:1:2,0:1:2,-0.5:0.5:2", "--paths", "60"]
        )
        assert code == 0
        comments, header, rows = read_csv(tmp_path / "out" / "value_factor_mc.csv")
        assert any("MC±stderr" in line for line in comments)
        # 2 times x 2 incomes x 4 regimes
        assert len(rows) == 16
        assert all(float(v) > 0.0 for v in column(header, rows, "estimate"))

    def test_rho0_solve_at_nonzero_correlation_is_a_case_mismatch(self, tmp_path):
        # the loader rejects such a config; one built past it must not sample a
        # zero-correlation value at correlation 0.35 either, and writes nothing
        config = replace(load_config(REFERENCE), case="rho0")
        out = tmp_path / "out"
        with pytest.raises(CaseMismatch, match="'rho0' requires zero correlation, got 0.35"):
            cli.cmd_solve(config, out)
        assert not out.exists() or not any(out.iterdir())

    def test_rho0_points_take_adjacent_key_ranges(self, tmp_path, monkeypatch):
        # 300 paths take 3 blocks of 128, so (t, regime) point p samples its regime factor
        # from stream ids 3p, 3p + 1 and 3p + 2, and each income y of the grid scales it by
        # exp(m(t) y)
        document = minimal_config()
        document["market"]["rho"] = 0.0
        document["case"] = "rho0"
        path = dump_config(tmp_path, document)
        seen = []

        def recording(market, t, regime, n_paths, rng):
            seen.append((rng.seed, rng.stream_id, -(-n_paths // montecarlo.BLOCK)))
            return estimate_regime_factor(market, t, regime, n_paths, rng)

        monkeypatch.setattr(cli, "estimate_regime_factor", recording)
        code = main(
            ["solve", "--config", path, "--out", str(tmp_path / "out"),
             "--grid", "0:1:2,0:1:2,-0.5:0.5:2", "--paths", "300"]
        )
        assert code == 0
        _, header, rows = read_csv(tmp_path / "out" / "value_factor_mc.csv")
        assert len(seen) == 8 and len(rows) == 16
        for previous, following in zip(seen, seen[1:]):
            assert following[1] == previous[1] + previous[2]  # adjacent, hence disjoint
        market, seed = load_config(path).market, document["numerics"]["seed"]
        assert seen == [(seed, 3 * p, 3) for p in range(8)]
        loading = solve_income_loading(market)
        labels = column(header, rows[:4], "regime")
        for row in rows:
            t, y = float(row[0]), float(row[1])
            regime = labels.index(row[2])
            p = [0.0, 1.0].index(t) * 4 + regime
            base = estimate_regime_factor(market, t, regime, 300, RngStream(seed, 3 * p))
            income = math.exp(loading.value(t) * y)
            assert float(column(header, [row], "estimate")[0]) == income * base.value
            assert float(column(header, [row], "stderr")[0]) == income * base.stderr

    def test_too_coarse_steps_are_config_error(self, tmp_path, capsys):
        # strong drift over a long horizon cannot be resolved with 8 steps
        document = json.loads(Path(REFERENCE).read_text())
        document["market"]["T"] = 5.0
        for regime in document["market"]["regimes"]:
            regime["alpha"], regime["sigma"] = 0.3, 0.1
        document["numerics"]["n_steps"] = 8
        path = dump_config(tmp_path, document)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: numerics.n_steps" in err
        assert not any((tmp_path / "out").iterdir())

    def test_overflowing_factors_are_config_error(self, tmp_path, capsys):
        # growth rates up to ~180 over a 40-year horizon: the factors overflow
        # at any step count, so the message names the market, not n_steps
        document = json.loads(Path(REFERENCE).read_text())
        document["market"]["T"] = 40.0
        path = dump_config(tmp_path, document)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "config error: market" in err
        assert "float range" in err
        assert "n_steps" not in err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "case, grid, code",
        [
            ("normal_income", "--grid=0:1.9:3", 2),
            ("normal_income", "--grid=-0.5:1:2", 2),
            ("normal_income", "--grid=0:1.5:3", 0),
            ("rho0", "--grid=0:1.5:2", 2),
            ("rho0", "--grid=-0.5:1:2", 2),
        ],
    )
    def test_t_axis_checked_against_horizon(self, tmp_path, capsys, case, grid, code):
        # horizon 1.5: the ODE factors reach it, the sampled factors stop short of it
        document = minimal_config()
        document["case"] = case
        document["market"]["rho"] = 0.0
        path = dump_config(tmp_path, document)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out"), grid]) == code
        if code:
            assert "config error: grid: t values must lie in [0, 1.5" in capsys.readouterr().err

    def test_overflowing_income_factor_is_config_error(self, tmp_path, capsys):
        # m(0) is about -1.84 on this market, so y = -1000 takes exp(m(t) y) past the float range
        document = minimal_config()
        document["market"]["rho"] = 0.0
        document["case"] = "rho0"
        path = dump_config(tmp_path, document)
        args = ["solve", "--config", path, "--out", str(tmp_path / "out"), "--grid", "0:1:2,0:1:2,-1000:0:2"]
        assert main(args) == 2
        assert "config error: grid: exp(m(t) y) overflows at t = 0, y = -1000" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("case", ["rho0", "normal_income"])
    def test_overflowing_wealth_term_is_config_error(self, tmp_path, capsys, case):
        # exp(-gamma x e^{r (T - t)}) leaves the float range at x = -1000
        document = minimal_config()
        document["market"]["rho"] = 0.0
        document["case"] = case
        path = dump_config(tmp_path, document)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", "--config", path, "--out", str(out), "--grid", "0:1:2,-1000:0:2"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: grid: the value leaves the float range at t = 0, x = -1000, y = -1\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("case", ["rho0", "normal_income"])
    def test_overflowing_factors_are_a_market_error_in_both_cases(self, tmp_path, capsys, case):
        # income volatility 100 takes every regime factor past the float range, sampled
        # or by the ODE; the sampled ones used to warn three times, come back inf and be
        # blamed on the grid
        document = json.loads(Path(RHO_ZERO_CONFIG).read_text())
        for regime in document["market"]["regimes"]:
            regime["delta"] = 100.0
        document["case"] = case
        path = dump_config(tmp_path, document)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: market: regime factors exceed the float range over horizon 2.0\n"
        assert not any(out.iterdir())

    def test_rerun_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", RHO_ZERO_CONFIG, "--out", str(first)])
        main(["solve", "--config", RHO_ZERO_CONFIG, "--out", str(second)])
        for artifact in sorted(first.iterdir()):
            assert artifact.read_bytes() == (second / artifact.name).read_bytes()


class TestSimulate:
    def test_paths_start_at_initial_state(self, tmp_path):
        code = main(
            ["simulate", "--config", REFERENCE, "--out", str(tmp_path),
             "--paths", "3", "--x0", "2.5", "--y0", "0.4"]
        )
        assert code == 0
        _, header, rows = read_csv(tmp_path / "paths.csv")
        assert len(set(column(header, rows, "path"))) == 3
        starts = [row for row in rows if row[header.index("t")] == "0"]
        assert all(float(row[header.index("wealth")]) == 2.5 for row in starts)
        assert all(float(row[header.index("income")]) == 0.4 for row in starts)

    def test_rows_are_the_library_paths_at_their_nodes(self, tmp_path):
        # one row a node per path, in the library's regimes and positions;
        # the horizon node holds no position
        config = load_config(REFERENCE)
        market = config.market
        assert main(["simulate", "--config", REFERENCE, "--out", str(tmp_path), "--paths", "3"]) == 0
        _, header, rows = read_csv(tmp_path / "paths.csv")
        n_steps = len(rows) // 3 - 1
        paths = simulate_wealth(
            market, optimal_strategy(market, config.case), 0.0, 1.0, 0.0, 0, 3, n_steps,
            RngStream(config.seed, 0),
        )
        for p, path in enumerate(paths):
            mine = [row for row in rows if row[header.index("path")] == str(p)]
            for name in ("t", "wealth", "income"):
                field = getattr(path, "times" if name == "t" else name)
                assert [float(cell) for cell in column(header, mine, name)] == field.tolist()
            assert [cell.split()[0] for cell in column(header, mine, "regime")] == [str(k) for k in path.regimes]
            positions = column(header, mine, "position")
            assert [float(cell) for cell in positions[:-1]] == path.positions.tolist()
            assert positions[-1] == ""

    def test_seed_override_changes_draws(self, tmp_path):
        main(["simulate", "--config", REFERENCE, "--out", str(tmp_path / "a"), "--paths", "2"])
        main(["simulate", "--config", REFERENCE, "--out", str(tmp_path / "b"), "--paths", "2",
              "--seed", "99"])
        main(["simulate", "--config", REFERENCE, "--out", str(tmp_path / "c"), "--paths", "2",
              "--seed", "99"])
        a = (tmp_path / "a" / "paths.csv").read_bytes()
        b = (tmp_path / "b" / "paths.csv").read_bytes()
        c = (tmp_path / "c" / "paths.csv").read_bytes()
        assert a != b
        assert b == c

    def test_regime_out_of_range_is_config_error(self, tmp_path, capsys):
        # checked with the other flags, before the output directory is made
        for i0 in ("9", "4", "-1"):
            out = tmp_path / i0
            assert main(["simulate", "--config", REFERENCE, "--out", str(out), "--i0", i0]) == 2
            assert capsys.readouterr().err == f"config error: --i0: must lie in [0, 4), got {i0}\n"
            assert not out.exists()

    def test_single_path(self, tmp_path):
        args = ["simulate", "--config", REFERENCE, "--out", str(tmp_path), "--paths", "1"]
        assert main(args) == 0
        _, header, rows = read_csv(tmp_path / "paths.csv")
        assert set(column(header, rows, "path")) == {"0"}

    def test_zero_paths_is_config_error(self, tmp_path, capsys):
        args = ["simulate", "--config", REFERENCE, "--out", str(tmp_path), "--paths", "0"]
        assert main(args) == 2
        assert "--paths: must be at least 1, got 0" in capsys.readouterr().err

    def test_fewer_paths_are_a_prefix(self, tmp_path):
        for n in ("3", "8"):
            args = ["simulate", "--config", REFERENCE, "--out", str(tmp_path / n), "--paths", n]
            assert main(args) == 0
        _, header, fewer = read_csv(tmp_path / "3" / "paths.csv")
        _, _, more = read_csv(tmp_path / "8" / "paths.csv")
        assert fewer == [row for row in more if int(row[header.index("path")]) < 3]

    def test_fine_paths_agree_with_the_evaluation(self, tmp_path):
        # simulate's pathwise wealth at fine steps scores the optimal policy
        # within sampling error of evaluate; evaluate reads the same variates
        # but conditions each first jump to land before the horizon, so its
        # chain paths are not simulate's
        config = load_config(REFERENCE)
        market = config.market
        paths = simulate_wealth(
            market, optimal_strategy(market, config.case), 0.0, 1.0, 0.0, 0, 2000, 512,
            RngStream(config.seed, 0),
        )
        sample = utility(np.array([path.wealth[-1] for path in paths]), market.risk_aversion)
        sample_stderr = sample.std(ddof=1) / np.sqrt(len(sample))
        report = cmd_evaluate(config, tmp_path, n_paths=2000)
        scored = report.results["policies"]["pi-hat (optimal)"]
        assert scored["stderr"] < sample_stderr / 10.0
        combined = np.hypot(sample_stderr, scored["stderr"])
        assert abs(sample.mean() - scored["estimate"]) < 4.0 * combined


@pytest.mark.parametrize("command", ["solve", "evaluate", "validate"])
def test_standard_errors_need_two_paths(tmp_path, capsys, command):
    args = [command, "--config", REFERENCE, "--out", str(tmp_path), "--paths", "1"]
    assert main(args) == 2
    assert "--paths: must be at least 2, got 1" in capsys.readouterr().err


class TestEvaluate:
    def test_comparison_rows_share_prediction(self, tmp_path):
        code = main(
            ["evaluate", "--config", REFERENCE, "--out", str(tmp_path),
             "--paths", "200", "--compare", "0.5,1.0"]
        )
        assert code == 0
        _, header, rows = read_csv(tmp_path / "evaluation.csv")
        assert len(rows) == 3
        assert rows[0][0] == "pi-hat (optimal)"
        predictions = set(column(header, rows, "predicted_value"))
        assert len(predictions) == 1
        assert all(float(v) < 0.0 for v in column(header, rows, "estimate"))

    def test_rows_equal_separate_policy_evaluations(self, tmp_path):
        # one shared simulation of the scenarios scores every policy exactly
        # as its own evaluate_policy call on the same stream would
        config = load_config(dump_config(tmp_path, minimal_config()))
        report = cmd_evaluate(
            config, tmp_path, wealth_start=0.7, income_start=0.1, regime=2,
            comparisons=(0.5, 1.0), n_paths=300,
        )
        market = config.market
        policies = {
            "pi-hat (optimal)": optimal_strategy(market, config.case),
            "constant pi=0.5": Strategy.constant(market, 0.5),
            "constant pi=1": Strategy.constant(market, 1.0),
        }
        assert list(report.results["policies"]) == list(policies)
        for name, strategy in policies.items():
            est = evaluate_policy(
                market, strategy, 0.0, 0.7, 0.1, 2, 300, RngStream(config.seed, 0)
            )
            assert report.results["policies"][name] == {
                "estimate": est.value, "stderr": est.stderr, "control_mean_gap": est.mean_gap,
            }


class TestValidate:
    def test_reference_config_passes(self, tmp_path):
        assert main(["validate", "--config", REFERENCE, "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "validation.csv")
        assert column(header, rows, "status") == ["pass"] * len(rows)
        names = column(header, rows, "check")
        for expected in ("kronecker_oracle", "h_mc_vs_ode", "policy_vs_value",
                         "hjb_residual", "rho_zero_hedge", "rho_zero_value"):
            assert expected in names

    def test_copula_config_checks_its_own_chain(self, tmp_path):
        # the composition rows test the chain the config runs: a copula chain keeps each
        # component's law to rounding, and the rows of the independent composition are skipped
        assert main(["validate", "--config", COPULA_CONFIG, "--out", str(tmp_path), "--paths", "500"]) == 0
        _, header, rows = read_csv(tmp_path / "validation.csv")
        by_name = {row[header.index("check")]: dict(zip(header, row)) for row in rows}
        assert len(by_name) == 8 and all(row["status"] == "pass" for row in by_name.values())
        marginal = by_name["marginal_preservation"]
        assert float(marginal["margin"]) <= 1e-14 and float(marginal["tolerance"]) == 1e-10
        for name in ("kronecker_oracle", "simultaneous_jumps_zero"):
            assert by_name[name]["detail"].startswith("skipped: ")

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        import regimeweave.cli as cli

        real = cmd_validate

        def broken(config, out_dir, n_paths=None):
            report = real(config, out_dir, n_paths=n_paths)
            results = dict(report.results)
            results["n_failed"] = 1
            object.__setattr__(report, "results", results)
            return report

        monkeypatch.setattr(cli, "cmd_validate", broken)
        code = main(["validate", "--config", RHO_ZERO_CONFIG, "--out", str(tmp_path),
                     "--paths", "50"])
        assert code == 1

    @pytest.mark.parametrize("paths", ["100", "2000"])
    def test_absorbing_regime_passes(self, tmp_path, paths):
        # every path from the absorbing regime 0 is alike, so its stderr is 0 or rounding
        # noise: the Monte Carlo gaps are measured against the factor solve's accuracy there
        path = absorbing_config(tmp_path)
        assert main(["validate", "--config", path, "--out", str(tmp_path / "out"), "--paths", paths]) == 0
        _, header, rows = read_csv(tmp_path / "out" / "validation.csv")
        assert column(header, rows, "status") == ["pass"] * len(rows)

    def test_config_error_exit_code(self, tmp_path):
        document = minimal_config()
        document["market"]["rho"] = 1.5
        path = dump_config(tmp_path, document)
        assert main(["validate", "--config", path, "--out", str(tmp_path)]) == 2
        assert main(["validate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2


def test_validate_key_namespaces_are_disjoint():
    # each check's keys: its first id, then one per block of paths; the ids
    # are affine in the regime, so the extreme regimes bound every range
    blocks, regimes = 2**32, 2**24
    first = {
        "policy": _validate_stream_id("policy"),
        "factor": _validate_stream_id("factor", 0),
        "rho0": _validate_stream_id("rho0"),
    }
    for regime in (0, 1, regimes // 2, regimes - 2):
        step = _validate_stream_id("factor", regime + 1) - _validate_stream_id("factor", regime)
        assert step >= blocks
    last_factor = _validate_stream_id("factor", regimes - 1) + blocks - 1
    assert first["policy"] + blocks - 1 < first["factor"]
    assert last_factor < first["rho0"]
    assert first["rho0"] + blocks - 1 < 2**64
    RngStream(1, first["rho0"] + blocks - 1)  # a valid key
