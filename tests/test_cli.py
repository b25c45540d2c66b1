"""Tests for the command-line layer: config parsing, reports, catalog, plots."""
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import qntl
from qntl.cli.catalog import filter_catalog, load_catalog
from qntl.cli.config import (
    ConfigError, as_float, choice, float_list, int_list, names, parse_range, resolve_config,
)
from qntl.cli.main import main
from qntl.cli.report import ExperimentReport, format_cell, rows_to_csv
from qntl.cli.runners import EXPERIMENTS

from oracles import catalog_sha256

GOLDEN_PINS = Path(__file__).parent / "data" / "rows.sha256"
PINNED_SHA = Path(__file__).parent / "data" / "catalog.sha256"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QNTL_SEED", raising=False)


# ---------------------------------------------------------------- start-up

def _source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(qntl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# The layers a run may load on demand: physics, and the network layer past
# the topology family names the registry reads.
PHYSICS_MODULES = ("qntl.quantum", "qntl.photonics", "qntl.qkd", "qntl.attacks")
NETWORK_MODULES = ("qntl.network.dos", "qntl.network.paths", "qntl.network.experiments")


def _fresh_modules(code):
    """The module names a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport sys\nprint(' '.join(sys.modules))\n"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_source_env(), capture_output=True, text=True,
        check=True,
    )
    return set(result.stdout.split())


def _loaded(modules, unwanted):
    return sorted(m for m in modules if any(m == u or m.startswith(u + ".") for u in unwanted))


def test_import_loads_no_scipy_or_networkx():
    # What every `qntl run` imports, in a fresh interpreter.  The registry
    # alone also needs none of the command line's parser, reports or plots,
    # and no layer an experiment runs.
    modules = _fresh_modules("import qntl\nfrom qntl.cli.runners import EXPERIMENTS")
    unwanted = ("scipy", "networkx", "argparse", "qntl.cli.main", "qntl.cli.plotdata",
                "qntl.cli.svg", "qntl.cli.catalog", "qntl.cli.report",
                *PHYSICS_MODULES, *NETWORK_MODULES)
    assert _loaded(modules, unwanted) == []


def _run_all(*argvs):
    lines = ["import contextlib, io", "from qntl.cli.main import main"]
    for argv in argvs:
        lines += ["with contextlib.redirect_stdout(io.StringIO()):",
                  f"    assert main({['run', *argv]!r}) == 0"]
    return _fresh_modules("\n".join(lines))


def test_dos_run_loads_no_physics_module():
    modules = _run_all(["dos", "--duration", "1000"])
    assert "qntl.network.dos" in modules
    assert _loaded(modules, PHYSICS_MODULES) == []


def test_pns_run_loads_no_qkd_photonics_or_network_module():
    modules = _run_all(["pns", "--pulses", "10000"])
    assert "qntl.attacks" in modules
    assert _loaded(modules, ("qntl.qkd", "qntl.photonics", *NETWORK_MODULES)) == []


def test_no_run_loads_the_catalog_or_plot_stack():
    modules = _run_all(
        ["pns", "--pulses", "10000"], ["trojan", "--photons", "1000"],
        ["bb84", "--rounds", "200"], ["e91", "--rounds", "200"], ["relay"],
        ["decoy", "--pulses", "1000"], ["qec", "--blocks", "100"],
        ["interlock", "--trials", "100"],
        ["topology-decay", "--kinds", "grid", "--trials", "1", "--pairs", "2"],
        ["diversion", "--pairs", "5"], ["dos", "--duration", "1000"],
    )
    assert set(PHYSICS_MODULES + NETWORK_MODULES) <= modules
    unwanted = ("qntl.cli.plotdata", "qntl.cli.svg", "qntl.cli.catalog", "xml.sax")
    assert _loaded(modules, unwanted) == []


def test_help_and_plot_load_no_network_layer(tmp_path):
    # The usage text and a plot read the figure recipes, which share only a
    # constant with the decay experiment, never the code that runs it.
    report, out_dir = tmp_path / "report.json", tmp_path / "plots"
    main(["run", "topology-decay", "--kinds", "grid", "--fractions", "0,0.2",
          "--trials", "1", "--pairs", "2", "--seed", "7", "--format", "json",
          "--out", str(report)])
    modules = _fresh_modules(
        "import contextlib, io\n"
        "from qntl.cli.main import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['--help']) == 0\n"
        f"    assert main(['plot', 'fig6a', '--report', {str(report)!r}, "
        f"'--out-dir', {str(out_dir)!r}, '--svg']) == 0\n"
    )
    assert "qntl.cli.plotdata" in modules and (out_dir / "fig6a.svg").is_file()
    assert _loaded(modules, NETWORK_MODULES) == []


def test_layers_resolve_on_first_attribute_access():
    modules = _fresh_modules(
        "import qntl\n"
        "assert qntl.qkd.__name__ == 'qntl.qkd'\n"
        "route = qntl.network.route\n"
        "from qntl.network.paths import route as home\n"
        "assert route is home\n"
        "for owner in (qntl, qntl.network):\n"
        "    try:\n"
        "        owner.no_such_name\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(owner)\n"
    )
    assert {"qntl.qkd", "qntl.network.paths"} <= modules
    assert _loaded(modules, ("qntl.network.dos", "qntl.network.experiments")) == []


def test_every_public_name_resolves_to_its_home():
    import qntl.network as network

    assert sorted(network._HOME) == sorted(network.__all__)
    for name, home in network._HOME.items():
        module = importlib.import_module(f"qntl.network.{home}")
        assert getattr(network, name) is getattr(module, name), name
    for name in qntl.__all__:
        getattr(qntl, name)


def test_python_dash_m_qntl_runs_the_cli(capsys):
    argv = ["run", "bb84", "--rounds", "200", "--seed", "3"]
    result = subprocess.run(
        [sys.executable, "-m", "qntl", *argv], env=_source_env(), capture_output=True
    )
    assert result.returncode == 0
    assert result.stderr == b""
    assert main(argv) == 0
    assert result.stdout.decode("utf-8") == capsys.readouterr().out


# ---------------------------------------------------------------- parsing

def test_parse_range_forms():
    values = parse_range("0:0.9:0.1")
    assert len(values) == 9
    assert values[0] == 0.0 and values[-1] == 0.8
    assert values[3] == 0.3  # accumulation noise must be rounded away
    assert parse_range("5") == [5.0]
    assert parse_range("1,2.5,3") == [1.0, 2.5, 3.0]


def test_parse_range_rejections():
    for bad in ("", ",", "1:2", "a:b:c", "0:1:0", "0:1:-0.1", "2:1:0.5", "1:1:1", "x,y"):
        with pytest.raises(ConfigError):
            parse_range(bad)


@pytest.mark.parametrize("text, part", [
    ("0:nan:0.1", "stop"), ("nan:1:0.1", "start"), ("0:1:nan", "step"),
    ("0:inf:1", "stop"), ("-inf:0:1", "start"), ("0:1:inf", "step"),
])
def test_parse_range_rejects_non_finite_parts(text, part):
    # Checked before the expansion, which would otherwise run to its value cap.
    with pytest.raises(ConfigError, match=f"range {part} must be finite"):
        parse_range(text)


def test_parse_range_size_limit():
    # The expansion stops at a fixed 10,000 values, before it can exhaust
    # memory: a range of exactly that many parses, a larger one fails at once.
    values = parse_range("0:1:0.0001")
    assert len(values) == 10_000 and values[-1] == 0.9999
    assert len(parse_range("0:10000:1")) == 10_000
    for huge in ("0:10001:1", "0:1:1e-9"):
        with pytest.raises(ConfigError, match="past 10000 values"):
            parse_range(huge)


def test_int_list():
    assert int_list("2:8:2") == [2, 4, 6]
    assert int_list("1,2") == [1, 2]
    assert int_list([2.0, 8]) == [2, 8]
    for bad in ("0.5", [0.5], [], [float("inf")]):
        with pytest.raises(ConfigError):
            int_list(bad)


def test_names():
    kinds = names("kinds", choice("kind", ("grid", "tree")))
    assert kinds("grid, tree") == ["grid", "tree"]
    assert kinds([" tree", "grid"]) == ["tree", "grid"]
    for bad in (" , ", [], "grid,ring", "grid,grid"):
        with pytest.raises(ConfigError):
            kinds(bad)
    # with a key, tokens that differ as text can still clash
    numbers = names("numbers", float, key=lambda value: value)
    assert numbers("1,2") == ["1", "2"]
    with pytest.raises(ConfigError, match="duplicate numbers"):
        numbers("1,1.0")


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_echoed_config_resolves_to_the_same_params(name):
    # A report's config block is re-runnable: fed back as a scenario file's
    # params and seed, it resolves to the same params and the same JSON.
    specs = EXPERIMENTS[name].specs
    config = resolve_config(name, specs, {}, None, None, None, "csv", None)
    echoed = json.loads(json.dumps(config.echo()))
    again = resolve_config(name, specs, {}, echoed["params"], None, echoed["seed"], "csv", None)
    assert again.params == config.params
    assert json.dumps(again.echo()) == json.dumps(config.echo())


# ---------------------------------------------------------------- reports

def test_format_cell_is_plain_decimal():
    assert format_cell(np.float64(0.25)) == "0.25"  # not the numpy repr
    assert format_cell(0.1 + 0.2) == "0.30000000000000004"  # honest round trip
    assert format_cell(True) == "1"
    assert format_cell(7) == "7"
    assert format_cell("x") == "x"


def test_rows_to_csv():
    text = rows_to_csv(("a", "b"), [(1, 2.5), (3, np.float64(0.5))])
    assert text == "a,b\n1,2.5\n3,0.5\n"
    with pytest.raises(ValueError):
        rows_to_csv(("a", "b"), [(1,)])


def test_report_json_round_trip():
    report = ExperimentReport(
        config={"experiment": "pns", "seed": 3, "params": {}},
        columns=("k", "v"),
        rows=((1, 0.5), (2, 0.25)),
        summary={"total": 2},
        duration_ms=1.25,
    )
    again = ExperimentReport.from_json(report.to_json())
    assert again.columns == report.columns
    assert again.rows == report.rows
    assert again.summary == {"total": 2}
    with pytest.raises(ValueError):
        ExperimentReport.from_json(json.dumps({"config": {}, "rows": []}))


# ---------------------------------------------------------------- run command

def run_json_report(tmp_path, name, *args):
    out = tmp_path / "report.json"
    code = main(["run", name, "--format", "json", "--out", str(out), *args])
    assert code == 0
    return json.loads(out.read_text())


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "pns.csv"
    code = main(
        ["run", "pns", "--pulses", "10000", "--strategies", "no-eve", "--seed", "1",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "series,record,bin,value"
    assert any(line.startswith("baseline,count,") for line in lines[1:])


def test_run_is_byte_identical(tmp_path):
    argv = ["run", "pns", "--pulses", "10000", "--strategies", "no-eve,always-minus-one",
            "--seed", "42"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_rejects_unknown_experiment_and_flags(tmp_path, capsys):
    assert main(["run", "warp-drive"]) == 2
    assert "warp-drive" in capsys.readouterr().err
    assert main(["run", "pns", "--bogus", "1"]) == 2
    assert main(["run"]) == 2
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv, key",
    [
        (["pns", "--pulses", "abc"], "pulses"),
        (["pns", "--strategies", "random-1.5"], "strategies"),
        (["trojan", "--policies", "fixed-7"], "policies"),
        (["decoy", "--attack", "random-2"], "attack"),
        (["qec", "--modes", "iid,bogus"], "modes"),
        (["qec", "--modes", "iid,iid"], "modes"),
        (["diversion", "--kind", "all"], "kind"),
        (["interlock", "--message-bits", ","], "message_bits"),
        (["interlock", "--message-bits", "inf"], "message_bits"),
        (["qec", "--flip-probs", ","], "flip_probs"),
        (["topology-decay", "--fractions", ","], "fractions"),
        (["decoy", "--decoy-mus", ","], "decoy_mus"),
        # a dict stands for a scenario file's params block
        (["pns", {"strategies": []}], "strategies"),
        (["pns", {"pulses": 1e999}], "pulses"),
        (["decoy", {"decoy_mus": []}], "decoy_mus"),
        (["qec", {"modes": []}], "modes"),
        # two spellings of one phase share the label that keys the rows
        (["trojan", "--policies", "fixed-0.5,fixed-.5"], "policies"),
        # NaN slips through every range check of the form x <= 0
        (["bb84", "--abort-threshold", "nan"], "abort_threshold"),
        (["e91", "--detection-margin", "nan"], "detection_margin"),
        (["decoy", "--threshold", "nan"], "threshold"),
        (["dos", "--patience", "nan"], "patience"),
        (["diversion", "--response-time-scale", "nan"], "response_time_scale"),
        (["decoy", "--decoy-mus", "0.1,nan"], "decoy_mus"),
        (["dos", {"patience": float("nan")}], "patience"),
        # decoy takes exactly the pns tokens; "no attack" is no-eve
        (["decoy", "--attack", "none"], "attack"),
    ],
)
def test_bad_value_diagnostic_names_the_key(argv, key, tmp_path, capsys):
    if isinstance(argv[-1], dict):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"params": argv[-1]}))
        argv = [*argv[:-1], "--config", str(cfg)]
    assert main(["run", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qntl: bad value for '{key}': ")
    assert len(err.splitlines()) == 1


def test_decoy_vacuum_is_a_zero_intensity_and_no_eve_is_no_attack(tmp_path, capsys):
    # The pinned default rows (2000 pulses, seed 7) hold signal 0.5, decoy
    # 0.1 and a vacuum class: a 0 in --decoy-mus is that class, and no-eve
    # draws the honest channel's clicks.
    pins = dict(reversed(line.split()) for line in GOLDEN_PINS.read_text().splitlines())
    base = ["--pulses", "2000", "--seed", "7"]
    out = tmp_path / "rows.csv"
    for extra in ([], ["--decoy-mus", "0.1,0"], ["--attack", "no-eve"]):
        assert main(["run", "decoy", *base, *extra, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pins["decoy"], extra
    report = run_json_report(tmp_path, "decoy", *base, "--attack", "no-eve")
    assert report["summary"]["eavesdrop_detected"] is False
    assert main(["run", "decoy", "--vacuum", "true"]) == 2
    assert "--vacuum" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"vacuum": True}}))
    assert main(["run", "decoy", "--config", str(cfg)]) == 2
    assert "'vacuum'" in capsys.readouterr().err


def test_infinite_float_values_still_parse(capsys):
    assert as_float("inf") == math.inf and as_float("-inf") == -math.inf
    assert float_list("0.1,inf") == [0.1, math.inf]
    argv = ["run", "dos", "--duration", "2000", "--patience", "inf", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["legit_dropped"] == 0


def test_run_runtime_failure_is_exit_3(tmp_path, capsys):
    # pulses parses fine but the experiment itself refuses tiny samples
    assert main(["run", "pns", "--pulses", "100"]) == 3
    assert "qntl: ValueError" in capsys.readouterr().err
    # A negative last bin is refused by name, not by an index error.
    assert main(["run", "pns", "--pulses", "10000", "--max-bin", "-1"]) == 3
    assert capsys.readouterr().err == "qntl: ValueError: max_bin must be >= 0, got -1\n"


@pytest.mark.parametrize("flag, value, name", [
    ("--embryonic-timeout", "-5", "embryonic_timeout_ms"),
    ("--service", "-500", "mean_service_ms"),
    ("--legit-rate", "-3", "legit_rate_per_s"),
    ("--legit-rate", "inf", "legit_rate_per_s"),
    ("--duration", "inf", "duration_ms"),
])
def test_dos_rejects_bad_inputs_with_exit_3(flag, value, name, capsys):
    assert main(["run", "dos", "--duration", "5000", flag, value, "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("qntl: ValueError: ") and name in err


@pytest.mark.parametrize("flag, key", [
    ("--error-rate-range", "error_rate_range"),
    ("--response-time-range", "response_time_range"),
], ids=["error-rate", "response-time"])
def test_diversion_rejects_an_infinite_quality_range(flag, key, capsys):
    for value in ("0,inf", "-1,1"):
        assert main(["run", "diversion", "--pairs", "5", f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qntl: bad value for {key!r}: ") and value in err


def test_config_file_unknown_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "pns", "params": {"bogus": 1}}))
    assert main(["run", "pns", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err
    cfg.write_text(json.dumps({"experimnt": "pns"}))
    assert main(["run", "pns", "--config", str(cfg)]) == 2
    assert "experimnt" in capsys.readouterr().err
    cfg.write_text("{not json")
    assert main(["run", "pns", "--config", str(cfg)]) == 2


def test_config_file_experiment_mismatch(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "trojan"}))
    assert main(["run", "pns", "--config", str(cfg)]) == 2
    assert "trojan" in capsys.readouterr().err


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "pns", "seed": 5}))
    base = ["--pulses", "10000", "--strategies", "no-eve"]

    monkeypatch.setenv("QNTL_SEED", "123")
    report = run_json_report(tmp_path, "pns", *base)
    assert report["config"]["seed"] == 123  # env fills the gap

    report = run_json_report(tmp_path, "pns", "--config", str(cfg), *base)
    assert report["config"]["seed"] == 5  # file beats env

    report = run_json_report(tmp_path, "pns", "--config", str(cfg), "--seed", "9", *base)
    assert report["config"]["seed"] == 9  # flag beats file

    monkeypatch.delenv("QNTL_SEED")
    report = run_json_report(tmp_path, "pns", *base)
    assert report["config"]["seed"] == 0  # default


def test_seed_validation(tmp_path, capsys, monkeypatch):
    assert main(["run", "pns", "--seed", "abc"]) == 2
    assert main(["run", "pns", "--seed", "-1"]) == 2
    monkeypatch.setenv("QNTL_SEED", "not-a-number")
    assert main(["run", "pns", "--pulses", "10000"]) == 2


def test_config_file_params_merge_with_flag_override(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {"experiment": "pns",
             "params": {"pulses": 10000, "strategies": ["no-eve"], "mu": 2.0}}
        )
    )
    report = run_json_report(tmp_path, "pns", "--config", str(cfg), "--mu", "4.0")
    assert report["config"]["params"]["mu"] == 4.0
    assert report["config"]["params"]["pulses"] == 10000
    assert report["summary"]["mean_photons"] == 4.0


# ---------------------------------------------------------------- catalog

def test_catalog_hash_is_pinned():
    assert catalog_sha256() == PINNED_SHA.read_text().strip()


def test_catalog_shape():
    entries = load_catalog()
    assert len(entries) == 11
    assert len(filter_catalog(entries, "network")) == 3
    pns = [e for e in entries if e.attack == "PNS"]
    assert len(pns) == 1 and pns[0].layer == "Physical" and pns[0].readiness == "Low"


def test_catalog_command_text(capsys):
    assert main(["catalog"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["Layer", "Attack", "Requirements", "Readiness"]
    assert len(lines) == 2 + 11
    assert main(["catalog", "--layer", "network"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + 3


def test_catalog_command_json(capsys):
    assert main(["catalog", "--format", "json", "--layer", "Physical"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert [e["attack"] for e in entries] == ["PNS", "Trojan-Horse", "Phase-Remapping"]


def test_catalog_unknown_layer(capsys):
    assert main(["catalog", "--layer", "transport"]) == 2
    assert "transport" in capsys.readouterr().err


# ---------------------------------------------------------------- plotting

def test_plot_pns_series(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(
        ["run", "pns", "--pulses", "10000", "--strategies", "no-eve,always-minus-one",
         "--seed", "3", "--format", "json", "--out", str(report)]
    ) == 0
    out_dir = tmp_path / "plots"
    assert main(["plot", "fig3", "--report", str(report), "--out-dir", str(out_dir)]) == 0
    written = sorted(p.name for p in out_dir.iterdir())
    # three count series (baseline + both strategies) and two z-score series
    assert len(written) == 5
    assert sum("-z" in name for name in written) == 2
    baseline = out_dir / "fig3-baseline.csv"
    assert baseline.read_text().splitlines()[0] == "bin,count"
    assert (out_dir / "fig3-no-eve-z.csv").read_text().splitlines()[0] == "bin,zscore"
    paths_printed = capsys.readouterr().out.strip().splitlines()
    assert len(paths_printed) == 5


def test_plot_svg_output(tmp_path):
    report = tmp_path / "report.json"
    main(["run", "trojan", "--photons", "2000", "--policies", "no-shift",
          "--seed", "1", "--format", "json", "--out", str(report)])
    out_dir = tmp_path / "plots"
    assert main(["plot", "fig4", "--report", str(report), "--out-dir", str(out_dir),
                 "--svg"]) == 0
    svgs = list(out_dir.glob("*.svg"))
    assert len(svgs) == 1
    assert svgs[0].read_text().lstrip().startswith("<svg")


def test_svg_text_escapes_as_xml_sax_did(monkeypatch):
    # Oracle: the standard library's XML escape that the charts used before.
    from xml.sax.saxutils import escape as sax_escape

    from qntl.cli import svg

    text = """Eve's "probe" & <tap> > 0"""
    chart = svg.LineChart(
        title=text, x_label=text + " x", y_label=text + " y",
        series=(svg.Series(text, ((0.0, 1.0), (1.0, 3.0))), svg.Series("b & c", ((0.5, 2.0),))),
    )
    rendered = svg.render_line_chart(chart)
    assert "Eve's \"probe\" &amp; &lt;tap&gt; &gt; 0" in rendered
    monkeypatch.setattr(svg, "_escape", sax_escape)
    assert svg.render_line_chart(chart) == rendered


@pytest.mark.parametrize("log_y", [False, True], ids=["linear", "log"])
def test_svg_one_point_chart_widens_its_bounds(log_y):
    # A one-fraction decay plot has equal x (and y) bounds; the chart widens
    # each to a unit range, so both axes still get ticks.
    from qntl.cli import svg

    chart = svg.LineChart(title="t", x_label="x", y_label="y",
                          series=(svg.Series("s", ((0.0, 5.0),)),), log_y=log_y)
    labels = re.findall(r">([^<]*)</text>", svg.render_line_chart(chart))
    y_ticks = ["1e1"] if log_y else ["0", "2", "4", "6"]
    assert labels == ["t", "0", "0.2", "0.4", "0.6", "0.8", "1", *y_ticks, "x", "y", "s"]


@pytest.mark.parametrize("run_args, figure, column, name", [
    (["pns", "--pulses", "10000", "--strategies", "no-eve"], "fig3", "series", "baseline"),
    (["topology-decay", "--kinds", "grid", "--fractions", "0,0.2", "--trials", "2",
      "--pairs", "4"], "fig6b", "kind", "grid"),
], ids=["pns-fig3", "decay-fig6b"])
def test_plot_svg_escapes_names_from_the_report(tmp_path, run_args, figure, column, name):
    # Series names, and the family in a per-family chart's title, are read
    # from the report file: markup characters in them must not break the SVG.
    report = tmp_path / "report.json"
    assert main(["run", *run_args, "--seed", "1", "--format", "json", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    for row in doc["rows"]:
        if row[column] == name:
            row[column] = "base & <line>"
    report.write_text(json.dumps(doc))
    out_dir = tmp_path / "plots"
    assert main(["plot", figure, "--report", str(report), "--out-dir", str(out_dir),
                 "--svg"]) == 0
    svgs = sorted(out_dir.glob("*.svg"))
    assert svgs
    texts = [t.text for svg in svgs for t in ET.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert any("base & <line>" in text for text in texts)


def test_plot_decay_figures(tmp_path):
    report = tmp_path / "report.json"
    main(["run", "topology-decay", "--kinds", "grid", "--fractions", "0,0.2",
          "--trials", "2", "--pairs", "4", "--seed", "7", "--format", "json",
          "--out", str(report)])
    agg_dir, dist_dir = tmp_path / "a", tmp_path / "b"
    assert main(["plot", "fig6a", "--report", str(report), "--out-dir", str(agg_dir)]) == 0
    assert [p.name for p in agg_dir.iterdir()] == ["fig6a-grid.csv"]
    assert main(["plot", "fig6b", "--report", str(report), "--out-dir", str(dist_dir)]) == 0
    names = sorted(p.name for p in dist_dir.iterdir())
    assert names and all(name.startswith("fig6b-grid-d") for name in names)


def test_plot_decay_figures_with_svg(tmp_path):
    report = tmp_path / "report.json"
    main(["run", "topology-decay", "--kinds", "grid,tree", "--fractions", "0,0.2",
          "--trials", "2", "--pairs", "4", "--seed", "7", "--format", "json",
          "--out", str(report)])
    agg_dir, dist_dir = tmp_path / "a", tmp_path / "b"
    assert main(["plot", "fig6a", "--report", str(report), "--out-dir", str(agg_dir),
                 "--svg"]) == 0
    assert sorted(p.name for p in agg_dir.iterdir()) == [
        "fig6a-grid.csv", "fig6a-tree.csv", "fig6a.svg"]
    for name in ("fig6a-grid.csv", "fig6a-tree.csv"):
        header = (agg_dir / name).read_text().splitlines()[0]
        assert header == "fraction,mean_count"
    assert (agg_dir / "fig6a.svg").read_text().lstrip().startswith("<svg")

    assert main(["plot", "fig6b", "--report", str(report), "--out-dir", str(dist_dir),
                 "--svg"]) == 0
    csvs = sorted(p.name for p in dist_dir.glob("*.csv"))
    assert any(n.startswith("fig6b-grid-d") for n in csvs)
    assert any(n.startswith("fig6b-tree-d") for n in csvs)
    assert all(n.startswith(("fig6b-grid-d", "fig6b-tree-d")) for n in csvs)
    for name in csvs:
        header = (dist_dir / name).read_text().splitlines()[0]
        assert header == "fraction,mean_count"
    svgs = sorted(p.name for p in dist_dir.glob("*.svg"))
    assert svgs == ["fig6b-grid.svg", "fig6b-tree.svg"]
    assert len(list(dist_dir.iterdir())) == len(csvs) + len(svgs)


def test_plot_mismatch_and_unknown_figure(tmp_path, capsys):
    report = tmp_path / "report.json"
    main(["run", "pns", "--pulses", "10000", "--strategies", "no-eve",
          "--format", "json", "--out", str(report)])
    assert main(["plot", "fig4", "--report", str(report)]) == 2
    assert "fig4" in capsys.readouterr().err
    assert main(["plot", "fig9", "--report", str(report)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{}")
    assert main(["plot", "fig3", "--report", str(broken)]) == 2
    assert main(["plot", "fig3", "--report", str(tmp_path / "missing.json")]) == 2


# ---------------------------------------------------------------- entry point

def test_usage_and_exit_codes(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "usage: qntl" in out and "topology-decay" in out
    assert main(["--help"]) == 0
