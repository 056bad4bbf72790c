import json
import os

import pytest

import hybridte as ht
from hybridte.cli import main
from hybridte.metrics import CSV_HEADER

SCENARIO = os.path.join(os.path.dirname(__file__), "..", "scenarios", "scenario1.json")
DEGENERATE = os.path.join(os.path.dirname(__file__), "..", "scenarios", "degenerate.json")


def test_run_writes_outputs_and_summary(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["run", SCENARIO, "--out", str(out), "--seed", "7"])
    assert code == 0
    for name in ("metrics.csv", "events.log", "config.echo"):
        assert (out / name).exists(), name
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 20  # header + one row per slot
    assert all(line.split(",")[1] == "ffr" for line in lines[1:])
    echo = json.loads((out / "config.echo").read_text())
    assert echo["seed"] == 7
    stdout = capsys.readouterr().out
    assert "scheme=ffr seed=7" in stdout
    assert "final slot 19" in stdout


def test_run_scheme_override(tmp_path, capsys):
    out = tmp_path / "res"
    assert main(["run", SCENARIO, "--out", str(out),
                 "--scheme", "shortest_path"]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[1] == "shortest_path" for r in rows)
    events = (out / "events.log").read_text()
    assert "event=reroute" not in events


def test_run_dump_lp_writes_instances(tmp_path):
    out = tmp_path / "res"
    assert main(["run", DEGENERATE, "--out", str(out),
                 "--scheme", "exact", "--dump-lp"]) == 0
    dumps = sorted(os.listdir(out / "lp"))
    assert dumps, "periodic triggers must dump at least one instance"
    assert all(name.startswith("slot") and name.endswith(".json") for name in dumps)
    doc = json.loads((out / "lp" / dumps[0]).read_text())
    assert doc["type"] == "flow_rerouting"
    assert doc["solution"]["changes"] == 0


def test_run_missing_scenario_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nope.json" in err


def test_gen_topology_stdout_matches_file(tmp_path, capsys):
    assert main(["gen-topology"]) == 0
    text = capsys.readouterr().out
    out = tmp_path / "topo.json"
    assert main(["gen-topology", "--out", str(out)]) == 0
    assert out.read_text() == text
    assert ht.load_topology(json.loads(text)) == ht.reference_topology()


def test_gen_topology_unwritable_path(tmp_path, capsys):
    target = str(tmp_path / "no" / "such" / "dir" / "t.json")
    assert main(["gen-topology", "--out", target]) == 1
    assert "error:" in capsys.readouterr().err


def test_compare_writes_all_schemes(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", SCENARIO, "--out", str(out), "--seed", "4"]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[0] == CSV_HEADER
    schemes = [r.split(",")[1] for r in rows[1:]]
    assert schemes == (["shortest_path"] * 20 + ["ffr"] * 20 + ["exact"] * 20)
    stdout = capsys.readouterr().out
    for scheme in ("shortest_path", "ffr", "exact"):
        assert scheme in stdout
    assert "ratio" in stdout


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point():
    import hybridte.__main__  # noqa: F401  (import must not execute main)


def test_run_infinite_input_is_an_error_line(tmp_path, capsys):
    # Python's json reads Infinity; it must not reach numpy's range checks.
    with open(SCENARIO, encoding="utf-8") as fp:
        doc = json.load(fp)
    doc["topology"] = os.path.join(os.path.dirname(os.path.abspath(SCENARIO)), doc["topology"])
    doc["traffic"]["demand_fraction"] = float("inf")
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(doc))
    assert "Infinity" in path.read_text()
    assert main(["run", str(path), "--out", str(tmp_path / "res")]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["run", "compare"])
def test_negative_seed_is_an_error_line(tmp_path, capsys, command):
    # numpy rejects a negative seed with its own ValueError; the config must first.
    assert main([command, SCENARIO, "--out", str(tmp_path / "res"), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("slots", [0, 10**6 + 1, 2**70])
def test_slots_out_of_range_is_an_error_line(tmp_path, capsys, slots):
    # The run's growth block holds (slots - 1) x flows factors; past the cap numpy
    # raised its own ValueError, or the block would not fit in memory.
    with open(SCENARIO, encoding="utf-8") as fp:
        doc = json.load(fp)
    doc["topology"] = os.path.join(os.path.dirname(os.path.abspath(SCENARIO)), doc["topology"])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(doc, slots=slots)))
    assert main(["run", str(path), "--out", str(tmp_path / "res")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: slots must lie in [1, 10**6]"], err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("scheme", ["shortest_path", "ffr", "exact"])
def test_a_topology_without_links_is_an_error_line(tmp_path, capsys, scheme):
    # Traffic is sized by the mean link bandwidth, which a topology without links lacks.
    with open(SCENARIO, encoding="utf-8") as fp:
        doc = json.load(fp)
    (tmp_path / "topo.json").write_text(json.dumps({"nodes": 2, "edge_nodes": [0, 1],
                                                    "links": []}))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(doc, topology="topo.json")))
    assert main(["run", str(path), "--scheme", scheme, "--out", str(tmp_path / "res")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least one link" in err


LINK_FIELDS, PLAN_FIELDS = ("bandwidth", "delay"), ("capacity",)
TRAFFIC_FIELDS = ("demand_fraction", "flow_intensity", "growth_max", "intensity_scale",
                  "delay_stretch")


@pytest.mark.parametrize("field", LINK_FIELDS + PLAN_FIELDS + TRAFFIC_FIELDS)
def test_a_number_too_large_for_a_float_is_an_error_line(tmp_path, capsys, field):
    # 401 digits: within the integer length json reads, beyond a float's range, so
    # float() of it raises OverflowError.
    huge = 10 ** 400
    topo = ht.reference_topology()
    topology = json.loads(ht.serialize_topology(topo))
    plan = {"lsps": [{"path": [l.src, *(b for _, b in l.links)], "capacity": l.capacity}
                     for l in ht.build_auto_lsp_plan(topo)]}
    with open(SCENARIO, encoding="utf-8") as fp:
        doc = json.load(fp)
    doc.update(topology="topo.json", lsp_plan={"kind": "file", "path": "plan.json"})
    target = {**dict.fromkeys(LINK_FIELDS, topology["links"][0]),
              **dict.fromkeys(PLAN_FIELDS, plan["lsps"][0]),
              **dict.fromkeys(TRAFFIC_FIELDS, doc["traffic"])}[field]
    target[field] = huge
    for name, content in (("topo.json", topology), ("plan.json", plan), ("scenario.json", doc)):
        (tmp_path / name).write_text(json.dumps(content))
    assert main(["run", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "res")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"field {field!r}" in err[0], err
    assert "too large for a float" in err[0]
