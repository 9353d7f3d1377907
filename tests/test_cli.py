"""Command-line interface: exit codes, CSV/SVG output, determinism."""

import json
import re
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "connexion.cli"]


def run(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


BAD_SUM = {"connection": {"poles": [{"re": 0.0, "im": 0.0, "residue": -0.9},
                                    {"inf": True, "residue": -1.0}]}}


class TestValidate:
    def test_bundled_scenes_validate(self, scenes_dir):
        for scene in scenes_dir.glob("*.json"):
            r = run("validate", "--config", str(scene))
            assert r.returncode == 0, r.stderr
            assert "ok:" in r.stdout

    def test_residue_sum_violation_exits_2(self, tmp_path):
        r = run("validate", "--config", write_config(tmp_path, "bad.json",
                                                     BAD_SUM))
        assert r.returncode == 2
        assert "-2" in r.stderr

    def test_malformed_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"connection": {"poles": [}}', encoding="utf-8")
        r = run("validate", "--config", str(path))
        assert r.returncode == 2
        assert re.search(r"line \d+, column \d+", r.stderr)

    def test_missing_file_exits_2(self):
        r = run("validate", "--config", "/nonexistent/scene.json")
        assert r.returncode == 2


class TestTrace:
    def test_circle_csv_and_svg(self, scenes_dir, tmp_path):
        out = tmp_path / "orbit.csv"
        svg = tmp_path / "orbit.svg"
        r = run("trace", "--config", str(scenes_dir / "circle.json"),
                "--out", str(out), "--svg", str(svg))
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "t,re_z,im_z,re_v,im_v,s_g"
        last_t = float(lines[-1].split(",")[0])
        assert abs(last_t - 6.283185307179586) < 1e-9
        text = svg.read_text()
        assert "<polyline" in text and text.startswith("<svg")
        # six-decimal coordinates only
        coords = re.findall(r'points="([^"]+)"', text)[0]
        assert all(re.fullmatch(r"-?\d+\.\d{6}", tok)
                   for pair in coords.split() for tok in pair.split(","))

    def test_byte_determinism(self, scenes_dir, tmp_path):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"a{i}.csv"
            svg = tmp_path / f"a{i}.svg"
            r = run("trace", "--config", str(scenes_dir / "selfcross.json"),
                    "--out", str(out), "--svg", str(svg))
            assert r.returncode == 0, r.stderr
            outs.append((out.read_bytes(), svg.read_bytes()))
        assert outs[0] == outs[1]

    def test_tiny_step_budget_exits_3(self, scenes_dir):
        r = run("trace", "--config", str(scenes_dir / "circle.json"),
                "--budget-steps", "3")
        assert r.returncode == 3
        assert "numerical failure" in r.stderr

    def test_seed_option_removed(self, scenes_dir):
        r = run("trace", "--config", str(scenes_dir / "circle.json"),
                "--seed", "5")
        assert r.returncode == 2
        assert "--seed" in r.stderr

    def test_no_initial_conditions_exits_2(self, tmp_path):
        cfg = {"connection": {"poles": [{"re": 0.0, "im": 0.0,
                                         "residue": -1.0},
                                        {"inf": True, "residue": -1.0}]}}
        r = run("trace", "--config", write_config(tmp_path, "noinit.json",
                                                  cfg))
        assert r.returncode == 2


class TestClassify:
    def test_spiral_scene(self, scenes_dir):
        r = run("classify", "--config", str(scenes_dir / "spiral.json"))
        assert r.returncode == 0, r.stderr
        assert "ConvergesToPole(inf)" in r.stdout

    def test_circle_scene_periodic(self, scenes_dir):
        r = run("classify", "--config", str(scenes_dir / "circle.json"))
        assert r.returncode == 0, r.stderr
        assert "Periodic" in r.stdout


class TestPortrait:
    def test_grid_render_deterministic(self, scenes_dir, tmp_path):
        docs = []
        for i in (1, 2):
            svg = tmp_path / f"p{i}.svg"
            r = run("portrait", "--config", str(scenes_dir / "twogon.json"),
                    "--svg", str(svg), "--seed", "7")
            assert r.returncode == 0, r.stderr
            docs.append(svg.read_bytes())
        assert docs[0] == docs[1]


class TestRefusedInputs:
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command", ["trace", "classify", "portrait"])
    def test_budget_steps_must_be_positive(self, scenes_dir, tmp_path,
                                           command, value):
        svg = ["--svg", str(tmp_path / "p.svg")] if command == "portrait" else []
        r = run(command, "--config", str(scenes_dir / "circle.json"), *svg,
                "--budget-steps", value)
        assert r.returncode == 2
        assert "--budget-steps" in r.stderr

    def test_integrator_section_exits_2(self, scenes_dir, tmp_path):
        cfg = json.loads((scenes_dir / "circle.json").read_text())
        cfg["integrator"] = {"rtol": 1e-6}
        r = run("trace", "--config", write_config(tmp_path, "tol.json", cfg))
        assert r.returncode == 2
        assert "integrator" in r.stderr


class TestSceneKeys:
    # a scene key the CLI does not read, or a value out of range, exits 2
    # with a config error that names the key
    @pytest.mark.parametrize("command, path, value", [
        ("trace", "t_mx", 1.0),
        ("classify", "budget.step", 10),
        ("trace", "window.zoom", 2),
        ("portrait", "portrait.size", 3),
        ("validate", "connection.name", "circle"),
        ("trace", "t_max", 0),
        ("portrait", "t_max", 0),
        ("trace", "t_max", float("nan")),
        ("trace", "t_max", "long"),
        ("classify", "budget.t_max", -1),
        ("classify", "budget.steps", 0),
        ("classify", "budget.steps", 0.5),
        ("classify", "budget.seconds", 0),
        ("portrait", "portrait.grid", 0),
        ("portrait", "window.half_width", 0),
        ("trace", "window.size", 0),
        ("trace", "window.re", "x"),
        ("trace", "window.im", float("inf")),
        ("portrait", "window.im", None),
        # booleans and strings are not numbers, and integer keys take only
        # JSON integers
        ("trace", "t_max", True),
        ("trace", "t_max", "5"),
        ("trace", "window.re", True),
        ("portrait", "window.half_width", True),
        ("classify", "budget.steps", 2.7),
        ("classify", "budget.steps", True),
        ("trace", "window.size", 640.0),
        ("portrait", "portrait.grid", 5.0),
    ])
    def test_refused_with_the_key_named(self, scenes_dir, tmp_path, command,
                                        path, value):
        cfg = json.loads((scenes_dir / "circle.json").read_text())
        *sections, key = path.split(".")
        section = cfg
        for name in sections:
            section = section.setdefault(name, {})
        section[key] = value
        # trace renders the window only with --svg
        svg = (["--svg", str(tmp_path / "p.svg")]
               if command in ("trace", "portrait") else [])
        r = run(command, "--config", write_config(tmp_path, "bad.json", cfg),
                *svg)
        assert r.returncode == 2
        assert "config error" in r.stderr and path in r.stderr

    @pytest.mark.parametrize("section, item, named", [
        ("poles", {"re": 0.0, "residue": -1.0, "weight": 1}, "poles[0].weight"),
        ("initial", {"re": 1.0, "v_re": 0.0, "v_im": 1.0, "vre": 1.0},
         "initial[0].vre"),
        # the numbers in a list item are finite JSON numbers, and inf a
        # boolean
        ("poles", {"re": "0", "im": False, "residue": "-1"}, "poles[0].re"),
        ("poles", {"re": 0.0, "im": False, "residue": -1.0}, "poles[0].im"),
        ("poles", {"re": 0.0, "im": 0.0, "residue": "-1"}, "poles[0].residue"),
        ("poles", {"inf": 1, "residue": -1.0}, "poles[0].inf"),
        ("initial", {"re": "1.0", "im": True, "v_re": 0.0, "v_im": 1.0},
         "initial[0].re"),
        ("initial", {"re": 1.0, "im": True, "v_re": 0.0, "v_im": 1.0},
         "initial[0].im"),
        ("initial", {"re": 1.0, "v_re": 0.0, "v_im": None}, "initial[0].v_im"),
        # 1e400 reads as inf
        ("initial", {"re": float("1e400"), "v_re": 0.0, "v_im": 1.0},
         "initial[0].re"),
    ])
    def test_list_items_checked(self, scenes_dir, tmp_path, section, item,
                                named):
        cfg = json.loads((scenes_dir / "circle.json").read_text())
        items = cfg["connection"]["poles"] if section == "poles" else cfg["initial"]
        items[0] = item
        r = run("validate", "--config", write_config(tmp_path, "bad.json", cfg))
        assert r.returncode == 2
        assert named in r.stderr

    @pytest.mark.parametrize("cfg", [5, [1], {"budget": [1]}])
    def test_sections_must_be_objects(self, tmp_path, cfg):
        r = run("validate", "--config", write_config(tmp_path, "bad.json", cfg))
        assert r.returncode == 2
        assert "must be an object" in r.stderr

    def test_every_read_key_accepted(self, tmp_path):
        # the portrait scene of the benchmark, with every other key the CLI
        # reads at its least allowed value
        cfg = {"connection": {"poles": [
                   {"re": -1.0, "im": 0.0, "residue": 0.5},
                   {"re": 1.0, "im": 0.0, "residue": 0.5},
                   {"inf": True, "residue": -3.0}]},
               "initial": [{"re": 0.0, "im": 0.5, "v_re": 1.0, "v_im": 0.0}],
               "t_max": 30.0, "portrait": {"grid": 5},
               "budget": {"t_max": 1e-3, "steps": 1, "seconds": 1e-3},
               "window": {"re": 0.0, "im": 0.0, "half_width": 3.0, "size": 640}}
        path = write_config(tmp_path, "all.json", cfg)
        r = run("portrait", "--config", path, "--svg", str(tmp_path / "p.svg"))
        assert r.returncode == 0, r.stderr
        assert "(25 trajectories)" in r.stdout
        r = run("classify", "--config", path)
        assert r.returncode == 0, r.stderr


class TestImport:
    def test_cli_import_leaves_out_scipy(self):
        code = "import connexion.cli, sys; assert 'scipy' not in sys.modules"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True)
        assert r.returncode == 0, r.stderr


class TestVerify:
    @pytest.mark.parametrize("which", ["local", "teichmuller", "saddles"])
    def test_suites_pass(self, which):
        r = run("verify", which)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "FAIL" not in r.stdout
        assert "all checks passed" in r.stdout

    def test_budget_steps_option_removed(self):
        r = run("verify", "local", "--budget-steps", "1")
        assert r.returncode == 2
        assert "--budget-steps" in r.stderr

    def test_bad_config_still_exits_2(self, tmp_path):
        r = run("verify", "local", "--config",
                write_config(tmp_path, "bad.json", BAD_SUM))
        assert r.returncode == 2
