"""``repro-verify-specs``: exit codes, frozen JSON schema, golden verdicts."""

import json
import pathlib

import pytest

from repro.verify.cli import SCHEMA, main, run_verification

EXPECTED_DIR = (pathlib.Path(__file__).resolve().parent.parent
                / "data" / "expected")


class TestExitCodes:
    def test_all_kinds_verify_clean(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "dictionary: OK" in out
        assert "queue: OK" in out
        assert "FAIL" not in out

    def test_single_kind(self, capsys):
        assert main(["set"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("set: OK")
        assert "dictionary" not in out

    def test_unknown_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nosuchkind"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro-verify-specs: error:" in err
        assert "nosuchkind" in err and "available" in err

    @pytest.mark.parametrize("bad", ["zero", "0", "-1"])
    def test_bad_depth_is_usage_error(self, bad):
        with pytest.raises(SystemExit) as exc:
            main(["--depth", bad, "counter"])
        assert exc.value.code == 2

    def test_list_names_every_kind(self, capsys):
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        kinds = [line.split()[0] for line in lines]
        assert "dictionary" in kinds and "seqlog" in kinds
        assert any("[smt" in line for line in lines)
        assert any("waiver" in line for line in lines)


class TestJsonDocument:
    def test_stdout_json_schema(self, capsys):
        assert main(["counter", "--json", "-"]) == 0
        stdout = capsys.readouterr().out
        document = json.loads(stdout[stdout.index("{"):])
        assert document["schema"] == SCHEMA
        assert document["verified"] is True
        assert document["depth"] is None
        (payload,) = document["kinds"]
        assert sorted(payload) == ["bound", "kind", "pairs",
                                   "unused_waivers", "verified"]

    def test_json_file_output(self, tmp_path, capsys):
        out = tmp_path / "verdicts.json"
        assert main(["set", "--json", str(out)]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["kinds"][0]["kind"] == "set"

    def test_matches_golden(self):
        """The default full run reproduces the frozen verdict document —
        any spec, registry, or schema change must regenerate the golden
        (tests/data/generate_golden.py) and show up in review."""
        golden = json.loads((EXPECTED_DIR / "verify_specs.json")
                            .read_text(encoding="utf-8"))
        assert run_verification([]) == golden

    def test_depth_is_recorded(self, capsys):
        assert main(["counter", "--depth", "2", "--json", "-"]) == 0
        stdout = capsys.readouterr().out
        document = json.loads(stdout[stdout.index("{"):])
        assert document["depth"] == 2
        assert document["kinds"][0]["bound"]["depth"] == 2

    def test_smt_leg_present_and_harmless(self, capsys):
        """--smt adds the smt list; without z3 every entry degrades to
        'unavailable' and the exit code stays clean."""
        assert main(["counter", "--smt", "--json", "-"]) == 0
        stdout = capsys.readouterr().out
        document = json.loads(stdout[stdout.index("{"):])
        results = document["kinds"][0]["smt"]
        assert results
        assert all(r["status"] in ("verified", "unavailable")
                   for r in results)

    def test_synthesize_leg(self, capsys):
        assert main(["register", "--synthesize", "--json", "-"]) == 0
        stdout = capsys.readouterr().out
        document = json.loads(stdout[stdout.index("{"):])
        synth = document["kinds"][0]["synthesis"]
        by_pair = {(s["m1"], s["m2"]): s for s in synth}
        assert by_pair[("write", "write")]["formula"] == \
            "(v1 = p1 ∧ v2 = p2)"
        assert by_pair[("write", "write")]["matches_spec"] is True


class TestStatsJson:
    def test_counters_reported(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["register", "--stats-json", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["meta"]["command"] == "verify-specs"
        assert report["meta"]["kinds"] == 1
        counters = report["stats"]["counters"]
        assert counters["verify_specs"] == 1
        assert counters["verify_specs_ok"] == 1
        assert counters["verify_method_pairs"] == 3
