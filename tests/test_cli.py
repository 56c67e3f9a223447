import hashlib
import json
import logging
import os
import re
import signal

import pytest
from hypothesis import example, given, settings, strategies as st

from stancecast.cli import _COMMANDS, main
from stancecast.config import ConfigError, PipelineConfig
from stancecast.corpus import Entry, entries_to_jsonl
from stancecast.learning import ClassifierSpec
from stancecast.pipeline import STAGES, stage_key

BASE_CONFIG = {
    "seed": 11,
    "periods": ["1970-01-12", "1970-01-14", "1970-01-16", "1970-01-18"],
    "labeler": {"min_messages": 3, "rare_df": 1},
    "features": {"sets": ["FS1", "FS3"], "vocab_size": 20},
    "learning": {"families": ["gaussian_nb"], "outer_k": 3, "inner_k": 2,
                 "search_iters": 2},
    "synth": {
        "n_users": 40, "n_periods": 3, "threads_per_period": 4,
        "entries_per_user": 2, "words_per_entry": 10, "stance_word_prob": 0.8,
        "hashtag_prob": 0.6, "transition_strength": 0.7,
        "period_seconds": 172800, "start_time": 950400,
    },
}


def write_config(tmp_path, name="config.json", **overrides):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["input"] = str(tmp_path / "synthetic.jsonl")
    config["output_dir"] = str(tmp_path)
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def run(command, config_path, *extra):
    return main([command, "--config", str(config_path), *extra])


@pytest.fixture
def pipeline_dir(tmp_path):
    config = write_config(tmp_path)
    assert run("synth", config) == 0
    return tmp_path, config


class TestStages:
    def test_full_pipeline_exits_zero(self, pipeline_dir):
        tmp_path, config = pipeline_dir
        for command in ("ingest", "profile", "label", "features", "evaluate", "report"):
            assert run(command, config) == 0, command
        report = json.loads((tmp_path / "report.json").read_text())
        assert {c["set_id"] for c in report["combos"]} == {"FS1", "FS3"}
        assert (tmp_path / "report_bars.tsv").exists()
        assert (tmp_path / "report_transitions.tsv").exists()
        assert (tmp_path / "features_FS1.schema.tsv").exists()

    def test_missing_input_is_config_error(self, tmp_path):
        config = write_config(tmp_path, input=str(tmp_path / "nope.jsonl"))
        assert run("ingest", config) == 2

    def test_label_and_profile_need_the_input(self, pipeline_dir, capsys):
        # Both check ingest's key, which hashes the input file.
        tmp_path, config = pipeline_dir
        assert run("ingest", config) == 0
        (tmp_path / "synthetic.jsonl").unlink()
        for command in ("label", "profile"):
            capsys.readouterr()
            assert run(command, config) == 2, command
            assert "input path does not exist" in capsys.readouterr().err

    def test_missing_seed_is_config_error(self, tmp_path):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["input"] = str(tmp_path / "x.jsonl")
        raw["output_dir"] = str(tmp_path)
        del raw["seed"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert run("ingest", path) == 2

    def test_evaluate_before_features_fails(self, pipeline_dir):
        tmp_path, config = pipeline_dir
        assert run("ingest", config) == 0
        assert run("evaluate", config) == 1
        assert not (tmp_path / "report.json").exists()

    def test_orphan_heavy_input_still_ingests(self, tmp_path):
        entries = [Entry(f"c{i}", f"u{i}", "text", 1000000 + i, f"missing{i}")
                   for i in range(10)]
        (tmp_path / "synthetic.jsonl").write_text(entries_to_jsonl(entries))
        config = write_config(tmp_path)
        assert run("ingest", config) == 0
        diagnostics = json.loads((tmp_path / "ingest_diagnostics.json").read_text())
        assert diagnostics["orphan_roots"] == 10

    def test_dump_read_through_a_utf8_bom(self, tmp_path):
        entries = [Entry(f"e{i}", "solo", "text", 1000000 + i,
                         None if i == 0 else "e0") for i in range(3)]
        dump = tmp_path / "synthetic.jsonl"
        dump.write_bytes(b"\xef\xbb\xbf" + entries_to_jsonl(entries).encode("utf-8"))
        config = write_config(tmp_path)
        assert run("ingest", config) == 0
        diagnostics = json.loads((tmp_path / "ingest_diagnostics.json").read_text())
        assert diagnostics["entries"] == 3 and diagnostics["malformed_records"] == 0

    def test_undecodable_line_is_malformed(self, tmp_path):
        # A BOM opens the dump and every line ends in CRLF. Line 11 holds two
        # bytes that are not UTF-8; line 16 starts with a second BOM.
        entries = [Entry(f"e{i}", f"u{i % 3}", "text", 1000000 + i,
                         None if i == 0 else "e0") for i in range(21)]
        lines = [line.encode("utf-8") for line in entries_to_jsonl(entries).splitlines()]
        lines[10] = lines[10].replace(b'"body":"text"', b'"body":"te\xff\xfext"')
        lines[15] = b"\xef\xbb\xbf" + lines[15]
        dump = tmp_path / "synthetic.jsonl"
        dump.write_bytes(b"\xef\xbb\xbf" + b"".join(line + b"\r\n" for line in lines))
        assert run("ingest", write_config(tmp_path)) == 0
        diagnostics = json.loads((tmp_path / "ingest_diagnostics.json").read_text())
        assert diagnostics["entries"] == 19 and diagnostics["malformed_records"] == 2
        ids = [json.loads(line)["id"] for line in (tmp_path / "corpus.jsonl").open()]
        assert sorted(ids) == sorted(f"e{i}" for i in range(21) if i not in (10, 15))

    def test_deeply_nested_line_is_malformed(self, tmp_path):
        entries = [Entry(f"e{i}", "solo", "text", 1000000 + i,
                         None if i == 0 else "e0") for i in range(3)]
        deep = "[" * 100_000
        dump = tmp_path / "synthetic.jsonl"
        dump.write_text(f"{deep}\n{entries_to_jsonl(entries)}{{\"id\": {deep}}}\n",
                        encoding="utf-8")
        assert run("ingest", write_config(tmp_path)) == 0
        diagnostics = json.loads((tmp_path / "ingest_diagnostics.json").read_text())
        assert diagnostics["entries"] == 3 and diagnostics["malformed_records"] == 2

    def test_repairs_surface_in_diagnostics(self, tmp_path):
        entries = [
            Entry("root", "amy", "post", 1000500),
            Entry("early", "ben", "scraped before parent", 1000100, "root"),
        ]
        (tmp_path / "synthetic.jsonl").write_text(entries_to_jsonl(entries))
        config = write_config(tmp_path)
        assert run("ingest", config) == 0
        diagnostics = json.loads((tmp_path / "ingest_diagnostics.json").read_text())
        assert diagnostics["clamped_timestamps"] == 1
        assert diagnostics["broken_cycles"] == 0

    def test_cycle_warned_once_at_ingest(self, pipeline_dir, caplog):
        # Two comments name each other as parent; corpus.jsonl keeps the
        # links, so every later build_forest breaks the cycle again.
        tmp_path, config = pipeline_dir
        dump = tmp_path / "synthetic.jsonl"
        first = json.loads(dump.read_text().splitlines()[0])
        with open(dump, "a", encoding="utf-8") as handle:
            for eid, parent in (("loop_a", "loop_b"), ("loop_b", "loop_a")):
                handle.write(json.dumps({"id": eid, "author": "amy", "body": "#voteleave",
                                         "created_utc": first["created_utc"],
                                         "parent_id": parent}) + "\n")
        warned = {}
        for command in ("ingest", "label", "features"):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="stancecast"):
                assert run(command, config) == 0, command
            warned[command] = [r.getMessage() for r in caplog.records
                               if r.levelno >= logging.WARNING and "cycle" in r.getMessage()]
        assert warned == {"ingest": ["broke 2 parent-link cycle entrie(s): "
                                             "['loop_a', 'loop_b']"],
                          "label": [], "features": []}
        diagnostics = json.loads((tmp_path / "ingest_diagnostics.json").read_text())
        assert diagnostics["broken_cycles"] == 2

    def test_authors_that_break_tsv_rows_are_malformed(self, pipeline_dir):
        tmp_path, config = pipeline_dir
        dump = tmp_path / "synthetic.jsonl"
        first = json.loads(dump.read_text().splitlines()[0])
        bad = [{"id": f"bad{i}", "author": author, "body": "#voteleave again",
                "created_utc": first["created_utc"], "parent_id": first["id"]}
               for i, author in enumerate(["tab\there", "line\nbreak", "gs\x1dx",
                                           "ls\u2028x", "nel\x85x"])]
        with open(dump, "a", encoding="utf-8") as handle:
            handle.writelines(json.dumps(r) + "\n" for r in bad)
        for command in ("ingest", "label", "features"):
            assert run(command, config) == 0, command
        diagnostics = json.loads((tmp_path / "ingest_diagnostics.json").read_text())
        assert diagnostics["malformed_records"] == len(bad)

    def test_surrogate_author_is_malformed(self, pipeline_dir):
        tmp_path, config = pipeline_dir
        dump = tmp_path / "synthetic.jsonl"
        first = json.loads(dump.read_text().splitlines()[0])
        with open(dump, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"id": "bad", "author": "\ud800bad", "body": "#voteleave",
                                     "created_utc": first["created_utc"],
                                     "parent_id": first["id"]}) + "\n")
        for command in ("ingest", "label"):
            assert run(command, config) == 0, command
        diagnostics = json.loads((tmp_path / "ingest_diagnostics.json").read_text())
        assert diagnostics["malformed_records"] == 1

    def test_unrepresentable_timestamp_is_malformed(self, tmp_path):
        entries = [Entry(f"e{i}", "solo", "text", 1000000 + i,
                         None if i == 0 else "e0") for i in range(3)]
        text = entries_to_jsonl(entries) + json.dumps(
            {"id": "far", "author": "solo", "body": "x", "created_utc": 1e20,
             "parent_id": "e0"}) + "\n"
        (tmp_path / "synthetic.jsonl").write_text(text)
        config = write_config(tmp_path)
        assert run("ingest", config) == 0
        assert run("profile", config) == 0
        diagnostics = json.loads((tmp_path / "ingest_diagnostics.json").read_text())
        assert diagnostics["malformed_records"] == 1

    def test_unexpected_stage_error_is_one_line(self, pipeline_dir, monkeypatch,
                                                capsys, caplog):
        import stancecast.cli as cli_mod
        _, config = pipeline_dir

        def explode(config):
            raise RuntimeError("disk\ngremlin")

        monkeypatch.setitem(cli_mod._COMMANDS, "ingest", explode)
        caplog.set_level(logging.DEBUG, logger="stancecast.cli")
        capsys.readouterr()
        assert run("ingest", config) == 1
        assert capsys.readouterr().err == "error: RuntimeError: disk gremlin\n"
        assert any(r.exc_info for r in caplog.records)

    def test_short_feature_row_fails_evaluate_cleanly(self, pipeline_dir):
        from stancecast.config import PipelineConfig
        from stancecast.pipeline import PipelineError, run_stage
        tmp_path, config = pipeline_dir
        for command in ("ingest", "label", "features"):
            assert run(command, config) == 0, command
        table = tmp_path / "features_FS1.tsv"
        rows = table.read_text().splitlines()
        rows[1] = rows[1].rsplit("\t", 1)[0]
        table.write_text("\n".join(rows) + "\n")
        with pytest.raises(PipelineError, match="line 2"):
            run_stage(PipelineConfig.from_file(config), "evaluate")
        assert run("evaluate", config) == 1

    def test_failing_fit_in_a_worker_is_skipped_as_inline(self, pipeline_dir, monkeypatch):
        from stancecast.learning import cv
        tmp_path, config = pipeline_dir
        for command in ("ingest", "label", "features"):
            assert run(command, config) == 0, command
        table = tmp_path / "features_FS1.tsv"
        rows = table.read_text().splitlines()
        for i in range(1, len(rows), 10):
            cells = rows[i].split("\t")
            cells[3] = "nan"
            rows[i] = "\t".join(cells)
        table.write_text("\n".join(rows) + "\n")
        reports = []
        for workers in (2, 1):
            monkeypatch.setattr(cv, "_fit_workers", lambda n_fits: workers)
            (tmp_path / "report.json").unlink(missing_ok=True)
            assert run("evaluate", config) == 0
            report = json.loads((tmp_path / "report.json").read_text())
            reports.append({key: report[key] for key in ("combos", "skipped")})
        assert reports[0] == reports[1]
        [skipped] = reports[0]["skipped"]
        assert skipped["set_id"] == "FS1" and "must be finite" in skipped["reason"]
        assert [c["set_id"] for c in reports[0]["combos"]] == ["FS3"]

    def test_killed_worker_fails_evaluate_in_one_line(self, pipeline_dir, monkeypatch,
                                                       capsys):
        from stancecast.learning import cv
        tmp_path, config = pipeline_dir
        for command in ("ingest", "label", "features"):
            assert run(command, config) == 0, command
        parent = os.getpid()

        def killed(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            raise AssertionError("a fit ran in the parent")

        def hung(signum, frame):
            raise TimeoutError("evaluate hung after a worker died")

        monkeypatch.setattr(cv, "_fit_workers", lambda n_fits: 2)
        monkeypatch.setattr(cv, "train_predict", killed)
        capsys.readouterr()
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            assert run("evaluate", config) == 1
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        err = capsys.readouterr().err
        assert err.startswith("error: BrokenProcessPool: ") and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    def test_union_built_in_memory_matches_union_read_from_disk(self, tmp_path, monkeypatch):
        import stancecast.pipeline as pipeline_mod
        parsed = []
        real = pipeline_mod.feature_table_from_tsv

        def counting(text):
            table = real(text)
            parsed.append(table.set_id)
            return table

        monkeypatch.setattr(pipeline_mod, "feature_table_from_tsv", counting)
        combos = {}
        for sets in (["FS1", "FS2", "FS3", "FS4"], ["FS4"]):
            workdir = tmp_path / "-".join(sets)
            workdir.mkdir()
            config = write_config(workdir, features={"sets": sets, "vocab_size": 20})
            for command in ("synth", "ingest", "label", "features"):
                assert run(command, config) == 0, command
            parsed.clear()
            assert run("evaluate", config) == 0
            report = json.loads((workdir / "report.json").read_text())
            [combo] = [c for c in report["combos"] if c["set_id"] == "FS4"]
            combos[len(sets)] = json.dumps(combo, sort_keys=True)
            # Each TSV is parsed once; FS4 is read only when its parts are not.
            assert parsed == (["FS1", "FS2", "FS3"] if len(sets) == 4 else ["FS4"])
        assert combos[4] == combos[1]

    def test_disagreeing_union_parts_fail_evaluate_cleanly(self, tmp_path, capsys):
        config = write_config(tmp_path, features={"sets": ["FS1", "FS2", "FS3", "FS4"],
                                                  "vocab_size": 20})
        for command in ("synth", "ingest", "label", "features"):
            assert run(command, config) == 0, command
        table = tmp_path / "features_FS3.tsv"
        rows = table.read_text().splitlines()
        rows[1], rows[2] = rows[2], rows[1]
        table.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert run("evaluate", config) == 1
        err = capsys.readouterr().err
        assert err == "error: cannot assemble FS4: union constituents must describe " \
                      "the same users and periods\n"
        assert not (tmp_path / "report.json").exists()

    def test_label_fails_cleanly_without_eligible_users(self, tmp_path):
        entries = [Entry(f"e{i}", f"u{i}", "no hashtags here", 1000000 + i)
                   for i in range(30)]
        (tmp_path / "synthetic.jsonl").write_text(entries_to_jsonl(entries))
        config = write_config(tmp_path)
        assert run("ingest", config) == 0
        assert run("label", config) == 1
        assert not (tmp_path / "stances.tsv").exists()


def _stats(tmp_path, names):
    """Inode, mtime and size: an atomic rewrite changes the inode at least."""
    stats = {}
    for name in names:
        st = (tmp_path / name).stat()
        stats[name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return stats


class TestCaching:
    # Every artifact of each cached stage, in stage order.
    ARTIFACTS = {
        "synth": ["synthetic.jsonl", "synthetic_truth.tsv", "synthetic_cutoffs.json"],
        "ingest": ["corpus.jsonl", "ingest_diagnostics.json"],
        "profile": ["profile_monthly.tsv", "profile_ccdf.tsv", "profile_summary.json"],
        "label": ["stances.tsv", "labeler.json"],
        "features": ["features_FS1.tsv", "features_FS1.schema.tsv", "features_FS3.tsv",
                     "features_FS3.schema.tsv", "features.json"],
        "evaluate": ["report.json"],
        "report": ["report_bars.tsv", "report_transitions.tsv"],
    }

    def test_rerun_hits_cache(self, pipeline_dir):
        tmp_path, config = pipeline_dir
        for stage in self.ARTIFACTS:
            assert run(stage, config) == 0, stage
        for stage, artifacts in self.ARTIFACTS.items():
            before = _stats(tmp_path, [f"{stage}.hash", *artifacts])
            assert run(stage, config) == 0, stage
            assert _stats(tmp_path, [f"{stage}.hash", *artifacts]) == before, stage

    def test_stale_upstream_is_refused(self, pipeline_dir, capsys):
        tmp_path, config = pipeline_dir
        for command in ("ingest", "label", "features", "evaluate"):
            assert run(command, config) == 0, command
        assert run("label", config, "--set", "labeler.lower_cutoff=0.45",
                   "--set", "labeler.upper_cutoff=0.55") == 0
        guarded = ["report.json", "evaluate.hash", "features.hash",
                   *self.ARTIFACTS["features"]]
        before = _stats(tmp_path, guarded)
        for command, extra, stale in (
                ("evaluate", ("--set", "learning.search_iters=3"), "features"),
                ("features", (), "label")):
            capsys.readouterr()
            assert run(command, config, *extra) == 1, command
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1, err
            assert f"stage '{stale}'" in err and err.endswith(f"run {stale} again\n"), err
        assert _stats(tmp_path, guarded) == before

    def test_stale_stage_further_up_is_refused(self, pipeline_dir, capsys):
        # Relabeling leaves evaluate's own key matching the recorded
        # features.hash, so only a walk up the whole chain sees features stale.
        tmp_path, config = pipeline_dir
        for command in ("ingest", "label", "features", "evaluate", "report"):
            assert run(command, config) == 0, command
        relabel = ("--set", "labeler.lower_cutoff=0.45", "--set", "labeler.upper_cutoff=0.55")
        assert run("label", config, *relabel) == 0
        guarded = ["report.json", "evaluate.hash", "report.hash", "features.hash",
                   *self.ARTIFACTS["features"], *self.ARTIFACTS["report"]]
        before = _stats(tmp_path, guarded)
        for command in ("report", "evaluate"):
            capsys.readouterr()
            assert run(command, config, *relabel) == 1, command
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1, err
            assert "stage 'features'" in err and err.endswith("run features again\n"), err
        assert _stats(tmp_path, guarded) == before

    def test_seed_change_invalidates_label_stage(self, pipeline_dir):
        tmp_path, config = pipeline_dir
        assert run("ingest", config) == 0
        assert run("label", config) == 0
        first = (tmp_path / "stances.tsv").stat().st_mtime_ns
        assert run("label", config, "--set", "seed=99") == 0
        assert (tmp_path / "stances.tsv").stat().st_mtime_ns != first


    def test_report_refuses_stale_evaluation(self, pipeline_dir, capsys):
        tmp_path, config = pipeline_dir
        for command in ("ingest", "label", "features", "evaluate", "report"):
            assert run(command, config) == 0, command
        capsys.readouterr()
        assert run("report", config, "--set", "seed=99") == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "run evaluate again" in err

    def test_report_requires_evaluate_hash(self, pipeline_dir, capsys):
        tmp_path, config = pipeline_dir
        for command in ("ingest", "label", "features", "evaluate"):
            assert run(command, config) == 0, command
        (tmp_path / "evaluate.hash").unlink()
        capsys.readouterr()
        assert run("report", config) == 1
        assert "stage 'evaluate' has not been run" in capsys.readouterr().err


class TestPerTransition:
    def test_per_transition_slices_reported(self, pipeline_dir):
        tmp_path, config = pipeline_dir
        for command in ("ingest", "label", "features"):
            assert run(command, config) == 0
        assert run("evaluate", config, "--set", "learning.per_transition=true") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["per_transition"] is True
        attempted = len(report["combos"]) + len(report["skipped"])
        # 1 family x 2 sets x 2 transitions
        assert attempted == 4
        assert all("period" in combo for combo in report["combos"])


class TestAtomicity:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        from stancecast.pipeline import atomic_write_text
        target = tmp_path / "artifact.tsv"
        atomic_write_text(target, "one\n")
        atomic_write_text(target, "two\n")
        assert target.read_text() == "two\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_stage_is_not_marked_complete(self, pipeline_dir, monkeypatch):
        import stancecast.pipeline as pipeline_mod
        tmp_path, config = pipeline_dir
        assert run("ingest", config) == 0
        assert run("label", config) == 0

        calls = {"n": 0}
        real = pipeline_mod.feature_table_chunks

        def explode_on_second(set_id, parts):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("disk gremlin")
            return real(set_id, parts)

        monkeypatch.setattr(pipeline_mod, "feature_table_chunks", explode_on_second)
        from stancecast.config import PipelineConfig
        cfg = PipelineConfig.from_file(config)
        with pytest.raises(RuntimeError):
            pipeline_mod.run_stage(cfg, "features")
        assert not (tmp_path / "features.hash").exists()
        monkeypatch.setattr(pipeline_mod, "feature_table_chunks", real)
        assert run("features", config) == 0
        assert (tmp_path / "features.hash").exists()


# Overrides that give each stage with key fields of its own another key; the
# stages below it follow through their upstream's hash.
RERUN_CHANGES = {
    "synth": ["synth.n_users=44"],
    "ingest": ['periods=["1970-01-13", "1970-01-14", "1970-01-16", "1970-01-18"]'],
    "label": ["labeler.lower_cutoff=0.45", "labeler.upper_cutoff=0.55"],
    "features": ['features.sets=["FS0", "FS3"]'],
    "evaluate": ["learning.search_iters=3"],
}
STAGE_ORDER = tuple(TestCaching.ARTIFACTS)


def _below(stage):
    """`stage` and every stage whose upstream chain passes through it, in run order."""
    chain = []
    for name in STAGE_ORDER:
        upstream = name
        while upstream is not None and upstream != stage:
            upstream = STAGES[upstream].upstream
        if upstream == stage:
            chain.append(name)
    return chain


def _artifact_bytes(directory):
    """Every file a stage writes, `report.json` without its `created` stamp."""
    found = {}
    for path in sorted(directory.iterdir()):
        if path.name == "config.json":
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("created")
            data = json.dumps(report, sort_keys=True).encode()
        found[path.name] = data
    return found


@pytest.fixture(scope="module")
def scratch_runs(tmp_path_factory):
    """From-scratch artifacts of the base config and of each changed one."""
    runs = {}
    for change, overrides in [("base", [])] + list(RERUN_CHANGES.items()):
        workdir = tmp_path_factory.mktemp(change)
        config = write_config(workdir)
        extra = [arg for override in overrides for arg in ("--set", override)]
        for command in STAGE_ORDER:
            assert run(command, config, *extra) == 0, (change, command)
        runs[change] = (workdir, extra, _artifact_bytes(workdir))
        # The change must show in the bytes of its own stage's artifacts.
        if change != "base":
            assert any(runs[change][2].get(name) != runs["base"][2].get(name)
                       for name in TestCaching.ARTIFACTS[change])
    return runs


class TestInterruptedRerun:
    def test_half_written_stage_is_not_vouched_for(self, pipeline_dir, monkeypatch, capsys):
        import stancecast.pipeline as pipeline_mod
        tmp_path, config = pipeline_dir
        a = ("--set", 'features.sets=["FS0", "FS1"]', "--set", "features.vocab_size=20")
        b = ("--set", 'features.sets=["FS0", "FS1"]', "--set", "features.vocab_size=10")
        for command in ("ingest", "label", "features"):
            assert run(command, config, *a) == 0, command
        fs0 = (tmp_path / "features_FS0.tsv").read_bytes()
        real = pipeline_mod.atomic_write_text
        calls = []

        def interrupted_after_first(path, text):
            calls.append(path.name)
            if len(calls) == 2:
                raise KeyboardInterrupt
            real(path, text)

        monkeypatch.setattr(pipeline_mod, "atomic_write_text", interrupted_after_first)
        with pytest.raises(KeyboardInterrupt):
            pipeline_mod.run_stage(PipelineConfig.from_file(config, list(b[1::2])), "features")
        monkeypatch.setattr(pipeline_mod, "atomic_write_text", real)
        assert calls[0] == "features_FS0.tsv"
        assert (tmp_path / "features_FS0.tsv").read_bytes() != fs0
        capsys.readouterr()
        assert run("evaluate", config, *a) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stage 'features' has not been run" in err
        assert run("features", config, *a) == 0
        assert (tmp_path / "features_FS0.tsv").read_bytes() == fs0

    @pytest.mark.parametrize("first", ["base", "changed"])
    @pytest.mark.parametrize("changed", sorted(RERUN_CHANGES))
    def test_interrupted_rerun_recovers(self, scratch_runs, tmp_path, monkeypatch, capsys,
                                        changed, first):
        """Break a rerun under a changed config at its k-th atomic write, for
        every k. Then every stage run under the first config, in either
        order, exits 0 with that config's from-scratch bytes or refuses in
        one line, and the whole chain in run order ends with those bytes."""
        import shutil

        import stancecast.pipeline as pipeline_mod
        from stancecast.learning import cv
        monkeypatch.setattr(cv, "_fit_workers", lambda n_fits: 1)
        real = pipeline_mod.atomic_write_text
        base_dir, _, _ = scratch_runs["base"]
        _, extra, expected = scratch_runs["base" if first == "base" else changed]
        rerun = _below(changed)
        k = 0
        while True:
            k += 1
            workdir = tmp_path / f"k{k}"
            shutil.copytree(base_dir, workdir)
            config = write_config(workdir)
            writes = []

            def breaking(path, text):
                writes.append(path.name)
                if len(writes) == k:
                    raise RuntimeError("interrupted")
                real(path, text)

            monkeypatch.setattr(pipeline_mod, "atomic_write_text", breaking)
            codes = [run(stage, config, *scratch_runs[changed][1]) for stage in rerun]
            monkeypatch.setattr(pipeline_mod, "atomic_write_text", real)
            if len(writes) < k:  # the rerun finished before a k-th write
                assert set(codes) == {0}
                assert k > 1
                break
            assert 1 in codes and not list(workdir.glob("*.tmp"))
            # Last stage first, so a stage meets its upstream still half
            # written. synth has no upstream: its corpus is ingest's input,
            # which ingest takes as it finds it, so after a broken synth the
            # walk starts at synth.
            walk = STAGE_ORDER if changed == "synth" else (*reversed(STAGE_ORDER), *STAGE_ORDER)
            for stage in walk:
                capsys.readouterr()
                code = run(stage, config, *extra)
                err = capsys.readouterr().err
                if code:
                    assert code == 1 and err.count("\n") == 1, (k, stage, err)
                    continue
                got = _artifact_bytes(workdir)
                for artifact in (*TestCaching.ARTIFACTS[stage], f"{stage}.hash"):
                    if artifact in expected:
                        assert got.get(artifact) == expected[artifact], (k, artifact)
            got = _artifact_bytes(workdir)
            assert {n: got.get(n) for n in expected} == expected, k


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self, tmp_path):
        reports = []
        for name in ("a", "b"):
            workdir = tmp_path / name
            workdir.mkdir()
            config = write_config(
                workdir,
                input=str(workdir / "synthetic.jsonl"),
                output_dir=str(workdir),
            )
            for command in ("synth", "ingest", "label", "features", "evaluate"):
                assert run(command, config) == 0
            report = json.loads((workdir / "report.json").read_text())
            report.pop("created")
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]


class TestProfile:
    def test_comment_share_and_roles(self, tmp_path):
        entries = []
        t = 1000000
        for i in range(9):
            entries.append(Entry(f"p{i}", f"poster{i}", "root", t + i))
        for i in range(91):
            entries.append(Entry(f"c{i}", f"user{i % 20}", "reply", t + 100 + i, f"p{i % 9}"))
        (tmp_path / "synthetic.jsonl").write_text(entries_to_jsonl(entries))
        config = write_config(tmp_path)
        assert run("ingest", config) == 0
        assert run("profile", config) == 0
        summary = json.loads((tmp_path / "profile_summary.json").read_text())
        assert summary["comment_share"] == pytest.approx(0.91)
        roles = summary["roles"]
        assert sum(roles.values()) == summary["unique_authors"]

    def test_single_user_ccdf_has_one_step(self, tmp_path):
        entries = [Entry(f"e{i}", "solo", "text", 1000000 + i,
                         None if i == 0 else "e0") for i in range(5)]
        (tmp_path / "synthetic.jsonl").write_text(entries_to_jsonl(entries))
        config = write_config(tmp_path)
        assert run("ingest", config) == 0
        assert run("profile", config) == 0
        rows = (tmp_path / "profile_ccdf.tsv").read_text().strip().splitlines()
        assert rows[1:] == ["5\t1"]


def test_help_describes_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    described = {}
    for line in capsys.readouterr().out.splitlines():
        words = line.split(None, 1)
        if words and words[0] in _COMMANDS:
            described[words[0]] = words[1:]
    assert set(described) == set(_COMMANDS)
    assert all(described.values()), described
    assert set(_COMMANDS) == set(STAGES)


def test_synth_cli_writes_truth_and_cutoffs(tmp_path):
    config = write_config(tmp_path)
    assert run("synth", config) == 0
    assert (tmp_path / "synthetic_truth.tsv").exists()
    cutoffs = json.loads((tmp_path / "synthetic_cutoffs.json").read_text())
    assert len(cutoffs["cutoffs"]) == BASE_CONFIG["synth"]["n_periods"] + 1


@pytest.mark.parametrize("override", ["seed=12", "synth.n_users=41"])
def test_changed_synth_key_regenerates_the_corpus(pipeline_dir, tmp_path_factory, override):
    tmp_path, config = pipeline_dir
    names = ["synth.hash", *TestCaching.ARTIFACTS["synth"]]
    base = {name: (tmp_path / name).read_bytes() for name in names}
    scratch = tmp_path_factory.mktemp("scratch")
    assert run("synth", write_config(scratch), "--set", override) == 0
    assert run("synth", config, "--set", override) == 0
    changed = {name: (tmp_path / name).read_bytes() for name in names}
    assert changed == {name: (scratch / name).read_bytes() for name in names}
    assert changed["synth.hash"] != base["synth.hash"]
    assert changed["synthetic.jsonl"] != base["synthetic.jsonl"]
    assert run("synth", config) == 0
    assert {name: (tmp_path / name).read_bytes() for name in names} == base


@pytest.mark.parametrize("vocab_size", [0, 20])
def test_features_stage_builds_one_vocabulary(pipeline_dir, monkeypatch, vocab_size):
    import stancecast.features as features_mod
    import stancecast.pipeline as pipeline_mod
    _, config = pipeline_dir
    real = features_mod.build_vocab_top_words
    limits = []

    def counting(entries, limit=100):
        limits.append(limit)
        return real(entries, limit=limit)

    monkeypatch.setattr(features_mod, "build_vocab_top_words", counting)
    monkeypatch.setattr(pipeline_mod, "build_vocab_top_words", counting)
    sets = ("--set", 'features.sets=["FS0"]', "--set", f"features.vocab_size={vocab_size}")
    for command in ("ingest", "label", "features"):
        assert run(command, config, *sets) == 0, command
    assert limits == [vocab_size]


@pytest.mark.parametrize("root, override", [
    ([1, 2], "seed=1"), ("text", "learning.outer_k=3"), ({"seed": 11}, "seed.x=1"),
    ({"learning": [3]}, "learning.outer_k=3"),
])
def test_override_across_a_non_object_is_config_error(tmp_path, capsys, root, override):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(root), encoding="utf-8")
    assert run("synth", config, "--set", override) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_invalid_synth_value_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path)
    capsys.readouterr()
    assert main(["synth", "--config", str(config), "--set", "synth.participation=2"]) == 2
    assert "participation must lie in (0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "synthetic.jsonl").exists()


# (spaces, message): each space is refused at load, and by `ClassifierSpec`.
INVALID_SPACES = [
    ({"gaussian_nb": {"var_smoothing": ["uniform", 1e-10, 1e-6]}},
     "unknown space kind 'uniform'"),
    ({"random_forest": {"n_tree": ["int", 3, 3]}}, "'n_tree'"),
    ({"svm": {"c": ["loguniform", 0.1, 10.0]}}, "'svm'"),
    # One seeded draw from either space passes; every value must be checked.
    ({"random_forest": {"max_features": ["choice", ["bogus"]]}},
     "unknown feature subset mode 'bogus'"),
    ({"knn": {"k": ["int", 0, 5]}}, "k must be at least 1, got 0"),
    ({"random_forest": {"n_trees": ["int", 0, 5]}}, "n_trees must be at least 1, got 0"),
    ({"logistic_regression": {"l2": ["choice", [1.0, -5.0]]}},
     "l2 must be finite and non-negative, got -5.0"),
    # Values of the wrong type: each crashed evaluate late or ran with a changed value.
    ({"random_forest": {"n_trees": ["choice", [2.5]]}}, "n_trees must be an integer, got 2.5"),
    ({"knn": {"k": ["choice", [2.5]]}}, "k must be an integer, got 2.5"),
    ({"random_forest": {"n_trees": ["choice", [True]]}}, "n_trees must be an integer, got True"),
    ({"random_forest": {"max_depth": ["choice", [2.5]]}}, "max_depth must be an integer, got 2.5"),
    ({"knn": {"k": ["int", 1.5, 3]}}, "int range ends for 'k' must be integers"),
    ({"gaussian_nb": {"var_smoothing": ["choice", [-1]]}},
     "var_smoothing must be finite and positive, got -1"),
    ({"gaussian_nb": {"var_smoothing": ["choice", ["x"]]}},
     "var_smoothing must be finite and positive, got 'x'"),
]


@pytest.mark.parametrize("spaces, message", INVALID_SPACES, ids=[
    "unknown-kind", "unknown-name", "unknown-family", "bad-choice", "bad-range-end",
    "rf-no-trees", "lr-negative-l2", "rf-float-trees", "knn-float-k", "rf-bool-trees",
    "rf-float-depth", "knn-float-range-end", "nb-negative-smoothing", "nb-string-smoothing"])
def test_invalid_search_space_is_config_error(pipeline_dir, capsys, spaces, message):
    tmp_path, config = pipeline_dir
    for command in ("ingest", "label", "features"):
        assert run(command, config) == 0, command
    names = sorted(path.name for path in tmp_path.iterdir())
    before = _stats(tmp_path, names)
    capsys.readouterr()
    assert run("evaluate", config,
               "--set", 'learning.families=["gaussian_nb", "random_forest"]',
               "--set", f"learning.spaces={json.dumps(spaces)}") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    assert _stats(tmp_path, names) == before


def test_classifier_spec_refuses_every_invalid_space():
    for spaces, message in INVALID_SPACES:
        for family, space in spaces.items():
            with pytest.raises(ValueError, match=re.escape(message)):
                ClassifierSpec(family, space)


# A loguniform dimension draws floats, which no integer hyperparameter takes.
@pytest.mark.parametrize("family, name", [
    ("knn", "k"), ("random_forest", "n_trees"), ("gradient_boosting", "max_depth"),
])
def test_loguniform_integer_dimension_is_refused(tmp_path, capsys, family, name):
    space = {name: ["loguniform", 1, 50]}
    with pytest.raises(ValueError, match=f"{name} must be an integer, got 1.0"):
        ClassifierSpec(family, space)
    config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    capsys.readouterr()
    assert run("synth", config, "--set", f"learning.spaces={json.dumps({family: space})}") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid 'learning' section: spaces['{family}']: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["file", "override"])
def test_deeply_nested_config_is_config_error(tmp_path, capsys, where):
    deep = "[" * 100_000
    config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    if where == "file":
        config.write_text(deep, encoding="utf-8")
    overrides = ("--set", f"learning.spaces={deep}") if where == "override" else ()
    capsys.readouterr()
    assert run("synth", config, *overrides) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", [
    "learning.search_iters=0", "learning.outer_k=0", "learning.inner_k=0",
    'learning.outer_k="3"', "learning.inner_k=1", "features.vocab_size=-3",
    "features.vocab_size=2.5", "labeler.lower_cutoff=0.9", "labeler.extreme_fraction=0.9",
    "labeler.alpha=0", "labeler.holdout_fraction=2", "labeler.min_messages=x",
    'periods=["1970-01-14", "1970-01-12"]', 'periods=["1970-01-12", "soon"]',
    "features.sets=5", "learning.group_by_user=False", "labeler.distinct_hashtags=no",
    "learning.per_transition=1", "synth.n_users=2.5", "synth.n_users=true",
    "synth.stance_vocab_size=0", "synth.common_vocab_size=0", "synth.period_seconds=0",
    "synth.start_time=-5.5", "synth.stance_word_prob=2", 'learnig={"outer_k": 3}',
    'learning.families={"gaussian_nb": 1}', 'features.sets="FS1"', 'synth.participation="x"',
    "synth.stance_vocab_size=362", "synth.common_vocab_size=400",
    'learning.spaces={"random_forest": {"n_trees": ["choice", [2.5]]}}',
    'features.sets=["FS1", "FS1"]', "features.sets=[]", 'learning.families=["knn", "knn"]',
    "learning.families=[]",
])
def test_out_of_range_value_is_config_error_at_load(tmp_path, capsys, override):
    config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    capsys.readouterr()
    assert run("synth", config, "--set", override) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# Any JSON value, nested ones included, at any key path of the README config.
_NUMBERS = st.integers() | st.sampled_from([10**400, -(2**63), 2**64]) | st.floats()
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=8)
    | st.sampled_from(["choice", "int", "loguniform", "FS1", "knn", "random_forest", "sqrt"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=12)
# Search-space dimensions: a kind, then any arguments, numbers most often.
_DIMENSIONS = st.builds(lambda kind, args: [kind, *args],
                        st.sampled_from(["choice", "int", "loguniform"]),
                        st.lists(_NUMBERS | st.lists(_NUMBERS, max_size=3) | _JSON_VALUES,
                                 max_size=3))


def _key_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _key_paths(inner, path + (key,))


_README_CONFIG = {**BASE_CONFIG, "input": "in.jsonl", "output_dir": "out"}
_KEY_PATHS = [*_key_paths(_README_CONFIG), ("learnig",), ("labeler", "alpah"),
              *(("learning", "spaces", family, name) for family, name in (
                  ("knn", "k"), ("random_forest", "n_trees"), ("random_forest", "max_depth"),
                  ("random_forest", "max_features"), ("gradient_boosting", "learning_rate"),
                  ("logistic_regression", "l2"), ("gaussian_nb", "var_smoothing")))]


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(_KEY_PATHS), _JSON_VALUES | _DIMENSIONS)
@example(("learning", "spaces", "knn", "k"), ["loguniform", 1, 10**400])  # exp overflows
@example(("learning", "spaces", "logistic_regression", "l2"), ["choice", [10**400]])
@example(("learning", "spaces", "knn", "k"), ["choice", []])
@example(("learning", "spaces", "knn"), [])
def test_any_json_value_anywhere_loads_or_is_config_error(path, value):
    raw = json.loads(json.dumps(_README_CONFIG))
    if not path:
        raw = value
    else:
        target = raw
        for key in path[:-1]:
            target = target.setdefault(key, {})
        target[path[-1]] = value
    try:
        config = PipelineConfig.from_dict(raw)
    except ConfigError:
        return
    assert isinstance(config, PipelineConfig)


def test_config_read_through_a_utf8_bom(tmp_path):
    config = write_config(tmp_path)
    plain = PipelineConfig.from_file(config)
    config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
    assert PipelineConfig.from_file(config) == plain
    assert run("synth", config) == 0


def test_undecodable_config_is_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe{}")
    assert run("synth", config) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {config}")


BAD_LEXICONS = {
    "undecodable": b"[pro]\nvote\xffleave\n[against]\nremain\n",
    "hashtag before a header": b"voteleave\n[pro]\nbrexit\n[against]\nremain\n",
    "overlapping sides": b"[pro]\nbrexit\n[against]\nbrexit\nremain\n",
    "missing side": b"[pro]\nbrexit\n",
}


@pytest.mark.parametrize("lexicon", sorted(BAD_LEXICONS))
def test_bad_lexicon_is_config_error(pipeline_dir, capsys, lexicon):
    from stancecast.stance import DEFAULT_AGAINST_HASHTAGS, DEFAULT_PRO_HASHTAGS
    tmp_path, _ = pipeline_dir
    path = tmp_path / "lexicon.txt"
    path.write_text("\n".join(["[pro]", *sorted(DEFAULT_PRO_HASHTAGS),
                               "[against]", *sorted(DEFAULT_AGAINST_HASHTAGS)]) + "\n")
    config = write_config(tmp_path, lexicon=str(path))
    for command in ("ingest", "label"):
        assert run(command, config) == 0, command
    names = ["label.hash", *TestCaching.ARTIFACTS["label"]]
    before = _stats(tmp_path, names), (tmp_path / "label.hash").read_bytes()
    path.write_bytes(BAD_LEXICONS[lexicon])
    capsys.readouterr()
    assert run("label", config) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: lexicon {path}: ") and err.count("\n") == 1
    assert (_stats(tmp_path, names), (tmp_path / "label.hash").read_bytes()) == before


def test_empty_synth_section_keeps_cli_defaults(tmp_path):
    # The CLI default plants hashtags (hashtag_prob 0.25); the digest pins
    # the corpus these defaults have always written for seed 11.
    config = write_config(tmp_path, synth={})
    assert run("synth", config) == 0
    text = (tmp_path / "synthetic.jsonl").read_bytes()
    assert hashlib.sha256(text).hexdigest() == \
        "7f46b8e6502c95825f603596121e77e1c88e9038163e4f749985acbef6564929"


def test_report_renders_reference_transition_layout(tmp_path):
    # Formatting fixture: a hand-written report with reference transition
    # values must land in the expected (current, next) cells of the TSV.
    matrix = [[0.68, 0.34, 0.35], [0.51, 0.62, 0.45], [0.44, 0.34, 0.59]]
    report = {
        "created": "whenever",
        "seed": 0,
        "outer_k": 10, "inner_k": 5, "search_iters": 500,
        "group_by_user": False,
        "combos": [{
            "family": "gradient_boosting", "set_id": "FS3",
            "metrics_mean": {"macro_f1": 0.539}, "metrics_std": {"macro_f1": 0.01},
            "transition_f1": matrix, "transition_missing": [],
        }],
    }
    config = write_config(tmp_path)
    # report only renders a report.json whose whole upstream chain is current
    for command in ("synth", "ingest", "label", "features"):
        assert run(command, config) == 0, command
    (tmp_path / "report.json").write_text(json.dumps(report), encoding="utf-8")
    key = stage_key(PipelineConfig.from_file(config), "evaluate")
    (tmp_path / "evaluate.hash").write_text(key + "\n", encoding="utf-8")
    assert run("report", config) == 0
    rows = (tmp_path / "report_transitions.tsv").read_text().strip().splitlines()
    cells = {r.split("\t")[3]: r.split("\t")[4:] for r in rows[1:]}
    assert cells["A"] == ["0.680000", "0.340000", "0.350000"]
    assert cells["N"][0] == "0.510000" and cells["N"][2] == "0.450000"
