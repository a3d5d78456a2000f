import json
import re
from pathlib import Path

import numpy as np
import pytest

from stepmask.cli import main
from stepmask.config import DEFAULTS, TYPES, RunConfig
from stepmask.errors import ConfigError
from stepmask.model import checkpoint_digest


def write_config(tmp_path: Path, **overrides) -> Path:
    data = {
        "seed": 11,
        "corpus": {
            "num_tasks": 3, "steps_per_task": 4, "vocab_size": 12,
            "videos_per_task": 8, "feature_noise_sigma": 0.05, "asr_noise": 0.0,
            "feature_dim": 16, "split_ratios": [0.7, 0.15, 0.15],
        },
        "model": {"d": 32, "heads": 4},
        "mask": {"ratio": 0.25},
        "pretrain": {"epochs": 15},
        "finetune": {"epochs": 3, "optimizer": "adamw", "lr": 0.001},
        "benchmarks": {"instances_per_video": 2},
        "paths": {
            "corpus_dir": str(tmp_path / "corpus"),
            "checkpoints_dir": str(tmp_path / "ckpt"),
            "reports_dir": str(tmp_path / "reports"),
            "benchmarks_dir": str(tmp_path / "bench"),
        },
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestRunConfig:
    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"corpus": {"bogus_knob": 3}}')
        with pytest.raises(ConfigError, match="corpus.bogus_knob"):
            RunConfig.load(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mystery": {}}')
        with pytest.raises(ConfigError, match="mystery"):
            RunConfig.load(path)

    def test_set_override_and_digest(self, tmp_path):
        path = write_config(tmp_path)
        base = RunConfig.load(path)
        overridden = RunConfig.load(path, overrides=["pretrain.epochs=99"])
        assert overridden.data["pretrain"]["epochs"] == 99
        assert base.digest() != overridden.digest()

    def test_paths_do_not_affect_digest(self, tmp_path):
        a = RunConfig.load(write_config(tmp_path))
        b = RunConfig.load(write_config(tmp_path))
        b.data["paths"]["reports_dir"] = "/somewhere/else"
        assert a.digest() == b.digest()

    def test_bad_override_rejected(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError):
            RunConfig.load(path, overrides=["pretrain.bogus=1"])

    def test_seed_override(self, tmp_path):
        cfg = RunConfig.load(write_config(tmp_path), seed=123)
        assert cfg.seed == 123
        assert cfg.corpus_config().seed == 123
        assert cfg.mask_spec().seed == 123
        assert cfg.finetune_config().seed == 123
        pinned = RunConfig.load(
            write_config(tmp_path), overrides=["corpus.seed=5", "mask.seed=6", "finetune.seed=7"],
            seed=123,
        )
        assert (
            pinned.corpus_config().seed, pinned.mask_spec().seed, pinned.finetune_config().seed
        ) == (5, 6, 7)


class TestConfigSchema:
    def test_pinned_digests(self, tmp_path):
        assert RunConfig({}).digest() == (
            "98c22ee5959f92a077fe78a94683df124790a7a5741b2d87ba2e688c2a5b143d"
        )
        assert RunConfig.load(write_config(tmp_path)).digest() == (
            "56abfefdba27b1cb488a42ce111e14d6dac5dc75b0fd2e913149504c11abbcc0"
        )

    def test_every_default_key_rejects_a_wrong_json_type(self):
        wrong = {bool: 1, int: True, float: "0.5", str: 1, list: "x", type(None): []}

        def leaves(node, prefix=()):
            for key, value in node.items():
                if isinstance(value, dict):
                    yield from leaves(value, (*prefix, key))
                else:
                    yield (*prefix, key), value

        checked = 0
        for path, default in leaves(DEFAULTS):
            data = wrong[type(default)]
            for key in reversed(path):
                data = {key: data}
            with pytest.raises(ConfigError, match=rf"^{re.escape('.'.join(path))}: expected"):
                RunConfig(data)
            checked += 1
        assert checked == 42

    def test_values_are_checked_not_converted(self):
        cfg = RunConfig({"finetune": {"lr": 1}, "corpus": {"steps_per_task": [4, 6]}})
        assert type(cfg.data["finetune"]["lr"]) is int
        assert type(cfg.finetune_config().lr) is int
        assert cfg.data["corpus"]["steps_per_task"] == [4, 6]
        assert cfg.corpus_config().steps_per_task == (4, 6)

    def test_readme_config_matches_schema(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        data = json.loads(re.sub(r"//.*", "", block))
        cfg = RunConfig(data)

        def same_keys(types, section, where):
            assert set(section) == set(types), where
            for key, tp in types.items():
                if isinstance(tp, dict):
                    same_keys(tp, section[key], f"{where}.{key}")

        same_keys(TYPES, data, "config")
        # The documented values build, too.
        cfg.corpus_config(), cfg.mask_spec(), cfg.pretrain_optimizer(), cfg.finetune_config()


# Each run exits 1 with a log line naming the key (or the file); none may show
# a traceback. `damage` rewrites the corpus manifest generated beforehand.
CONFIG_DEFECTS = {
    "seed_string": ("gen-corpus", 'seed="a"', None, "seed: expected int, got 'a'"),
    "seed_object": ("gen-corpus", "seed.x=1", None, "seed: expected int"),
    "steps_list_of_one": ("gen-corpus", "corpus.steps_per_task=[3]", None, "corpus.steps_per_task"),
    "mask_ratio_string": ("pretrain", 'mask.ratio="x"', None, "mask.ratio: expected float"),
    "model_d_string": ("pretrain", 'model.d="64"', None, "model.d: expected int"),
    "lr_string": ("pretrain", 'pretrain.optimizer.lr="1e-3"', None, "pretrain.optimizer.lr"),
    "accumulate_float": ("pretrain", "pretrain.accumulate=1.5", None, "pretrain.accumulate"),
    "resample_string": ("pretrain", 'mask.resample_if_empty="no"', None, "mask.resample_if_empty"),
    "donor_string": (
        "gen-benchmarks", 'benchmarks.same_task_donor="no"', None, "benchmarks.same_task_donor",
    ),
    "recipe_desk": ("pretrain", 'pretrain.recipe="desk"', None, "pretrain.recipe"),
    "model_d_in": ("pretrain", "model.d_in=8", None, "model.d_in: unknown key"),
    "negative_tasks": ("gen-corpus", "corpus.num_tasks=-1", None, "num_tasks"),
    "no_videos": ("gen-corpus", "corpus.videos_per_task=0", None, "videos_per_task"),
    "two_ratios": ("gen-corpus", "corpus.split_ratios=[1, 2]", None, "corpus.split_ratios"),
    "ratios_over_1": ("gen-corpus", "corpus.split_ratios=[0.5, 0.5, 0.5]", None, "split_ratios"),
    "negative_epochs": ("pretrain", "pretrain.epochs=-3", None, "epochs must be >= 0"),
    "manifest_not_json": (
        "gen-benchmarks", None, lambda text: text[:-5], r"manifest.json: .* \(char \d+\)",
    ),
    "manifest_list": ("gen-benchmarks", None, lambda text: "[1, 2]", "manifest.json: top level"),
    "manifest_string_tasks": (
        "gen-benchmarks", None, lambda text: text.replace('"num_tasks": 3', '"num_tasks": "3"'),
        "manifest.json: config.num_tasks: expected int",
    ),
}


@pytest.mark.parametrize("command, override, damage, message", CONFIG_DEFECTS.values(),
                         ids=CONFIG_DEFECTS.keys())
def test_config_defect_exits_1_naming_the_key(
    tmp_path, caplog, capsys, command, override, damage, message
):
    config = write_config(tmp_path)
    assert main(["gen-corpus", str(config)]) == 0
    manifest = tmp_path / "corpus" / "manifest.json"
    if damage is not None:
        manifest.write_text(damage(manifest.read_text()))
    caplog.clear()
    assert main([command, str(config), *(["--set", override] if override else [])]) == 1
    assert re.search(message, caplog.text)
    assert "Traceback" not in capsys.readouterr().err + caplog.text
    assert not (tmp_path / "ckpt" / "pretrain.vtfm").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    config = write_config(tmp_path)
    assert main(["gen-corpus", str(config)]) == 0
    assert main(["pretrain", str(config)]) == 0
    assert main(["gen-benchmarks", str(config), "--kinds", "proc_rec,mistake_order"]) == 0
    return tmp_path, config


class TestCliPipeline:
    def test_artifacts_exist(self, pipeline):
        tmp_path, _ = pipeline
        assert (tmp_path / "corpus" / "manifest.json").exists()
        assert (tmp_path / "corpus" / "features.stpf").exists()
        assert (tmp_path / "ckpt" / "pretrain.vtfm").exists()
        assert (tmp_path / "ckpt" / "pretrain.vtfm.json").exists()
        assert (tmp_path / "reports" / "pretrain_report.csv").exists()
        assert (tmp_path / "bench" / "proc_rec.train.jsonl").exists()
        assert (tmp_path / "bench" / "proc_rec.test.jsonl").exists()

    def test_artifacts_carry_config_digest(self, pipeline):
        tmp_path, config = pipeline
        digest = RunConfig.load(config).digest()
        manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
        assert manifest["config_digest"] == digest
        sidecar = json.loads((tmp_path / "ckpt" / "pretrain.vtfm.json").read_text())
        assert sidecar["provenance"]["config_digest"] == digest
        bench = json.loads((tmp_path / "bench" / "proc_rec.test.manifest.json").read_text())
        assert bench["config_digest"] == digest

    def test_finetune_eval_report(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert main(["finetune", str(config), "--task", "proc_rec"]) == 0
        capsys.readouterr()
        rc = main([
            "eval", str(config),
            "--checkpoint", str(tmp_path / "ckpt" / "finetune_proc_rec.vtfm"),
            "--benchmark", str(tmp_path / "bench" / "proc_rec.test.jsonl"),
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["task"] == "proc_rec"
        assert out["split"] == "test"
        assert 0.0 <= out["accuracy"] <= 1.0
        assert out["correct"] <= out["total"]
        rc = main(["report", str(config)])
        assert rc == 0
        csv_out = capsys.readouterr().out
        assert csv_out.splitlines()[0] == "task,split,accuracy,correct,total"
        assert (tmp_path / "reports" / "summary.csv").exists()

    def test_eval_empty_benchmark_exits_1(self, pipeline, caplog):
        tmp_path, config = pipeline
        empty = tmp_path / "bench" / "empty.jsonl"
        empty.write_text("")
        rc = main([
            "eval", str(config),
            "--checkpoint", str(tmp_path / "ckpt" / "pretrain.vtfm"),
            "--benchmark", str(empty),
        ])
        assert rc == 1
        assert "empty dataset" in caplog.text

    def test_benchmark_manifest_counts_skipped_slots(self, pipeline):
        tmp_path, _ = pipeline
        for kind in ("proc_rec", "mistake_order"):
            manifest = json.loads((tmp_path / "bench" / f"{kind}.train.manifest.json").read_text())
            assert manifest["skipped"] == 0

    def test_eval_benchmark_that_is_not_utf8_exits_1(self, pipeline, caplog, capsys):
        tmp_path, config = pipeline
        bad = tmp_path / "bench" / "bad.jsonl"
        bad.write_bytes(b"\xff" + (tmp_path / "bench" / "proc_rec.test.jsonl").read_bytes())
        rc = main([
            "eval", str(config),
            "--checkpoint", str(tmp_path / "ckpt" / "pretrain.vtfm"),
            "--benchmark", str(bad),
        ])
        assert rc == 1
        assert "bad.jsonl:1: 'utf-8' codec can't decode byte 0xff in position 0" in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    def test_eval_truncated_checkpoint_exits_1(self, pipeline, caplog, capsys):
        tmp_path, config = pipeline
        cut = tmp_path / "ckpt" / "truncated.vtfm"
        cut.write_bytes((tmp_path / "ckpt" / "pretrain.vtfm").read_bytes()[:-100])
        rc = main([
            "eval", str(config),
            "--checkpoint", str(cut),
            "--benchmark", str(tmp_path / "bench" / "proc_rec.test.jsonl"),
        ])
        assert rc == 1
        assert "truncated.vtfm: file ends inside" in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    def test_pretrain_divergence_exits_2_with_lastgood(self, pipeline, caplog):
        tmp_path, config = pipeline
        rc = main([
            "pretrain", str(config),
            "--set", "pretrain.optimizer.kind=sgd_momentum", "--set", "pretrain.optimizer.lr=1e18",
        ])
        assert rc == 2
        assert (tmp_path / "ckpt" / "pretrain_lastgood.vtfm").exists()
        assert "last-good checkpoint saved" in caplog.text

    def test_finetune_divergence_exits_2_with_pretrained_lastgood(self, pipeline):
        tmp_path, config = pipeline
        rc = main([
            "finetune", str(config), "--task", "mistake_order",
            "--set", "finetune.optimizer=sgd_momentum", "--set", "finetune.lr=1e18",
        ])
        assert rc == 2
        # It diverges in its first epoch, so the last good weights are the input's.
        lastgood = tmp_path / "ckpt" / "finetune_mistake_order_lastgood.vtfm"
        assert checkpoint_digest(lastgood) == checkpoint_digest(tmp_path / "ckpt" / "pretrain.vtfm")
        assert not (tmp_path / "ckpt" / "finetune_mistake_order.vtfm").exists()

    def test_short_feature_sidecar_exits_1(self, tmp_path, caplog, capsys):
        config = write_config(tmp_path)
        assert main(["gen-corpus", str(config)]) == 0
        sidecar = tmp_path / "corpus" / "features.stpf"
        sidecar.write_bytes(sidecar.read_bytes()[:10])
        assert main(["pretrain", str(config)]) == 1
        assert "features.stpf: file ends inside the header at byte 10" in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    def test_unknown_config_key_exits_1(self, tmp_path, caplog):
        bad = tmp_path / "bad.json"
        bad.write_text('{"pretrain": {"nonsense": true}}')
        assert main(["pretrain", str(bad)]) == 1
        assert "pretrain.nonsense" in caplog.text

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["pretrain", str(tmp_path / "nope.json")]) == 1

    def test_vocab_that_is_not_utf8_exits_1(self, tmp_path, caplog, capsys):
        config = write_config(tmp_path)
        assert main(["gen-corpus", str(config)]) == 0
        vocab = tmp_path / "corpus" / "vocab.json"
        vocab.write_bytes(b"\xff" + vocab.read_bytes())
        caplog.clear()
        assert main(["gen-benchmarks", str(config)]) == 1
        assert "vocab.json: 'utf-8' codec can't decode byte 0xff in position 0" in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    @pytest.mark.parametrize(
        "entry, match",
        [
            ({"id": 1.7, "title": 5, "description": "d"}, r"vocab.json: entry 1: id 1.7 is not an integer"),
            ({"id": 1, "title": 5, "description": "d"}, r"vocab.json: entry 1: title 5 is not a string"),
            ({"id": True, "title": "t", "description": "d"}, r"vocab.json: entry 1: id True is not an integer"),
            ({"id": 1, "title": "t"}, r"vocab.json: entry 1: missing 'description'"),
            ("step", r"vocab.json: entry 1: 'step' is not an object"),
            ({"id": 0, "title": "t", "description": "d"}, r"vocab.json: entry 1: duplicate id 0"),
        ],
        ids=["float_id", "int_title", "bool_id", "missing_description", "not_an_object", "duplicate_id"],
    )
    def test_vocab_entry_of_wrong_type_exits_1(self, tmp_path, caplog, capsys, entry, match):
        config = write_config(tmp_path)
        assert main(["gen-corpus", str(config)]) == 0
        vocab = tmp_path / "corpus" / "vocab.json"
        records = json.loads(vocab.read_text())
        records[1] = entry
        vocab.write_text(json.dumps(records))
        caplog.clear()
        assert main(["gen-benchmarks", str(config)]) == 1
        assert re.search(match, caplog.text), caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    def test_config_that_is_not_utf8_exits_1(self, tmp_path, caplog, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff{"seed": 1}')
        assert main(["gen-corpus", str(bad)]) == 1
        assert "bad.json: 'utf-8' codec can't decode byte 0xff in position 0" in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text


class TestReportAggregation:
    def test_refuses_mixed_corpora(self, tmp_path, caplog):
        reports = tmp_path / "reports"
        reports.mkdir()
        for i, digest in enumerate(["aaa", "bbb"]):
            (reports / f"eval_step_cls_split{i}.json").write_text(json.dumps({
                "task": "step_cls", "split": f"s{i}", "accuracy": 0.5,
                "correct": 1, "total": 2, "config_digest": "x",
                "corpus_digest": digest,
            }))
        assert main(["report", "--reports", str(reports)]) == 1
        assert "different corpora" in caplog.text

    def test_truncated_eval_report_exits_1(self, tmp_path, caplog, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        text = json.dumps({"task": "step_cls", "split": "test", "accuracy": 0.5, "correct": 1,
                           "total": 2, "config_digest": "x", "corpus_digest": "aaa"})
        (reports / "eval_step_cls_test.json").write_text(text[:-20])
        assert main(["report", "--reports", str(reports)]) == 1
        assert re.search(r"eval_step_cls_test.json: .* \(char \d+\)", caplog.text)
        assert "Traceback" not in capsys.readouterr().err + caplog.text


    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda r: r.update(accuracy="x"), r"accuracy 'x' is not a number"),
            (lambda r: r.pop("split"), r"missing 'split'"),
            (lambda r: r.pop("correct"), r"missing 'correct'"),
            (lambda r: r.pop("total"), r"missing 'total'"),
            (lambda r: r.update(correct=1.5), r"correct 1.5 is not an integer"),
        ],
        ids=["string_accuracy", "no_split", "no_correct", "no_total", "float_correct"],
    )
    def test_eval_report_row_defect_exits_1(self, tmp_path, caplog, capsys, edit, match):
        reports = tmp_path / "reports"
        reports.mkdir()
        rec = {"task": "step_cls", "split": "test", "accuracy": 0.5, "correct": 1,
               "total": 2, "config_digest": "x", "corpus_digest": "aaa"}
        edit(rec)
        (reports / "eval_step_cls_test.json").write_text(json.dumps(rec))
        assert main(["report", "--reports", str(reports)]) == 1
        assert re.search("eval_step_cls_test.json: " + match, caplog.text), caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text
        assert not (reports / "summary.csv").exists()


class TestGradcheckCommand:
    def test_gradcheck_exit_zero_under_threshold(self, capsys):
        rc = main(["gradcheck"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["pass"] is True
        assert out["max_relative_error"] < 1e-5
        assert set(out["errors"]) == {"sc", "dm"}

    def test_main_leaves_the_float_error_state_as_it_found_it(self, capsys):
        before = np.geterr()
        assert main(["gradcheck"]) == 0
        capsys.readouterr()
        assert np.geterr() == before
