import numpy as np
import pytest

from hyrel import Hkg, HyperFact, write_kg
from hyrel.autodiff import ParamStore
from hyrel.cli import dispatch, _parse_query
from hyrel.errors import ContractError, DataError, ShapeError
from hyrel.io import format_fact_line
from hyrel.model import HEAD, value_role
from hyrel.predictor import LinkPredictor
from hyrel.training import Checkpoint, TrainConfig, fit


def make_raw_kg(path, units=5):
    facts = []
    for prefix in ("x", "y"):
        ents = [f"{prefix}{i}" for i in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                quals = ((f"{prefix}k", ents[(i + j) % 6]),) if (i + j) % 2 else ()
                facts.append(HyperFact(ents[i], f"{prefix}r", ents[j], quals))
    write_kg(Hkg(facts), path)


def test_unknown_flag_is_usage_error(capsys):
    assert dispatch(["train", "--bogus"]) == 1


def test_unknown_subcommand_is_usage_error():
    assert dispatch(["frobnicate"]) == 1


def test_help_exits_zero():
    assert dispatch(["--help"]) == 0


def test_graph_stats_happy_path(tmp_path, capsys):
    kg_path = tmp_path / "kg.txt"
    make_raw_kg(kg_path)
    assert dispatch(["graph-stats", "--kg", str(kg_path), "--side", "entity",
                     "--dump", str(tmp_path / "edges.tsv")]) == 0
    out = capsys.readouterr().out
    assert "# hyrel" in out.splitlines()[0]
    assert "h2t_e" in out
    dump = (tmp_path / "edges.tsv").read_text(encoding="utf-8")
    assert "\th2t_e\t" in dump


def test_graph_stats_missing_file_is_data_error(tmp_path, capsys):
    assert dispatch(["graph-stats", "--kg", str(tmp_path / "absent.txt")]) == 2


def test_graph_stats_bad_preset_is_usage_error(tmp_path):
    kg_path = tmp_path / "kg.txt"
    make_raw_kg(kg_path)
    assert dispatch(["graph-stats", "--kg", str(kg_path), "--preset", "bogus"]) == 1


def test_split_train_eval_predict_pipeline(tmp_path, capsys):
    kg_path = tmp_path / "raw.txt"
    make_raw_kg(kg_path)
    bundle_dir = tmp_path / "bundle"
    assert dispatch(["split", "--input", str(kg_path), "--out", str(bundle_dir),
                     "--method", "louvain", "--ratios", "0.7,0.15,0.15",
                     "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "train/inference shared entities: 0 (disjoint)" in out

    run_dir = tmp_path / "run"
    assert dispatch(["train", "--bundle", str(bundle_dir), "--out", str(run_dir),
                     "--epochs", "2", "--width", "8", "--encoder-depth", "1",
                     "--head-count", "1", "--decoder-depth", "1",
                     "--batch-size", "16"]) == 0
    out = capsys.readouterr().out
    assert "# seed = 0" in out
    assert (run_dir / "ckpt_best.bin").exists()

    assert dispatch(["eval", "--bundle", str(bundle_dir),
                     "--checkpoint", str(run_dir / "ckpt_best.bin"),
                     "--split", "test", "--tsv"]) == 0
    out = capsys.readouterr().out
    assert "mrr" in out and "hits@10" in out
    assert any(line.startswith("mrr\tALL\t") for line in out.splitlines())

    # Ad-hoc prediction against the trained checkpoint.
    from hyrel.io import load_bundle
    inf = load_bundle(bundle_dir).inference
    fact = inf.facts[0]
    query_text = " ".join(["[MASK]" if i == 2 else t
                           for i, t in enumerate(format_fact_line(fact).split("\t"))])
    assert dispatch(["predict", "--checkpoint", str(run_dir / "ckpt_best.bin"),
                     "--bundle", str(bundle_dir), "--query", query_text,
                     "--topk", "3"]) == 0
    out = capsys.readouterr().out
    assert "rank\tentity\tprobability" in out
    assert dispatch(["predict", "--checkpoint", str(run_dir / "ckpt_best.bin"),
                     "--bundle", str(bundle_dir), "--query", f"{fact.head} nowhere [MASK]",
                     "--topk", "3"]) == 2
    assert "relation 'nowhere' not in the graph vocabulary" in capsys.readouterr().err


def test_config_file_roundtrip(tmp_path, capsys):
    kg_path = tmp_path / "raw.txt"
    make_raw_kg(kg_path)
    cfg_file = tmp_path / "split.cfg"
    cfg_file.write_text("method = louvain\nratios = 0.8,0.1,0.1\nseed = 5\n",
                        encoding="utf-8")
    bundle_dir = tmp_path / "bundle"
    assert dispatch(["split", "--config", str(cfg_file), "--input", str(kg_path),
                     "--out", str(bundle_dir), "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "# seed = 9" in out  # flag overrides the file
    assert "# method = louvain" in out


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("zzz = 1\n", encoding="utf-8")
    assert dispatch(["split", "--config", str(cfg_file), "--input", "x",
                     "--out", "y"]) == 1
    cfg_file.write_text("threads = 4\n", encoding="utf-8")  # eval is single-threaded
    assert dispatch(["eval", "--config", str(cfg_file), "--bundle", "x",
                     "--checkpoint", "y"]) == 1


def test_split_keys_of_a_shared_config_file_stay_out_of_the_train_header(tmp_path, capsys):
    # The header is printed before the (absent) bundle is read, which exits 2.
    cfg_file = tmp_path / "shared.cfg"
    headers = []
    for split_keys in ("", "method = louvain\nhops = 7\n"):
        cfg_file.write_text("epochs = 3\n" + split_keys, encoding="utf-8")
        assert dispatch(["train", "--config", str(cfg_file), "--bundle",
                         str(tmp_path / "absent"), "--out", str(tmp_path / "run")]) == 2
        headers.append([line for line in capsys.readouterr().out.splitlines()
                        if line.startswith("#")])
    assert headers[0] == headers[1]
    assert "# epochs = 3" in headers[0]


def test_bad_config_values_are_usage_errors(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    for command, line, key in (("train", "leakage_guard = true", "leakage_guard"),
                               ("train", "width = abc", "width"),
                               ("train", "step_size = nan", "step_size"),
                               ("train", "interactions = bogus", "interaction"),
                               ("train", "seed = -1", "seed"),
                               ("split", "relation_disjoint = yes", "relation_disjoint"),
                               ("split", "ratios = 0.5,x,0.5", "ratios"),
                               ("split", "seed = -1", "seed")):
        cfg_file.write_text(line + "\n", encoding="utf-8")
        paths = (["--bundle", "x", "--out", str(tmp_path / "run")] if command == "train"
                 else ["--input", "x", "--out", str(tmp_path / "bundle")])
        assert dispatch([command, "--config", str(cfg_file)] + paths) == 1, line
        assert key in capsys.readouterr().err


def test_truncated_checkpoint_is_data_error(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.bin"
    ckpt.write_bytes(b"HYRELP1\n\x01\x00")
    assert dispatch(["eval", "--bundle", "x", "--checkpoint", str(ckpt)]) == 2
    assert "truncated parameter checkpoint" in capsys.readouterr().err


def seeded_checkpoint(bundle_dir, path, seed):
    from hyrel.io import load_bundle
    cfg = TrainConfig(epochs=0, seed=seed, width=8, encoder_depth=1, head_count=1,
                      decoder_depth=1)
    fit(load_bundle(bundle_dir), cfg).save(path)


def test_mismatched_checkpoint_pair_is_data_error(tmp_path, capsys):
    kg_path = tmp_path / "raw.txt"
    make_raw_kg(kg_path)
    bundle_dir = tmp_path / "bundle"
    dispatch(["split", "--input", str(kg_path), "--out", str(bundle_dir),
              "--method", "louvain", "--ratios", "0.7,0.15,0.15"])
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    seeded_checkpoint(bundle_dir, a, seed=0)
    seeded_checkpoint(bundle_dir, b, seed=1)
    capsys.readouterr()
    assert dispatch(["eval", "--bundle", str(bundle_dir), "--checkpoint", str(a)]) == 0
    # Run A's sidecar beside run B's parameters: same model, other weights.
    a.write_bytes(b.read_bytes())
    capsys.readouterr()
    assert dispatch(["eval", "--bundle", str(bundle_dir), "--checkpoint", str(a)]) == 2
    captured = capsys.readouterr()
    assert "bin_sha256" in captured.err and "mrr" not in captured.out


def test_eval_header_is_the_checkpoint_configuration(tmp_path, capsys):
    # eval reads no key of its config file, so none may enter its header or
    # hash.  The header is printed before the (absent) bundle is read.
    kg_path = tmp_path / "raw.txt"
    make_raw_kg(kg_path)
    bundle_dir = tmp_path / "bundle"
    dispatch(["split", "--input", str(kg_path), "--out", str(bundle_dir),
              "--method", "louvain", "--ratios", "0.7,0.15,0.15"])
    ckpt = tmp_path / "ckpt.bin"
    seeded_checkpoint(bundle_dir, ckpt, seed=4)
    cfg_file = tmp_path / "eval.cfg"
    cfg_file.write_text("epochs = 3\n", encoding="utf-8")
    capsys.readouterr()
    headers = []
    for config in ([], ["--config", str(cfg_file)]):
        assert dispatch(["eval", "--bundle", str(tmp_path / "absent"),
                         "--checkpoint", str(ckpt)] + config) == 2
        headers.append([line for line in capsys.readouterr().out.splitlines()
                        if line.startswith("#")])
    assert headers[0] == headers[1]
    assert "# epochs = 0" in headers[0] and "# width = 8" in headers[0]
    assert " seed=4 " in headers[0][0]


def test_predict_header_is_the_checkpoint_configuration(tmp_path, capsys):
    # Checkpoints that differ only in structure must not share a header.
    from hyrel.io import load_bundle
    kg_path = tmp_path / "raw.txt"
    make_raw_kg(kg_path)
    bundle_dir = tmp_path / "bundle"
    dispatch(["split", "--input", str(kg_path), "--out", str(bundle_dir),
              "--method", "louvain", "--ratios", "0.7,0.15,0.15"])
    headers = []
    for structure in ("parallel", "relation-driven"):
        ckpt = tmp_path / f"{structure}.bin"
        cfg = TrainConfig(epochs=0, seed=4, width=8, encoder_depth=1, head_count=1,
                          decoder_depth=1, structure=structure)
        fit(load_bundle(bundle_dir), cfg).save(ckpt)
        capsys.readouterr()
        assert dispatch(["predict", "--checkpoint", str(ckpt), "--kg", str(kg_path),
                         "--query", "x0 xr [MASK]", "--topk", "2"]) == 0
        headers.append([line for line in capsys.readouterr().out.splitlines()
                        if line.startswith("#")])
    assert headers[0][0] != headers[1][0]
    assert " seed=4 " in headers[0][0]
    assert "# structure = parallel" in headers[0] and "# topk = 2" in headers[0]
    assert "# structure = relation-driven" in headers[1]


def test_predict_topk_below_one_is_usage_error(tmp_path, capsys):
    kg_path = tmp_path / "raw.txt"
    make_raw_kg(kg_path)
    bundle_dir = tmp_path / "bundle"
    dispatch(["split", "--input", str(kg_path), "--out", str(bundle_dir),
              "--method", "louvain", "--ratios", "0.7,0.15,0.15"])
    ckpt = tmp_path / "ckpt.bin"
    seeded_checkpoint(bundle_dir, ckpt, seed=0)
    capsys.readouterr()
    for topk, code in (("1", 0), ("0", 1), ("-3", 1)):
        assert dispatch(["predict", "--checkpoint", str(ckpt), "--kg", str(kg_path),
                         "--query", "x0 xr [MASK]", "--topk", topk]) == code
    assert "--topk must be at least 1" in capsys.readouterr().err


def test_non_finite_scores_are_data_errors_in_predict_and_eval(tmp_path, capsys):
    # A diverged checkpoint, saved with a valid hash: NaN scores must never
    # print as a ranking or a metric.
    from hyrel.io import load_bundle
    kg_path = tmp_path / "raw.txt"
    make_raw_kg(kg_path)
    bundle_dir = tmp_path / "bundle"
    dispatch(["split", "--input", str(kg_path), "--out", str(bundle_dir),
              "--method", "louvain", "--ratios", "0.7,0.15,0.15"])
    cfg = TrainConfig(epochs=0, seed=0, width=8, encoder_depth=1, head_count=1,
                      decoder_depth=1)
    ckpt = fit(load_bundle(bundle_dir), cfg)
    ckpt.store["decoder/out_bias"].data[:] = np.nan
    path = tmp_path / "nan.bin"
    ckpt.save(path)
    capsys.readouterr()
    assert dispatch(["predict", "--checkpoint", str(path), "--kg", str(kg_path),
                     "--query", "x0 xr [MASK]", "--topk", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "NaN or infinite" in captured.err
    assert dispatch(["eval", "--bundle", str(bundle_dir), "--checkpoint", str(path)]) == 2
    captured = capsys.readouterr()
    assert "mrr" not in captured.out and "NaN or infinite" in captured.err


def test_eval_of_an_empty_split_is_data_error(tmp_path, capsys):
    # No query means no metric: eval must not print mrr 0.0000 over 0 queries.
    kg_path = tmp_path / "raw.txt"
    make_raw_kg(kg_path)
    bundle_dir = tmp_path / "bundle"
    dispatch(["split", "--input", str(kg_path), "--out", str(bundle_dir),
              "--method", "louvain", "--ratios", "0.7,0.15,0.15"])
    ckpt = tmp_path / "ckpt.bin"
    seeded_checkpoint(bundle_dir, ckpt, seed=0)
    (bundle_dir / "test.txt").write_text("", encoding="utf-8")
    capsys.readouterr()
    assert dispatch(["eval", "--bundle", str(bundle_dir), "--checkpoint", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert "mrr" not in captured.out and "the test split has no facts" in captured.err


@pytest.mark.parametrize("error", (ContractError, ShapeError))
def test_a_broken_internal_precondition_exits_3(tmp_path, capsys, monkeypatch, error):
    def broken(path):
        raise error("a precondition of the program's own call")

    monkeypatch.setattr("hyrel.cli.load_kg", broken)
    assert dispatch(["graph-stats", "--kg", str(tmp_path / "raw.txt")]) == 3
    assert "internal invariant failure" in capsys.readouterr().err


def test_head_count_not_dividing_width_is_usage_error(tmp_path, capsys):
    # Exit 1 before the (absent) bundle is read; reading it would exit 2.
    assert dispatch(["train", "--bundle", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "run"), "--width", "8",
                     "--head-count", "3"]) == 1
    assert "not divisible by head count 3" in capsys.readouterr().err


def test_checkpoint_with_per_head_names_is_data_error(tmp_path, capsys):
    # Checkpoints from before the heads were fused store decoder/layerL/headH/*;
    # the mismatch is found before the (absent) bundle is read.
    cfg = TrainConfig(width=8, encoder_depth=1, head_count=2, decoder_depth=1)
    fused = LinkPredictor.build(cfg, seed=0).store
    per_head = ParamStore()
    for name, value in fused.items():
        stem, kind = name.rsplit("/", 1)
        if kind in ("wq", "wk", "wv", "key_bias", "value_bias"):
            for h, block in enumerate(np.split(value.data, 2, axis=1)):
                per_head.add(f"{stem}/head{h}/{kind}", block)
        else:
            per_head.add(name, value.data)
    ckpt = tmp_path / "old.bin"
    Checkpoint(cfg, per_head, 0, [], []).save(ckpt)
    assert dispatch(["eval", "--bundle", str(tmp_path / "absent"),
                     "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "missing tensor 'decoder/layer0/wq'" in err
    assert "extra tensor 'decoder/layer0/head0/wq'" in err


def test_selfcheck_quick(capsys):
    assert dispatch(["selfcheck", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "ok - foundation graphs vs brute-force rules" in out
    assert "ok - gradients vs finite differences" in out
    assert "ok - score equivariance under relabeling" in out
    assert "ok - chunk rows vs each query scored alone" in out


def test_ablation_flag_selects_preset(tmp_path, capsys):
    kg_path = tmp_path / "raw.txt"
    make_raw_kg(kg_path)
    bundle_dir = tmp_path / "bundle"
    dispatch(["split", "--input", str(kg_path), "--out", str(bundle_dir),
              "--method", "louvain", "--ratios", "0.8,0.1,0.1"])
    capsys.readouterr()
    run_dir = tmp_path / "run2"
    assert dispatch(["train", "--bundle", str(bundle_dir), "--out", str(run_dir),
                     "--epochs", "1", "--width", "8", "--encoder-depth", "1",
                     "--head-count", "1", "--decoder-depth", "1",
                     "--ablation", "noV"]) == 0
    out = capsys.readouterr().out
    assert "# ablation = noV" in out
    assert "# interactions = noV" in out  # the header shows the run's configuration
    meta = (run_dir / "ckpt_best.bin.meta").read_text(encoding="utf-8")
    assert "interactions = noV" in meta
    run_dir = tmp_path / "run3"
    assert dispatch(["train", "--bundle", str(bundle_dir), "--out", str(run_dir),
                     "--epochs", "0", "--width", "8", "--encoder-depth", "1",
                     "--head-count", "1", "--decoder-depth", "1",
                     "--ablation", "ultra-alike"]) == 0
    assert "# structure = relation-driven" in capsys.readouterr().out
    meta = (run_dir / "ckpt_final.bin.meta").read_text(encoding="utf-8")
    assert "structure = relation-driven" in meta


def test_train_is_reproducible_across_invocations(tmp_path, capsys):
    kg_path = tmp_path / "raw.txt"
    make_raw_kg(kg_path)
    bundle_dir = tmp_path / "bundle"
    dispatch(["split", "--input", str(kg_path), "--out", str(bundle_dir),
              "--method", "louvain", "--ratios", "0.7,0.15,0.15"])
    capsys.readouterr()
    args = ["--epochs", "2", "--width", "8", "--encoder-depth", "1",
            "--head-count", "1", "--decoder-depth", "1", "--seed", "4"]
    assert dispatch(["train", "--bundle", str(bundle_dir),
                     "--out", str(tmp_path / "a")] + args) == 0
    assert dispatch(["train", "--bundle", str(bundle_dir),
                     "--out", str(tmp_path / "b")] + args) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "ckpt_final.bin").read_bytes() == \
        (tmp_path / "b" / "ckpt_final.bin").read_bytes()

    assert dispatch(["eval", "--bundle", str(bundle_dir),
                     "--checkpoint", str(tmp_path / "a" / "ckpt_final.bin"),
                     "--tsv"]) == 0
    first = capsys.readouterr().out
    assert dispatch(["eval", "--bundle", str(bundle_dir),
                     "--checkpoint", str(tmp_path / "b" / "ckpt_final.bin"),
                     "--tsv"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_parse_query_variants():
    from hyrel import TAIL
    q = _parse_query("a r [MASK]")
    assert q.masked == TAIL
    q2 = _parse_query("[MASK] r b k v")
    assert q2.masked == HEAD
    q3 = _parse_query("a r b k [MASK]")
    assert q3.masked == value_role(0)
    with pytest.raises(DataError):
        _parse_query("a r")
    with pytest.raises(DataError):
        _parse_query("a [MASK] b")
    with pytest.raises(DataError):
        _parse_query("a r b [MASK] v")
    with pytest.raises(DataError):
        _parse_query("[MASK] r [MASK]")


@pytest.mark.parametrize("arity", range(4))
def test_parse_query_masks_every_entity_slot_and_no_relation_slot(arity):
    from hyrel import TAIL
    tokens = ["h", "r", "t"] + [f"{kind}{i}" for i in range(arity) for kind in "kv"]
    entity_slots = {0: HEAD, 2: TAIL, 4: value_role(0), 6: value_role(1), 8: value_role(2)}
    for slot in range(len(tokens)):
        text = " ".join("[MASK]" if i == slot else t for i, t in enumerate(tokens))
        if slot in entity_slots:
            query = _parse_query(text)
            assert query.masked == entity_slots[slot] and query.answer is None
            assert query.base.arity == arity and query.base.relation == "r"
        else:
            with pytest.raises(DataError, match="entity slot"):
                _parse_query(text)
