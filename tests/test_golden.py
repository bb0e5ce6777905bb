"""Byte-identity of fixed-seed outputs.

A refactor must leave every dataset TSV, model JSON, report CSV and CLI
output of a fixed seed unchanged to the byte.  Each test here recomputes a
group of such outputs at small sizes and compares their SHA-256 digests
with the ones pinned below.  A change that alters an output on purpose
updates its digest in the same change and says why.
"""

import contextlib
import hashlib
import io

from whitmin.cli import main
from whitmin.clustering import clustering_experiment
from whitmin.datasets import DatasetSpec, generate_dataset, save_tsv
from whitmin.features import builtin_map
from whitmin.pipeline import PipelineConfig, evaluate, pipeline_to_json, train_pipeline

RANKS = (2, 3, 5, 12)
SPECS = {"D": dict(max_length=30, per_length=2), "Se": dict(max_length=30, per_length=2),
         "S10": dict(max_length=30, per_length=2), "SR": dict(max_length=40, size=40),
         "SP": dict(size=40)}
# (method, quantizer kind, bins): all five methods and the three quantizer kinds
PIPELINES = (("regression", "equal_interval", 100), ("fisher", "equal_probability", 50),
             ("svm", "min_error", 8), ("distance", None, 100), ("tree", None, 100))
MINIMIZE = (("abAB", 2), ("aabAbbaBBaa", 2), ("Bab", 2), ("a", 2), ("aA", 2),
            ("acbCaBcAbbc", 3), ("aebdcEAbDCeae", 5), ("azbyZcYBxAXC", 26))

DATASET_DIGESTS = {
    "D-2.tsv":
        "17eff263f4087078eb565f53501b552cc3a1f9f6704c2361f95a4dbdb4189620",
    "Se-2.tsv":
        "68d1b7592e1d66c04b3f8b139d8d45e31d719896889a1493fd8b6b1e20d70e91",
    "S10-2.tsv":
        "5daad910988309adbc7ffd8165b7399fd88676221898f98994e5c6ba9c18b962",
    "SR-2.tsv":
        "a46659d3638a3eaa60c30a1b4ade69fd586db0eccc497d32a8d623d69413fbb2",
    "SP-2.tsv":
        "754c10ce4f1c0dbea5ba2640d467e708f0d6578a14cd48f936d765ced46f99fb",
    "D-3.tsv":
        "6ca5c6476c9b925d221eb0c94daafb7b059671fbedd49d8cba95a8f9aca4bd25",
    "Se-3.tsv":
        "11bc7d67759dd5f41a4f780a59face2326ed133c9ca5dd36af2229e4c12a61d6",
    "S10-3.tsv":
        "65213b4a522507db273491b64a2ff0c8b15c79487ce9bd194dd1f512258ef5d2",
    "SR-3.tsv":
        "f43dae53fd01a95408e75383d10fcd64fd6c89713d65c84f138c32d7b1272f53",
    "SP-3.tsv":
        "8ee9c1caf35bb6f170e66958cafc1dcf81d33bc7587d45fb6038b995a44e6da8",
    "D-5.tsv":
        "a2aef36bc06901ea85f2f44970b600546ddf3c33ae03ed92f6edd655226df48b",
    "Se-5.tsv":
        "0894dc850f195e22e466a4807e4d88b2dede3788e24e5599f6fcdc5339818ac3",
    "S10-5.tsv":
        "3cad48d750f1af9a299c7cb8c4b496362249ea79662ef4af0f6b735d6d014aeb",
    "SR-5.tsv":
        "b800113b67b925e2d7e9b50d3a80cc3b6b4f8f1f433bbed4f026cfa3fe2fbc30",
    "SP-5.tsv":
        "05f152cde4ee86ab8ac6754b970aa30fa9a0b901cafe08150af83416f53a77d3",
    "D-12.tsv":
        "95da0b13246109a4832d75943bc6849fa6d7dc62173ec6bdfeba78e22b2adcd7",
    "Se-12.tsv":
        "885928b012208195f318b853971cfe719ba15f3040c774be95174dc7300364c9",
    "S10-12.tsv":
        "9196a3bc570664b7b356269e4143e22f7d4b074b85917c7194ea15f74e087010",
    "SR-12.tsv":
        "0bc09a4b33394da353cfb481bf1217e98fbd051ce8fabf62dc1eab1d93ccdef3",
    "SP-12.tsv":
        "d2bd7bd392afc42c7c2852e782b854b3d46f4b998780ede0ae20ed69f34aeaa8",
}
PIPELINE_DIGESTS = {
    "regression.json":
        "9ba5eab006b43f6d38f70feccc0c5a2102367c732a7935fc6811a47086761847",
    "regression.strata.csv":
        "63c03fc6235531ee38392e78de64ae7d4ac3d4ba1bb0d864300a65d6cca0a6b0",
    "regression.histogram.csv":
        "88fc684bc4eb70bc3803da2503d01176b0bc2c85887b5e51741d39239408c5b7",
    "fisher.json":
        "319b5a766c959857bb40c1bce49e9109c614ad88695d6a702e4fe9bde5c1e1cb",
    "fisher.strata.csv":
        "77cc8d2637318876a5806b4b0f8fbbec50e1c2a8f06c533316ef313378037c17",
    "fisher.histogram.csv":
        "c2ea58aab825fd3cbc5579641060f10458cdff39802be4ce8c54eff3168ce193",
    "svm.json":
        "d3e075445e80aea01d823253865bc88726dc9141d616ea7e263b96429bc6d85f",
    "svm.strata.csv":
        "8774adf7584825e848ce32ade51a689196b16b428268314ed6de994e6deb637c",
    "svm.histogram.csv":
        "9198a595289cfc95ad68df05f923880849eb5f78fc47b560d38246b267102fdd",
    "distance.json":
        "cb89e2a931147d5b9529a7363de421e94849c10e3821a2ab2e88c0dc812d2c78",
    "distance.strata.csv":
        "ec3065eb459cb4a0aa666bd26eaba94faad4e92e1b43465096d861ade5722ee0",
    "distance.histogram.csv":
        "cebecc23f8fbe66554acbcc4b6cae6232b0271a9c33e9460805bbe0edf5ed07c",
    "tree.json":
        "98f6ca6b8bbd3f5b8f6e9fece261dd81aa77536f6a027b2f8617366e7e0cc596",
    "tree.strata.csv":
        "da011b060cd4b017b479b7d93aac69a479e03e5a927b94bc1f6539c1b7171f72",
}
CLUSTER_DIGESTS = {
    "estimated":
        "850e0ec93a70da25d4d43d7c954db131dc022d4177b9c31c096452ac696687c0",
    "random":
        "6e2912a5d25d8f6214f1ec722f00836423bacda3b12181e9091bf37fc5d55007",
}
MINIMIZE_DIGESTS = {
    "abAB 2":
        "095e85c1f68eb47af0ca2c836af538b144f65190c34487664457f4c78f78ffdc",
    "aabAbbaBBaa 2":
        "c7afd3158a3e49a17fecadfff20fa8afd4c83c10741ca76d0d6c4855bbbd6c67",
    "Bab 2":
        "31a71a369855c5ddc8e7d4ddd60747efa58d3a18b7755d2a594b4990803aed66",
    "a 2":
        "31a71a369855c5ddc8e7d4ddd60747efa58d3a18b7755d2a594b4990803aed66",
    "aA 2":
        "8885008d9f47ff7f3e3c5b2df06a16146f62acc541558abc1dc4e4ae42253e70",
    "acbCaBcAbbc 3":
        "ab11f14c70ba8f8f8bccdf4eb152156b88ba076722db6445076bffdbdee75d30",
    "aebdcEAbDCeae 5":
        "7a4d33cd731d798abd4851114e53e2de6abbf7411efb54ce01e88383acc371eb",
    "azbyZcYBxAXC 26":
        "5cf6093f8fb07990559665b20a60c1b6eade1c00f197af2438ce7693c51a2ebd",
}


def sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def dataset_digests(out_dir):
    got = {}
    for rank in RANKS:
        for kind, sizes in SPECS.items():
            path = out_dir / f"{kind}-{rank}.tsv"
            save_tsv(generate_dataset(DatasetSpec(kind, rank, seed=11, **sizes)), str(path))
            got[path.name] = sha(path.read_bytes())
    return got


def pipeline_digests():
    train = generate_dataset(DatasetSpec("D", 2, max_length=60, per_length=3, seed=12))
    test = generate_dataset(DatasetSpec("Se", 2, max_length=60, per_length=3, seed=12))
    got = {}
    for method, qkind, bins in PIPELINES:
        model = train_pipeline(train, PipelineConfig(method=method, quantizer_kind=qkind,
                                                     quantizer_bins=bins))
        rep = evaluate(model, test)
        got[f"{method}.json"] = sha(pipeline_to_json(model))
        got[f"{method}.strata.csv"] = sha(rep.strata_csv())
        if rep.histogram is not None:
            got[f"{method}.histogram.csv"] = sha(rep.histogram.csv())
    return got


def cluster_digests():
    ds = generate_dataset(DatasetSpec("D", 2, max_length=120, per_length=6, seed=77))
    nonmin = ds.subset(ds.labels() == 2)
    return {init: sha(clustering_experiment(nonmin, builtin_map("f2", 2), init=init,
                                            seed=5).summary_csv())
            for init in ("estimated", "random")}


def minimize_digests():
    got = {}
    for word, rank in MINIMIZE:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["minimize", "--word", word, "--rank", str(rank)]) == 0
        got[f"{word} {rank}"] = sha(out.getvalue())
    return got


def test_dataset_tsvs(tmp_path):
    assert dataset_digests(tmp_path) == DATASET_DIGESTS


def test_pipeline_outputs():
    assert pipeline_digests() == PIPELINE_DIGESTS


def test_cluster_summary():
    assert cluster_digests() == CLUSTER_DIGESTS


def test_minimize_stdout():
    assert minimize_digests() == MINIMIZE_DIGESTS
