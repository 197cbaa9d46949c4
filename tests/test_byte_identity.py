"""The byte-identity promise over the whole chain: every output of every CLI
stage, run in-process on small seeded feeds of both cities, has the SHA-256
pinned below.

A change that alters an output byte fails here until the table is re-pinned,
so a declared byte change shows as a diff of ``PINNED``. The feeds come from
``perfbench/feeds.py``; a change to that generator must re-pin the table.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from crimeminer.cli import main

ROOT = Path(__file__).resolve().parents[1]
ROWS = 3000
SEED = 23
MIN_SUP = {"denver": "0.0012", "la": "0.0018"}
MIN_COUNT = "5"


def load_feeds():
    spec = importlib.util.spec_from_file_location("perfbench_feeds", ROOT / "perfbench" / "feeds.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def chain(city: str, feed: Path, exclude: list[str]) -> list[list[str]]:
    """The paper's pipeline with every output flag, paths relative to the output directory."""
    excludes = [arg for category in exclude for arg in ("--exclude", category)]
    unified = ["--dataset", "unified.jsonl"]
    steps = [
        ["ingest", "--schema", city, "--input", str(feed / "crimes.csv"), "--output", "raw.jsonl",
         "--report", "ingest_report.json", *excludes],
        ["preprocess", "--schema", city, "--input", "raw.jsonl", "--output", "unified.jsonl",
         "--report", "preprocess_report.json"],
        ["stats", *unified, "--attribute", "day", "--year", "2014", "--output", "stats_day_2014.csv"],
        ["stats", *unified, "--rows", "type", "--cols", "day", "--output", "stats_type_by_day.csv"],
        ["stats", *unified, "--top", "3", "--middle", "4", "--bottom", "3", "--output", "stats_locations.csv"],
        ["mine", *unified, "--min-sup", MIN_SUP[city], "--output", "patterns.csv"],
        ["mine", *unified, "--min-count", MIN_COUNT, "--output", "patterns_count.csv"],
    ]
    for kind in ("nb", "dt"):
        steps += [
            ["train", *unified, "--model", kind, "--seed", "42", "--output", f"model_{kind}.json",
             "--eval-report", f"holdout_{kind}.json"],
            ["evaluate", *unified, "--model", kind, "--folds", "5", "--seed", "42",
             "--output", f"cv_{kind}.json", "--csv", f"cv_{kind}.csv"],
            ["predict", "--model", f"model_{kind}.json", "--month", "June", "--day", "Friday",
             "--time", "T6", "--location", "cbd" if city == "denver" else "central",
             "--output", f"predict_{kind}.json"],
        ]
    steps.append(["demographics", *unified, "--demographics", str(feed / "demographics.csv"),
                  "--output", "groups.csv", "--json", "groups.json"])
    return steps


PINNED = {
    "denver/cv_dt.csv": "d32df120d9edf1acefa91557b9c923622470c6adc7cdad9976185b5aaf4b7523",
    "denver/cv_dt.json": "cc69d1edb4ab56047de706ff5229d14adeb9e87e7edc78dd3f8ce9048b4057d1",
    "denver/cv_nb.csv": "6a8d580dd6ce88377ab201b3c934a0ba345891793091de433303c6f7a7311d2c",
    "denver/cv_nb.json": "1210c6ca158ed8cf6b74b8079ef743e7db572d70b4f0a1062a9a694db42710d1",
    "denver/groups.csv": "fe1b8a7a4aa45615560e3ad6786fa321a3e0a560566c6556032bf61964c1a026",
    "denver/groups.json": "3a61aa820b66a76512df8aeac32b6e5d80f591b655bec7f7f7baa35522f3640d",
    "denver/holdout_dt.json": "d601ef1511cfd0a1cbf907c591e4a53d6d23f1e4d8d6796ce9cae6d4a5a7b5dc",
    "denver/holdout_nb.json": "0cdcbeace6328455b693d37c630d35dbcd783222be6d4b23a2c45528a2d60151",
    "denver/ingest_report.json": "ecb68fc924c0f667ce2a3a9c5be8c841ed007a898de19251c0093609e93e55ba",
    "denver/model_dt.json": "7b5bcff30bf9a735a9113bbeb86bcd57b47049b81d9bf34f1ab96a83c4f33f54",
    "denver/model_nb.json": "cf91e72952ffb10667b5ea9c132127a6541325614104ae9377bd859d0cfd1e77",
    "denver/patterns.csv": "bcc46e31a45b52183bd18595980cb3aa2a288d18d8bd58472548b01add7f0ee5",
    "denver/patterns.summary.json": "4a25d801e151643bc57c4eddccc007b9f28c313729191c406488cd912333da9e",
    "denver/patterns_count.csv": "ecfa6ab5490fb88e2542f662e34df2fbc3ad2133c6a85d8efa811d093d0e9f9b",
    "denver/patterns_count.summary.json": "d66e568d5a8aff0e5e66f19e044bd3caaa591dcc02226e208f26623bf60e8d8d",
    "denver/predict_dt.json": "c25f09763581e40815525901d216213a617257bd53e95564657eb86e0d6eb4d2",
    "denver/predict_nb.json": "3e7133ca83919a81325f39bd717763c9e516e9797b254ca5bb86779883cc7a2e",
    "denver/preprocess_report.json": "55ef512dc867b8f22c7ffb8376b497c879c3d0d7c8918a8606fddd781f17d12a",
    "denver/raw.jsonl": "1cfb549e474f0c8270534e17ed4501dcfaf2601506496a0bf5c0cfd346eca9de",
    "denver/stats_day_2014.csv": "d0b43249bdf844cbcd228c535830f4cbf3c7c2744d13c8020523c5298643188a",
    "denver/stats_locations.csv": "102d3c2491d22a1a1dbab7ff3cda1082d9314cd0790fc3e0f9b4988d2241172e",
    "denver/stats_type_by_day.csv": "2c5fff96e9a419c1b875c94bd47a894cc282f08fe55ce76553c01ed7d733564e",
    "denver/unified.jsonl": "e9bff3f50653fd5cfaa98d873da83f4690fd3861d38ef136a55c82054fb449c2",
    "la/cv_dt.csv": "22dfd5d3f0daafe0115f537bf46050aeea40a7b69f5fd301e7d87b9f36f9368b",
    "la/cv_dt.json": "23fb1bd0f2ff7c6474b8ec63f7d743fac881ef4f766df2982633375305603efa",
    "la/cv_nb.csv": "40b1f2b0100e02a5fcc9ae971b8d99401a76ff72a2156aff19b6b86d58bdd551",
    "la/cv_nb.json": "53813756dec9ced38504ff100aef8ec5f52406f66a2b2675010ca557fb09f613",
    "la/groups.csv": "8e7f00d665c0161c3d0aefaa6f6fe1dec12561e8dc6fd3540039035fbfbdcdd0",
    "la/groups.json": "8e1d2d093e3269c0dd91989212de81e479589200b93b79a7c4dea7f98d077cc4",
    "la/holdout_dt.json": "244395c7d0288eeb8bf63313e8929ca623f3a7d677421ed134ecdb70132da7ca",
    "la/holdout_nb.json": "a084167fc4cc278c303dcd10055fe8f4cb2eac1892b68d606b1fd2dc2af6f69d",
    "la/ingest_report.json": "64759f937d501c439cdbd32c94ddc898b235d0f9fd27b412016df85d3b32d4ad",
    "la/model_dt.json": "f22bc4d2c44415caa0cbb6bcad0cbc4ab8df29c60d6aea6a5ad2201c89ad8ffb",
    "la/model_nb.json": "31e9a50930ec4695c44ec6357019a9ca30db0716e4a5a3b0799424418c8f0730",
    "la/patterns.csv": "a50c646a52465568a867a4182217af8a5623c4822c0b5d7da7d696468e139efc",
    "la/patterns.summary.json": "6d301836bd3e5bff783bb1fab5980a601c8be37f0ae2061557e52a2d2c40579f",
    "la/patterns_count.csv": "24ea8a27d5322624fee78aa926f7f05327313995d3d0e104b753693f411db313",
    "la/patterns_count.summary.json": "1c981e24f3b68fb3e05e696471a6e3b50863c1cec92e6b4c76c6a47b39c5b729",
    "la/predict_dt.json": "87f5a9a7c3d4f5d4e387e9f7fb3d3e9b5cff963da7e9f6f04cd347f1847fbd49",
    "la/predict_nb.json": "f647595853a77d49c83a8954186584ebbe011cdcdb218642abadfff726eb03b8",
    "la/preprocess_report.json": "06bf5b7dc4bcf9685edd2e3976e3f97e961cc267d076740ad50fddb43dabd25d",
    "la/raw.jsonl": "d6439c7b9c602dea24228012402c3b38915376d6274dc5ee7f551c3a334caea1",
    "la/stats_day_2014.csv": "c0887ad7b310ef406179f8b52035773c8e50272c0f7a8662b838271df6467380",
    "la/stats_locations.csv": "ac23734320ce919b2c052666366c0c49b22eb0f5780a3bdbc6b7003e0ca8975b",
    "la/stats_type_by_day.csv": "1e3b34bb5b8168cb0c121cac14e8ccaf885764a010c6bb72f7fe511ef3fe475d",
    "la/unified.jsonl": "eb0de09dbd1e2e41a078d669dee07ba7c07f34cb6122ac0f5ab3c6a88e403644",
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """SHA-256 of every file the chain writes, by ``city/name``."""
    feeds = load_feeds()
    digests = {}
    for city in ("denver", "la"):
        feed, out = tmp_path_factory.mktemp(f"{city}-feed"), tmp_path_factory.mktemp(f"{city}-out")
        manifest = feeds.generate(city, ROWS, SEED, feed)
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(out)
            for argv in chain(city, feed, manifest["exclude"]):
                assert main(argv) == 0, argv
        for path in sorted(out.iterdir()):
            digests[f"{city}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_the_table_names_every_output(written):
    assert sorted(written) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_are_pinned(written, name):
    assert written[name] == PINNED[name]
