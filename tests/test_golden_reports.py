"""Pinned report bytes: every CLI command on every corpus entry.

Each case runs ``cli.main`` in-process and compares its exit code, the
sha256 of its stdout and its stderr with values recorded before the
scalar and norm wrappers were removed, so a refactor that changes a
single report byte fails here.  Depths are small so that the whole file
runs in a few seconds.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from nabla_radius.cli import main
from nabla_radius.corpus import build_corpus
from nabla_radius.descriptor import save_module_descriptor

DEPTH = "16"

# A one-variable polynomial 2 + t over Q_2 (the `techlemma` fixture of test_cli).
POLY = {"prime": 2, "label": "p-plus-t",
        "terms": [{"exps": [0], "coeff": "2"}, {"exps": [1], "coeff": "1"}]}


def _cases() -> list[tuple[str, str, list[str]]]:
    """(case id, descriptor label or None, argv after the descriptor path)."""
    cases: list[tuple[str, str, list[str]]] = []
    for entry in build_corpus():
        label = entry.label
        dims = entry.descriptor.module.dims
        cases += [
            (f"validate/{label}", label, ["validate"]),
            (f"ir/{label}", label, ["ir", "--depth", DEPTH]),
            (f"ir-radius/{label}", label, ["ir", "--depth", DEPTH, "--radius", "1/3"]),
            (f"oc/{label}", label, ["oc", "--depth", DEPTH]),
            (f"taylor/{label}", label, [
                "taylor", "--eta", str(entry.taylor_eta),
                "--lambda", str(entry.taylor_lambda), "--depth", DEPTH,
            ]),
            (f"cutcheck/{label}", label,
             ["cutcheck", "--depth", DEPTH, "--trials", "3", "--seed", "0"]),
        ]
        if dims > 1:
            point = ",".join(["-1/2"] * (dims - 1))
            for direction in range(dims):
                cases.append((
                    f"specialize-t{direction}/{label}", label,
                    ["specialize", "--direction", str(direction), f"--point={point}"],
                ))
    cases += [
        ("specialize-non-unit/exp-two-var-p3", "exp-two-var-p3",
         ["specialize", "--direction", "0", "--point", "3"]),
        ("specialize-non-unit-den/exp-two-var-p3", "exp-two-var-p3",
         ["specialize", "--direction", "1", "--point", "1/3"]),
        ("specialize-count/exp-two-var-p3", "exp-two-var-p3",
         ["specialize", "--direction", "0", "--point", "2,2"]),
        ("specialize-empty/exp-two-var-p3", "exp-two-var-p3",
         ["specialize", "--direction", "0", "--point", "2,"]),
        ("specialize-malformed/exp-two-var-p3", "exp-two-var-p3",
         ["specialize", "--direction", "0", "--point", "x"]),
        ("techlemma/p-plus-t", None,
         ["techlemma", "--alpha", "2", "--beta", "1/2"]),
        ("corpus", None, ["corpus"]),
    ]
    return cases


# case id -> (exit code, stdout sha256, stderr)
GOLDEN: dict[str, tuple[int, str, str]] = {
    'validate/trivial-rk1': (0, 'd478f2dcbb228ff8d7caac933bfa5073f3b6a6efbda9f1306338af31f5de3053', ''),
    'ir/trivial-rk1': (0, '8d79a6bba4121b829c39885cbeec44d8ad732e17116c9d6a70660ed5b33f7438', ''),
    'ir-radius/trivial-rk1': (0, 'e94de0814c28ee6da2494638721cd4956db30b3222fbde1a3a227567a51ef375', ''),
    'oc/trivial-rk1': (0, '99138f18a9847052d288c6cb0cbc8c03c46061d4b727cd521ac5d448d8f57ca5', ''),
    'taylor/trivial-rk1': (0, '06cb258fa103dbde2f2a0f5c9e78af5b2b38bb2eb5268630391d638736991336', ''),
    'cutcheck/trivial-rk1': (0, 'c83c0a66cea78e13b7fbbf475a2aa10339c5e13d67cf4ca82a5dd560b969ab1b', ''),
    'validate/trivial-rk2-mixed': (0, 'b006ceb32af45a9605a2ebd288fa8347af78c7374f636d0c633821b0983ddc72', ''),
    'ir/trivial-rk2-mixed': (0, 'f8fff208e660a36e86989f4406a051ab24817e4c3459ecbc0487a69bb24232c9', ''),
    'ir-radius/trivial-rk2-mixed': (0, '5a59ce4c37dce8f0cfc40d62ed9a9c4d02f72ead02a5022777bc91ee2a735188', ''),
    'oc/trivial-rk2-mixed': (0, '62418071d60cf0d3c4a69544382cefffc52580307bb716fa5c825d395bc95be0', ''),
    'taylor/trivial-rk2-mixed': (0, 'a39f17c33ded49d9df6330bbb2e3d3112b26d8551db898447c3e52ae92006652', ''),
    'cutcheck/trivial-rk2-mixed': (0, 'de1ee96535295ccc375bac3fb95a3b1f56b4afd2d1ac7fa4b42a6409c62da75e', ''),
    'specialize-t0/trivial-rk2-mixed': (0, 'cd000214b50d65493df84b4c32ed034ae06c2ab0988fb8b97fc3166ce244fdeb', ''),
    'specialize-t1/trivial-rk2-mixed': (0, '2ac5da208d5bed2690460256bf343a9fd08351055d7a200527fb60327f990f49', ''),
    'validate/exp-disc-p2': (0, '115ef796fae27477820c6ac89e917e947246a4db153ad625b485c4ac6a68ac16', ''),
    'ir/exp-disc-p2': (0, 'e826cef102f02696eb1c8c2b9434cd03de174799509df7abb9fbcf2e9210eeee', ''),
    'ir-radius/exp-disc-p2': (0, '1c780384fcfe6a5d05dfe05e85c63e983fd18237aea6dbacde8e98eebeb0cb4e', ''),
    'oc/exp-disc-p2': (3, 'c8c26e49ac2fbcc52f9633cfc2996f389c5ac416ffdfc460b87db3255efb36a6', ''),
    'taylor/exp-disc-p2': (3, '53a3f18e146ea46de41921415756d92c8364fe5c6899601933ab0a18b70a1367', ''),
    'cutcheck/exp-disc-p2': (3, '9ee32c008b58c14c8cebea4f1a18869d8788c048d7a94ed0a93b999b0308721f', ''),
    'validate/exp-disc-p3': (0, 'bb17cade4fe982ff91654ae658c2d92d20adf01c4abfa93bd828f3cd6f11ae21', ''),
    'ir/exp-disc-p3': (0, 'c65310a237a2b8575b139e663e0fca088e38c12e3459312277c3c02178e1e435', ''),
    'ir-radius/exp-disc-p3': (0, '465971f59438d3cb2611cae517d78c6a873a379d9aa379881178a51b11b73c3e', ''),
    'oc/exp-disc-p3': (3, '4942cf5f7435a9c92224aafbd63e35bdfe9927bcea993bf70e604de8131877ee', ''),
    'taylor/exp-disc-p3': (3, '4681f3fefd4b5d5de2e3555dd7461272584a79d8a94d747cf79cbb17913d2a2c', ''),
    'cutcheck/exp-disc-p3': (3, 'f9e1c07804d4e42674399fca1ba4d27f9d665dd071c06cd45e686f495d86b67b', ''),
    'validate/exp-disc-p5': (0, 'd7f2d26f75355edbea22b0925c180f041dce02b9f0bf5bb37996e6164add2860', ''),
    'ir/exp-disc-p5': (0, '5253dcb286178295a768c2e62a7c9de3db536eed3b57888b81c91efabd443806', ''),
    'ir-radius/exp-disc-p5': (0, '028bebe27db2e52dba7630b134ec111fe65eec37cc2f385f8c35b3c6931d8c52', ''),
    'oc/exp-disc-p5': (3, 'e9d279d3cd048687a13664040dc3aba1d2cc189a06f9a00d2cba5e9caed4d64c', ''),
    'taylor/exp-disc-p5': (3, '008cc76decd42f29bc110a26868928b7c2d78a79eee84559d4ae288219b23349', ''),
    'cutcheck/exp-disc-p5': (3, '3eef95c54f782c072652ea34ba204f2ae5a32381787f8e13bb31b97b5f76fdf3', ''),
    'validate/power-int3-p5': (0, '0a03e0c871c06ed269264e8c519403c296ecd5974493d0c4ef98cdde6a7c33f5', ''),
    'ir/power-int3-p5': (0, '3ccfb6c02ec2f99393ac5f50984ec2c0ae251c91b50ed2a43420813d1642736d', ''),
    'ir-radius/power-int3-p5': (0, 'a4ba9279e31102ffc952ed540aecbda40b33a4f6532dc03156cbc31d70e6fe8e', ''),
    'oc/power-int3-p5': (0, '1ee9fa8638750400be9331f362db8b256dc83a51a8fceb646d3d154112516347', ''),
    'taylor/power-int3-p5': (0, 'f403175918fc139842b0b2864a5953850ecc87bf1a387cffa079d1e67db3270e', ''),
    'cutcheck/power-int3-p5': (0, '8b74cec7e29ee0ba9a206f7f3975e5f50251fe8094b0909e0ad1d23be2a74905', ''),
    'validate/power-half-p3': (0, '4f03252a2b461e68eb4c997c92e145a0583155599c7bbd5c3604d8770ef278d3', ''),
    'ir/power-half-p3': (0, 'ef6a4fdda5f84f29dbea7b66ec561a621f52fbc04f90689e8a5ba8a5329bfd65', ''),
    'ir-radius/power-half-p3': (0, '33f7cf60d3de0b4d56f9bd5906242e536aa9fe13a641df92986d56c2cadfd006', ''),
    'oc/power-half-p3': (4, '6dc89071496d86bb561311cfac0c524fe70a316c62b4c5064e12c74570919126', ''),
    'taylor/power-half-p3': (0, '8734a762134d476fd2e46dd1b2c12541e9c69c5c504d79ba922375e8c4a21874', ''),
    'cutcheck/power-half-p3': (4, 'f04a01bbf87255ee1938e063421bc8be143359f9df3dba03435a24d2c206d098', ''),
    'validate/exp-two-var-p3': (0, 'fa68c320d376f1ec57f9bdd6edfdf3c6d7a91673fa137e5964581ec52ca96e6c', ''),
    'ir/exp-two-var-p3': (0, 'ed211178e256a988a3ff6072eb6dd82e47768478267289f72dda8ec193689c64', ''),
    'ir-radius/exp-two-var-p3': (0, '04178a10807ea462eb3014ccba8a7be455e14a4bbc09ce425b166f6f75888a45', ''),
    'oc/exp-two-var-p3': (3, '495ac8ae7721cf43675bc76b9fba748e3b9750786f70a769cb8557043421cbea', ''),
    'taylor/exp-two-var-p3': (3, '85bdb044ae5b3115a75667e326eee209f1516f5c06aad14d4f9ab7a1943d3264', ''),
    'cutcheck/exp-two-var-p3': (3, '9d9512ee7d5c88d3ac2dbf49a7a10298d3510d3a97cd3bc42f77e4f74ab8cba3', ''),
    'specialize-t0/exp-two-var-p3': (0, '6dea721c585111bf2feca108cb68f1795e7b59894f46a4f97a8a10c8455f3f68', ''),
    'specialize-t1/exp-two-var-p3': (0, '4cc62a5e5f2b8cdaf8741d8b09d1868bfda751198123418f303b47f4da94b44d', ''),
    'specialize-non-unit/exp-two-var-p3': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'nabla-radius: coordinate 3 is not a unit\n'),
    'specialize-non-unit-den/exp-two-var-p3': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'nabla-radius: coordinate 1/3 is not a unit\n'),
    'specialize-count/exp-two-var-p3': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'nabla-radius: expected 1 coordinates, got 2\n'),
    'specialize-empty/exp-two-var-p3': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'nabla-radius: empty coordinate in --point\n'),
    'specialize-malformed/exp-two-var-p3': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "nabla-radius: invalid coordinate: 'x'\n"),
    'techlemma/p-plus-t': (0, 'cbe6e8fc25cf4774d577908e119239a01b1e3e4ccd664e35c1f683fddcb425ca', ''),
    'corpus': (0, 'be24dbf291232e37de99e84ded36385df0fa58d1ebda8d6cb46286092c9c3bc5', ''),
}

CASES = _cases()


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(case_id for case_id, _, _ in CASES)


@pytest.mark.parametrize("case_id,label,argv", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_are_pinned(capsys, tmp_path, case_id, label, argv):
    if label is not None:
        path = tmp_path / f"{label}.json"
        entry = {e.label: e for e in build_corpus()}[label]
        save_module_descriptor(entry.descriptor, str(path))
        argv = [argv[0], str(path), *argv[1:]]
    elif argv[0] == "techlemma":
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(POLY), encoding="utf-8")
        argv = [argv[0], str(path), *argv[1:]]
    code = main(argv)
    captured = capsys.readouterr()
    got = (code, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err)
    assert got == GOLDEN[case_id]
