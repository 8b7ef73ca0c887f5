"""Pinned report bytes: every CLI command on every corpus entry.

Each case runs ``cli.main`` in-process and compares its exit code, the
sha256 of its stdout and its stderr with values recorded before the
scalar and norm wrappers were removed, so a refactor that changes a
single report byte fails here.  The `oc`, `taylor` and `cutcheck` cases
on the two ``FRACTIONAL`` modules were recorded before the derivative
ladder moved to integer numerators over a common denominator, and the
``ir-two-radii`` cases before Gauss norms took one valuation per weight
class.  The ``validate`` case on the non-integrable ``CURVED`` module was
recorded before the curvature was built entry by entry.  The ``oc-deep``
cases (``DEEP``) were recorded before the unit-radius walk tapered its
precision with the depth; no taper plans below the clip precision as
shallow as depth 16.  Other depths are small so that the rest of the file
runs in a few seconds.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from random import Random

from nabla_radius.cli import main
from nabla_radius.corpus import build_corpus, random_integrable_module
from nabla_radius.descriptor import ModuleDescriptor, module_descriptor_to_dict

DEPTH = "16"

def _term(exps: list[int], coeff: str) -> dict:
    return {"exps": exps, "coeff": coeff}


def _poly(prime: int, label: str, *terms: tuple[int, str]) -> dict:
    return {"prime": prime, "label": label, "terms": [_term([n], c) for n, c in terms]}


# One-variable polynomials for `techlemma`, recorded before the dominant
# term was folded into the certificate and the unit check became one
# exponent.  The comments give the degrees attaining the sup at alpha (A)
# and at beta (B), and n0, on the interval each case runs on.
POLYS = {
    # 2 + t over Q_2 (the `techlemma` fixture of test_cli): A = {}, B = {1}
    "p-plus-t": _poly(2, "p-plus-t", (0, "2"), (1, "1")),
    # 9 t^2 over Q_3: one term, so the margin is infinite
    "monomial-p3": _poly(3, "monomial-p3", (2, "9")),
    # 4 t^-2 + t^-1 + 1 over Q_2 on [2, 1/2]: A = {-2, -1}, B = {}, n0 = -1
    "tie-at-alpha-p2": _poly(2, "tie-at-alpha-p2", (-2, "4"), (-1, "1"), (0, "1")),
    # 4 t^-1 + 1 + t/2 over Q_2 on [2, 1]: A = {-1, 0}, B = {0, 1}, n0 = 0
    "ties-at-both-p2": _poly(2, "ties-at-both-p2", (-1, "4"), (0, "1"), (1, "1/2")),
}


# Integrable modules over Q_3 whose connection matrices have denominators
# divisible by 3 and by 2, so the derivative ladder runs over a common
# denominator c with v_3(c) > 0 in every direction.  No corpus entry does.
FRACTIONAL = {
    # N_i = d_i(phi) for phi = 5/18 t1^-2 t2 + 1/6 t1 t2^-1 (rank 1, two annuli).
    "frac-potential-p3": {
        "prime": 3, "n": 2, "m": 0, "rank": 1, "label": "frac-potential-p3",
        "matrices": [
            [[[_term([-3, 1], "-5/9"), _term([0, -1], "1/6")]]],
            [[[_term([-2, 0], "5/18"), _term([1, -2], "-1/6")]]],
        ],
    },
    # N_i = d_i(phi) C for phi = 1/6 t1^-1 t2^2 + 9/4 t1 t2^3 and
    # C = [[1, 1/2], [1/3, 1]] (rank 2, one annulus and one disc variable);
    # its window estimates differ, so the verdict rests on a nonzero spread.
    "frac-twist-rk2-p3": {
        "prime": 3, "n": 1, "m": 1, "rank": 2, "label": "frac-twist-rk2-p3",
        "matrices": [
            [
                [[_term([-2, 2], "-1/6"), _term([0, 3], "9/4")],
                 [_term([-2, 2], "-1/12"), _term([0, 3], "9/8")]],
                [[_term([-2, 2], "-1/18"), _term([0, 3], "3/4")],
                 [_term([-2, 2], "-1/6"), _term([0, 3], "9/4")]],
            ],
            [
                [[_term([-1, 1], "1/3"), _term([1, 2], "27/4")],
                 [_term([-1, 1], "1/6"), _term([1, 2], "27/8")]],
                [[_term([-1, 1], "1/9"), _term([1, 2], "9/4")],
                 [_term([-1, 1], "1/3"), _term([1, 2], "27/4")]],
            ],
        ],
    },
}


# A rank-2 module over Q_3 on one annulus and one disc variable that is not
# integrable: N_1 = [[t2, 1/3], [0, t1^-1]], N_2 = [[0, -1/2 t1 t2], [2 t1, 1]].
# Its curvature has a nonzero commutator [N_1, N_2], a derivative term that
# cancels a commutator term, and one that adds to another.
CURVED = {
    "curved-rk2-p3": {
        "prime": 3, "n": 1, "m": 1, "rank": 2, "label": "curved-rk2-p3",
        "matrices": [
            [[[_term([0, 1], "1")], [_term([0, 0], "1/3")]],
             [[], [_term([-1, 0], "1")]]],
            [[[], [_term([1, 1], "-1/2")]],
             [[_term([1, 0], "2")], [_term([0, 0], "1")]]],
        ],
    },
}

# Deep `oc` runs: the oc-deep benchmark anchor, and d + 9 t^8 (exp(t^9))
# over Q_3, which prints NOT_OVERCONVERGENT_EVIDENCE only at depth 512.
# Deep `cutcheck` runs, recorded while its record walk went from the rung
# straight to p**K: on power-half-p3 at depth 512, and on the rank-1 draw
# `Random(10)` and the anchor at depth 150, the walk meets a zero of the
# rung, and their records then come from the tapered walk.  On the rank-2
# draw `Random(13)` over Q_5 the witness direction's walk does too, and a
# trial point reads that record.
DEEP = {
    "random7-rk2-p3": module_descriptor_to_dict(
        ModuleDescriptor(random_integrable_module(Random(7), 3, 2), "random7-rk2-p3")
    ),
    "random10-rk1-p3": module_descriptor_to_dict(
        ModuleDescriptor(random_integrable_module(Random(10), 3, 1), "random10-rk1-p3")
    ),
    "random13-rk2-p5": module_descriptor_to_dict(
        ModuleDescriptor(random_integrable_module(Random(13), 5, 2), "random13-rk2-p5")
    ),
    "exp-t9-p3": {
        "prime": 3, "n": 1, "m": 0, "rank": 1, "label": "exp-t9-p3",
        "matrices": [[[[_term([8], "9")]]]],
    },
}

DOCUMENTS = {**FRACTIONAL, **CURVED, **POLYS, **DEEP}


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
    for label in FRACTIONAL:
        cases += [
            (f"oc/{label}", label, ["oc", "--depth", "40"]),
            (f"taylor/{label}", label,
             ["taylor", "--eta", "1/4", "--lambda", "1/2", "--depth", DEPTH]),
            (f"cutcheck/{label}", label,
             ["cutcheck", "--depth", DEPTH, "--trials", "3", "--seed", "0"]),
        ]
    cases += [(f"validate/{label}", label, ["validate"]) for label in CURVED]
    deep = [("random7-rk2-p3", depth) for depth in (150, 200, 512)]
    deep += [(label, depth) for label in FRACTIONAL for depth in (64, 128)]
    deep += [("exp-t9-p3", 512)]
    cases += [(f"oc-deep/{label}/{depth}", label, ["oc", "--depth", str(depth)]) for label, depth in deep]
    deep = [
        ("power-half-p3", 512), ("random10-rk1-p3", 150), ("random7-rk2-p3", 150),
        ("random13-rk2-p5", 150),
    ]
    cases += [
        (f"cutcheck-deep/{label}/{depth}", label,
         ["cutcheck", "--depth", str(depth), "--trials", "3", "--seed", "0"])
        for label, depth in deep
    ]
    # Two different radii put terms of mixed exponents into one weight class.
    for label in ("frac-potential-p3", "exp-two-var-p3"):
        cases.append((f"ir-two-radii/{label}", label,
                      ["ir", "--depth", "40", "--radius", "1/3", "--radius", "1/7"]))
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
        # a one-variable module has no coordinate to fix: the point is empty
        ("specialize-no-point/power-half-p3", "power-half-p3",
         ["specialize", "--direction", "0", "--point", ""]),
        ("techlemma/p-plus-t", "p-plus-t",
         ["techlemma", "--alpha", "2", "--beta", "1/2"]),
        # a one-point interval: its unit check samples one endpoint
        ("techlemma-one-point/p-plus-t", "p-plus-t",
         ["techlemma", "--alpha", "1/2", "--beta", "1/2"]),
        ("techlemma/monomial-p3", "monomial-p3",
         ["techlemma", "--alpha", "2", "--beta", "1/2"]),
        ("techlemma/tie-at-alpha-p2", "tie-at-alpha-p2",
         ["techlemma", "--alpha", "2", "--beta", "1/2"]),
        ("techlemma/ties-at-both-p2", "ties-at-both-p2",
         ["techlemma", "--alpha", "2", "--beta", "1"]),
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
    'oc/frac-potential-p3': (3, '1c0b41a88460629b6630d6a78acc72ccbd1e377e2b95278f3bfaff288518787e', ''),
    'taylor/frac-potential-p3': (3, '8a11911c6598a206ee83fc8afb9735e1a4d6e52b60311d059a2f4fe4df9e4e5c', ''),
    'cutcheck/frac-potential-p3': (3, 'aff2e33547ed2da996926c664c60beb3fc42da5a216729a646ec334dbf005eb5', ''),
    'oc/frac-twist-rk2-p3': (3, 'd1a21db88578aa0fb0969b261e2729a3bca5acaa66d10d306b1a5eaab0c81551', ''),
    'taylor/frac-twist-rk2-p3': (3, '3141ad69e935be60e090dacf78947baf4fd5e95d52db59178d4dc0ad2846e313', ''),
    'cutcheck/frac-twist-rk2-p3': (3, 'c7053554d19ab1729af920b6f4c6f42e1064265d3093770fbe8a2b5286035fc5', ''),
    'validate/curved-rk2-p3': (2, '924bb667e232d8e511e7a30e238141f67fe80a3019caadabe1bed6b842a7a017', ''),
    'oc-deep/random7-rk2-p3/150': (0, '3fe36c5cba3b60502664eda0995e9fca767f478f7492d15332849d32eaf4290e', ''),
    'oc-deep/random7-rk2-p3/200': (0, '2e375644491daedd9446a64136d63adb78738007f8140252bef46475086bc2d4', ''),
    'oc-deep/random7-rk2-p3/512': (0, '1f9f29f1fe91ac5fa678a8d0fedfbe57fafc2aee900bb601a4ab5279dabe96b7', ''),
    'oc-deep/frac-potential-p3/64': (3, '8a347c6b788a311b747b703d26ea7fb2692911c3d291a547a7a9f8a8e523dbb5', ''),
    'oc-deep/frac-potential-p3/128': (3, '54c3f588453ef990a7379b3c3727c887d0c3a2af83aeae6948cb179d36085229', ''),
    'oc-deep/frac-twist-rk2-p3/64': (3, '2cbc090508c391f49c9980389769f22696a7be17a42edbf68f8565f28dc88320', ''),
    'oc-deep/frac-twist-rk2-p3/128': (3, 'a81610bec44ea264d97970ad821ba6b08d26866bd38cf8c371374935606bce76', ''),
    'oc-deep/exp-t9-p3/512': (3, '4e3a59147aad5425cbf0fd97d3b39f6552cae98ff43da25986b54d531d2abf80', ''),
    'cutcheck-deep/power-half-p3/512': (0, 'cda82fdf170c3d6a3bd31a8a004e91917103f103a05397baf00a75ebfc167355', ''),
    'cutcheck-deep/random10-rk1-p3/150': (0, '8a8c15f84230996f3bd131ad62ae4285b8dd0e84b1f28d67e661fabf2861fd01', ''),
    'cutcheck-deep/random7-rk2-p3/150': (0, '03634e535b57cb08c05da3b861db3bdb159089d08d9ce332876736004589a20a', ''),
    'cutcheck-deep/random13-rk2-p5/150': (3, '1a999dc557316f92a78dd30820d458c3d67fb16e4950ee13c3f71d616a2bb0f3', ''),
    'ir-two-radii/frac-potential-p3': (0, '1866d1c249cc40506aed392ef0e5ee1ee7391fe7272291fcc06fc3318c70fa71', ''),
    'ir-two-radii/exp-two-var-p3': (0, 'f1455252a9a421f78124a0627eb8946c9ad6f076b7243ce97f8a26183ec81b38', ''),
    'specialize-non-unit/exp-two-var-p3': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'nabla-radius: coordinate 3 is not a unit\n'),
    'specialize-non-unit-den/exp-two-var-p3': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'nabla-radius: coordinate 1/3 is not a unit\n'),
    'specialize-count/exp-two-var-p3': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'nabla-radius: expected 1 coordinates, got 2\n'),
    'specialize-empty/exp-two-var-p3': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'nabla-radius: empty coordinate in --point\n'),
    'specialize-malformed/exp-two-var-p3': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "nabla-radius: invalid coordinate: 'x'\n"),
    'specialize-no-point/power-half-p3': (0, '86222b836441713772862d9eabe117ffdc754b8c1fe3e2dae838de12b94efa7b', ''),
    'techlemma/p-plus-t': (0, 'fc3434f38370af3f57736b388bfad9f1f3f36d8959b693b12f3a737764923d13', ''),
    'techlemma-one-point/p-plus-t': (0, 'b1f488908137af009279cb5c840b894bb7e709e4b5962529d78d3a405c6acc7d', ''),
    'techlemma/monomial-p3': (0, '652047b6ccd69546ecd1d3fe3b4a6a131cfcb9e014f848579a2ca759fee92550', ''),
    'techlemma/tie-at-alpha-p2': (0, 'b9d8f7eca96c63668492f29f4ba1c665c85e46cd981a4a821ce1f28c6c87c444', ''),
    'techlemma/ties-at-both-p2': (0, 'ccaeaf717b9695651a5afa011e3a216b4aa13bab5fe97eab0c8fcc111d58f4af', ''),
    'corpus': (0, 'be24dbf291232e37de99e84ded36385df0fa58d1ebda8d6cb46286092c9c3bc5', ''),
}

CASES = _cases()


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(case_id for case_id, _, _ in CASES)


@pytest.mark.parametrize("case_id,label,argv", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_are_pinned(capsys, tmp_path, case_id, label, argv):
    if label in DOCUMENTS:
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(DOCUMENTS[label]), encoding="utf-8")
        argv = [argv[0], str(path), *argv[1:]]
    elif label is not None:
        path = tmp_path / f"{label}.json"
        entry = {e.label: e for e in build_corpus()}[label]
        path.write_text(json.dumps(module_descriptor_to_dict(entry.descriptor)), encoding="utf-8")
        argv = [argv[0], str(path), *argv[1:]]
    code = main(argv)
    captured = capsys.readouterr()
    got = (code, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err)
    assert got == GOLDEN[case_id]
