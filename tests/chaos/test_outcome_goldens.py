"""Float-free goldens for the fuzz runner's outcomes.

Each case pins a SHA-256 of what :func:`~repro.chaos.outcome_fingerprint`
covers, minus the free-text ``detail`` and ``error`` strings: the case
id, the status, the violation's kind, pid and round, the recorded
schedule and the three message counts.  No float is hashed, so the
goldens hold on every numpy version while failing on any change of
delivery order, verdict or violation classification.

Cases: seeds 0-4 of every profile restricted to d=1, plus seeds 0-4 of
``byzantine-vs-crash`` and ``beyond-bound`` at the default config, whose
2-d cases end in validity findings raised by the streaming checker.
The digests were generated before the post-hoc validity pass left the
runner, and must never be regenerated to make a change pass.
"""

import hashlib
import json

import pytest

from repro.chaos import PROFILES, FuzzConfig, generate_case, run_case

CONFIGS = {
    "1d": {profile: FuzzConfig(profile=profile, d_choices=(1,)) for profile in PROFILES},
    "default": {
        profile: FuzzConfig(profile=profile)
        for profile in ("byzantine-vs-crash", "beyond-bound")
    },
}

SEEDS = range(5)

CASES = [
    (config_name, profile, seed)
    for config_name, configs in CONFIGS.items()
    for profile in configs
    for seed in SEEDS
]

#: Outcome digest per "config/profile/seed" case.
GOLDEN = {
    "1d/legal/0":  # ok
        "628c83e4f3458b8e17315383674b9af3ed95147f6a61ca0edec6029b11d780e1",
    "1d/legal/1":  # ok
        "98855667abb6c3116954b51067c94a15d94b07e67aabf034c16cf0a31c9f0cb2",
    "1d/legal/2":  # ok
        "9f25051efb5a18e7839fd1bb05f6ce19580fafb2297d72daab82cca08e36b3eb",
    "1d/legal/3":  # ok
        "ecc0aac6a1308b29fe0449f4437465a0261bb4a74c9110062b433b5d62a85de2",
    "1d/legal/4":  # ok
        "9fc395e819f18e21f72247eff48b5713f1174cb8627e076ae5c34c3ed67deee3",
    "1d/below-bound/0":  # ok
        "69f81f1d5d9473e84c0a8b6ad4c1272cfb034bad95479aa5f2c595a1205f9e5d",
    "1d/below-bound/1":  # ok
        "6085985745649e8903a8278152a5f6be7862a7f1c50f98c4be8d29526799c4aa",
    "1d/below-bound/2":  # ok
        "408709c607b1cf71fb058083c28f19368fdb1b13b28e9b8ecdf46a108ccddc6d",
    "1d/below-bound/3":  # ok
        "7735af458196973ab7622131cd2d7f0e8da91eacbe85ce8ec8788b0d2292846f",
    "1d/below-bound/4":  # violation empty-initial-polytope
        "d079b8692e46469fbeaa6efef05c218f4a7408f90737af9b25e39aee9ac0d3b8",
    "1d/beyond-bound/0":  # ok
        "51361c77e5ac335bcfb80668c3d24991121c706332eb496ba66549421820c7ed",
    "1d/beyond-bound/1":  # violation termination
        "c588f4c7171b1d7a78f3cf34020f9355ac8bcbaffb2c0b87f1d9c703abc6e354",
    "1d/beyond-bound/2":  # ok
        "4a2a272eb5dbc8a032301d2278e4558235040f468bc2cc4a1c75d5d59ac03409",
    "1d/beyond-bound/3":  # ok
        "c21031be07ffb9025d1dccf8c2c6f7fa255d1c6e5cc1d387cb3c16abd84184e9",
    "1d/beyond-bound/4":  # ok
        "a9d977d5bc32b01d39cd8805ce01ce11427506d6ede013cef8cb29124d9b0bf3",
    "1d/mixed/0":  # violation empty-initial-polytope
        "bbcc4726c6f655741707151f02c20240ff7d34e040764eeb4ade1a5150528ced",
    "1d/mixed/1":  # ok
        "e80b2d7d773637d6e0321d6cadb0f291a545a694e11f2e344c071b8e894a33c1",
    "1d/mixed/2":  # ok
        "87b2157a35e4ad615883d982eda771cb8db67f1d577330da613491a5d03bef1c",
    "1d/mixed/3":  # ok
        "33c46ef4f5d9cfcbb56806b990bc140b17b262aff2144599b40e32be3dc92df8",
    "1d/mixed/4":  # violation termination
        "3ac38e220e13168a281f5850849daa320a7d7f79c28878f7a0a1a58e37aa855d",
    "1d/lossy/0":  # ok
        "fcf6c89557396c5f65b58f0812511bbaffc67119f8499b00f70b0e71cdece735",
    "1d/lossy/1":  # ok
        "bb3e6975e4d36a6f983cba36a112656805e6e9206f3197dd6a3b69a7ad4b1130",
    "1d/lossy/2":  # ok
        "13d701ca226da1d5896905db3a99e91dfef62a74c2fbcec67942374685d0c491",
    "1d/lossy/3":  # ok
        "07fbb4c3e9d4d6c8885cae796801d5a00069b073f407ea485590cb4fc3f87dd3",
    "1d/lossy/4":  # ok
        "03a91baf2cec6475a093bda0af2f1bbb4cf2f55cfd7b1367117305ee5d23e9bc",
    "1d/partition-heal/0":  # ok
        "7b123a486984d3bfc0dbce8465562679096de46b9b5b2808ace62cf854ec6fc0",
    "1d/partition-heal/1":  # ok
        "cb5b3dbec5cee43c9d10de6c5e36cc25c7ca10317f93125d73dc9a0ce4319886",
    "1d/partition-heal/2":  # ok
        "9ed6664271c413949c3bbbae5426d9a8662a8da81d40279f03d290fd468e5437",
    "1d/partition-heal/3":  # ok
        "f27abe4a67b265f3d6d525413de459864bc7d17b8b0c81657e35beb33c6bb3cc",
    "1d/partition-heal/4":  # ok
        "1e75a92739c84c9d3fe4123aac516f024531f7957ea744589835d0bedd6e3b3d",
    "1d/partition-forever/0":  # violation termination
        "694e8dcb73a10a16105ce252654a7d434d9b4f2a44d03a671b63ecdb1d442f37",
    "1d/partition-forever/1":  # violation termination
        "7f7eeadb8c553c266e258ca9e499652cec4e723d47d42e365e958808026af01a",
    "1d/partition-forever/2":  # violation termination
        "39dfac2ec8113fb2820a74050989c49f62a88b352631aa6b6b4533a355b1f0ec",
    "1d/partition-forever/3":  # violation termination
        "c4c20fe825eb77a0290d016601aebe66fa856ab090543ac46967eabd5ecf5530",
    "1d/partition-forever/4":  # violation termination
        "2c78862663c37a741f451f069c417d423d412bbf2d8a8d64988582137e37bfe9",
    "1d/recovery-legal/0":  # ok
        "6c0cbef6587e93a00ce66c942082e82ed151da7cd9ea051df9a86b827464e773",
    "1d/recovery-legal/1":  # ok
        "d181a98328bf2c7209e7ed3e1e2dab399dd6b4cbc813a3a3c3d47f4079eaaf81",
    "1d/recovery-legal/2":  # ok
        "3774b45af5620a2b14174cbf75492cde97970675ce6b39815434d53b2bbe45a2",
    "1d/recovery-legal/3":  # ok
        "80c6c8624e98b91f6e165733065801b64e00b19773b55fa0b0935cf500154b18",
    "1d/recovery-legal/4":  # ok
        "702ff01b2b76e3033347fc067c625ccd982f8cd34af548043e9cef28eae41473",
    "1d/recovery-amnesia/0":  # ok
        "875fc58ad9d8eb72dbdf04bad18f761fc8574bf0091caa32585688e2def4d704",
    "1d/recovery-amnesia/1":  # ok
        "2a41f6ae7dd29a0733a4d574c2ceaeb014c65bdb0ff9be98ca7c3f95ba92cb90",
    "1d/recovery-amnesia/2":  # ok
        "1db5c3b289c3a9de0c33f25afd6be9eff859c781e86c71b3deb89f717cd225c5",
    "1d/recovery-amnesia/3":  # ok
        "2578c6ba048eb9b13853e4c5cec9d53f67adfd220d306c3b85d60352f7d2d5fa",
    "1d/recovery-amnesia/4":  # ok
        "81d46a8f224c35de3264926068bbcb1d6d49e9a6f066159961d001e3f68a33d3",
    "1d/recovery-storm/0":  # ok
        "c05d013859983fc7d986db55feb9c4042522c336823eb598a7291b61c28b0e5c",
    "1d/recovery-storm/1":  # ok
        "d1a7eb49c1fea4e26bf61eaa44007fe0569c9cb7dafe1a9f03f84f49d963ac84",
    "1d/recovery-storm/2":  # ok
        "f3de7cd1076a26dedb3b7b1a465ef1fd2d98fe8c0f6768e9264a0e747855cbe7",
    "1d/recovery-storm/3":  # ok
        "1cd9e1a8ec9557ecc3c0381286b84353531be62b08b54d748ea0d686bf1bcd52",
    "1d/recovery-storm/4":  # ok
        "e237b91250436f843197341ecf7c648ea24c033f724ee979b98a417a2b2c71fb",
    "1d/byzantine-legal/0":  # ok
        "f6e6e490e2d51c11e8f3fea0e9ed3bb367dd2e6e6aae16d32323b475c4e91652",
    "1d/byzantine-legal/1":  # ok
        "175953ee76a188bf6d0ce9cc9f5389057020ff564f8e1f3463894daef8ee9b29",
    "1d/byzantine-legal/2":  # ok
        "1e32d73f57a9449373b00c0bb23e9e9e13fc790075f8c19dc4c01e7ff553067f",
    "1d/byzantine-legal/3":  # ok
        "0bb515a800093d7165795a60cbe8e13eef376ba678caca3be1a4c68c2f641713",
    "1d/byzantine-legal/4":  # ok
        "c85f8a37035f2d28707d3923347122513961dde94df5a51bf44fa9a9442738e5",
    "1d/byzantine-below-bound/0":  # violation termination
        "b61563ef55133e31afb905a074eda48c599fd2bf8f2bc70e0fd6816224f4e17e",
    "1d/byzantine-below-bound/1":  # violation termination
        "a17380f9a8e14d61c15debee73ad178e1b84c3fafd8505175ed4f813622d509c",
    "1d/byzantine-below-bound/2":  # violation termination
        "151b9843b029d18a50af852624fbd03fe6dd4a916bf14fc228ea5ef2b31cc0af",
    "1d/byzantine-below-bound/3":  # violation termination
        "544652c40c27e161bd010011565008d33fa7bfb363776b6a50d5a966b585457c",
    "1d/byzantine-below-bound/4":  # violation empty-initial-polytope
        "ba83a2ffcc8653b381fbb3c093717ae6685d5741b32cf120a68f085b6981a370",
    "1d/byzantine-beyond-bound/0":  # violation termination
        "c64c626fc8bc2d835641aaca62812d3a303b28ef36964c6134bcbbc8d0beff83",
    "1d/byzantine-beyond-bound/1":  # violation termination
        "62e895fbbe579d8ccc9894051fcdf2d27cc4853f2fa4b21508adf6459475b8ef",
    "1d/byzantine-beyond-bound/2":  # violation termination
        "dd15289ebf01328572d9f376c6058efca3131d970505bc7df1da415a55d95cac",
    "1d/byzantine-beyond-bound/3":  # violation termination
        "f781c7b5b550b0f98d98b303ebf7ef991e909555382964ed2b454ea4709e20dc",
    "1d/byzantine-beyond-bound/4":  # violation termination
        "7e7ca8855e086aee938d9a716444daa8ce548a3e84c305a572c94f1bb2787a5a",
    "1d/byzantine-vs-crash/0":  # violation validity
        "028ec07a0190eede80e25b348a895918f932ee2f553bd1ae2e01e37cfd0a58fb",
    "1d/byzantine-vs-crash/1":  # violation validity
        "2d5bc5c328884794e9bb369bd90982be59a0f9ff0a3e36437a6ba5c346b88097",
    "1d/byzantine-vs-crash/2":  # ok
        "0f198204ae1c34d7af24e46e016f95a8d8fdef126118c82ec2138fc7c70bc4f0",
    "1d/byzantine-vs-crash/3":  # violation validity
        "287503f9af5b96a9ce7b8528a0fa4457ff80cf1b69e79ff187813926c81f50dc",
    "1d/byzantine-vs-crash/4":  # violation validity
        "472af6d594e75ae4fb068b739d7abf47a7574e241f945d0a385d7418059ff2af",
    "1d/byzantine-mixed/0":  # violation termination
        "0b7aed32b127931bc375f56dff0b4a78d6c42cd456456f02d61a7da469f4d3ac",
    "1d/byzantine-mixed/1":  # ok
        "e596438c7e97c7aeb91590f8be131b63fb9bba832a28ebbe7aa97d5a05fffad4",
    "1d/byzantine-mixed/2":  # ok
        "0bb852613ffbf897e71f3d23886ff3ab727b48912261321faef1463c2ea0f9db",
    "1d/byzantine-mixed/3":  # ok
        "572a7a04e64e6fbe7e54478bdcf19b2ac58071320e57aa91926184e46a463d3c",
    "1d/byzantine-mixed/4":  # violation validity
        "003c652a82579f2153b59c39a71aabd55bb9f8c7a77d9effae0d5e318f370c5d",
    "default/byzantine-vs-crash/0":  # violation validity
        "9cd3d1dfe595fc08fcd0638f8729f4a1b8d84c8d6815a0775b24f6a642efbd66",
    "default/byzantine-vs-crash/1":  # violation validity
        "d8b1aacef5db9d4ec30e0d0fbf9e37087687f74bd9568eb5b21d739a2bb53afd",
    "default/byzantine-vs-crash/2":  # violation validity
        "4d38f86a9d7b1c60c6208d6dc2c801c413cb8dc7bbf8e67a191dfe1fe2798d8c",
    "default/byzantine-vs-crash/3":  # violation validity
        "36a0fc63a6a5f981b762f92017f78f24d2b5c63329b1d99d30942b09b3e1795b",
    "default/byzantine-vs-crash/4":  # violation validity
        "5ec2cc521186c9525c438f7ba5407096cf18e8302d101c13f9553a544647b7bf",
    "default/beyond-bound/0":  # ok
        "a98cebcceab26873052430270fc439ff2bd69e571c5a30a518d525619dd9da25",
    "default/beyond-bound/1":  # ok
        "b6af885f715539fea7248aa7c432ab160855ce7a1f6a0eac01d02a0b31392552",
    "default/beyond-bound/2":  # violation validity
        "f467be853fd2980054e32cbef49145577708fdf7aa20603ac5930fe96904dd3a",
    "default/beyond-bound/3":  # violation termination
        "18caf6a90f488cc70b7e5c87eef67f7048df97c30f142cbb0efce2de1223c09e",
    "default/beyond-bound/4":  # violation termination
        "d16cc449970397078f9ad02be44e056b0decb305a067aa6428202f43695f58d8",
}


def outcome_digest(outcome) -> str:
    violation = outcome.violation
    payload = {
        "case_id": outcome.case.case_id,
        "status": outcome.status,
        "violation": (
            None
            if violation is None
            else {
                "kind": violation.kind,
                "pid": violation.pid,
                "round_index": violation.round_index,
            }
        ),
        "schedule": [[src, dst] for src, dst in outcome.schedule],
        "messages_sent": outcome.messages_sent,
        "messages_delivered": outcome.messages_delivered,
        "delivery_steps": outcome.delivery_steps,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "config_name,profile,seed",
    CASES,
    ids=[f"{c}/{p}/{s}" for c, p, s in CASES],
)
def test_outcome_golden(config_name, profile, seed):
    outcome = run_case(generate_case(CONFIGS[config_name][profile], seed))
    assert outcome_digest(outcome) == GOLDEN[f"{config_name}/{profile}/{seed}"]
