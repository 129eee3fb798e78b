"""Golden outputs: same-seed ``report.json`` and ``transcript.json`` bytes.

Every scenario runs in the small group with no defenses, with each single
defense and with all four, on two seeds.  The digests were recorded from the
code as it stood before the protocol's proof checks, decryption statement
and restart loops were merged, so a refactor that changes any report or
transcript byte fails here.  Impersonation under the product check alone is
left out: at both seeds its first attempt hits a chance base collapse, which
the recorded code did not restart.

The small group's elements are one byte wide, so the hashed path is also
pinned in the mid and large groups: honest runs with hashed proofs alone and
with all four defenses, recorded before the hashed path stopped re-checking
a proof once per verifier and before its two encoders were rewritten.

Interactive proofs in the large group are pinned too, for every scenario at
n=3, k=4: recorded before ``GroupParams.exp`` raised recurring bases through
tables of powers, which only wide groups use.

Every scenario is pinned in the mid group as well, at n=4, k=6, with no
defenses and with all four: recorded before each round's posts were read
once, when the round closes, and kept on the run for every later reader.
"""

import hashlib

import pytest

from auctionlab.defenses import DefenseFlags
from auctionlab.scenarios import ScenarioSpec, emit_report, run_scenario

FLAGS = {
    "none": DefenseFlags(),
    "ni_proofs": DefenseFlags(ni_proofs=True),
    "authenticate": DefenseFlags(authenticate=True),
    "noise_product_check": DefenseFlags(noise_product_check=True),
    "key_consistency": DefenseFlags(key_consistency=True),
    "all": DefenseFlags.all_on(),
}

# (scenario, flags, seed) -> sha256 of report.json followed by transcript.json
# (nothing for the scenarios that write no transcript).
GOLDEN = {
    ("honest", "none", 7): "1ef391ce4004588f44d6869641f8fb5c224c8ef5f97549c64963c7371e0d4845",
    ("honest", "ni_proofs", 7): "72159a13298aad1ac8e7d86bfe726bf8c0ef57d3fec7efee3090b1b1e97990a5",
    ("honest", "authenticate", 7): "b031348991a61bede10515173768cc863a6f8c67b538da38b233d1578f6915db",
    ("honest", "noise_product_check", 7): "1f4297859356ced1c1ca4171c9248eb257076a3a6f652242973432da2ac3dc6d",
    ("honest", "key_consistency", 7): "b52a57692e3489144335e9d4db0c4b4d6344a482834be86c0146bfb117919293",
    ("honest", "all", 7): "f899c95e730a4e679e3989556a2930a05e3303211f0fa3b35fe5c515dd830861",
    ("full-privacy-attack", "none", 7): "039c3b01a01c3a2fc9668234cc1f24dd8b513324c2f5a2f44ace511a41c6c525",
    ("full-privacy-attack", "ni_proofs", 7): "6d8ceffe55a08aef322e57cf9dbd0770c2715cdad5c3355c209ba6e959bcc6af",
    ("full-privacy-attack", "authenticate", 7): "d148b939e8d577d72076f1d07f39e76d1779c0b03d6de4fb90c8c27dab76a392",
    ("full-privacy-attack", "noise_product_check", 7): "67ae557b4ce3cfc66eabc7cda63e80a30655a19c12b3413a299368d03a553e39",
    ("full-privacy-attack", "key_consistency", 7): "ec349c23174cccec7e065180cb23a5aa42fec4a2facb0953344e61870c50a972",
    ("full-privacy-attack", "all", 7): "72acc81b16d5f4ccb0a08473b23c05fe265eb8216849c24b369d04ff68d5895a",
    ("mitm-demo", "none", 7): "80630492c3202a289a526939bae25bfd0d0cbd693b721e10624c36ae9da9bac1",
    ("mitm-demo", "ni_proofs", 7): "2dad8836e2e14fe42d8e0e5c39695525c0ea5003e94d7aa5441fcd3a3ba9783c",
    ("mitm-demo", "authenticate", 7): "75c3e9e4c6583e3d3b08e1a8c576d69faa5cae8f6e225c42ecb8b439683bdde5",
    ("mitm-demo", "noise_product_check", 7): "d54aad5aa3ab05317a07053b1992a2965c77b01c6c09617993125efc1b802707",
    ("mitm-demo", "key_consistency", 7): "b17cac5292bd95623068d4f408a95e83d11e9d292c3d8340e6def706fe2e2830",
    ("mitm-demo", "all", 7): "6a6aed42761ea0c1f441e19b88c4f2a8fa1b141aad6cb62edff91438539cd03b",
    ("forged-eqdl", "none", 7): "af89f1c3127b5d0150a97a735fced2b9294a3514817195dcb763b4b267b96c1a",
    ("forged-eqdl", "ni_proofs", 7): "4d339287426dab146a5c73b97cbe27bbbd0cb87cc64510cb9bf4593145b62bdd",
    ("forged-eqdl", "authenticate", 7): "fc791e889f613e8d1a6ebb5f3ff620b42784a29a9daf9e5b6e9eada38743695b",
    ("forged-eqdl", "noise_product_check", 7): "cde7a17599f2470107766ec02b1bba05d46872c2c89cdc62541e553868faf84b",
    ("forged-eqdl", "key_consistency", 7): "3e3033259ba0bef14fd3e2b492657fcb365c95e16acab95e0f3e7494048e4eea",
    ("forged-eqdl", "all", 7): "2f68e7f5241680824bf3446eaea9d2dae0d65182d79fd9fd4f1d1626a5df1451",
    ("impersonation", "none", 7): "9cca37e654dd6f5c08a29fe34c2faa6dc8da4bd039e4508620d90e9545eb97ac",
    ("impersonation", "ni_proofs", 7): "9256baca9ce1df9b01e18175c4175d9cf7b4126a0af04eed92dea4cf70b73cec",
    ("impersonation", "authenticate", 7): "4a89da31930f681b71e0b625f2b47d73dccaa630a03f892a2677a49d0335f54c",
    ("impersonation", "key_consistency", 7): "cddee76b6f8821cad462e5c4c6d63d2cb385bd884c311b0a99c4211e9971981a",
    ("impersonation", "all", 7): "09b45da3ba9f91a3d184c5d22f388342c946fe6d641144708ca2266f0189086b",
    ("exceptional-values", "none", 7): "ea1bf02bddd831eee78fa35a9cd95f2a60ced080af362c1b328d55d71d4212d0",
    ("exceptional-values", "ni_proofs", 7): "b6d542d8bd8a82b0d21ef4862f8b6c2fd889011e481f9c28268e8dc8bc55b56a",
    ("exceptional-values", "authenticate", 7): "87cd9150f7e5c61850362e3c7d9ef1b736a5fde12250c47d96847c4174264ee8",
    ("exceptional-values", "noise_product_check", 7): "0513c9ae57fbd26d0a67bf7915017fa8f32a26d39a6e97a580f48eb750f3f03e",
    ("exceptional-values", "key_consistency", 7): "1f23d8857e4a915cc07c52386cea5fb012f88ccd98598bc2c69a5b09fb155834",
    ("exceptional-values", "all", 7): "fda604aee54f991527b8322dea792c8cfdbed71ea0dd1ce0dc0b079523f6e2c7",
    ("wrong-key", "none", 7): "4ac7654222c60b9b08debbe3f892527aee8669c4063e9149383c0f693843944e",
    ("wrong-key", "ni_proofs", 7): "a92b56990e3ef119c2072519af455cb80da3980b9f5c8c4203446f475b80b016",
    ("wrong-key", "authenticate", 7): "93311e76bc08d55be84aff1cc3674a7797ed470300cbb56d39b3f883d39b0ef5",
    ("wrong-key", "noise_product_check", 7): "0d2ceb491e2175e2e62d61422e3fc94e3c88ee13ff22d0b47c30e683ca56349e",
    ("wrong-key", "key_consistency", 7): "50503f3929f9bb8a7b8aad83bd7080ca2e98b4a5f09abd35faebb6d0b67868e9",
    ("wrong-key", "all", 7): "ba4f67c4f7a96ae50b24a646ad172312189a7fcd962fb43bcbd2407c637d0b63",
    ("recovery-bench", "none", 7): "34146c357cfeb2ed45f3d700612a4c839ee576f8801fa3672e5a4316b1593a08",
    ("recovery-bench", "ni_proofs", 7): "5e127795a3a176a98977b054da849233258a7ea957dab1debd2716e8faef7988",
    ("recovery-bench", "authenticate", 7): "a7bfda1e59c91a197ffadc99886b2d17a20493004af7b00ccbab135d9789d16a",
    ("recovery-bench", "noise_product_check", 7): "3aafb3a5e2ad6b1052b7475ac7536459c8033ac7b8ed8916bd4ec58a30b293e8",
    ("recovery-bench", "key_consistency", 7): "e6a23242947d66e5dc87e059965a59244516c16ac9eae48d28377a4a91a479b3",
    ("recovery-bench", "all", 7): "771666ff1ef8f0027ebefec050c66c550993e98444af669c40340e42f3c28667",
    ("honest", "none", 11): "69d0a7159d2b967bf40019bbb65ccd41a3ae1e70eb2fbdc9004b83f58bb54ac7",
    ("honest", "ni_proofs", 11): "cf0c6178560e9727c318b7fb39cfe349bc324341312e3156cadad76676e2c1f6",
    ("honest", "authenticate", 11): "e92f46445010daa8acefb39a7b357d9c3e3e25f91327ce6751fbcaea54f38b31",
    ("honest", "noise_product_check", 11): "bb079761697f936b9dd235a3b1ef45289bd747c5ebc4914575ae1c2a8aa62dc0",
    ("honest", "key_consistency", 11): "00b9b99f079f1d199e40560d42b0ac329ea49467e202ce53dd1086c0eaad4371",
    ("honest", "all", 11): "d640bb6b0079a23de80c5569cdc79b9bcae5bb613a3dbd1c85ebfac412fb3971",
    ("full-privacy-attack", "none", 11): "0a32a47401bf9b5a699b51010ad0d50f57dea80e1cc847e7a27166627e830007",
    ("full-privacy-attack", "ni_proofs", 11): "77cf70b005b5743ccc3314c2cf71c2f3dc482ff588744b1ebb46d0a5bc72d1d2",
    ("full-privacy-attack", "authenticate", 11): "ed5f5653159c126d73e05b390e71c20537c9532415a01c8e8efa73bcfdd9e5a0",
    ("full-privacy-attack", "noise_product_check", 11): "b6f8973814289a58869f053ec48b14a67cbfeab989eda26825c04763c0ba2dc9",
    ("full-privacy-attack", "key_consistency", 11): "72f1f7b4c8a05ccc493d826c2e61dd0eab6aad0ab242e5790b9729cf5955ef9b",
    ("full-privacy-attack", "all", 11): "8b1890a5b0a84744658e33f2f375cb71b79fbd956b4d700482847475cac58175",
    ("mitm-demo", "none", 11): "0902d994e59a42737f319c24aab2e5c35cc3a57f91e4cfe34e2c48b890217bf2",
    ("mitm-demo", "ni_proofs", 11): "f5ae269d3f5a1ace4cc6e985ae786788f203c210d594c09a3e0322c5caca7a60",
    ("mitm-demo", "authenticate", 11): "8f4b0e2727bad07df16d46152b457269fb0584d0082722580ea46d636a5e4c0c",
    ("mitm-demo", "noise_product_check", 11): "232dcefdc246a7e0c8cb2fb09e2b63b40ad574bb53ab49d6caf8cf69694c9e2c",
    ("mitm-demo", "key_consistency", 11): "5b523d3154c792175eefa0181fb59b7959f990b4be0167c37f819c3fa6514d08",
    ("mitm-demo", "all", 11): "00998d09544223c48fbb16ca1148e0600973226e3033cbdb16370bb0829e1771",
    ("forged-eqdl", "none", 11): "b59e36091946a5a5003465d4cdb74b08858565a7a00b7ad1c1db58e497d8604c",
    ("forged-eqdl", "ni_proofs", 11): "527f823cf0db62875b64d1aa5d254b3f9832c862460bce524171b762c7c1a535",
    ("forged-eqdl", "authenticate", 11): "f44856722e3878ac4a2dd4cea4e15097eee10900982bc6cda9b10cedcd66c277",
    ("forged-eqdl", "noise_product_check", 11): "aedbc13c9ff79f2deaa57ec85140f1bc767d3f636c60ade08660ec00d32ddfb8",
    ("forged-eqdl", "key_consistency", 11): "02a3f9cd23f09d0daaaf965423e9fb5a600a144586b8bad716741d88882174cf",
    ("forged-eqdl", "all", 11): "55c2e1d8a129f5a3339f4a421058b95fedfa53cd59ef2bccc75ed7b4aaa7f02d",
    ("impersonation", "none", 11): "012cc907042e19c7583a9069a974953b184e40ed252aa8cec4aff217f01a96b9",
    ("impersonation", "ni_proofs", 11): "c0f759a452acd3e28b008d8e831d1141cf8f0603499c62769a662a7dd1ee4e1f",
    ("impersonation", "authenticate", 11): "5c22688c91f1807fa922d04267c81c63b6413f555b71c46f3167084eef67e2e1",
    ("impersonation", "key_consistency", 11): "b10cf58a4a661ccac9d212a539f38a142b493ff185a59e882756c5f9514d3cfb",
    ("impersonation", "all", 11): "9ef7eedec871b7115f501182543e1989fc003cfb00d90193766c9bb3c10f4b4f",
    ("exceptional-values", "none", 11): "b7a5f89467ee1253d6288fad94cc67e2d0cc20cc8079ea87f5851f7d59f971a6",
    ("exceptional-values", "ni_proofs", 11): "c90fec4b01939df9e3610a9540ca9bbdc8842f86eb91022241ad920507257187",
    ("exceptional-values", "authenticate", 11): "8899576a0527845bf76c85eba611d2e6916e892273cf22e0c961437ed7cd7bb1",
    ("exceptional-values", "noise_product_check", 11): "e28c3178acbda317331cd92d6aa40cac6a6abf4f2bb603fb5773dd8ea7218515",
    ("exceptional-values", "key_consistency", 11): "e636219a8e8792bae766ab0b3fc9c350619061d6bdaad6feebe7a43cd08a5673",
    ("exceptional-values", "all", 11): "92a5c09d21a6882fefa66178bdbe879b98c59e98c49ea0589916abb654f1ebe4",
    ("wrong-key", "none", 11): "fda90aa1251e3c72d0ca2948f0c1aa17730334c102400440a392921d7dc537b9",
    ("wrong-key", "ni_proofs", 11): "fef839da29a4cc3a5a045219cc1481df519a469635993f51311abbfb9ba771a7",
    ("wrong-key", "authenticate", 11): "acae1a852154e20c8be5b6a0192d7c2ba7f22074151d33db8e479f08d29ca742",
    ("wrong-key", "noise_product_check", 11): "a8c402552bf2d40d38c64e1c83e5388e2469cf25317451c0b1b01ef924c40ad9",
    ("wrong-key", "key_consistency", 11): "52742e161142f5a1b488e4c12b285ed894ee3a66013a25e5401f29d1063f9cfc",
    ("wrong-key", "all", 11): "7b39b9df7422082adb9098281e99394af377bad8207b8838aa552b958ce1c234",
    ("recovery-bench", "none", 11): "f9bebe46aab04c715a54aebf5901ab34eb4ca6a5225876b3441a788431003934",
    ("recovery-bench", "ni_proofs", 11): "a6ebad6807dedcaff41fc079f9ffe7eac54babfd9200d0518833503ad975c1ea",
    ("recovery-bench", "authenticate", 11): "02223ea5eff2d9395606d98ee66a31e73a65a3d3ca704198bcba6af3f89e30fc",
    ("recovery-bench", "noise_product_check", 11): "9262a65a4d5cd18deaed0a2449b4674ec0e7e4e67f2e184687817e64d1101a37",
    ("recovery-bench", "key_consistency", 11): "d62137ee229f627bf50c9a157b4af5dc5b13e458e6c08af8a0afa9604faa3c4c",
    ("recovery-bench", "all", 11): "bd4dbc760d0f2a4bf4999c37cfc39079e2580fcfe34cdfacb16306b9acfcff69",
}


@pytest.mark.parametrize("scenario,flags,seed", sorted(GOLDEN))
def test_report_and_transcript_bytes(scenario, flags, seed, tmp_path):
    result = run_scenario(ScenarioSpec(scenario=scenario, flags=FLAGS[flags],
                                       seed=seed))
    emit_report(result, tmp_path)
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes())
    transcript = tmp_path / "transcript.json"
    if transcript.exists():
        digest.update(transcript.read_bytes())
    assert digest.hexdigest() == GOLDEN[scenario, flags, seed]


# (group, n, k, flags, seed) -> sha256 of report.json followed by
# transcript.json for an honest run.
GOLDEN_WIDE = {
    ("mid", 4, 6, "ni_proofs", 7): "3f76ddd15bd4f1f87f6ae6dd9eb4747ec5d82dfd59ec6be0c237538c52b1d80a",
    ("mid", 4, 6, "all", 7): "13cb89abded2bbeec376a12d5f3c780b1a629a0c8ac0550c7e2cbf0490569e6d",
    ("large", 2, 3, "ni_proofs", 7): "e637986e46e7038a6a949a1d2f4e5c7b3d800b364027b0b266a7596863160718",
    ("large", 2, 3, "all", 7): "9648926ff9ebe090010f9cf78a9162a71cc3b27fa3b0f8d905b1a2ab721408aa",
}


@pytest.mark.parametrize("group,n,k,flags,seed", sorted(GOLDEN_WIDE))
def test_hashed_path_bytes_in_wide_groups(group, n, k, flags, seed, tmp_path):
    result = run_scenario(ScenarioSpec(scenario="honest", group_name=group, n=n,
                                       k=k, flags=FLAGS[flags], seed=seed))
    emit_report(result, tmp_path)
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes())
    digest.update((tmp_path / "transcript.json").read_bytes())
    assert digest.hexdigest() == GOLDEN_WIDE[group, n, k, flags, seed]


# scenario -> sha256 of report.json followed by transcript.json (if any) for
# the large group, interactive proofs, n=3, k=4, seed 7.
GOLDEN_LARGE_INTERACTIVE = {
    "honest": "70c18b75569f982620e82a0b7e792d7064a64f0bc557786f99529bea6001ab35",
    "full-privacy-attack": "75cd4995214695426f04bf609eb70fb1f014623029e0c1be9b860b4c745cff04",
    "mitm-demo": "1317e3b8d3fb31cfa87f7e9861ebf5c01f2dc78d450889cd5e967142721bc2a2",
    "forged-eqdl": "8a4a31328625d93250222c4f6ee2c6a57f0ddbbf285b5b14ed29152c6a532558",
    "impersonation": "5e09a428dce4a8224d205edd8db908955a701c3b7c559904dad1fe33f07f1cfb",
    "exceptional-values": "1bb3129f19074d54cbef1cf840a339ea3d6868853492bccc35b4ca4dbf475267",
    "wrong-key": "65aebf354fe6ffb2c89584b6844c2cd03a60ba4399dc309b7d96201772a09e97",
    "recovery-bench": "61831531df3fe9202854547fb01eb9e2844ed63d9285d8c1fed8fa925061e289",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_LARGE_INTERACTIVE))
def test_interactive_bytes_in_large_group(scenario, tmp_path):
    result = run_scenario(ScenarioSpec(scenario=scenario, group_name="large",
                                       n=3, k=4, flags=FLAGS["none"], seed=7))
    emit_report(result, tmp_path)
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes())
    transcript = tmp_path / "transcript.json"
    if transcript.exists():
        digest.update(transcript.read_bytes())
    assert digest.hexdigest() == GOLDEN_LARGE_INTERACTIVE[scenario]


# (scenario, flags) -> sha256 of report.json followed by transcript.json (if
# any) for the mid group, n=4, k=6, seed 7.
GOLDEN_MID = {
    ("honest", "none"): "d2bfa7472411145d7b526441167deb88188fd19b5d6ea3e727e6207826afea96",
    ("honest", "all"): "13cb89abded2bbeec376a12d5f3c780b1a629a0c8ac0550c7e2cbf0490569e6d",
    ("full-privacy-attack", "none"): "334c11c0c36022785d459dea2f43af3d10f8507d5a426bb0b08e7a7219b3a2ed",
    ("full-privacy-attack", "all"): "cbdc5fea8c7e04178a36ae3751910ea8514e96f13a1f5197018948c7acb7b9d8",
    ("mitm-demo", "none"): "340497f8f4865f888cfd64411a4234ca0529b16e4decad202289c63ed848860a",
    ("mitm-demo", "all"): "ea7730a896235118906296bd26b8a3cbc5f5ffc3c4b28d37c5e7e03c43d47c18",
    ("forged-eqdl", "none"): "c7418ad529c25c97c573ae4d19d0adce3eb467f8584cee8da896a661c5c9e21a",
    ("forged-eqdl", "all"): "1c194e5831600ae0392df29fd49a61bcf59f628955335e4cc9181bea59a0f7a9",
    ("impersonation", "none"): "4624ca325a00013ac76be295cdbaa3e21974008706b4b4e05538bca7b191b03c",
    ("impersonation", "all"): "dd01cfeece2ab11c2e509b679d095e876350d48cddc924fd454f4866ba94f88e",
    ("exceptional-values", "none"): "35300d09c2e6b6116340bb5ed758eefd186c502ca46c45976523cceb8b3c7a2b",
    ("exceptional-values", "all"): "a52fe05ca80f32efe44aae5b73e97500d0bf04603659ca21b51dbca0f08e133d",
    ("wrong-key", "none"): "a2b92adf38151cc0aad6845b7f725a172636bd2a4097e9a1fd0fca46f061aa98",
    ("wrong-key", "all"): "542a44074911f670ae450515a68ba98b363c53d1b6e52753d7b0a66f466da827",
    ("recovery-bench", "none"): "ffafe99e8f0f56eb38fc0195f7c2daa9fbe6c08657d8d7701f8d3b6fc527d980",
    ("recovery-bench", "all"): "5343cbe3cb3ab2d82648f3485b5e873cd616618c68b8b161984de062d7cdeda5",
}


@pytest.mark.parametrize("scenario,flags", sorted(GOLDEN_MID))
def test_bytes_in_mid_group(scenario, flags, tmp_path):
    result = run_scenario(ScenarioSpec(scenario=scenario, group_name="mid",
                                       n=4, k=6, flags=FLAGS[flags], seed=7))
    emit_report(result, tmp_path)
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes())
    transcript = tmp_path / "transcript.json"
    if transcript.exists():
        digest.update(transcript.read_bytes())
    assert digest.hexdigest() == GOLDEN_MID[scenario, flags]
