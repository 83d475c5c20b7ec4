"""Byte-identity of the JSON reports: sha256 digests of `csection ... --json`
output for `theorem` and `verify lemma1` on every `builtin_battery(500)` group,
`conclusion` on the five large groups of the benchmark and on SL(2,13) and
SL(2,17), whose nonabelian chief factor lies over the center, `verify lemma4`
on the four SL(n, q) cases at seeds 0 and 11, `verify lemma3` for n = 5, 6
and 7, and `verify example` at p = 7 and p = 17.

A change that alters a verdict or its evidence on purpose regenerates the
digests (`python tests/test_reports_pinned.py` prints the table) and names
each changed report in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json

import pytest

from csection.catalog import builtin_battery, named_spec
from csection.cli import main

LARGE_GROUPS = (("PSL2", (11,)), ("PSL2", (13,)), ("PGL2", (9,)), ("PGL2", (11,)),
                ("PSL2", (17,)), ("SL", (2, 13)), ("SL", (2, 17)))


@functools.lru_cache(maxsize=None)
def _commands() -> dict[str, list[str]]:
    """Each pinned report's key and its command line."""
    out = {}
    for entry in builtin_battery(500):
        spec = json.dumps(entry.spec.to_dict(), separators=(",", ":"))
        out[f"theorem {entry.label}"] = ["theorem", "--group", spec]
        out[f"lemma1 {entry.label}"] = ["verify", "lemma1", "--group", spec]
    for name, params in LARGE_GROUPS:
        spec = json.dumps(named_spec(name, *params).to_dict(), separators=(",", ":"))
        label = f"{name}({','.join(map(str, params))})"
        out[f"conclusion {label}"] = ["conclusion", "--group", spec]
    for n, q in ((2, 4), (2, 8), (2, 9), (3, 4)):
        for seed in (0, 11):
            out[f"lemma4 SL({n},{q}) seed {seed}"] = [
                "verify", "lemma4", "--n", str(n), "--q", str(q), "--seed", str(seed)]
    for n in (5, 6, 7):
        out[f"lemma3 {n}"] = ["verify", "lemma3", "--n", str(n)]
    out["example 7"] = ["verify", "example", "--p", "7"]
    out["example 17"] = ["verify", "example", "--p", "17"]
    return out


def _digest(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv + ["--json"])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


PINNED = {
    'theorem C1': '937e937633bb186d47cadea43039f4e5f7c71823ecda5ee415a2f5d9ae789305',
    'lemma1 C1': 'c85a0bd3badf45b186abc8cfab44ff6562ea15f0e6f7a4c843e399ee2a55d987',
    'theorem C2': '769e828fe291d8299826beff83fc461f0847a531e7b183163ecca4d7e17cbe69',
    'lemma1 C2': 'aa30ff9245762d441ea96a919680c600d13cf06b9908b45fc4c4eb6b34fd0b71',
    'theorem C3': 'c04ffccde4ccaa724fec7ed84706a91c0345b3cf25a97c2ae80b9d01415a678d',
    'lemma1 C3': 'fb9ddb1c378f0005e93f7c43cf5bb1f98d1862145a62d2f8504032437f2be11f',
    'theorem C4': '908f681264bab17fd1cd37f4a173efc34a4a57232f768d709f5d1f42bca64792',
    'lemma1 C4': 'b89ba11471f3c1783bdd4bd89115af903d65e5abd8f15fdc931aadf1f7448839',
    'theorem C5': 'a49029eb0a9b68e0f3ce3004663c7e88cbc6953b4d9d5265c0dd5949dfa5c8d3',
    'lemma1 C5': 'b20ef671f9f041f59d065a2ec17117b33ed54de3b5d1a9cf5e1f280640f47a26',
    'theorem C6': '5f7ac00ee813d421f113a886e8ad489e26245bcf5bcea872ea4bd65a0e841123',
    'lemma1 C6': '8591e059087147bb0c8c55033e862f7b1da71ad257783ad3879b9a6933db8f0d',
    'theorem C7': '5279f426a08ca552fe6f252392cf180087000de6eb858af916d1fc9ae6cb3229',
    'lemma1 C7': '78c91cb94d73da96fe141ab21a92baa20856fc8115df4c8149fdae145a8493e6',
    'theorem C8': '3ee2b5907e7950da31246f27b60e85a2489dd1a3fb6612e24d780f8bd782482c',
    'lemma1 C8': '2ec57ee72759feeaedc3a36f2de9ce4b928a3091a141421a96f9cca23498874e',
    'theorem C9': 'c618f68aad339f77890ea43eafeff6c05115decc82342c1d0e8a81b1b061838e',
    'lemma1 C9': 'c8a7548a89fe07e7a207ff5b99fdc2bf1e892c33e04069130295da45ff9ec1e4',
    'theorem C10': '72bd342f95eebe1e730e2901fdc14e0a8f885f960c3a513fa23b3df032575e6c',
    'lemma1 C10': 'c5cf8f432d5d94756a636a8effb22af588f2d5232b1a0949dce973ea6868ef48',
    'theorem C11': '6b64961fb65b679259831c36fdc9510614358210ba5e6b31669b7e5e3881e7a9',
    'lemma1 C11': '169f29bf76153abab1a037dab7fe3e9aae84b10215250c113522da7d772a218e',
    'theorem C12': '081272e5e2ccbd0516b590204fcf00d6c06ee8cc689f82ad974ace054f014667',
    'lemma1 C12': '81c00f4fc0a030e8f5f5a5aacd342b1b40c1ce4e4e1bc93b39a1c4f5df2f8335',
    'theorem C16': '42125eb1031e61a4e7e8a49a35709317820c25be36b8a2317fc222269c17cbe5',
    'lemma1 C16': '0526a90ba3f7854d3263093cfcc1b819726bbec100db1409b7adb1b25b7dcf41',
    'theorem C20': '3b59854e6316dd16a4f52a2daff7762ef5d859aab62b614496461d84a1c69b31',
    'lemma1 C20': 'd6a016f1a73e906917686c993b846ee63576dfca1423ef0f48da1dd89210b05c',
    'theorem C24': '20f4081e48b66c3e343f48ccbb55774a62d47982ff7df7170b41cb497d040b05',
    'lemma1 C24': '209fc18da38765ee3054d1837ac92a7d7e782da3e63680076cb35b85003f15a7',
    'theorem C30': 'fa9cbcb0df91f0cc7ce40f2438aa4e94b58b3df077fe5a3f248a7dc2466bef88',
    'lemma1 C30': '1b734f28a97ba787b5c6382389b8e753b49b59cd875a10108080df72f3ec55d1',
    'theorem D6': '4ce638da14309882eb85e1a279e392c6738bca8ade593775ea1df564ea0bb1c7',
    'lemma1 D6': 'a840851566d7bebf5a413ad7652058e7ead29a9fe1077d736a8736343a78c554',
    'theorem D8': 'a7521131bef4a2abc48485ec729a743d42b3de5f657c23f7b3aa817ac267e1e9',
    'lemma1 D8': '09c0d126f547a9ac7ef805771f683a0949e346c3dffcd68f79032f98b06dd163',
    'theorem D10': '5d9345d6c531aa2d55d2295b3582a154ddae4fbf4cecc3d7a59831f15d26b7a5',
    'lemma1 D10': '2f7e2a52960abec8357d6d233225595ad8e441526a6777d897c2d7070f3098e8',
    'theorem D12': '408f8a936da784cddeb832979417f384f2cd776b0acb419d5716223a058cbea0',
    'lemma1 D12': 'ca096dc840e257e3ee34c081a7f908c884906719e49e6e7261b7e400d4fb7545',
    'theorem D14': 'e9b409662728ee9cf881fa1aff696619306873ef9370fa866ff0b0aa00a68ef4',
    'lemma1 D14': 'b7907ccfc8b1cdfdc5bbe146cef0969739b444c0d538e899ca4860f83074447c',
    'theorem D16': 'c1367ea75c3e151a986a1d472af7c39e7f063efdd9a72efa50298912442b2d49',
    'lemma1 D16': '436ef709a0ba836fdffe31fabc4912c1c0864a30ed07d9a9ae8fe81b2a9422ad',
    'theorem D18': '1310129f7fddf41f89e8162836e6e6d3b86972ff16c24ff332f0c7a5e341ee25',
    'lemma1 D18': '9f01b5921ed45196a34bb7fcfe303a3db2d584e9edf1fec6c4a56027065b2adc',
    'theorem D20': '697cce388f7d0b606753dc378a7ea3383d2904a387c05b63f6c11dbc84fb9ee2',
    'lemma1 D20': 'fd8adb02c7641222e56cf85808454ff0fd7d313af1cd8aa1ce05f4b8cab6447c',
    'theorem D22': '1d55838404275d0f830956746f5f90f8c883a433c35f0d66929b301ed571afa8',
    'lemma1 D22': 'd9011554c6597d52b1375ed64fe1f06133bb0cb98d4e034e69c832254bf567c3',
    'theorem D24': 'ccddbd930a422ca094a1c1fb9b32bb1b891f5698214b62c612f28e645ccb2cf5',
    'lemma1 D24': 'b05fc9cd2ae097ddd127a794825f3d337fc3e49628c04b96ea4582ca542f7436',
    'theorem D32': 'a3ae7c039f960f1f383767dff8f7ec35809df22ad5037fc4d81cd7955a9d3aa0',
    'lemma1 D32': 'f0aba278657c2fc8390eeb44e19b6cc3a0dea879e00a36d2496d0f2d57026a58',
    'theorem E2^2': 'c2062131086612868b7232c186462309377b5eab29b54b2e251864f16883410e',
    'lemma1 E2^2': 'd085c9a9b48c1ec8aff4bb2c8eb6750191eaf3eba0c2e2b49820e45336889717',
    'theorem E2^3': '9b4d76c3056657f1293e8899ee3606ae66036b8884de10e81a833ff1fafd1528',
    'lemma1 E2^3': '1f240c57634370881ebed3ed537fcb122fe678cf31c231a117ea76cc24da3617',
    'theorem E2^4': 'b77281a21afa1205a03298e5b13977e74d527213b2f46903c1522bfe9dd750da',
    'lemma1 E2^4': '4ae849432ac7a03bf22d222512ba9a38846c02d8f305385bd50538e1571b7250',
    'theorem E3^2': 'adbe5a06495f9e0580f3c5edfdd91d41993c3169b4bd28cfc140e0281e376d1f',
    'lemma1 E3^2': '412bb7048ff87333db33429eeacdc2f437ee93c87979a589d51699f924cfa022',
    'theorem E3^3': 'b6a1ebd44e7254f8f436bcc1a049c908b0be51bb696b3bf767ffabe1d6e63be4',
    'lemma1 E3^3': '54a5e316d7340b2f96ff7872315d3621f2c6fa1ee2df03c84602f68717f3736f',
    'theorem E5^2': 'd552b48fa3d6a67ffcd2d91376f9bae20fe166c56ed8608a889fc750a4f7f739',
    'lemma1 E5^2': '88d5364f055e805148145b8b0cbb6bd7325428f8c9d8da651f1a541ff213e963',
    'theorem E7^2': '5f7e0502afb0cbb9bc5f705d40745616a0c3f7715b80d00debf996d447bc7f08',
    'lemma1 E7^2': '87495ea46e7b76741743cf555abeb4484de946d7bb51cf908e76a3194613c4e2',
    'theorem S3': 'ab6f5813fa0c1b23663489dd6da787ba9405f894383261bb31045ee69370bcd9',
    'lemma1 S3': '1f7631271862eabaa82f4dc00ff39a301ee3028c618827968fe8fc1d407c204c',
    'theorem S4': '7b294b184ab50bfb787ac85d10495668311053162ba72f4719c8aa961b5d5f0b',
    'lemma1 S4': '1adee3a67c74101e6096f3ee2b2b1275b5cdc4a9f3ab9c92f4778a0220e5b919',
    'theorem S5': 'a56220674e0615e18f3d442922d2610336639301d7db8c1f21c7b9e09ba228b9',
    'lemma1 S5': '643ff8f9410d97012d7cdd1ed5448b9f1216eb535465212d201879fefdc78ff0',
    'theorem A4': 'd3bf8dce24eb6dfeb83e27d769fbb7ea9aa34374ba4f39eb3ac40d64624037a5',
    'lemma1 A4': '8fcd852f63683bfc2fa5c857a317bdd4843d296a900948bc5e5204baf9dc8b26',
    'theorem A5': '9c4857a646ff476959b42265acba08187a522c3b7865cb2634c5bf3e56590d3f',
    'lemma1 A5': '646a9798b5fde19dd8d1562c97eb66dc3533c2ac91630f6c7b0c04c1ac89cd52',
    'theorem A6': 'dcfa5c19921793638f63c47cdb8d3c152e6ac5919ecb083f8bd0e9a2d932dfc9',
    'lemma1 A6': '868c0373a8d2fb815785f51e24c0de2842ad91e75ea56d9bb1692376551d7f26',
    'theorem PSL2(2)': '4ee43c0b2d3e71f65043e3236584387b19419c8f0ab5a5cb8dad01165ddd43e2',
    'lemma1 PSL2(2)': '2d5f58f20f2545e05521cb2c9915bb994963102f0f064f7402a44faaec6264f3',
    'theorem PSL2(3)': 'bcf6caa89df893040cf2ecdf9d2d6b0084b708de2627ad61a85fdc3c245ca1d2',
    'lemma1 PSL2(3)': '43d3500a636cccda2af973deabadd356b027eb06269beb7b1c0a20e3b590b021',
    'theorem PSL2(4)': 'c79cc8a01173edd2f3ed703650b6357cc68ca58558f6fa3b8ddc4e1b431738c9',
    'lemma1 PSL2(4)': 'b0ce8b8cf9456c1b7007f0d80f541993403e1c28db7c1a62b0ad945b63669ef1',
    'theorem PSL2(5)': 'eb36849a3b70816499124832724367ba05edc2206169069309bd6908b2622c72',
    'lemma1 PSL2(5)': '5f98971f8b0a41bb8b8d393032bd8dfa9f0bcadc97d637271e57afb2de6b4f85',
    'theorem PSL2(7)': 'cc7e2735d868c767c520e8ae9049f47d4c148f9db7ae9b61cc30b97c029ef6bb',
    'lemma1 PSL2(7)': '618731e50c26a1a30acfcbbf8faecaf2893f1a215bebe7ef50c83f071c038ad6',
    'theorem PSL2(9)': 'a78e1734815cce59157e4411efa39af59cc504460bd0f0c64bb662455bc3d39a',
    'lemma1 PSL2(9)': '2aeac61a939a102c07cdaef5419ebc5f05077f16cba626e85af9c3c70eae2556',
    'theorem PGL2(2)': 'a308ec518db38fc11b62536f2e63bfd78cf255eeded65a8e15c95933b6b397ef',
    'lemma1 PGL2(2)': 'c9bab4d9c2856930503ce653b303b2bd346e703d8a4609ce37f4318ea5d42f93',
    'theorem PGL2(3)': '3de5304987bd27376f1b8f9ed8bfdf8a1776b657f84ebb26ef22fe24e148c43e',
    'lemma1 PGL2(3)': '066e1ff7d466c29643f259402a792a136ccf9c170bcbd3a25448e700c7ac1156',
    'theorem PGL2(4)': 'c8d3d3b705ca254aa795510a2abe438bc373d4da5e1d502fb66b57568758d218',
    'lemma1 PGL2(4)': '6e553dbc92fd8db862cde05cb5a243661cbfca2a5eaa9678492cb50e53bee7f5',
    'theorem PGL2(5)': '70e9a42a473b86cf9baa99e1f044a55e5e16c06f7400ba1cc3d2f510b211f7dc',
    'lemma1 PGL2(5)': '62ba21d5a7bc4e89e38c8f6f23d3e4072424372534715d31de8325ffb422d65b',
    'theorem PGL2(7)': '814f3ce6b11ae898b66d609800314c11ab38158dfb313a7994fcae10bb5c098c',
    'lemma1 PGL2(7)': 'b2f69a111c4a25234e76257724e7caaa7d2d4139b65ac2431d6e6c01e5aa5001',
    'theorem SL2(2)': '8574d326ca401d7f46d917c1f54620be4e0f4c9c20efef887cf8fcd85abb2d9d',
    'lemma1 SL2(2)': 'a86959c522462829c16cff37dffa1b8d32c1d17c3008c10d3fb60ea4bb5478fa',
    'theorem SL2(3)': '8b1044ce5020e7e1a68b4a23ef92ce5774eb4416de329c0a55ef6f545ecdf659',
    'lemma1 SL2(3)': '6265bd691b50dc6f63b1b3b1116ffecdf1cbb7f8802ed0d8866f754eee052ea3',
    'theorem SL2(4)': 'c1f3d0651ab7d547e6e646d50d4dd4de00403484863ea47c5071841eaa70b703',
    'lemma1 SL2(4)': '605baace479958851b38bd06cee92288c795d6a3779e13ae814f9ff0557ce2ee',
    'theorem SL2(5)': '438bbe315bd36101526e5f20c54034b32b7c6251544f020b9c4e3f0d3700fd89',
    'lemma1 SL2(5)': '73107e425cce92dd09b6ba364a1a81526f6ab32ee4c7be1d3270c56090cf988f',
    'theorem SL2(7)': 'bad25631df1750c89474739444a4ab18cfe3fc3a126f9db7e787d4514df30329',
    'lemma1 SL2(7)': '9c14e16d04d1843c179f4ee908865329731970dadab1c29bf736ee727a754026',
    'theorem C2xA5': '87437db0f6fd3d1c08bc3931dd6383cb6ebd5051fbca056935e20b28b9296fee',
    'lemma1 C2xA5': '8ad33f1e534bf6b57096232de7e24c283368990f8bad06078ffcb83ce739bdf5',
    'theorem C2xS4': 'a3ea28e6a89656f907678ff25974ca5d1b8e8c73d424db377d5a0fdb5b735381',
    'lemma1 C2xS4': '368c6fb92777f9c7c9f72a3629c82d5b83c5506fe5a2de521a372a99eef33a40',
    'theorem S3xS3': '10a2974a8e3822d905e240d77a4b1f689f2170d3c1e7ffe0960b7466a2e28228',
    'lemma1 S3xS3': 'cf343d9088313cb05710635954784443c367d293ed80b48e1ba61a0ab9161b4f',
    'theorem A4xA4': '80178974e2d147d30acc1b3f51834097c04de82519b77663a50ae0c1a784f047',
    'lemma1 A4xA4': 'c131b4d677c78229d1f19b3828e52b5785ccfd7188f73c07cf3ad50b175bd12f',
    'theorem C3xD10': '7bddf7ea4410c77e7ba7bfadf6d3c0c42c846fa865e7047244368a8681667672',
    'lemma1 C3xD10': '5c3faaf052f6ea7db09eb0834efaac64fdc3a92682675097861e93c0edc76449',
    'theorem C4xS4': 'f0fa0c0515a46f87b429ce209bcec42fcc882bd7edac9ad01c61b267f5dc9e96',
    'lemma1 C4xS4': 'fc635b00f6df71199affb6fb12c494d66529256bde31c478171d857fd4b34a47',
    'theorem D8xD8': 'c255a8441cb5de0f04085fea5b6574131f103380bf058cfc497673a4a44ce593',
    'lemma1 D8xD8': 'dd8d2279bad3e25d99ac15f1dbfe0812f1911dd96165d9b4879fed6770568598',
    'theorem C2xPSL2(7)': '8f11c67f3f080b20c4c0f30cf029436d2423732250ee1d859aa58cc2953ad07b',
    'lemma1 C2xPSL2(7)': '581f82ebc7e79267ea005506412135253632ae3b7515c4c4bd01602ecaceca83',
    'theorem SylNorm_vec_SL2(4)': '3d07764b069e2d6c605b7dd7b9c194eff8842a6d7ddbedfc449c1aae72be34d9',
    'lemma1 SylNorm_vec_SL2(4)': '00feddf2e67025b1f77905b219e5c8eb7b22ffbfcec9b8a51ae72c81f06e98df',
    'theorem SylNorm_proj_SL2(4)': '70afaf007ba52ec474215364619d16af05e92c9567fd38f28608b78215beabfb',
    'lemma1 SylNorm_proj_SL2(4)': 'eb8d5365bd6f4512deeba0f7b45487ba7bf521b542aa2ff4a109b34b283f8845',
    'theorem SylNorm_vec_SL2(8)': '7b670b1016edb9e906ee0e719a09331ce3f175ea4eb88a9161359e5eafaa980c',
    'lemma1 SylNorm_vec_SL2(8)': '1054163a661b1eab1a8b4799f7adb50292ecfc908f7ebd6c74731a627444da8f',
    'theorem SylNorm_proj_SL2(8)': '28961113c3c25d670335be21881d444879a23c37a800283b029c24baf62b31ae',
    'lemma1 SylNorm_proj_SL2(8)': '8e265ecc951cb4bfb0b29b3f60c1321384cd8e1afcd3bdcf8161797b7a8cbd41',
    'theorem SylNorm_vec_SL2(9)': 'fafab0b647af60c6a4eb92b933f3c65cd92b158e392c4db27f14b88136019dfa',
    'lemma1 SylNorm_vec_SL2(9)': '30c02f511d8dc0b7f7982f00d8238dd6d64e1ea1e14d8aee3ad1c13bed3be065',
    'theorem SylNorm_proj_SL2(9)': '0e53e99961b4ae8616d664e49e15ee8a119a2626943fd6cf5f845b6273cd5aaa',
    'lemma1 SylNorm_proj_SL2(9)': '4209cc619753ff6d6a984cd9c418daaa5fe73f77d94e215d93195848f08261fd',
    'theorem SylNorm_proj_SL3(4)': 'efe80baeee31007f6856ae64c3e2a453cfc98f0355755cd7c62c585923dfc9c7',
    'lemma1 SylNorm_proj_SL3(4)': '0daee5d5705adaf92a81731e4a16ca4112e0d5677c0f56cb55ef7e7793052878',
    'conclusion PSL2(11)': '29abae6325deacf4a11de52715218d9f8fee5fe0e5c9d1c6d06e432ad61307d9',
    'conclusion PSL2(13)': '9a3af8e7848c1e5d9c10b86c10481e2dfe1747c89fded54e7ed10cac2cd32ede',
    'conclusion PGL2(9)': '3009224b4a9b5f6d2872ebc8cf675672fa64643553f7c9aa4cd12eb930d4e59b',
    'conclusion PGL2(11)': 'ab12c739a865de35230fda71f0fef044cba14b7cf1341602c901aef056666ec0',
    'conclusion PSL2(17)': 'b9232af726a31c2e9a616ddf22b0bca7b153a8b7d54458f0989357ef7aef57e1',
    'conclusion SL(2,13)': 'bc535255ad55d1bbcfc3b490a2b1d3109d6ea0d478ea26666f0d975e56b6d38e',
    'conclusion SL(2,17)': '411478b5472fa71347ed850363d86bfa3214eb246afeabed9471a85c9960c146',
    'example 7': 'c3f15261f00caa81da3ad9519012ac117c112ab18750591d216a3ca3977ce509',
    'lemma4 SL(2,4) seed 0': 'afb1ddb8d93956762badc98d0fce502397e41604fb21a3f739dc164241271da3',
    'lemma4 SL(2,4) seed 11': 'afb1ddb8d93956762badc98d0fce502397e41604fb21a3f739dc164241271da3',
    'lemma4 SL(2,8) seed 0': '79364bd26a0a6fd7cc5c5d8f4236b9a3a1d523da692c2d60d2125a0def3d2580',
    'lemma4 SL(2,8) seed 11': '79364bd26a0a6fd7cc5c5d8f4236b9a3a1d523da692c2d60d2125a0def3d2580',
    'lemma4 SL(2,9) seed 0': 'a2b156559244f41693619f626ad62ead69a01b92d8d1b6d63d9af78685d9cc1b',
    'lemma4 SL(2,9) seed 11': 'a2b156559244f41693619f626ad62ead69a01b92d8d1b6d63d9af78685d9cc1b',
    'lemma4 SL(3,4) seed 0': 'cfda01348a9b4160a6df2ef6d981002fb6e0027d34b815843826274c4b826322',
    'lemma4 SL(3,4) seed 11': 'cfda01348a9b4160a6df2ef6d981002fb6e0027d34b815843826274c4b826322',
    'lemma3 5': 'bb2e72466f2ebfa705cf51f706298584040f473d13f41ca23ed4f3bbce00084f',
    'lemma3 6': '347df51f93b7124d367165a7a3948c1782625bcbd1a450598294a82495999625',
    'lemma3 7': '889951fd9354e934b442946e1547acaf643c5a5189ea48de99741167159c31e1',
    'example 17': '824b8ba765055449800fb4743d59043b26edb33b366726ce56cea4c81f03b371',
}


def test_every_pinned_report_has_a_command():
    assert sorted(PINNED) == sorted(_commands())


@pytest.mark.parametrize("key", sorted(PINNED))
def test_report_is_byte_identical(key):
    assert _digest(_commands()[key]) == PINNED[key], key


if __name__ == "__main__":
    for key, argv in _commands().items():
        print(f"    {key!r}: {_digest(argv)!r},")
