"""Byte-for-byte CLI output, pinned as SHA-256 digests of stdout.

The digests were recorded before the criterion layer was rewritten (the
large corners before coefficients were stored as ints); any refactor
must leave every one of them, and every exit code, unchanged.
"""

import hashlib

import pytest

from pwcheck.cli import main

GOLDEN = [
    ('epoly --n 2 --g 2 --format text', 0, "fbf4d6306eb2bcb1c49eca213bfe0c9807aa64fc9cb50e8c99c806ed16ca1d6b"),
    ('epoly --n 2 --g 2 --format json', 0, "da25f4301daf3934dbe0ce392fac8a2a6abe239818eb82f8b46e0f398f87032d"),
    ('epoly --n 2 --g 2 --format csv', 0, "4d325996c9b471d90c3019de82a28419cea9ae1bdcbaeb3fee1ccd7206f5e6e3"),
    ('epoly --n 3 --g 2 --format text', 0, "c7ba769acbf65fd287439c308f73d0f96f791903a5e8ac40b61163390ea021f6"),
    ('epoly --n 3 --g 2 --format json', 0, "87eeae914829451cee2a54c0494db463ce9480a90bac4e060715ec5c62fa0a90"),
    ('epoly --n 3 --g 2 --format csv', 0, "f677f87a36067d77d53e03a74e3b0f9effbebdb3c3d220ea922ff273e744e63a"),
    ('epoly --n 5 --g 2 --format text', 0, "3186541b7e9b73a50ffb160380300d4b55e6c098d727e8bad0437b3a321682b3"),
    ('epoly --n 5 --g 2 --format json', 0, "316d455c06b5fd856df9b4acbb5642bd6c2b23f03ad20b9d926c2a848ef829d6"),
    ('epoly --n 5 --g 2 --format csv', 0, "b5c26d82882509c3bcf062db5c4ecb57f134cbcd6713cf7f681a120f16000328"),
    ('betti --n 2 --g 2 --format text', 0, "9dc4f6ac3cc83e2a16df83a98ecdbf36aca69d31470fff6d3f91ac4fba8f3cda"),
    ('betti --n 2 --g 2 --format json', 0, "10327ef236f9909287d0546569efd40a11cbd7b4090d6ff82abc67b4a921c110"),
    ('betti --n 2 --g 2 --format csv', 0, "c2016e94e659325c167b099665d83e25e4125256ae5bd1a1ce9c8e1204851f07"),
    ('betti --n 3 --g 2 --format text', 0, "30e5a41737d27fd1e129fe54798d866dd5fe1f6ccd12720be0a6c6ac3122e332"),
    ('betti --n 3 --g 2 --format json', 0, "ac06eab4b5e7545d7d57cb5eebd3182f879e58a604d50b2c00071d31833517b9"),
    ('betti --n 3 --g 2 --format csv', 0, "6319e41dfcb0b007f6ad81b3c78fcbe63ea7c26a6b146270086d0ce81f1c0bd8"),
    ('betti --n 5 --g 2 --format text', 0, "dd2aec2a618d3c0ae38e88f46a9e8104774f3c3b6c254d792aae47842de05ddb"),
    ('betti --n 5 --g 2 --format json', 0, "00e4242b7b7dd2ad524a000d43f4b8b7464c23d0618f69a4bdf98f6d683fba3d"),
    ('betti --n 5 --g 2 --format csv', 0, "63df6d93f41a3ef976c9e620485bfb3f22d20b1dea6fda7e309c21a837da6282"),
    ('pw --n 2 --g 2 --format text', 0, "4e901132ba74d17b405507d3b5e721356f67598b818207138cea3b915f9477df"),
    ('pw --n 2 --g 2 --format json', 0, "01abdfdd40e2a9dc58c22bfa9b48b3d4b0d0de63de3377da9e6165edf6463f83"),
    ('pw --n 2 --g 2 --format csv', 0, "e627fa8b1209e360e914de828ffe926ce50b1b5d5885e029a521880f223b7c13"),
    ('pw --n 3 --g 2 --format text', 0, "d21c38203042b0babc715feb785e1770fd24879516632cbdd8cd8e9c828637a6"),
    ('pw --n 3 --g 2 --format json', 0, "e79725583a9a6ccf1716ccacf4ad047f3c3d07d7f2dccf20d0b93ab1bc1cc4c8"),
    ('pw --n 3 --g 2 --format csv', 0, "2a6f88f826dd6e09b412dbdcf5751634a8044e643593b9c7e8c4ac8c373eb1be"),
    ('pw --n 5 --g 2 --format text', 0, "56bb819e1647ca1a22ed04de4b31a429319837fd7ebdd88ce967e867a7535138"),
    ('pw --n 5 --g 2 --format json', 0, "19ee8a41b2a4f87afa1be0b6c688ba46dc9f4dca0213882c0540783ea3cf96fb"),
    ('pw --n 5 --g 2 --format csv', 0, "9a44a0dec80ed9ce9ac8d2af984fdf111aae3960a07ffc7b6500e2377962f631"),
    ('verify --n 2 --g 2 --format text', 0, "3111c29249121d4c7a8b6ac23be1846f0152dce200b61be85ba64db203aca2e8"),
    ('verify --n 2 --g 2 --format json', 0, "9d64f7150b9dfc77fee306602f0dd8fa92a92b832b4706789e239a528f695931"),
    ('verify --n 2 --g 2 --format csv', 0, "97ced19e4a3b45165f8f4c8d0891c7a710520197f997f0edcbcf6653b144e104"),
    ('verify --n 3 --g 2 --format text', 0, "74bcc6d7d8be730a125b8eb92c8f490e218f1ddfee3e061b0e36ae4c502cca95"),
    ('verify --n 3 --g 2 --format json', 0, "aa9b24bc47383d54fa43ea01144e3823d72995bb636308fb4e965a58b4712880"),
    ('verify --n 3 --g 2 --format csv', 0, "97ced19e4a3b45165f8f4c8d0891c7a710520197f997f0edcbcf6653b144e104"),
    ('verify --n 5 --g 2 --format text', 0, "b02e4282e62907747d9fc1d92d9f1bd3cee49ea46bb2f446071ee28ec058bd28"),
    ('verify --n 5 --g 2 --format json', 0, "76212456933b35a2fbc7e4bc37e4d812fa49abdc84b0f30380a8549bcf318392"),
    ('verify --n 5 --g 2 --format csv', 0, "97ced19e4a3b45165f8f4c8d0891c7a710520197f997f0edcbcf6653b144e104"),
    ('ksearch --format text', 0, "ab858e4497554f0fe9cb5681439fbee55d32cc92e89c25afb7ad3ed0f297d044"),
    ('ksearch --format json', 0, "ea3f9a1967188e359583bf881e2d6075eff8ca82210f150a6d57ea05912a826c"),
    ('ksearch --format csv', 0, "41465ee7f9a79406d2a919db479b2924c3aba63c9a7d59d035b6a2860db8dc2f"),
    # Large corners, whose coefficients run to 100+ digits.
    ('verify --n 13 --g 8 --format text', 0, "3700af0be415f882c106a978c4cc775055715df320fe2dcea52b439c809c4df6"),
    ('epoly --n 13 --g 8 --format json', 0, "acaf15f56d624e5b859e26c3a2e86c69ba84a2c73806797d56b58ade76a22d91"),
    ('epoly --n 7 --g 8 --format csv', 0, "2cffce6d8802db60da8ab6ab973104268c10d2e292f75108b2df967928cf5b1d"),
    ('pw --n 13 --g 4 --format json', 0, "b39dad30c8cd3d60e25bda33b08fcd7ab99381a02e85dc2792d51ad2dd3e4f56"),
    # The 4x4 search boxes, 65,536 tables each.
    ('ksearch --i-max 3 --j-max 3 --criterion first --format json', 0, "5a63a15a3ae710a2b9097252dcaf5b791fbd28c2cabe16d2dddd8a45d9dea257"),
    ('ksearch --i-max 3 --j-max 3 --criterion second --format text', 0, "efa1bdec00d5f337d7a125dd8c27094f6805ebaca42e53ab18640fa36fe37b81"),
    # The one CLI search with entries up to 2 (19,683 tables).
    ('ksearch --criterion second --i-max 2 --j-max 2 --v-max 2 --format json', 0, "b635f6d774396f5e8924a004ca322ebd3d2471aa3c174fefe4259ff0f2bb7cc6"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[a for a, _, _ in GOLDEN])
def test_cli_stdout_is_byte_identical(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
