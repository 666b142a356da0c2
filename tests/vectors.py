"""Frozen expected values for the test suite.

Computed once with independent tooling (arbitrary-precision integer
arithmetic, the standard library's hashlib/hmac, and a third-party
Keccak implementation) and frozen here. The live reference route is
bench/oracle.py, loaded by tests/oracle.py, so properties can also be
checked live.
"""

SCALAR_MULT = {
    "1": {
        "x": "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
        "y": "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"
    },
    "2": {
        "x": "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
        "y": "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a"
    },
    "3": {
        "x": "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
        "y": "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672"
    },
    "n_minus_1": {
        "x": "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
        "y": "b7c52588d95c3b9aa25b0403f1eef75702e84bb7597aabe663b82f6f04ef2777"
    },
    "n_plus_1": {
        "x": "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
        "y": "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"
    },
    "2p255": {
        "x": "b23790a42be63e1b251ad6c94fdef07271ec0aada31db6c3e8bd32043f8be384",
        "y": "fc6b694919d55edbe8d50f88aa81f94517f004f4149ecb58d10a473deb19880e"
    },
    "2p256_minus_1": {
        "x": "9166c289b9f905e55f9e3df9f69d7f356b4a22095f894f4715714aa4b56606af",
        "y": "f181eb966be4acb5cff9e16b66d809be94e214f06c93fd091099af98499255e7"
    }
}

G_PLUS_G = {
    "x": "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
    "y": "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a"
}

BIP39_VECTORS = [
    {
        "entropy": "00000000000000000000000000000000",
        "mnemonic": "abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon about",
        "seed_trezor": "c55257c360c07c72029aebc1b53c05ed0362ada38ead3e3e9efa3708e53495531f09a6987599d18264c1e1c92f2cf141630c7a3c4ab7c81b2f001698e7463b04",
        "seed_empty": "5eb00bbddcf069084889a8ab9155568165f5c453ccb85e70811aaed6f6da5fc19a5ac40b389cd370d086206dec8aa6c43daea6690f20ad3d8d48b2d2ce9e38e4"
    },
    {
        "entropy": "7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f",
        "mnemonic": "legal winner thank year wave sausage worth useful legal winner thank yellow",
        "seed_trezor": "2e8905819b8723fe2c1d161860e5ee1830318dbf49a83bd451cfb8440c28bd6fa457fe1296106559a3c80937a1c1069be3a3a5bd381ee6260e8d9739fce1f607",
        "seed_empty": "878386efb78845b3355bd15ea4d39ef97d179cb712b77d5c12b6be415fffeffe5f377ba02bf3f8544ab800b955e51fbff09828f682052a20faa6addbbddfb096"
    },
    {
        "entropy": "80808080808080808080808080808080",
        "mnemonic": "letter advice cage absurd amount doctor acoustic avoid letter advice cage above",
        "seed_trezor": "d71de856f81a8acc65e6fc851a38d4d7ec216fd0796d0a6827a3ad6ed5511a30fa280f12eb2e47ed2ac03b5c462a0358d18d69fe4f985ec81778c1b370b652a8",
        "seed_empty": "77d6be9708c8218738934f84bbbb78a2e048ca007746cb764f0673e4b1812d176bbb173e1a291f31cf633f1d0bad7d3cf071c30e98cd0688b5bcce65ecaceb36"
    },
    {
        "entropy": "ffffffffffffffffffffffffffffffff",
        "mnemonic": "zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo wrong",
        "seed_trezor": "ac27495480225222079d7be181583751e86f571027b0497b5b5d11218e0a8a13332572917f0f8e5a589620c6f15b11c61dee327651a14c34e18231052e48c069",
        "seed_empty": "b6a6d8921942dd9806607ebc2750416b289adea669198769f2e15ed926c3aa92bf88ece232317b4ea463e84b0fcd3b53577812ee449ccc448eb45e6f544e25b6"
    },
    {
        "entropy": "0000000000000000000000000000000000000000",
        "mnemonic": "abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon address",
        "seed_trezor": "fa08713f46bf5cb48728ceb70e3aae1bc53c5cb7b4e29c5610261d1cbb7be3bed4d805256fec515754d2be35974fc5da678168e9d9bb0cb70948026923b0def3",
        "seed_empty": "6e9360e8d511f85adcda7bf6078207f0b2d12933845953bc766041cb71ac3bf644ffadd57caac244066657e8ebe01efa0e394d1afa7331379a3c1aebd68f6645"
    },
    {
        "entropy": "7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f",
        "mnemonic": "legal winner thank year wave sausage worth useful legal winner thank year wave sausage wise",
        "seed_trezor": "f938c2f3ebd11f1c9057b713d977b5260e4282a57811ab163a9708c4ce15307983ac24c4451c7cb353b2002d0a1ee8a404fa59f0f6aa8323fa9bb61248cf4808",
        "seed_empty": "d95f1faa0f8aea406101a81510690d781da04c86678fc5a13a09c251b7505bb6d17ec0bb408f9d2d6bc9434adbd79491f09f91186b1e445a392d682d8db586ad"
    },
    {
        "entropy": "8080808080808080808080808080808080808080",
        "mnemonic": "letter advice cage absurd amount doctor acoustic avoid letter advice cage absurd amount doctor accident",
        "seed_trezor": "bc40a19ec918698b32e3e13ed906006d9e3b9987ba7dee6fc53a824774cc5be68f89b865bbfbac21b2fb99c016e214f54f239f77dd99881c1b81de275c60be3d",
        "seed_empty": "10c64d44e7d6312acd4b7ae5953a3feada0a0c73ae2f18c17d0aa7081a9b8e8d951144c2b234d678059c3a22e982388e03178d1b61f6ec16b59bba60068b467c"
    },
    {
        "entropy": "ffffffffffffffffffffffffffffffffffffffff",
        "mnemonic": "zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo wrist",
        "seed_trezor": "bfee6f9d2bcfa1331bd6482a24abca521e5f7e769498b9a0146672194c7356e4e409be22bc379c8b64fee2aa24b54d3ec20d10a083eaa5d1d6b4b365941ad37c",
        "seed_empty": "dfa02329d9697ea79645c43ea7434b7ccca68465fdb09f765138ba565a2f652f1230a4e978bb16ef5ef68bbeb007013ed93f645f90376709f18a1b7ef3196433"
    },
    {
        "entropy": "000000000000000000000000000000000000000000000000",
        "mnemonic": "abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon agent",
        "seed_trezor": "035895f2f481b1b0f01fcf8c289c794660b289981a78f8106447707fdd9666ca06da5a9a565181599b79f53b844d8a71dd9f439c52a3d7b3e8a79c906ac845fa",
        "seed_empty": "4975bb3d1faf5308c86a30893ee903a976296609db223fd717e227da5a813a34dc1428b71c84a787fc51f3b9f9dc28e9459f48c08bd9578e9d1b170f2d7ea506"
    },
    {
        "entropy": "7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f",
        "mnemonic": "legal winner thank year wave sausage worth useful legal winner thank year wave sausage worth useful legal will",
        "seed_trezor": "f2b94508732bcbacbcc020faefecfc89feafa6649a5491b8c952cede496c214a0c7b3c392d168748f2d4a612bada0753b52a1c7ac53c1e93abd5c6320b9e95dd",
        "seed_empty": "b059400ce0f55498a5527667e77048bb482ff6daa16c37b4b9e8af70c85b3f4df588004f19812a1a027c9a51e5e94259a560268e91cd10e206451a129826e740"
    },
    {
        "entropy": "808080808080808080808080808080808080808080808080",
        "mnemonic": "letter advice cage absurd amount doctor acoustic avoid letter advice cage absurd amount doctor acoustic avoid letter always",
        "seed_trezor": "107d7c02a5aa6f38c58083ff74f04c607c2d2c0ecc55501dadd72d025b751bc27fe913ffb796f841c49b1d33b610cf0e91d3aa239027f5e99fe4ce9e5088cd65",
        "seed_empty": "04d5f77103510c41d610f7f5fb3f0badc77c377090815cee808ea5d2f264fdfabf7c7ded4be6d4c6d7cdb021ba4c777b0b7e57ca8aa6de15aeb9905dba674d66"
    },
    {
        "entropy": "ffffffffffffffffffffffffffffffffffffffffffffffff",
        "mnemonic": "zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo when",
        "seed_trezor": "0cd6e5d827bb62eb8fc1e262254223817fd068a74b5b449cc2f667c3f1f985a76379b43348d952e2265b4cd129090758b3e3c2c49103b5051aac2eaeb890a528",
        "seed_empty": "d2911131a6dda23ac4441d1b66e2113ec6324354523acfa20899a2dcb3087849264e91f8ec5d75355f0f617be15369ffa13c3d18c8156b97cd2618ac693f759f"
    },
    {
        "entropy": "00000000000000000000000000000000000000000000000000000000",
        "mnemonic": "abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon admit",
        "seed_trezor": "e7dadc189d2e8d07ac278d9ec98a1d2d327e4a6b7df494c00cbf2cbf2d3543dac7000fc72d4ada8d9997dc8db388ff22c6d79f604a7455f2df5534a28eee04c6",
        "seed_empty": "277fe8691c965d8a47439d1ff771d9bad603575b8e8d8cee6cb907a1359992c22ab736b36859f9edcfd33bfef94e0d21ad295ff81194652c6e87bd68289b3522"
    },
    {
        "entropy": "7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f",
        "mnemonic": "legal winner thank year wave sausage worth useful legal winner thank year wave sausage worth useful legal winner thank year viable",
        "seed_trezor": "99c0597b2bef5ca4859e21075fee0fc931747a30469b6f564d95f74913c357aceb55221b4f4fe6965e871340b45754b1ae59e53da1797b69b30c5fa40ec105b8",
        "seed_empty": "e982f4470824ae503c043a3a283999f1ec4d9fd9cca11c5d286677638da3506dca176d60cfe768d5dc5eb3e2aa47d8ad7a86f7b56d9b75997fbd44eb725a6a97"
    },
    {
        "entropy": "80808080808080808080808080808080808080808080808080808080",
        "mnemonic": "letter advice cage absurd amount doctor acoustic avoid letter advice cage absurd amount doctor acoustic avoid letter advice cage absurd apart",
        "seed_trezor": "708f0487a927474944ed882e5f05954656bd82bebcf4119b1233e90ee8b27b16d48a77be2c2aceecc32b07a94a5e9a04d94856a2b9fd7c2362ac4153420ef2e6",
        "seed_empty": "ae8b8cfeb26d1224bd46c2e45dfa12da8fc25fdd4cf23f23c2145fe85967eeac4da3e07b3a82cb7749621ecd5529415cdbc4a845c7ec283d62111a63acc51453"
    },
    {
        "entropy": "ffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
        "mnemonic": "zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo veteran",
        "seed_trezor": "4aa0af4ca02ef1d9fa675cd02aa06d318425564e7fadd3d51b6165cc56d77398f28d8522073cd036c2a4a24a83e919211c84500d96cb120084e613ff5fcd96c1",
        "seed_empty": "db4bfe5911205c0b2e048ceef790d0433a902a070d0744af9b5e88ed5e0aef548246102dd6ba2313e418fd799360e2dbd8eb93ee40fe0942517555b66e89d488"
    },
    {
        "entropy": "0000000000000000000000000000000000000000000000000000000000000000",
        "mnemonic": "abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon art",
        "seed_trezor": "bda85446c68413707090a52022edd26a1c9462295029f2e60cd7c4f2bbd3097170af7a4d73245cafa9c3cca8d561a7c3de6f5d4a10be8ed2a5e608d68f92fcc8",
        "seed_empty": "408b285c123836004f4b8842c89324c1f01382450c0d439af345ba7fc49acf705489c6fc77dbd4e3dc1dd8cc6bc9f043db8ada1e243c4a0eafb290d399480840"
    },
    {
        "entropy": "7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f7f",
        "mnemonic": "legal winner thank year wave sausage worth useful legal winner thank year wave sausage worth useful legal winner thank year wave sausage worth title",
        "seed_trezor": "bc09fca1804f7e69da93c2f2028eb238c227f2e9dda30cd63699232578480a4021b146ad717fbb7e451ce9eb835f43620bf5c514db0f8add49f5d121449d3e87",
        "seed_empty": "761914478ebf6fe16185749372e91549361af22b386de46322cf8b1ba7e92e80c4af05196f742be1e63aab603899842ddadf4e7248d8e43870a4b6ff9bf16324"
    },
    {
        "entropy": "8080808080808080808080808080808080808080808080808080808080808080",
        "mnemonic": "letter advice cage absurd amount doctor acoustic avoid letter advice cage absurd amount doctor acoustic avoid letter advice cage absurd amount doctor acoustic bless",
        "seed_trezor": "c0c519bd0e91a2ed54357d9d1ebef6f5af218a153624cf4f2da911a0ed8f7a09e2ef61af0aca007096df430022f7a2b6fb91661a9589097069720d015e4e982f",
        "seed_empty": "848bbe19cad445e46f35fd3d1a89463583ac2b60b5eb4cfcf955731775a5d9e17a81a71613fed83f1ae27b408478fdec2bbc75b5161d1937aa7cdf4ad686ef5f"
    },
    {
        "entropy": "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
        "mnemonic": "zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo vote",
        "seed_trezor": "dd48c104698c30cfe2b6142103248622fb7bb0ff692eebb00089b32d22484e1613912f0a5b694407be899ffd31ed3992c456cdf60f5d4564b8ba3f05a69890ad",
        "seed_empty": "e28a37058c7f5112ec9e16a3437cf363a2572d70b6ceb3b6965447623d620f14d06bb321a26b33ec15fcd84a3b5ddfd5520e230c924c87aaa0d559749e044fef"
    },
    {
        "entropy": "e2bbec7d451acbfba56aa34ed8cf10f3",
        "mnemonic": "tired term butter mechanic protect worry noble federal excite shoe service trade",
        "seed_trezor": "8372aa727a31eec4d9020eb52975a48d2ce2bd1b5e642664de6dd3d4d58f93f7afee9bc86940bfdedd5b48cdf89537a4c0787a223b89f4d7fa622d60be52c8aa",
        "seed_empty": "99e63979edf2c73d90a9eb6b2e4541f8261fc76d006127951e6d7224cd45c9b7c7a97819474d6d8d24f85534fe3187e24ad972e25940711e4e26e9da803768e4"
    },
    {
        "entropy": "ac4033a33a38ea188ac142957a6a112f3bba6170",
        "mnemonic": "proof account trip inner modify arrange climb choose nice spy lounge fury roof cost seminar",
        "seed_trezor": "19ace006b64ff4496bbbb9698d6ab75aa08fe958e4a70d46d83d50edcf3ba3d19d006eaa3444f6d35ff9deb4fb565d5eac2cdf4d2442bcaf97dfc3956e48711d",
        "seed_empty": "db924190a2f2781d4dead7a4cc38408b286144334231bde03515a6abf0bffe65f021c5eab89bcffda780c3bac5684367dc90915fb30c3bec22741da9892237aa"
    },
    {
        "entropy": "6c660aea646e96089c0bfb9d3f306ef99f99dab12d6d8029",
        "mnemonic": "hockey core ritual silver truly affair ice legal outdoor wet brick veteran wet unhappy seven pumpkin lens emotion",
        "seed_trezor": "d1bab3db9a8a4f79a56bb1aa1fcbdbb3389b22f19429313d6f8bc67cc31450e747a8d137aa962f8d7a765c084743320eecde1b8d65445bd989bee7b33c3feb7b",
        "seed_empty": "b3a28bbbe62a0bb8cbdd078c9e0acf5937ad8d3e9943db09fb2218ed51e765a5bfd75a2cd0e17019622d1b0ede2a8541683922c11f66280844b0d9a117d9cb64"
    },
    {
        "entropy": "eb4aa765ed81b113c068be1969e68f32b8d4ebb065371fd35b8f29a5",
        "mnemonic": "twice festival sunny swallow brand measure accuse blind bonus execute phrase grace minute into screen plunge cabin onion toilet fashion fee",
        "seed_trezor": "2118e571f1e58a09007d8fcece9406a1a2598924ba5a2ef0aa124af67d7167600f153bab1c844904e037e923ab49304ec1050e8267c0615a0fcccd2ab4b41706",
        "seed_empty": "597de77a7854a6364c70cc1068718bf5a0275c0b4cf24ea29048018bec792cec5156ed1d00ba3190af96347fec49c94c68fada0a6931a3c32a49aa5666cde8a8"
    },
    {
        "entropy": "0f2ff68ff3184ec230fe6126a319b0cde565279563eb9e6ca785e771fb66cdfc",
        "mnemonic": "august leisure physical tower lumber genre sentence slow chase boat history orange film need few latin oyster gown thumb solve cabbage recall dawn nuclear",
        "seed_trezor": "6fdffec487363a87b639528c2c8cf994e71ccb89a24c2dced47395062ba489b9ef00092f7c069b35f17135670039bc8ca63ffcadeae2a0840af457028c560051",
        "seed_empty": "c95474925060a0fa77553baed235b4ed22fe3b51dba427acce66f953353a42d4cd50f28c4de51065d13f0f9956b307222be91ba95b838c0ff175d6656a792c77"
    }
]

BIP32_CHAIN1 = [
    {
        "path": "m",
        "key": "e8f32e723decf4051aefac8e2c93c9c5b214313817cdb01a1494b917c8436b35",
        "chain": "873dff81c02f525623fd1fe5167eac3a55a049de3d314bb42ee227ffed37d508"
    },
    {
        "index": 2147483648,
        "key": "edb2e14f9ee77d26dd93b4ecede8d16ed408ce149b6cd80b0715a2d911a0afea",
        "chain": "47fdacbd0f1097043b78c63c20c34ef4ed9a111d980047ad16282c7ae6236141"
    },
    {
        "index": 1,
        "key": "3c6cb8d0f6a264c91ea8b5030fadaa8e538b020f0a387421a12de9319dc93368",
        "chain": "2a7857631386ba23dacac34180dd1983734e444fdbf774041578e9b6adb37c19"
    },
    {
        "index": 2147483650,
        "key": "cbce0d719ecf7431d88e6a89fa1483e02e35092af60c042b1df2ff59fa424dca",
        "chain": "04466b9cc8e161e966409ca52986c584f07e9dc81f735db683c3ff6ec7b1503f"
    },
    {
        "index": 2,
        "key": "0f479245fb19a38a1954c5c7c0ebab2f9bdfd96a17563ef28a6a4b1a2a764ef4",
        "chain": "cfb71883f01676f587d023cc53a35bc7f88f724b1f8c2892ac1275ac822a3edd"
    },
    {
        "index": 1000000000,
        "key": "471b76e389e528d6de6d816857e012c5455051cad6660850e58372a6c3e6e7c8",
        "chain": "c783e67b921d2beb8f6b389cc646d7263b4145701dadd2161548a8b078e65e9e"
    }
]

BIP32_CHAIN2 = [
    {
        "path": "m",
        "key": "4b03d6fc340455b363f51020ad3ecca4f0850280cf436c70c727923f6db46c3e",
        "chain": "60499f801b896d83179a4374aeb7822aaeaceaa0db1f85ee3e904c4defbd9689"
    },
    {
        "index": 0,
        "key": "abe74a98f6c7eabee0428f53798f0ab8aa1bd37873999041703c742f15ac7e1e",
        "chain": "f0909affaa7ee7abe5dd4e100598d4dc53cd709d5a5c2cac40e7412f232f7c9c"
    },
    {
        "index": 4294967295,
        "key": "877c779ad9687164e9c2f4f0f4ff0340814392330693ce95a58fe18fd52e6e93",
        "chain": "be17a268474a6bb9c61e1d720cf6215e2a88c5406c4aee7b38547f585c9a37d9"
    },
    {
        "index": 1,
        "key": "704addf544a06e5ee4bea37098463c23613da32020d604506da8c0518e1da4b7",
        "chain": "f366f48f1ea9f2d1d3fe958c95ca84ea18e4c4ddb9366c336c927eb246fb38cb"
    },
    {
        "index": 4294967294,
        "key": "f1c7c871a54a804afe328b4c83a1c33b8e5ff48f5087273f04efa83b247d6a2d",
        "chain": "637807030d55d01f9a0cb3a7839515d796bd07706386a6eddf06cc29a65a0e29"
    },
    {
        "index": 2,
        "key": "bb7d39bdb83ecf58f2fd82b6d918341cbef428661ef01ab97c28a4842125ac23",
        "chain": "9452b549be8cea3ecb7a84bec10dcfd94afe4d129ebfd3b3cb58eedf394ed271"
    }
]

MASTER_ZERO_SEED = {
    "key": "eafd15702fca3f80beb565e66f19e20bbad0a34b46bb12075cbf1c5d94bb27d2",
    "chain": "cda6a96b8a91317d82fa5c6353562cd530761cf1eec6e13cfa3858b0b130b0bd"
}

RFC4231 = [
    {
        "key": "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
        "msg": "4869205468657265",
        "mac": "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cdedaa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
    },
    {
        "key": "4a656665",
        "msg": "7768617420646f2079612077616e7420666f72206e6f7468696e673f",
        "mac": "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea2505549758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737"
    },
    {
        "key": "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
        "msg": "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd",
        "mac": "fa73b0089d56a284efb0f0756c890be9b1b5dbdd8ee81a3655f83e33b2279d39bf3e848279a722c806b485a47e67c807b946a337bee8942674278859e13292fb"
    },
    {
        "key": "0102030405060708090a0b0c0d0e0f10111213141516171819",
        "msg": "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd",
        "mac": "b0ba465637458c6990e5a8c5f61d4af7e576d97ff94b872de76f8050361ee3dba91ca5c11aa25eb4d679275cc5788063a5f19741120c4f2de2adebeb10a298dd"
    },
    {
        "key": "0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c",
        "msg": "546573742057697468205472756e636174696f6e",
        "mac": "415fad6271580a531d4179bc891d87a650188707922a4fbb36663a1eb16da008711c5b50ddd0fc235084eb9d3364a1454fb2ef67cd1d29fe6773068ea266e96b"
    },
    {
        "key": "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
        "msg": "54657374205573696e67204c6172676572205468616e20426c6f636b2d53697a65204b6579202d2048617368204b6579204669727374",
        "mac": "80b24263c7c1a3ebb71493c1dd7be8b49b46d1f41b4aeec1121b013783f8f3526b56d037e05f2598bd0fd2215d6a1e5295e64f73f63f0aec8b915a985d786598"
    },
    {
        "key": "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
        "msg": "5468697320697320612074657374207573696e672061206c6172676572207468616e20626c6f636b2d73697a65206b657920616e642061206c6172676572207468616e20626c6f636b2d73697a6520646174612e20546865206b6579206e6565647320746f20626520686173686564206265666f7265206265696e6720757365642062792074686520484d414320616c676f726974686d2e",
        "mac": "e37b6a775dc87dbaa4dfa9f96e5e3ffddebd71f8867289865df5a32d20cdc944b6022cac3c4982b10d5eeb55c3e4de15134676fb6de0446065c97440fa8c6a58"
    }
]

PBKDF2 = [
    {
        "password": "70617373776f7264",
        "salt": "73616c74",
        "c": 1,
        "dk_len": 64,
        "dk": "867f70cf1ade02cff3752599a3a53dc4af34c7a669815ae5d513554e1c8cf252c02d470a285a0501bad999bfe943c08f050235d7d68b1da55e63f73b60a57fce"
    },
    {
        "password": "70617373776f7264",
        "salt": "73616c74",
        "c": 2,
        "dk_len": 64,
        "dk": "e1d9c16aa681708a45f5c7c4e215ceb66e011a2e9f0040713f18aefdb866d53cf76cab2868a39b9f7840edce4fef5a82be67335c77a6068e04112754f27ccf4e"
    },
    {
        "password": "70617373776f7264",
        "salt": "73616c74",
        "c": 1,
        "dk_len": 32,
        "dk": "867f70cf1ade02cff3752599a3a53dc4af34c7a669815ae5d513554e1c8cf252"
    },
    {
        "password": "70617373776f7264",
        "salt": "73616c74",
        "c": 4096,
        "dk_len": 64,
        "dk": "d197b1b33db0143e018b12f3d1d1479e6cdebdcc97c5c0f87f6902e072f457b5143f30602641b3d55cd335988cb36b84376060ecd532e039b742a239434af2d5"
    },
    {
        "password": "70617373776f726450415353574f524470617373776f7264",
        "salt": "73616c7453414c5473616c7453414c5473616c7453414c5473616c7453414c5473616c74",
        "c": 2,
        "dk_len": 64,
        "dk": "98d5c1535939ed6d044fa6c4eaf0ebc685d2975e2a36e919abbd284cabd937109ecad1ab3c087ecc1b356514bcfbccdf5c498e66a7ace125e15b9063f2cfd4dd"
    },
    {
        "password": "7061737300776f7264",
        "salt": "7361006c74",
        "c": 16,
        "dk_len": 64,
        "dk": "ac79152270d97beb3888142a15dd92d223c9b504a908442827dac19afefa6cc5cb6b2d5d5126680220348e403050b3b7444201c158e89cd212fc95afc7cf2548"
    }
]

SHA512_TWO_BLOCK = {
    "msg": "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf",
    "digest": "0351f475c711d068be7b0395d65343b5e249feaa3c3f3b6b87100c50306ef0340f60ef36233f0e6287057ef7be8634bfc4d46b49e4a8f2cc4839f42f486a16fb"
}

RFC6979_SIGNATURES = [
    {
        "d": "0000000000000000000000000000000000000000000000000000000000000001",
        "msg": "73616d706c65",
        "z": "af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a62add1bf",
        "k": "0f23d7a2ba580b716ff2a03d43e26b3148eea2eb3a1fc6e7abf7cef3877b35be",
        "r": "58db657bcd631038bea07b4941172f0167aca98f12b55e3176bd1c35435d6501",
        "s": "3a78e73d8ff8ab554e13c10f6390d81a882f91945d6275493882676170b53a57",
        "parity": 1
    },
    {
        "d": "0000000000000000000000000000000000000000000000000000000000000002",
        "msg": "74657374",
        "z": "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
        "k": "0c164a5e7f346e60f20c6c523bd297e7a97808ef73e4b6b7ab6b3806758a1f59",
        "r": "32d84fc48ba1d3787c3618b99d5f265d3c8f265ba75f34bf25dfe8d235b6d495",
        "s": "7c2fc5920e461c98a5343676eb2c183164cc5155f63a2078bf34d1814071e9ad",
        "parity": 1
    },
    {
        "d": "0000000000000000000000000000000000000000000000000000000000000003",
        "msg": "5361746f736869204e616b616d6f746f",
        "z": "a0dc65ffca799873cbea0ac274015b9526505daaaed385155425f7337704883e",
        "k": "a87fdde4b4bfc5aafb2a1cecaacf97eecdf586037e9c22c23db842cf02a37646",
        "r": "b17d34c014972d273149b331b3cc140f5205737dc2c0fde9a47f44b5ec53326f",
        "s": "037857059194e4faa9631f4323e50478870c96699a184089098ff6aff18aae38",
        "parity": 0
    },
    {
        "d": "8f8a276c19f4149656b280621e358cce24f5f52542772691ee69063b74f15d15",
        "msg": "416c6c2074686f7365206d6f6d656e74732077696c6c206265206c6f737420696e2074696d652c206c696b6520746561727320696e207261696e2e2054696d6520746f206469652e2e2e",
        "z": "7d1833f54854ac51659521afcd0ec6dca2ce2351429614bfa28a756b1b3c637f",
        "k": "1dd5072c563c7846d3f3968d505f1ab5356c51ab62f2127c7691aca9bb060fe8",
        "r": "1ba40894dff0d8dd41ad3c45752b54e390c14d01cdf4d96b5056e6cac9546b3e",
        "s": "2020738ca730dcf89b674e87900e4b6b5c7402eb811975363a1c29e3232ba82b",
        "parity": 0
    },
    {
        "d": "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140",
        "msg": "45766572797468696e672073686f756c64206265206d6164652061732073696d706c6520617320706f737369626c652c20627574206e6f742073696d706c65722e",
        "z": "06ef2b193b83b3d701f765f1db34672ab84897e1252343cc2197829af3a30456",
        "k": "14a5dc5f1b20a26fb11ab299e3fa2440112627bdf11b66fabeda2057b2e01fa3",
        "r": "ba1afd54f9975fe2962bad597193d51c86de515418aa66f6a6d5cd246a519ab1",
        "s": "4125fe0e7d12428a70c706bf091bb40c164eddb0aea6aa61c0f2256009de59e6",
        "parity": 1
    },
    {
        "d": "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd036413f",
        "msg": "00",
        "z": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "k": "ffa2a6f0aff23658d448fa7f8f880e9e88d790c3c9d09a4bba1442fb9490a769",
        "r": "9f59694b5e005f733ac56954c4f97084f6359b46ef02bea835af236cb3ce0561",
        "s": "10a65e0596dda54109fc08fcaddaf01d70f80bd073280f63f4caa1b26ff2bef2",
        "parity": 1
    },
    {
        "d": "c90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b14e5c7",
        "msg": "61616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161616161",
        "z": "2816597888e4a0d3a36b82b83316ab32680eb8f00f8cd3b904d681246d285a0e",
        "k": "cfab197a04f6e912e031b8f1b3fbd3be56d1485ef5506cd7383f796733c43f79",
        "r": "3f1d9c39d1bcf0bea60badacc593ac37b96416d66b0c6e2b57aae473d0267032",
        "s": "7dd0aac9d88df6687657474058d2b8c350897f01f73f97ac5bfba7342a6b2b3d",
        "parity": 0
    },
    {
        "d": "0000000000000000000000000000000000000000000000000000000000003039",
        "msg": "64657465726d696e6973746963206e6f6e636520636865636b",
        "z": "24a0cd21caac83a1050a2b6954142cb2929bd8079ce2fb6ae744122fa9fcd418",
        "k": "fd6e5d9fa3ed5f33846b42e54c4d0a81e79ae7a4aa764b3eb796832c4ac4354f",
        "r": "c9aba3611a78f2547e87b59de76a9fe9c79ad00a0f314e6fdd219762912a6e14",
        "s": "1e89b1dbce691c21ea89bcdf56bd043f69e975b5068077c01bc441ee81c924d4",
        "parity": 1
    },
    {
        "d": "00000000000000000000000000000000000000000000000000000000deadbeef",
        "msg": "4574685661756c74",
        "z": "7114f3e7fa2ca2c9433858d00f1aa5bf8ee9c953de6b5727f0abc538141aa1fb",
        "k": "a15299bdc171e776b419969b4b050f1a0d3a6618dd8f50a62c17f3e68c8c09d6",
        "r": "86bc5b8a05d679bcac4c71003b9ad586cdf50957ca25aeb5b7c8e7e8d4e998a7",
        "s": "13ddc8ef0a13f439f0f2fd56946028c4f31505beb6c0fa96df5becb9955c89e3",
        "parity": 1
    },
    {
        "d": "0000000000000000000000000000000000000000000000000000000000000007",
        "msg": "68617264776172652077616c6c6574",
        "z": "b7720b6eecf4df0a35b5f930a3ffd18be44241d8ea5c729ef3224b37b24ec5cf",
        "k": "b76dc1652d553afd376cc082563bc5c116e2dcf35c3251d3bcdc6fe9f88ab905",
        "r": "4797ea7f0d6540e436f2b57c1b0fc2474024f7f13ca35034703602811475d194",
        "s": "108ca69cad61cda5ef5aeec6c380c28e861566d7f5f233ff4f4d2ed7a22e47f9",
        "parity": 1
    },
    {
        "d": "fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210",
        "msg": "747261636520756e69666f726d697479",
        "z": "5582f2d4bc2b1823178fba6217ca7e4ab8ecbebf5b3e6ed7ecda9a237b639fbf",
        "k": "345f55f341ba2798cca7cda0672495ddf6f774d5ea3b111628091f5f4c59e1e2",
        "r": "24e3e45ad8662e346c66c51a8d765c2a26d0a9a4f98ae2368e5200bcc71e3fc0",
        "s": "0b804f3b50056aab5492ac06102507c51768503fef7865587431028c5e73c7cd",
        "parity": 0
    },
    {
        "d": "000000000000000000000000000000000000000000000000000000000000002a",
        "msg": "6c6f772d73",
        "z": "c3459ddc6180302557a6ae09519fe65d80fd983afecc24643edd00ffe25abfdd",
        "k": "104aa3123c5abb62138ad96b3ce3f9b494a7f4bcbe85da9a9fcfb166b4bd263f",
        "r": "6f9bcf80e0fa3508c7bb281ade46c5c51873c2bbdafa7ffaa1098c5c5bf7fde3",
        "s": "3cdbaeda4966ffca349eb77e41bf89224842181f3d2c258f9a362038f7cb54fb",
        "parity": 0
    }
]

ETH_ZERO_ENTROPY_24 = {
    "mnemonic": "abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon art",
    "seed": "408b285c123836004f4b8842c89324c1f01382450c0d439af345ba7fc49acf705489c6fc77dbd4e3dc1dd8cc6bc9f043db8ada1e243c4a0eafb290d399480840",
    "accounts": [
        {
            "index": 0,
            "key": "1053fae1b3ac64f178bcc21026fd06a3f4544ec2f35338b001f02d1d8efa3d5f",
            "pub_compressed": "02dc286c821c7490afbe20a79d13123b9f41f3d7ef21e4a9caacd22f5983b28eca",
            "address": "0xF278cF59F82eDcf871d630F28EcC8056f25C1cdb"
        },
        {
            "index": 1,
            "key": "0855b75d03a8830e390b5483d81694c9c7121d971e092145cf8b9c6fa3a5b373",
            "pub_compressed": "03efd4cb0d8102293499b4f79d73d8343faa44d0e3fc14537872b437c8ec527a0c",
            "address": "0xf785bD075874b8423D3583728a981399f31e95aA"
        },
        {
            "index": 2,
            "key": "86015375c36a7a3d263edc84aeaed9bc001f4a137206c52a7dae7828148cd34d",
            "pub_compressed": "02a4fca1b4b9246802559265a2d142b2897710a7e30519cd12471857c2154cf18b",
            "address": "0x60Af1c6A5D03F9f1B1b74931499bC99E72fF8DA9"
        }
    ]
}

ETH_ZERO_ENTROPY_12 = {
    "mnemonic": "abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon abandon about",
    "seed": "5eb00bbddcf069084889a8ab9155568165f5c453ccb85e70811aaed6f6da5fc19a5ac40b389cd370d086206dec8aa6c43daea6690f20ad3d8d48b2d2ce9e38e4",
    "address0": "0x9858EfFD232B4033E47d90003D41EC34EcaEda94",
    "key0": "1ab42cc412b618bdea3a599e3c9bae199ebf030895b039e9db1e30dafb12b727",
    "pub0": "0237b0bb7a8288d38ed49a524b5dc98cff3eb5ca824c9f9dc0dfdb3d9cd600f299"
}

EIP55_ADDRESSES = [
    "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed",
    "0xfB6916095ca1df60bB79Ce92cE3Ea74c37c5d359",
    "0xdbF03B407c01E7cD3CBea99509d93f8DDDC8C6FB",
    "0xD1220A0cf47c7B9Be7A2E6BA89F429762e7b9aDb"
]

KECCAK_EXTRA = {
    "zero_byte": "bc36789e7a1e281436464229828f817d6612f7b477d66591ff96a9e064bcc98a",
    "range256": "dc924469b334aed2a19fac7252e9961aea41f8d91996366029dbe0884229bf36",
    "a135": "34367dc248bbd832f4e3e69dfaac2f92638bd0bbd18f2912ba4ef454919cf446",
    "a136": "a6c4d403279fe3e0af03729caada8374b5ca54d8065329a3ebcaeb4b60aa386e",
    "a137": "d869f639c7046b4929fc92a4d988a8b22c55fbadb802c0c66ebcd484f1915f39"
}

SMALL_CURVE = {
    "p": 103,
    "b": 7,
    "gx": 1,
    "gy": 27,
    "order": 111
}
