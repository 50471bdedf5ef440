"""Golden digests of the CLI's data files at default parameters.

Each entry is the sha256 of one data file (csv or json) written by
``radialma.cli.main``: the seven scenarios that run no oracle at their
defaults, the five family scenarios with the powertail, maxconst and
linearcap families, ``condition --which level``, and ``condition`` and
``membership`` on the log family at ``--log-R=0.5``.  No random family
is pinned, so numpy's generator stream cannot move these digests.  The
meta sidecars are left out, since they record the package, numpy and
Python versions.  A change that moves any float in any of these files
fails here.
"""
import hashlib

import pytest

from radialma import cli

GOLDEN = {
    ("csv", "counterexample"): "268137b3b584895aa60991f2eb66146c177aa2177975873ed982ecf3546947d9",
    ("csv", "capacity-table"): "df591a2cb611bd057d9a57c96ebaf02ad13dad4d4dc8b85819e72a5f62266204",
    ("csv", "condition"): "073715c11d2d41736f5760589f77f25d4a24ea0c6db49b8ffe8059b84ec8f199",
    ("csv", "truncate-analyze"): "823a9785cf21094cce8aa151a7168f13533888a903ec8c046ecc84cfcf32b313",
    ("csv", "weak-converge"): "74663826692fd82940427888d3843f89fd271daf148ec83f884841a345c9063b",
    ("csv", "maximality"): "475f005ae27b5687b39b106a309e868ebd45d434d738d90dd350ee3ae8cf2cbf",
    ("csv", "membership"): "41d7e67315607445c21463b2571a965013d6267b73461e1bf4d535795cfe997e",
    ("csv", "condition", "powertail"): "730df04a57ee8700e360fabc2b098480b4a8c4be442ae41e22c325d6e63f16af",
    ("csv", "truncate-analyze", "powertail"): "e94f038c45c9b95e24ac3edb5e05342cfae37ef41bc2502522312decb2005b2a",
    ("csv", "weak-converge", "powertail"): "189d5be5a99343ae3961425cc9d7ccffb240b17192cf7797ac56cf0507321f7f",
    ("csv", "maximality", "powertail"): "6e584402fbdeec27e2be359f8f11d781ba1befe8b468198f50668ddbb714b71d",
    ("csv", "membership", "powertail"): "c9288d0200c71f54ab5c844fb7a71f1f9634195ea15f0f0c65de6585b51cf281",
    ("csv", "condition", "maxconst"): "15de37ef4ed94df6615684568c3e0eef05e69b8e16129fc48af3b3ba7e5fd317",
    ("csv", "condition", "linearcap"): "15de37ef4ed94df6615684568c3e0eef05e69b8e16129fc48af3b3ba7e5fd317",
    ("csv", "truncate-analyze", "maxconst"): "6b06fcdb06b7c5bf356582e9b5a3c226ec91a86f45425254b3c60e548faca6ac",
    ("csv", "truncate-analyze", "linearcap"): "6b06fcdb06b7c5bf356582e9b5a3c226ec91a86f45425254b3c60e548faca6ac",
    ("csv", "weak-converge", "maxconst"): "00e7219e9175d42171651f20497168abb130045b72cbdf8c77d72c6d61173a81",
    ("csv", "weak-converge", "linearcap"): "00e7219e9175d42171651f20497168abb130045b72cbdf8c77d72c6d61173a81",
    ("csv", "maximality", "maxconst"): "54b3e8aea021834ab86d4aaed9f9bba2f6b8a99856ce1d3cbba355a032ec34c7",
    ("csv", "maximality", "linearcap"): "54b3e8aea021834ab86d4aaed9f9bba2f6b8a99856ce1d3cbba355a032ec34c7",
    ("csv", "membership", "maxconst"): "d81ac8e53ba71b3e2a31b0368eaa0fe0977762befd50e1e236d43fc1735cb577",
    ("csv", "membership", "linearcap"): "d81ac8e53ba71b3e2a31b0368eaa0fe0977762befd50e1e236d43fc1735cb577",
    ("csv", "condition", "level"): "073715c11d2d41736f5760589f77f25d4a24ea0c6db49b8ffe8059b84ec8f199",
    ("csv", "condition", "log-R=0.5"): "ac4867add79ebb0907e9a55794f57ff7ea4f9b883936d76d76227f34c33804ba",
    ("csv", "membership", "log-R=0.5"): "52e6def9ddba23d406f1774a5c9661f8db97cbe698299099150d45748db86beb",
    ("json", "counterexample"): "8eaa41e839a557d01474e2cb52321429a090d41a4e9b781272e6e4745f5c80b9",
    ("json", "capacity-table"): "7204ed620bb5293648e5d7a05fa66248e8b85337613306128c32a1a8bb9031e3",
    ("json", "condition"): "22126ea2e13e725336425749bd256e4c7cff454a45039c96ac4ed1d232d54253",
    ("json", "truncate-analyze"): "a3b46408d1079d16d7cf9f55cb0d8fd9a5fa34be9c4ab491d2dc5e05816abba8",
    ("json", "weak-converge"): "9c402fab5a012d55de11940d24593cca0a88d3c807dbdcb6c4782d2372c1b97b",
    ("json", "maximality"): "c9c4648be4e84fd0ce301db9e87c8e314b2ac4fa74128e29a1afaa65246f7e72",
    ("json", "membership"): "0a3b199210f4e42eb23e379ad1908d9065d61e96c73a322a52c1728fadf45b79",
    ("json", "condition", "powertail"): "91355d282b4fadb872140729057a34ed9c8811a2f2b04e8858fe91117590ee96",
    ("json", "truncate-analyze", "powertail"): "9173eb165edd47c54e32a4b266f355041626e54a468ace3cb3fccaeb4b0b8cbd",
    ("json", "weak-converge", "powertail"): "38b6cf643df312af5da75e7d2587b4b695a476719ebc79fef7fb0a762c9570f6",
    ("json", "maximality", "powertail"): "099df75d3ad3392e3510dee1d24ea1ed114d0352309fff1df3c94955ebf8cb30",
    ("json", "membership", "powertail"): "2d167f270a9fc0ae64acff250f58a11d49b1821d9137508e81d093f0d3b59727",
    ("json", "condition", "maxconst"): "32538ec2ee14e6a3fa4aef34ad1faa9d93a85083047efca3d58552f5142c0d69",
    ("json", "condition", "linearcap"): "32538ec2ee14e6a3fa4aef34ad1faa9d93a85083047efca3d58552f5142c0d69",
    ("json", "truncate-analyze", "maxconst"): "32a19f5a59afb22bf9ac289dfa4e674de5d4f9ef443c5b0058066eafa4eef523",
    ("json", "truncate-analyze", "linearcap"): "32a19f5a59afb22bf9ac289dfa4e674de5d4f9ef443c5b0058066eafa4eef523",
    ("json", "weak-converge", "maxconst"): "ede35563caf7dd08e5ba19aa732bd0f92900c3410fd5e75a7be8185e77c4413d",
    ("json", "weak-converge", "linearcap"): "ede35563caf7dd08e5ba19aa732bd0f92900c3410fd5e75a7be8185e77c4413d",
    ("json", "maximality", "maxconst"): "8aa6ff496ac6521d248c9ec180bf73e68f01d8a43faa0f419b31055bc6dda76e",
    ("json", "maximality", "linearcap"): "8aa6ff496ac6521d248c9ec180bf73e68f01d8a43faa0f419b31055bc6dda76e",
    ("json", "membership", "maxconst"): "e1d063e454fbeffdd6bc2735e1c50953164fba88576643ac3a8a6370222d2db1",
    ("json", "membership", "linearcap"): "e1d063e454fbeffdd6bc2735e1c50953164fba88576643ac3a8a6370222d2db1",
    ("json", "condition", "level"): "22126ea2e13e725336425749bd256e4c7cff454a45039c96ac4ed1d232d54253",
    ("json", "condition", "log-R=0.5"): "b0e0803a5f5dcc0a67ec01f52dc11f5f2f48c6f89e62abb68656ecf3d31d659c",
    ("json", "membership", "log-R=0.5"): "a631b296e15c0fb3afbbfbf36d421be7d74c8cc79fda3a3b6ddea6f5e0a41953",
}
# the options each variant named in a key adds to the scenario's defaults
VARIANTS = {
    "powertail": ["--family", "powertail"],
    "maxconst": ["--family", "maxconst"],
    "linearcap": ["--family", "linearcap"],
    "level": ["--which", "level"],
    "log-R=0.5": ["--family", "log", "--log-R=0.5"],
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(k))
def test_data_file_matches_its_golden_digest(key, tmp_path, capsys):
    fmt, scenario, *variant = key
    argv = ["--output-dir", str(tmp_path), "--format", fmt, scenario]
    if variant:
        argv += VARIANTS[variant[0]]
    assert cli.main(argv) == 0, capsys.readouterr().err
    data = (tmp_path / f"{scenario}.{fmt}").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[key]
