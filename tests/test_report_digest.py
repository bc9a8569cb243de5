"""The outcome of every identity's default sweep, frozen as one digest per identity.

Each digest is the sha256 of the reports of ``run_suite("all")`` for one
identity, in order, one JSON line per report holding the fields that
``scripts/compare_reports.py`` compares (timings excluded).  A change that
leaves every report byte-identical passes unchanged; any other change to an
id, a parameter, a status, a render or a witness fails here, on every run,
not only when the reports are compared by hand.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from deltaq import verify as ver

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"

# computed on the reports of the tree before Q(q,t) became one-way; unchanged since
DIGESTS = {
    "prop31": "3759b517405d3370d214f21b3d20b0bdb3e4495f43843a19f2d8bd07793630e4",
    "cor32": "980e353bf37c44a32be4f3be55bf91e603505c0910052d9080db0da3d1e7cbb4",
    "prop33a": "faf39cd2a62a4f3b5ff00c1261bfd0a1bd27d37cd77fae9892d1c8114799ff80",
    "prop33b": "2f475d20cd5e2e86b6bfd5af1836dfa397f6e7de161a1b0c1755c32abf54d9e9",
    "eq10": "10f3664be75bd972d93f92fcbb3beca435284c1b5062d3d409568ebf151abe2a",
    "eq13_system": "7796602a8c813bdc973d5788a6a74f0e674c623646a3f43f84810a81a502bebf",
    "eq17": "4c4a53e9d044389e49be68aca0d660e6583de12add7de6a31194822fffa5c319",
    "cor42": "15901b0e1a07ba6d86b03c0e8bc6dd7af21084b52549646ab51a6e0361fe1330",
    "hook_support": "1d547b3b5f13c0bd628c553fe0aee373e1b8ca3c74ac0d3ab8a3efc0c4b2daf7",
    "eq12": "54dd25d3b0599d51832800fc32f28494a250082ff69aaaac13d7d3aee3f12139",
    "eq16": "7ff5f3deb2164a47bd2327fbc866d054b50ab885d300f2382f4e8bf513d0ae90",
    "ghry23": "6452be433fc3607179e0c2c532717f54149f76902d358a968753ecd89455d562",
    "thm41": "5623912c967c3a5ee7f115b955e6f70215c9f5c94dca38ae592f257e22f41461",
    "thm43": "4dd6d2d552b50ee3203eaf423c80cefd3cb879ca55b0b6a4249c3384522f6ef6",
    "thm44": "7e16916f473c861eafe67ea785d5d11669b334f280ec0f053a1d5f97df2d74b1",
    "deltaconj_t0": "313d5a18e8499f0b470b4436b59f7bdeda7fcf7d092b74ae321801c3ae075e4d",
    "deltaconj_q0": "be08cffebf9dcdd90790c977f1cfa47c31603dfa96735aae1a84c7930e19f888",
    "wmu_consistency": "fd7e579abf381238e469da506c5db27f993345fcb67a863a379c31510782e2a3",
    "span_dim": "ac887d73cb14835435ad5e8e725a8b033e4fd830a104b0fcdb505fd9c2e2cba0",
}


def _compared_fields() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FIELDS


def test_default_sweeps_are_unchanged():
    fields = _compared_fields()
    hashes = {}
    for report in ver.run_suite("all"):
        record = json.loads(report.to_json())
        line = json.dumps({f: record[f] for f in fields}, sort_keys=True) + "\n"
        hashes.setdefault(report.identity_id, hashlib.sha256()).update(line.encode())
    assert {i: h.hexdigest() for i, h in hashes.items()} == DIGESTS
