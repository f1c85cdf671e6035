"""Tests for the interprocedural secret-flow analyzer.

Covers the acceptance gates from the issue: the seeded-leak fixture corpus
is detected with zero false negatives and full source→sink call chains,
declassified shapes stay silent, output is deterministic, the whole src/
tree is taint-clean with an empty baseline, audited annotations surface in
the boundary map, and the CLI (taint subcommand, SARIF format) works.
"""

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.core import Baseline
from repro.analysis.sarif import to_sarif
from repro.analysis.taint import analyze_taint, boundary_map

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "taint"

# leak fixture -> the TAINT rule its seeded flow must trigger
LEAK_SHAPES = {
    "direct_send.py": "TAINT001",
    "via_helper.py": "TAINT001",
    "two_hop.py": "TAINT001",
    "via_collection.py": "TAINT001",
    "mac_only_send.py": "TAINT001",
    "tuple_unpack.py": "TAINT001",
    "enclave_memory.py": "TAINT001",
    "storage_write.py": "TAINT002",
    "param_flow.py": "TAINT002",
    "log_fstring.py": "TAINT003",
    "secret_attribute.py": "TAINT003",
    "exception_message.py": "TAINT004",
    "span_attribute.py": "TAINT005",
    "metrics_label.py": "TAINT006",
    "json_wire.py": "TAINT007",
    "public_kv_put.py": "TAINT008",
}


@pytest.fixture(scope="module")
def leak_result():
    return analyze_taint([FIXTURES / "leaks"], root=REPO_ROOT)


@pytest.fixture(scope="module")
def clean_result():
    return analyze_taint([FIXTURES / "clean"], root=REPO_ROOT)


class TestLeakCorpus:
    def test_corpus_is_complete(self):
        files = {p.name for p in (FIXTURES / "leaks").glob("*.py")}
        assert files == set(LEAK_SHAPES)
        assert len(files) >= 12

    def test_zero_false_negatives(self, leak_result):
        found = {}
        for finding in leak_result.findings:
            found.setdefault(Path(finding.path).name, set()).add(finding.rule)
        missed = {
            name: rule
            for name, rule in LEAK_SHAPES.items()
            if rule not in found.get(name, set())
        }
        assert missed == {}, f"leak shapes not detected: {missed}"

    def test_full_source_to_sink_chains(self, leak_result):
        # Every finding narrates the whole flow: where the secret was
        # obtained and the sink it reached, joined by hop arrows.
        for finding in leak_result.findings:
            assert "reaches" in finding.message
            assert " -> " in finding.message
            assert "sink " in finding.message
        # Interprocedural chains name the intermediate calls.
        (two_hop,) = [
            f for f in leak_result.findings
            if Path(f.path).name == "two_hop.py"
        ]
        assert "outer" in two_hop.message and "inner" in two_hop.message

    def test_findings_carry_symbols(self, leak_result):
        (finding,) = [
            f for f in leak_result.findings
            if Path(f.path).name == "direct_send.py"
        ]
        assert finding.symbol == "exfiltrate"


class TestCleanCorpus:
    def test_at_least_six_shapes(self):
        assert len(list((FIXTURES / "clean").glob("*.py"))) >= 6

    def test_declassified_shapes_are_silent(self, clean_result):
        assert clean_result.findings == []
        assert clean_result.parse_errors == []

    def test_annotation_suppresses_and_is_audited(self, clean_result):
        assert clean_result.suppressed == 1
        used = [a for a in clean_result.annotations if a.used]
        assert [a.reason for a in used] == ["demo-share-commitment"]
        annotations = boundary_map(clean_result)["annotations"]
        assert any(
            a["reason"] == "demo-share-commitment" and a["used"]
            for a in annotations
        )


class TestDeterminism:
    def test_two_runs_identical_json(self):
        def run():
            result = analyze_taint(
                [FIXTURES / "leaks", FIXTURES / "clean"], root=REPO_ROOT)
            return json.dumps(
                {
                    "findings": [f.to_dict() for f in result.findings],
                    "boundary_map": boundary_map(result),
                },
                sort_keys=True,
            )

        assert run() == run()

    def test_cli_json_byte_stable(self):
        outs = []
        for _ in range(2):
            out = io.StringIO()
            main(["taint", str(FIXTURES / "leaks"), "--format", "json",
                  "--baseline", "/nonexistent.json"], out=out)
            outs.append(out.getvalue())
        assert outs[0] == outs[1]


class TestRepoGate:
    def test_src_tree_is_taint_clean(self):
        """The paper's confidentiality claim, statically: no secret in
        src/ reaches an untrusted-host sink without declassification."""
        result = analyze_taint([REPO_ROOT / "src"], root=REPO_ROOT)
        assert result.parse_errors == []
        rendered = "\n".join(f.message for f in result.findings)
        assert result.findings == [], f"secret flows found:\n{rendered}"
        assert result.files_analyzed > 90

    def test_share_commitment_annotation_is_live(self):
        """The one audited declassification in src/ both exists and
        matches a real flow (a stale annotation would show used=False)."""
        result = analyze_taint([REPO_ROOT / "src"], root=REPO_ROOT)
        annotations = boundary_map(result)["annotations"]
        assert annotations == [
            {
                "path": "src/repro/recovery/shares.py",
                "line": annotations[0]["line"],
                "reason": "share-commitment",
                "used": True,
            }
        ]


class TestBoundaryMap:
    def test_catalogs_present(self):
        mapping = boundary_map()
        assert {s["source_id"] for s in mapping["sources"]} >= {
            "ledger-secret", "signing-key", "recovery-share",
            "dh-secret", "hkdf-derived-key", "kv-private-state",
        }
        assert {s["sink_id"] for s in mapping["sinks"]} == {
            "network-send", "host-storage-write", "log-text",
            "exception-text", "obs-span-attr", "metrics-label",
            "wire-serialization", "public-kv-write",
        }
        assert {d["category"] for d in mapping["declassifiers"]} >= {
            "aead-seal", "ecies-encrypt", "signature",
            "constant-time-compare",
        }
        assert "declassify=REASON" in mapping["annotation_grammar"]

    def test_cli_boundary_map(self):
        out = io.StringIO()
        rc = main(["taint", str(FIXTURES / "clean"), "--boundary-map"],
                  out=out)
        assert rc == 0
        payload = json.loads(out.getvalue())
        assert payload["annotations"][0]["used"] is True


class TestCLI:
    def test_taint_subcommand_exit_codes(self):
        out = io.StringIO()
        assert main(["taint", str(FIXTURES / "leaks"),
                     "--baseline", "/nonexistent.json"], out=out) == 1
        out = io.StringIO()
        assert main(["taint", str(FIXTURES / "clean"),
                     "--baseline", "/nonexistent.json"], out=out) == 0

    def test_lint_subcommand_matches_legacy_form(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("import time\n\nt = time.time()\n")
        legacy, sub = io.StringIO(), io.StringIO()
        assert main([str(target)], out=legacy) == 1
        assert main(["lint", str(target)], out=sub) == 1
        assert legacy.getvalue() == sub.getvalue()

    def test_taint_baseline_ratchet(self, tmp_path):
        baseline_path = tmp_path / "taint-baseline.json"
        out = io.StringIO()
        assert main(["taint", str(FIXTURES / "leaks"), "--write-baseline",
                     "--baseline", str(baseline_path)], out=out) == 0
        out = io.StringIO()
        assert main(["taint", str(FIXTURES / "leaks"),
                     "--baseline", str(baseline_path)], out=out) == 0
        assert "0 finding(s)" in out.getvalue()


class TestSarif:
    def test_sarif_output_well_formed_and_stable(self):
        result = analyze_taint([FIXTURES / "leaks"], root=REPO_ROOT)
        first = to_sarif(result.findings, result.parse_errors,
                         "repro.analysis.taint")
        second = to_sarif(result.findings, result.parse_errors,
                          "repro.analysis.taint")
        assert first == second
        document = json.loads(first)
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        assert run["tool"]["driver"]["name"] == "repro.analysis.taint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(LEAK_SHAPES.values())
        assert len(run["results"]) == len(result.findings)
        for entry in run["results"]:
            location = entry["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].startswith(
                "tests/analysis/fixtures/taint/leaks/")
            assert location["region"]["startLine"] >= 1

    def test_cli_sarif_for_lint(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("import time\n\nt = time.time()\n")
        out = io.StringIO()
        assert main([str(target), "--format", "sarif"], out=out) == 1
        document = json.loads(out.getvalue())
        assert document["runs"][0]["results"]
        assert (document["runs"][0]["tool"]["driver"]["name"]
                == "repro.analysis")


class TestEngineInternals:
    def test_declassifier_beats_sink_on_same_call(self, tmp_path):
        source = textwrap.dedent("""\
            from repro.crypto.aead import AEADKey


            def send_sealed(network, nonce, payload):
                key = AEADKey.generate(b"seed")
                network.send("a", "b", key.seal(nonce, payload, b""))
            """)
        target = tmp_path / "sealed.py"
        target.write_text(source)
        result = analyze_taint([target], root=tmp_path)
        assert result.findings == []

    def test_reassignment_clears_nothing_but_new_source_found(self, tmp_path):
        # Flow-insensitivity is conservative: once tainted, stays tainted.
        source = textwrap.dedent("""\
            from repro.crypto.hkdf import hkdf


            def churn(network, seed):
                key = hkdf(seed, b"s", b"i", 32)
                key = b"public"
                network.send("a", "b", key)
            """)
        target = tmp_path / "churn.py"
        target.write_text(source)
        result = analyze_taint([target], root=tmp_path)
        assert [f.rule for f in result.findings] == ["TAINT001"]

    def test_baseline_filters_taint_findings(self):
        result = analyze_taint([FIXTURES / "leaks"], root=REPO_ROOT)
        baseline = Baseline.from_findings(result.findings)
        again = analyze_taint([FIXTURES / "leaks"], root=REPO_ROOT,
                              baseline=baseline)
        assert again.findings == []
        assert again.baselined == len(result.findings)


LEAK_SOURCE = textwrap.dedent("""\
    from repro.crypto.hkdf import hkdf


    def leak(network, seed):
        key = hkdf(seed, b"s", b"i", 32)
        network.send("a", "b", key)
    """)


class TestBaselineRatchet:
    """The baseline key is (rule, relpath, symbol): line shifts and file
    moves must not resurrect accepted findings, and the accepted budget
    must not be double-spent by a copy."""

    def test_line_shift_stays_baselined(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(LEAK_SOURCE)
        baseline = Baseline.from_findings(
            analyze_taint([target], root=tmp_path).findings)
        target.write_text("# a new leading comment\n" + LEAK_SOURCE)
        shifted = analyze_taint([target], root=tmp_path, baseline=baseline)
        assert shifted.findings == []
        assert shifted.baselined == 1

    def test_rename_does_not_resurrect(self, tmp_path):
        old = tmp_path / "old_name.py"
        old.write_text(LEAK_SOURCE)
        baseline = Baseline.from_findings(
            analyze_taint([old], root=tmp_path).findings)
        old.unlink()
        moved = tmp_path / "pkg"
        moved.mkdir()
        (moved / "new_name.py").write_text(LEAK_SOURCE)
        after = analyze_taint([moved / "new_name.py"], root=tmp_path,
                              baseline=baseline)
        assert after.findings == []
        assert after.baselined == 1

    def test_moved_copy_cannot_double_spend(self, tmp_path):
        old = tmp_path / "old_name.py"
        old.write_text(LEAK_SOURCE)
        baseline = Baseline.from_findings(
            analyze_taint([old], root=tmp_path).findings)
        # File copied instead of moved: one occurrence stays accepted,
        # the duplicate is a fresh finding.
        (tmp_path / "copy_name.py").write_text(LEAK_SOURCE)
        after = analyze_taint([tmp_path], root=tmp_path, baseline=baseline)
        assert after.baselined == 1
        assert len(after.findings) == 1
