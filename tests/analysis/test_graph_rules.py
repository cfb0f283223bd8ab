"""The cross-module rules against on-disk fixtures.

Each fixture project under ``fixtures/`` seeds one true positive (the
regression the rule exists to catch), one noqa'd case, and one clean
case, with the violation and its cause split across modules so the
rules' cross-module reach is what is actually under test.  The
``rep009`` and ``rep010`` projects were written for the retired codes
REP009 and REP010 and now exercise REP001 and REP002, which absorbed
them; their tests still select by the old codes.
"""

from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.runner import run_analysis

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def report_for(name: str, code: str, **options):
    root = FIXTURES / name
    return run_analysis(root, overrides={"select": [code], **options})


class TestConcurrencyDiscipline:
    def test_cross_module_unguarded_mutation_is_caught(self):
        report = report_for("rep008", "REP008")
        mutations = [f for f in report.findings if "SharedCounter.total" in f.message]
        assert len(mutations) == 1
        finding = mutations[0]
        assert finding.path == "src/pkg/state.py"
        # The evidence points back at the thread spawn in the other module.
        assert finding.related
        assert finding.related[0].path == "src/pkg/worker.py"

    def test_lock_guard_and_noqa_and_clean(self):
        report = report_for(
            "rep008",
            "REP008",
            **{"concurrency-discipline": {"lock-order-modules": ["src/pkg/order.py"]}},
        )
        messages = " ".join(f.message for f in report.findings)
        assert "safe_total" not in messages  # held lock: clean
        assert "quiet_total" not in messages  # suppressed inline
        assert report.suppressed >= 1

    def test_lock_order_inversion_is_caught(self):
        report = report_for(
            "rep008",
            "REP008",
            **{"concurrency-discipline": {"lock-order-modules": ["src/pkg/order.py"]}},
        )
        inversions = [f for f in report.findings if "inversion" in f.message]
        assert len(inversions) == 1
        assert inversions[0].path == "src/pkg/order.py"
        assert inversions[0].related, "the opposing acquisition site must be attached"

    def test_inversion_outside_configured_modules_is_ignored(self):
        report = report_for(
            "rep008",
            "REP008",
            **{"concurrency-discipline": {"lock-order-modules": ["src/pkg/elsewhere.py"]}},
        )
        assert not [f for f in report.findings if "inversion" in f.message]


class TestMetricDrift:
    def test_ghost_reference_noqa_and_clean(self):
        report = report_for(
            "rep009",
            "REP009",
            **{"metric-catalog": {"catalog": "src/pkg/catalog.py"}},
        )
        assert len(report.findings) == 1
        assert "repro_ghost_total" in report.findings[0].message
        assert report.findings[0].path == "src/pkg/dashboard.py"
        assert report.suppressed == 1  # the noqa'd unlisted name

    def test_allow_list_clears_the_finding(self):
        report = report_for(
            "rep009",
            "REP009",
            **{
                "metric-catalog": {
                    "catalog": "src/pkg/catalog.py",
                    "allow": ["repro_ghost_total"],
                }
            },
        )
        assert report.findings == []


class TestCheckpointCompleteness:
    def test_drifted_subclass_is_caught_across_modules(self):
        report = report_for("rep010", "REP010")
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert "Drifted.offset" in finding.message
        assert finding.path == "src/pkg/child.py"
        # Evidence: the inherited state_dict lives in the base module.
        assert finding.related
        assert finding.related[0].path == "src/pkg/base.py"

    def test_exempt_override_and_noqa_are_clean(self):
        report = report_for("rep010", "REP010")
        messages = " ".join(f.message for f in report.findings)
        assert "cache" not in messages  # _checkpoint_exempt honoured via MRO
        assert "scale" not in messages  # overriding state_dict covers it
        assert "scratch" not in messages  # suppressed inline
        assert report.suppressed == 1


class TestRetiredCodes:
    """REP009 and REP010 live on inside REP001 and REP002.

    The fixtures' ``noqa[REP009]`` / ``noqa[REP010]`` comments still
    suppress (see the two classes above); selection by the retired code
    or name reaches the merged rule too.
    """

    @pytest.mark.parametrize("key", ["REP010", "checkpoint-completeness"])
    def test_select_by_retired_key_runs_the_merged_rule(self, key, capsys):
        assert main([str(FIXTURES / "rep010" / "src"), "--select", key]) == 1
        out = capsys.readouterr().out
        assert "REP002 Drifted.offset" in out
        assert "1 finding" in out

    def test_ignore_by_retired_name_skips_the_merged_rule(self):
        report = run_analysis(
            FIXTURES / "rep009",
            overrides={"select": ["REP001", "REP004"], "ignore": ["metric-drift"]},
        )
        assert report.rules_run == ("REP004",)


class TestAsyncSafety:
    def _report(self):
        return report_for("rep011", "REP011", **{"async-safety": {"paths": ["src"]}})

    def test_blocking_sleep_is_caught(self):
        report = self._report()
        ticks = [f for f in report.findings if "time.sleep" in f.message and f.line]
        assert any("tick" in f.message for f in ticks)

    def test_blocking_through_sync_helper_is_caught_with_evidence(self):
        report = self._report()
        relays = [f for f in report.findings if "warm_up" in f.message]
        assert len(relays) == 1
        assert relays[0].related
        assert relays[0].related[0].note.startswith("blocking time.sleep")

    def test_waiting_pool_shutdown_is_caught(self):
        report = self._report()
        assert any("shutdown" in f.message for f in report.findings)

    def test_noqa_and_clean_coroutine(self):
        report = self._report()
        assert report.suppressed == 1
        lines = {f.line for f in report.findings}
        # clean(): asyncio.sleep and run_in_executor produce nothing.
        clean_src = (FIXTURES / "rep011/src/pkg/daemon.py").read_text().splitlines()
        clean_start = next(
            i for i, line in enumerate(clean_src, start=1) if "async def clean" in line
        )
        assert all(line < clean_start for line in lines)
