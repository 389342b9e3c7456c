"""The frontier checkpoint format: round-trips, versioning, resume.

The contract (docs/service.md): a suspended search serialized to JSON
and resumed — in another process, on either execution engine — must
finish with a report identical to the uninterrupted run.
"""

import json

import pytest

from repro import SearchOptions, run_search
from repro.service import (
    FRONTIER_FORMAT,
    FRONTIER_VERSION,
    FrontierFormatError,
    SearchCheckpoint,
    load_frontier,
    prefix_from_json,
    prefix_to_json,
    report_from_json,
    report_to_json,
    save_frontier,
    work_stealing_search,
)
from repro.service.frontier import canonical_fingerprint

from .conftest import assert_report_parity, fig3_system, racing_system


def _suspended_checkpoint(system, paths_before_stop=2, **options):
    """Run the steal scheduler until a few paths complete, then suspend."""
    calls = [0]

    def stop_soon():
        calls[0] += 1
        return calls[0] >= paths_before_stop

    report = work_stealing_search(
        system,
        SearchOptions(strategy="parallel", jobs=1, **options),
        should_suspend=stop_soon,
    )
    assert report.incomplete
    assert report.checkpoint is not None
    return report.checkpoint


class TestPrefixCodec:
    def test_round_trip_preserves_every_point(self):
        checkpoint = _suspended_checkpoint(fig3_system(), max_depth=40)
        pending = [p for p in checkpoint.pending if p is not None]
        assert pending, "suspension should leave residual prefixes"
        for prefix in pending:
            assert prefix_from_json(prefix_to_json(prefix)) == prefix

    def test_schedule_points_round_trip_por_context(self):
        # The racing system has genuine schedule points whose sleep
        # sets and sibling signatures must survive serialization.
        checkpoint = _suspended_checkpoint(racing_system(), max_depth=30)
        pending = [p for p in checkpoint.pending if p is not None]
        assert any(
            point.kind == "schedule" for p in pending for point in p.points
        )
        for prefix in pending:
            again = prefix_from_json(json.loads(json.dumps(prefix_to_json(prefix))))
            assert again == prefix

    def test_json_document_is_plain_data(self):
        checkpoint = _suspended_checkpoint(fig3_system(), max_depth=40)
        doc = checkpoint.to_json()
        # Must survive an actual JSON round trip, not just repr equality.
        assert json.loads(json.dumps(doc)) == doc


class TestReportCodec:
    def test_round_trip_counters_events_stats(self):
        report = run_search(
            fig3_system(), SearchOptions(strategy="dfs", max_depth=40)
        )
        again = report_from_json(report_to_json(report))
        assert again.states_visited == report.states_visited
        assert again.transitions_executed == report.transitions_executed
        assert again.paths_explored == report.paths_explored
        assert [e.trace.choices for e in again.all_events()] == [
            e.trace.choices for e in report.all_events()
        ]
        assert again.stats.as_dict() == report.stats.as_dict()

    def test_stats_with_removed_prefixes_field_load(self):
        # Lease blocks checkpointed before the static partition was
        # removed carry a "prefixes" stats counter.
        report = run_search(
            fig3_system(), SearchOptions(strategy="dfs", max_depth=40)
        )
        doc = report_to_json(report)
        doc["stats"]["prefixes"] = 3
        again = report_from_json(doc)
        assert again.stats.as_dict() == report.stats.as_dict()


class TestCheckpointDocument:
    def test_version_policy_unknown_version_rejected(self):
        checkpoint = _suspended_checkpoint(fig3_system(), max_depth=40)
        doc = checkpoint.to_json()
        assert doc["format"] == FRONTIER_FORMAT
        assert doc["version"] == FRONTIER_VERSION
        doc["version"] = FRONTIER_VERSION + 1
        with pytest.raises(FrontierFormatError):
            SearchCheckpoint.from_json(doc)

    def test_unknown_format_rejected(self):
        checkpoint = _suspended_checkpoint(fig3_system(), max_depth=40)
        doc = checkpoint.to_json()
        doc["format"] = "something-else"
        with pytest.raises(FrontierFormatError):
            SearchCheckpoint.from_json(doc)

    def test_unknown_keys_ignored(self):
        # Forward compatibility: same-version documents may grow keys.
        checkpoint = _suspended_checkpoint(fig3_system(), max_depth=40)
        doc = checkpoint.to_json()
        doc["experimental_extra"] = {"x": 1}
        SearchCheckpoint.from_json(doc)

    def test_check_system_rejects_mismatched_fingerprint(self):
        checkpoint = _suspended_checkpoint(fig3_system(), max_depth=40)
        with pytest.raises(FrontierFormatError):
            checkpoint.check_system(racing_system())

    def test_save_load_round_trip(self, tmp_path):
        checkpoint = _suspended_checkpoint(fig3_system(), max_depth=40)
        path = tmp_path / "frontier.json"
        save_frontier(path, checkpoint)
        assert not (tmp_path / "frontier.json.tmp").exists()
        again = load_frontier(path)
        assert again.fingerprint == checkpoint.fingerprint
        assert again.pending == checkpoint.pending
        assert sorted(again.fingerprints) == sorted(checkpoint.fingerprints)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "frontier.json"
        path.write_text("not json {")
        with pytest.raises(FrontierFormatError):
            load_frontier(path)


class TestCanonicalFingerprint:
    def test_injective_on_distinct_states(self):
        values = [(1, (2, 3)), (1, (2, 4)), ("1", (2, 3)), (1, 2, 3)]
        assert len({canonical_fingerprint(v) for v in values}) == len(values)


class TestResumeParity:
    """Satellite contract: checkpoint -> serialize -> resume finishes
    with a report identical to the uninterrupted run, on both engines."""

    @pytest.mark.parametrize("engine", ["walk", "compiled"])
    def test_suspend_serialize_resume_identical(self, tmp_path, engine):
        base = run_search(
            fig3_system(),
            SearchOptions(
                strategy="dfs", engine=engine, count_states=True, max_depth=40
            ),
        )
        checkpoint = _suspended_checkpoint(
            fig3_system(), count_states=True, engine=engine, max_depth=40
        )
        path = tmp_path / "frontier.json"
        save_frontier(path, checkpoint)
        resumed = work_stealing_search(
            fig3_system(),
            SearchOptions(
                strategy="parallel",
                jobs=1,
                engine=engine,
                count_states=True,
                max_depth=40,
            ),
            initial=load_frontier(path),
        )
        assert not resumed.incomplete
        assert resumed.checkpoint is None
        assert_report_parity(resumed, base)

    def test_resume_twice_through_two_checkpoints(self, tmp_path):
        # Stop, resume, stop again, resume again: the final report must
        # still match the straight-through search.
        base = run_search(
            fig3_system(),
            SearchOptions(strategy="dfs", count_states=True, max_depth=40),
        )
        options = dict(
            strategy="parallel",
            jobs=1,
            count_states=True,
            max_depth=40,
        )
        first = _suspended_checkpoint(fig3_system(), count_states=True, max_depth=40)
        save_frontier(tmp_path / "a.json", first)

        calls = [0]

        def stop_again():
            calls[0] += 1
            return calls[0] >= 2

        middle = work_stealing_search(
            fig3_system(),
            SearchOptions(**options),
            initial=load_frontier(tmp_path / "a.json"),
            should_suspend=stop_again,
        )
        if middle.checkpoint is None:
            # The remaining work fit before the second stop fired;
            # the single-checkpoint test already covers this shape.
            assert_report_parity(middle, base)
            return
        save_frontier(tmp_path / "b.json", middle.checkpoint)
        final = work_stealing_search(
            fig3_system(),
            SearchOptions(**options),
            initial=load_frontier(tmp_path / "b.json"),
        )
        assert final.checkpoint is None
        assert_report_parity(final, base)
