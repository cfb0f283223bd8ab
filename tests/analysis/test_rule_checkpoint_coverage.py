"""REP002: checkpoint state coverage and the versioned manifest."""

import pytest

from repro.analysis.config import load_config
from repro.analysis.core import SourceTree
from repro.analysis.generate import GenerationError, update_state_manifest

from .conftest import findings_for

OPTIONS = {
    "checkpoint-coverage": {
        "manifest": "src/pkg/state_manifest.py",
        "format-source": "src/pkg/checkpoint.py",
    }
}

CHECKPOINT = "FORMAT_VERSION = 1\n"

COVERED = '''
class Synopsis:
    def __init__(self, spec):
        self.spec = spec
        self.sums = [0.0]

    def state_dict(self):
        return {"spec": self.spec, "sums": self.sums}

    def load_state(self, state):
        self.sums = state["sums"]
'''

# COVERED with ``sums`` dropped from the state shape entirely.
SLIM = '''
class Synopsis:
    def __init__(self, spec):
        self.spec = spec

    def state_dict(self):
        return {"spec": self.spec}

    def load_state(self, state):
        self.spec = state["spec"]
'''


def regenerate(root):
    config = load_config(
        root,
        {
            "checkpoint-coverage": {
                "manifest": "src/pkg/state_manifest.py",
                "format-source": "src/pkg/checkpoint.py",
            }
        },
    )
    return update_state_manifest(root, SourceTree.load(root, [root / "src"]), config)


class TestCoverage:
    def test_fully_serialized_class_is_clean(self, project):
        root = project({"src/pkg/checkpoint.py": CHECKPOINT, "src/pkg/a.py": COVERED})
        regenerate(root)
        assert findings_for(root, "REP002", **OPTIONS) == []

    def test_unserialized_attribute_is_flagged_at_its_assignment(self, project):
        root = project(
            {
                "src/pkg/checkpoint.py": CHECKPOINT,
                "src/pkg/a.py": '''
                    class Synopsis:
                        def __init__(self, spec):
                            self.spec = spec
                            self.sums = [0.0]

                        def state_dict(self):
                            return {"sums": self.sums}

                        def load_state(self, state):
                            self.sums = state["sums"]
                ''',
            }
        )
        regenerate(root)
        findings = findings_for(root, "REP002", **OPTIONS)
        assert len(findings) == 1
        assert "Synopsis.spec" in findings[0].message
        offending = (root / "src/pkg/a.py").read_text().splitlines()[findings[0].line - 1]
        assert offending.strip() == "self.spec = spec"

    def test_exempt_attribute_is_accepted(self, project):
        root = project(
            {
                "src/pkg/checkpoint.py": CHECKPOINT,
                "src/pkg/a.py": '''
                    class Synopsis:
                        _checkpoint_exempt = ("spec",)

                        def __init__(self, spec):
                            self.spec = spec
                            self.sums = [0.0]

                        def state_dict(self):
                            return {"sums": self.sums}

                        def load_state(self, state):
                            self.sums = state["sums"]
                ''',
            }
        )
        regenerate(root)
        assert findings_for(root, "REP002", **OPTIONS) == []

    def test_stale_exemption_is_flagged(self, project):
        root = project(
            {
                "src/pkg/checkpoint.py": CHECKPOINT,
                "src/pkg/a.py": '''
                    class Synopsis:
                        _checkpoint_exempt = ("ghost",)

                        def __init__(self, spec):
                            self.spec = spec

                        def state_dict(self):
                            return {"spec": self.spec}

                        def load_state(self, state):
                            self.spec = state["spec"]
                ''',
            }
        )
        regenerate(root)
        findings = findings_for(root, "REP002", **OPTIONS)
        assert len(findings) == 1
        assert "ghost" in findings[0].message and "never assigned" in findings[0].message

    def test_stale_exemption_on_an_inheriting_class_is_flagged(self, project):
        root = project(
            {
                "src/pkg/checkpoint.py": CHECKPOINT,
                "src/pkg/a.py": COVERED,
                "src/pkg/b.py": '''
                    from .a import Synopsis

                    class Child(Synopsis):
                        _checkpoint_exempt = ("ghost",)
                ''',
            }
        )
        regenerate(root)
        findings = findings_for(root, "REP002", **OPTIONS)
        assert len(findings) == 1
        assert findings[0].path == "src/pkg/b.py"
        assert "Child.ghost" in findings[0].message
        assert "never assigned" in findings[0].message

    def test_exempt_but_serialized_is_flagged(self, project):
        root = project(
            {
                "src/pkg/checkpoint.py": CHECKPOINT,
                "src/pkg/a.py": '''
                    class Synopsis:
                        _checkpoint_exempt = ("spec",)

                        def __init__(self, spec):
                            self.spec = spec

                        def state_dict(self):
                            return {"spec": self.spec}

                        def load_state(self, state):
                            self.spec = state["spec"]
                ''',
            }
        )
        regenerate(root)
        findings = findings_for(root, "REP002", **OPTIONS)
        assert len(findings) == 1
        assert "drop the stale exemption" in findings[0].message

    def test_non_protocol_classes_are_out_of_scope(self, project):
        root = project(
            {
                "src/pkg/checkpoint.py": CHECKPOINT,
                "src/pkg/a.py": '''
                    class Plain:
                        def __init__(self):
                            self.anything = 1
                ''',
            }
        )
        assert findings_for(root, "REP002", **OPTIONS) == []


class TestManifest:
    def test_missing_manifest_is_flagged(self, project):
        root = project({"src/pkg/checkpoint.py": CHECKPOINT, "src/pkg/a.py": COVERED})
        findings = findings_for(root, "REP002", **OPTIONS)
        assert len(findings) == 1
        assert "no state manifest" in findings[0].message

    def test_state_shape_drift_is_flagged(self, project):
        root = project({"src/pkg/checkpoint.py": CHECKPOINT, "src/pkg/a.py": COVERED})
        regenerate(root)
        (root / "src/pkg/a.py").write_text(
            COVERED.replace(
                'return {"spec": self.spec, "sums": self.sums}',
                'return {"spec": self.spec, "sums": self.sums, "extra": self.extra}',
            )
        )
        findings = findings_for(root, "REP002", **OPTIONS)
        assert any("state shape changed" in f.message for f in findings)

    def test_version_mismatch_is_flagged(self, project):
        root = project({"src/pkg/checkpoint.py": CHECKPOINT, "src/pkg/a.py": COVERED})
        regenerate(root)
        (root / "src/pkg/checkpoint.py").write_text("FORMAT_VERSION = 2\n")
        findings = findings_for(root, "REP002", **OPTIONS)
        assert len(findings) == 1
        assert "FORMAT_VERSION" in findings[0].message

    def test_stale_manifest_entry_is_flagged(self, project):
        root = project({"src/pkg/checkpoint.py": CHECKPOINT, "src/pkg/a.py": COVERED})
        regenerate(root)
        (root / "src/pkg/a.py").write_text("x = 1\n")
        findings = findings_for(root, "REP002", **OPTIONS)
        assert len(findings) == 1
        assert "matches no checkpoint-protocol class" in findings[0].message


class TestGeneratorVersionGate:
    def test_shape_change_without_bump_is_refused(self, project):
        root = project({"src/pkg/checkpoint.py": CHECKPOINT, "src/pkg/a.py": COVERED})
        regenerate(root)
        (root / "src/pkg/a.py").write_text(SLIM)
        with pytest.raises(GenerationError, match="bump it"):
            regenerate(root)

    def test_shape_change_with_bump_regenerates(self, project):
        root = project({"src/pkg/checkpoint.py": CHECKPOINT, "src/pkg/a.py": COVERED})
        regenerate(root)
        (root / "src/pkg/a.py").write_text(SLIM)
        (root / "src/pkg/checkpoint.py").write_text("FORMAT_VERSION = 2\n")
        path = regenerate(root)
        assert "FORMAT_VERSION = 2" in path.read_text()
        assert findings_for(root, "REP002", **OPTIONS) == []

    def test_new_class_regenerates_without_bump(self, project):
        root = project({"src/pkg/checkpoint.py": CHECKPOINT, "src/pkg/a.py": COVERED})
        regenerate(root)
        (root / "src/pkg/b.py").write_text(COVERED.replace("Synopsis", "Other"))
        path = regenerate(root)  # no GenerationError
        assert "Other" in path.read_text()
