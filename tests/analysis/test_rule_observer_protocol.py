"""REP005: observer read-path purity."""

from .conftest import findings_for


class TestBatchProtocol:
    def test_on_ops_only_observer_is_fine(self, project):
        # Relations deliver every operation through on_ops, a single
        # tuple included, so an observer needs no on_op.
        root = project(
            {
                "src/pkg/a.py": '''
                    from repro.streams import StreamObserver

                    class BatchOnly(StreamObserver):
                        def on_ops(self, relation, rows, kind):
                            pass
                ''',
            }
        )
        assert findings_for(root, "REP005") == []

    def test_both_hooks_defined_is_fine(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    from repro.streams import StreamObserver

                    class Both(StreamObserver):
                        def on_op(self, relation, op):
                            pass

                        def on_ops(self, relation, rows, kind):
                            pass
                ''',
            }
        )
        assert findings_for(root, "REP005") == []

    def test_on_op_only_is_fine(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    from repro.streams import StreamObserver

                    class PerOp(StreamObserver):
                        def on_op(self, relation, op):
                            pass
                ''',
            }
        )
        assert findings_for(root, "REP005") == []

    def test_inherited_on_op_is_fine(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    from repro.streams import StreamObserver

                    class PerOp(StreamObserver):
                        def on_op(self, relation, op):
                            pass

                    class Batched(PerOp):
                        def on_ops(self, relation, rows, kind):
                            pass
                ''',
            }
        )
        assert findings_for(root, "REP005") == []

    def test_unrelated_classes_are_out_of_scope(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    class NotAnObserver:
                        def on_ops(self, rows):
                            pass

                        def answer(self):
                            self.cache = 1
                            return self.cache
                ''',
            }
        )
        assert findings_for(root, "REP005") == []


class TestReadOnlyMethods:
    def test_attribute_store_in_answer_is_flagged(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    class Cached(StreamObserver):
                        def on_op(self, relation, op):
                            pass

                        def answer(self):
                            self.cache = 42
                            return self.cache
                ''',
            }
        )
        findings = findings_for(root, "REP005")
        assert len(findings) == 1
        assert "mutates self" in findings[0].message

    def test_augmented_store_in_estimate_is_flagged(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    class Counting(StreamObserver):
                        def on_op(self, relation, op):
                            pass

                        def estimate(self):
                            self.calls += 1
                            return 0.0
                ''',
            }
        )
        assert len(findings_for(root, "REP005")) == 1

    def test_subscript_store_in_state_dict_is_flagged(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    class Slicing(StreamObserver):
                        def on_op(self, relation, op):
                            pass

                        def state_dict(self):
                            self.buckets[0] = 0
                            return {"buckets": self.buckets}
                ''',
            }
        )
        assert len(findings_for(root, "REP005")) == 1

    def test_store_in_an_indirect_subclass_answer_is_flagged(self, project):
        root = project(
            {
                "src/pkg/middle.py": '''
                    from repro.streams import StreamObserver

                    class Middle(StreamObserver):
                        def on_op(self, relation, op):
                            pass
                ''',
                "src/pkg/leaf.py": '''
                    from .middle import Middle

                    class Leaf(Middle):
                        def answer(self):
                            self.cache = 42
                            return self.cache
                ''',
            }
        )
        findings = findings_for(root, "REP005")
        assert len(findings) == 1
        assert findings[0].path == "src/pkg/leaf.py"
        assert "Leaf.answer() mutates self" in findings[0].message

    def test_pure_reads_and_locals_are_fine(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    class Pure(StreamObserver):
                        def on_op(self, relation, op):
                            self.total += op.weight

                        def answer(self):
                            total = self.total
                            scaled = total * 2
                            return scaled
                ''',
            }
        )
        assert findings_for(root, "REP005") == []
