"""REP007: executor protocol conformance and dispatch containment."""

from .conftest import findings_for


class TestRequiredMethods:
    def test_missing_required_method_is_flagged(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    from repro.sharding.executor import ShardExecutor

                    class Half(ShardExecutor):
                        def start(self, num_shards, seed, telemetry=True):
                            pass

                        def call(self, shard, method, *args, **kwargs):
                            pass
                ''',
            }
        )
        findings = findings_for(root, "REP007")
        assert len(findings) == 1
        assert "scatter" in findings[0].message

    def test_full_implementation_is_clean(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    from repro.sharding.executor import ShardExecutor

                    class Full(ShardExecutor):
                        def start(self, num_shards, seed, telemetry=True):
                            pass

                        def call(self, shard, method, *args, **kwargs):
                            pass

                        def scatter(self, method, per_shard):
                            pass
                ''',
            }
        )
        assert findings_for(root, "REP007") == []

    def test_attribute_base_reference_is_matched(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    import repro.sharding.executor as ex

                    class Bare(ex.ShardExecutor):
                        def start(self, num_shards, seed, telemetry=True):
                            pass
                ''',
            }
        )
        findings = findings_for(root, "REP007")
        assert {("call" in f.message, "scatter" in f.message) for f in findings} == {
            (True, False),
            (False, True),
        }

    def test_unrelated_classes_are_out_of_scope(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    class NotAnExecutor:
                        def call(self, anything):
                            pass
                ''',
            }
        )
        assert findings_for(root, "REP007") == []


class TestSignatureDrift:
    def test_renamed_parameter_is_flagged(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    from repro.sharding.executor import ShardExecutor

                    class Drifted(ShardExecutor):
                        def start(self, n, seed, telemetry=True):
                            pass

                        def call(self, shard, method, *args, **kwargs):
                            pass

                        def scatter(self, method, per_shard):
                            pass
                ''',
            }
        )
        findings = findings_for(root, "REP007")
        assert len(findings) == 1
        assert "drifts from the executor protocol" in findings[0].message
        assert "start" in findings[0].message

    def test_dropped_kwargs_is_flagged(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    from repro.sharding.executor import ShardExecutor

                    class NoKwargs(ShardExecutor):
                        def start(self, num_shards, seed, telemetry=True):
                            pass

                        def call(self, shard, method, *args):
                            pass

                        def scatter(self, method, per_shard):
                            pass
                ''',
            }
        )
        findings = findings_for(root, "REP007")
        assert len(findings) == 1
        assert "call" in findings[0].message

    def test_indirect_subclass_override_is_checked(self, project):
        root = project(
            {
                "src/pkg/serial.py": '''
                    from repro.sharding.executor import ShardExecutor

                    class Serial(ShardExecutor):
                        def start(self, num_shards, seed, telemetry=True):
                            pass

                        def call(self, shard, method, *args, **kwargs):
                            pass

                        def scatter(self, method, per_shard):
                            pass
                ''',
                "src/pkg/drifting.py": '''
                    from .serial import Serial

                    class Drifting(Serial):
                        def call(self, shard, name):
                            pass
                ''',
            }
        )
        findings = findings_for(root, "REP007")
        assert len(findings) == 1
        assert findings[0].path == "src/pkg/drifting.py"
        assert "Drifting.call(shard, name) drifts" in findings[0].message

    def test_vararg_names_do_not_matter(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    from repro.sharding.executor import ShardExecutor

                    class Renamed(ShardExecutor):
                        def start(self, num_shards, seed, telemetry=True):
                            pass

                        def call(self, shard, method, *a, **kw):
                            pass

                        def scatter(self, method, per_shard):
                            pass
                ''',
            }
        )
        assert findings_for(root, "REP007") == []


class TestDispatchContainment:
    def test_bare_dispatch_outside_allowed_paths_is_flagged(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    def peek(engine):
                        return engine._executor.call(0, "stats_dict")
                ''',
            }
        )
        findings = findings_for(root, "REP007")
        assert len(findings) == 1
        assert "bare executor dispatch" in findings[0].message

    def test_dispatch_inside_allowed_paths_is_clean(self, project):
        root = project(
            {
                "src/repro/sharding/a.py": '''
                    def merge(self):
                        return self._executor.broadcast("state_dict")
                ''',
                "src/repro/fleet/b.py": '''
                    def stats(fleet):
                        return fleet._executor.call(0, "stats_dict")
                ''',
            }
        )
        assert findings_for(root, "REP007") == []

    def test_non_executor_receivers_are_ignored(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    def use(pool, fn):
                        return pool.call(fn), pool.broadcast(fn)
                ''',
            }
        )
        assert findings_for(root, "REP007") == []
