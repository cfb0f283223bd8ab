"""REP006: per-entry basis evaluation outside the repro.fastpath seam.

The rule no longer checks per-tuple ``process()`` / ``on_op`` bodies for
allocations: relations hand every operation to observers as a batch.
``TestExemptions`` keeps the cases that clause exempted, which the rule must
still leave alone.
"""

from .conftest import findings_for

# REP006 active on every test file: per-tuple bodies are not among its checks
OPTIONS = {"hot-path": {"kernel-paths": ["src"]}}
SEAM_OPTIONS = {
    "hot-path": {
        "kernel-paths": ["src/pkg"],
        "kernel-seam": ["src/pkg/fastpath"],
    }
}


class TestExemptions:
    def test_raise_subtree_is_exempt(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    class Obs:
                        def on_op(self, relation, op):
                            if op.weight < 0:
                                raise ValueError(f"negative weight on {relation}")
                ''',
            }
        )
        assert findings_for(root, "REP006", **OPTIONS) == []

    def test_nested_def_is_exempt(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    class Obs:
                        def on_op(self, relation, op):
                            def debug():
                                return list(self.values)
                            self.debug = debug
                ''',
            }
        )
        assert findings_for(root, "REP006", **OPTIONS) == []

    def test_cold_functions_are_exempt(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    class Obs:
                        def state_dict(self):
                            return {"values": list(self.values)}
                ''',
            }
        )
        assert findings_for(root, "REP006", **OPTIONS) == []

    def test_out_of_path_files_are_exempt(self, project):
        root = project(
            {
                "src/other/a.py": '''
                    def process(ops):
                        return [op.weight for op in ops]
                ''',
            }
        )
        assert findings_for(root, "REP006", **OPTIONS) == []

    def test_inline_noqa_suppresses(self, project):
        root = project(
            {
                "src/pkg/a.py": '''
                    class Obs:
                        def on_op(self, relation, op):
                            snapshot = list(self.values)  # repro: noqa[REP006]
                            return snapshot
                ''',
            }
        )
        assert findings_for(root, "REP006", **OPTIONS) == []


class TestFastpathSeam:
    def test_basis_matrix_call_in_kernel_path_is_flagged(self, project):
        root = project(
            {
                "src/pkg/synopsis.py": '''
                    from .basis import basis_matrix

                    def contributions(order, positions):
                        return basis_matrix(order, positions)
                ''',
            }
        )
        findings = findings_for(root, "REP006", **SEAM_OPTIONS)
        assert len(findings) == 1
        assert "basis_matrix(...) bypasses the repro.fastpath seam" in findings[0].message
        assert "phi_block" in findings[0].message

    def test_direct_np_cos_in_kernel_path_is_flagged(self, project):
        root = project(
            {
                "src/pkg/synopsis.py": '''
                    import numpy as np

                    def contributions(order, positions):
                        return np.cos(np.pi * positions)
                ''',
            }
        )
        findings = findings_for(root, "REP006", **SEAM_OPTIONS)
        assert len(findings) == 1
        assert "np.cos(...)" in findings[0].message

    def test_seam_package_itself_is_exempt(self, project):
        root = project(
            {
                "src/pkg/fastpath/recurrence.py": '''
                    import numpy as np

                    def phi_block_numpy(order, positions, out):
                        np.cos(out, out=out)
                        return out
                ''',
            }
        )
        assert findings_for(root, "REP006", **SEAM_OPTIONS) == []

    def test_files_outside_kernel_paths_are_exempt(self, project):
        root = project(
            {
                "src/other/basis.py": '''
                    import numpy as np

                    def basis_matrix(order, positions):
                        return np.cos(order * positions)
                ''',
            }
        )
        assert findings_for(root, "REP006", **SEAM_OPTIONS) == []

    def test_noqa_suppresses_seam_finding(self, project):
        root = project(
            {
                "src/pkg/synopsis.py": '''
                    import numpy as np

                    def contributions(order, positions):
                        return np.cos(positions)  # repro: noqa[REP006]
                ''',
            }
        )
        assert findings_for(root, "REP006", **SEAM_OPTIONS) == []

    def test_phi_block_call_is_not_flagged(self, project):
        root = project(
            {
                "src/pkg/synopsis.py": '''
                    from .fastpath import phi_block

                    def contributions(order, positions):
                        return phi_block(order, positions)
                ''',
            }
        )
        assert findings_for(root, "REP006", **SEAM_OPTIONS) == []
