"""Tests for the reprolint static-analysis suite (tools/reprolint).

Per-rule positive/negative fixtures, pragma + baseline-ratchet behaviour,
and a self-check pinning ``src/repro`` to the committed baseline so the
tier-1 suite catches invariant regressions even without the CI job.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

from reprolint import ALL_RULES, FileContext, run_paths  # noqa: E402
from reprolint.baseline import (  # noqa: E402
    BaselineError,
    compare_to_baseline,
    load_baseline,
    update_baseline,
)
from reprolint.cli import main as reprolint_main  # noqa: E402
from reprolint.rules import (  # noqa: E402
    AtomicWriteRule,
    BroadExceptRule,
    NoPrintRule,
    PoolSafetyRule,
    RngDisciplineRule,
    TypedErrorsRule,
)


def lint(source, rule, path="src/repro/example.py"):
    """Run one rule over a snippet; returns non-suppressed findings."""
    ctx = FileContext(path, textwrap.dedent(source))
    findings = rule(ctx).run()
    return [f for f in findings if not ctx.suppressed(f)]


# ----------------------------------------------------------------------
# rng-discipline
# ----------------------------------------------------------------------
class TestRngDiscipline:
    def test_flags_random_module_import(self):
        assert lint("import random\n", RngDisciplineRule)
        assert lint("from random import shuffle\n", RngDisciplineRule)

    def test_flags_legacy_np_random_calls(self):
        findings = lint(
            """
            import numpy as np
            x = np.random.rand(3)
            np.random.seed(0)
            """,
            RngDisciplineRule,
        )
        assert len(findings) == 2

    def test_flags_unseeded_default_rng(self):
        assert lint("import numpy as np\nrng = np.random.default_rng()\n", RngDisciplineRule)

    def test_allows_seeded_default_rng(self):
        assert not lint("import numpy as np\nrng = np.random.default_rng(7)\n", RngDisciplineRule)

    def test_allows_the_entry_point_idiom(self):
        source = """
        import numpy as np

        def run(rng=None):
            rng = rng or np.random.default_rng()
            return rng
        """
        assert not lint(source, RngDisciplineRule)

    def test_flags_wall_clock_and_entropy(self):
        findings = lint(
            """
            import time, uuid
            stamp = time.time()
            job = uuid.uuid4()
            """,
            RngDisciplineRule,
        )
        assert {f.line for f in findings} == {3, 4}

    def test_allows_monotonic_clocks(self):
        assert not lint("import time\nt = time.perf_counter()\n", RngDisciplineRule)


# ----------------------------------------------------------------------
# typed-errors
# ----------------------------------------------------------------------
class TestTypedErrors:
    API = "src/repro/api/device.py"

    def test_flags_builtin_raise_in_api(self):
        assert lint("raise ValueError('bad')\n", TypedErrorsRule, path=self.API)
        assert lint("raise RuntimeError\n", TypedErrorsRule, path=self.API)

    def test_allows_typed_raise_in_api(self):
        source = "from repro.errors import InvalidRequestError\nraise InvalidRequestError('bad')\n"
        assert not lint(source, TypedErrorsRule, path=self.API)

    def test_allows_re_raise(self):
        source = """
        try:
            work()
        except Exception:
            raise
        """
        assert not lint(source, TypedErrorsRule, path=self.API)

    def test_out_of_scope_module_is_exempt(self):
        assert not lint("raise ValueError('x')\n", TypedErrorsRule, path="src/repro/cnf/formula.py")


# ----------------------------------------------------------------------
# broad-except
# ----------------------------------------------------------------------
class TestBroadExcept:
    def test_flags_bare_except(self):
        source = "try:\n    x()\nexcept:\n    pass\n"
        assert lint(source, BroadExceptRule)

    def test_flags_swallowing_broad_except(self):
        source = "try:\n    x()\nexcept Exception:\n    pass\n"
        assert lint(source, BroadExceptRule)

    def test_allows_broad_except_that_reraises(self):
        source = """
        try:
            x()
        except Exception:
            cleanup()
            raise
        """
        assert not lint(source, BroadExceptRule)

    def test_allows_broad_except_converted_to_failure_record(self):
        source = """
        try:
            x()
        except Exception as error:
            failures.append(ItemFailure((0,), error, 1))
        """
        assert not lint(source, BroadExceptRule)

    def test_allows_narrow_except(self):
        source = "try:\n    x()\nexcept (OSError, ValueError):\n    pass\n"
        assert not lint(source, BroadExceptRule)


# ----------------------------------------------------------------------
# pool-safety
# ----------------------------------------------------------------------
class TestPoolSafety:
    def test_flags_lambda_submitted_to_executor(self):
        source = "future = pool.submit(lambda: 1)\n"
        assert lint(source, PoolSafetyRule)

    def test_flags_nested_function_in_task_tuple(self):
        source = """
        def build():
            def worker(payload):
                return payload
            return [(worker, {"n": 1})]
        """
        assert lint(source, PoolSafetyRule)

    def test_allows_module_level_worker(self):
        source = """
        def worker(payload):
            return payload

        def build():
            return [(worker, {"n": 1})]
        """
        assert not lint(source, PoolSafetyRule)

    def test_flags_global_mutation_in_worker(self):
        source = """
        CACHE = {}

        def worker(payload):
            CACHE[payload["k"]] = payload
            return payload

        TASKS = [(worker, {"k": 1})]
        """
        assert lint(source, PoolSafetyRule)

    def test_flags_live_backend_in_payload(self):
        source = """
        def worker(payload):
            return payload

        def build(self):
            sim = create_backend("state_vector")
            return [(worker, {"sim": sim})]
        """
        assert lint(source, PoolSafetyRule)

    def test_method_names_do_not_shadow_closures(self):
        # Regression: Tableau has properties named x/z; local tuples like
        # `x, z = ...` must not look like task tuples of nested functions.
        source = """
        class Tableau:
            @property
            def x(self):
                return self._x

            def h(self, a):
                x, z = self.x[:, a], self._z[:, a]
                return x ^ z
        """
        assert not lint(source, PoolSafetyRule)


# ----------------------------------------------------------------------
# atomic-write
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_flags_raw_write_mode_open(self):
        assert lint("open('out.json', 'w').write('x')\n", AtomicWriteRule)
        assert lint("handle = open(path, mode='wb')\n", AtomicWriteRule)

    def test_allows_reads(self):
        assert not lint("data = open('in.json').read()\n", AtomicWriteRule)
        assert not lint("data = open('in.json', 'rb').read()\n", AtomicWriteRule)

    def test_flags_os_write_and_path_write_text(self):
        assert lint("os.write(fd, b'x')\n", AtomicWriteRule)
        assert lint("path.write_text('x')\n", AtomicWriteRule)

    def test_audited_helpers_are_exempt(self):
        source = """
        def atomic_write_bytes(path, data):
            handle = open(path + '.tmp', 'wb')
        """
        assert not lint(source, AtomicWriteRule, path="src/repro/atomicio.py")
        wal = """
        class JobJournal:
            def checkpoint_row(self, index, row):
                os.write(self._wal_fd, b'x')
        """
        assert not lint(wal, AtomicWriteRule, path="src/repro/api/journal.py")

    def test_compile_cache_has_no_audited_writer(self):
        source = """
        class CompiledCircuitCache:
            def store_payload(self, key, payload):
                open(key + '.pkl', 'wb')
        """
        assert lint(source, AtomicWriteRule, path="src/repro/knowledge/cache.py")

    def test_unaudited_code_in_audited_file_is_still_flagged(self):
        source = """
        class JobJournal:
            def rogue(self):
                open('manifest.pkl', 'wb')
        """
        assert lint(source, AtomicWriteRule, path="src/repro/api/journal.py")


# ----------------------------------------------------------------------
# no-print
# ----------------------------------------------------------------------
class TestNoPrint:
    def test_flags_print(self):
        assert lint("print('hi')\n", NoPrintRule)

    def test_ignores_attribute_named_print(self):
        assert not lint("logger.print('hi')\n", NoPrintRule)


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    def test_line_pragma_suppresses_only_its_line(self):
        source = (
            "print('a')  # reprolint: disable=no-print -- CLI banner\n"
            "print('b')\n"
        )
        findings = lint(source, NoPrintRule)
        assert [f.line for f in findings] == [2]

    def test_file_pragma_suppresses_whole_file(self):
        source = "# reprolint: disable-file=no-print\nprint('a')\nprint('b')\n"
        assert not lint(source, NoPrintRule)

    def test_pragma_names_specific_rule(self):
        source = "print('a')  # reprolint: disable=broad-except -- wrong rule\n"
        assert lint(source, NoPrintRule)

    def test_suppressed_findings_are_counted(self):
        ctx = FileContext(
            "src/repro/example.py",
            "print('a')  # reprolint: disable=no-print -- banner\n",
        )
        findings = NoPrintRule(ctx).run()
        assert len(findings) == 1 and ctx.suppressed(findings[0])


# ----------------------------------------------------------------------
# baseline ratchet
# ----------------------------------------------------------------------
class TestBaselineRatchet:
    def write_baseline(self, tmp_path, rules):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "rules": rules}))
        return str(path)

    def test_within_baseline_passes(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("print('a')\nprint('b')\n")
        result = run_paths([str(module)], [NoPrintRule])
        baseline = {
            "no-print": {result.findings[0].path: {"count": 2, "justification": "CLI"}}
        }
        new, _ = compare_to_baseline(
            result.findings, load_baseline(self.write_baseline(tmp_path, baseline))
        )
        assert not new

    def test_count_above_allowance_fails(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("print('a')\nprint('b')\nprint('c')\n")
        result = run_paths([str(module)], [NoPrintRule])
        baseline = {
            "no-print": {result.findings[0].path: {"count": 2, "justification": "CLI"}}
        }
        new, _ = compare_to_baseline(
            result.findings, load_baseline(self.write_baseline(tmp_path, baseline))
        )
        assert [f.line for f in new] == [3]

    def test_unbaselined_finding_fails(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("print('a')\n")
        result = run_paths([str(module)], [NoPrintRule])
        new, _ = compare_to_baseline(result.findings, {})
        assert len(new) == 1

    def test_improvement_is_reported_not_failed(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("x = 1\n")
        result = run_paths([str(module)], [NoPrintRule])
        baseline = {"no-print": {"old.py": {"count": 3, "justification": "CLI"}}}
        new, improvements = compare_to_baseline(
            result.findings, load_baseline(self.write_baseline(tmp_path, baseline))
        )
        assert not new and len(improvements) == 1

    def test_baseline_requires_justification(self, tmp_path):
        path = self.write_baseline(
            tmp_path, {"no-print": {"mod.py": {"count": 1, "justification": "  "}}}
        )
        with pytest.raises(BaselineError):
            load_baseline(path)

    def test_typed_errors_cannot_be_baselined_under_api(self, tmp_path):
        path = self.write_baseline(
            tmp_path,
            {"typed-errors": {"src/repro/api/device.py": {"count": 1, "justification": "no"}}},
        )
        with pytest.raises(BaselineError):
            load_baseline(path)

    def test_update_baseline_keeps_justifications(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("print('a')\n")
        result = run_paths([str(module)], [NoPrintRule])
        path = tmp_path / "baseline.json"
        previous = {
            "no-print": {result.findings[0].path: {"count": 5, "justification": "CLI banner"}}
        }
        rules = update_baseline(str(path), result.findings, previous)
        entry = rules["no-print"][result.findings[0].path]
        assert entry == {"count": 1, "justification": "CLI banner"}
        # The rewritten file round-trips through the validator.
        assert load_baseline(str(path))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("print('x')\n")
        assert reprolint_main([str(clean)]) == 0
        assert reprolint_main([str(dirty)]) == 1
        capsys.readouterr()

    def test_bad_baseline_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        bad = tmp_path / "baseline.json"
        bad.write_text("{}")
        assert reprolint_main([str(target), "--baseline", str(bad)]) == 2
        capsys.readouterr()

    def test_report_artifact(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("print('x')\n")
        report = tmp_path / "report.json"
        reprolint_main([str(dirty), "--report", str(report)])
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["findings"] and payload["new_findings"]
        assert {rule["id"] for rule in payload["rules"]} == {
            rule.rule_id for rule in ALL_RULES
        }

    def test_module_entry_point_from_repo_root(self):
        proc = subprocess.run(
            [sys.executable, "-m", "reprolint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        for rule in ALL_RULES:
            assert rule.rule_id in proc.stdout

    def test_module_entry_point_with_tools_on_pythonpath(self):
        # Regression: PYTHONPATH entries are absolutized at startup, which
        # used to defeat the root shim's "insert tools/ first" guard and
        # recurse the shim into itself.  This is the CI invocation form.
        env = dict(os.environ, PYTHONPATH="tools" + os.pathsep + "src")
        proc = subprocess.run(
            [sys.executable, "-m", "reprolint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# the tree itself
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_src_repro_is_clean_modulo_baseline(self):
        """The committed tree must pass its own linter (the CI ratchet)."""
        result = run_paths([os.path.join(REPO_ROOT, "src", "repro")], ALL_RULES)
        assert not result.errors, result.errors
        baseline_path = os.path.join(REPO_ROOT, "tools", "reprolint_baseline.json")
        baseline = load_baseline(baseline_path)
        # run_paths saw absolute paths; the committed baseline is repo-relative.
        normalized = [
            f.__class__(
                os.path.relpath(f.path, REPO_ROOT).replace(os.sep, "/"),
                f.line,
                f.rule,
                f.message,
            )
            for f in result.findings
        ]
        new, _ = compare_to_baseline(normalized, baseline)
        assert not new, "\n".join(f.render() for f in new)

    def test_every_rule_earns_its_place(self):
        """Each rule has >= 1 justified baseline entry or proved fixable.

        The baseline documents the rules that still carry grandfathered
        findings; the remaining rules must flag nothing on the tree (their
        real findings were fixed in this PR) while their fixtures above
        prove they do fire.
        """
        baseline = load_baseline(
            os.path.join(REPO_ROOT, "tools", "reprolint_baseline.json")
        )
        assert len(ALL_RULES) >= 6
        for rule_id in baseline:
            assert rule_id in {rule.rule_id for rule in ALL_RULES}

    def test_api_package_has_zero_typed_error_findings(self):
        api = os.path.join(REPO_ROOT, "src", "repro", "api")
        result = run_paths([api], [TypedErrorsRule])
        offenders = [f for f in result.findings]
        assert not offenders, "\n".join(f.render() for f in offenders)


# ----------------------------------------------------------------------
# typing ladder (runs only where mypy is installed, e.g. the CI job)
# ----------------------------------------------------------------------
class TestTypingLadder:
    STRICT_MODULES = [
        "src/repro/errors.py",
        "src/repro/api/capabilities.py",
        "src/repro/api/faults.py",
        "src/repro/api/registry.py",
    ]

    def test_mypy_config_names_the_contract_core(self):
        with open(os.path.join(REPO_ROOT, "mypy.ini")) as handle:
            config = handle.read()
        for module in ("repro.errors", "repro.api.capabilities", "repro.api.faults", "repro.api.registry"):
            assert module in config

    def test_strict_core_passes_mypy(self):
        pytest.importorskip("mypy")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"]
            + self.STRICT_MODULES,
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
