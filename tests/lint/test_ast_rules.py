"""Seeded-violation source fixtures asserting exact AST rule ids (RA9xx)."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source_tree, self_lint


def lint_source(tmp_path, source, filename="mod.py"):
    """Write a snippet under tmp_path and AST-lint the directory."""
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return lint_source_tree([tmp_path])


class TestRA901FloatEquality:
    def test_flags_cost_equality(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def check(total_cost, budget):
                return total_cost == budget
            """,
        )
        hits = [d for d in report if d.rule == "RA901"]
        assert len(hits) == 1
        assert "total_cost" in hits[0].message or "budget" in hits[0].message

    def test_flags_attribute_makespan(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def drifted(sim, result):
                return sim.makespan != result.makespan
            """,
        )
        assert [d.rule for d in report] == ["RA901"]

    def test_zero_sentinel_is_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def is_free(unit_cost):
                return unit_cost == 0.0
            """,
        )
        assert "RA901" not in report.rule_ids()

    def test_non_money_names_are_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def same(name, other):
                return name == other
            """,
        )
        assert "RA901" not in report.rule_ids()

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def check(total_cost, budget):
                return total_cost == budget  # lint: ignore[RA901]
            """,
        )
        assert "RA901" not in report.rule_ids()

    def test_flags_reduction_of_money_grid(self, tmp_path):
        # The batched 2-D grids: folding whole budget rows into the
        # compared value is still float equality on billed quantities.
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def drifted(costs, best):
                return costs.max(axis=1) == best
            """,
        )
        hits = [d for d in report if d.rule == "RA901"]
        assert len(hits) == 1
        assert "costs" in hits[0].message

    def test_flags_np_reduction_of_money_array(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            import numpy as np

            def drifted(budgets, target):
                return np.min(budgets, axis=0) != target
            """,
        )
        hits = [d for d in report if d.rule == "RA901"]
        assert len(hits) == 1
        assert "budgets" in hits[0].message

    def test_reduction_of_non_money_array_is_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def same(ready, best):
                return ready.max(axis=1) == best
            """,
        )
        assert "RA901" not in report.rule_ids()


class TestRA902Rounding:
    def test_flags_round_on_billing_name(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def bill(total_cost):
                return round(total_cost)
            """,
        )
        assert "RA902" in report.rule_ids()

    def test_flags_math_floor_on_charge(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            import math

            __all__ = []

            def truncate(charge):
                return math.floor(charge)
            """,
        )
        assert "RA902" in report.rule_ids()

    def test_flags_any_rounding_inside_core(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def snap(x):
                return round(x)
            """,
            filename="core/util.py",
        )
        assert "RA902" in report.rule_ids()

    def test_core_billing_module_is_the_authority(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            import math

            __all__ = []

            def billed_units(duration):
                return math.floor(duration) + 1
            """,
            filename="core/billing.py",
        )
        assert "RA902" not in report.rule_ids()

    def test_plain_round_outside_core_ok(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def snap(x):
                return round(x, 6)
            """,
        )
        assert "RA902" not in report.rule_ids()


class TestRA903BuiltinRaise:
    def test_flags_valueerror(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def f(x):
                if x < 0:
                    raise ValueError("negative")
            """,
        )
        assert "RA903" in report.rule_ids()

    def test_flags_bare_exception_and_runtimeerror(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def f(x):
                if x:
                    raise RuntimeError("boom")
                raise Exception
            """,
        )
        hits = [d for d in report if d.rule == "RA903"]
        assert len(hits) == 2

    def test_repro_errors_are_fine(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            from repro.exceptions import CatalogError

            __all__ = []

            def f():
                raise CatalogError("bad catalog")
            """,
        )
        assert "RA903" not in report.rule_ids()

    def test_exceptions_module_is_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def f():
                raise ValueError("allowed here")
            """,
            filename="exceptions.py",
        )
        assert "RA903" not in report.rule_ids()

    def test_reraise_without_exc_ok(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def f():
                try:
                    pass
                except KeyError:
                    raise
            """,
        )
        assert "RA903" not in report.rule_ids()


class TestRA904MutableDefaults:
    def test_flags_list_default(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def f(items=[]):
                return items
            """,
        )
        assert "RA904" in report.rule_ids()

    def test_flags_dict_call_default_kwonly(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def f(*, cache=dict()):
                return cache
            """,
        )
        assert "RA904" in report.rule_ids()

    def test_none_default_ok(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def f(items=None, scale=1.0):
                return items, scale
            """,
        )
        assert "RA904" not in report.rule_ids()


class TestRA905MissingAll:
    def test_flags_public_module_without_all(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            def helper():
                return 1
            """,
        )
        hits = [d for d in report if d.rule == "RA905"]
        assert len(hits) == 1

    def test_private_and_main_modules_exempt(self, tmp_path):
        (tmp_path / "_private.py").write_text("x = 1\n")
        (tmp_path / "__main__.py").write_text("x = 1\n")
        report = lint_source_tree([tmp_path])
        assert "RA905" not in report.rule_ids()

    def test_init_requires_all(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("x = 1\n")
        report = lint_source_tree([tmp_path])
        assert "RA905" in report.rule_ids()


class TestSuppression:
    def test_bare_pragma_suppresses_everything(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def f():
                raise ValueError("x")  # lint: ignore
            """,
        )
        assert len(report) == 0

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def f():
                raise ValueError("x")  # lint: ignore[RA901]
            """,
        )
        assert "RA903" in report.rule_ids()


def test_every_ast_rule_is_documented():
    from repro.lint import ast_rules

    rules = ast_rules()
    assert {r.id for r in rules} == {
        "RA901",
        "RA902",
        "RA903",
        "RA904",
        "RA905",
        "RS602",
    }
    for rule in rules:
        assert rule.summary and rule.rationale


def test_repro_codebase_is_self_lint_clean():
    """The acceptance criterion: the shipped package has zero findings."""
    report = self_lint()
    assert len(report) == 0, report.render()


class TestRS602SwallowedException:
    """Service-scope rule: broad handlers must re-raise or record."""

    SWALLOW = """\
        __all__ = []

        def handle(job):
            try:
                return job.run()
            except Exception:
                return None
        """

    def test_flags_swallow_in_service_package(self, tmp_path):
        report = lint_source(tmp_path, self.SWALLOW, filename="service/mod.py")
        hits = [d for d in report if d.rule == "RS602"]
        assert len(hits) == 1

    def test_flags_bare_except(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def handle(job):
                try:
                    return job.run()
                except:  # noqa: E722
                    return None
            """,
            filename="service/mod.py",
        )
        assert "RS602" in report.rule_ids()

    def test_flags_baseexception_in_tuple_clause(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def handle(job):
                try:
                    return job.run()
                except (KeyError, BaseException):
                    return None
            """,
            filename="service/mod.py",
        )
        assert "RS602" in report.rule_ids()

    def test_reraise_complies(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def handle(job):
                try:
                    return job.run()
                except Exception:
                    cleanup()
                    raise
            """,
            filename="service/mod.py",
        )
        assert "RS602" not in report.rule_ids()

    def test_recording_through_error_payload_complies(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def handle(service, job):
                try:
                    return job.run()
                except Exception as exc:
                    return service.error_payload(exc)
            """,
            filename="service/mod.py",
        )
        assert "RS602" not in report.rule_ids()

    def test_recording_through_breaker_complies(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def handle(breaker, job):
                try:
                    return job.run()
                except Exception:
                    breaker.record_failure()
                    return None
            """,
            filename="service/mod.py",
        )
        assert "RS602" not in report.rule_ids()

    def test_narrow_handler_is_fine(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def handle(job):
                try:
                    return job.run()
                except KeyError:
                    return None
            """,
            filename="service/mod.py",
        )
        assert "RS602" not in report.rule_ids()

    def test_outside_service_package_exempt(self, tmp_path):
        report = lint_source(tmp_path, self.SWALLOW, filename="core/mod.py")
        assert "RS602" not in report.rule_ids()

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def handle(job):
                try:
                    return job.run()
                except Exception:  # lint: ignore[RS602]
                    return None
            """,
            filename="service/mod.py",
        )
        assert "RS602" not in report.rule_ids()


class TestRA902Ceil:
    """RA902 also owns ceil: array billing must stay in core/billing.py."""

    def test_flags_math_ceil_on_billed_name(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            import math

            __all__ = []

            def round_up(billed_units):
                return math.ceil(billed_units)
            """,
        )
        assert "RA902" in report.rule_ids()

    def test_flags_np_ceil_on_cost(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            import numpy as np

            __all__ = []

            def round_costs(cost_matrix):
                return np.ceil(cost_matrix)
            """,
        )
        assert "RA902" in report.rule_ids()

    def test_flags_bare_ceil_inside_core(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            __all__ = []

            def snap(x):
                return ceil(x)
            """,
            filename="core/util.py",
        )
        assert "RA902" in report.rule_ids()

    def test_billing_module_may_ceil(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            import numpy as np

            __all__ = []

            def billed_units_array(durations):
                return np.ceil(durations)
            """,
            filename="core/billing.py",
        )
        assert "RA902" not in report.rule_ids()

    def test_plain_ceil_outside_core_on_neutral_name_ok(self, tmp_path):
        report = lint_source(
            tmp_path,
            """\
            import math

            __all__ = []

            def buckets(count):
                return math.ceil(count / 10)
            """,
        )
        assert "RA902" not in report.rule_ids()
