"""Unit tests for the whole-program symbol table / call graph (pass 1)."""

from __future__ import annotations

import textwrap

from repro.lint import build_index
from repro.lint.astrules import SourceModule
from repro.lint.callgraph import module_key


def index_tree(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path and build the index."""
    modules = []
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
        modules.append(SourceModule.parse(target, root=tmp_path))
    return build_index(modules)


class TestModuleKey:
    def test_plain_file(self):
        assert module_key("service/cache.py") == "service.cache"

    def test_package_init_collapses(self):
        assert module_key("service/__init__.py") == "service"

    def test_root_init_is_empty(self):
        assert module_key("__init__.py") == ""


class TestDefinitions:
    def test_functions_classes_and_methods_are_indexed(self, tmp_path):
        index = index_tree(
            tmp_path,
            {
                "pkg/mod.py": """\
                def helper():
                    return 1

                class Widget:
                    def spin(self):
                        return helper()
                """
            },
        )
        fn = index.function_in_module("pkg.mod", "helper")
        assert fn is not None and fn.display == "helper"
        cls = index.class_in_module("pkg.mod", "Widget")
        assert cls is not None and "spin" in cls.methods
        assert cls.methods["spin"].display == "Widget.spin"

    def test_method_of_follows_project_bases(self, tmp_path):
        index = index_tree(
            tmp_path,
            {
                "base.py": """\
                class Base:
                    def shared(self):
                        return 0
                """,
                "child.py": """\
                from base import Base

                class Child(Base):
                    pass
                """,
            },
        )
        child = index.class_in_module("child", "Child")
        found = index.method_of(child, "shared")
        assert found is not None and found.qualname == "base::Base.shared"


class TestCallEdges:
    def test_bare_name_and_self_method_calls(self, tmp_path):
        index = index_tree(
            tmp_path,
            {
                "mod.py": """\
                def leaf():
                    return 1

                class Svc:
                    def outer(self):
                        return self.inner()

                    def inner(self):
                        return leaf()
                """
            },
        )
        assert index.callees("mod::Svc.outer") == ("mod::Svc.inner",)
        assert index.callees("mod::Svc.inner") == ("mod::leaf",)

    def test_module_alias_and_symbol_import_calls(self, tmp_path):
        index = index_tree(
            tmp_path,
            {
                "util.py": """\
                def work():
                    return 1
                """,
                "caller.py": """\
                import util as u
                from util import work

                def via_alias():
                    return u.work()

                def via_symbol():
                    return work()
                """,
            },
        )
        assert index.callees("caller::via_alias") == ("util::work",)
        assert index.callees("caller::via_symbol") == ("util::work",)

    def test_constructor_then_attribute_call(self, tmp_path):
        # ``self.codec = Codec()`` in __init__ types the attribute, so
        # ``self.codec.encode()`` resolves to Codec.encode.
        index = index_tree(
            tmp_path,
            {
                "codec.py": """\
                class Codec:
                    def encode(self):
                        return b""
                """,
                "app.py": """\
                from codec import Codec

                class App:
                    def __init__(self):
                        self.codec = Codec()

                    def handle(self):
                        return self.codec.encode()
                """,
            },
        )
        assert "codec::Codec.__init__" not in index.callees("app::App.handle")
        assert index.callees("app::App.handle") == ("codec::Codec.encode",)

    def test_annotated_parameter_types_the_attribute(self, tmp_path):
        # ``self.codec = codec`` from an annotated ``codec: Codec``
        # parameter (bare or string annotation) types the attribute too.
        index = index_tree(
            tmp_path,
            {
                "codec.py": """\
                class Codec:
                    def encode(self):
                        return b""
                """,
                "app.py": """\
                from codec import Codec

                class App:
                    def __init__(self, codec: Codec, spare: "Codec", n: int = 0):
                        self.codec = codec
                        self.spare = spare
                        self.n = n

                    def handle(self):
                        return self.codec.encode()

                    def handle_spare(self):
                        return self.spare.encode()
                """,
            },
        )
        app = index.classes["app::App"]
        assert app.attr_types == {"codec": "codec::Codec", "spare": "codec::Codec"}
        assert index.callees("app::App.handle") == ("codec::Codec.encode",)
        assert index.callees("app::App.handle_spare") == ("codec::Codec.encode",)

    def test_relative_import_resolution(self, tmp_path):
        index = index_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": """\
                def shout():
                    return "a"
                """,
                "pkg/b.py": """\
                from .a import shout

                def echo():
                    return shout()
                """,
            },
        )
        assert index.callees("pkg.b::echo") == ("pkg.a::shout",)

    def test_package_prefixed_absolute_import(self, tmp_path):
        # Lint roots are package dirs, so keys lack the package's own
        # name; resolve_module strips leading components until it hits.
        index = index_tree(
            tmp_path,
            {
                "service/codec.py": """\
                def dumps():
                    return "{}"
                """,
                "service/app.py": """\
                from repro.service.codec import dumps

                def render():
                    return dumps()
                """,
            },
        )
        assert index.callees("service.app::render") == ("service.codec::dumps",)


class TestReachability:
    def test_reachable_depths_and_chain(self, tmp_path):
        index = index_tree(
            tmp_path,
            {
                "mod.py": """\
                def a():
                    return b()

                def b():
                    return c()

                def c():
                    return 1
                """
            },
        )
        reach = index.reachable(["mod::a"])
        assert reach["mod::a"] == (0, None)
        assert reach["mod::b"] == (1, "mod::a")
        assert reach["mod::c"] == (2, "mod::b")
        assert index.call_chain("mod::c", reach) == [
            "mod::a",
            "mod::b",
            "mod::c",
        ]

    def test_max_depth_truncates(self, tmp_path):
        index = index_tree(
            tmp_path,
            {
                "mod.py": """\
                def a():
                    return b()

                def b():
                    return c()

                def c():
                    return 1
                """
            },
        )
        reach = index.reachable(["mod::a"], max_depth=1)
        assert "mod::b" in reach
        assert "mod::c" not in reach

    def test_cycles_terminate(self, tmp_path):
        index = index_tree(
            tmp_path,
            {
                "mod.py": """\
                def ping():
                    return pong()

                def pong():
                    return ping()
                """
            },
        )
        reach = index.reachable(["mod::ping"])
        assert set(reach) == {"mod::ping", "mod::pong"}
