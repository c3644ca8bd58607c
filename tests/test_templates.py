import pytest

from rewritebench.errors import ConfigError
from rewritebench.models import Strategy, TaskFamily
from rewritebench.templates import (PromptTemplate, TemplateCatalog,
                                    builtin_catalog, identity_catalog,
                                    load_catalog, parse_template_file,
                                    resolve_catalog)


class TestPromptTemplate:
    def test_requires_exactly_one_placeholder(self):
        with pytest.raises(ConfigError, match="placeholder"):
            PromptTemplate(template_id="t", strategy=Strategy.NL,
                           task_family=TaskFamily.CODE_TO_CODE,
                           system_text="", user_text="no placeholder")
        with pytest.raises(ConfigError, match="placeholder"):
            PromptTemplate(template_id="t", strategy=Strategy.NL,
                           task_family=TaskFamily.CODE_TO_CODE,
                           system_text="", user_text="{input} and {input}")

    def test_render_is_literal_substitution(self):
        t = PromptTemplate(template_id="t", strategy=Strategy.NL,
                           task_family=TaskFamily.CODE_TO_CODE,
                           system_text="sys", user_text="describe: {input}")
        system, user = t.render("d = {'a': 1}")
        assert system == "sys"
        assert user == "describe: d = {'a': 1}"  # braces survive


class TestParseTemplateFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.md"
        path.write_text(
            "---\n"
            "template_id: my-template\n"
            "strategy: Pseudo\n"
            "task_family: Hybrid\n"
            "max_output_tokens: 128\n"
            "applies_to: queries\n"
            "system: Do the thing.\n"
            "---\n"
            "Transform this:\n\n{input}\n",
            encoding="utf-8")
        t = parse_template_file(path)
        assert t.template_id == "my-template"
        assert t.strategy is Strategy.PSEUDO
        assert t.task_family is TaskFamily.HYBRID
        assert t.max_output_tokens == 128
        assert t.applies_to == ("queries",)
        assert t.user_text.startswith("Transform this:")

    def test_missing_front_matter_field(self, tmp_path):
        path = tmp_path / "bad.md"
        path.write_text("---\nstrategy: NL\ntask_family: Hybrid\n---\n{input}\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="template_id"):
            parse_template_file(path)

    def test_malformed_front_matter_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.md"
        path.write_text("---\ntemplate_id: [x\nstrategy: NL\n---\n{input}\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed front-matter"):
            parse_template_file(path)


    @pytest.mark.parametrize("line, field", [
        ("max_output_tokens: lots", "max_output_tokens"),
        ("max_output_tokens: [1]", "max_output_tokens"),
        ("strategy: Nope", "strategy"),
        ("task_family: Nope", "task_family"),
        ("applies_to: 5", "applies_to"),
        ("applies_to: {documents: 1}", "applies_to")])
    def test_bad_front_matter_value_is_a_config_error_naming_file_and_field(
            self, tmp_path, line, field):
        fields = {"template_id": "t", "strategy": "NL", "task_family": "Hybrid"}
        key, value = line.split(": ", 1)
        fields[key] = value
        path = tmp_path / "bad.md"
        path.write_text("---\n" + "".join(f"{k}: {v}\n" for k, v in fields.items())
                        + "---\n{input}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"template file {path} field {field!r}"):
            parse_template_file(path)

    def test_front_matter_that_is_not_a_mapping_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.md"
        path.write_text("---\n- template_id\n---\n{input}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"template file {path} front-matter"):
            parse_template_file(path)


class TestCatalogResolution:
    def test_builtin_covers_every_combination(self):
        catalog = builtin_catalog()
        for strategy in (Strategy.REPHRASE, Strategy.PSEUDO, Strategy.NL):
            for family in TaskFamily:
                doc = catalog.resolve(strategy, family, "documents")
                query = catalog.resolve(strategy, family, "queries")
                assert doc.strategy is strategy
                assert query.strategy is strategy

    def test_text_to_code_queries_get_generation_template(self):
        catalog = builtin_catalog()
        doc = catalog.resolve(Strategy.NL, TaskFamily.TEXT_TO_CODE, "documents")
        query = catalog.resolve(Strategy.NL, TaskFamily.TEXT_TO_CODE, "queries")
        assert doc.template_id != query.template_id
        assert query.applies_to == ("queries",)

    def test_identity_catalog_is_passthrough(self):
        catalog = identity_catalog()
        t = catalog.resolve(Strategy.REPHRASE, TaskFamily.HYBRID, "documents")
        assert t.render("payload") == ("", "payload")

    def test_missing_template_is_config_error(self):
        catalog = TemplateCatalog([])
        with pytest.raises(ConfigError, match="no template"):
            catalog.resolve(Strategy.NL, TaskFamily.HYBRID, "documents")

    def test_duplicate_ids_rejected(self):
        t = identity_catalog().templates[0]
        with pytest.raises(ConfigError, match="duplicate"):
            TemplateCatalog([t, t])

    def test_ambiguous_resolution_rejected(self):
        base = identity_catalog().templates[0]
        from dataclasses import replace
        clone = replace(base, template_id="other-id")
        catalog = TemplateCatalog([base, clone])
        with pytest.raises(ConfigError, match="ambiguous"):
            catalog.resolve(base.strategy, base.task_family, "documents")

    def test_load_catalog_from_directory(self, tmp_path):
        (tmp_path / "one.md").write_text(
            "---\ntemplate_id: t1\nstrategy: NL\ntask_family: CodeToCode\n---\n"
            "{input}\n", encoding="utf-8")
        catalog = load_catalog(tmp_path)
        template = catalog.resolve(Strategy.NL, TaskFamily.CODE_TO_CODE, "documents")
        assert template.template_id == "t1"

    def test_resolve_catalog_names(self, tmp_path):
        assert resolve_catalog("identity").templates
        assert resolve_catalog("builtin").templates
        with pytest.raises(ConfigError):
            resolve_catalog(str(tmp_path / "missing"))
