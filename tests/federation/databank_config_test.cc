#include "federation/databank_config.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "federation/content_only_source.h"
#include "federation/local_source.h"
#include "xml/parser.h"

namespace netmark::federation {
namespace {

constexpr const char* kSample = R"(
[source:ames-store]
kind = local
path = /data/ames

[source:lessons]
kind = remote
host = 10.0.0.5
port = 8080
capabilities = content

[databank:anomalies]
sources = ames-store, lessons
)";

TEST(DatabankConfigTest, ParsesSourcesAndDatabanks) {
  auto config = ParseDatabankConfig(kSample);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config->sources.size(), 2u);
  EXPECT_EQ(config->sources[0].name, "ames-store");
  EXPECT_EQ(config->sources[0].kind, "local");
  EXPECT_EQ(config->sources[0].path, "/data/ames");
  EXPECT_TRUE(config->sources[0].capabilities.context_search);
  EXPECT_EQ(config->sources[1].name, "lessons");
  EXPECT_EQ(config->sources[1].kind, "remote");
  EXPECT_EQ(config->sources[1].host, "10.0.0.5");
  EXPECT_EQ(config->sources[1].port, 8080);
  EXPECT_FALSE(config->sources[1].capabilities.context_search);
  ASSERT_EQ(config->databanks.size(), 1u);
  EXPECT_EQ(config->databanks[0].name, "anomalies");
  EXPECT_EQ(config->databanks[0].sources.size(), 2u);
}

TEST(DatabankConfigTest, ParsesResilienceKnobs) {
  auto config = ParseDatabankConfig(R"(
[source:tuned]
kind = remote
host = 10.0.0.9
port = 8080
timeout_ms = 1500
max_retries = 4
breaker_failures = 3
breaker_cooldown_ms = 250

[source:defaults]
kind = remote
port = 8081
)");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config->sources.size(), 2u);
  const SourcePolicy& tuned = config->sources[0].policy;
  EXPECT_EQ(tuned.timeout_ms, 1500);
  EXPECT_EQ(tuned.max_retries, 4);
  ASSERT_TRUE(tuned.breaker.has_value());
  EXPECT_EQ(tuned.breaker->failure_threshold, 3);
  EXPECT_EQ(tuned.breaker->cooldown_ms, 250);
  // Absent knobs leave the router defaults in force.
  const SourcePolicy& defaults = config->sources[1].policy;
  EXPECT_EQ(defaults.timeout_ms, 0);
  EXPECT_EQ(defaults.max_retries, -1);
  EXPECT_FALSE(defaults.breaker.has_value());
}

TEST(DatabankConfigTest, RejectsBadResilienceKnobs) {
  const char* bad[] = {
      "[source:x]\nkind=local\npath=/p\ntimeout_ms=-5\n",
      "[source:x]\nkind=local\npath=/p\ntimeout_ms=soon\n",
      "[source:x]\nkind=local\npath=/p\nmax_retries=-1\n",
      "[source:x]\nkind=local\npath=/p\nbreaker_failures=-2\n",
      "[source:x]\nkind=local\npath=/p\nbreaker_cooldown_ms=never\n",
  };
  for (const char* text : bad) {
    EXPECT_TRUE(ParseDatabankConfig(text).status().IsParseError()) << text;
  }
}

TEST(DatabankConfigTest, ValidationErrors) {
  EXPECT_TRUE(ParseDatabankConfig("[source:x]\nkind=ftp\n").status().IsParseError());
  EXPECT_TRUE(ParseDatabankConfig("[source:x]\nkind=local\n").status().IsParseError());
  EXPECT_TRUE(
      ParseDatabankConfig("[source:x]\nkind=remote\nport=99999\n").status().IsParseError());
  EXPECT_TRUE(
      ParseDatabankConfig("[source:x]\nkind=remote\n").status().IsParseError());
  EXPECT_TRUE(ParseDatabankConfig("[databank:d]\nsources=ghost\n").status().IsParseError());
  EXPECT_TRUE(ParseDatabankConfig("[databank:d]\nsources=\n").status().IsParseError());
  EXPECT_TRUE(ParseDatabankConfig("[mystery:y]\nk=v\n").status().IsParseError());
  EXPECT_TRUE(ParseDatabankConfig(
                  "[source:x]\nkind=local\npath=/p\ncapabilities=psychic\n")
                  .status()
                  .IsParseError());
}

TEST(DatabankConfigTest, ApplyWithInjectedFactory) {
  auto config = ParseDatabankConfig(kSample);
  ASSERT_TRUE(config.ok());
  Router router;
  int local_count = 0, remote_count = 0;
  Status st = ApplyDatabankConfig(
      *config,
      [&](const SourceDecl& decl) -> Result<std::shared_ptr<Source>> {
        if (decl.kind == "local") ++local_count;
        if (decl.kind == "remote") ++remote_count;
        // Stand-in source carrying the declared name.
        return std::shared_ptr<Source>(
            std::make_shared<ContentOnlySource>(decl.name));
      },
      &router);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(local_count, 1);
  EXPECT_EQ(remote_count, 1);
  EXPECT_TRUE(router.HasDatabank("anomalies"));
  EXPECT_EQ(router.SourceNames().size(), 2u);
}

TEST(DatabankConfigTest, ApplyPropagatesFactoryErrors) {
  auto config = ParseDatabankConfig(kSample);
  ASSERT_TRUE(config.ok());
  Router router;
  Status st = ApplyDatabankConfig(
      *config,
      [](const SourceDecl&) -> Result<std::shared_ptr<Source>> {
        return Status::Unavailable("factory down");
      },
      &router);
  EXPECT_TRUE(st.IsUnavailable());
}

TEST(DatabankConfigTest, EndToEndWithRealLocalStore) {
  auto dir = TempDir::Make("dbcfg");
  ASSERT_TRUE(dir.ok());
  // Create a store with one document.
  {
    auto store = xmlstore::XmlStore::Open(dir->Sub("store").string());
    ASSERT_TRUE(store.ok());
    auto doc = xml::ParseXml("<d><h1>Budget</h1><p>configured store</p></d>");
    ASSERT_TRUE(doc.ok());
    xmlstore::DocumentInfo info;
    info.file_name = "d.xml";
    ASSERT_TRUE((*store)->InsertDocument(*doc, info).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
  }
  std::string config_text = "[source:disk]\nkind = local\npath = " +
                            dir->Sub("store").string() +
                            "\n[databank:solo]\nsources = disk\n";
  auto config = ParseDatabankConfig(config_text);
  ASSERT_TRUE(config.ok());
  Router router;
  Status st = ApplyDatabankConfig(
      *config,
      [](const SourceDecl& decl) -> Result<std::shared_ptr<Source>> {
        NETMARK_ASSIGN_OR_RETURN(std::shared_ptr<LocalStoreSource> source,
                                 LocalStoreSource::OpenOwned(decl.name, decl.path));
        return std::shared_ptr<Source>(std::move(source));
      },
      &router);
  ASSERT_TRUE(st.ok()) << st.ToString();
  query::XdbQuery q;
  q.context = "Budget";
  auto result = router.QueryFederated("solo", q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].heading, "Budget");
}

}  // namespace
}  // namespace netmark::federation
