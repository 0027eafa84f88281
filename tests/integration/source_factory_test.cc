// DefaultSourceFactory: config-declared local and remote sources wired to
// real stores and live HTTP servers.

#include "server/source_factory.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "core/netmark.h"

namespace netmark {
namespace {

TEST(SourceFactoryTest, LocalAndRemoteDeclarationsResolve) {
  auto dir = TempDir::Make("factory");
  ASSERT_TRUE(dir.ok());

  // A disk store the config will reference.
  {
    NetmarkOptions options;
    options.data_dir = dir->Sub("disk").string();
    auto nm = Netmark::Open(options);
    ASSERT_TRUE(nm.ok());
    ASSERT_TRUE((*nm)->IngestContent("a.txt", "ALPHA SECTION\nlocal words\n").ok());
    ASSERT_TRUE((*nm)->store()->Checkpoint().ok());
  }
  // A live server the config will reference.
  NetmarkOptions remote_options;
  remote_options.data_dir = dir->Sub("remote").string();
  auto remote = Netmark::Open(remote_options);
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE(
      (*remote)->IngestContent("b.txt", "ALPHA SECTION\nremote words\n").ok());
  ASSERT_TRUE((*remote)->StartServer().ok());

  std::string config_text =
      "[source:disk]\nkind = local\npath = " + dir->Sub("disk").string() +
      "\n[source:wire]\nkind = remote\nhost = 127.0.0.1\nport = " +
      std::to_string((*remote)->server_port()) +
      "\n[databank:both]\nsources = disk, wire\n";
  auto config = federation::ParseDatabankConfig(config_text);
  ASSERT_TRUE(config.ok()) << config.status().ToString();

  federation::Router router;
  Status st = federation::ApplyDatabankConfig(
      *config, server::DefaultSourceFactory(), &router);
  ASSERT_TRUE(st.ok()) << st.ToString();

  query::XdbQuery q;
  q.context = "Alpha Section";
  auto result = router.QueryFederated("both", q);
  ASSERT_TRUE(result.ok());
  const std::vector<query::ResultHit>& hits = result->hits;
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].source, "disk");
  EXPECT_EQ(hits[1].source, "wire");
  ASSERT_TRUE(hits[0].body && hits[1].body);
  EXPECT_NE(hits[0].body->Text().find("local words"), std::string::npos);
  EXPECT_NE(hits[1].body->Text().find("remote words"), std::string::npos);
  (*remote)->StopServer();
}

TEST(SourceFactoryTest, UnknownKindRejected) {
  federation::SourceDecl decl;
  decl.name = "x";
  decl.kind = "carrier-pigeon";
  auto source = server::DefaultSourceFactory()(decl);
  EXPECT_TRUE(source.status().IsInvalidArgument());
}

TEST(SourceFactoryTest, MissingLocalStoreStillOpens) {
  // Opening a local source on a fresh directory creates an empty store —
  // the same semantics as opening a Netmark instance.
  auto dir = TempDir::Make("factory-fresh");
  ASSERT_TRUE(dir.ok());
  federation::SourceDecl decl;
  decl.name = "fresh";
  decl.kind = "local";
  decl.path = dir->Sub("newstore").string();
  auto source = server::DefaultSourceFactory()(decl);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  query::XdbQuery q;
  q.content = "anything";
  auto answer = (*source)->Execute(q);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->hits.empty());
}

}  // namespace
}  // namespace netmark
