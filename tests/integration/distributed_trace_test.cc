// Distributed tracing across live HTTP hops: one W3C trace id covers the
// mediator and the remote it fans out to, the remote's span subtree comes
// back grafted under the mediator's source:* span, and a fan-out worker
// that outlives its query leaves an unfinished="true" span behind.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "core/netmark.h"
#include "federation/remote_source.h"
#include "federation/source.h"
#include "observability/trace.h"
#include "server/http_client.h"
#include "workload/corpus.h"
#include "xml/parser.h"

namespace netmark {
namespace {

/// A source that leaves a span running when it returns — the trace-side
/// signature of a straggling fan-out worker.
class StragglerSource : public federation::Source {
 public:
  const std::string& name() const override { return name_; }
  federation::Capabilities capabilities() const override {
    return federation::Capabilities::Full();
  }
  using federation::Source::Execute;
  Result<query::ResultSet> Execute(
      const query::XdbQuery& query, const federation::CallContext& ctx) override {
    (void)query;
    if (ctx.trace != nullptr) {
      ctx.trace->StartSpan("fetch", ctx.span);  // never ended on purpose
    }
    return query::ResultSet{};
  }

 private:
  std::string name_ = "laggard";
};

/// Depth-first search for a <span name="..."> element.
xml::NodeId FindSpan(const xml::Document& doc, xml::NodeId node,
                     const std::string& name) {
  for (xml::NodeId child : doc.ChildElements(node)) {
    if (doc.name(child) == "span" && doc.GetAttribute(child, "name") == name) {
      return child;
    }
    xml::NodeId found = FindSpan(doc, child, name);
    if (found != xml::kInvalidNode) return found;
  }
  return xml::kInvalidNode;
}

class DistributedTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("disttrace");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));

    // The remote NETMARK instance serving real documents over HTTP.
    workload::CorpusGenerator gen(555);
    NetmarkOptions remote_options;
    remote_options.data_dir = dir_->Sub("remote").string();
    auto remote = Netmark::Open(remote_options);
    ASSERT_TRUE(remote.ok());
    remote_ = std::move(*remote);
    for (int i = 0; i < 3; ++i) {
      auto doc = gen.AnomalyReport(i);
      ASSERT_TRUE(remote_->IngestContent(doc.file_name, doc.content).ok());
    }
    ASSERT_TRUE(remote_->StartServer().ok());

    // The mediator fans out to it through a databank.
    NetmarkOptions options;
    options.data_dir = dir_->Sub("mediator").string();
    auto nm = Netmark::Open(options);
    ASSERT_TRUE(nm.ok());
    mediator_ = std::move(*nm);
    ASSERT_TRUE(mediator_
                    ->RegisterSource(std::make_shared<federation::RemoteSource>(
                        "anomaly-db", std::make_unique<server::SocketTransport>(
                                          "127.0.0.1", remote_->server_port())))
                    .ok());
    ASSERT_TRUE(mediator_->DefineDatabank("anomalies", {"anomaly-db"}).ok());
    ASSERT_TRUE(mediator_->StartServer().ok());
  }

  void TearDown() override {
    mediator_->StopServer();
    remote_->StopServer();
  }

  /// Runs a federated query on the mediator over real HTTP and returns the
  /// trace id its response advertised.
  std::string TracedQuery(const std::string& query) {
    server::HttpClient client("127.0.0.1", mediator_->server_port());
    auto resp = client.Get("/xdb?" + query);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    if (!resp.ok()) return "";
    EXPECT_EQ(resp->status, 200) << resp->body;
    return resp->headers["X-Netmark-Trace-Id"];
  }

  Result<xml::Document> FetchTraceXml(int port, const std::string& id) {
    server::HttpClient client("127.0.0.1", port);
    auto resp = client.Get("/traces?id=" + id + "&format=xml");
    if (!resp.ok()) return resp.status();
    if (resp->status != 200) {
      return Status::NotFound("GET /traces?id= -> " +
                              std::to_string(resp->status));
    }
    return xml::ParseXml(resp->body);
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Netmark> remote_;
  std::unique_ptr<Netmark> mediator_;
};

TEST_F(DistributedTraceTest, OneTraceIdStitchesBothProcesses) {
  const std::string id =
      TracedQuery("context=Anomaly+Description&databank=anomalies");
  ASSERT_EQ(id.size(), 32u) << "mediator did not advertise a trace id";

  // The mediator retained the stitched tree: its own fan-out spans with the
  // remote's subtree grafted (remote="true") under source:anomaly-db.
  auto doc = FetchTraceXml(mediator_->server_port(), id);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  xml::NodeId root = doc->DocumentElement();
  EXPECT_EQ(doc->name(root), "netmark-trace");
  EXPECT_EQ(doc->GetAttribute(root, "id"), id);
  xml::NodeId source = FindSpan(*doc, root, "source:anomaly-db");
  ASSERT_NE(source, xml::kInvalidNode) << "no source span in mediator trace";
  // The grafted remote root keeps its name and carries the remote marker,
  // nested directly under the local source span.
  xml::NodeId remote_root = FindSpan(*doc, source, "xdb");
  ASSERT_NE(remote_root, xml::kInvalidNode) << "remote subtree not grafted";
  EXPECT_EQ(doc->GetAttribute(remote_root, "remote"), "true");
  EXPECT_NE(FindSpan(*doc, remote_root, "execute"), xml::kInvalidNode)
      << "remote subtree lost its children";

  // The remote retained the *same* trace id: its half of the request is
  // independently inspectable on its own /traces endpoint.
  auto remote_doc = FetchTraceXml(remote_->server_port(), id);
  ASSERT_TRUE(remote_doc.ok())
      << "remote did not retain the propagated trace: "
      << remote_doc.status().ToString();
  xml::NodeId remote_view = remote_doc->DocumentElement();
  EXPECT_EQ(remote_doc->GetAttribute(remote_view, "id"), id);
  xml::NodeId remote_xdb = FindSpan(*remote_doc, remote_view, "xdb");
  ASSERT_NE(remote_xdb, xml::kInvalidNode);
  // On its own instance those spans are local, not remote.
  EXPECT_EQ(remote_doc->GetAttribute(remote_xdb, "remote"), "");

  // And the listing on the remote names the shared id too.
  server::HttpClient remote_client("127.0.0.1", remote_->server_port());
  auto listing = remote_client.Get("/traces");
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->body.find("\"id\":\"" + id + "\""), std::string::npos)
      << listing->body;
}

TEST_F(DistributedTraceTest, StragglerSpanSurfacesAsUnfinished) {
  ASSERT_TRUE(mediator_->RegisterSource(std::make_shared<StragglerSource>()).ok());
  ASSERT_TRUE(
      mediator_->DefineDatabank("mixed", {"anomaly-db", "laggard"}).ok());

  const std::string id =
      TracedQuery("context=Anomaly+Description&databank=mixed");
  ASSERT_EQ(id.size(), 32u);

  auto doc = FetchTraceXml(mediator_->server_port(), id);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  xml::NodeId root = doc->DocumentElement();
  xml::NodeId laggard = FindSpan(*doc, root, "source:laggard");
  ASSERT_NE(laggard, xml::kInvalidNode);
  xml::NodeId fetch = FindSpan(*doc, laggard, "fetch");
  ASSERT_NE(fetch, xml::kInvalidNode);
  EXPECT_EQ(doc->GetAttribute(fetch, "unfinished"), "true")
      << "the never-ended span must render as unfinished";
  // The healthy source is unaffected by its straggling sibling.
  EXPECT_NE(FindSpan(*doc, root, "source:anomaly-db"), xml::kInvalidNode);
}

}  // namespace
}  // namespace netmark
