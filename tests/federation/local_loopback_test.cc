// Local and loopback-federated answers agree: a databank holding a
// LocalStoreSource and a RemoteSource that reaches the same store's XDB
// endpoint must compose the same section body as plain /xdb.

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "federation/local_source.h"
#include "federation/remote_source.h"
#include "federation/router.h"
#include "server/netmark_service.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace netmark::federation {
namespace {

server::HttpRequest XdbGet(const std::string& query) {
  server::HttpRequest req;
  req.method = "GET";
  req.target = "/xdb?" + query;
  req.path = "/xdb";
  req.query = query;
  return req;
}

// Answers "/xdb?..." through a service's Handle, without a socket.
class InProcessTransport : public HttpTransport {
 public:
  explicit InProcessTransport(server::NetmarkService* service)
      : service_(service) {}

  using HttpTransport::Get;
  netmark::Result<std::string> Get(const std::string& path_and_query,
                                   const CallContext&) override {
    size_t mark = path_and_query.find('?');
    if (mark == std::string::npos) {
      return netmark::Status::InvalidArgument("no query in " + path_and_query);
    }
    server::HttpResponse resp =
        service_->Handle(XdbGet(path_and_query.substr(mark + 1)));
    if (resp.status != 200) return netmark::Status::IOError(resp.body);
    return resp.body;
  }

 private:
  server::NetmarkService* service_;
};

// The serialized <content> of every <result>, in document order.
std::vector<std::string> ResultContents(const std::string& body) {
  std::vector<std::string> out;
  auto doc = xml::ParseXml(body);
  EXPECT_TRUE(doc.ok()) << body;
  if (!doc.ok()) return out;
  xml::NodeId results = doc->DocumentElement();
  for (xml::NodeId r = doc->first_child(results); r != xml::kInvalidNode;
       r = doc->next_sibling(r)) {
    if (doc->kind(r) != xml::NodeKind::kElement || doc->name(r) != "result") {
      continue;
    }
    xml::NodeId content = doc->FirstChildElement(r, "content");
    out.push_back(content == xml::kInvalidNode ? ""
                                               : xml::Serialize(*doc, content));
  }
  return out;
}

TEST(LocalLoopbackAgreementTest, LocalAndRemoteSourcesComposeTheSameSection) {
  auto dir = netmark::TempDir::Make("loopback");
  ASSERT_TRUE(dir.ok());
  auto store = xmlstore::XmlStore::Open(dir->str());
  ASSERT_TRUE(store.ok());
  auto doc = xml::ParseXml(
      "<d><h1>Budget</h1><p>amount 100</p><p>second para</p></d>");
  ASSERT_TRUE(doc.ok());
  xmlstore::DocumentInfo info;
  info.file_name = "d.xml";
  ASSERT_TRUE((*store)->InsertDocument(*doc, info).ok());

  server::NetmarkService service(store->get());
  Router router;
  ASSERT_TRUE(router
                  .RegisterSource(std::make_shared<LocalStoreSource>(
                      "local", store->get()))
                  .ok());
  ASSERT_TRUE(router
                  .RegisterSource(std::make_shared<RemoteSource>(
                      "loopback", std::make_unique<InProcessTransport>(&service)))
                  .ok());
  ASSERT_TRUE(router.DefineDatabank("both", {"local", "loopback"}).ok());
  service.set_router(&router);

  server::HttpResponse plain = service.Handle(XdbGet("context=Budget"));
  ASSERT_EQ(plain.status, 200) << plain.body;
  std::vector<std::string> plain_contents = ResultContents(plain.body);
  ASSERT_EQ(plain_contents.size(), 1u) << plain.body;
  EXPECT_EQ(plain_contents[0],
            "<content><p>amount 100</p><p>second para</p></content>");

  server::HttpResponse federated =
      service.Handle(XdbGet("databank=both&context=Budget"));
  ASSERT_EQ(federated.status, 200) << federated.body;
  std::vector<std::string> contents = ResultContents(federated.body);
  ASSERT_EQ(contents.size(), 2u) << federated.body;  // one per source
  EXPECT_EQ(contents[0], plain_contents[0]) << federated.body;
  EXPECT_EQ(contents[1], plain_contents[0]) << federated.body;
}

}  // namespace
}  // namespace netmark::federation
