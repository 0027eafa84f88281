#include "instance.h"

#include <system_error>

#include "common.h"
#include "common/temp_dir.h"
#include "federation/local_source.h"
#include "federation/remote_source.h"
#include "requests.h"
#include "xml/parser.h"

namespace e2e {

namespace fs = std::filesystem;

Instance::~Instance() {
  if (nm != nullptr) nm->StopServer();
  daemon.reset();
  nm.reset();
}

void WriteDropFiles(const fs::path& drop,
                    const std::vector<netmark::workload::GeneratedDoc>& docs) {
  std::error_code ec;
  fs::create_directories(drop, ec);
  if (ec) Die("create " + drop.string() + ": " + ec.message());
  for (const auto& doc : docs) {
    Check(netmark::WriteFile(drop / doc.file_name, doc.content), "write drop file");
  }
}

std::unique_ptr<Instance> StartInstance(const fs::path& dir, size_t expected_docs) {
  auto inst = std::make_unique<Instance>();
  inst->dir = dir;
  inst->drop = dir / "drop";
  const int64_t t0 = NowNanos();

  netmark::NetmarkOptions options;
  options.data_dir = (dir / "data").string();
  inst->nm = Unwrap(netmark::Netmark::Open(options), "Netmark::Open");
  Check(inst->nm->RegisterStylesheet("report", kReportSheet), "register stylesheet");

  // The shipped daemon, driven one synchronous sweep at a time (its polling
  // thread would race the timer). stable_age 0: the files are complete.
  netmark::server::DaemonOptions daemon_options;
  daemon_options.drop_dir = inst->drop;
  daemon_options.stable_age = std::chrono::milliseconds(0);
  inst->daemon = std::make_unique<netmark::server::IngestionDaemon>(
      inst->nm->store(), &inst->nm->converters(), daemon_options);
  inst->daemon->BindMetrics(inst->nm->metrics());
  int swept = Unwrap(inst->daemon->ProcessOnce(), "daemon sweep");
  if (static_cast<size_t>(swept) != expected_docs ||
      inst->daemon->files_failed() != 0) {
    Die("setup sweep ingested " + std::to_string(swept) + " of " +
        std::to_string(expected_docs) + " files");
  }
  Check(inst->nm->StartServer(0), "StartServer");
  inst->port = inst->nm->server_port();
  inst->setup_seconds = static_cast<double>(NowNanos() - t0) / 1e9;
  return inst;
}

void AttachFederation(Instance* mediator, const Instance& remote, uint64_t seed) {
  const int64_t t0 = NowNanos();
  netmark::Netmark* nm = mediator->nm.get();
  Check(nm->RegisterSelfAsSource("local"), "register self source");

  auto transport = std::make_unique<netmark::server::SocketTransport>(
      "127.0.0.1", remote.port);
  mediator->remote_transport = transport.get();
  Check(nm->RegisterSource(std::make_shared<netmark::federation::RemoteSource>(
            "remote", std::move(transport))),
        "register remote source");

  mediator->remote_port = remote.port;

  auto lessons = std::make_shared<netmark::federation::ContentOnlySource>("lessons");
  netmark::workload::CorpusGenerator gen(seed ^ 0x6C6573736F6EULL);
  for (int i = 0; i < 200; ++i) {
    netmark::workload::GeneratedDoc doc = gen.LessonLearned(i);
    lessons->AddDocument("ll_" + doc.file_name,
                         Unwrap(netmark::xml::ParseXml(doc.content), "parse lesson"));
  }
  mediator->lessons = lessons;
  Check(nm->RegisterSource(lessons), "register lessons source");
  Check(nm->DefineDatabank(kDatabank, {"local", "remote", "lessons"}), "databank");
  mediator->setup_seconds += static_cast<double>(NowNanos() - t0) / 1e9;
}

std::unique_ptr<netmark::federation::Router> MakeDatabankRouter(
    const Instance& mediator, netmark::query::QueryResultCache* results,
    netmark::query::QueryPlanCache* plans) {
  auto router = std::make_unique<netmark::federation::Router>();
  auto local = std::make_shared<netmark::federation::LocalStoreSource>(
      "local", mediator.nm->store());
  local->set_caches(results, plans);
  Check(router->RegisterSource(local), "register local source");
  Check(router->RegisterSource(std::make_shared<netmark::federation::RemoteSource>(
            "remote", std::make_unique<netmark::server::SocketTransport>(
                          "127.0.0.1", mediator.remote_port))),
        "register remote source");
  Check(router->RegisterSource(mediator.lessons), "register lessons source");
  Check(router->DefineDatabank(kDatabank, {"local", "remote", "lessons"}), "databank");
  return router;
}

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      uintmax_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

}  // namespace e2e
