// Full-pipeline integration: generate corpus -> daemon ingest -> XDB query
// -> XSLT composition, all through real components.

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "core/netmark.h"
#include "workload/corpus.h"
#include "xml/parser.h"

namespace netmark {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("e2e");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    NetmarkOptions options;
    options.data_dir = dir_->Sub("data").string();
    auto nm = Netmark::Open(options);
    ASSERT_TRUE(nm.ok());
    nm_ = std::move(*nm);
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Netmark> nm_;
};

TEST_F(EndToEndTest, CorpusThroughDaemonThroughQueries) {
  // Drop a generated mixed corpus into the watched folder.
  workload::CorpusGenerator gen(2025);
  auto corpus = gen.MixedCorpus(30);
  std::filesystem::path drop = dir_->Sub("drop");
  std::filesystem::create_directories(drop);
  for (const auto& doc : corpus) {
    ASSERT_TRUE(WriteFile(drop / doc.file_name, doc.content).ok());
  }
  server::DaemonOptions daemon_opts;
  daemon_opts.drop_dir = drop;
  daemon_opts.stable_age = std::chrono::milliseconds(0);  // files fully written
  ASSERT_TRUE(nm_->StartDaemon(daemon_opts).ok());
  auto processed = nm_->ProcessDropFolderOnce();
  ASSERT_TRUE(processed.ok());
  // The daemon thread may have taken some already; together they got all 30.
  // Stop before reading the store: it is single-writer, not reader-safe
  // while the poll thread may still be committing.
  nm_->StopDaemon();
  EXPECT_EQ(nm_->store()->document_count(), 30u);

  // Context search is keyword-based (paper §2.1.4), so "Budget" matches the
  // proposals' "Budget" headings, the task plans' "3. Budget Summary" and the
  // budget sheets' file-name sections — 15 of the 30 documents.
  auto hits = nm_->Query("context=Budget");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 15u);
  size_t proposals = 0;
  for (const auto& hit : *hits) {
    if (hit.file_name.find("proposal_") != std::string::npos) {
      ++proposals;
      ASSERT_TRUE(hit.body);
      EXPECT_NE(hit.body->Text().find("requested amount"), std::string::npos);
    }
  }
  EXPECT_EQ(proposals, 5u);  // 30 docs / 6 kinds

  // Combined query on task plans.
  auto budget_summaries = nm_->Query("context=Budget+Summary&content=FY2005");
  ASSERT_TRUE(budget_summaries.ok());
  EXPECT_EQ(budget_summaries->size(), 5u);  // 5 task plans
}

TEST_F(EndToEndTest, IbpdStyleComposition) {
  // The IBPD scenario: integrate budget sections from many task plans into
  // one document via XSLT.
  workload::CorpusGenerator gen(7);
  for (int i = 0; i < 12; ++i) {
    auto doc = gen.TaskPlan(i);
    ASSERT_TRUE(nm_->IngestContent(doc.file_name, doc.content).ok());
  }
  const char* sheet =
      "<xsl:stylesheet>"
      "<xsl:template match=\"/\">"
      "<ibpd title=\"Integrated Budget Performance Document\">"
      "<xsl:for-each select=\"results/result\">"
      "<xsl:sort select=\"@doc\"/>"
      "<budget-entry source=\"{@doc}\">"
      "<xsl:value-of select=\"content\"/>"
      "</budget-entry>"
      "</xsl:for-each>"
      "</ibpd>"
      "</xsl:template>"
      "</xsl:stylesheet>";
  auto composed = nm_->QueryAndTransform("context=Budget+Summary", sheet);
  ASSERT_TRUE(composed.ok()) << composed.status().ToString();
  // One integrated document containing an entry per task plan.
  auto doc = xml::ParseXml(*composed);
  ASSERT_TRUE(doc.ok());
  xml::NodeId ibpd = doc->DocumentElement();
  EXPECT_EQ(doc->name(ibpd), "ibpd");
  auto entries = doc->ChildElements(ibpd);
  ASSERT_EQ(entries.size(), 12u);
  // Sorted by source file name.
  EXPECT_EQ(doc->GetAttribute(entries[0], "source"), "taskplan_0.txt");
  for (xml::NodeId e : entries) {
    EXPECT_NE(doc->TextContent(e).find("FY2005"), std::string::npos);
  }
}

TEST_F(EndToEndTest, ProposalFinancialAggregation) {
  // The Proposal Financial Management scenario: per-division statistics over
  // Budget sections of submitted proposals, computed client-side.
  workload::CorpusGenerator gen(99);
  for (int i = 0; i < 20; ++i) {
    auto doc = gen.Proposal(i);
    ASSERT_TRUE(nm_->IngestContent(doc.file_name, doc.content).ok());
  }
  auto hits = nm_->Query("context=Budget");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 20u);
  // Amounts are parseable out of each section ("requested amount is N").
  int64_t total = 0;
  int parsed = 0;
  for (const auto& hit : *hits) {
    ASSERT_TRUE(hit.body);
    const std::string text = hit.body->Text();
    size_t pos = text.find("requested amount is ");
    ASSERT_NE(pos, std::string::npos);
    total += std::stoll(text.substr(pos + 20));
    ++parsed;
  }
  EXPECT_EQ(parsed, 20);
  EXPECT_GT(total, 20 * 50);  // amounts are in [50, 1000)
  EXPECT_LT(total, 20 * 1000);
}

TEST_F(EndToEndTest, PersistsEverythingAcrossReopen) {
  workload::CorpusGenerator gen(31);
  auto doc = gen.Proposal(0);
  ASSERT_TRUE(nm_->IngestContent(doc.file_name, doc.content).ok());
  std::string data_dir = dir_->Sub("data").string();
  ASSERT_TRUE(nm_->store()->Checkpoint().ok());
  nm_.reset();

  NetmarkOptions options;
  options.data_dir = data_dir;
  auto reopened = Netmark::Open(options);
  ASSERT_TRUE(reopened.ok());
  auto hits = (*reopened)->Query("context=Budget");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

}  // namespace
}  // namespace netmark
