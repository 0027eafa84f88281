#include "workload/corpus.h"

#include <gtest/gtest.h>

#include "convert/registry.h"
#include "federation/augment.h"
#include "workload/query_workload.h"

namespace netmark::workload {
namespace {

TEST(CorpusTest, DeterministicForSeed) {
  CorpusGenerator a(42);
  CorpusGenerator b(42);
  for (int i = 0; i < 5; ++i) {
    GeneratedDoc da = a.Proposal(i);
    GeneratedDoc db = b.Proposal(i);
    EXPECT_EQ(da.file_name, db.file_name);
    EXPECT_EQ(da.content, db.content);
  }
  CorpusGenerator c(43);
  EXPECT_NE(a.Proposal(99).content, c.Proposal(99).content);
}

// Every generated format must convert cleanly and yield sections.
class CorpusConversionTest : public ::testing::TestWithParam<int> {};

TEST_P(CorpusConversionTest, AllGeneratorsProduceConvertibleDocs) {
  CorpusGenerator gen(7);
  int index = GetParam();
  std::vector<GeneratedDoc> docs = {
      gen.Proposal(index),     gen.TaskPlan(index),    gen.AnomalyReport(index),
      gen.LessonLearned(index), gen.RiskMemo(index),   gen.BudgetSheet(index),
  };
  convert::ConverterRegistry registry = convert::ConverterRegistry::Default();
  for (const GeneratedDoc& doc : docs) {
    auto converted = registry.Convert(doc.file_name, doc.content);
    ASSERT_TRUE(converted.ok())
        << doc.file_name << ": " << converted.status().ToString();
    auto sections = federation::ExtractSections(*converted);
    EXPECT_GE(sections.size(), 1u) << doc.file_name;
  }
}

INSTANTIATE_TEST_SUITE_P(Indexes, CorpusConversionTest, ::testing::Values(0, 3, 17));

TEST(CorpusTest, ProposalCarriesBudgetSection) {
  CorpusGenerator gen(11);
  GeneratedDoc doc = gen.Proposal(1);
  convert::ConverterRegistry registry = convert::ConverterRegistry::Default();
  auto converted = registry.Convert(doc.file_name, doc.content);
  ASSERT_TRUE(converted.ok());
  auto sections = federation::ExtractSections(*converted);
  bool budget_found = false;
  for (const auto& s : sections) {
    if (s.heading == "Budget") {
      budget_found = true;
      EXPECT_NE(converted->JoinedText(s.first, s.end).find("requested amount"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(budget_found);
}

TEST(CorpusTest, TaskPlanHasBudgetSummaryWithFiscalYears) {
  CorpusGenerator gen(5);
  GeneratedDoc doc = gen.TaskPlan(3);
  EXPECT_NE(doc.content.find("3. Budget Summary"), std::string::npos);
  EXPECT_NE(doc.content.find("FY2005"), std::string::npos);
}

TEST(CorpusTest, MixedCorpusCyclesFormats) {
  CorpusGenerator gen(3);
  auto corpus = gen.MixedCorpus(12);
  ASSERT_EQ(corpus.size(), 12u);
  std::set<std::string> extensions;
  for (const auto& doc : corpus) {
    extensions.insert(doc.file_name.substr(doc.file_name.rfind('.')));
  }
  EXPECT_EQ(extensions.size(), 6u);  // .doc .txt .html .xml .md .csv
}

TEST(CorpusTest, StandardVocabularies) {
  EXPECT_FALSE(CorpusGenerator::StandardHeadings().empty());
  EXPECT_FALSE(CorpusGenerator::TopicTerms().empty());
  EXPECT_FALSE(CorpusGenerator::Divisions().empty());
  CorpusGenerator gen(9);
  std::string term = gen.RandomTopicTerm();
  const auto& topics = CorpusGenerator::TopicTerms();
  EXPECT_NE(std::find(topics.begin(), topics.end(), term), topics.end());
}

TEST(QueryWorkloadTest, MixProportionsRoughlyHold) {
  QueryWorkload wl(123);
  int ctx = 0, cnt = 0, both = 0;
  for (int i = 0; i < 1000; ++i) {
    auto q = wl.Next(0.4, 0.3);
    if (q.has_context() && q.has_content()) ++both;
    else if (q.has_context()) ++ctx;
    else ++cnt;
  }
  EXPECT_GT(ctx, 300);
  EXPECT_LT(ctx, 500);
  EXPECT_GT(cnt, 200);
  EXPECT_GT(both, 200);
}

TEST(EmployeeSourceTest, CenterSpecificSchemas) {
  auto ames = EmployeeSource(1, "Ames", 10);
  auto johnson = EmployeeSource(2, "Johnson", 10);
  auto kennedy = EmployeeSource(3, "Kennedy", 10);
  EXPECT_EQ(ames.attributes[0], "employee_name");
  EXPECT_EQ(johnson.attributes[0], "person");
  EXPECT_EQ(kennedy.attributes[0], "staff_member");
  EXPECT_EQ(ames.records.size(), 10u);
  // Johnson's ratings are numeric strings.
  for (const auto& r : johnson.records) {
    const std::string& score = r.at("score");
    EXPECT_GE(score, "1");
    EXPECT_LE(score, "5");
  }
}

}  // namespace
}  // namespace netmark::workload
