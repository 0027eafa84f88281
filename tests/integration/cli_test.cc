// End-to-end tests driving the actual `netmark` CLI binary (path injected at
// compile time via NETMARK_BIN_PATH).

#include <gtest/gtest.h>

#include <array>
#include <cstdio>

#include "common/temp_dir.h"

namespace netmark {
namespace {

#ifndef NETMARK_BIN_PATH
#define NETMARK_BIN_PATH "netmark"
#endif
#ifndef NETMARK_EXAMPLE_SERVER_INI
#define NETMARK_EXAMPLE_SERVER_INI "examples/configs/server.example.ini"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunCli(const std::string& args) {
  std::string command = std::string(NETMARK_BIN_PATH) + " " + args + " 2>&1";
  CommandResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 1024> chunk;
  while (::fgets(chunk.data(), chunk.size(), pipe) != nullptr) {
    result.output += chunk.data();
  }
  int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("cli");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    data_ = dir_->Sub("data").string();
  }
  std::unique_ptr<TempDir> dir_;
  std::string data_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  CommandResult r = RunCli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, IngestLsQueryGetRmLifecycle) {
  auto report = dir_->Sub("report.txt");
  ASSERT_TRUE(WriteFile(report,
                        "OVERVIEW\nThe shuttle passed review.\n\n"
                        "BUDGET\nTotal 500 thousand.\n")
                  .ok());

  CommandResult ingest = RunCli("ingest --data " + data_ + " " + report.string());
  EXPECT_EQ(ingest.exit_code, 0) << ingest.output;
  EXPECT_NE(ingest.output.find("doc 1"), std::string::npos);

  CommandResult ls = RunCli("ls --data " + data_);
  EXPECT_EQ(ls.exit_code, 0);
  EXPECT_NE(ls.output.find("report.txt"), std::string::npos);

  CommandResult query = RunCli("query --data " + data_ + " \"context=Budget\"");
  EXPECT_EQ(query.exit_code, 0) << query.output;
  EXPECT_NE(query.output.find("<context>BUDGET</context>"), std::string::npos);
  EXPECT_NE(query.output.find("500 thousand"), std::string::npos);

  CommandResult get = RunCli("get --data " + data_ + " 1");
  EXPECT_EQ(get.exit_code, 0);
  EXPECT_NE(get.output.find("shuttle passed review"), std::string::npos);

  CommandResult rm = RunCli("rm --data " + data_ + " 1");
  EXPECT_EQ(rm.exit_code, 0);
  CommandResult get_gone = RunCli("get --data " + data_ + " 1");
  EXPECT_NE(get_gone.exit_code, 0);
}

TEST_F(CliTest, QueryWithStylesheetFile) {
  auto doc = dir_->Sub("memo.md");
  ASSERT_TRUE(WriteFile(doc, "# Findings\n\nall systems nominal\n").ok());
  ASSERT_EQ(RunCli("ingest --data " + data_ + " " + doc.string()).exit_code, 0);

  auto sheet = dir_->Sub("report.xsl");
  ASSERT_TRUE(WriteFile(sheet,
                        "<xsl:stylesheet><xsl:template match=\"/\">"
                        "<count><xsl:value-of select=\"results/@count\"/></count>"
                        "</xsl:template></xsl:stylesheet>")
                  .ok());
  CommandResult r = RunCli("query --data " + data_ + " \"context=Findings\" --xslt " +
                           sheet.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("<count>1</count>"), std::string::npos);
}

TEST_F(CliTest, ErrorsAreReportedCleanly) {
  EXPECT_NE(RunCli("query \"context=x\"").exit_code, 0);       // missing --data
  EXPECT_NE(RunCli("get --data " + data_ + " abc").exit_code, 0);  // bad id
  EXPECT_NE(RunCli("ingest --data " + data_ + " /no/such/file.txt").exit_code, 0);
  EXPECT_NE(RunCli("frobnicate").exit_code, 0);                 // unknown command
}

// --config is checked strictly: a key the CLI does not read, in a section
// it owns, fails start-up with the section and key named.
TEST_F(CliTest, RemovedConfigKeyFailsStart) {
  auto ini = dir_->Sub("removed.ini");
  ASSERT_TRUE(WriteFile(ini, "[storage]\nwal_fsync = none\n").ok());
  CommandResult r = RunCli("ls --data " + data_ + " --config " + ini.string());
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("[storage]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("wal_fsync"), std::string::npos) << r.output;
}

TEST_F(CliTest, UnknownConfigKeyFailsStart) {
  auto ini = dir_->Sub("typo.ini");
  ASSERT_TRUE(WriteFile(ini, "[query]\ncache_entires = 64\n").ok());
  CommandResult r = RunCli("ls --data " + data_ + " --config " + ini.string());
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("[query]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("cache_entires"), std::string::npos) << r.output;
}

TEST_F(CliTest, BadConfigIntegerFailsStart) {
  auto negative = dir_->Sub("negative.ini");
  ASSERT_TRUE(WriteFile(negative, "[query]\ncache_entries = -1\n").ok());
  CommandResult r = RunCli("ls --data " + data_ + " --config " + negative.string());
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("cache_entries"), std::string::npos) << r.output;

  auto unparsed = dir_->Sub("unparsed.ini");
  ASSERT_TRUE(WriteFile(unparsed, "[storage]\ncheckpoint_bytes = 64MiB\n").ok());
  r = RunCli("ls --data " + data_ + " --config " + unparsed.string());
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("checkpoint_bytes"), std::string::npos) << r.output;
}

TEST_F(CliTest, ExampleServerConfigLoads) {
  CommandResult r = RunCli("ls --data " + data_ + " --config " +
                           std::string(NETMARK_EXAMPLE_SERVER_INI));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
}  // namespace netmark
