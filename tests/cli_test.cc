// Integration test of the dlv command-line client: drives the real binary
// end to end through init -> demo -> explore -> query -> archive ->
// report -> publish -> search -> pull.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/env.h"

namespace modelhub {
namespace {

#ifndef DLV_BINARY
#error "DLV_BINARY must be defined by the build"
#endif

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_ = ::testing::TempDir() + "/dlv_cli_test";
    // Fresh workspace per run.
    std::system(("rm -rf " + work_).c_str());
    ASSERT_TRUE(Env::Default()->CreateDirs(work_).ok());
  }

  /// Runs `dlv <args>`, returning the exit code.
  int Dlv(const std::string& args) {
    const std::string command =
        std::string(DLV_BINARY) + " " + args + " >/dev/null 2>&1";
    const int raw = std::system(command.c_str());
    return WEXITSTATUS(raw);
  }

  /// Runs `dlv <args>` and returns captured output (stdout first, then
  /// stderr); `exit_code` receives the process exit status.
  std::string DlvOutput(const std::string& args, int* exit_code) {
    const std::string out = work_ + "/cli_out.txt";
    const std::string err = work_ + "/cli_err.txt";
    const std::string command = std::string(DLV_BINARY) + " " + args + " >" +
                                out + " 2>" + err;
    const int raw = std::system(command.c_str());
    *exit_code = WEXITSTATUS(raw);
    std::string text;
    for (const auto& path : {out, err}) {
      auto contents = Env::Default()->ReadFile(path);
      if (contents.ok()) text += *contents;
    }
    return text;
  }

  std::string work_;
};

TEST_F(CliTest, FullLifecycle) {
  const std::string repo = work_ + "/repo";
  const std::string hub = work_ + "/hub";

  ASSERT_EQ(Dlv("init " + repo), 0);
  // Re-init fails.
  EXPECT_NE(Dlv("init " + repo), 0);

  ASSERT_EQ(Dlv("demo " + repo + " 3"), 0);
  EXPECT_EQ(Dlv("list " + repo), 0);
  EXPECT_EQ(Dlv("desc " + repo + " model_v0"), 0);
  EXPECT_NE(Dlv("desc " + repo + " nope"), 0);
  EXPECT_EQ(Dlv("diff " + repo + " model_v0 model_v1"), 0);
  EXPECT_EQ(Dlv("pdiff " + repo + " model_v0 model_v1"), 0);
  EXPECT_EQ(Dlv("compare " + repo + " model_v0 model_v1 16"), 0);
  EXPECT_EQ(Dlv("copy " + repo + " model_v0 scaffold"), 0);
  EXPECT_EQ(Dlv("eval " + repo + " model_v0 16"), 0);

  EXPECT_EQ(Dlv("query " + repo +
                " 'select m where m.name like \"model%\"'"),
            0);
  EXPECT_NE(Dlv("query " + repo + " 'not a query'"), 0);

  const std::string html = work_ + "/report.html";
  EXPECT_EQ(Dlv("report " + repo + " " + html), 0);
  auto contents = Env::Default()->ReadFile(html);
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find("model_v0"), std::string::npos);
  EXPECT_NE(contents->find("</html>"), std::string::npos);

  EXPECT_EQ(Dlv("archive " + repo + " pas-pt 1.8"), 0);
  // Snapshots still readable post-archive.
  EXPECT_EQ(Dlv("eval " + repo + " model_v1 8"), 0);

  EXPECT_EQ(Dlv("publish " + hub + " " + repo + " alice models"), 0);
  EXPECT_EQ(Dlv("search " + hub + " 'model%'"), 0);
  EXPECT_EQ(Dlv("pull " + hub + " alice models " + work_ + "/clone"), 0);
  EXPECT_EQ(Dlv("list " + work_ + "/clone"), 0);
  // Pulling over an existing repo fails.
  EXPECT_NE(Dlv("pull " + hub + " alice models " + repo), 0);
}

TEST_F(CliTest, FsckSmoke) {
  const std::string repo = work_ + "/repo";
  ASSERT_EQ(Dlv("init " + repo), 0);
  ASSERT_EQ(Dlv("demo " + repo + " 2"), 0);
  ASSERT_EQ(Dlv("archive " + repo + " pas-pt 1.8"), 0);

  // A healthy repository passes.
  EXPECT_EQ(Dlv("fsck " + repo), 0);

  // Flip one bit in the archive chunk store; fsck must notice and fail.
  Env* env = Env::Default();
  const std::string chunks = repo + "/pas/chunks-1.bin";
  auto contents = env->ReadFile(chunks);
  ASSERT_TRUE(contents.ok());
  ASSERT_GT(contents->size(), 64u);
  std::string corrupt = *contents;
  corrupt[64] ^= 0x01;
  ASSERT_TRUE(env->WriteFile(chunks, corrupt).ok());
  EXPECT_NE(Dlv("fsck " + repo), 0);

  // Restore and confirm clean again; a missing repository is an error.
  ASSERT_TRUE(env->WriteFile(chunks, *contents).ok());
  EXPECT_EQ(Dlv("fsck " + repo), 0);
  EXPECT_NE(Dlv("fsck " + work_ + "/missing"), 0);
  EXPECT_EQ(Dlv("fsck " + repo + " --bogus"), 2);
}

TEST_F(CliTest, DedupStatsSmoke) {
  const std::string repo = work_ + "/repo";
  ASSERT_EQ(Dlv("init " + repo), 0);
  ASSERT_EQ(Dlv("demo " + repo + " 2"), 0);
  ASSERT_EQ(Dlv("archive " + repo + " pas-pt 1.8"), 0);

  int code = 0;
  const std::string out = DlvOutput("dedup-stats " + repo, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("dedup ratio"), std::string::npos) << out;

  const std::string json = DlvOutput("dedup-stats " + repo + " --json", &code);
  EXPECT_EQ(code, 0) << json;
  EXPECT_NE(json.find("\"dedup_ratio\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"stored_bytes\""), std::string::npos) << json;

  // Bad flag is a usage error; an unarchived repo has no manifest.
  EXPECT_EQ(Dlv("dedup-stats " + repo + " --bogus"), 2);
  EXPECT_NE(Dlv("dedup-stats " + work_ + "/missing"), 0);
}

TEST_F(CliTest, UsageAndBadCommands) {
  EXPECT_EQ(Dlv(""), 2);
  EXPECT_EQ(Dlv("frobnicate"), 2);
  EXPECT_EQ(Dlv("list"), 2);  // Missing argument.
  EXPECT_NE(Dlv("list " + work_ + "/missing"), 0);
  EXPECT_NE(Dlv("archive " + work_ + "/missing nosuchsolver"), 0);
}

TEST_F(CliTest, UsageListsEverySubcommand) {
  int code = 0;
  const std::string usage = DlvOutput("", &code);
  EXPECT_EQ(code, 2);
  const char* subcommands[] = {
      "init",    "demo", "copy",  "archive", "fsck", "list",
      "desc",    "diff", "pdiff", "compare", "eval", "retrieve",
      "query",   "report", "publish", "search", "pull", "stats",
      "serve",   "rpc",  "trace", "dedup-stats",
  };
  for (const char* subcommand : subcommands) {
    EXPECT_NE(usage.find(std::string("dlv ") + subcommand), std::string::npos)
        << "usage text is missing subcommand: " << subcommand;
  }
}

TEST_F(CliTest, RpcExitCodesDistinguishTransportFromServerErrors) {
  // Port 1 is never listening: a refused connection is a transport
  // fault and must exit 3 (distinct from a served error's exit 1).
  int code = 0;
  const std::string out = DlvOutput("rpc 127.0.0.1:1 ping", &code);
  EXPECT_EQ(code, 3) << out;
  EXPECT_NE(out.find("Unavailable"), std::string::npos);

  // Usage errors stay on the usual exit 2.
  EXPECT_EQ(Dlv("rpc"), 2);
  EXPECT_EQ(Dlv("rpc 127.0.0.1:1"), 2);
  EXPECT_EQ(Dlv("rpc no-port-here ping"), 2);
  EXPECT_EQ(Dlv("serve"), 2);

  // `dlv trace` shares the endpoint grammar and the transport exit code.
  EXPECT_EQ(Dlv("trace"), 2);
  EXPECT_EQ(Dlv("trace --fleet no-port-here"), 2);
  EXPECT_EQ(Dlv("trace --fleet 127.0.0.1:1"), 3);
}

TEST_F(CliTest, StatsJsonCoversSubsystems) {
  const std::string repo = work_ + "/repo";
  ASSERT_EQ(Dlv("init " + repo), 0);
  ASSERT_EQ(Dlv("demo " + repo + " 2"), 0);
  ASSERT_EQ(Dlv("archive " + repo + " pas-pt 1.8"), 0);

  int code = 0;
  const std::string trace = work_ + "/trace.json";
  const std::string json =
      DlvOutput("stats " + repo + " --json --trace " + trace, &code);
  ASSERT_EQ(code, 0) << json;

  // Valid top-level shape and coverage of each instrumented subsystem.
  EXPECT_EQ(json.find('{'), 0u);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  const char* prefixes[] = {"pas.chunk.", "pas.retrieve.", "codec.",
                            "pas.solver.", "dlv.commit."};
  for (const char* prefix : prefixes) {
    EXPECT_NE(json.find(prefix), std::string::npos)
        << "stats --json is missing metrics with prefix: " << prefix;
  }

  // The Chrome trace export landed and holds complete duration events.
  auto chrome = Env::Default()->ReadFile(trace);
  ASSERT_TRUE(chrome.ok());
  EXPECT_EQ(chrome->front(), '[');
  EXPECT_NE(chrome->find("\"ph\":\"X\""), std::string::npos);

  // Human-readable mode works against the same repository.
  const std::string text = DlvOutput("stats " + repo, &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(text.find("pas.chunk.fetch.count"), std::string::npos);
  EXPECT_NE(text.find("dlv.commit.count"), std::string::npos);

  // Prometheus exposition mode: typed families, underscore names,
  // cumulative histogram buckets ending in +Inf.
  const std::string prom = DlvOutput("stats " + repo + " --prom", &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(prom.find("# TYPE "), std::string::npos);
  EXPECT_NE(prom.find("pas_chunk_fetch_count"), std::string::npos);
  EXPECT_NE(prom.find("_bucket{le=\"+Inf\"}"), std::string::npos);

  // Bad flags and a missing repository are reported as errors.
  EXPECT_EQ(Dlv("stats " + repo + " --bogus"), 2);
  EXPECT_NE(Dlv("stats " + work_ + "/missing"), 0);
}

}  // namespace
}  // namespace modelhub
