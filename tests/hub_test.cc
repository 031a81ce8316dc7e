#include <gtest/gtest.h>

#include "common/env.h"
#include "common/fault_env.h"
#include "data/dataset.h"
#include "hub/hub.h"
#include "nn/trainer.h"
#include "nn/zoo.h"

namespace modelhub {
namespace {

void CommitOne(Repository* repo, const std::string& name) {
  const Dataset ds = MakeBlobDataset(64, 4, 12, 0.05f, name.size());
  NetworkDef def = MiniVgg(4, 12, 1);
  def.set_name(name);
  auto net = Network::Create(def);
  ASSERT_TRUE(net.ok());
  Rng rng(1);
  net->InitializeWeights(&rng);
  TrainOptions options;
  options.iterations = 20;
  options.snapshot_every = 10;
  auto trained = TrainNetwork(&*net, ds, options);
  ASSERT_TRUE(trained.ok());
  CommitRequest request;
  request.name = name;
  request.network = def;
  request.snapshots = trained->snapshots;
  request.log = trained->log;
  ASSERT_TRUE(repo->Commit(request).ok());
}

TEST(CopyTreeTest, CopiesNestedTrees) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDirs("a/b/c").ok());
  ASSERT_TRUE(env.WriteFile("a/top.txt", "1").ok());
  ASSERT_TRUE(env.WriteFile("a/b/mid.txt", "2").ok());
  ASSERT_TRUE(env.WriteFile("a/b/c/leaf.txt", "3").ok());
  ASSERT_TRUE(CopyTree(&env, "a", "copy").ok());
  EXPECT_EQ(*env.ReadFile("copy/top.txt"), "1");
  EXPECT_EQ(*env.ReadFile("copy/b/mid.txt"), "2");
  EXPECT_EQ(*env.ReadFile("copy/b/c/leaf.txt"), "3");
  EXPECT_TRUE(CopyTree(&env, "missing", "x").IsNotFound());
}

class HubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto repo = Repository::Init(&env_, "local/alexrepo");
    ASSERT_TRUE(repo.ok());
    CommitOne(&*repo, "alexnet_v1");
    CommitOne(&*repo, "alexnet_v2");
    auto other = Repository::Init(&env_, "local/vggrepo");
    ASSERT_TRUE(other.ok());
    CommitOne(&*other, "vgg_tiny");
  }

  MemEnv env_;
};

TEST_F(HubTest, PublishSearchPull) {
  ModelHubService hub(&env_, "hub");
  ASSERT_TRUE(hub.Publish("local/alexrepo", "alice", "alexnets").ok());
  ASSERT_TRUE(hub.Publish("local/vggrepo", "bob", "vggs").ok());

  auto repos = hub.ListRepositories();
  ASSERT_TRUE(repos.ok());
  EXPECT_EQ(*repos,
            (std::vector<std::string>{"alice/alexnets", "bob/vggs"}));

  auto hits = hub.Search("alexnet%");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 2u);
  EXPECT_EQ((*hits)[0].user, "alice");
  EXPECT_EQ((*hits)[0].version_name, "alexnet_v1");
  EXPECT_EQ((*hits)[0].num_snapshots, 2);

  auto all = hub.Search("");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);

  // Pull to a new location and use the models.
  auto pulled = hub.Pull("alice", "alexnets", "local/clone");
  ASSERT_TRUE(pulled.ok());
  auto list = pulled->List();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
  auto params = pulled->GetSnapshotParams("alexnet_v2");
  EXPECT_TRUE(params.ok());
}

TEST_F(HubTest, PublishValidatesSource) {
  ModelHubService hub(&env_, "hub");
  EXPECT_TRUE(hub.Publish("local/nonexistent", "alice", "x").IsNotFound());
  EXPECT_TRUE(
      hub.Publish("local/alexrepo", "", "x").IsInvalidArgument());
}

TEST_F(HubTest, PullGuardsAndMisses) {
  ModelHubService hub(&env_, "hub");
  ASSERT_TRUE(hub.Publish("local/alexrepo", "alice", "alexnets").ok());
  EXPECT_TRUE(
      hub.Pull("alice", "nothere", "local/c2").status().IsNotFound());
  // Pulling over an existing repository is refused.
  EXPECT_TRUE(hub.Pull("alice", "alexnets", "local/alexrepo")
                  .status()
                  .IsAlreadyExists());
}

TEST_F(HubTest, RepublishOverwrites) {
  ModelHubService hub(&env_, "hub");
  ASSERT_TRUE(hub.Publish("local/alexrepo", "alice", "alexnets").ok());
  // Add a version locally and republish.
  auto repo = Repository::Open(&env_, "local/alexrepo");
  ASSERT_TRUE(repo.ok());
  CommitOne(&*repo, "alexnet_v3");
  ASSERT_TRUE(hub.Publish("local/alexrepo", "alice", "alexnets").ok());
  auto hits = hub.Search("alexnet_v3");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

TEST(CopyTreeTest, RemovesPartialDestinationOnFailure) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  ASSERT_TRUE(env.CreateDirs("src/staging").ok());
  ASSERT_TRUE(env.WriteFile("src/catalog.bin", "catalog").ok());
  ASSERT_TRUE(env.WriteFile("src/staging/params.bin", "weights").ok());

  // Reads of staging fail mid-copy; writes and deletes still work, so the
  // cleanup pass can (and must) tear the partial destination back down.
  env.FailReadsMatching("staging/params");
  const Status copied = CopyTree(&env, "src", "dst");
  EXPECT_TRUE(copied.IsIOError()) << copied.ToString();
  EXPECT_FALSE(env.DirExists("dst"))
      << "partial destination tree survived a failed copy";

  // With the fault cleared the same copy succeeds into the same place.
  env.Reset();
  ASSERT_TRUE(CopyTree(&env, "src", "dst").ok());
  EXPECT_EQ(*env.ReadFile("dst/staging/params.bin"), "weights");
}

TEST(CopyTreeTest, PreservesPreexistingDestinationOnFailure) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  ASSERT_TRUE(env.CreateDirs("src").ok());
  ASSERT_TRUE(env.WriteFile("src/a.bin", "new").ok());
  ASSERT_TRUE(env.WriteFile("src/b.bin", "new").ok());
  // The destination already hosts a good previous copy (re-publish).
  ASSERT_TRUE(env.CreateDirs("dst").ok());
  ASSERT_TRUE(env.WriteFile("dst/a.bin", "old").ok());

  env.FailReadsMatching("src/b.bin");
  EXPECT_FALSE(CopyTree(&env, "src", "dst").ok());
  // The previous copy must not be deleted out from under its users.
  EXPECT_TRUE(env.DirExists("dst"));
}

TEST_F(HubTest, FailedPublishLeavesNoPartialHostedRepo) {
  // A publish that dies halfway (a staging read fails mid-CopyTree) must
  // not leave a truncated hosted repository that looks pullable.
  FaultInjectionEnv faulty(&env_);
  ModelHubService hub(&faulty, "hub");
  faulty.FailReadsMatching("staging");
  const Status published = hub.Publish("local/alexrepo", "alice", "alexnets");
  EXPECT_FALSE(published.ok());
  EXPECT_FALSE(faulty.DirExists("hub/alice/alexnets"));

  // And the same publish succeeds once the fault clears.
  faulty.Reset();
  ASSERT_TRUE(hub.Publish("local/alexrepo", "alice", "alexnets").ok());
  EXPECT_TRUE(faulty.DirExists("hub/alice/alexnets"));
}

TEST_F(HubTest, CompactPublishArchivesThroughParallelPipeline) {
  ModelHubService hub(&env_, "hub");
  PublishOptions options;
  options.compact = true;
  options.archive.budget_alpha = 2.0;
  options.archive.archive_threads = 8;
  const MetricsSnapshot before = hub.Metrics();
  const MetricValue* compacts = before.Find("hub.publish.compact");
  const uint64_t compact_base = compacts ? compacts->counter : 0;

  ASSERT_TRUE(
      hub.Publish("local/alexrepo", "alice", "alexnets", options).ok());

  // The compaction ran against the source repository, so both the source
  // and the hosted copy are fully archived.
  auto source = Repository::Open(&env_, "local/alexrepo");
  ASSERT_TRUE(source.ok());
  auto source_list = source->List();
  ASSERT_TRUE(source_list.ok());
  for (const auto& info : *source_list) EXPECT_TRUE(info.archived);
  EXPECT_TRUE(env_.DirExists("hub/alice/alexnets/pas"));

  const MetricsSnapshot after_publish = hub.Metrics();
  compacts = after_publish.Find("hub.publish.compact");
  ASSERT_NE(compacts, nullptr);
  EXPECT_EQ(compacts->counter, compact_base + 1);

  // The hosted (archived) copy still pulls and serves parameters.
  auto pulled = hub.Pull("alice", "alexnets", "local/compact_clone");
  ASSERT_TRUE(pulled.ok());
  auto params = pulled->GetSnapshotParams("alexnet_v2");
  ASSERT_TRUE(params.ok());
  EXPECT_FALSE(params->empty());

  // Republishing with --compact when everything is archived is a no-op
  // compaction (no second archive pass, publish still succeeds).
  ASSERT_TRUE(
      hub.Publish("local/alexrepo", "alice", "alexnets", options).ok());
  const MetricsSnapshot after_republish = hub.Metrics();
  compacts = after_republish.Find("hub.publish.compact");
  ASSERT_NE(compacts, nullptr);
  EXPECT_EQ(compacts->counter, compact_base + 1);
}

TEST_F(HubTest, MetricsSnapshotCountsOperations) {
  ModelHubService hub(&env_, "hub");
  const MetricsSnapshot before = hub.Metrics();
  const MetricValue* publishes = before.Find("hub.publish.count");
  const uint64_t publish_base = publishes ? publishes->counter : 0;
  const MetricValue* searches = before.Find("hub.search.count");
  const uint64_t search_base = searches ? searches->counter : 0;

  ASSERT_TRUE(hub.Publish("local/alexrepo", "alice", "alexnets").ok());
  ASSERT_TRUE(hub.Search("alexnet%").ok());
  ASSERT_TRUE(hub.Search("vgg%").ok());
  ASSERT_TRUE(hub.Pull("alice", "alexnets", "local/metrics_clone").ok());

  const MetricsSnapshot after = hub.Metrics();
  publishes = after.Find("hub.publish.count");
  ASSERT_NE(publishes, nullptr);
  EXPECT_EQ(publishes->counter, publish_base + 1);
  searches = after.Find("hub.search.count");
  ASSERT_NE(searches, nullptr);
  EXPECT_EQ(searches->counter, search_base + 2);
  const MetricValue* pulls = after.Find("hub.pull.count");
  ASSERT_NE(pulls, nullptr);
  EXPECT_GE(pulls->counter, 1u);
}

}  // namespace
}  // namespace modelhub
