#include <gtest/gtest.h>

#include "common/env.h"
#include "data/dataset.h"
#include "dlv/repository.h"
#include "dql/engine.h"
#include "dql/lexer.h"
#include "dql/parser.h"
#include "nn/trainer.h"
#include "nn/zoo.h"

// (zoo provides MiniResNet for the structural-select test)

namespace modelhub {
namespace {

// ----------------------------------------------------------------- Lexer

TEST(DqlLexerTest, TokenizesAllShapes) {
  auto tokens = dql::Lex(
      "select m1 where m1.name like \"alex%\" and m1.acc >= 0.9");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 15u);  // 14 tokens + end.
  EXPECT_EQ((*tokens)[0].text, "select");
  EXPECT_EQ((*tokens)[4].text, ".");
  EXPECT_EQ((*tokens)[7].type, dql::TokenType::kString);
  EXPECT_EQ((*tokens)[7].text, "alex%");
  EXPECT_EQ((*tokens)[12].type, dql::TokenType::kSymbol);
  EXPECT_EQ((*tokens)[12].text, ">=");
  EXPECT_EQ((*tokens)[13].type, dql::TokenType::kNumber);
  EXPECT_EQ((*tokens)[13].text, "0.9");
  EXPECT_EQ((*tokens)[14].type, dql::TokenType::kEnd);
}

TEST(DqlLexerTest, NegativeAndScientificNumbers) {
  auto tokens = dql::Lex("-3 1e-4 2.5E+2");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "-3");
  EXPECT_EQ((*tokens)[1].text, "1e-4");
  EXPECT_EQ((*tokens)[2].text, "2.5E+2");
}

TEST(DqlLexerTest, ErrorsOnGarbage) {
  EXPECT_TRUE(dql::Lex("select #").status().IsInvalidArgument());
  EXPECT_TRUE(dql::Lex("\"unterminated").status().IsInvalidArgument());
}

TEST(DqlLexerTest, KeywordsCaseInsensitive) {
  auto tokens = dql::Lex("SELECT");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("select"));
  EXPECT_FALSE((*tokens)[0].IsKeyword("slice"));
}

// ---------------------------------------------------------------- Parser

TEST(DqlParserTest, PaperQuery1Select) {
  // Query 1 from the paper (dates become logical clocks in our repo).
  auto query = dql::Parse(
      "select m1 "
      "where m1.name like \"alexnet_%\" and "
      "      m1.creation_time > \"2015-11-22\" and "
      "      m1[\"conv[135]\"].next has POOL(\"MAX\")");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->kind, dql::Query::Kind::kSelect);
  EXPECT_EQ(query->select.var, "m1");
  ASSERT_EQ(query->select.where.disjuncts.size(), 1u);
  const auto& conj = query->select.where.disjuncts[0];
  ASSERT_EQ(conj.size(), 3u);
  EXPECT_EQ(conj[0].kind, dql::Predicate::Kind::kLike);
  EXPECT_EQ(conj[0].literal, "alexnet_%");
  EXPECT_EQ(conj[1].kind, dql::Predicate::Kind::kCompare);
  EXPECT_EQ(conj[1].op, dql::CompareOp::kGt);
  EXPECT_EQ(conj[2].kind, dql::Predicate::Kind::kSelectorHas);
  EXPECT_EQ(conj[2].selector, "conv[135]");
  EXPECT_TRUE(conj[2].direction_next);
  EXPECT_EQ(conj[2].template_name, "POOL");
  EXPECT_EQ(conj[2].template_arg, "MAX");
}

TEST(DqlParserTest, PaperQuery2Slice) {
  auto query = dql::Parse(
      "slice m2 from m1 "
      "where m1.name like \"alexnet-origin%\" "
      "mutate m2.input = m1[\"conv1\"] and m2.output = m1[\"fc7\"]");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->kind, dql::Query::Kind::kSlice);
  EXPECT_EQ(query->slice.new_var, "m2");
  EXPECT_EQ(query->slice.src_var, "m1");
  EXPECT_EQ(query->slice.input_selector, "conv1");
  EXPECT_EQ(query->slice.output_selector, "fc7");
}

TEST(DqlParserTest, PaperQuery3Construct) {
  auto query = dql::Parse(
      "construct m2 from m1 "
      "where m1.name like \"alexnet-avgv1%\" and "
      "      m1[\"conv.*\"].next has POOL(\"AVG\") "
      "mutate m1[\"conv.*\"].insert = RELU(\"relu_$\")");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->kind, dql::Query::Kind::kConstruct);
  ASSERT_EQ(query->construct.mutations.size(), 1u);
  const auto& mutation = query->construct.mutations[0];
  EXPECT_TRUE(mutation.is_insert);
  EXPECT_EQ(mutation.template_name, "RELU");
  EXPECT_EQ(mutation.new_name, "relu_$");
}

TEST(DqlParserTest, PaperQuery4Evaluate) {
  auto query = dql::Parse(
      "evaluate m "
      "from \"modelv%\" "
      "with config = default "
      "vary config.base_lr in [0.1, 0.01, 0.001] and "
      "     config.momentum auto and "
      "     config.input_data in [\"path1\", \"path2\"] "
      "keep top(5, m[\"loss\"], 100)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->kind, dql::Query::Kind::kEvaluate);
  const auto& evaluate = query->evaluate;
  EXPECT_EQ(evaluate.from_pattern, "modelv%");
  EXPECT_EQ(evaluate.config, "default");
  ASSERT_EQ(evaluate.vary.size(), 3u);
  EXPECT_EQ(evaluate.vary[0].values.size(), 3u);
  EXPECT_TRUE(evaluate.vary[1].is_auto);
  EXPECT_EQ(evaluate.vary[2].values[1], "path2");
  ASSERT_TRUE(evaluate.keep.has_value());
  EXPECT_EQ(evaluate.keep->top_k, 5);
  EXPECT_EQ(evaluate.keep->metric, "loss");
  EXPECT_EQ(evaluate.keep->iterations, 100);
}

TEST(DqlParserTest, NestedEvaluate) {
  auto query = dql::Parse(
      "evaluate m from "
      "(construct m2 from m1 where m1.name like \"base%\" "
      " mutate m1[\"pool1\"].insert = RELU(\"r_$\")) "
      "with config = default keep top(1, m[\"accuracy\"], 20)");
  ASSERT_TRUE(query.ok());
  ASSERT_NE(query->evaluate.subquery, nullptr);
  EXPECT_EQ(query->evaluate.subquery->kind, dql::Query::Kind::kConstruct);
}

TEST(DqlParserTest, OrConditionsBecomeDnf) {
  auto query = dql::Parse(
      "select m where (m.accuracy > 0.5 or m.loss < 1) and m.name like \"x%\"");
  ASSERT_TRUE(query.ok());
  // (A or B) and C -> {A,C}, {B,C}.
  EXPECT_EQ(query->select.where.disjuncts.size(), 2u);
  EXPECT_EQ(query->select.where.disjuncts[0].size(), 2u);
}

TEST(DqlParserTest, NotNegatesSinglePredicate) {
  auto query = dql::Parse(
      "select m where not m.name like \"alex%\" and m.accuracy > 0.5");
  ASSERT_TRUE(query.ok());
  const auto& conj = query->select.where.disjuncts[0];
  ASSERT_EQ(conj.size(), 2u);
  EXPECT_TRUE(conj[0].negated);
  EXPECT_FALSE(conj[1].negated);
}

TEST(DqlParserTest, Errors) {
  EXPECT_FALSE(dql::Parse("frobnicate m").ok());
  EXPECT_FALSE(dql::Parse("select m").ok());  // Missing where.
  EXPECT_FALSE(dql::Parse("select m where m2.name like \"x\"").ok());
  EXPECT_FALSE(dql::Parse("select m where m.name like \"x\" trailing").ok());
  EXPECT_FALSE(
      dql::Parse("slice s from m mutate s.input = m[\"a\"]").ok());
  EXPECT_FALSE(dql::Parse(
      "evaluate m from \"x\" with config = default keep top(1, m[\"f1\"], 5)")
                   .ok());
}

// -------------------------------------------------------------- LikeMatch

TEST(LikeMatchTest, Patterns) {
  EXPECT_TRUE(LikeMatch("alexnet_v1", "alexnet%"));
  EXPECT_TRUE(LikeMatch("alexnet", "alexnet%"));
  EXPECT_FALSE(LikeMatch("vgg", "alexnet%"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("abbc", "a_c"));
  EXPECT_TRUE(LikeMatch("anything", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("xyz", "%z"));
  EXPECT_TRUE(LikeMatch("model_v10", "model_v1%"));
}

// ---------------------------------------------------------------- Engine

class DqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto repo = Repository::Init(&env_, "repo");
    ASSERT_TRUE(repo.ok());
    repo_ = std::make_unique<Repository>(std::move(*repo));
    dataset_ = MakeBlobDataset(96, 4, 12, 0.05f, 17);

    // Commit two trained versions and one untrained variant.
    CommitVersion("alexnet_a", "", 0.1f);
    CommitVersion("alexnet_b", "alexnet_a", 0.01f);
    CommitVersion("vggish_c", "", 0.1f);
  }

  void CommitVersion(const std::string& name, const std::string& parent,
                     float lr) {
    NetworkDef def = MiniVgg(4, 12, 1);
    def.set_name(name);
    auto net = Network::Create(def);
    ASSERT_TRUE(net.ok());
    Rng rng(name.size());
    net->InitializeWeights(&rng);
    TrainOptions options;
    options.iterations = 30;
    options.snapshot_every = 15;
    options.log_every = 10;
    options.base_learning_rate = lr;
    auto trained = TrainNetwork(&*net, dataset_, options);
    ASSERT_TRUE(trained.ok());
    CommitRequest request;
    request.name = name;
    request.network = def;
    request.snapshots = trained->snapshots;
    request.log = trained->log;
    request.hyperparams = {{"base_lr", std::to_string(lr)}};
    request.parent = parent;
    ASSERT_TRUE(repo_->Commit(request).ok());
  }

  MemEnv env_;
  std::unique_ptr<Repository> repo_;
  Dataset dataset_;
};

TEST_F(DqlEngineTest, SelectByNameAndStructure) {
  DqlEngine engine(repo_.get());
  auto result = engine.Run(
      "select m1 where m1.name like \"alexnet%\" and "
      "m1[\"conv1_1\"].next has RELU()");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->model_names,
            (std::vector<std::string>{"alexnet_a", "alexnet_b"}));

  auto none = engine.Run(
      "select m1 where m1[\"pool1\"].next has POOL(\"AVG\")");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->model_names.empty());

  // pool1's prev is relu of conv1_1.
  auto prev = engine.Run("select m1 where m1[\"pool1\"].prev has RELU()");
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(prev->model_names.size(), 3u);
}

// A DQL query is untrusted text: a 100 000-byte selector is refused
// before std::regex compiles it, instead of overflowing the stack.
TEST_F(DqlEngineTest, OverlongSelectorIsInvalidArgument) {
  DqlEngine engine(repo_.get());
  auto result = engine.Run("select m1 where m1[\"" + std::string(100000, 'a') +
                           "\"].next has POOL(\"MAX\")");
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST_F(DqlEngineTest, NotPredicateInverts) {
  DqlEngine engine(repo_.get());
  auto others = engine.Run(
      "select m where not m.name like \"alexnet%\"");
  ASSERT_TRUE(others.ok());
  EXPECT_EQ(others->model_names, std::vector<std::string>{"vggish_c"});
  auto structural = engine.Run(
      "select m where not m[\"pool1\"].next has POOL(\"AVG\")");
  ASSERT_TRUE(structural.ok());
  EXPECT_EQ(structural->model_names.size(), 3u);  // Nobody has avg there.
}

TEST_F(DqlEngineTest, SelectResidualStructure) {
  // Commit an (untrained) residual version; structural predicates must see
  // the add joins through next/prev.
  NetworkDef def = MiniResNet(4, 12, 1, 4);
  def.set_name("resnet_r1");
  CommitRequest request;
  request.name = "resnet_r1";
  request.network = def;
  ASSERT_TRUE(repo_->Commit(request).ok());

  DqlEngine engine(repo_.get());
  auto with_add = engine.Run(
      "select m where m[\"res0_conv2\"].next has ADD()");
  ASSERT_TRUE(with_add.ok());
  EXPECT_EQ(with_add->model_names, std::vector<std::string>{"resnet_r1"});
  // The add's predecessors include a conv.
  auto pred = engine.Run(
      "select m where m[\"res0_add\"].prev has CONV()");
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->model_names, std::vector<std::string>{"resnet_r1"});
}

TEST_F(DqlEngineTest, SelectByMetadata) {
  DqlEngine engine(repo_.get());
  auto recent = engine.Run("select m where m.parent = \"alexnet_a\"");
  ASSERT_TRUE(recent.ok());
  EXPECT_EQ(recent->model_names, std::vector<std::string>{"alexnet_b"});

  auto accurate = engine.Run("select m where m.accuracy >= 0");
  ASSERT_TRUE(accurate.ok());
  EXPECT_EQ(accurate->model_names.size(), 3u);

  auto with_snapshots = engine.Run("select m where m.num_snapshots >= 2");
  ASSERT_TRUE(with_snapshots.ok());
  EXPECT_EQ(with_snapshots->model_names.size(), 3u);

  auto disjunction = engine.Run(
      "select m where m.name like \"vgg%\" or m.parent = \"alexnet_a\"");
  ASSERT_TRUE(disjunction.ok());
  EXPECT_EQ(disjunction->model_names.size(), 2u);
}

TEST_F(DqlEngineTest, SliceExtractsSubnetAndCommits) {
  DqlEngine engine(repo_.get());
  auto result = engine.Run(
      "slice m2 from m1 where m1.name = \"alexnet_a\" "
      "mutate m2.input = m1[\"conv1_1\"] and m2.output = m1[\"fc1\"]");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->networks.size(), 1u);
  const NetworkDef& sliced = result->networks[0];
  EXPECT_TRUE(sliced.HasNode("conv2_1"));
  EXPECT_FALSE(sliced.HasNode("fc2"));
  EXPECT_TRUE(sliced.IsChain());
  // Committed back with lineage.
  auto info = repo_->GetInfo(sliced.name());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->parent, "alexnet_a");
}

TEST_F(DqlEngineTest, ConstructInsertAndDelete) {
  DqlEngine engine(repo_.get(), DqlOptions{.commit_results = false});
  auto inserted = engine.Run(
      "construct m2 from m1 where m1.name = \"vggish_c\" "
      "mutate m1[\"pool.*\"].insert = DROPOUT(\"drop_$\")");
  ASSERT_TRUE(inserted.ok());
  ASSERT_EQ(inserted->networks.size(), 1u);
  EXPECT_TRUE(inserted->networks[0].HasNode("drop_pool1"));
  EXPECT_TRUE(inserted->networks[0].HasNode("drop_pool2"));
  EXPECT_TRUE(inserted->networks[0].IsChain());

  auto deleted = engine.Run(
      "construct m2 from m1 where m1.name = \"vggish_c\" "
      "mutate m1[\"relu_fc1\"].delete");
  ASSERT_TRUE(deleted.ok());
  ASSERT_EQ(deleted->networks.size(), 1u);
  EXPECT_FALSE(deleted->networks[0].HasNode("relu_fc1"));
  EXPECT_TRUE(deleted->networks[0].IsChain());
  // Nothing committed in this engine.
  EXPECT_TRUE(repo_->GetInfo("m2_vggish_c").status().IsNotFound());
}

TEST_F(DqlEngineTest, ConstructSkipsNonMatchingModels) {
  DqlEngine engine(repo_.get(), DqlOptions{.commit_results = false});
  auto result = engine.Run(
      "construct m2 from m1 mutate m1[\"no_such_node\"].insert = "
      "RELU(\"r\")");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->networks.empty());
}

TEST_F(DqlEngineTest, EvaluateGridSearchKeepsTopK) {
  DqlOptions options;
  options.commit_results = true;
  DqlEngine engine(repo_.get(), options);
  engine.RegisterDataset("default", &dataset_);
  auto result = engine.Run(
      "evaluate m from \"alexnet_a\" with config = default "
      "vary config.base_lr in [0.1, 0.001] "
      "keep top(1, m[\"accuracy\"], 25)");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->evaluated.size(), 1u);
  const EvaluatedModel& best = result->evaluated[0];
  EXPECT_GT(best.accuracy, 0.25);  // Better than chance.
  EXPECT_TRUE(best.config.count("base_lr"));
  // The keeper was committed with lineage back to the source.
  auto info = repo_->GetInfo(best.name);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->parent, "alexnet_a");
  EXPECT_EQ(info->num_snapshots, 1);
}

TEST_F(DqlEngineTest, EvaluateVaryInputData) {
  Dataset other = MakeBlobDataset(96, 4, 12, 0.3f, 99);  // Noisier task.
  DqlEngine engine(repo_.get(), DqlOptions{.commit_results = false});
  engine.RegisterDataset("default", &dataset_);
  engine.RegisterDataset("noisy", &other);
  auto result = engine.Run(
      "evaluate m from \"vggish_c\" with config = default "
      "vary config.input_data in [\"default\", \"noisy\"] "
      "keep top(2, m[\"accuracy\"], 20)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->evaluated.size(), 2u);
  // Results are sorted best-first.
  EXPECT_GE(result->evaluated[0].accuracy, result->evaluated[1].accuracy);

  auto missing = engine.Run(
      "evaluate m from \"vggish_c\" with config = default "
      "vary config.input_data in [\"nope\"]");
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST_F(DqlEngineTest, EvaluateNestedConstruct) {
  DqlEngine engine(repo_.get(), DqlOptions{.commit_results = false});
  engine.RegisterDataset("default", &dataset_);
  auto result = engine.Run(
      "evaluate m from "
      "(construct m2 from m1 where m1.name = \"vggish_c\" "
      " mutate m1[\"pool2\"].insert = TANH(\"t_$\")) "
      "with config = default keep top(1, m[\"loss\"], 15)");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->evaluated.size(), 1u);
  EXPECT_NE(result->evaluated[0].name.find("m2_vggish_c"),
            std::string::npos);
}

TEST_F(DqlEngineTest, EvaluateConfigFromVersion) {
  DqlEngine engine(repo_.get(), DqlOptions{.commit_results = false});
  engine.RegisterDataset("default", &dataset_);
  // Seed the config from alexnet_b's committed hyperparameters.
  auto result = engine.Run(
      "evaluate m from \"vggish_c\" with config = \"alexnet_b\" "
      "keep top(1, m[\"loss\"], 10)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->evaluated.size(), 1u);
}

TEST_F(DqlEngineTest, EvaluateWithoutDatasetFails) {
  DqlEngine engine(repo_.get(), DqlOptions{.commit_results = false});
  auto result = engine.Run(
      "evaluate m from \"vggish_c\" with config = default "
      "keep top(1, m[\"loss\"], 5)");
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// -------------------------------------------------------- EXPLAIN ANALYZE

TEST_F(DqlEngineTest, ExplainAnalyzeSelectReportsOperators) {
  DqlEngine engine(repo_.get());
  auto result =
      engine.Run("explain analyze select m1 where m1.name like \"alexnet%\"");
  ASSERT_TRUE(result.ok());
  // The query itself still executes.
  EXPECT_EQ(result->model_names,
            (std::vector<std::string>{"alexnet_a", "alexnet_b"}));
  ASSERT_TRUE(result->analyzed);
  ASSERT_EQ(result->plan.size(), 3u);
  const DqlOpStats& select = result->plan[0];
  const DqlOpStats& scan = result->plan[1];
  const DqlOpStats& filter = result->plan[2];
  EXPECT_EQ(select.op, "select");
  EXPECT_EQ(select.depth, 0);
  EXPECT_EQ(select.rows_out, 2u);
  EXPECT_EQ(scan.op, "scan");
  EXPECT_EQ(scan.detail, "versions");
  EXPECT_EQ(scan.depth, 1);
  EXPECT_EQ(scan.rows_out, 3u);  // All committed versions.
  EXPECT_EQ(filter.op, "filter");
  EXPECT_EQ(filter.depth, 1);
  EXPECT_EQ(filter.rows_in, 3u);
  EXPECT_EQ(filter.rows_out, 2u);
  for (const DqlOpStats& op : result->plan) EXPECT_GE(op.ms, 0.0);
  const std::string rendered = result->RenderPlan();
  EXPECT_NE(rendered.find("select"), std::string::npos);
  EXPECT_NE(rendered.find("  scan versions"), std::string::npos);
  EXPECT_NE(rendered.find("rows_out=2"), std::string::npos);
}

TEST_F(DqlEngineTest, ExplainAnalyzeSliceReportsOperators) {
  DqlEngine engine(repo_.get(), DqlOptions{.commit_results = false});
  auto result = engine.Run(
      "explain analyze slice m2 from m1 where m1.name = \"alexnet_a\" "
      "mutate m2.input = m1[\"conv1_1\"] and m2.output = m1[\"fc1\"]");
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->analyzed);
  EXPECT_EQ(result->networks.size(), 1u);
  ASSERT_EQ(result->plan.size(), 3u);
  const DqlOpStats& slice = result->plan[0];
  EXPECT_EQ(slice.op, "slice");
  EXPECT_EQ(slice.detail, "m2");
  EXPECT_EQ(slice.depth, 0);
  EXPECT_EQ(slice.rows_in, 1u);   // One matching source version.
  EXPECT_EQ(slice.rows_out, 1u);  // One derived network.
  EXPECT_EQ(result->plan[1].op, "scan");
  EXPECT_EQ(result->plan[2].op, "filter");
}

TEST_F(DqlEngineTest, ExplainAnalyzeEvaluateReportsPipeline) {
  DqlEngine engine(repo_.get(), DqlOptions{.commit_results = false});
  engine.RegisterDataset("default", &dataset_);
  auto result = engine.Run(
      "explain analyze evaluate m from \"alexnet_a\" with config = default "
      "keep top(1, m[\"loss\"], 5)");
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->analyzed);
  EXPECT_EQ(result->evaluated.size(), 1u);
  // evaluate > candidates / grid / train / keep, in execution order.
  std::vector<std::string> ops;
  for (const DqlOpStats& op : result->plan) ops.push_back(op.op);
  EXPECT_EQ(ops, (std::vector<std::string>{"evaluate", "candidates", "grid",
                                           "train", "keep"}));
  EXPECT_EQ(result->plan[0].depth, 0);
  for (size_t i = 1; i < result->plan.size(); ++i) {
    EXPECT_EQ(result->plan[i].depth, 1);
  }
  const DqlOpStats& train = result->plan[3];
  EXPECT_EQ(train.rows_in, 1u);
  EXPECT_EQ(train.rows_out, 1u);
  EXPECT_GT(train.ms, 0.0);  // Training takes measurable time.
}

TEST_F(DqlEngineTest, PlainQueriesCarryNoPlan) {
  DqlEngine engine(repo_.get());
  auto result = engine.Run("select m where m.accuracy >= 0");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->analyzed);
  EXPECT_TRUE(result->plan.empty());
}

TEST(DqlParserTest, ExplainRequiresAnalyze) {
  EXPECT_TRUE(dql::Parse("explain select m where m.accuracy >= 0")
                  .status()
                  .IsInvalidArgument());
  auto query = dql::Parse("EXPLAIN ANALYZE select m where m.accuracy >= 0");
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(query->analyze);
  EXPECT_EQ(query->kind, dql::Query::Kind::kSelect);
}

}  // namespace
}  // namespace modelhub
