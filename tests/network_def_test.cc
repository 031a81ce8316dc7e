#include <gtest/gtest.h>

#include "nn/network_def.h"
#include "nn/zoo.h"

namespace modelhub {
namespace {

NetworkDef SmallChain() {
  NetworkDef def("test", 1, 12, 12);
  EXPECT_TRUE(def.Append(MakeConv("conv1", 4, 3)).ok());
  EXPECT_TRUE(def.Append(MakePool("pool1", PoolMode::kMax, 2, 2)).ok());
  EXPECT_TRUE(def.Append(MakeFull("fc1", 10)).ok());
  EXPECT_TRUE(def.Append(MakeActivation("prob", LayerKind::kSoftmax)).ok());
  return def;
}

TEST(LayerDefTest, KindStringRoundTrip) {
  for (LayerKind kind :
       {LayerKind::kInput, LayerKind::kConv, LayerKind::kPool,
        LayerKind::kFull, LayerKind::kReLU, LayerKind::kSigmoid,
        LayerKind::kTanh, LayerKind::kSoftmax, LayerKind::kFlatten,
        LayerKind::kDropout, LayerKind::kLRN}) {
    auto parsed = LayerKindFromString(LayerKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_TRUE(LayerKindFromString("bogus").status().IsInvalidArgument());
}

TEST(LayerDefTest, ValidationRejectsBadHyperparameters) {
  EXPECT_TRUE(MakeConv("c", 0, 3).Validate().IsInvalidArgument());
  EXPECT_TRUE(MakeConv("c", 8, -1).Validate().IsInvalidArgument());
  EXPECT_TRUE(MakePool("p", PoolMode::kMax, 0, 1).Validate().IsInvalidArgument());
  EXPECT_TRUE(MakeFull("f", -2).Validate().IsInvalidArgument());
  EXPECT_TRUE(MakeDropout("d", 1.5f).Validate().IsInvalidArgument());
  EXPECT_TRUE(MakeLRN("l", 4).Validate().IsInvalidArgument());  // Even size.
  LayerDef unnamed;
  EXPECT_TRUE(unnamed.Validate().IsInvalidArgument());
}

TEST(NetworkDefTest, AppendBuildsChain) {
  NetworkDef def = SmallChain();
  EXPECT_TRUE(def.Validate().ok());
  EXPECT_TRUE(def.IsChain());
  auto order = def.TopoOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(*order, (std::vector<std::string>{"conv1", "pool1", "fc1",
                                              "prob"}));
}

TEST(NetworkDefTest, DuplicateNameRejected) {
  NetworkDef def("t", 1, 8, 8);
  ASSERT_TRUE(def.Append(MakeConv("c", 2, 3)).ok());
  EXPECT_TRUE(def.Append(MakeConv("c", 2, 3)).IsAlreadyExists());
}

TEST(NetworkDefTest, NextPrevTraversal) {
  NetworkDef def = SmallChain();
  EXPECT_EQ(def.Next("conv1"), std::vector<std::string>{"pool1"});
  EXPECT_EQ(def.Prev("pool1"), std::vector<std::string>{"conv1"});
  EXPECT_TRUE(def.Next("prob").empty());
  EXPECT_TRUE(def.Prev("conv1").empty());
}

TEST(NetworkDefTest, SelectRegex) {
  NetworkDef def = Vgg16();
  auto sel = def.Select("conv[13]_1");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (std::vector<std::string>{"conv1_1", "conv3_1"}));
  auto all_convs = def.Select("conv.*");
  ASSERT_TRUE(all_convs.ok());
  EXPECT_EQ(all_convs->size(), 13u);
  EXPECT_TRUE(def.Select("conv[").status().IsInvalidArgument());
  EXPECT_TRUE(
      def.Select(std::string(100000, 'a')).status().IsInvalidArgument());
}

TEST(NetworkDefTest, InsertAfterSplitsEdge) {
  NetworkDef def = SmallChain();
  ASSERT_TRUE(
      def.InsertAfter("conv1", MakeActivation("relu1", LayerKind::kReLU))
          .ok());
  EXPECT_EQ(def.Next("conv1"), std::vector<std::string>{"relu1"});
  EXPECT_EQ(def.Next("relu1"), std::vector<std::string>{"pool1"});
  EXPECT_TRUE(def.IsChain());
  EXPECT_TRUE(def.Validate().ok());
}

TEST(NetworkDefTest, InsertAfterTail) {
  NetworkDef def = SmallChain();
  ASSERT_TRUE(
      def.InsertAfter("prob", MakeActivation("extra", LayerKind::kReLU)).ok());
  EXPECT_EQ(def.Next("prob"), std::vector<std::string>{"extra"});
  EXPECT_TRUE(def.IsChain());
}

TEST(NetworkDefTest, DeleteNodeReconnects) {
  NetworkDef def = SmallChain();
  ASSERT_TRUE(def.DeleteNode("pool1").ok());
  EXPECT_EQ(def.Next("conv1"), std::vector<std::string>{"fc1"});
  EXPECT_TRUE(def.IsChain());
  EXPECT_TRUE(def.DeleteNode("missing").IsNotFound());
}

TEST(NetworkDefTest, SliceExtractsSubgraph) {
  NetworkDef def = Vgg16();
  auto sliced = def.Slice("conv1_1", "pool2");
  ASSERT_TRUE(sliced.ok());
  EXPECT_EQ(sliced->nodes().size(), 10u);  // 4 conv+relu pairs + 2 pools.
  EXPECT_TRUE(sliced->HasNode("conv2_2"));
  EXPECT_FALSE(sliced->HasNode("conv3_1"));
  EXPECT_TRUE(sliced->IsChain());
  // No path end -> start.
  EXPECT_TRUE(
      def.Slice("pool2", "conv1_1").status().IsInvalidArgument());
}

TEST(NetworkDefTest, CycleDetected) {
  NetworkDef def("t", 1, 8, 8);
  ASSERT_TRUE(def.AddNode(MakeActivation("a", LayerKind::kReLU)).ok());
  ASSERT_TRUE(def.AddNode(MakeActivation("b", LayerKind::kReLU)).ok());
  ASSERT_TRUE(def.AddEdge("a", "b").ok());
  ASSERT_TRUE(def.AddEdge("b", "a").ok());
  EXPECT_FALSE(def.Validate().ok());
  EXPECT_FALSE(def.TopoOrder().ok());
}

TEST(NetworkDefTest, SerializeParseRoundTrip) {
  for (const NetworkDef& def :
       {LeNet(), MiniLeNet(), AlexNetStyle(), Vgg16(), MiniVgg(10, 16, 2),
        MiniResNet(6, 12, 2, 4), ResNetStyle(10, 3, 8)}) {
    auto parsed = NetworkDef::Parse(def.Serialize());
    ASSERT_TRUE(parsed.ok()) << def.name();
    EXPECT_TRUE(*parsed == def) << def.name();
  }
}

TEST(NetworkDefTest, ParseRejectsGarbage) {
  EXPECT_FALSE(NetworkDef::Parse("bogus line\n").ok());
  EXPECT_FALSE(NetworkDef::Parse("node x conv badattr\n").ok());
  EXPECT_FALSE(NetworkDef::Parse("node x nosuchkind\n").ok());
  EXPECT_FALSE(NetworkDef::Parse("edge a b\n").ok());  // Missing nodes.
}

TEST(NetworkDefTest, ShapeInference) {
  NetworkDef def = SmallChain();
  auto shapes = InferChainShapes(def);
  ASSERT_TRUE(shapes.ok());
  // conv1: 12-3+1 = 10; pool: 5; fc: 10x1x1.
  EXPECT_EQ((*shapes)[0].c, 4);
  EXPECT_EQ((*shapes)[0].h, 10);
  EXPECT_EQ((*shapes)[1].h, 5);
  EXPECT_EQ((*shapes)[2].c, 10);
  EXPECT_EQ((*shapes)[2].h, 1);
}

TEST(NetworkDefTest, ShapeUnderflowRejected) {
  NetworkDef def("t", 1, 4, 4);
  ASSERT_TRUE(def.Append(MakeConv("c", 2, 7)).ok());  // Kernel > input.
  EXPECT_FALSE(InferChainShapes(def).ok());
}

// Table I parameter counts: LeNet must match the paper exactly; the large
// architectures must land on their canonical published counts.
TEST(ZooTest, LeNetParameterCountMatchesPaper) {
  auto count = LeNet().ParameterCount();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 431080);  // 4.31e5 in Table I.
}

TEST(ZooTest, AlexNetParameterCountIsCanonical) {
  auto count = AlexNetStyle().ParameterCount();
  ASSERT_TRUE(count.ok());
  // ~61M (6e7 in Table I).
  EXPECT_GT(*count, 55'000'000);
  EXPECT_LT(*count, 65'000'000);
}

TEST(ZooTest, Vgg16ParameterCountIsCanonical) {
  auto count = Vgg16().ParameterCount();
  ASSERT_TRUE(count.ok());
  // Canonical VGG-16: ~138M parameters.
  EXPECT_GT(*count, 130'000'000);
  EXPECT_LT(*count, 145'000'000);
}

TEST(ZooTest, AllZooChainsValidate) {
  for (const NetworkDef& def :
       {LeNet(), MiniLeNet(), AlexNetStyle(), Vgg16(), MiniVgg(10, 16, 1)}) {
    EXPECT_TRUE(def.Validate().ok()) << def.name();
    EXPECT_TRUE(def.IsChain()) << def.name();
    EXPECT_TRUE(InferChainShapes(def).ok()) << def.name();
  }
  // Residual factories are DAGs, not chains, but must infer shapes.
  for (const NetworkDef& def : {ResNetStyle(10, 4, 16), MiniResNet(6, 12)}) {
    EXPECT_TRUE(def.Validate().ok()) << def.name();
    EXPECT_FALSE(def.IsChain()) << def.name();
    EXPECT_TRUE(InferDagShapes(def).ok()) << def.name();
    EXPECT_FALSE(InferChainShapes(def).ok()) << def.name();
  }
}

}  // namespace
}  // namespace modelhub
