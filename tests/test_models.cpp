#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "models/registry.hpp"
#include "nn/loss.hpp"

namespace remapd {
namespace {

class ModelZooTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelZooTest, BuildsAndRunsForward) {
  Rng rng(42);
  ModelConfig cfg;
  cfg.num_classes = 10;
  cfg.input_size = 16;
  Model m = build_model(GetParam(), cfg, rng);
  EXPECT_EQ(m.name, GetParam());

  Tensor x = Tensor::randn(Shape{2, 3, 16, 16}, rng);
  Tensor y = m.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
  for (std::size_t i = 0; i < y.numel(); ++i)
    ASSERT_TRUE(std::isfinite(y[i]));
}

TEST_P(ModelZooTest, BackwardProducesGradients) {
  Rng rng(43);
  ModelConfig cfg;
  cfg.input_size = 16;
  Model m = build_model(GetParam(), cfg, rng);
  Tensor x = Tensor::randn(Shape{4, 3, 16, 16}, rng);
  Tensor logits = m.forward(x, true);
  LossResult lr = softmax_cross_entropy(logits, {0, 1, 2, 3});
  m.backward(lr.dlogits);

  double grad_norm = 0.0;
  for (Param* p : m.params())
    for (std::size_t i = 0; i < p->grad.numel(); ++i)
      grad_norm += static_cast<double>(p->grad[i]) * p->grad[i];
  EXPECT_GT(grad_norm, 0.0);
  EXPECT_TRUE(std::isfinite(grad_norm));
}

TEST_P(ModelZooTest, HasFaultableLayers) {
  Rng rng(44);
  Model m = build_model(GetParam(), ModelConfig{}, rng);
  const auto layers = m.faultable();
  EXPECT_FALSE(layers.empty());
  std::size_t total = 0;
  for (FaultableLayer* l : layers) {
    EXPECT_GT(l->weight_rows(), 0u);
    EXPECT_GT(l->weight_cols(), 0u);
    total += l->weight_rows() * l->weight_cols();
  }
  EXPECT_EQ(total, m.total_mapped_weights());
}

TEST_P(ModelZooTest, VariableInputSizeSupported) {
  Rng rng(45);
  ModelConfig cfg;
  cfg.input_size = 8;
  Model m = build_model(GetParam(), cfg, rng);
  Tensor x = Tensor::randn(Shape{1, 3, 8, 8}, rng);
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{1, 10}));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelZooTest,
                         ::testing::ValuesIn(model_zoo()));

TEST(ModelZoo, ContainsThePaperSixModels) {
  const auto& zoo = model_zoo();
  EXPECT_EQ(zoo.size(), 6u);
  for (const char* name : {"vgg11", "vgg16", "vgg19", "resnet12", "resnet18",
                           "squeezenet"})
    EXPECT_NE(std::find(zoo.begin(), zoo.end(), name), zoo.end()) << name;
}

TEST(ModelZoo, UnknownNameThrows) {
  Rng rng(46);
  EXPECT_THROW(build_model("alexnet", ModelConfig{}, rng),
               std::invalid_argument);
  EXPECT_THROW(build_vgg(13, ModelConfig{}, rng), std::invalid_argument);
  EXPECT_THROW(build_resnet(34, ModelConfig{}, rng), std::invalid_argument);
}

TEST(ModelZoo, DepthOrderingInConvCount) {
  // VGG19 has strictly more faultable layers than VGG16 than VGG11, and
  // ResNet-18 more than ResNet-12 (the "6 conv layers removed" variant).
  Rng rng(47);
  auto count = [&](const std::string& name) {
    Model m = build_model(name, ModelConfig{}, rng);
    return m.faultable().size();
  };
  EXPECT_LT(count("vgg11"), count("vgg16"));
  EXPECT_LT(count("vgg16"), count("vgg19"));
  EXPECT_LT(count("resnet12"), count("resnet18"));
  // ResNet-12 = ResNet-18 minus 3 basic blocks = 6 convolutions.
  Model r18 = build_model("resnet18", ModelConfig{}, rng);
  Model r12 = build_model("resnet12", ModelConfig{}, rng);
  EXPECT_EQ(r18.faultable().size() - r12.faultable().size(), 6u);
}

TEST(ModelZoo, FaultableOrderIsPinned) {
  // The crossbar mapper and checkpoints index layers by their position in
  // Model::faultable(); reordering it would remap every task silently.
  const auto tags = [](const std::string& name) {
    Rng rng(49);
    Model m = build_model(name, ModelConfig{}, rng);
    std::vector<std::string> out;
    for (FaultableLayer* l : m.faultable()) out.push_back(l->name());
    return out;
  };
  EXPECT_EQ(tags("resnet12"),
            (std::vector<std::string>{
                "stem", "s0b0.conv1", "s0b0.conv2", "s1b0.conv1",
                "s1b0.conv2", "s1b0.proj", "s2b0.conv1", "s2b0.conv2",
                "s2b0.proj", "s3b0.conv1", "s3b0.conv2", "s3b0.proj",
                "s3b1.conv1", "s3b1.conv2", "fc"}));
  EXPECT_EQ(tags("squeezenet"),
            (std::vector<std::string>{
                "stem", "fire0.squeeze", "fire0.expand1", "fire0.expand3",
                "fire1.squeeze", "fire1.expand1", "fire1.expand3",
                "fire2.squeeze", "fire2.expand1", "fire2.expand3",
                "fire3.squeeze", "fire3.expand1", "fire3.expand3",
                "fire4.squeeze", "fire4.expand1", "fire4.expand3",
                "fire5.squeeze", "fire5.expand1", "fire5.expand3",
                "classifier"}));
}

TEST(ModelZoo, WidthScalesWithBaseWidth) {
  Rng rng(48);
  ModelConfig narrow, wide;
  narrow.base_width = 8;
  wide.base_width = 16;
  Model a = build_model("resnet12", narrow, rng);
  Model b = build_model("resnet12", wide, rng);
  EXPECT_GT(b.total_mapped_weights(), 3 * a.total_mapped_weights());
}

TEST(ModelZoo, ClassCountPropagates) {
  Rng rng(49);
  ModelConfig cfg;
  cfg.num_classes = 20;
  Model m = build_model("squeezenet", cfg, rng);
  Tensor x = Tensor::randn(Shape{1, 3, 16, 16}, rng);
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{1, 20}));
}

}  // namespace
}  // namespace remapd
