#include <gtest/gtest.h>

#include "arch/config_io.hpp"
#include "dse/cross_branch.hpp"
#include "arch/platform.hpp"
#include "nn/zoo/avatar_decoder.hpp"

namespace fcad::arch {
namespace {

struct Fixture {
  ReorganizedModel model;
  AcceleratorConfig config;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    auto model = reorganize(nn::zoo::avatar_decoder());
    FCAD_CHECK(model.is_ok());
    dse::Customization cust;
    cust.batch_sizes = {1, 2, 2};
    cust.priorities = {1, 1, 1};
    dse::CrossBranchOptions opt;
    opt.population = 20;
    opt.iterations = 4;
    const auto search = dse::cross_branch_search(
        *model, dse::ResourceBudget::from_platform(platform_zu9cg()), cust,
        opt);
    return Fixture{std::move(model).value(), search.config};
  }();
  return f;
}

TEST(ConfigIoTest, RoundTrip) {
  const std::string text = config_to_text(fixture().model, fixture().config);
  auto parsed = config_from_text(fixture().model, text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->datapath, fixture().config.datapath);
  EXPECT_EQ(parsed->freq_mhz, fixture().config.freq_mhz);
  ASSERT_EQ(parsed->branches.size(), fixture().config.branches.size());
  for (std::size_t b = 0; b < parsed->branches.size(); ++b) {
    EXPECT_EQ(parsed->branches[b].batch, fixture().config.branches[b].batch);
    EXPECT_EQ(parsed->branches[b].units, fixture().config.branches[b].units);
  }
}

TEST(ConfigIoTest, RoundTripEvaluatesIdentically) {
  const std::string text = config_to_text(fixture().model, fixture().config);
  auto parsed = config_from_text(fixture().model, text);
  ASSERT_TRUE(parsed.is_ok());
  const auto a =
      evaluate(fixture().model, fixture().config, EvalMode::kQuantized);
  const auto b = evaluate(fixture().model, *parsed, EvalMode::kQuantized);
  EXPECT_EQ(a.dsps, b.dsps);
  EXPECT_EQ(a.brams, b.brams);
  EXPECT_DOUBLE_EQ(a.min_fps, b.min_fps);
}

TEST(ConfigIoTest, MissingHeaderRejected) {
  auto parsed = config_from_text(fixture().model, "branch 0 batch=1\n");
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("header"), std::string::npos);
}

TEST(ConfigIoTest, UnknownStageRejected) {
  const std::string text =
      "accelerator datapath=pipelined-int8 freq_mhz=200\n"
      "branch 0 batch=1\n"
      "unit nonexistent_conv cpf=1 kpf=1 h=1\n";
  auto parsed = config_from_text(fixture().model, text);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("unknown stage"),
            std::string::npos);
}

TEST(ConfigIoTest, WrongBranchRejected) {
  // br1_l1_conv belongs to branch 0, not branch 1.
  const std::string text =
      "accelerator datapath=pipelined-int8 freq_mhz=200\n"
      "branch 1 batch=1\n"
      "unit br1_l1_conv cpf=1 kpf=1 h=1\n";
  auto parsed = config_from_text(fixture().model, text);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("belongs to branch"),
            std::string::npos);
}

TEST(ConfigIoTest, OversizedFactorsRejected) {
  std::string text = config_to_text(fixture().model, fixture().config);
  // Corrupt the first unit line with an impossible cpf.
  const std::size_t pos = text.find("cpf=");
  text.replace(pos, text.find(' ', pos) - pos, "cpf=99999");
  auto parsed = config_from_text(fixture().model, text);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("do not fit"), std::string::npos);
}

TEST(ConfigIoTest, MissingUnitRejected) {
  std::string text = config_to_text(fixture().model, fixture().config);
  // Drop the last unit line.
  const std::size_t last_unit = text.rfind("unit ");
  text.erase(last_unit);
  auto parsed = config_from_text(fixture().model, text);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("missing unit"), std::string::npos);
}

TEST(ConfigIoTest, BadDatapathRejected) {
  auto parsed = config_from_text(
      fixture().model, "accelerator datapath=warped-int8 freq_mhz=200\n");
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("unknown datapath"),
            std::string::npos);
}

TEST(ConfigIoTest, RemovedDwWwKeysRejected) {
  // The pre-datapath "dw=/ww=" header keys are removed: an old header
  // fails loudly, naming the key.
  std::string text = config_to_text(fixture().model, fixture().config);
  ASSERT_NE(text.find('\n'), std::string::npos);
  for (const char* header : {"accelerator dw=int16 ww=int16 freq_mhz=200",
                             "accelerator ww=int8 freq_mhz=200",
                             "accelerator dw=fp32 ww=int8 freq_mhz=200"}) {
    text.replace(0, text.find('\n'), header);
    auto parsed = config_from_text(fixture().model, text);
    ASSERT_FALSE(parsed.is_ok()) << header;
    EXPECT_NE(parsed.status().message().find("unknown header key"),
              std::string::npos)
        << parsed.status().to_string();
  }
}

TEST(ConfigIoTest, HeaderCarriesCanonicalDatapathName) {
  const std::string text = config_to_text(fixture().model, fixture().config);
  EXPECT_NE(text.find("accelerator datapath=pipelined-int8"),
            std::string::npos)
      << text;
}

TEST(ConfigIoTest, CommentsIgnored) {
  std::string text = config_to_text(fixture().model, fixture().config);
  text.insert(0, "# saved by test\n");
  EXPECT_TRUE(config_from_text(fixture().model, text).is_ok());
}

}  // namespace
}  // namespace fcad::arch
