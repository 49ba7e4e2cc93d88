// Tests for the cost-model factory: the kind <-> name registry and the
// construction paths, including the required-input checks.
#include <gtest/gtest.h>

#include "mtsched/core/error.hpp"
#include "mtsched/models/factory.hpp"
#include "mtsched/platform/cluster.hpp"

namespace {

using namespace mtsched::models;
using mtsched::core::InvalidArgument;

ProfileTables mini_tables() {
  ProfileTables t;
  t.exec[{mtsched::dag::TaskKernel::MatMul, 2000}] = {4.0, 2.1, 1.5, 1.2};
  t.exec[{mtsched::dag::TaskKernel::MatAdd, 2000}] = {0.4, 0.3, 0.2, 0.2};
  t.startup = {0.1, 0.2, 0.3, 0.4};
  t.redist_by_dst = {0.05, 0.06, 0.07, 0.08};
  return t;
}

EmpiricalFits mini_fits() {
  EmpiricalFits f;
  mtsched::stats::PiecewiseFit pw;
  pw.small_p = {8.0, 0.5, 1.0, 0.0};  // y = 8/p + 0.5
  f.exec[{mtsched::dag::TaskKernel::MatMul, 2000}] = pw;
  f.exec[{mtsched::dag::TaskKernel::MatAdd, 2000}] = pw;
  f.startup = {0.01, 0.1, 1.0, 0.0};
  f.redist = {0.005, 0.05, 1.0, 0.0};
  return f;
}

TEST(Factory, KindNameRoundTrip) {
  for (const auto kind : all_kinds()) {
    EXPECT_EQ(parse_kind(kind_name(kind)), kind);
  }
}

TEST(Factory, AllKindsCoversTheEnumInOrder) {
  const auto& kinds = all_kinds();
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], CostModelKind::Analytical);
  EXPECT_EQ(kinds[1], CostModelKind::Profile);
  EXPECT_EQ(kinds[2], CostModelKind::Empirical);
}

TEST(Factory, ParseKindRejectsUnknownNameListingValid) {
  try {
    parse_kind("heuristic");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("heuristic"), std::string::npos);
    EXPECT_NE(msg.find("analytical"), std::string::npos);
    EXPECT_NE(msg.find("profile"), std::string::npos);
    EXPECT_NE(msg.find("empirical"), std::string::npos);
  }
}

TEST(Factory, ParseKindList) {
  const auto kinds = parse_kind_list("empirical,analytical");
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], CostModelKind::Empirical);
  EXPECT_EQ(kinds[1], CostModelKind::Analytical);
  EXPECT_THROW(parse_kind_list(""), InvalidArgument);
  EXPECT_THROW(parse_kind_list("analytical,nope"), InvalidArgument);
}

TEST(Factory, ModelSpecParseAndName) {
  for (const auto kind : all_kinds()) {
    const auto spec = ModelSpec::parse(kind_name(kind));
    EXPECT_EQ(spec.kind, kind);
    EXPECT_EQ(spec.name(), kind_name(kind));
    EXPECT_EQ(spec.profile, nullptr);
    EXPECT_EQ(spec.empirical, nullptr);
  }
  EXPECT_THROW(ModelSpec::parse("heuristic"), InvalidArgument);
}

TEST(Factory, MakesEveryKindAndRoundTripsIt) {
  const auto tables = mini_tables();
  const auto fits = mini_fits();
  ModelSpec spec;
  spec.platform = mtsched::platform::bayreuth32(4);
  spec.profile = &tables;
  spec.empirical = &fits;
  for (const auto kind : all_kinds()) {
    spec.kind = kind;
    const auto model = make_cost_model(spec);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->kind(), kind);
    EXPECT_EQ(model->name(), kind_name(kind));
    EXPECT_EQ(model->spec().num_nodes, 4);
  }
}

TEST(Factory, MakeFromParsedSpec) {
  auto spec = ModelSpec::parse("analytical");
  spec.platform = mtsched::platform::bayreuth32();
  const auto model = make_cost_model(spec);
  EXPECT_EQ(model->kind(), CostModelKind::Analytical);
}

TEST(Factory, MissingParamsThrow) {
  ModelSpec spec;
  spec.platform = mtsched::platform::bayreuth32(4);
  spec.kind = CostModelKind::Profile;
  EXPECT_THROW(make_cost_model(spec), InvalidArgument);
  spec.kind = CostModelKind::Empirical;
  EXPECT_THROW(make_cost_model(spec), InvalidArgument);
  // Analytical needs the platform only.
  spec.kind = CostModelKind::Analytical;
  EXPECT_NO_THROW(make_cost_model(spec));
}

}  // namespace
