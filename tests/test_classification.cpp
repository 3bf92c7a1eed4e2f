// The core->classify bridge and the Platform's unmixed assay.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/catalog.hpp"
#include "core/classification.hpp"
#include "core/platform.hpp"

namespace biosens::core {
namespace {

TEST(Classification, PlatformGlucoseSensorMatchesSection3) {
  // "Target: molecules / Sensing element: enzymes / Transduction:
  // electrochemical (amperometric) / Nanotechnology-based: carbon
  // nanotubes / Electrode type: integrated (microfabricated)".
  const Classification c = classify_spec(
      entry_or_throw("MWCNT/Nafion + GOD (this work)").spec);
  EXPECT_EQ(c.target, classify::TargetClass::kMetabolite);
  EXPECT_EQ(c.element, classify::SensingElement::kEnzyme);
  EXPECT_EQ(c.transduction, classify::Transduction::kAmperometric);
  EXPECT_EQ(c.nanomaterial, classify::Nanomaterial::kCarbonNanotube);
  EXPECT_EQ(c.electrode,
            classify::ElectrodeTechnology::kMicrofabricated);
}

TEST(Classification, CypSensorIsADisposableDrugSensor) {
  const Classification c = classify_spec(
      entry_or_throw("MWCNT + CYP (cyclophosphamide)").spec);
  EXPECT_EQ(c.target, classify::TargetClass::kDrug);
  EXPECT_EQ(c.nanomaterial, classify::Nanomaterial::kCarbonNanotube);
  EXPECT_EQ(c.electrode, classify::ElectrodeTechnology::kDisposable);
}

TEST(Classification, TitanateComparatorIsNotCarbon) {
  const Classification c =
      classify_spec(entry_or_throw("Titanate NT + LOD").spec);
  EXPECT_EQ(c.nanomaterial, classify::Nanomaterial::kOtherNanotube);
}

TEST(Classification, NafionOnlyComparatorHasNoNanomaterial) {
  const Classification c =
      classify_spec(entry_or_throw("Nafion + GlOD").spec);
  EXPECT_EQ(c.nanomaterial, classify::Nanomaterial::kNone);
  EXPECT_EQ(c.electrode, classify::ElectrodeTechnology::kMicrofabricated);
}

class UnmixedPlatformFixture : public ::testing::Test {
 protected:
  UnmixedPlatformFixture() {
    panel_.add_sensor(entry_or_throw("MWCNT + CYP (cyclophosphamide)"));
    panel_.add_sensor(entry_or_throw("MWCNT + CYP (ifosfamide)"));
    Rng rng(31);
    ProtocolOptions options;
    options.blank_repeats = 8;
    options.replicates = 1;
    panel_.calibrate_all(rng, options);
  }
  Platform panel_;
};

TEST_F(UnmixedPlatformFixture, UnmixedAssayRemovesCrossTalk) {
  chem::Sample cocktail = chem::blank_sample();
  cocktail.set("cyclophosphamide", Concentration::micro_molar(30.0));
  cocktail.set("ifosfamide", Concentration::micro_molar(100.0));

  Rng rng_naive(7), rng_unmixed(7);
  const PanelReport naive = panel_.assay(cocktail, rng_naive);
  const PanelReport unmixed = panel_.assay_unmixed(cocktail, rng_unmixed);

  // Naive CP over-reports (ifosfamide cross-talk); unmixed recovers.
  EXPECT_GT(naive.for_target("cyclophosphamide").estimated.micro_molar(),
            36.0);
  EXPECT_NEAR(
      unmixed.for_target("cyclophosphamide").estimated.micro_molar(),
      30.0, 4.0);
  EXPECT_NEAR(unmixed.for_target("ifosfamide").estimated.micro_molar(),
              100.0, 8.0);
}

TEST_F(UnmixedPlatformFixture, QcRidesAlongWithAssays) {
  chem::Sample sample = chem::blank_sample();
  sample.set("cyclophosphamide", Concentration::micro_molar(40.0));
  Rng rng(9);
  const PanelReport report = panel_.assay(sample, rng);
  EXPECT_TRUE(report.for_target("cyclophosphamide").qc.accepted)
      << report.for_target("cyclophosphamide").qc.summary;
  // The drug-free channel reports "not detected": flagged, below LOD,
  // and accepted.
  const AssayResult& absent = report.for_target("ifosfamide");
  EXPECT_FALSE(absent.above_lod);
  EXPECT_TRUE(absent.qc.accepted) << absent.qc.summary;
  EXPECT_NE(std::find(absent.qc.flags.begin(), absent.qc.flags.end(),
                      QcFlag::kNoResponse),
            absent.qc.flags.end())
      << absent.qc.summary;
}

TEST(UnmixedPlatform, DegeneratePanelIsRefused) {
  Platform profens;
  profens.add_sensor(entry_or_throw("MWCNT + CYP (naproxen)"));
  profens.add_sensor(entry_or_throw("MWCNT + CYP (flurbiprofen)"));
  Rng rng(3);
  ProtocolOptions options;
  options.blank_repeats = 8;
  options.replicates = 1;
  profens.calibrate_all(rng, options);
  EXPECT_THROW(profens.assay_unmixed(chem::blank_sample(), rng),
               AnalysisError);
}

}  // namespace
}  // namespace biosens::core
