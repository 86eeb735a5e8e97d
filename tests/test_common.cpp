// Unit tests for wivi::common - types, dB conversions, RNG.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/constants.hpp"
#include "src/common/db.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/common/types.hpp"

namespace wivi {
namespace {

TEST(Types, Norm2MatchesStdNorm) {
  const cdouble z{3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(z), 25.0);
  EXPECT_DOUBLE_EQ(norm2(z), std::norm(z));
}

TEST(Types, MeanPowerOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean_power(CVec{}), 0.0);
}

TEST(Types, MeanPowerOfUnitCircleIsOne) {
  CVec x;
  for (int k = 0; k < 16; ++k) {
    const double phi = kTwoPi * k / 16.0;
    x.emplace_back(std::cos(phi), std::sin(phi));
  }
  EXPECT_NEAR(mean_power(x), 1.0, 1e-12);
}

TEST(Db, PowerRoundTrip) {
  for (double db : {-90.0, -10.0, 0.0, 3.0, 42.0}) {
    EXPECT_NEAR(to_db(from_db(db)), db, 1e-9) << db;
  }
}

TEST(Db, AmplitudeRoundTrip) {
  for (double db : {-40.0, -6.0, 0.0, 12.0}) {
    EXPECT_NEAR(amp_to_db(db_to_amp(db)), db, 1e-9) << db;
  }
}

TEST(Db, AmplitudeIsTwiceThePowerScale) {
  // An amplitude ratio r corresponds to power ratio r^2.
  const double r = 3.7;
  EXPECT_NEAR(amp_to_db(r), to_db(r * r), 1e-9);
}

TEST(Db, ZeroPowerClampsInsteadOfInf) {
  EXPECT_TRUE(std::isfinite(to_db(0.0)));
  EXPECT_LE(to_db(0.0), -290.0);
}

TEST(Constants, WavelengthIsTwelveAndAHalfCentimeters) {
  // Paper §2.3: "signals whose wavelengths are 12.5 cm".
  EXPECT_NEAR(kWavelength, 0.125, 0.001);
}

TEST(Constants, ChannelSampleRateMatchesPaper) {
  // Paper §7.1: w = 100 samples per 0.32 s -> 312.5 Hz.
  EXPECT_NEAR(kChannelSampleRateHz, 312.5, 1e-9);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 7);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 7);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsAreStandard) {
  Rng rng(123);
  const int n = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, ComplexGaussianPowerMatchesVariance) {
  Rng rng(99);
  const double var = 0.37;
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += norm2(rng.complex_gaussian(var));
  EXPECT_NEAR(acc / n, var, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.fork();
  // Child does not replay the parent.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent() == child());
  EXPECT_LT(same, 2);
}

TEST(Error, RequireThrowsWithContext) {
  try {
    WIVI_REQUIRE(false, "ctx message");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("ctx message"), std::string::npos);
  }
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform(5.0, 2.0), InvalidArgument);
}

}  // namespace
}  // namespace wivi
