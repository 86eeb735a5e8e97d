// Tests for gesture encode/decode (paper §6) and human counting
// (Eqs. 5.4/5.5, §7.4) on synthetic angle-time images.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/core/counting.hpp"
#include "src/core/gesture.hpp"
#include "src/core/isar.hpp"

namespace wivi::core {
namespace {

/// Build a synthetic image: baseline floor 1.0, a DC ridge at theta = 0,
/// plus caller-added Gaussian blobs.
struct ImageBuilder {
  AngleTimeImage img;
  explicit ImageBuilder(std::size_t num_times, double dt) {
    img.angles_deg = angle_grid_deg(1.0);
    img.columns.assign(num_times, RVec(img.angles_deg.size(), 1.0));
    img.model_orders.assign(num_times, 1);
    for (std::size_t t = 0; t < num_times; ++t) {
      img.times_sec.push_back(static_cast<double>(t) * dt);
      add_blob(t, 0.0, 60.0, 3.0);  // the DC line
    }
  }
  /// Add a Gaussian ridge at angle `theta0` in column t with linear power
  /// `snr` above the floor and width sigma degrees.
  void add_blob(std::size_t t, double theta0, double snr, double sigma) {
    for (std::size_t a = 0; a < img.angles_deg.size(); ++a) {
      const double d = (img.angles_deg[a] - theta0) / sigma;
      img.columns[t][a] += snr * std::exp(-0.5 * d * d);
    }
  }
};

// ------------------------------------------------------------ Encoding ---

TEST(GestureEncode, ZeroIsForwardThenBackward) {
  const GestureProfile profile;
  const Bit bits[] = {Bit::kZero};
  const auto steps = encode_message(bits, profile);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_TRUE(steps[0].forward);
  EXPECT_FALSE(steps[1].forward);
  EXPECT_GT(steps[1].start_sec, steps[0].start_sec);
}

TEST(GestureEncode, OneIsBackwardThenForward) {
  const GestureProfile profile;
  const Bit bits[] = {Bit::kOne};
  const auto steps = encode_message(bits, profile);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_FALSE(steps[0].forward);
  EXPECT_TRUE(steps[1].forward);
}

TEST(GestureEncode, GesturesAreComposable) {
  // §6.1 condition 1: each bit returns the subject to the start state, so
  // the net displacement of any message is zero (equal F and B counts).
  const GestureProfile profile;
  const Bit bits[] = {Bit::kZero, Bit::kOne, Bit::kOne, Bit::kZero};
  const auto steps = encode_message(bits, profile);
  ASSERT_EQ(steps.size(), 8u);
  int net = 0;
  for (const auto& s : steps) net += s.forward ? 1 : -1;
  EXPECT_EQ(net, 0);
}

TEST(GestureEncode, MessageDurationMatchesPaperTiming) {
  // §1.2 / §7.5: ~8.8 s for a 4-gesture message, 2.2 s +/- 0.4 s std per
  // gesture across subjects. Our defaults sit one std above the mean (the
  // inter-bit framing pause is deliberately generous, see GestureProfile).
  const GestureProfile profile;
  EXPECT_NEAR(profile.bit_duration_sec(), 2.2, 0.5);
  EXPECT_NEAR(message_duration_sec(4, profile), 8.8, 2.0);
}

TEST(GestureEncode, StepsDoNotOverlap) {
  const GestureProfile profile;
  const Bit bits[] = {Bit::kZero, Bit::kZero, Bit::kOne};
  const auto steps = encode_message(bits, profile);
  for (std::size_t i = 1; i < steps.size(); ++i)
    EXPECT_GE(steps[i].start_sec,
              steps[i - 1].start_sec + profile.step_duration_sec - 1e-9);
}

// ------------------------------------------------------------ Decoding ---

/// Paint a message onto a synthetic image: each step is a triangle of
/// energy sweeping out to +/-75 deg and back (Fig. 6-1).
AngleTimeImage paint_message(std::span<const Bit> bits, double snr_linear,
                             double dt = 0.08) {
  const GestureProfile profile;
  const auto steps = encode_message(bits, profile, /*t0=*/2.0);
  const double total =
      message_duration_sec(bits.size(), profile) + 6.0;
  const auto n = static_cast<std::size_t>(total / dt);
  ImageBuilder builder(n, dt);
  for (const auto& s : steps) {
    for (std::size_t t = 0; t < n; ++t) {
      const double now = static_cast<double>(t) * dt;
      const double tau = (now - s.start_sec) / profile.step_duration_sec;
      if (tau <= 0.0 || tau >= 1.0) continue;
      const double envelope = 1.0 - std::abs(2.0 * tau - 1.0);  // triangle
      const double theta = (s.forward ? +75.0 : -75.0) * envelope;
      if (std::abs(theta) < 14.0) continue;  // inside DC exclusion: no info
      builder.add_blob(t, theta, snr_linear * envelope, 4.0);
    }
  }
  return builder.img;
}

TEST(GestureDecode, AngleSignalSignFollowsSteps) {
  const Bit bits[] = {Bit::kZero};
  const AngleTimeImage img = paint_message(bits, 300.0);
  const GestureDecoder decoder;
  const RVec sig = decoder.angle_signal(img);
  // Forward half: positive excursion; backward half: negative.
  const double t_fwd = 2.0 + 0.45;   // mid forward step
  const double t_bwd = 2.0 + 0.9 + 0.2 + 0.45;
  const auto idx = [&](double t) {
    return static_cast<std::size_t>(t / (img.times_sec[1] - img.times_sec[0]));
  };
  EXPECT_GT(sig[idx(t_fwd)], 0.0);
  EXPECT_LT(sig[idx(t_bwd)], 0.0);
}

TEST(GestureDecode, DecodesSingleZeroBit) {
  const Bit bits[] = {Bit::kZero};
  const GestureDecoder decoder;
  const auto r = decoder.decode(paint_message(bits, 300.0));
  ASSERT_EQ(r.bits.size(), 1u);
  EXPECT_EQ(r.bits[0].value, Bit::kZero);
  EXPECT_GT(r.bits[0].snr_db, 3.0);
}

TEST(GestureDecode, DecodesSingleOneBit) {
  const Bit bits[] = {Bit::kOne};
  const GestureDecoder decoder;
  const auto r = decoder.decode(paint_message(bits, 300.0));
  ASSERT_EQ(r.bits.size(), 1u);
  EXPECT_EQ(r.bits[0].value, Bit::kOne);
}

TEST(GestureDecode, DecodesMultiBitMessage) {
  // The Fig. 6-1 sequence: F B B F = bits 0, 1.
  const Bit bits[] = {Bit::kZero, Bit::kOne};
  const GestureDecoder decoder;
  const auto r = decoder.decode(paint_message(bits, 300.0));
  ASSERT_EQ(r.bits.size(), 2u);
  EXPECT_EQ(r.bits[0].value, Bit::kZero);
  EXPECT_EQ(r.bits[1].value, Bit::kOne);
  EXPECT_EQ(r.unpaired_symbols, 0u);
}

TEST(GestureDecode, LongMessageRoundTrip) {
  const Bit bits[] = {Bit::kOne, Bit::kZero, Bit::kOne, Bit::kOne,
                      Bit::kZero, Bit::kZero, Bit::kOne, Bit::kZero};
  const GestureDecoder decoder;
  const auto r = decoder.decode(paint_message(bits, 300.0));
  ASSERT_EQ(r.bits.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(r.bits[i].value, bits[i]) << "bit " << i;
}

TEST(GestureDecode, WeakGestureIsErasedNotFlipped) {
  // §7.5: "Wi-Vi never mistook a '0' bit for a '1' bit or the inverse...
  // errors are erasure errors." Below the floor there is simply nothing to
  // detect: no bits, no flips.
  const Bit bits[] = {Bit::kZero, Bit::kOne};
  const GestureDecoder decoder;
  const auto r = decoder.decode(paint_message(bits, 0.02));
  EXPECT_LE(r.bits.size(), 2u);
  // Key property: no wrong-valued bits. With two distinct bits painted,
  // a flip would show as kOne before kZero.
  if (r.bits.size() == 2) {
    EXPECT_EQ(r.bits[0].value, Bit::kZero);
    EXPECT_EQ(r.bits[1].value, Bit::kOne);
  }
}

TEST(GestureDecode, SnrScalesWithSignalStrength) {
  const Bit bits[] = {Bit::kZero};
  const GestureDecoder decoder;
  const auto strong = decoder.decode(paint_message(bits, 400.0));
  const auto weak = decoder.decode(paint_message(bits, 40.0));
  ASSERT_EQ(strong.bits.size(), 1u);
  ASSERT_EQ(weak.bits.size(), 1u);
  EXPECT_GT(strong.bits[0].snr_db, weak.bits[0].snr_db);
}

TEST(GestureDecode, MatchedOutputHasBpskShape) {
  // Fig. 6-3(a): after matched filtering, bit '0' gives + then - peaks.
  const Bit bits[] = {Bit::kZero};
  const GestureDecoder decoder;
  const auto r = decoder.decode(paint_message(bits, 300.0));
  ASSERT_EQ(r.symbols.size(), 2u);
  EXPECT_EQ(r.symbols[0].sign, +1);
  EXPECT_EQ(r.symbols[1].sign, -1);
}

// ------------------------------------------------------------- Counting ---

TEST(Counting, CentroidOfSymmetricColumnIsZero) {
  const RVec angles = angle_grid_deg(1.0);
  RVec col(angles.size(), 10.0);  // flat
  EXPECT_NEAR(spatial_centroid(col, angles), 0.0, 1e-9);
}

TEST(Counting, CentroidTracksOffsetBlob) {
  ImageBuilder b(1, 0.1);
  b.add_blob(0, 45.0, 500.0, 3.0);
  const RVec col = b.img.column_db(0);
  EXPECT_GT(spatial_centroid(col, b.img.angles_deg), 5.0);
}

TEST(Counting, VarianceGrowsWithNumberOfBlobs) {
  // The core §5.2 claim: more movers -> more spatial variance.
  auto make_img = [&](int blobs, std::uint64_t seed) {
    Rng rng(seed);
    ImageBuilder b(40, 0.1);
    for (std::size_t t = 0; t < 40; ++t) {
      for (int k = 0; k < blobs; ++k) {
        const double theta = rng.uniform(-80.0, 80.0);
        b.add_blob(t, theta, 200.0, 4.0);
      }
    }
    return b.img;
  };
  const double v0 = spatial_variance(make_img(0, 1));
  const double v1 = spatial_variance(make_img(1, 2));
  const double v2 = spatial_variance(make_img(2, 3));
  const double v3 = spatial_variance(make_img(3, 4));
  EXPECT_LT(v0, v1);
  EXPECT_LT(v1, v2);
  EXPECT_LT(v2, v3);
}

TEST(Counting, VarianceScaleIsTensOfMillions) {
  // Fig. 7-3's x-axis sanity: with dB weights over the 181-angle grid the
  // variance lands in the 1e6..1e8 range, as in the paper.
  Rng rng(5);
  ImageBuilder b(20, 0.1);
  for (std::size_t t = 0; t < 20; ++t)
    b.add_blob(t, rng.uniform(-70.0, 70.0), 200.0, 4.0);
  const double v = spatial_variance(b.img);
  EXPECT_GT(v, 1e5);
  EXPECT_LT(v, 5e8);
}

TEST(Counting, ClassifierLearnsThresholdsFromMeans) {
  VarianceClassifier clf;
  clf.train({{0, 10.0}, {0, 12.0}, {1, 30.0}, {1, 34.0}, {2, 60.0}, {2, 64.0}});
  ASSERT_TRUE(clf.trained());
  ASSERT_EQ(clf.thresholds().size(), 2u);
  EXPECT_NEAR(clf.thresholds()[0], (11.0 + 32.0) / 2.0, 1e-9);
  EXPECT_EQ(clf.classify(5.0), 0);
  EXPECT_EQ(clf.classify(31.0), 1);
  EXPECT_EQ(clf.classify(100.0), 2);
}

TEST(Counting, ClassifierBoundaryGoesToLowerClass) {
  VarianceClassifier clf;
  clf.train({{0, 10.0}, {1, 30.0}});
  EXPECT_EQ(clf.classify(20.0), 0);  // exactly on threshold
  EXPECT_EQ(clf.classify(20.0001), 1);
}

TEST(Counting, ClassifierRejectsUnusableTraining) {
  VarianceClassifier clf;
  EXPECT_THROW(clf.train({}), InvalidArgument);
  EXPECT_THROW(clf.train({{0, 1.0}, {0, 2.0}}), InvalidArgument);  // one class
  // Failed training must not leave partial state behind.
  EXPECT_FALSE(clf.trained());
  EXPECT_THROW((void)clf.classify(1.0), InvalidArgument);  // untrained
}

TEST(Counting, ClassifierPoolsInvertedAdjacentClasses) {
  // Saturation can invert adjacent class means; isotonic smoothing pools
  // them: the shared threshold sits at the pooled mean, ties classify low.
  VarianceClassifier clf;
  clf.train({{0, 50.0}, {1, 10.0}});
  ASSERT_TRUE(clf.trained());
  ASSERT_EQ(clf.thresholds().size(), 1u);
  EXPECT_DOUBLE_EQ(clf.thresholds()[0], 30.0);
  EXPECT_EQ(clf.classify(5.0), 0);
  EXPECT_EQ(clf.classify(95.0), 1);
}

TEST(Counting, ClassifierIsotonicPreservesCleanOrdering) {
  // With already-monotone means the isotonic fit is the identity.
  VarianceClassifier clf;
  clf.train({{0, 10.0}, {1, 20.0}, {2, 70.0}});
  ASSERT_EQ(clf.thresholds().size(), 2u);
  EXPECT_DOUBLE_EQ(clf.thresholds()[0], 15.0);
  EXPECT_DOUBLE_EQ(clf.thresholds()[1], 45.0);
}

TEST(Counting, ClassifierPartialInversionPoolsOnlyViolators) {
  // 2 and 3 invert; 0 and 1 stay put.
  VarianceClassifier clf;
  clf.train({{0, 0.0}, {1, 10.0}, {2, 40.0}, {3, 30.0}});
  ASSERT_EQ(clf.thresholds().size(), 3u);
  EXPECT_DOUBLE_EQ(clf.thresholds()[0], 5.0);
  EXPECT_DOUBLE_EQ(clf.thresholds()[1], 22.5);  // midpoint(10, pooled 35)
  EXPECT_DOUBLE_EQ(clf.thresholds()[2], 35.0);  // pooled boundary
  EXPECT_EQ(clf.classify(34.0), 2);
  EXPECT_EQ(clf.classify(36.0), 3);
}

TEST(Counting, ClassifierHandlesNonContiguousLabels) {
  VarianceClassifier clf;
  clf.train({{0, 10.0}, {3, 90.0}});
  EXPECT_EQ(clf.classify(5.0), 0);
  EXPECT_EQ(clf.classify(95.0), 3);
}

}  // namespace
}  // namespace wivi::core
