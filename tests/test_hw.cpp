// Unit tests for wivi::hw - ADC quantization/saturation and TX/RX chains.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/db.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/hw/adc.hpp"
#include "src/hw/chains.hpp"
#include "src/hw/usrp.hpp"

namespace wivi::hw {
namespace {

// ----------------------------------------------------------------- ADC ---

TEST(Adc, QuantizesToLsbGrid) {
  const Adc adc(8, 1.0);
  const double lsb = adc.lsb();
  const cdouble q = adc.quantize({0.3337, -0.1234});
  EXPECT_NEAR(std::fmod(std::abs(q.real()), lsb), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(q.real() - 0.3337), 0.0, lsb / 2 + 1e-12);
}

TEST(Adc, SaturatesAtFullScale) {
  const Adc adc(12, 1.0);
  const cdouble q = adc.quantize({2.5, -3.0});
  EXPECT_DOUBLE_EQ(q.real(), 1.0);
  EXPECT_DOUBLE_EQ(q.imag(), -1.0);
}

TEST(Adc, ConvertCountsSaturatedSamples) {
  const Adc adc(12, 1.0);
  const CVec x = {{0.5, 0.5}, {1.5, 0.0}, {0.0, -2.0}, {0.1, 0.1}};
  const Adc::Result r = adc.convert(x);
  EXPECT_EQ(r.saturated_count, 2u);
  EXPECT_TRUE(r.saturated());
}

TEST(Adc, SmallSignalBelowLsbVanishes) {
  // The flash effect in miniature: a signal below the quantization step of
  // a coarse converter reads as zero (paper §1: minute variations are lost).
  const Adc adc(4, 1.0);
  const cdouble tiny{adc.lsb() / 4.0, -adc.lsb() / 4.0};
  const cdouble q = adc.quantize(tiny);
  EXPECT_DOUBLE_EQ(q.real(), 0.0);
  EXPECT_DOUBLE_EQ(q.imag(), 0.0);
}

TEST(Adc, MoreBitsMeansFinerLsb) {
  EXPECT_LT(Adc(14, 1.0).lsb(), Adc(8, 1.0).lsb());
}

TEST(Adc, QuantizationErrorBoundedByHalfLsb) {
  const Adc adc(10, 1.0);
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const cdouble x{rng.uniform(-0.99, 0.99), rng.uniform(-0.99, 0.99)};
    const cdouble q = adc.quantize(x);
    EXPECT_LE(std::abs(q.real() - x.real()), adc.lsb() / 2 + 1e-12);
    EXPECT_LE(std::abs(q.imag() - x.imag()), adc.lsb() / 2 + 1e-12);
  }
}

TEST(Adc, RejectsBadConfig) {
  EXPECT_THROW(Adc(1, 1.0), InvalidArgument);
  EXPECT_THROW(Adc(12, 0.0), InvalidArgument);
  EXPECT_THROW(Adc(12, -1.0), InvalidArgument);
}

// -------------------------------------------------------------- Chains ---

TEST(TxChain, AppliesGainBelowClip) {
  const TxChain tx(6.0, 100.0);
  const CVec x = {{1.0, 0.0}, {0.0, -1.0}};
  const TxChain::Result r = tx.process(x);
  EXPECT_EQ(r.clipped_count, 0u);
  EXPECT_NEAR(std::abs(r.samples[0]), db_to_amp(6.0), 1e-12);
}

TEST(TxChain, ClipsAmplitudePreservingPhase) {
  const TxChain tx(0.0, 1.0);
  const CVec x = {{3.0, 4.0}};  // |x| = 5, phase preserved at |1|
  const TxChain::Result r = tx.process(x);
  EXPECT_EQ(r.clipped_count, 1u);
  EXPECT_NEAR(std::abs(r.samples[0]), 1.0, 1e-12);
  EXPECT_NEAR(std::arg(r.samples[0]), std::arg(x[0]), 1e-12);
}

TEST(TxChain, TwelveDbBoostStaysLinearAtUsrpHeadroom) {
  // The paper's §4.1.2 footnote: the 12 dB boost is chosen to stay within
  // the USRP linear range. Unit-amplitude input, clip sized with 12.5 dB
  // of headroom -> +12 dB OK, +14 dB clips.
  const double clip = db_to_amp(12.5);
  const CVec x = {{1.0, 0.0}};
  TxChain tx(kPowerBoostDb, clip);
  EXPECT_EQ(tx.process(x).clipped_count, 0u);
  tx.set_gain_db(14.0);
  EXPECT_EQ(tx.process(x).clipped_count, 1u);
}

TEST(RxChain, AppliesGain) {
  const RxChain rx(20.0);
  const CVec y = rx.process(CVec{{0.01, 0.0}});
  EXPECT_NEAR(y[0].real(), 0.1, 1e-12);
}

TEST(RxChain, ZeroGainIsIdentity) {
  const RxChain rx(0.0);
  const CVec x = {{0.3, -0.7}, {1.0, 2.0}};
  const CVec y = rx.process(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-15);
}

TEST(Usrp, ConstantsMatchPaper) {
  EXPECT_DOUBLE_EQ(kPowerBoostDb, 12.0);           // §4.1.2 footnote
  EXPECT_DOUBLE_EQ(kUsrpLinearTxPowerWatts, 0.02); // §7.5: ~20 mW
  EXPECT_DOUBLE_EQ(kWifiMaxTxPowerWatts, 0.10);    // §7.5: 100 mW
}

}  // namespace
}  // namespace wivi::hw
