/// @file
/// The wivi umbrella header: the library's entire public surface behind one
/// include.
///
/// Applications — the in-tree examples and out-of-tree find_package(wivi)
/// consumers alike — include only this header:
///
/// @code
///   #include <wivi/wivi.hpp>
///
///   wivi::PipelineSpec spec;
///   spec.count = wivi::api::CountStage{};
///   wivi::Session session(std::move(spec));
///   session.run(samples);                    // or push(chunk) / run(samples, n)
///   std::printf("%g\n", session.spatial_variance());
/// @endcode
///
/// The canonical entry point is the wivi::api facade (PipelineSpec →
/// Session → typed Events; DESIGN.md §8); the layer headers below it stay
/// public for callers who need a single stage, the simulation testbed, or
/// the multiplexing runtime.
#pragma once

// ----------------------------------------------------------- the facade ---
#include "src/api/events.hpp"
#include "src/api/session.hpp"
#include "src/api/spec.hpp"

// ------------------------------------------------- common value types ------
#include "src/common/constants.hpp"
#include "src/common/db.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/common/types.hpp"

// ------------------------------------------------------- linalg + dsp -----
#include "src/dsp/fft.hpp"
#include "src/dsp/matched_filter.hpp"
#include "src/dsp/peaks.hpp"
#include "src/dsp/stats.hpp"
#include "src/dsp/window.hpp"
#include "src/linalg/cmatrix.hpp"
#include "src/linalg/eig.hpp"

// ------------------------------------- core: the paper's algorithms -------
#include "src/core/counting.hpp"
#include "src/core/doppler.hpp"
#include "src/core/gesture.hpp"
#include "src/core/isar.hpp"
#include "src/core/music.hpp"
#include "src/core/nulling.hpp"
#include "src/core/peak_policy.hpp"
#include "src/core/tracker.hpp"

// ---------------------------------------------- track: multi-target -------
#include "src/track/assignment.hpp"
#include "src/track/detect.hpp"
#include "src/track/kalman.hpp"
#include "src/track/multi_tracker.hpp"

// ---------------------------- obs: metrics, tracing, telemetry export -----
#include "src/obs/obs.hpp"

// ------------------------------------- rt: streaming runtime + engine -----
#include "src/rt/engine.hpp"
#include "src/rt/spsc_ring.hpp"
#include "src/rt/streaming.hpp"

// -------------------------------------- par: column-parallel batching -----
#include "src/par/image_builder.hpp"
#include "src/par/thread_pool.hpp"

// ------------------------------- hardware / RF / PHY models (sim side) ----
#include "src/hw/adc.hpp"
#include "src/hw/chains.hpp"
#include "src/hw/usrp.hpp"
#include "src/phy/link.hpp"
#include "src/phy/ofdm.hpp"
#include "src/rf/antenna.hpp"
#include "src/rf/channel.hpp"
#include "src/rf/geometry.hpp"
#include "src/rf/materials.hpp"
#include "src/rf/noise.hpp"
#include "src/rf/propagation.hpp"

// --------------------------------------------- sim: the virtual testbed ---
#include "src/sim/calibration.hpp"
#include "src/sim/experiment.hpp"
#include "src/sim/feeder.hpp"
#include "src/sim/human.hpp"
#include "src/sim/link.hpp"
#include "src/sim/multipath.hpp"
#include "src/sim/protocols.hpp"
#include "src/sim/robot.hpp"
#include "src/sim/room.hpp"
#include "src/sim/synthetic.hpp"

// ------------------- sim: scenario factory + accuracy evaluation harness ---
#include "src/sim/evaluate.hpp"
#include "src/sim/scenario.hpp"

// -------------------------------------- fault: deterministic chaos --------
#include "src/fault/fault.hpp"

// ------------------- net: framed ingress, reassembly, capture/replay ------
#include "src/net/capture.hpp"
#include "src/net/crc32c.hpp"
#include "src/net/frame.hpp"
#include "src/net/ingest.hpp"
#include "src/net/reassembler.hpp"
#include "src/net/receiver.hpp"
#include "src/net/sender.hpp"
#include "src/net/wire_fault.hpp"
