/// @file
/// Kept only because the frozen wirebench/ benchmark includes it.
#pragma once

#include "src/rt/engine.hpp"

namespace wivi::rt {

/// The typed payload of an engine event (the session tag dropped).
inline api::Event to_api_event(const Event& e) { return e.event; }

}  // namespace wivi::rt
