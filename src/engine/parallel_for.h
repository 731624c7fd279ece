// ParallelFor: the engine's one fork-join loop for map-side work (the
// aggregation finalize, Session's per-block operations). The calling
// thread is one of the workers, so a single item starts no thread.

#pragma once

#include <cstddef>
#include <functional>

#include "common/status.h"

namespace distme::engine {

/// \brief Runs fn(0) .. fn(n - 1) on min(max_threads, n) threads, the
/// calling thread among them, each index exactly once, and returns when
/// all have finished. Returns the error of the lowest failing index, or OK.
/// Helpers are detached: one that the OS schedules only after every item
/// has been claimed never delays the return; it finds no item and exits.
[[nodiscard]] Status ParallelFor(size_t n, int max_threads,
                                 const std::function<Status(size_t)>& fn);

}  // namespace distme::engine
