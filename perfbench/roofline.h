// Machine roofline measured inside a benchmark run: single-core FMA peak and
// STREAM-triad bandwidth. Every *_frac_peak the benchmark prints divides by
// these, so a baseline carries across machines.

#pragma once

#include <cstdint>

namespace perfbench {

struct Roofline {
  double peak_gflops = 0;   ///< independent-chain FMA, one core
  double stream_gbps = 0;   ///< triad a = b + s*c, best pass
  int64_t triad_bytes = 0;  ///< total size of the three triad arrays
  int64_t llc_bytes = 0;    ///< last-level cache size reported by the OS
  int threads = 0;          ///< threads the triad ran on
};

/// \brief Measures the roofline. The triad arrays together span at least
/// four times the last-level cache (or 64 MiB when none is reported).
Roofline MeasureRoofline(int threads);

}  // namespace perfbench
