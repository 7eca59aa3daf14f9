// The benchmark's workloads: snapshot, series and ingest.
//
// Each is a closed loop: main.cpp calls op() again as soon as the previous
// op returns. A run is a few segments, each with its own seed: set_up(),
// then a share of the timed window, then end_segment(). A workload owns its
// inputs, which set_up() generates from the segment seed, and checks every
// op's outputs itself, outside the op's timed part.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bgp/rib.h"
#include "ihr/dataset.h"
#include "topogen/config.h"
#include "trace.h"

namespace perfbench {

struct Context {
  manrs::topogen::ScenarioConfig scenario;  // set_up() applies the seed
  size_t threads = 1;
  /// Self-test: corrupt one checked output so its op must count as failed.
  bool perturb = false;
};

struct OpResult {
  double ms = 0.0;  // wall time of the op's timed part
  bool ok = true;   // every output check of this op passed
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Segments per run, each with its own seed and set-up. More segments
  /// average more inputs into one run's figures.
  virtual int segments() const { return 4; }

  /// Drop the previous segment's state, generate inputs from `seed` and run
  /// the warm-up op. main.cpp reports the median of its wall times over
  /// the segments as setup_s.
  virtual void set_up(uint64_t seed, Tracer& tracer) = 0;

  /// One timed op; op ids count from 0 within the timed window.
  virtual OpResult op(int id, Tracer& tracer) = 0;

  /// True when the workload cannot issue another op.
  virtual bool exhausted() const { return false; }

  /// True while the run has not yet timed an op it must hold; main.cpp then
  /// lets the last segment issue ops past its share of the timed window.
  virtual bool needs_more() const { return false; }

  /// Checks that run after the segment's share of the timed window;
  /// returns the ids of the ops they found wrong.
  virtual std::vector<int> end_segment() { return {}; }

  /// One line of facts about the current segment, for the human-readable
  /// output.
  virtual std::string summary() const = 0;
};

std::unique_ptr<Workload> make_snapshot(const Context& ctx);
std::unique_ptr<Workload> make_series(const Context& ctx);
std::unique_ptr<Workload> make_ingest(const Context& ctx);

// Output digests (a 64-bit hash over every field, in emit order), for checks.
uint64_t digest(const std::vector<manrs::ihr::PrefixOriginRecord>& records);
uint64_t digest(const std::vector<manrs::ihr::TransitRecord>& records);
uint64_t digest(const manrs::bgp::Rib& rib);

}  // namespace perfbench
