// snapshot: one op is a cold, complete one-day measurement -- scenario
// generation, simulator construction, RPKI/IRR classification, one batched
// propagation over every group, the collector RIB, the IHR snapshot and the
// core origination/propagation stats with Action 1/4 verdicts. Each op's
// datasets must digest-match one 1-thread reference build made in set-up.
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "core/conformance.h"
#include "irr/validation.h"
#include "rpki/validation.h"
#include "simulator/collector.h"
#include "topogen/scenario.h"
#include "util/parallel.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace manrs;

struct DayCheck {
  uint64_t prefix_origins = 0;
  uint64_t transits = 0;
  size_t action1_conformant = 0;
  size_t action4_conformant = 0;

  friend bool operator==(const DayCheck&, const DayCheck&) = default;
};

/// Everything one measurement builds; destroyed outside the timed part.
struct Day {
  topogen::Scenario scenario;
  std::optional<sim::PropagationSim> simulator;
  bgp::Rib rib;
  ihr::IhrSnapshot snapshot;
  DayCheck check;
};

std::unique_ptr<Day> measure_day(const topogen::ScenarioConfig& config,
                                 Tracer& tracer) {
  auto day = std::make_unique<Day>();
  const sim::PathArenaStats arena_before = sim::path_arena_stats();
  Tracer::Scope op = tracer.span("op");

  std::vector<bgp::PrefixOrigin> announcements;
  {
    Tracer::Scope s = tracer.span("topogen.build_scenario");
    day->scenario = topogen::build_scenario(config);
    announcements = day->scenario.announcements();
  }
  const topogen::Scenario& scenario = day->scenario;
  {
    Tracer::Scope s = tracer.span("simulator.make_sim");
    day->simulator.emplace(scenario.make_sim());
  }
  const sim::PropagationSim& simulator = *day->simulator;

  std::vector<sim::Announcement> classified(announcements.size());
  {
    Tracer::Scope s = tracer.span("rpki.validate");
    size_t invalid = 0;
    for (size_t i = 0; i < announcements.size(); ++i) {
      const bgp::PrefixOrigin& po = announcements[i];
      classified[i].prefix = po.prefix;
      classified[i].origin = po.origin;
      classified[i].cls.rpki_invalid =
          rpki::is_invalid(scenario.vrps.validate(po.prefix, po.origin));
      if (classified[i].cls.rpki_invalid) ++invalid;
    }
    s.count("rpki.invalid", static_cast<double>(invalid));
  }
  {
    Tracer::Scope s = tracer.span("irr.validate");
    size_t invalid = 0;
    for (sim::Announcement& a : classified) {
      a.cls.irr_invalid =
          irr::is_invalid(irr::validate_route(scenario.irr, a.prefix, a.origin));
      if (a.cls.irr_invalid) ++invalid;
    }
    s.count("irr.invalid", static_cast<double>(invalid));
  }
  {
    Tracer::Scope s = tracer.span("simulator.propagate");
    for (sim::Announcement& a : classified) {
      if (a.cls.rpki_invalid || a.cls.irr_invalid) {
        a.cls.variant = sim::filter_variant(a.prefix);
      }
    }
    const std::vector<sim::AnnouncementGroup> groups =
        sim::group_announcements(classified);
    std::vector<sim::PropagationRequest> requests;
    requests.reserve(groups.size());
    for (const sim::AnnouncementGroup& g : groups) {
      requests.push_back(sim::PropagationRequest{g.origin, g.cls});
    }
    (void)simulator.propagate_cached(requests);
    if (tracer.active()) {
      // A fresh simulator's misses are exactly this call's lane work.
      const size_t width = sim::batch_width();
      const uint64_t misses = simulator.cache_stats().misses;
      s.count("simulator.groups", static_cast<double>(groups.size()));
      s.count("simulator.sweeps",
              static_cast<double>((misses + width - 1) / width));
    }
  }
  {
    Tracer::Scope s = tracer.span("simulator.collect");
    const sim::RouteCollector collector(simulator, scenario.vantage_points);
    day->rib = collector.collect(classified);
  }
  {
    Tracer::Scope s = tracer.span("ihr.build");
    const ihr::IhrSnapshotBuilder builder(simulator, scenario.vantage_points);
    day->snapshot = builder.build(announcements, scenario.vrps, scenario.irr);
  }
  {
    Tracer::Scope s = tracer.span("core.stats");
    const auto origination =
        core::compute_origination_stats(day->snapshot.prefix_origins);
    const auto propagation =
        core::compute_propagation_stats(day->snapshot.transits);
    for (const core::Participant& p : scenario.manrs.participants()) {
      for (const net::Asn asn : p.registered_ases) {
        const auto og = origination.find(asn.value());
        const auto pg = propagation.find(asn.value());
        const core::Action4Verdict a4 = core::check_action4(
            og == origination.end() ? nullptr : &og->second, p.program);
        const core::Action1Verdict a1 = core::check_action1(
            pg == propagation.end() ? nullptr : &pg->second);
        if (a4.conformant) ++day->check.action4_conformant;
        if (a1.conformant) ++day->check.action1_conformant;
      }
    }
  }

  if (tracer.active()) {
    const sim::PropagationCacheStats cache = simulator.cache_stats();
    const sim::PathArenaStats arena = sim::path_arena_stats();
    op.count("simulator.cache_hits", static_cast<double>(cache.hits));
    op.count("simulator.cache_misses", static_cast<double>(cache.misses));
    op.count("simulator.cache_invalidated",
             static_cast<double>(cache.invalidated));
    op.count("simulator.arena_hops",
             static_cast<double>(arena.hops - arena_before.hops));
    op.count("simulator.arena_shared_hops",
             static_cast<double>(arena.shared_hops - arena_before.shared_hops));
    op.count("bgp.rib_entries", static_cast<double>(day->rib.entry_count()));
    op.count("bgp.rib_prefixes", static_cast<double>(day->rib.prefix_count()));
    op.count("ihr.transit_records",
             static_cast<double>(day->snapshot.transits.size()));
    op.count("ihr.prefix_origin_records",
             static_cast<double>(day->snapshot.prefix_origins.size()));
  }
  return day;
}

void finish_check(Day& day) {
  day.check.prefix_origins = digest(day.snapshot.prefix_origins);
  day.check.transits = digest(day.snapshot.transits);
}

class SnapshotWorkload : public Workload {
 public:
  explicit SnapshotWorkload(const Context& ctx)
      : ctx_(ctx), config_(ctx.scenario) {}

  void set_up(uint64_t seed, Tracer& tracer) override {
    config_.seed = seed;
    // The reference: one exact-serial build.
    util::set_thread_count(1);
    std::unique_ptr<Day> ref = measure_day(config_, tracer);
    finish_check(*ref);
    reference_ = ref->check;
    as_count_ = ref->scenario.config.total_as_count();
    announcements_ = ref->snapshot.prefix_origins.size();
    ref.reset();

    // Warm-up on the timed pool width: pool start-up and the first-op
    // outlier land here, not in the first timed op.
    util::set_thread_count(ctx_.threads);
    std::unique_ptr<Day> warm = measure_day(config_, tracer);
    finish_check(*warm);
    if (!(warm->check == reference_)) {
      throw std::runtime_error(
          "snapshot: warm-up build differs from the 1-thread reference");
    }
  }

  OpResult op(int id, Tracer& tracer) override {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Day> day = measure_day(config_, tracer);
    const Clock::time_point t1 = Clock::now();
    finish_check(*day);
    if (ctx_.perturb && id == 0) day->check.transits ^= 1;
    return OpResult{ms_between(t0, t1), day->check == reference_};
  }

  std::string summary() const override {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%zu ASes, %zu prefix-origins; reference digests "
                  "po=%016llx transit=%016llx",
                  as_count_, announcements_,
                  static_cast<unsigned long long>(reference_.prefix_origins),
                  static_cast<unsigned long long>(reference_.transits));
    return buf;
  }

 private:
  Context ctx_;
  topogen::ScenarioConfig config_;
  DayCheck reference_;
  size_t as_count_ = 0;
  size_t announcements_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_snapshot(const Context& ctx) {
  return std::make_unique<SnapshotWorkload>(ctx);
}

}  // namespace perfbench
