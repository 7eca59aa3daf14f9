// ingest: set-up builds the collector RIB of day 0 of the seeded
// EcosystemEvolution, serialises it as a TABLE_DUMP_V2 dump, and diffs it
// with diff_ribs against the collector RIB of the following days into a
// BGP4MP churn stream of withdrawals and re-announcements. The churn is the
// evolution's own (announcement flaps and births, a membership batch, new
// edges), not a chosen mix. One op decodes the dump into a fresh bgp::Rib
// and folds the churn into it. The decoded RIB must equal the day-0 RIB and
// the folded RIB the later day's; both checks run between and after the two
// timed parts, never inside them.
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "irr/validation.h"
#include "mrt/bgp4mp.h"
#include "mrt/table_dump.h"
#include "rpki/validation.h"
#include "simulator/collector.h"
#include "topogen/evolution.h"
#include "topogen/scenario.h"
#include "util/bytes.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace manrs;

constexpr uint32_t kTimestamp = 1651363200;  // 2022-05-01, the paper's day
// The churn spans days 0 -> kChurnDay of the evolution: one week, so it holds
// one weekly membership batch (day 1) and a week of flaps, births and edges.
constexpr int kChurnDay = 7;

class IngestWorkload : public Workload {
 public:
  explicit IngestWorkload(const Context& ctx)
      : ctx_(ctx), config_(ctx.scenario) {}

  void set_up(uint64_t seed, Tracer& tracer) override {
    config_.seed = seed;
    dump_.clear();
    updates_.clear();
    topogen::Scenario scenario;
    {
      Tracer::Scope s = tracer.span("topogen.build_scenario");
      scenario = topogen::build_scenario(config_);
    }
    as_count_ = scenario.config.total_as_count();
    topogen::EvolutionConfig evolution_config;
    evolution_config.seed = seed;
    const topogen::EcosystemEvolution evolution(scenario, evolution_config);
    const bgp::Rib source = collector_rib_at(evolution, 0, tracer);
    {
      Tracer::Scope s = tracer.span("mrt.encode");
      std::ostringstream out;
      mrt::TableDumpWriter writer(out, kTimestamp);
      records_ = writer.write_rib(source, "perfbench");
      dump_ = out.str();
    }
    const bgp::Rib target = collector_rib_at(evolution, kChurnDay, tracer);
    {
      Tracer::Scope s = tracer.span("mrt.diff");
      const std::vector<mrt::Bgp4mpRecord> churn =
          mrt::diff_ribs(source, target, kTimestamp);
      std::ostringstream out;
      mrt::Bgp4mpWriter writer(out);
      withdrawals_ = 0;
      for (const mrt::Bgp4mpRecord& rec : churn) {
        writer.write(rec);
        withdrawals_ += rec.update.withdrawn.size();
      }
      updates_ = out.str();
      update_count_ = churn.size();
    }
    source_digest_ = digest(source);
    target_digest_ = digest(target);
    entries_ = source.entry_count();

    // Warm-up on the timed pool width.
    const OpResult warm = run_op(-1, tracer);
    if (!warm.ok) {
      throw std::runtime_error("ingest: warm-up decode/fold check failed");
    }
  }

  OpResult op(int id, Tracer& tracer) override { return run_op(id, tracer); }

  std::string summary() const override {
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "%zu ASes; dump %zu bytes, %zu records, %zu entries; churn "
                  "of days 0-%d %zu bytes, %zu updates, %zu withdrawn prefixes",
                  as_count_, dump_.size(), records_, entries_, kChurnDay,
                  updates_.size(),
                  update_count_, withdrawals_);
    return buf;
  }

 private:
  /// The collector RIB of evolution day `day`, built from that day's state
  /// as SnapshotSeries::cold_rebuild builds it: graph, policies,
  /// announcements, and their RPKI and IRR classes.
  static bgp::Rib collector_rib_at(const topogen::EcosystemEvolution& evolution,
                                   int day, Tracer& tracer) {
    const topogen::Scenario& base = evolution.base();
    std::optional<sim::PropagationSim> simulator;
    {
      Tracer::Scope s = tracer.span("simulator.make_sim");
      simulator.emplace(evolution.graph_at(day));
      for (const topogen::AsProfile& profile : base.profiles) {
        simulator->set_policy(profile.asn, profile.policy);
      }
      for (const sim::SimDelta::PolicyChange& change :
           evolution.policy_changes_through(day)) {
        simulator->set_policy(change.asn, change.policy);
      }
    }
    std::vector<sim::Announcement> classified;
    {
      Tracer::Scope s = tracer.span("bench.classify");
      const rpki::VrpStore vrps = evolution.vrps_at(day);
      const irr::IrrRegistry irr = evolution.irr_at(day);
      for (const bgp::PrefixOrigin& po : evolution.announcements_at(day)) {
        sim::AnnouncementClass cls;
        cls.rpki_invalid = rpki::is_invalid(vrps.validate(po.prefix, po.origin));
        cls.irr_invalid =
            irr::is_invalid(irr::validate_route(irr, po.prefix, po.origin));
        if (cls.rpki_invalid || cls.irr_invalid) {
          cls.variant = sim::filter_variant(po.prefix);
        }
        classified.push_back(sim::Announcement{po.prefix, po.origin, cls});
      }
    }
    Tracer::Scope s = tracer.span("simulator.collect");
    return sim::RouteCollector(*simulator, base.vantage_points)
        .collect(classified);
  }

  OpResult run_op(int id, Tracer& tracer) {
    Tracer::Scope op = tracer.span("op");
    bool ok = true;
    const Clock::time_point t0 = Clock::now();
    bgp::Rib rib;
    size_t bad = 0;
    {
      Tracer::Scope s = tracer.span("mrt.decode");
      rib = mrt::TableDumpReader::read_rib(util::as_bytes(dump_), &bad);
    }
    const Clock::time_point t1 = Clock::now();
    if (tracer.active()) {
      op.count("mrt.records", static_cast<double>(records_));
      op.count("mrt.bad_records", static_cast<double>(bad));
      op.count("mrt.dump_bytes", static_cast<double>(dump_.size()));
      op.count("bgp.rib_entries", static_cast<double>(rib.entry_count()));
      op.count("bgp.rib_prefixes", static_cast<double>(rib.prefix_count()));
    }
    {
      Tracer::Scope s = tracer.span("bench.check");
      ok = ok && bad == 0 && digest(rib) == source_digest_;
    }
    const Clock::time_point t2 = Clock::now();
    size_t folded = 0;
    {
      Tracer::Scope s = tracer.span("mrt.fold");
      mrt::UpdateStreamReader reader(util::as_bytes(updates_));
      folded = reader.fold_into(rib);
    }
    const Clock::time_point t3 = Clock::now();
    if (tracer.active()) {
      op.count("mrt.updates", static_cast<double>(folded));
      op.count("mrt.withdrawals", static_cast<double>(withdrawals_));
    }
    {
      Tracer::Scope s = tracer.span("bench.check");
      uint64_t folded_digest = digest(rib);
      if (ctx_.perturb && id == 0) folded_digest ^= 1;
      ok = ok && folded == update_count_ && folded_digest == target_digest_;
    }
    return OpResult{ms_between(t0, t1) + ms_between(t2, t3), ok};
  }

  Context ctx_;
  topogen::ScenarioConfig config_;
  std::string dump_;     // TABLE_DUMP_V2 bytes of the source RIB
  std::string updates_;  // BGP4MP churn stream, day 0 -> kChurnDay
  size_t as_count_ = 0;
  size_t records_ = 0;
  size_t entries_ = 0;
  size_t update_count_ = 0;
  size_t withdrawals_ = 0;
  uint64_t source_digest_ = 0;
  uint64_t target_digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ingest(const Context& ctx) {
  return std::make_unique<IngestWorkload>(ctx);
}

}  // namespace perfbench
