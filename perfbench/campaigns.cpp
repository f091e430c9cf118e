#include "campaigns.hpp"

#include <algorithm>
#include <cmath>
#include <future>

#include "cascade/cascade.hpp"
#include "core/dataset_io.hpp"
#include "dissect/dissector.hpp"
#include "geo/latency.hpp"
#include "serve/delta.hpp"
#include "serve/fastpath.hpp"
#include "sim/campaign.hpp"
#include "stream.hpp"
#include "worldgen/worldgen.hpp"

namespace perfbench {

namespace it = intertubes;

namespace {

/// Seeded nodes per dissect sweep whose every pair is checked against the
/// benchmark's own Dijkstra.
constexpr std::size_t kDissectSamples = 4;

struct WorldOwner {
  it::worldgen::World world;
  it::core::FiberMap parsed;
};

std::string serialize(const it::core::FiberMap& map, const serve::Snapshot& snap) {
  return it::core::serialize_dataset(map, snap.cities(), snap.row(), snap.truth().profiles());
}

void fail(std::string& error, std::string what) {
  if (error.empty()) error = std::move(what);
}

}  // namespace

GeneratedWorld build_world(double scale, std::uint64_t world_seed, sim::Executor& executor,
                           Tracer& tracer, std::string& error) {
  it::worldgen::WorldSpec spec;
  spec.scale = scale;
  spec.seed = world_seed;
  GeneratedWorld out;
  auto total = tracer.span("world.build");
  std::shared_ptr<WorldOwner> owner;
  {
    auto s = tracer.span("worldgen.generate");
    owner = std::make_shared<WorldOwner>(
        WorldOwner{it::worldgen::generate_world(spec, &executor), it::core::FiberMap(0)});
    out.build_seconds += s.end();
  }
  const auto& world = owner->world;
  std::string text;
  {
    auto s = tracer.span("core.serialize_world");
    text = world.dataset();
  }
  {
    auto s = tracer.span("core.parse");
    owner->parsed =
        it::core::parse_dataset(text, world.cities(), world.row(), world.truth().profiles());
  }
  std::shared_ptr<serve::Snapshot> snapshot;
  {
    auto s = tracer.span("serve.snapshot_build");
    auto view = world.view();
    view.map = &owner->parsed;
    view.owner = owner;
    snapshot = serve::Snapshot::build(std::move(view));
    out.build_seconds += s.end();
  }
  {
    auto s = tracer.span("serve.publish");
    serve::SnapshotStore store;
    store.publish(snapshot);
    out.build_seconds += s.end();
  }
  out.seconds = total.end();
  if (serialize(owner->parsed, *snapshot) != text) {
    fail(error, "strict parse of the generated world does not re-serialize byte-identically");
  }
  out.snapshot = std::move(snapshot);
  return out;
}

std::size_t run_campaigns(const serve::Snapshot& snapshot, const CampaignSizes& sizes,
                          std::uint64_t seed, sim::Executor& executor, Tracer& tracer,
                          CampaignTotals& totals, std::string& error) {
  const auto& cascade = snapshot.cascade_engine();
  it::cascade::CascadeConfig config;
  config.trials = sizes.cascade_trials;
  config.seed = seed;
  it::cascade::CascadeReport report;
  {
    auto s = tracer.span("cascade.campaign");
    report = cascade.run(config, &executor);
    totals.cascade_s += s.end();
  }
  totals.cascade_trials += static_cast<double>(config.trials);
  const auto& delivered = report.demand_delivered.points;
  for (std::size_t r = 0; r < delivered.size(); ++r) {
    const auto& p = delivered[r];
    if (!(p.p5 >= 0.0 && p.p95 <= 1.0 && p.mean >= 0.0 && p.mean <= 1.0) ||
        (r > 0 && p.mean > delivered[r - 1].mean)) {
      fail(error, "cascade campaign demand delivered leaves [0, 1] or rises at round " +
                      std::to_string(r));
    }
  }
  // One trial per call, checked round by round.
  const auto trial = cascade.run_trial(config, seed % config.trials);
  for (std::size_t r = 0; r < trial.rounds.size(); ++r) {
    const double d = trial.rounds[r].demand_delivered;
    if (!(d >= 0.0 && d <= 1.0) || (r > 0 && d > trial.rounds[r - 1].demand_delivered)) {
      fail(error, "cascade trial demand delivered leaves [0, 1] or rises at round " +
                      std::to_string(r));
    }
  }
  const auto& overload = report.overload_failed.points;
  double waves = 0.0;
  for (std::size_t r = 1; r < overload.size(); ++r) {
    if (overload[r].mean > overload[r - 1].mean) waves = static_cast<double>(r);
  }
  tracer.count("cascade.rounds", waves);
  tracer.count("cascade.campaigns", 1.0);

  {
    it::cascade::PercolationConfig perc;
    perc.trials = sizes.percolation_trials;
    perc.seed = seed;
    auto s = tracer.span("cascade.percolation");
    const auto curve = cascade.percolation(perc, &executor);
    s.end();
    if (curve.giant_component.points.empty()) fail(error, "percolation returned no curve");
  }

  const auto& engine = snapshot.path_engine();
  const auto nodes = snapshot.map().nodes();
  std::vector<it::route::NodeId> sources;
  Rng rng(seed ^ 0x5eed);
  for (std::size_t i = 0; i < sizes.batch_sources; ++i) {
    sources.push_back(nodes[rng.below(nodes.size())]);
  }
  {
    auto s = tracer.span("route.route_forest");
    const auto forest = engine.route_forest(sources, {}, &executor);
    s.end();
    if (forest.sources.size() != sources.size()) fail(error, "route_forest lost sources");
  }
  {
    auto s = tracer.span("route.distance_rows");
    const auto rows = engine.distance_rows(sources, {}, &executor);
    s.end();
    if (rows.num_sources != sources.size()) fail(error, "distance_rows lost sources");
  }

  {
    const it::dissect::LatencyDissector dissector(snapshot.shared_path_engine(), nodes,
                                                 snapshot.cities(), snapshot.row());
    auto s = tracer.span("dissect.sweep");
    const auto study = dissector.dissect(&executor);
    totals.dissect_s += s.end();
    totals.pairs += static_cast<double>(study.pairs.size());
    // Every pair whose one end is a seeded sample node: its fiber delay
    // against the benchmark's own Dijkstra over the map's conduits.
    const ConduitGraph graph = conduit_graph(snapshot.map(), snapshot.cities().size());
    std::vector<std::vector<double>> sample_km(snapshot.cities().size());
    for (std::size_t i = 0; i < kDissectSamples; ++i) {
      const auto node = nodes[rng.below(nodes.size())];
      if (sample_km[node].empty()) sample_km[node] = dijkstra_km(graph, node);
    }
    for (const auto& p : study.pairs) {
      const auto& from_a = sample_km[p.a];
      const auto& from_b = sample_km[p.b];
      if (!from_a.empty() || !from_b.empty()) {
        const double km = from_a.empty() ? from_b[p.a] : from_a[p.b];
        const bool ok = std::isinf(km) ? !p.fiber_reachable
                                       : p.fiber_reachable &&
                                             std::abs(p.fiber_ms - it::geo::fiber_delay_ms(km)) <=
                                                 1e-9 * std::max(1.0, p.fiber_ms);
        if (!ok) fail(error, "dissected fiber delay differs from the benchmark's own Dijkstra");
      }
      if (!p.fiber_reachable) continue;
      if (!(p.stretch >= 1.0)) fail(error, "dissected pair with stretch below 1");
      if (p.row_reachable) {
        if (p.row_ms < p.los_ms * (1.0 - 1e-9)) {
          fail(error, "dissected ROW delay below the line-of-sight delay");
        }
        const double sum = p.clat_ms + p.refraction_ms + p.row_inflation_ms + p.detour_ms;
        if (std::abs(sum - p.fiber_ms) > 1e-9 * p.fiber_ms) {
          fail(error, "dissection components do not add up to the fiber delay");
        }
      }
    }
  }

  {
    it::sim::CampaignConfig config_sim;
    config_sim.stressor = it::sim::Stressor::random_cuts(16);
    config_sim.trials = sizes.sim_trials;
    config_sim.seed = seed;
    auto s = tracer.span("sim.campaign");
    const it::sim::CampaignEngine campaign(snapshot.map());
    const auto sim_report = campaign.run(config_sim, executor);
    totals.sim_s += s.end();
    totals.sim_trials += static_cast<double>(config_sim.trials);
    if (sim_report.trials != config_sim.trials) fail(error, "sim campaign lost trials");
  }
  // cascade, percolation, forest, rows, dissect, sim
  return 6;
}

std::size_t run_deltas(const std::shared_ptr<const serve::Snapshot>& base, std::uint64_t seed,
                       sim::Executor& executor, Tracer& tracer, std::vector<double>& publish_ms,
                       const ReadFn& reads, std::string& error) {
  const auto& map = base->map();
  const auto& corridors = base->row().corridors();
  Rng rng(seed ^ 0xde17a);
  auto live_corridor = [&] {
    return map.conduits()[rng.below(map.conduits().size())].corridor;
  };
  std::vector<it::transport::CorridorId> cut;
  while (cut.size() < 2) {
    const auto c = live_corridor();
    if (std::find(cut.begin(), cut.end(), c) == cut.end()) cut.push_back(c);
  }
  it::transport::CorridorId dark = it::transport::kNoCorridor;
  while (dark == it::transport::kNoCorridor) {
    const auto c = corridors[rng.below(corridors.size())].id;
    if (!map.conduit_for_corridor(c)) dark = c;
  }
  const auto num_isps = static_cast<it::isp::IspId>(base->truth().num_isps());
  const auto& lease = map.conduits()[rng.below(map.conduits().size())];
  it::isp::IspId tenant = 0;
  while (std::binary_search(lease.tenants.begin(), lease.tenants.end(), tenant)) ++tenant;
  it::transport::CorridorId last = live_corridor();

  std::vector<serve::DeltaBatch> batches(4);
  batches[0].cut = cut;
  batches[0].label = "cut two corridors";
  batches[1].repair = cut;
  batches[1].label = "repair them";
  batches[2].add.push_back({dark, {static_cast<it::isp::IspId>(rng.below(num_isps))}, false});
  if (tenant < num_isps) batches[2].tenant_adds.push_back({lease.corridor, tenant});
  batches[2].label = "new conduit and lease";
  batches[3].cut = {last};
  batches[3].label = "cut one corridor";

  const std::string base_text = serialize(map, *base);
  serve::SnapshotStore store;
  store.install(base);
  serve::Engine engine(store, executor);
  serve::LiveMap live(base);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const auto start = now_ns();
    std::shared_ptr<serve::Snapshot> next;
    {
      auto s = tracer.span("serve.delta_apply");
      next = live.apply(batches[i]);
    }
    {
      auto s = tracer.span("serve.publish");
      store.publish(next);
    }
    {
      auto s = tracer.span("serve.purge");
      engine.purge_stale_cache();
    }
    publish_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
    if (i == 1 && serialize(next->map(), *next) != base_text) {
      fail(error, "cutting and repairing corridors does not give back the base dataset");
    }
    if (reads) reads(engine, store.current());
  }
  return batches.size();
}

void kernel_probes(const serve::Snapshot& snapshot, const std::vector<serve::Request>& requests,
                   std::uint64_t seed, sim::Executor& executor, Tracer& tracer) {
  Rng rng(seed ^ 0x9b0be);
  {
    auto s = tracer.span("serve.canonical_key");
    for (std::size_t i = 0; i < kProbeIters; ++i) {
      serve::canonical_key(requests[i % requests.size()]);
    }
  }
  {
    auto s = tracer.span("sim.post_roundtrip");
    for (std::size_t i = 0; i < kProbeIters; ++i) {
      std::promise<void> done;
      auto ready = done.get_future();
      executor.post([&done] { done.set_value(); });
      ready.get();
    }
  }
  const auto& soa = snapshot.soa();
  serve::fastpath::RequestScratch scratch;
  scratch.warm(snapshot);
  std::vector<std::vector<it::core::ConduitId>> cuts(16);
  for (auto& c : cuts) {
    c = {static_cast<it::core::ConduitId>(rng.below(soa.conduit_km.size())),
         static_cast<it::core::ConduitId>(rng.below(soa.conduit_km.size()))};
  }
  {
    serve::fastpath::CutImpact impact;
    auto s = tracer.span("serve.fast_what_if_cut");
    for (std::size_t i = 0; i < kProbeIters; ++i) {
      serve::fastpath::fast_what_if_cut(soa, cuts[i % cuts.size()], scratch, impact);
    }
  }
  {
    auto s = tracer.span("serve.fast_hamming");
    for (std::size_t i = 0; i < kProbeIters; ++i) {
      serve::fastpath::fast_hamming_neighbors(
          soa, static_cast<std::uint32_t>(i % soa.num_isps), 5, scratch);
    }
  }
  const auto nodes = snapshot.map().nodes();
  {
    const auto& engine = snapshot.path_engine();
    it::route::PathEngine::Workspace ws;
    engine.warm_workspace(ws);
    it::route::Path path;
    std::vector<std::pair<it::route::NodeId, it::route::NodeId>> pairs(64);
    for (auto& p : pairs) p = {nodes[rng.below(nodes.size())], nodes[rng.below(nodes.size())]};
    auto s = tracer.span("route.shortest_path");
    for (std::size_t i = 0; i < kProbeIters; ++i) {
      const auto& [a, b] = pairs[i % pairs.size()];
      engine.shortest_path(a, b, {}, ws, path);
    }
  }
}

}  // namespace perfbench
