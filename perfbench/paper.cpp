#include "paper.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <utility>

#include "core/dataset_io.hpp"
#include "core/scenario.hpp"
#include "isp/published_maps.hpp"
#include "records/corpus.hpp"
#include "transport/network.hpp"
#include "util/alloc.hpp"

namespace perfbench {

namespace it = intertubes;

namespace {

/// Time one single-threaded stage and count the allocations it makes on
/// this thread.
template <typename Fn>
double counted_stage(Tracer& tracer, const char* span, const char* counter, Fn&& fn) {
  const auto before = it::util::thread_alloc_counts().allocs;
  auto s = tracer.span(span);
  fn();
  const double seconds = s.end();
  tracer.count(counter, static_cast<double>(it::util::thread_alloc_counts().allocs - before));
  return seconds;
}

}  // namespace

PaperBuild build_paper(Tracer& tracer, const std::function<void()>& between) {
  const auto params = it::core::ScenarioParams::with_seed(kPaperSeed);
  const auto& cities = it::core::Scenario::cities();
  auto world = std::make_shared<PaperWorld>();
  PaperBuild out;
  auto pause = [&] {
    if (between) between();
  };
  auto stage = [&](const char* span, auto&& fn) {
    auto s = tracer.span(span);
    fn();
    out.seconds += s.end();
  };
  tracer.count("paper.builds", 1.0);
  stage("transport.bundle", [&] {
    world->bundle.emplace(it::transport::generate_bundle(cities, params.network));
    world->row.emplace(*world->bundle);
  });
  stage("isp.ground_truth", [&] {
    world->truth.emplace(it::isp::generate_ground_truth(cities, *world->row,
                                                        it::isp::default_profiles(),
                                                        params.ground_truth));
  });
  stage("isp.publish", [&] {
    world->published = it::isp::render_all_published_maps(*world->truth, *world->row,
                                                           params.publish);
  });
  stage("records.corpus", [&] {
    world->corpus = it::records::generate_corpus(cities, *world->row, *world->truth,
                                                 params.corpus);
  });
  std::optional<it::core::MapBuilder> builder;
  stage("core.builder", [&] {
    builder.emplace(cities, *world->row, world->truth->profiles(), world->corpus,
                    params.pipeline);
  });
  pause();
  auto& map = world->map.emplace(world->truth->profiles().size());
  it::core::StepReport report;
  out.seconds += counted_stage(tracer, "core.step1", "core.step1_allocs", [&] {
    builder->step1_initial_map(map, world->published, report);
  });
  pause();
  out.seconds += counted_stage(tracer, "core.step2", "core.step2_allocs",
                               [&] { builder->step2_check_map(map, report); });
  stage("core.step3", [&] { builder->step3_augment(map, world->published, report); });
  pause();
  out.seconds += counted_stage(tracer, "core.step4", "core.step4_allocs",
                               [&] { builder->step4_validate(map, report); });
  builder.reset();
  stage("core.serialize", [&] {
    world->dataset = it::core::serialize_dataset(map, cities, *world->row,
                                                 world->truth->profiles());
  });
  std::shared_ptr<it::serve::Snapshot> snapshot;
  stage("serve.snapshot_build", [&] {
    it::core::WorldView view;
    view.cities = &cities;
    view.row = &*world->row;
    view.truth = &*world->truth;
    view.map = &*world->map;
    view.owner = world;
    snapshot = it::serve::Snapshot::build(std::move(view));
  });
  // A fresh store per build, so every build publishes epoch 1.
  stage("serve.publish", [&] {
    it::serve::SnapshotStore store;
    store.publish(snapshot);
  });
  out.world = std::move(world);
  out.snapshot = std::move(snapshot);
  pause();
  return out;
}

std::string check_paper(const PaperWorld& world, const std::string* reference,
                        TenancyScore* score) {
  const auto& map = *world.map;
  const auto& cities = it::core::Scenario::cities();
  for (const auto& link : map.links()) {
    auto at = link.a;
    for (const auto cid : link.conduits) {
      const auto& c = map.conduit(cid);
      if (c.a == at) {
        at = c.b;
      } else if (c.b == at) {
        at = c.a;
      } else {
        return "link " + std::to_string(link.id) + ": conduit chain breaks at conduit " +
               std::to_string(cid);
      }
      if (!std::binary_search(c.tenants.begin(), c.tenants.end(), link.isp)) {
        return "link " + std::to_string(link.id) + ": ISP " + std::to_string(link.isp) +
               " rides conduit " + std::to_string(cid) + " but is not a tenant";
      }
    }
    if (at != link.b && !link.conduits.empty()) {
      return "link " + std::to_string(link.id) + ": conduit chain does not end at its endpoint";
    }
  }

  // Tenancy as (corridor, isp) pairs, against the ground truth.
  const auto& truth_tenants = world.truth->tenants_by_corridor();
  std::size_t mapped = 0, correct = 0, actual = 0;
  for (const auto& t : truth_tenants) actual += t.size();
  for (const auto& c : map.conduits()) {
    for (const auto isp : c.tenants) {
      ++mapped;
      if (c.corridor < truth_tenants.size()) {
        const auto& t = truth_tenants[c.corridor];
        if (std::binary_search(t.begin(), t.end(), isp)) ++correct;
      }
    }
  }
  TenancyScore s;
  s.precision = mapped ? static_cast<double>(correct) / static_cast<double>(mapped) : 0.0;
  s.recall = actual ? static_cast<double>(correct) / static_cast<double>(actual) : 0.0;
  if (score != nullptr) *score = s;
  if (s.precision < kPrecisionFloor || s.recall < kRecallFloor) {
    return "tenancy precision " + std::to_string(s.precision) + " / recall " +
           std::to_string(s.recall) + " below floor";
  }

  const auto& profiles = world.truth->profiles();
  const auto parsed = it::core::parse_dataset(world.dataset, cities, *world.row, profiles);
  if (it::core::serialize_dataset(parsed, cities, *world.row, profiles) != world.dataset) {
    return "strict parse of the dataset does not re-serialize byte-identically";
  }
  if (reference != nullptr && *reference != world.dataset) {
    return "paper build differs from the first build of this run";
  }
  return {};
}

std::size_t links_riding(const it::core::FiberMap& map,
                         const std::vector<it::core::ConduitId>& conduits) {
  const std::set<it::core::ConduitId> cut(conduits.begin(), conduits.end());
  std::size_t n = 0;
  for (const auto& link : map.links()) {
    for (const auto cid : link.conduits) {
      if (cut.count(cid) != 0) {
        ++n;
        break;
      }
    }
  }
  return n;
}

ConduitGraph conduit_graph(const it::core::FiberMap& map, std::size_t num_nodes) {
  ConduitGraph graph(num_nodes);
  for (const auto& c : map.conduits()) {
    graph[c.a].push_back({c.b, c.length_km});
    graph[c.b].push_back({c.a, c.length_km});
  }
  return graph;
}

std::vector<double> dijkstra_km(const ConduitGraph& graph, std::uint32_t from) {
  std::vector<double> dist(graph.size(), std::numeric_limits<double>::infinity());
  using Item = std::pair<double, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.push({0.0, from});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (const auto& [v, km] : graph[u]) {
      if (d + km < dist[v]) {
        dist[v] = d + km;
        heap.push({dist[v], v});
      }
    }
  }
  return dist;
}

}  // namespace perfbench
