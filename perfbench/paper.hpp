// The paper world, built stage by stage from its seed, and the checks a
// correct build must pass.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "serve/snapshot.hpp"
#include "trace.hpp"

namespace perfbench {

/// Everything one paper build produces, owned in one place so a
/// core::WorldView can pin it.
struct PaperWorld {
  std::optional<intertubes::transport::TransportBundle> bundle;
  std::optional<intertubes::transport::RightOfWayRegistry> row;
  std::optional<intertubes::isp::GroundTruth> truth;
  std::vector<intertubes::isp::PublishedMap> published;
  intertubes::records::Corpus corpus;
  std::optional<intertubes::core::FiberMap> map;
  std::string dataset;  ///< core::serialize_dataset of map
};

struct PaperBuild {
  std::shared_ptr<PaperWorld> world;
  std::shared_ptr<const intertubes::serve::Snapshot> snapshot;  ///< published, epoch 1
  double seconds = 0.0;  ///< seed to published snapshot: the sum of the stage times
};

/// The paper's seed (core::ScenarioParams default).
inline constexpr std::uint64_t kPaperSeed = 0x1257;

/// Build the paper world from its seed, timing each stage as a span
/// (transport.bundle, isp.ground_truth, isp.publish, records.corpus,
/// core.builder, core.step1..4, core.serialize, serve.snapshot_build,
/// serve.publish).  Allocation counts of steps 1, 2 and 4 go to the
/// tracer's counters.  `between`, when set, runs untimed before step 1,
/// after steps 1 and 3, and after the publish, so other work can be
/// spread through the build.
PaperBuild build_paper(Tracer& tracer, const std::function<void()>& between = {});

/// Tenancy precision/recall of a built map against the ground truth.
struct TenancyScore {
  double precision = 0.0;
  double recall = 0.0;
};

/// Check a built paper world; returns an empty string when every check
/// passes, else the first failure.  `reference` (when non-null) is the
/// dataset of an earlier build in the same process, which this build
/// must match byte for byte.
std::string check_paper(const PaperWorld& world, const std::string* reference,
                        TenancyScore* score = nullptr);

/// Floors for TenancyScore, set below the paper build's measured
/// precision 0.795 and recall 0.860 so a regression in inference shows.
inline constexpr double kPrecisionFloor = 0.75;
inline constexpr double kRecallFloor = 0.80;

/// Links of `map` that ride at least one of `conduits` (counted here,
/// apart from the serve kernels).
std::size_t links_riding(const intertubes::core::FiberMap& map,
                         const std::vector<intertubes::core::ConduitId>& conduits);

/// Adjacency of `map`'s conduits over `num_nodes` city ids, weighted by
/// conduit km: the graph of the benchmark's own shortest-path checks.
using ConduitGraph = std::vector<std::vector<std::pair<std::uint32_t, double>>>;
ConduitGraph conduit_graph(const intertubes::core::FiberMap& map, std::size_t num_nodes);

/// Dijkstra over `graph`: km from `from` to every node, infinity where
/// unreachable.
std::vector<double> dijkstra_km(const ConduitGraph& graph, std::uint32_t from);

}  // namespace perfbench
