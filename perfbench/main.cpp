// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <cold-start|serve-mixed|planet-campaign> --seed N
//             --seconds S [--trace PATH] [--t0-ns NS]
//
// Every workload starts the same way (set-up): one paper build from its
// seed to a published snapshot, timed stage by stage.  It then runs whole
// rounds until S seconds of measured phase have passed.  A round is the
// same recipe of public calls every time.  Its unit is the *slice*: build
// a generated world, run the campaigns, apply four live deltas with reads
// after each publish, and probe the serve and route kernels.  The
// workloads differ in what surrounds the slices:
//
//   cold-start       a paper build per round, with four small slices
//                    spread between its stages
//   serve-mixed      a closed-loop request batch against serve::Engine,
//                    then one small slice
//   planet-campaign  one slice over a 10x generated world
//
// The host this was tuned on slows down in phases of several seconds.
// Every slice of a run repeats the same inputs (the seed picks them per
// run), so each end-to-end metric is the best of the run's samples of the
// same work, spread through the whole run: the fastest build, slice or
// serve batch, whose figure is least disturbed by the slow phases.  Every metric is measured in every
// workload (README.md says what each means where).  The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics — end-to-end metrics, or with --trace the per-layer metrics
// derived from the spans, which are also written to PATH.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "campaigns.hpp"
#include "paper.hpp"
#include "stream.hpp"

namespace {

using namespace perfbench;

/// A serve-mixed round's batch, and the unique misses in it (1.5 %).
constexpr std::size_t kStreamBatch = 16000;
constexpr std::size_t kStreamMisses = 238;
/// Distinct hot requests per type (shared-risk keeps half the ISPs out).
constexpr std::size_t kHotPerType[kTypes] = {10, 16, 96, 96, 64, 96, 64, 70};
/// Types of the unique misses, taken in turn.  No measured query mix of
/// this service exists, so the misses are spread evenly, an assumption,
/// over the seven types that can supply unique keys: shared-risk has one
/// request per ISP, 20 in all, so its misses come only from the
/// post-publish reads.  kStreamMisses is a whole number of turns.
constexpr std::size_t kMissTypes[] = {1, 2, 3, 4, 5, 6, 7};
static_assert(kStreamMisses % std::size(kMissTypes) == 0);

/// How many more times each post-publish read is repeated (cache hits).
constexpr std::size_t kReadRepeats = 3;

/// One workload's round recipe.
struct Mix {
  bool paper_per_round = false;
  std::size_t stream_batches = 0;
  double world_scale = 1.0;
  bool campaigns_on_world = false;
  CampaignSizes campaigns;
  /// Distinct requests per type read after each live publish, and extra
  /// ones after the last publish of a slice.  Without a stream these reads
  /// are the workload's serve samples.
  std::size_t reads[kTypes] = {};
  std::size_t last_reads[kTypes] = {};
};

Mix mix_of(const std::string& workload) {
  Mix m;
  const std::size_t point_reads[kTypes] = {6, 6, 6, 6, 6, 6, 0, 0};
  if (workload == "cold-start") {
    m.paper_per_round = true;
    m.campaigns = {8, 4, 64, 8};
    std::copy(point_reads, point_reads + kTypes, m.reads);
    m.last_reads[6] = m.last_reads[7] = 4;
  } else if (workload == "serve-mixed") {
    m.stream_batches = 1;
    m.campaigns = {8, 4, 64, 8};
    for (std::size_t t = 0; t < 6; ++t) m.reads[t] = 1;
  } else if (workload == "planet-campaign") {
    m.world_scale = 10.0;
    m.campaigns_on_world = true;
    m.campaigns = {8, 4, 256, 8};
    std::copy(point_reads, point_reads + kTypes, m.reads);
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return m;
}

/// Peak resident set size of this process, in kB (Linux ru_maxrss).
std::size_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss);
}

struct Run {
  std::string error;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void check(const std::string& e) {
    if (!e.empty() && error.empty()) error = e;
  }
};

/// What the end-to-end metrics are made of: one value per sample of the
/// same work, each sample spread through the run.  A run's slices repeat
/// the same inputs, its builds the same worlds, and its serve batches the
/// same request mix, so the spread between samples is the host's slow
/// phases and nothing else: each metric is the run's best sample, the
/// fastest time or the highest rate.
struct E2E {
  std::vector<double> build_s, world_build_s, publish_ms;  ///< per build / slice
  std::vector<double> serve_rate, hit_us, miss_us;         ///< per serve batch
  std::vector<double> cascade_rate, dissect_rate, sim_rate;  ///< per slice

  /// One batch of requests: its throughput, hit median and miss figure.
  void add_serve(const ServeSamples& s) {
    serve_rate.push_back(static_cast<double>(s.requests) / s.seconds);
    hit_us.push_back(median(std::vector<double>(s.hit_us.begin(), s.hit_us.end())));
    miss_us.push_back(miss_p50_us(s));
  }

  /// One slice's campaigns: work over wall time.
  void add_campaigns(const CampaignTotals& c) {
    cascade_rate.push_back(c.cascade_trials / c.cascade_s);
    dissect_rate.push_back(c.pairs / c.dissect_s);
    sim_rate.push_back(c.sim_trials / c.sim_s);
  }

  /// The geometric mean, over the types that missed, of each type's median
  /// miss latency: every type's kernel moves it alike, whatever its share
  /// of the misses and however far apart the types' latencies lie.
  static double miss_p50_us(const ServeSamples& s) {
    double log_sum = 0.0;
    std::size_t types = 0;
    for (const auto& samples : s.miss_us) {
      if (samples.empty()) continue;
      log_sum += std::log(median(std::vector<double>(samples.begin(), samples.end())));
      ++types;
    }
    return types > 0 ? std::exp(log_sum / static_cast<double>(types)) : 0.0;
  }
};

/// Reads served after a live publish: the distinct requests, then each
/// repeated.  Audits are checked by their properties; a fresh audit would
/// cost a second all-pairs sweep.
void post_publish_reads(serve::Engine& engine, std::shared_ptr<const serve::Snapshot> snapshot,
                        const std::size_t (&counts)[kTypes], std::size_t repeats,
                        std::uint64_t seed, ServeSamples& samples, Tracer& tracer, Run& run) {
  RequestGen gen(*snapshot, seed);
  Checker checker(snapshot);
  std::vector<serve::Request> distinct;
  for (std::size_t t = 0; t < kTypes; ++t) {
    for (std::size_t i = 0; i < counts[t]; ++i) distinct.push_back(gen.make_unique(t, false));
  }
  std::vector<serve::Request> batch;
  for (std::size_t r = 0; r <= repeats; ++r) {
    batch.insert(batch.end(), distinct.begin(), distinct.end());
  }
  std::vector<serve::Response> responses;
  serve_batch(engine, batch, responses, samples, tracer);
  run.attempted += batch.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto* audit = std::get_if<serve::CLatencyAuditQuery>(&batch[i]);
    run.check(audit ? checker.check_audit(*audit, responses[i])
                    : checker.check(batch[i], responses[i], true));
  }
}

/// The serve-mixed stream: a hot set warmed in set-up, unique misses,
/// and the near twins.
struct Stream {
  std::vector<serve::Request> hot;
  std::vector<serve::Request> twins;  ///< pairs, A then B
  std::vector<char> twins_differ;     ///< per pair: A's and B's fresh answers differ
};

Stream make_stream(RequestGen& gen, Checker& checker) {
  Stream s;
  for (std::size_t t = 0; t < kTypes; ++t) {
    for (std::size_t i = 0; i < kHotPerType[t]; ++i) s.hot.push_back(gen.make_unique(t, false));
  }
  s.twins = checker.near_twins();
  for (std::size_t i = 0; i + 1 < s.twins.size(); i += 2) {
    const auto& a = s.twins[i];
    const auto& b = s.twins[i + 1];
    s.twins_differ.push_back(checker.fresh(a, true) != checker.fresh(b, true));
    std::cerr << "perfbench: near twins " << exact_key(a) << " and " << exact_key(b)
              << " share the cache key '" << serve::canonical_key(a) << "' / '"
              << serve::canonical_key(b) << "'; fresh answers "
              << (s.twins_differ.back() ? "differ" : "agree") << "\n";
  }
  return s;
}

/// Whether `response` to the near twin B at `twins[b]` shows the known
/// cache-key fault: an Ok answer equal to A's fresh answer while B's own
/// fresh answer differs, i.e. B was served from A's cache entry.
bool known_key_fault(const Stream& s, std::size_t b, const serve::Response& response,
                     Checker& checker) {
  return s.twins_differ[b / 2] != 0 && response.status == serve::Status::Ok &&
         describe(response) == checker.fresh(s.twins[b - 1], true);
}

/// One serve-mixed batch: kStreamBatch requests, of which kStreamMisses
/// are unique misses at seeded positions and the near-twin pairs sit at
/// fixed positions, A then B; the rest are uniform picks from the hot set.
void stream_batch(const Stream& s, RequestGen& gen, Rng& rng, std::vector<serve::Request>& batch,
                  std::vector<char>& keep, std::vector<std::size_t>& twin_b) {
  const std::size_t pairs = s.twins.size() / 2;
  const std::size_t gap = kStreamBatch / std::max<std::size_t>(1, pairs);
  batch.clear();
  keep.assign(kStreamBatch, 1);
  twin_b.assign(kStreamBatch, 0);  // index into s.twins of a B, else 0
  std::vector<char> reserved(kStreamBatch, 0);
  for (std::size_t p = 0; p < pairs; ++p) reserved[p * gap] = reserved[p * gap + 1] = 2;
  for (std::size_t placed = 0; placed < kStreamMisses;) {
    const std::size_t at = rng.below(kStreamBatch);
    if (reserved[at] == 0) {
      reserved[at] = 1;
      ++placed;
    }
  }
  std::size_t next_miss = 0, next_twin = 0;
  for (std::size_t i = 0; i < kStreamBatch; ++i) {
    if (reserved[i] == 2) {
      if (next_twin % 2 == 1) twin_b[i] = next_twin;
      batch.push_back(s.twins[next_twin++]);
    } else if (reserved[i] == 1) {
      batch.push_back(gen.make_unique(kMissTypes[next_miss++ % std::size(kMissTypes)], true));
      keep[i] = 0;
    } else {
      batch.push_back(s.hot[rng.below(s.hot.size())]);
    }
  }
}

void print_metric(bool& first, const std::string& name, double value, const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
              std::isfinite(value) ? value : 0.0, unit);
  first = false;
}

/// Per-layer metrics, derived from the spans and counters of a traced run.
void print_layers(const Tracer& tr, double measured_s, double ns_per_span, bool& first) {
  auto med = [&](const char* span) { return median(tr.durations(span)); };
  auto per_call = [&](const char* span) { return med(span) / static_cast<double>(kProbeIters); };
  const double builds = tr.counter("paper.builds");
  for (const char* stage : {"transport.bundle", "isp.ground_truth", "isp.publish",
                            "records.corpus", "core.builder", "core.step1", "core.step2",
                            "core.step3", "core.step4", "core.serialize"}) {
    print_metric(first, std::string(stage) + "_s", med(stage), "s");
  }
  for (const char* step : {"core.step1_allocs", "core.step2_allocs", "core.step4_allocs"}) {
    print_metric(first, step, tr.counter(step) / builds, "count");
  }
  print_metric(first, "serve.snapshot_build_ms", 1e3 * med("serve.snapshot_build"), "ms");
  print_metric(first, "serve.canonical_key_ns", 1e9 * per_call("serve.canonical_key"), "ns");
  print_metric(first, "sim.post_roundtrip_us", 1e6 * per_call("sim.post_roundtrip"), "us");
  std::vector<double> hits;
  double misses = 0.0;
  for (std::size_t t = 0; t < kTypes; ++t) {
    const auto h = tr.durations(std::string("serve.request.hit.") + kTypeNames[t]);
    hits.insert(hits.end(), h.begin(), h.end());
    misses += static_cast<double>(
        tr.durations(std::string("serve.request.miss.") + kTypeNames[t]).size());
  }
  print_metric(first, "serve.hit_us_p99", 1e6 * quantile(hits, 0.99), "us");
  const double served = static_cast<double>(hits.size()) + misses;
  print_metric(first, "serve.hit_ratio", served > 0 ? static_cast<double>(hits.size()) / served : 0.0,
               "ratio");
  print_metric(first, "serve.cache_evictions", tr.counter("serve.cache_evictions"), "count");
  for (std::size_t t = 0; t < kTypes; ++t) {
    const std::string span = std::string("serve.request.miss.") + kTypeNames[t];
    print_metric(first, "serve.miss_us_p50." + std::string(kTypeNames[t]),
                 1e6 * median(tr.durations(span)), "us");
  }
  print_metric(first, "serve.fast_what_if_cut_us", 1e6 * per_call("serve.fast_what_if_cut"), "us");
  print_metric(first, "serve.fast_hamming_us", 1e6 * per_call("serve.fast_hamming"), "us");
  print_metric(first, "route.shortest_path_us", 1e6 * per_call("route.shortest_path"), "us");
  print_metric(first, "worldgen.generate_s", med("worldgen.generate"), "s");
  print_metric(first, "core.parse_s", med("core.parse"), "s");
  print_metric(first, "cascade.campaign_s", med("cascade.campaign"), "s");
  print_metric(first, "cascade.rounds",
               tr.counter("cascade.rounds") / std::max(1.0, tr.counter("cascade.campaigns")),
               "count");
  print_metric(first, "cascade.percolation_s", med("cascade.percolation"), "s");
  print_metric(first, "route.route_forest_ms", 1e3 * med("route.route_forest"), "ms");
  print_metric(first, "route.distance_rows_ms", 1e3 * med("route.distance_rows"), "ms");
  print_metric(first, "dissect.sweep_s", med("dissect.sweep"), "s");
  print_metric(first, "sim.campaign_s", med("sim.campaign"), "s");
  print_metric(first, "serve.delta_apply_ms", 1e3 * med("serve.delta_apply"), "ms");
  print_metric(first, "serve.publish_us", 1e6 * med("serve.publish"), "us");
  print_metric(first, "serve.purge_ms", 1e3 * med("serve.purge"), "ms");
  print_metric(first, "bench.round_s", med("bench.round"), "s");
  const double spans = static_cast<double>(tr.num_spans());
  print_metric(first, "trace.spans", spans, "count");
  print_metric(first, "trace.overhead_pct", 100.0 * spans * ns_per_span * 1e-9 / measured_s, "%");
}

/// Extra cost of one recorded span over an unrecorded one, in ns.
double span_cost_ns() {
  constexpr int kN = 200000;
  Tracer on(true), off(false);
  const std::uint32_t name = on.intern("calibration");
  auto time = [&](Tracer& t) {
    const std::int64_t start = now_ns();
    for (int i = 0; i < kN; ++i) t.span(name).end();
    return static_cast<double>(now_ns() - start) / kN;
  };
  const double off_ns = time(off);
  return std::max(0.0, time(on) - off_ns);
}

int run(int argc, char** argv) {
  std::string workload, trace_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::int64_t t0 = now_ns();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace_path = value;
    } else if (flag == "--t0-ns") {
      t0 = std::stoll(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const Mix mix = mix_of(workload);
  Tracer tracer(!trace_path.empty());
  sim::Executor executor(2);  // the caller plus one worker: two threads
  Run run;
  E2E e2e;

  // --- set-up ---------------------------------------------------------
  PaperBuild paper = build_paper(tracer);
  TenancyScore score;
  run.check(check_paper(*paper.world, nullptr, &score));
  const std::string reference = paper.world->dataset;
  std::cerr << "perfbench: paper build " << paper.seconds << " s, tenancy precision "
            << score.precision << " recall " << score.recall << "\n";

  serve::SnapshotStore store;
  std::unique_ptr<serve::Engine> engine;
  std::unique_ptr<Checker> checker;
  RequestGen gen(*paper.snapshot, seed);
  Stream stream;
  if (mix.stream_batches > 0) {
    store.install(paper.snapshot);
    engine = std::make_unique<serve::Engine>(store, executor);
    checker = std::make_unique<Checker>(paper.snapshot);
    stream = make_stream(gen, *checker);
    // Fill the cache to capacity with distinct city paths, as a long-running
    // server's cache is full, so every unique miss of the measured phase
    // evicts; then warm the hot set and the twins, which stay the most
    // recently used.
    std::vector<serve::Request> all;
    for (std::size_t i = 0; i < serve::EngineOptions{}.cache_capacity; ++i) {
      all.push_back(gen.make_unique(3, false));
    }
    all.insert(all.end(), stream.hot.begin(), stream.hot.end());
    all.insert(all.end(), stream.twins.begin(), stream.twins.end());
    ServeSamples warm;
    Tracer quiet(false);
    std::vector<serve::Response> responses;
    serve_batch(*engine, all, responses, warm, quiet);
  }
  // The requests serve::canonical_key is probed with.
  std::vector<serve::Request> key_probe = stream.hot;
  if (key_probe.empty()) {
    for (std::size_t i = 0; i < 8 * kTypes; ++i) key_probe.push_back(gen.make(i % kTypes));
  }
  std::shared_ptr<const serve::Snapshot> paper_base = paper.snapshot;
  paper.world.reset();
  paper.snapshot.reset();
  const std::int64_t measured_start = now_ns();
  const double setup_s = static_cast<double>(measured_start - t0) * 1e-9;

  // --- measured phase: whole rounds -----------------------------------
  std::size_t slices = 0;
  auto slice = [&] {
    // Every slice of a run asks the same questions, so its samples differ
    // only by the host's phase.
    const std::uint64_t slice_seed = seed * 1000003u;
    ++slices;
    auto span = tracer.span("bench.slice");
    std::string error;
    GeneratedWorld world = build_world(mix.world_scale, kPaperSeed, executor, tracer, error);
    ++run.attempted;
    e2e.world_build_s.push_back(world.seconds);
    if (!mix.paper_per_round) e2e.build_s.push_back(world.build_seconds);
    const auto base = mix.campaigns_on_world ? world.snapshot : paper_base;

    CampaignTotals campaigns;
    run.attempted +=
        run_campaigns(*base, mix.campaigns, slice_seed, executor, tracer, campaigns, error);
    e2e.add_campaigns(campaigns);

    ServeSamples reads;
    std::size_t publish = 0;
    const ReadFn read = [&](serve::Engine& reader, std::shared_ptr<const serve::Snapshot> snap) {
      std::size_t counts[kTypes];
      const bool last = ++publish == 4;
      for (std::size_t t = 0; t < kTypes; ++t) {
        counts[t] = mix.reads[t] + (last ? mix.last_reads[t] : 0);
      }
      post_publish_reads(reader, std::move(snap), counts, kReadRepeats,
                         slice_seed * 8 + publish, reads, tracer, run);
      if (last) {
        tracer.count("serve.cache_evictions",
                     static_cast<double>(reader.cache_stats().evictions));
      }
    };
    std::vector<double> publish_ms;
    run.attempted += run_deltas(base, slice_seed, executor, tracer, publish_ms, read, error);
    e2e.publish_ms.push_back(median(publish_ms));
    if (!engine) e2e.add_serve(reads);
    kernel_probes(*base, key_probe, slice_seed, executor, tracer);
    run.attempted += 5;
    run.check(error);
  };

  std::size_t rounds = 0;
  std::vector<double> round_times;
  std::vector<serve::Request> batch;
  std::vector<char> keep;
  std::vector<std::size_t> twin_b;
  while (rounds == 0 || static_cast<double>(now_ns() - measured_start) * 1e-9 < seconds) {
    auto round_span = tracer.span("bench.round");
    if (mix.paper_per_round) {
      PaperBuild b = build_paper(tracer, slice);
      e2e.build_s.push_back(b.seconds);
      run.check(check_paper(*b.world, &reference));
      ++run.attempted;
      paper_base = b.snapshot;
    }
    for (std::size_t k = 0; k < mix.stream_batches; ++k) {
      Rng rng(seed * 1000003u + rounds);
      stream_batch(stream, gen, rng, batch, keep, twin_b);
      ServeSamples samples;
      std::vector<serve::Response> responses;
      serve_batch(*engine, batch, responses, samples, tracer);
      e2e.add_serve(samples);
      run.attempted += batch.size();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::string e = checker->check(batch[i], responses[i], keep[i] != 0);
        if (e.empty()) continue;
        if (twin_b[i] != 0 && known_key_fault(stream, twin_b[i], responses[i], *checker)) {
          ++run.failed;
        } else {
          run.check(e);
        }
      }
    }
    if (!mix.paper_per_round) slice();
    round_times.push_back(round_span.end());
    ++rounds;
  }
  const double measured_s = static_cast<double>(now_ns() - measured_start) * 1e-9;
  if (engine) {
    tracer.count("serve.cache_evictions", static_cast<double>(engine->cache_stats().evictions));
  }
  std::cerr << "perfbench: " << rounds << " rounds, " << slices << " slices in " << measured_s
            << " s, median round " << median(round_times) << " s\n";
  if (!run.error.empty()) std::cerr << "perfbench: CHECK FAILED: " << run.error << "\n";

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              run.error.empty() ? "true" : "false", run.attempted, run.failed);
  bool first = true;
  if (tracer.on()) {
    print_layers(tracer, measured_s, span_cost_ns(), first);
  } else {
    print_metric(first, "setup_s", setup_s, "s");
    print_metric(first, "peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB");
    print_metric(first, "build_s", minimum(e2e.build_s), "s");
    print_metric(first, "serve_req_per_s", maximum(e2e.serve_rate), "1/s");
    print_metric(first, "hit_p50_us", minimum(e2e.hit_us), "us");
    print_metric(first, "miss_p50_us", minimum(e2e.miss_us), "us");
    print_metric(first, "world_build_s", minimum(e2e.world_build_s), "s");
    print_metric(first, "cascade_trials_per_s", maximum(e2e.cascade_rate), "1/s");
    print_metric(first, "dissect_pairs_per_s", maximum(e2e.dissect_rate), "1/s");
    print_metric(first, "sim_trials_per_s", maximum(e2e.sim_rate), "1/s");
    print_metric(first, "delta_publish_ms", minimum(e2e.publish_ms), "ms");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  if (tracer.on()) tracer.write_json(trace_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
