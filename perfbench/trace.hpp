// Spans, counters and small statistics for the benchmark binary.
//
// Every timed call the benchmark makes goes through a Tracer::Span, which
// always reads the clock (the end-to-end metrics need the duration) and,
// only when tracing is on, also records a span: name, start, end, parent
// span and a request id for serve requests.  Spans stay in memory and are
// written as JSON once, at exit.  Counters are plain named numbers kept
// beside the spans (allocation counts, cache evictions, cascade rounds).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (reorders it); 0 for an empty vector.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return (*std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)) + hi) / 2.0;
}

/// Smallest element of `v`; 0 for an empty vector.
inline double minimum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Largest element of `v`; 0 for an empty vector.
inline double maximum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty vector.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

struct SpanRecord {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint32_t request = 0;  ///< serve request id; 0 outside serve
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_ns_(now_ns()) {
    if (on_) spans_.reserve(1u << 16);
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const noexcept { return on_; }

  std::uint32_t intern(std::string_view name) {
    const auto it = ids_.find(std::string(name));
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
  }

  /// A timed region.  end() closes it and returns its length in seconds;
  /// a span that goes out of scope unended is closed by the destructor.
  class Span {
   public:
    Span(Tracer& tracer, std::uint32_t name, std::uint32_t request)
        : tracer_(&tracer), start_ns_(now_ns()) {
      if (tracer.on_) {
        index_ = static_cast<std::int32_t>(tracer.spans_.size());
        tracer.spans_.push_back(
            {name, tracer.open_.empty() ? -1 : tracer.open_.back(), request, start_ns_, 0});
        tracer.open_.push_back(index_);
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (tracer_ != nullptr) end();
    }

    double end() {
      const std::int64_t stop = now_ns();
      if (tracer_ != nullptr && index_ >= 0) {
        tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = stop;
        tracer_->open_.pop_back();
      }
      tracer_ = nullptr;
      return static_cast<double>(stop - start_ns_) * 1e-9;
    }

   private:
    Tracer* tracer_;
    std::int64_t start_ns_;
    std::int32_t index_ = -1;
  };

  Span span(std::string_view name, std::uint32_t request = 0) {
    return Span(*this, on_ ? intern(name) : 0, request);
  }
  Span span(std::uint32_t name, std::uint32_t request = 0) { return Span(*this, name, request); }

  /// Record an already-timed region (a request timed by the client loop).
  void record(std::uint32_t name, std::uint32_t request, std::int64_t start_ns,
              std::int64_t end_ns) {
    if (!on_) return;
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), request, start_ns, end_ns});
  }

  void count(const std::string& name, double delta) { counters_[name] += delta; }
  double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

  std::size_t num_spans() const noexcept { return spans_.size(); }

  /// Durations in seconds of every recorded span called `name`.
  std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    const auto it = ids_.find(std::string(name));
    if (it == ids_.end()) return out;
    for (const auto& s : spans_) {
      if (s.name == it->second) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
    return out;
  }

  /// Write {"names": [...], "counters": {...}, "spans": [[name, parent,
  /// request, start_ns, end_ns], ...]} with times relative to the tracer's
  /// creation.
  void write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
    std::fputs("{\"names\": [", f);
    for (std::size_t i = 0; i < names_.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "", names_[i].c_str());
    }
    std::fputs("],\n\"counters\": {", f);
    bool first = true;
    for (const auto& [name, value] : counters_) {
      std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
      first = false;
    }
    std::fputs("},\n\"spans\": [", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f, "%s[%u,%d,%u,%lld,%lld]", i ? ",\n" : "\n", s.name, s.parent, s.request,
                   static_cast<long long>(s.start_ns - origin_ns_),
                   static_cast<long long>(s.end_ns - origin_ns_));
    }
    std::fputs("]}\n", f);
    if (std::fclose(f) != 0) throw std::runtime_error("cannot finish trace " + path);
  }

 private:
  bool on_;
  std::int64_t origin_ns_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> open_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::map<std::string, double> counters_;
};

}  // namespace perfbench
