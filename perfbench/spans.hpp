// In-memory span recorder and self-time reducer for the benchmark's
// traced rounds.
//
// The benchmark opens a Scope around each call it makes into a layer's
// public API (and around the health-tick callback it hands to the
// simulations).  Spans are appended to one vector on the driving
// thread and written out once, when the run ends.  A span's self time
// is its duration minus the time its direct children cover; children
// run on the same thread inside their parent, so they never overlap.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    const char* name = "";  ///< string literal: the layer call
    std::uint32_t parent = kNoParent;
    std::uint64_t request = 0;  ///< batch (serve) or record (ingest) id
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Drops recorded spans and turns recording on or off.
  void reset(bool enabled) {
    spans_.clear();
    enabled_ = enabled;
    current_ = kNoParent;
  }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span; a no-op while recording is off.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t request = 0)
        : log_(log) {
      if (!log_.enabled_) return;
      index_ = static_cast<std::uint32_t>(log_.spans_.size());
      const std::uint32_t parent = log_.current_;
      if (request == 0 && parent != kNoParent) {
        request = log_.spans_[parent].request;
      }
      log_.spans_.push_back(Span{name, parent, request, now_ns(), 0});
      log_.current_ = index_;
    }
    ~Scope() {
      if (index_ == kNoParent) return;
      Span& span = log_.spans_[index_];
      span.end_ns = now_ns();
      log_.current_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::uint32_t index_ = kNoParent;
  };

  /// Self seconds summed per span name.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent != kNoParent) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out[span.name] +=
          static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
    }
    return out;
  }

  /// Tab-separated dump: index, parent (-1 for roots), request, name,
  /// start and end in ns relative to the first span.
  bool write_tsv(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "index\tparent\trequest\tname\tstart_ns\tend_ns\n");
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file, "%zu\t%lld\t%llu\t%s\t%lld\t%lld\n", i,
                   span.parent == kNoParent
                       ? -1LL
                       : static_cast<long long>(span.parent),
                   static_cast<unsigned long long>(span.request), span.name,
                   static_cast<long long>(span.start_ns - origin),
                   static_cast<long long>(span.end_ns - origin));
    }
    return std::fclose(file) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::uint32_t current_ = kNoParent;
  bool enabled_ = false;
};

}  // namespace perfbench
