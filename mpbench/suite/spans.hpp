// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around every timed public call: a
// span holds a name, start, end, its parent span and, for served requests,
// the request id that ties a submit span to its resolve span. Each thread
// appends to its own lane, so recording takes no lock. At the end of the
// run the spans are written as Chrome trace JSON, and per-name self times
// (duration minus same-lane children) are derived from them.
//
// The library's own tracer is deliberately not attached: attaching it
// changes which chunked regime runs, so its spans would describe code the
// untraced run never executes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "suite.hpp"

namespace mpbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name;  // string literal
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t id;
    std::uint64_t parent;   // 0 = root
    std::uint64_t request;  // 0 = none
  };

  /// One thread's spans. Only the thread that obtained a lane appends to it.
  class Lane {
   public:
    void add(std::uint64_t id, const char* name, Clock::time_point start, Clock::time_point end,
             std::uint64_t parent = 0, std::uint64_t request = 0);
    SpanRecorder& recorder() { return *owner_; }

   private:
    friend class SpanRecorder;
    Lane(SpanRecorder* owner, std::string name, int tid)
        : owner_(owner), name_(std::move(name)), tid_(tid) {}
    SpanRecorder* owner_;
    std::string name_;
    int tid_;
    std::vector<Span> spans_;
  };

  SpanRecorder() : origin_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// The lane named `name`, created on first use.
  Lane& lane(const std::string& name);
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Total self seconds per span name over the lanes whose name starts with
  /// `lane_prefix`.
  std::map<std::string, double> self_seconds(const std::string& lane_prefix) const;

  /// Writes at most `max_events` spans as Chrome trace JSON; returns false
  /// when the file cannot be written.
  bool write_chrome(const std::string& path, std::size_t max_events) const;

 private:
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;  // guards lanes_ (not the spans inside a lane)
  std::deque<Lane> lanes_;
};

/// Records one span from construction to destruction; a no-op without a lane.
class SpanScope {
 public:
  SpanScope(SpanRecorder::Lane* lane, const char* name, std::uint64_t parent = 0)
      : lane_(lane),
        name_(name),
        parent_(parent),
        id_(lane != nullptr ? lane->recorder().next_id() : 0),
        start_(lane != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~SpanScope() {
    if (lane_ != nullptr) lane_->add(id_, name_, start_, Clock::now(), parent_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder::Lane* lane_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  Clock::time_point start_;
};

/// The lane `<workload>/<thread>` of the run's recorder, or null untraced.
inline SpanRecorder::Lane* lane_for(const RunOptions& opts, const char* thread) {
  return opts.spans != nullptr ? &opts.spans->lane(opts.workload + "/" + thread) : nullptr;
}

/// Records an already-timed call as a child span; a no-op without a lane.
inline void record(SpanRecorder::Lane* lane, const char* name, Clock::time_point start,
                   Clock::time_point end, std::uint64_t parent, std::uint64_t request = 0) {
  if (lane != nullptr) lane->add(lane->recorder().next_id(), name, start, end, parent, request);
}

}  // namespace mpbench
