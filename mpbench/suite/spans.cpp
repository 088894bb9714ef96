#include "spans.hpp"

#include <cstdio>
#include <unordered_map>

namespace mpbench {

void SpanRecorder::Lane::add(std::uint64_t id, const char* name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent,
                             std::uint64_t request) {
  spans_.push_back(Span{name, start, end, id, parent, request});
}

SpanRecorder::Lane& SpanRecorder::lane(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Lane& l : lanes_)
    if (l.name_ == name) return l;
  lanes_.push_back(Lane(this, name, static_cast<int>(lanes_.size()) + 1));
  return lanes_.back();
}

std::map<std::string, double> SpanRecorder::self_seconds(const std::string& lane_prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> self;
  for (const Lane& l : lanes_) {
    if (l.name_.rfind(lane_prefix, 0) != 0) continue;
    std::unordered_map<std::uint64_t, double> child_seconds;
    for (const Span& s : l.spans_)
      if (s.parent != 0) child_seconds[s.parent] += seconds_between(s.start, s.end);
    for (const Span& s : l.spans_) {
      const auto it = child_seconds.find(s.id);
      const double children = it != child_seconds.end() ? it->second : 0.0;
      self[s.name] += seconds_between(s.start, s.end) - children;
    }
  }
  return self;
}

bool SpanRecorder::write_chrome(const std::string& path, std::size_t max_events) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  std::size_t written = 0;
  std::size_t dropped = 0;
  for (const Lane& l : lanes_) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", l.tid_, l.name_.c_str());
    first = false;
    for (const Span& s : l.spans_) {
      if (written == max_events) {
        ++dropped;
        continue;
      }
      ++written;
      std::fprintf(f,
                   ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                   s.name, l.tid_, us(s.start), us(s.end) - us(s.start),
                   static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  std::fprintf(f, "],\"otherData\":{\"spans_written\":%zu,\"spans_dropped\":%zu}}\n", written,
               dropped);
  return std::fclose(f) == 0;
}

}  // namespace mpbench
