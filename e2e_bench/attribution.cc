#include "attribution.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string_view>
#include <utility>

namespace fnproxy::e2e {

namespace {

constexpr const char* kProxySpanNames[kNumProxySpans] = {
    "request",          "template_match", "cache_lookup", "local_eval",
    "remainder_build",  "origin_roundtrip", "merge",      "serialize",
    "cache_admit",      "restore",        "peer_lookup",  "other",
};

int ProxySpanIdOf(std::string_view name) {
  for (int id = 0; id < kOtherSpan; ++id) {
    if (name == kProxySpanNames[id]) return id;
  }
  return kOtherSpan;
}

Interval Clip(Interval wall, Interval bounds) {
  wall.start = std::max(wall.start, bounds.start);
  wall.end = std::min(wall.end, bounds.end);
  if (wall.end < wall.start) wall.end = wall.start;
  return wall;
}

/// Sorted, disjoint union of `intervals`.
std::vector<Interval> Union(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::vector<Interval> merged;
  for (const Interval& interval : intervals) {
    if (interval.length() == 0) continue;
    if (!merged.empty() && interval.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, interval.end);
    } else {
      merged.push_back(interval);
    }
  }
  return merged;
}

/// `base` minus a sorted, disjoint set of holes.
std::vector<Interval> Subtract(Interval base,
                               const std::vector<Interval>& holes) {
  std::vector<Interval> rest;
  int64_t cursor = base.start;
  for (const Interval& hole : holes) {
    if (hole.end <= cursor) continue;
    if (hole.start >= base.end) break;
    if (hole.start > cursor) rest.push_back({cursor, hole.start});
    cursor = std::max(cursor, hole.end);
  }
  if (cursor < base.end) rest.push_back({cursor, base.end});
  return rest;
}

int64_t Length(const std::vector<Interval>& set) {
  int64_t total = 0;
  for (const Interval& interval : set) total += interval.length();
  return total;
}

/// Overlap of two sorted, disjoint sets.
int64_t OverlapLength(const std::vector<Interval>& a,
                      const std::vector<Interval>& b) {
  int64_t total = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int64_t start = std::max(a[i].start, b[j].start);
    const int64_t end = std::min(a[i].end, b[j].end);
    if (end > start) total += end - start;
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

bool Contains(Interval outer, Interval inner) {
  return inner.start >= outer.start && inner.end <= outer.end;
}

void SortByStart(std::vector<SpanRecorder::Event>* events) {
  std::sort(events->begin(), events->end(),
            [](const SpanRecorder::Event& a, const SpanRecorder::Event& b) {
              return a.wall.start < b.wall.start;
            });
}

/// Index of the last event in `sorted` starting at or before `at`, or -1.
long LastStartingBy(const std::vector<SpanRecorder::Event>& sorted,
                    int64_t at) {
  auto it = std::upper_bound(
      sorted.begin(), sorted.end(), at,
      [](int64_t t, const SpanRecorder::Event& e) { return t < e.wall.start; });
  return static_cast<long>(it - sorted.begin()) - 1;
}

std::map<std::thread::id, std::vector<SpanRecorder::Event>> ByThread(
    const std::vector<SpanRecorder::Event>& events) {
  std::map<std::thread::id, std::vector<SpanRecorder::Event>> by_thread;
  for (const SpanRecorder::Event& event : events) {
    by_thread[event.thread].push_back(event);
  }
  for (auto& [thread, list] : by_thread) SortByStart(&list);
  return by_thread;
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* ProxySpanName(int id) {
  return id >= 0 && id < kNumProxySpans ? kProxySpanNames[id] : "other";
}

void SpanRecorder::RecordClient(Interval wall) {
  if (!enabled_) return;
  util::MutexLock lock(mu_);
  clients_.push_back({std::this_thread::get_id(), wall});
}

void SpanRecorder::RecordHandle(Interval wall) {
  if (!enabled_) return;
  util::MutexLock lock(mu_);
  handles_.push_back({std::this_thread::get_id(), wall});
}

void SpanRecorder::RecordOrigin(Interval wall) {
  if (!enabled_) return;
  util::MutexLock lock(mu_);
  origins_.push_back({std::this_thread::get_id(), wall});
}

void SpanRecorder::Consume(const obs::QueryTrace& trace) {
  if (!enabled_) return;
  Trace record;
  record.sink.start = NowNanos();
  record.thread = std::this_thread::get_id();
  record.spans.reserve(trace.spans().size());
  for (const obs::TraceSpan& span : trace.spans()) {
    ProxySpan reduced;
    reduced.id = ProxySpanIdOf(span.name);
    reduced.parent = span.parent;
    reduced.wall = {span.wall_start_micros * 1000, span.wall_end_micros * 1000};
    record.spans.push_back(reduced);
    if (reduced.id != kCacheLookupSpan) continue;
    for (const auto& [key, value] : span.attrs) {
      if (key == "description_comparisons") {
        record.description_comparisons +=
            std::strtoull(value.c_str(), nullptr, 10);
      }
    }
  }
  record.sink.end = NowNanos();
  util::MutexLock lock(mu_);
  traces_.push_back(std::move(record));
}

std::vector<SpanRecorder::Event> SpanRecorder::clients() const {
  util::MutexLock lock(mu_);
  return clients_;
}

std::vector<SpanRecorder::Event> SpanRecorder::handles() const {
  util::MutexLock lock(mu_);
  return handles_;
}

std::vector<SpanRecorder::Event> SpanRecorder::origins() const {
  util::MutexLock lock(mu_);
  return origins_;
}

std::vector<SpanRecorder::Trace> SpanRecorder::traces() const {
  util::MutexLock lock(mu_);
  return traces_;
}

net::HttpResponse ProbeHandler::Handle(const net::HttpRequest& request) {
  if (!recorder_->enabled()) return inner_->Handle(request);
  Interval wall;
  wall.start = NowNanos();
  net::HttpResponse response = inner_->Handle(request);
  wall.end = NowNanos();
  if (boundary_ == Boundary::kHandle) {
    recorder_->RecordHandle(wall);
  } else {
    recorder_->RecordOrigin(wall);
  }
  return response;
}

Attribution Attribute(const SpanRecorder& recorder, bool per_request_origin) {
  Attribution out;
  std::vector<SpanRecorder::Event> handles = recorder.handles();
  std::vector<SpanRecorder::Event> clients = recorder.clients();
  std::vector<SpanRecorder::Event> origins = recorder.origins();
  const std::vector<SpanRecorder::Trace> traces = recorder.traces();
  SortByStart(&handles);
  SortByStart(&clients);
  SortByStart(&origins);
  out.requests = handles.size();

  for (const auto& event : clients) out.client_ns += event.wall.length();
  for (const auto& event : origins) {
    out.origin_ns += event.wall.length();
    out.origin_samples.push_back(event.wall.length());
  }

  // Handle -> trace: the sink runs on the Handle thread, inside Handle,
  // after the proxy's root span closed.
  const auto handles_by_thread = ByThread(handles);
  std::map<std::pair<std::thread::id, long>, const SpanRecorder::Trace*>
      trace_of;
  for (const SpanRecorder::Trace& trace : traces) {
    auto it = handles_by_thread.find(trace.thread);
    long index = it == handles_by_thread.end()
                     ? -1
                     : LastStartingBy(it->second, trace.sink.start);
    if (index < 0 || !Contains(it->second[index].wall, trace.sink) ||
        !trace_of.emplace(std::make_pair(trace.thread, index), &trace)
             .second) {
      ++out.unmatched;
    }
  }

  // Handle -> client call: the client call on the Handle's own thread that
  // contains it.
  const auto clients_by_thread = ByThread(clients);
  for (const auto& [thread, list] : handles_by_thread) {
    auto it = clients_by_thread.find(thread);
    for (const SpanRecorder::Event& handle : list) {
      long index = it == clients_by_thread.end()
                       ? -1
                       : LastStartingBy(it->second, handle.wall.start);
      if (index < 0 || !Contains(it->second[index].wall, handle.wall)) {
        ++out.unmatched;
        continue;
      }
      out.client_overhead_samples.push_back(it->second[index].wall.length() -
                                            handle.wall.length());
    }
  }

  for (const auto& [thread, list] : handles_by_thread) {
    for (size_t i = 0; i < list.size(); ++i) {
      const Interval handle = list[i].wall;
      const int64_t handle_length = handle.length();
      out.handle_ns += handle_length;
      out.handle_samples.push_back(handle_length);

      auto found = trace_of.find({thread, static_cast<long>(i)});
      if (found == trace_of.end() || found->second->spans.empty()) {
        ++out.unmatched;
        out.unspanned_ns += handle_length;
        continue;
      }
      const SpanRecorder::Trace& trace = *found->second;

      std::vector<Interval> origin_union;
      if (per_request_origin) {
        std::vector<Interval> inside;
        for (long k = std::max<long>(0, LastStartingBy(origins, handle.start));
             k < static_cast<long>(origins.size()) &&
             origins[k].wall.start < handle.end;
             ++k) {
          if (origins[k].wall.start >= handle.start) {
            inside.push_back(Clip(origins[k].wall, handle));
          }
        }
        origin_union = Union(std::move(inside));
      }

      std::vector<std::vector<Interval>> children(trace.spans.size());
      Interval root = {handle.start, handle.start};
      for (size_t s = 0; s < trace.spans.size(); ++s) {
        const ProxySpan& span = trace.spans[s];
        const Interval wall = Clip(span.wall, handle);
        if (span.parent < 0) {
          root = wall;
        } else if (static_cast<size_t>(span.parent) < trace.spans.size()) {
          children[span.parent].push_back(wall);
        } else {
          ++out.unmatched;
        }
      }
      int64_t self_sum = 0;
      for (size_t s = 0; s < trace.spans.size(); ++s) {
        const ProxySpan& span = trace.spans[s];
        const std::vector<Interval> self_set =
            Subtract(Clip(span.wall, handle), Union(children[s]));
        const int64_t self = Length(self_set);
        out.self_ns[span.id] += self;
        self_sum += self;
        if (span.id == kOriginRoundtripSpan && per_request_origin) {
          out.origin_wait_ns += OverlapLength(self_set, origin_union);
        }
      }
      const Interval sink = Clip(trace.sink, handle);
      const int64_t unspanned = Length(Subtract(handle, Union({root, sink})));
      out.sink_ns += sink.length();
      out.unspanned_ns += unspanned;
      out.residual_ns += handle_length - self_sum - sink.length() - unspanned;
      out.description_comparisons += trace.description_comparisons;
    }
  }
  if (!per_request_origin) {
    out.origin_wait_ns =
        std::min(out.self_ns[kOriginRoundtripSpan], out.origin_ns);
  }
  out.origin_parse_ns = out.self_ns[kOriginRoundtripSpan] - out.origin_wait_ns;
  return out;
}

}  // namespace fnproxy::e2e
