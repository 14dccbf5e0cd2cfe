#ifndef FNPROXY_E2E_BENCH_ATTRIBUTION_H_
#define FNPROXY_E2E_BENCH_ATTRIBUTION_H_

// Wall-time attribution for the traced run of the end-to-end benchmark.
//
// The benchmark records its own spans at three boundaries — the workload's
// client call, FunctionProxy::Handle, and every origin call behind the WAN
// channel — and collects the proxy's per-request span trees through the
// public ProxyConfig::trace_sink. Spans stay in memory until the pass ends;
// Attribute() then splits each request's Handle wall time into the proxy's
// span self times, the time outside the proxy's root span, and the sink's
// own cost, and reports what is left over as the accounting residual.

#include <array>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/http.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fnproxy::e2e {

/// Steady-clock nanoseconds, on the epoch of obs::WallNowMicros() so the
/// benchmark's spans and the proxy's wall_* span stamps share one timeline.
int64_t NowNanos();

/// A wall-clock interval [start, end) in steady-clock nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
  int64_t length() const { return end > start ? end - start : 0; }
};

/// The proxy span names the benchmark attributes self time to (the names
/// core/proxy.cc opens). Any other name lands in kOtherSpan.
enum ProxySpanId : int {
  kRequestSpan,
  kTemplateMatchSpan,
  kCacheLookupSpan,
  kLocalEvalSpan,
  kRemainderBuildSpan,
  kOriginRoundtripSpan,
  kMergeSpan,
  kSerializeSpan,
  kCacheAdmitSpan,
  kRestoreSpan,
  kPeerLookupSpan,
  kOtherSpan,
  kNumProxySpans,
};
const char* ProxySpanName(int id);

/// One span of a proxy trace, reduced to what attribution needs.
struct ProxySpan {
  int id = kOtherSpan;
  int parent = -1;
  Interval wall;
};

/// Records the benchmark's spans and consumes the proxy's traces. Disabled
/// recorders drop everything, so the untraced run pays one branch per
/// boundary. Thread-safe: client, Handle, sink and origin spans arrive from
/// request threads, server workers and origin-channel dispatchers.
class SpanRecorder final : public obs::TraceSink {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void RecordClient(Interval wall) EXCLUDES(mu_);
  void RecordHandle(Interval wall) EXCLUDES(mu_);
  void RecordOrigin(Interval wall) EXCLUDES(mu_);
  void Consume(const obs::QueryTrace& trace) override EXCLUDES(mu_);

  struct Event {
    std::thread::id thread;
    Interval wall;
  };
  struct Trace {
    std::thread::id thread;
    /// The sink's own Consume call.
    Interval sink;
    std::vector<ProxySpan> spans;
    uint64_t description_comparisons = 0;
  };
  std::vector<Event> clients() const EXCLUDES(mu_);
  std::vector<Event> handles() const EXCLUDES(mu_);
  std::vector<Event> origins() const EXCLUDES(mu_);
  std::vector<Trace> traces() const EXCLUDES(mu_);

 private:
  const bool enabled_;
  mutable util::Mutex mu_;
  std::vector<Event> clients_ GUARDED_BY(mu_);
  std::vector<Event> handles_ GUARDED_BY(mu_);
  std::vector<Event> origins_ GUARDED_BY(mu_);
  std::vector<Trace> traces_ GUARDED_BY(mu_);
};

/// HttpHandler wrapper recording a span around every call of `inner`.
class ProbeHandler final : public net::HttpHandler {
 public:
  enum class Boundary { kHandle, kOrigin };
  ProbeHandler(net::HttpHandler* inner, SpanRecorder* recorder,
               Boundary boundary)
      : inner_(inner), recorder_(recorder), boundary_(boundary) {}

  net::HttpResponse Handle(const net::HttpRequest& request) override;

 private:
  net::HttpHandler* inner_;
  SpanRecorder* recorder_;
  Boundary boundary_;
};

/// Wall time of one traced pass, split by layer. Times are nanosecond
/// totals over the pass; samples are per request (or per origin call) in
/// nanoseconds.
struct Attribution {
  size_t requests = 0;
  int64_t client_ns = 0;
  int64_t handle_ns = 0;
  int64_t origin_ns = 0;
  int64_t sink_ns = 0;
  /// Handle wall outside the proxy's root span and the sink.
  int64_t unspanned_ns = 0;
  /// Handle wall minus every attributed part; 0 when the span trees nest.
  int64_t residual_ns = 0;
  /// origin_roundtrip self time covered by an origin call: the time Handle
  /// waited for the origin. Origin time that overlaps other proxy work (an
  /// async remainder fetch during local_eval) is not in it.
  int64_t origin_wait_ns = 0;
  /// origin_roundtrip self time not covered by an origin call: response
  /// channel work and parsing.
  int64_t origin_parse_ns = 0;
  std::array<int64_t, kNumProxySpans> self_ns = {};
  uint64_t description_comparisons = 0;
  std::vector<int64_t> handle_samples;
  std::vector<int64_t> origin_samples;
  /// Client call minus Handle, per request.
  std::vector<int64_t> client_overhead_samples;
  /// Structural problems found while pairing spans (0 = clean).
  size_t unmatched = 0;
};

/// Pairs each Handle span with the client call on its thread and with its
/// proxy trace, and attributes its wall time. `per_request_origin`: origin
/// calls are charged to the Handle interval that contains them (one
/// client); otherwise origin wait and parse times are computed from totals.
Attribution Attribute(const SpanRecorder& recorder, bool per_request_origin);

}  // namespace fnproxy::e2e

#endif  // FNPROXY_E2E_BENCH_ATTRIBUTION_H_
