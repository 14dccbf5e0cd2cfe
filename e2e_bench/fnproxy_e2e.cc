// Unpaced end-to-end benchmark of the function proxy.
//
//   fnproxy_e2e --workload NAME --seed N --seconds S --trace 0|1
//
// Replays a seeded query trace closed loop through the public API, with no
// pacing, and prints one JSON object as the last line of stdout:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
// one traced pass and reports per-layer wall-time attribution instead.
// Every response is compared tuple for tuple with a reference origin
// outside the timed sections; a mismatch, a failed workload self-check or a
// failed accounting check makes "correct" false and the exit code 1.
// See README.md in this directory for the workloads and the metric catalog.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attribution.h"
#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "core/template_registry.h"
#include "net/http.h"
#include "net/network.h"
#include "server/database.h"
#include "server/sky_functions.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "util/clock.h"
#include "util/status.h"
#include "workload/experiment.h"
#include "workload/rbe.h"
#include "workload/trace.h"
#include "workload/trace_generator.h"

namespace fnproxy::e2e {
namespace {

using geometry::RegionRelation;
using workload::SkyExperiment;

/// Requests replayed between two correctness checks. The check runs outside
/// the timed sections and bounds the response bodies held in memory.
constexpr size_t kChunkRequests = 2000;
/// Set-ups per run; setup_s is their median. One takes about 0.2 s, and
/// the host's speed drifts over seconds, so the median is taken over about
/// five seconds of set-ups.
constexpr int kSetups = 25;
/// The flash crowd trace is longer than the paper's: 11,323 queries finish
/// in about half a second at four clients.
constexpr size_t kFlashCrowdQueries = 40000;
/// radial_tiered's result-store budget: about 1/50 of the Radial trace's
/// distinct result bytes (50-62 MB, by seed), so eviction runs all the time.
constexpr size_t kTieredBudgetBytes = 1'100'000;
/// Largest accepted accounting residual, as a share of Handle wall time.
constexpr double kMaxResidualShare = 0.005;

struct Workload {
  const char* name;
  bool flash_crowd;
  size_t clients;
  bool tiered;
  /// The nominal length of one timed pass. A run makes --seconds divided by
  /// this many passes, rounded: a constant, so the estimator does not
  /// change when the code gets faster.
  double nominal_pass_seconds;
};

constexpr Workload kWorkloads[] = {
    {"radial_full", false, 1, false, 3.75},
    {"radial_tiered", false, 1, true, 5.0},
    {"flash_crowd", true, 4, false, 3.0},
};

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

void Check(const util::Status& status, const char* what) {
  if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
}

// --- Set-up ---------------------------------------------------------------

/// The origin site's database and the templates both ends register: what
/// set-up builds before a proxy can serve.
struct Origin {
  server::Database db;
  std::unique_ptr<server::SkyGrid> grid;
  core::TemplateRegistry templates;
  std::vector<std::pair<double, double>> clusters;
};

std::unique_ptr<Origin> BuildOrigin(const SkyExperiment::Options& options) {
  auto origin = std::make_unique<Origin>();
  origin->db.AddTable("PhotoPrimary", catalog::GenerateSkyCatalog(
                                          options.catalog, &origin->clusters));
  origin->grid =
      std::make_unique<server::SkyGrid>(origin->db.FindTable("PhotoPrimary"));
  origin->db.RegisterTableFunction(
      server::MakeGetNearbyObjEq(origin->grid.get()));
  origin->db.scalar_functions()->Register(
      "fPhotoFlags",
      [](const std::vector<sql::Value>& args) -> util::StatusOr<sql::Value> {
        if (args.size() != 1 || args[0].type() != sql::ValueType::kString) {
          return util::Status::InvalidArgument(
              "fPhotoFlags expects one flag-name string");
        }
        FNPROXY_ASSIGN_OR_RETURN(int64_t bit,
                                 catalog::PhotoFlagValue(args[0].AsString()));
        return sql::Value::Int(bit);
      });
  Check(origin->templates.RegisterFunctionTemplateXml(
            workload::kNearbyObjEqTemplateXml),
        "register fGetNearbyObjEq template");
  auto radial = core::QueryTemplate::Create("radial", "/radial",
                                            workload::kRadialTemplateSql);
  Check(radial.status(), "parse radial query template");
  Check(origin->templates.RegisterQueryTemplate(std::move(*radial)),
        "register radial query template");
  return origin;
}

core::ProxyConfig MakeProxyConfig(const Workload& workload,
                                  obs::TraceSink* sink) {
  core::ProxyConfig config;
  if (workload.clients > 1) config.cache_shards = 8;
  if (workload.tiered) {
    config.max_cache_bytes = kTieredBudgetBytes;
    config.storage.enable = true;
    // Inline maintenance keeps a single-client replay deterministic; on the
    // maintenance thread cache_efficiency varied 0.26-0.32 run to run.
    config.storage.background_maintenance = false;
    // No spill directory, so nothing spills to disk. Creating a file costs
    // about 0.6 ms of kernel time on the file systems this benchmark was
    // tuned on, and that cost drifts over minutes; with ~11,000 spill files
    // per pass it was half the pass time and no bound could hold it.
  }
  config.trace_sink = sink;
  return config;
}

/// One serving pipeline: client -> LAN channel -> Handle probe ->
/// FunctionProxy -> WAN channel -> origin probe -> OriginWebApp.
class Pipeline {
 public:
  Pipeline(Origin* origin, const Workload& workload,
           const SkyExperiment::Options& options, SpanRecorder* recorder)
      : app_(&origin->db, &clock_, options.server_costs),
        origin_probe_(&app_, recorder, ProbeHandler::Boundary::kOrigin),
        wan_(&origin_probe_, options.wan, &clock_),
        proxy_(MakeProxyConfig(workload,
                               recorder->enabled() ? recorder : nullptr),
               &origin->templates, &wan_, &clock_),
        handle_probe_(&proxy_, recorder, ProbeHandler::Boundary::kHandle),
        lan_(&handle_probe_, options.lan, &clock_) {
    Check(app_.RegisterForm("/radial", workload::kRadialTemplateSql),
          "register /radial");
  }

  net::HttpResponse Call(const net::HttpRequest& request) {
    return lan_.RoundTrip(request);
  }

  const util::SimulatedClock& clock() const { return clock_; }
  const core::FunctionProxy& proxy() const { return proxy_; }
  const server::OriginWebApp& app() const { return app_; }
  const net::SimulatedChannel& wan() const { return wan_; }

 private:
  util::SimulatedClock clock_;
  server::OriginWebApp app_;
  ProbeHandler origin_probe_;
  net::SimulatedChannel wan_;
  core::FunctionProxy proxy_;
  ProbeHandler handle_probe_;
  net::SimulatedChannel lan_;
};

// --- Correctness ----------------------------------------------------------

std::multiset<std::string> RowSet(const sql::Table& table) {
  std::multiset<std::string> rows;
  for (const auto& row : table.rows()) {
    std::string key;
    for (const sql::Value& v : row) {
      key += v.ToSqlLiteral();
      key += '|';
    }
    rows.insert(std::move(key));
  }
  return rows;
}

/// Splits a result document into its row elements and the text around
/// them. False when a row element is not closed.
bool SplitRows(std::string_view doc, std::string* frame,
               std::vector<std::string_view>* rows) {
  size_t pos = doc.find("<Row>");
  frame->assign(doc.substr(0, pos));
  while (pos != std::string_view::npos) {
    const size_t end = doc.find("</Row>", pos);
    if (end == std::string_view::npos) return false;
    rows->push_back(doc.substr(pos, end + 6 - pos));
    pos = doc.find("<Row>", end);
    if (pos == std::string_view::npos) frame->append(doc.substr(end + 6));
  }
  return true;
}

/// True when both documents have the same frame (root element, schema) and
/// the same multiset of row elements, byte for byte: then they parse to the
/// same tuples. False says nothing; the caller falls back to parsing.
bool SameRowText(std::string_view a, std::string_view b) {
  std::string frame_a, frame_b;
  std::vector<std::string_view> rows_a, rows_b;
  if (!SplitRows(a, &frame_a, &rows_a) || !SplitRows(b, &frame_b, &rows_b) ||
      frame_a != frame_b || rows_a.size() != rows_b.size()) {
    return false;
  }
  std::sort(rows_a.begin(), rows_a.end());
  std::sort(rows_b.begin(), rows_b.end());
  return rows_a == rows_b;
}

/// The origin's direct answers, computed on a clock of their own so the
/// pipeline under test is not charged for them.
class Reference {
 public:
  Reference(Origin* origin, const SkyExperiment::Options& options,
            size_t requests)
      : app_(&origin->db, &clock_, options.server_costs),
        verified_(requests, 0) {
    Check(app_.RegisterForm("/radial", workload::kRadialTemplateSql),
          "register reference /radial");
  }

  /// True when `body`, the answer to trace request `index`, holds exactly
  /// the tuples of the origin's answer. A body byte-identical to one
  /// already verified for the same request (by its hash) is not checked
  /// again, so later passes cost little to check.
  bool Matches(size_t index, const net::HttpRequest& request,
               const std::string& url, const std::string& body) {
    const size_t hash = std::hash<std::string_view>{}(body);
    if (verified_[index] == hash && hash != 0) return true;
    auto it = memo_.find(url);
    if (it == memo_.end()) {
      net::HttpResponse direct = app_.Handle(request);
      if (!direct.ok()) return false;
      it = memo_.emplace(url, std::move(direct.body)).first;
    }
    bool same = body == it->second || SameRowText(body, it->second);
    if (!same) {
      auto via_proxy = sql::TableFromXml(body);
      auto direct = sql::TableFromXml(it->second);
      same = via_proxy.ok() && direct.ok() &&
             RowSet(*via_proxy) == RowSet(*direct);
    }
    if (same) verified_[index] = hash;
    return same;
  }

  /// How `body`, an answer Matches rejected, differs from the origin's:
  /// row counts, then the first tuple it has that the origin's lacks and
  /// the first it lacks. Call before Forget().
  std::string Difference(const std::string& url, const std::string& body) {
    auto it = memo_.find(url);
    if (it == memo_.end()) return "no origin answer";
    auto via_proxy = sql::TableFromXml(body);
    auto direct = sql::TableFromXml(it->second);
    if (!via_proxy.ok() || !direct.ok()) return "unparsable answer";
    const std::multiset<std::string> got = RowSet(*via_proxy);
    const std::multiset<std::string> want = RowSet(*direct);
    std::vector<std::string> extra, missing;
    std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                        std::back_inserter(extra));
    std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                        std::back_inserter(missing));
    std::string out = std::to_string(got.size()) + " rows, origin " +
                      std::to_string(want.size()) + "; " +
                      std::to_string(extra.size()) + " extra, " +
                      std::to_string(missing.size()) + " missing";
    if (!extra.empty()) out += "; first extra " + extra.front();
    if (!missing.empty()) out += "; first missing " + missing.front();
    return out;
  }

  void Forget() { memo_.clear(); }

 private:
  util::SimulatedClock clock_;
  server::OriginWebApp app_;
  std::unordered_map<std::string, std::string> memo_;
  /// Per trace request, the hash of a body verified correct (0 = none).
  std::vector<size_t> verified_;
};

// --- Passes ---------------------------------------------------------------

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
}

double SystemCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return Seconds(usage.ru_stime);
}

struct Requests {
  std::vector<net::HttpRequest> requests;
  std::vector<std::string> urls;
};

struct PassResult {
  size_t requests = 0;
  size_t failed = 0;
  size_t mismatched = 0;
  int64_t wall_ns = 0;
  /// Untimed correctness checking.
  int64_t check_ns = 0;
  double cpu_s = 0;
  /// The kernel's share of cpu_s.
  double sys_s = 0;
  std::vector<int64_t> latency_ns;
  double modeled_us = 0;
  core::ProxyStats stats;
  double local_answer_ratio = 0;
  uint64_t wan_requests = 0;
  uint64_t wan_rx_bytes = 0;
  size_t cache_bytes = 0;
  uint64_t evictions = 0;
  uint64_t freezes = 0;
  uint64_t thaws = 0;
  uint64_t spills = 0;
  uint64_t spill_faults = 0;
  uint64_t spill_io_errors = 0;
  double compression_ratio = 0;
  uint64_t origin_form_calls = 0;
  uint64_t origin_sql_calls = 0;
  std::vector<std::string> self_check_failures;
  /// The first few failed or mismatched responses.
  std::vector<std::string> wrong_answers;
};

struct Response {
  int status = 0;
  std::string body;
  int64_t latency_ns = 0;
  int64_t modeled_us = 0;
};

/// Replays the whole trace through `pipeline` from `workload.clients`
/// closed-loop clients, chunk by chunk; only the chunks are timed.
PassResult RunPass(Pipeline* pipeline, const Workload& workload,
                   const Requests& trace, Reference* reference,
                   SpanRecorder* recorder) {
  PassResult pass;
  const size_t n = trace.requests.size();
  std::vector<Response> responses(std::min(n, kChunkRequests));
  for (size_t begin = 0; begin < n; begin += kChunkRequests) {
    const size_t end = std::min(n, begin + kChunkRequests);
    std::atomic<size_t> cursor{begin};
    auto client = [&] {
      for (;;) {
        const size_t i = cursor.fetch_add(1);
        if (i >= end) break;
        Response& slot = responses[i - begin];
        const int64_t virtual_start = pipeline->clock().NowMicros();
        Interval wall;
        wall.start = NowNanos();
        net::HttpResponse response = pipeline->Call(trace.requests[i]);
        wall.end = NowNanos();
        slot.modeled_us = pipeline->clock().NowMicros() - virtual_start;
        slot.latency_ns = wall.length();
        slot.status = response.status_code;
        slot.body = std::move(response.body);
        recorder->RecordClient(wall);
      }
    };
    const double cpu_start = CpuSeconds();
    const double sys_start = SystemCpuSeconds();
    const int64_t wall_start = NowNanos();
    if (workload.clients == 1) {
      client();
    } else {
      std::vector<std::jthread> clients;
      for (size_t c = 0; c < workload.clients; ++c) clients.emplace_back(client);
    }
    pass.wall_ns += NowNanos() - wall_start;
    pass.cpu_s += CpuSeconds() - cpu_start;
    pass.sys_s += SystemCpuSeconds() - sys_start;

    const int64_t check_start = NowNanos();
    for (size_t i = begin; i < end; ++i) {
      Response& slot = responses[i - begin];
      pass.latency_ns.push_back(slot.latency_ns);
      pass.modeled_us += static_cast<double>(slot.modeled_us);
      const bool ok = slot.status >= 200 && slot.status < 300;
      if (!ok || !reference->Matches(i, trace.requests[i], trace.urls[i],
                                     slot.body)) {
        ++(ok ? pass.mismatched : pass.failed);
        if (pass.wrong_answers.size() < 5) {
          pass.wrong_answers.push_back(
              "request " + std::to_string(i) + " " + trace.urls[i] +
              ": status " + std::to_string(slot.status) + ", " +
              std::to_string(slot.body.size()) + " body bytes" +
              (ok ? ": " + reference->Difference(trace.urls[i], slot.body)
                  : std::string()));
        }
      }
      slot.body.clear();
    }
    reference->Forget();
    pass.check_ns += NowNanos() - check_start;
  }

  pass.requests = n;
  const core::FunctionProxy& proxy = pipeline->proxy();
  pass.stats = proxy.stats();
  size_t local = 0;
  for (const core::QueryRecord& record : pass.stats.records) {
    if (!record.contacted_origin && !record.failed) ++local;
  }
  pass.local_answer_ratio =
      static_cast<double>(local) / static_cast<double>(std::max<size_t>(n, 1));
  pass.wan_requests = pipeline->wan().total_requests();
  pass.wan_rx_bytes = pipeline->wan().total_bytes_received();
  const core::CacheStore& cache = proxy.cache();
  pass.cache_bytes = cache.bytes_used();
  pass.evictions = cache.evictions();
  pass.freezes = cache.freezes();
  pass.thaws = cache.thaws();
  pass.spills = cache.spills();
  pass.spill_faults = cache.spill_faults();
  pass.spill_io_errors = cache.spill_io_errors();
  pass.compression_ratio =
      cache.frozen_encoded_bytes() == 0
          ? 0.0
          : static_cast<double>(cache.frozen_raw_bytes()) /
                static_cast<double>(cache.frozen_encoded_bytes());
  pass.origin_form_calls = pipeline->app().form_queries_served();
  pass.origin_sql_calls = pipeline->app().sql_queries_served();

  // Each workload asserts, from public counters, that its mechanism ran.
  auto expect = [&pass](bool ok, const std::string& what) {
    if (!ok) pass.self_check_failures.push_back(what);
  };
  if (workload.tiered) {
    expect(pass.evictions > 0, "evictions > 0");
    expect(pass.freezes > 0, "freezes > 0");
    expect(pass.thaws > 0, "thaws > 0");
  } else {
    expect(pass.evictions == 0, "evictions == 0");
    expect(pass.freezes + pass.thaws == 0, "freezes + thaws == 0");
  }
  expect(pass.spills + pass.spill_faults + pass.spill_io_errors == 0,
         "spills + fault-backs + spill_io_errors == 0");
  if (workload.flash_crowd) expect(pass.stats.collapsed > 0, "collapsed > 0");
  return pass;
}

// --- Reporting ------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<int64_t> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p / 100.0 *
                                    static_cast<double>(values.size()));
  return static_cast<double>(values[std::min(rank, values.size() - 1)]);
}

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.10g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
             unit + "\"}";
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

void PrintMix(const workload::Trace& trace, const core::ProxyStats& stats) {
  const double template_requests =
      static_cast<double>(std::max<uint64_t>(stats.template_requests, 1));
  std::printf(
      "# intended mix: exact %.1f%% containment %.1f%% region-containment "
      "%.1f%% overlap %.1f%% disjoint %.1f%%\n",
      100 * trace.IntendedFraction(RegionRelation::kEqual),
      100 * trace.IntendedFraction(RegionRelation::kContainedBy),
      100 * trace.IntendedFraction(RegionRelation::kContains),
      100 * trace.IntendedFraction(RegionRelation::kOverlap),
      100 * trace.IntendedFraction(RegionRelation::kDisjoint));
  std::printf(
      "# achieved mix: exact %.1f%% containment %.1f%% region-containment "
      "%.1f%% overlap %.1f%% miss %.1f%% collapsed %llu\n",
      100 * static_cast<double>(stats.exact_hits) / template_requests,
      100 * static_cast<double>(stats.containment_hits) / template_requests,
      100 * static_cast<double>(stats.region_containments) / template_requests,
      100 * static_cast<double>(stats.overlaps_handled) / template_requests,
      100 * static_cast<double>(stats.misses) / template_requests,
      static_cast<unsigned long long>(stats.collapsed));
}

/// Timings take the least disturbed of a fixed number of repetitions. Every
/// pass replays the same trace through a fresh proxy, so request i does the
/// same work in each pass. With one client, a request's latency is its
/// minimum over the passes; throughput and CPU come from the best pass. On a
/// shared host this filters out time stolen by other tenants, which would
/// otherwise dominate the run-to-run spread. With several clients the wait
/// for shard locks and collapsed flights differs from pass to pass and is
/// part of what is measured, so each latency percentile is computed per
/// pass, over that pass's own requests, and the smallest is reported.
/// The other metrics are medians over passes.
void AddEndToEnd(const Workload& workload,
                 const std::vector<PassResult>& passes,
                 const std::vector<double>& setup_seconds,
                 MetricsJson* metrics) {
  std::vector<int64_t> latency_ns = passes.front().latency_ns;
  double throughput = 0;
  double cpu_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::vector<double> efficiency, trips, kb, modeled_ms, cache_mb;
  for (const PassResult& pass : passes) {
    const double n = static_cast<double>(pass.requests);
    for (size_t i = 0; i < latency_ns.size(); ++i) {
      latency_ns[i] = std::min(latency_ns[i], pass.latency_ns[i]);
    }
    const double pass_p50_us = Percentile(pass.latency_ns, 50) / 1000.0;
    const double pass_p99_us = Percentile(pass.latency_ns, 99) / 1000.0;
    p50_us = p50_us == 0 ? pass_p50_us : std::min(p50_us, pass_p50_us);
    p99_us = p99_us == 0 ? pass_p99_us : std::min(p99_us, pass_p99_us);
    throughput = std::max(throughput,
                          n / (static_cast<double>(pass.wall_ns) / 1e9));
    const double pass_cpu_us = pass.cpu_s * 1e6 / n;
    cpu_us = cpu_us == 0 ? pass_cpu_us : std::min(cpu_us, pass_cpu_us);
    efficiency.push_back(pass.stats.AverageCacheEfficiency());
    trips.push_back(static_cast<double>(pass.wan_requests) / n);
    kb.push_back(static_cast<double>(pass.wan_rx_bytes) / 1024.0 / n);
    modeled_ms.push_back(pass.modeled_us / n / 1000.0);
    cache_mb.push_back(static_cast<double>(pass.cache_bytes) / (1 << 20));
  }
  if (workload.clients == 1) {
    std::printf("# latency samples: %zu requests, each the best of %zu "
                "passes\n",
                latency_ns.size(), passes.size());
    p50_us = Percentile(latency_ns, 50) / 1000.0;
    p99_us = Percentile(latency_ns, 99) / 1000.0;
  } else {
    std::printf("# latency samples: %zu requests per pass; percentiles are "
                "the best of %zu passes\n",
                latency_ns.size(), passes.size());
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  metrics->Add("throughput_rps", throughput, "1/s");
  metrics->Add("latency_p50_us", p50_us, "us");
  metrics->Add("latency_p99_us", p99_us, "us");
  metrics->Add("cpu_us_per_req", cpu_us, "us");
  metrics->Add("cache_efficiency", Median(efficiency), "ratio");
  metrics->Add("origin_trips_per_req", Median(trips), "count");
  metrics->Add("origin_kb_per_req", Median(kb), "KiB");
  metrics->Add("modeled_response_ms", Median(modeled_ms), "ms");
  metrics->Add("cache_mb", Median(cache_mb), "MiB");
  metrics->Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
               "MiB");
  metrics->Add("setup_s", Median(setup_seconds), "s");
}

/// Per-layer metrics of the traced pass; returns false when the accounting
/// check fails.
bool AddPerLayer(const Workload& workload, const PassResult& untraced,
                 const PassResult& traced, const Attribution& a,
                 MetricsJson* metrics) {
  const double n = static_cast<double>(std::max<size_t>(traced.requests, 1));
  auto per_req_us = [n](int64_t ns) {
    return static_cast<double>(ns) / 1000.0 / n;
  };
  auto us = [](double ns) { return ns / 1000.0; };
  const double overhead_pct =
      100.0 * (static_cast<double>(traced.wall_ns) -
               static_cast<double>(untraced.wall_ns)) /
      static_cast<double>(untraced.wall_ns);
  const double residual_share =
      a.handle_ns == 0 ? 1.0
                       : std::abs(static_cast<double>(a.residual_ns)) /
                             static_cast<double>(a.handle_ns);
  const bool accounted = a.unmatched == 0 && a.requests == traced.requests &&
                         residual_share <= kMaxResidualShare;
  int64_t proxy_self_ns = 0;
  for (int64_t self : a.self_ns) proxy_self_ns += self;
  std::printf(
      "# accounting: handle %.1f us/req = proxy spans %.1f + sink %.1f + "
      "unspanned %.1f + residual %.3f (%.4f%% of handle, limit %.2f%%, "
      "unmatched %zu) -> %s\n",
      per_req_us(a.handle_ns), per_req_us(proxy_self_ns),
      per_req_us(a.sink_ns), per_req_us(a.unspanned_ns),
      per_req_us(a.residual_ns), 100 * residual_share,
      100 * kMaxResidualShare, a.unmatched, accounted ? "ok" : "FAILED");
  std::printf("# obs.trace_overhead_pct %.2f (traced pass %.3f s, untraced "
              "%.3f s)\n",
              overhead_pct, static_cast<double>(traced.wall_ns) / 1e9,
              static_cast<double>(untraced.wall_ns) / 1e9);

  // Client time outside a call: the replay loop, and with several clients
  // the wait at chunk boundaries.
  metrics->Add("workload.self_us",
               per_req_us(static_cast<int64_t>(workload.clients) *
                              traced.wall_ns -
                          a.client_ns),
               "us/req");
  metrics->Add("core.self_us", per_req_us(a.handle_ns - a.origin_wait_ns),
               "us/req");
  for (int id : {kTemplateMatchSpan, kCacheLookupSpan, kLocalEvalSpan,
                 kRemainderBuildSpan, kMergeSpan, kSerializeSpan,
                 kCacheAdmitSpan, kRestoreSpan, kRequestSpan}) {
    metrics->Add(std::string("core.span.") + ProxySpanName(id) + ".self_us",
                 per_req_us(a.self_ns[id]), "us/req");
  }
  metrics->Add("core.unspanned_us", per_req_us(a.unspanned_ns), "us/req");
  metrics->Add("core.handle_us.p99", us(Percentile(a.handle_samples, 99)),
               "us");
  const core::ProxyStats& s = traced.stats;
  metrics->Add("core.exact", static_cast<double>(s.exact_hits), "count");
  metrics->Add("core.containment", static_cast<double>(s.containment_hits),
               "count");
  metrics->Add("core.region_containment",
               static_cast<double>(s.region_containments), "count");
  metrics->Add("core.overlap", static_cast<double>(s.overlaps_handled),
               "count");
  metrics->Add("core.miss", static_cast<double>(s.misses), "count");
  metrics->Add("core.local_answer_ratio", traced.local_answer_ratio, "ratio");
  metrics->Add("core.collapsed", static_cast<double>(s.collapsed), "count");
  metrics->Add("core.shed", static_cast<double>(s.shed), "count");
  metrics->Add("index.description_comparisons",
               static_cast<double>(a.description_comparisons), "count");
  metrics->Add("net.origin_parse_us", per_req_us(a.origin_parse_ns),
               "us/req");
  metrics->Add("net.wan_requests", static_cast<double>(traced.wan_requests),
               "count");
  metrics->Add("net.wan_rx_mb",
               static_cast<double>(traced.wan_rx_bytes) / (1 << 20), "MiB");
  // Client call minus Handle: the in-process LAN channel's own cost.
  metrics->Add("net.http_overhead_us.p50",
               us(Percentile(a.client_overhead_samples, 50)), "us");
  metrics->Add("net.http_overhead_us.p99",
               us(Percentile(a.client_overhead_samples, 99)), "us");
  metrics->Add("server.self_us", per_req_us(a.origin_ns), "us/req");
  metrics->Add("server.busy_us.p50", us(Percentile(a.origin_samples, 50)),
               "us");
  metrics->Add("server.busy_us.p99", us(Percentile(a.origin_samples, 99)),
               "us");
  metrics->Add("server.calls.form",
               static_cast<double>(traced.origin_form_calls), "count");
  metrics->Add("server.calls.sql",
               static_cast<double>(traced.origin_sql_calls), "count");
  metrics->Add("storage.evictions", static_cast<double>(traced.evictions),
               "count");
  metrics->Add("storage.freezes", static_cast<double>(traced.freezes),
               "count");
  metrics->Add("storage.thaws", static_cast<double>(traced.thaws), "count");
  metrics->Add("storage.compression_ratio", traced.compression_ratio,
               "ratio");
  metrics->Add("obs.sink_us", per_req_us(a.sink_ns), "us/req");
  metrics->Add("obs.trace_overhead_pct", overhead_pct, "%");
  metrics->Add("obs.accounting_residual_us", per_req_us(a.residual_ns),
               "us/req");
  metrics->Add("error_rate",
               static_cast<double>(traced.failed + traced.mismatched) / n,
               "ratio");
  return accounted;
}

// --- Main -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (!have_workload) Fail("--workload is required");
  return args;
}

workload::Trace MakeTrace(const Workload& workload, const Origin& origin,
                          const SkyExperiment::Options& options,
                          uint64_t seed) {
  workload::RadialTraceConfig radial = options.trace;
  radial.seed = 2004 + seed;
  for (const auto& [ra, dec] : origin.clusters) {
    if (ra >= radial.ra_min && ra <= radial.ra_max && dec >= radial.dec_min &&
        dec <= radial.dec_max) {
      radial.hotspot_centers.emplace_back(ra, dec);
    }
  }
  if (!workload.flash_crowd) return workload::GenerateRadialTrace(radial);
  workload::FlashCrowdTraceConfig flash;
  flash.base = radial;
  flash.base.num_queries = kFlashCrowdQueries;
  flash.seed = 2026 + seed;
  return workload::GenerateFlashCrowdTrace(flash);
}

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) Fail("unknown workload " + args.workload);
  const SkyExperiment::Options options;
  SpanRecorder untraced_recorder(false);

  // Set-up: catalog, origin database, templates and a serving proxy.
  std::unique_ptr<Origin> origin;
  std::vector<double> setup_seconds;
  for (int i = 0; i < kSetups; ++i) {
    origin.reset();
    const int64_t start = NowNanos();
    origin = BuildOrigin(options);
    auto pipeline = std::make_unique<Pipeline>(origin.get(), *workload,
                                               options, &untraced_recorder);
    setup_seconds.push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }

  const workload::Trace trace = MakeTrace(*workload, *origin, options,
                                          args.seed);
  Requests requests;
  for (const workload::TraceQuery& query : trace.queries) {
    requests.requests.push_back(workload::MakeRequest(trace, query));
    requests.urls.push_back(requests.requests.back().ToUrl());
  }
  Reference reference(origin.get(), options, requests.requests.size());

  auto run_pass = [&](SpanRecorder* recorder) {
    Pipeline pipeline(origin.get(), *workload, options, recorder);
    return RunPass(&pipeline, *workload, requests, &reference, recorder);
  };

  std::vector<PassResult> passes;
  MetricsJson metrics;
  bool accounted = true;
  if (!args.trace) {
    const long pass_count = std::max(
        1L, std::lround(args.seconds / workload->nominal_pass_seconds));
    for (long i = 0; i < pass_count; ++i) {
      passes.push_back(run_pass(&untraced_recorder));
    }
    AddEndToEnd(*workload, passes, setup_seconds, &metrics);
  } else {
    passes.push_back(run_pass(&untraced_recorder));
    SpanRecorder recorder(true);
    passes.push_back(run_pass(&recorder));
    const Attribution attribution =
        Attribute(recorder, /*per_request_origin=*/workload->clients == 1);
    accounted =
        AddPerLayer(*workload, passes[0], passes[1], attribution, &metrics);
  }

  size_t attempted = 0;
  size_t failed = 0;
  for (const PassResult& pass : passes) {
    std::printf("# pass: %zu requests, timed %.3f s (cpu %.3f s, sys %.3f s), "
                "checked in "
                "%.3f s; cache_efficiency %.4f; evictions %llu freezes %llu "
                "thaws %llu spills %llu fault-backs %llu\n",
                pass.requests, static_cast<double>(pass.wall_ns) / 1e9,
                pass.cpu_s, pass.sys_s, static_cast<double>(pass.check_ns) / 1e9,
                pass.stats.AverageCacheEfficiency(),
                static_cast<unsigned long long>(pass.evictions),
                static_cast<unsigned long long>(pass.freezes),
                static_cast<unsigned long long>(pass.thaws),
                static_cast<unsigned long long>(pass.spills),
                static_cast<unsigned long long>(pass.spill_faults));
  }
  std::set<std::string> self_check_failures;
  for (const PassResult& pass : passes) {
    attempted += pass.requests;
    failed += pass.failed + pass.mismatched;
    self_check_failures.insert(pass.self_check_failures.begin(),
                               pass.self_check_failures.end());
  }
  std::printf("# workload %s seed %llu: %zu passes, %zu requests, %zu failed "
              "or mismatched\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              passes.size(), attempted, failed);
  PrintMix(trace, passes.back().stats);
  for (const PassResult& pass : passes) {
    for (const std::string& what : pass.wrong_answers) {
      std::printf("# wrong answer: %s\n", what.c_str());
    }
  }
  for (const std::string& what : self_check_failures) {
    std::printf("# self-check FAILED: %s\n", what.c_str());
  }
  const bool correct = failed == 0 && self_check_failures.empty() && accounted;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.body().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fnproxy::e2e

int main(int argc, char** argv) {
  // Pin glibc's malloc thresholds at their documented defaults. Left
  // dynamic, the first free of a large mmapped block raises both thresholds
  // for the rest of the process, so the cost of large result buffers would
  // depend on allocation history rather than on the code.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  try {
    return fnproxy::e2e::Run(fnproxy::e2e::ParseArgs(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fnproxy_e2e: %s\n", error.what());
    return 2;
  }
}
