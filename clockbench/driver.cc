// clockbench driver: runs one workload of the benchmark in this process and
// prints one JSON object with its results on the last line of stdout.
//
// Two clocks:
//  * host metrics are wall time of this process (std::chrono::steady_clock);
//  * simulated metrics read the flash emulator's SimClock and the program's
//    metrics::Registry counters over a fixed window of operations, so for a
//    given seed they repeat exactly whatever the host speed.
//
// Usage:
//   clockbench_driver --workload tpcb-ipa|tpcb-pageftl|scan-large|kv-serve
//                     --seed N [--seconds S] [--trace 0|1] [--ops N]
//                     [--codec raw|delta+compress]
//   clockbench_driver --stamp      (print the source stamp compiled in)
//
// --ops N runs exactly N operations (the simulated window) instead of
// running rounds for --seconds; the cross-path self-tests use it. --codec
// overrides the workload's delta codec for those self-tests.
//
// With --trace 1 the tablespaces are bound through TimedDevice, a
// forwarding ftl::PageDevice that times every device call, and the driver
// adds per-layer timers; the simulated counters must not change.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/crc32.h"
#include "common/metrics.h"
#include "common/random.h"
#include "engine/sharded_database.h"
#include "ftl/page_device.h"
#include "net/admission.h"
#include "net/kv_service.h"
#include "net/protocol.h"
#include "source_stamp.h"
#include "storage/delta_record.h"
#include "storage/slotted_page.h"
#include "workload/testbed.h"
#include "workload/tpcb.h"
#include "workload/tpch_lite.h"

namespace {

using namespace ipa;
using HostClock = std::chrono::steady_clock;

// Initialized before main(): set-up time counts from process start.
const HostClock::time_point g_process_start = HostClock::now();

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          HostClock::now().time_since_epoch())
          .count());
}

double SecondsSinceStart() {
  return std::chrono::duration<double>(HostClock::now() - g_process_start)
      .count();
}

// -- CPU rotation -------------------------------------------------------------

/// Moves the thread that made it round every CPU it may run on, one CPU per
/// `period`, until destroyed. On a machine whose CPUs share cores or caches
/// with other tenants, one CPU can run this code two or three times slower
/// than another; rotating makes every run, set-up included, see the same
/// mix of CPUs instead of whichever one the scheduler picked.
class CpuRotor {
 public:
  explicit CpuRotor(std::chrono::milliseconds period)
      : target_(pthread_self()) {
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
    if (cpus_.size() < 2) return;
    thread_ = std::thread([this, period] {
      for (size_t i = 0; !stop_.load(); ++i) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[i % cpus_.size()], &one);
        pthread_setaffinity_np(target_, sizeof one, &one);
        std::this_thread::sleep_for(period);
      }
    });
  }
  ~CpuRotor() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  pthread_t target_;
  std::vector<int> cpus_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// -- Oracle hashing (independent of the program's own hashes) --------------

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

uint64_t HashBytes(const uint8_t* p, size_t n, uint64_t seed) {
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return Mix64(h ^ n);
}

uint32_t Le32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// -- Statistics -------------------------------------------------------------

/// Percentile with linear interpolation between order statistics, p in
/// [0,1]. Takes a copy: callers keep their samples.
template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  double rank = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + lo, v.end());
  double a = static_cast<double>(v[lo]);
  if (hi == lo) return a;
  double b = static_cast<double>(*std::min_element(v.begin() + lo + 1, v.end()));
  return a + (b - a) * (rank - static_cast<double>(lo));
}

/// Mean of the largest (1 - p) share of the samples, p in [0,1): the
/// expected value beyond the p-th percentile. Unlike an order statistic it
/// moves with how much of the tail each latency class holds.
double TailMean(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0.0;
  double n = static_cast<double>(v.size());
  auto k = static_cast<long>(std::max(1.0, std::ceil((1.0 - p) * n)));
  std::nth_element(v.begin(), v.end() - k, v.end());
  double sum = 0;
  for (auto it = v.end() - k; it != v.end(); ++it) sum += static_cast<double>(*it);
  return sum / static_cast<double>(k);
}

double PeakRssMib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -- Tracing: a forwarding PageDevice --------------------------------------

/// Forwards every call to `inner` and times the data-path calls on the host
/// clock. Bound through Database::CreateTablespaceOn, so the engine sees the
/// same device semantics; WriteTagged forwards its stream tag.
class TimedDevice : public ftl::PageDevice {
 public:
  TimedDevice(ftl::PageDevice* inner, const SimClock* clock)
      : inner_(inner), clock_(clock) {}

  Status ReadPage(ftl::Lba lba, uint8_t* out) override {
    uint64_t t0 = NowNs();
    Status s = inner_->ReadPage(lba, out);
    Note(&read_ns, t0);
    return s;
  }
  Status WritePage(ftl::Lba lba, const uint8_t* data, bool sync) override {
    uint64_t t0 = NowNs();
    SimTime s0 = clock_->Now();
    Status s = inner_->WritePage(lba, data, sync);
    Note(&write_ns, t0);
    write_sim_us.push_back(clock_->Now() - s0);
    return s;
  }
  Status WriteTagged(ftl::Lba lba, const uint8_t* data, bool sync,
                     ftl::StreamTag tag) override {
    uint64_t t0 = NowNs();
    SimTime s0 = clock_->Now();
    Status s = inner_->WriteTagged(lba, data, sync, tag);
    Note(&write_ns, t0);
    write_sim_us.push_back(clock_->Now() - s0);
    return s;
  }
  Status WriteDelta(ftl::Lba lba, uint32_t offset, const uint8_t* bytes,
                    uint32_t len, bool sync) override {
    uint64_t t0 = NowNs();
    Status s = inner_->WriteDelta(lba, offset, bytes, len, sync);
    Note(&delta_ns, t0);
    return s;
  }
  bool DeltaWritePossible(ftl::Lba lba) const override {
    return inner_->DeltaWritePossible(lba);
  }
  bool IsMapped(ftl::Lba lba) const override { return inner_->IsMapped(lba); }

  /// Forget the calls made so far (load and checkpoint).
  void Reset() {
    read_ns.clear();
    write_ns.clear();
    delta_ns.clear();
    write_sim_us.clear();
    total_ns = 0;
  }
  uint32_t page_size() const override { return inner_->page_size(); }
  uint64_t capacity_pages() const override { return inner_->capacity_pages(); }

  std::vector<uint32_t> read_ns, write_ns, delta_ns;
  /// Simulated time each page write took on the caller's clock.
  std::vector<uint64_t> write_sim_us;
  uint64_t total_ns = 0;  ///< Host time spent inside device calls.

 private:
  void Note(std::vector<uint32_t>* v, uint64_t t0) {
    uint64_t d = NowNs() - t0;
    total_ns += d;
    v->push_back(static_cast<uint32_t>(std::min<uint64_t>(d, UINT32_MAX)));
  }
  ftl::PageDevice* inner_;
  const SimClock* clock_;
};

// -- Options / report -------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t ops = 0;  ///< Fixed operation count (self-tests); 0 = timed.
  std::string codec;    ///< Override: "raw" or "delta+compress".
};

struct Report {
  bool correct = true;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, double> sim;  ///< Deterministic window counters.
  std::map<std::string, std::string> info;

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

std::string JsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

void PrintMap(const char* key, const std::map<std::string, double>& m) {
  std::printf(", \"%s\": {", key);
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::printf("}");
}

void PrintReport(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"error\": \"%s\"",
              r.correct ? "true" : "false", r.attempted, r.failed,
              JsonEscape(r.error).c_str());
  PrintMap("end_to_end", r.end_to_end);
  PrintMap("per_layer", r.per_layer);
  PrintMap("sim", r.sim);
  std::printf(", \"info\": {");
  bool first = true;
  for (const auto& [k, v] : r.info) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(),
                JsonEscape(v).c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// -- Measurement phase ------------------------------------------------------

/// Paces a workload's measurement phase. Operations are grouped in rounds of
/// `round` operations; the simulated-clock window is the first `window`
/// operations. A timed phase stops at the first round boundary at which the
/// window is complete and `seconds` of host time have passed (or at `cap`
/// operations, which bounds the tablespace the run needs).
class Meter {
 public:
  Meter(const Options& o, uint64_t window, uint64_t round, uint64_t cap)
      : seconds_(o.seconds), fixed_(o.ops > 0),
        window_(o.ops > 0 ? o.ops : window), round_(round),
        cap_(o.ops > 0 ? o.ops : cap) {
    start_ns_ = end_ns_ = NowNs();
    host_ns_.reserve(1 << 20);
  }

  bool Done() const {
    if (ops_ >= cap_) return true;
    if (fixed_) return ops_ >= window_;
    if (in_round_ != 0 || ops_ < window_) return false;
    return static_cast<double>(NowNs() - start_ns_) / 1e9 >= seconds_;
  }

  /// One operation finished: its host time and its simulated latency.
  void Add(uint64_t host_ns, uint64_t sim_us) {
    uint32_t h = static_cast<uint32_t>(std::min<uint64_t>(host_ns, UINT32_MAX));
    host_ns_.push_back(h);
    if (ops_ < window_) sim_us_.push_back(sim_us);
    ++ops_;
    if (++in_round_ == round_ || (fixed_ && ops_ == window_)) CloseRound();
    if (ops_ == window_) window_closed_ = true;
  }

  /// True exactly once, right after the window's last operation.
  bool TakeWindowEnd() {
    bool w = window_closed_;
    window_closed_ = false;
    return w;
  }

  uint64_t ops() const { return ops_; }
  uint64_t window() const { return window_; }
  const std::vector<uint32_t>& host_ns() const { return host_ns_; }
  const std::vector<uint64_t>& sim_us() const { return sim_us_; }
  /// Host seconds from the start of the phase to its last round boundary.
  double elapsed_s() const {
    return static_cast<double>(end_ns_ - start_ns_) / 1e9;
  }
  /// Operations over the host time of the whole phase.
  double host_tps() const {
    return elapsed_s() > 0 ? static_cast<double>(ops_) / elapsed_s() : 0.0;
  }
  /// 99th percentile of the host time of every operation of the phase.
  double host_p99_us() const { return Percentile(host_ns_, 0.99) / 1000.0; }

 private:
  void CloseRound() {
    in_round_ = 0;
    end_ns_ = NowNs();
  }

  double seconds_;
  bool fixed_;
  uint64_t window_, round_, cap_;
  uint64_t ops_ = 0, in_round_ = 0;
  uint64_t start_ns_, end_ns_;
  bool window_closed_ = false;
  std::vector<uint32_t> host_ns_;
  std::vector<uint64_t> sim_us_;
};

metrics::Snapshot Snap() { return metrics::Registry::Instance().TakeSnapshot(); }

/// Registry counters the simulated-clock figures are computed from. Every
/// one is a deterministic function of the seed and the operation count.
const char* const kSimCounters[] = {
    "flash.page_reads", "flash.page_programs.lsb", "flash.page_programs.msb",
    "flash.delta_programs", "flash.delta_bytes_programmed",
    "flash.block_erases", "ftl.host_reads", "ftl.host_page_writes",
    "ftl.host_delta_writes", "ftl.delta_bytes_written", "ftl.delta_fallbacks",
    "ftl.gc.page_migrations", "ftl.gc.erases", "pageftl.host_reads",
    "pageftl.host_page_writes", "pageftl.gc.page_migrations",
    "pageftl.gc.erases", "bufferpool.misses", "bufferpool.writebacks.delta",
    "bufferpool.writebacks.full", "bufferpool.writebacks.delta_fallbacks",
    "wal.bytes_appended", "trace.ftl.gc.sim_us", "trace.pageftl.gc.sim_us",
};

struct Window {
  std::map<std::string, double> d;  ///< Counter deltas over the window.
  double sim_s = 0;                 ///< Simulated seconds of the window.
  double ops = 0;

  double operator[](const std::string& k) const {
    auto it = d.find(k);
    return it == d.end() ? 0.0 : it->second;
  }
};

Window Delta(const metrics::Snapshot& a, const metrics::Snapshot& b,
             SimTime sim0, SimTime sim1, uint64_t ops) {
  Window w;
  for (const char* name : kSimCounters) {
    w.d[name] = static_cast<double>(b.Counter(name) - a.Counter(name));
  }
  w.sim_s = static_cast<double>(sim1 - sim0) / 1e6;
  w.ops = static_cast<double>(ops);
  return w;
}

/// End-to-end simulated figures and the window counters, common to every
/// workload. `write_lat` is the device's own simulated page-write latency.
void ReportWindow(const Window& w, const Meter& m, uint32_t page_size,
                  Report* rep) {
  double ops = std::max(w.ops, 1.0);
  double page_writes = w["ftl.host_page_writes"] + w["pageftl.host_page_writes"];
  double migrations = w["ftl.gc.page_migrations"] + w["pageftl.gc.page_migrations"];
  double flash_bytes = (page_writes + migrations) * page_size +
                       w["ftl.delta_bytes_written"];
  rep->end_to_end["sim_tps"] = w.sim_s > 0 ? w.ops / w.sim_s : 0.0;
  rep->end_to_end["sim_tail_ms"] = TailMean(m.sim_us(), 0.99) / 1000.0;
  rep->end_to_end["flash_kib_per_txn"] = flash_bytes / 1024.0 / ops;
  rep->end_to_end["erases_per_ktxn"] = w["flash.block_erases"] * 1000.0 / ops;
  for (const auto& [k, v] : w.d) rep->sim[k] = v;
  rep->sim["window_ops"] = w.ops;
  rep->sim["window_sim_p99_us"] = Percentile(m.sim_us(), 0.99);
  rep->sim["window_sim_us"] = w.sim_s * 1e6;
}

/// Per-layer figures from the window counters (traced runs).
void ReportLayerCounters(const Window& w, Report* rep) {
  double ops = std::max(w.ops, 1.0);
  double page_writes = w["ftl.host_page_writes"] + w["pageftl.host_page_writes"];
  double host_writes = page_writes + w["ftl.host_delta_writes"];
  double migrations = w["ftl.gc.page_migrations"] + w["pageftl.gc.page_migrations"];
  auto& L = rep->per_layer;
  L["engine.bufferpool.misses_per_txn"] = w["bufferpool.misses"] / ops;
  L["engine.bufferpool.writebacks_per_txn"] =
      (w["bufferpool.writebacks.delta"] + w["bufferpool.writebacks.full"]) / ops;
  L["engine.wal.bytes_per_txn"] = w["wal.bytes_appended"] / ops;
  L["storage.delta_appends_per_writeback"] =
      w["ftl.host_delta_writes"] / std::max(page_writes, 1.0);
  L["storage.delta_fallbacks_per_ktxn"] =
      w["bufferpool.writebacks.delta_fallbacks"] * 1000.0 / ops;
  L["ftl.gc_migrations_per_host_write"] = migrations / std::max(host_writes, 1.0);
  L["ftl.gc_sim_ms_per_ktxn"] =
      (w["trace.ftl.gc.sim_us"] + w["trace.pageftl.gc.sim_us"]) / 1000.0 *
      1000.0 / ops;
  L["flash.page_programs_per_txn"] =
      (w["flash.page_programs.lsb"] + w["flash.page_programs.msb"]) / ops;
  L["flash.delta_programs_per_txn"] = w["flash.delta_programs"] / ops;
  L["flash.reads_per_txn"] = w["flash.page_reads"] / ops;
}

/// Host-clock per-layer figures from the traced devices and the op timers.
/// `op_ns` is the host time the engine was busy with the operations (the
/// sum of transaction times; for kv-serve the server-side time, since a
/// request's own latency includes waiting for its batch).
void ReportLayerHost(const std::vector<TimedDevice*>& devs, const Meter& m,
                     uint64_t op_ns, uint64_t device_ns_in_ops, Report* rep) {
  std::vector<uint32_t> rd, wr, dl;
  std::vector<uint64_t> wsim;
  for (TimedDevice* d : devs) {
    rd.insert(rd.end(), d->read_ns.begin(), d->read_ns.end());
    wr.insert(wr.end(), d->write_ns.begin(), d->write_ns.end());
    dl.insert(dl.end(), d->delta_ns.begin(), d->delta_ns.end());
    wsim.insert(wsim.end(), d->write_sim_us.begin(), d->write_sim_us.end());
  }
  auto& L = rep->per_layer;
  L["ftl.read_host_us.p50"] = Percentile(rd, 0.50) / 1000.0;
  L["ftl.read_host_us.p99"] = Percentile(rd, 0.99) / 1000.0;
  L["ftl.write_host_us.p50"] = Percentile(wr, 0.50) / 1000.0;
  L["ftl.write_host_us.p99"] = Percentile(wr, 0.99) / 1000.0;
  L["ftl.delta_host_us.p50"] = Percentile(dl, 0.50) / 1000.0;
  L["ftl.delta_host_us.p99"] = Percentile(dl, 0.99) / 1000.0;
  // Most page writes are write-backs that only reserve device time and take
  // no time on the caller's clock, so their p99 reads 0; the mean of the
  // slowest 1% shows the writes that do stall the caller.
  L["flash.write_sim_us.tail"] = TailMean(wsim, 0.99);
  double ops = std::max<double>(static_cast<double>(m.ops()), 1.0);
  L["ftl.host_share"] = op_ns == 0 ? 0.0
                                   : static_cast<double>(device_ns_in_ops) /
                                         static_cast<double>(op_ns);
  L["engine.self_host_us_per_txn"] =
      static_cast<double>(op_ns - std::min(op_ns, device_ns_in_ops)) / 1000.0 /
      ops;
  L["workload.txn_host_us.p50"] = Percentile(m.host_ns(), 0.50) / 1000.0;
  L["workload.txn_host_us.p99"] = Percentile(m.host_ns(), 0.99) / 1000.0;
}

/// Short timings of the public kernels Crc32c and storage::DiffPages.
void ReportKernels(uint64_t seed, Report* rep) {
  Rng rng(seed ^ 0x5eedull);
  std::vector<uint8_t> buf(64 << 10);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  uint32_t sink = 0;
  uint64_t kib = 0;
  uint64_t t0 = NowNs();
  while (NowNs() - t0 < 100'000'000ull) {
    sink ^= Crc32c(buf.data(), buf.size(), sink);
    kib += buf.size() / 1024;
  }
  rep->per_layer["common.crc32c_ns_per_kib"] =
      static_cast<double>(NowNs() - t0) / static_cast<double>(kib);

  // A TPC-B-like page diff: a full page of 100-byte tuples under IPA [2x4],
  // three of whose 4-byte balances changed.
  const uint32_t page = 4096;
  std::vector<uint8_t> base(page), cur;
  storage::SlottedPage sp(base.data(), page);
  sp.Initialize(1, 1, storage::Scheme{.n = 2, .m = 4, .v = 12});
  std::vector<uint8_t> tuple(100, 0x20);
  while (sp.HasRoomFor(static_cast<uint32_t>(tuple.size()))) {
    if (!sp.Insert(tuple).ok()) break;
  }
  cur = base;
  for (int i = 0; i < 3; ++i) {
    auto t = storage::SlottedPage(cur.data(), page).Read(
        static_cast<storage::SlotId>(rng.Uniform(sp.slot_count())));
    if (t.ok()) {
      auto* bal = const_cast<uint8_t*>(t.value().data()) + 12;
      for (uint32_t k = 0; k < 4; ++k) bal[k] ^= 0x5a;
    }
  }
  uint64_t pages = 0, changed = 0;
  t0 = NowNs();
  while (NowNs() - t0 < 100'000'000ull) {
    for (int i = 0; i < 256; ++i) {
      storage::PageDiff d = storage::DiffPages(base.data(), cur.data(), page,
                                               page, page);
      changed += d.TotalBytes();
    }
    pages += 256;
  }
  rep->per_layer["storage.diffpages_ns_per_page"] =
      static_cast<double>(NowNs() - t0) / static_cast<double>(pages);
  if (sink == 0x12345678u && changed == 0) std::fprintf(stderr, " ");
}

/// Every per-layer name is printed on every workload; a layer the workload
/// does not run reads 0.
void ZeroFillLayers(Report* rep) {
  static const char* const kAll[] = {
      "workload.txn_host_us.p50", "workload.txn_host_us.p99",
      "engine.self_host_us_per_txn", "engine.bufferpool.misses_per_txn",
      "engine.bufferpool.writebacks_per_txn", "engine.wal.bytes_per_txn",
      "engine.requests_per_log_force", "storage.delta_appends_per_writeback",
      "storage.delta_fallbacks_per_ktxn", "storage.diffpages_ns_per_page",
      "ftl.read_host_us.p50", "ftl.read_host_us.p99",
      "ftl.write_host_us.p50", "ftl.write_host_us.p99",
      "ftl.delta_host_us.p50", "ftl.delta_host_us.p99", "ftl.host_share",
      "ftl.gc_migrations_per_host_write", "ftl.gc_sim_ms_per_ktxn",
      "flash.page_programs_per_txn", "flash.delta_programs_per_txn",
      "flash.reads_per_txn", "flash.write_sim_us.tail",
      "common.crc32c_ns_per_kib", "net.frame_codec_ns_per_request",
      "net.bytes_per_request", "net.kv_host_us.get.p50",
      "net.kv_host_us.get.p99", "net.kv_host_us.put.p50",
      "net.kv_host_us.put.p99"};
  for (const char* k : kAll) rep->per_layer.emplace(k, 0.0);
}

// -- Table digests ------------------------------------------------------------

/// Order-independent digest of every tuple of the named tables: a sum of
/// per-tuple hashes salted by the table name. Physical placement does not
/// enter it, so two stacks that hold the same rows agree.
Result<uint64_t> TableDigest(engine::Database& db,
                             const std::vector<std::string>& names,
                             std::map<std::string, uint64_t>* rows) {
  uint64_t digest = 0;
  for (const std::string& name : names) {
    engine::TableId id = 0;
    bool found = false;
    for (size_t t = 0; t < db.table_count(); ++t) {
      if (db.table_name(static_cast<engine::TableId>(t)) == name &&
          !db.table_dropped(static_cast<engine::TableId>(t))) {
        id = static_cast<engine::TableId>(t);
        found = true;
      }
    }
    if (!found) return Status::NotFound("no table " + name);
    uint64_t salt = HashBytes(reinterpret_cast<const uint8_t*>(name.data()),
                              name.size(), 0);
    uint64_t n = 0;
    IPA_RETURN_NOT_OK(db.Scan(id, [&](engine::Rid, std::span<const uint8_t> t) {
      digest += HashBytes(t.data(), t.size(), salt);
      ++n;
      return true;
    }));
    if (rows) (*rows)[name] = n;
  }
  return digest;
}

/// Size of the emulated flash array: an upper bound on the memory its
/// programmed pages hold.
std::string DeviceMib(const flash::FlashArray& dev) {
  return std::to_string(dev.geometry().capacity_bytes() >> 20);
}

std::string Hex(uint64_t v) {
  char b[20];
  std::snprintf(b, sizeof b, "%016" PRIx64, v);
  return b;
}

/// Scan one table and hand each tuple to `fn`.
Status ScanTable(engine::Database& db, const std::string& name,
                 const std::function<void(std::span<const uint8_t>)>& fn) {
  for (size_t t = 0; t < db.table_count(); ++t) {
    auto id = static_cast<engine::TableId>(t);
    if (db.table_name(id) == name && !db.table_dropped(id)) {
      return db.Scan(id, [&](engine::Rid, std::span<const uint8_t> tuple) {
        fn(tuple);
        return true;
      });
    }
  }
  return Status::NotFound("no table " + name);
}

// -- Single-database workloads (TPC-B, TPC-H-lite) ---------------------------

struct SingleSetup {
  std::unique_ptr<workload::Testbed> bed;
  std::unique_ptr<TimedDevice> timed;
  engine::TablespaceId ts = 0;
};

/// MakeTestbed, then bind the workload's tablespace through
/// CreateTablespaceOn: straight to the backend when untraced, through a
/// TimedDevice when traced. The testbed's own tablespace stays empty in both
/// modes, so the two modes run the same engine code.
Result<SingleSetup> BuildSingle(const workload::TestbedConfig& tc, bool trace) {
  SingleSetup s;
  IPA_ASSIGN_OR_RETURN(s.bed, workload::MakeTestbed(tc));
  ftl::PageDevice* dev = s.bed->backend;
  if (trace) {
    s.timed = std::make_unique<TimedDevice>(dev, &s.bed->clock());
    dev = s.timed.get();
  }
  storage::Scheme scheme =
      tc.backend == workload::Backend::kNoFtl ? tc.scheme : storage::Scheme{};
  IPA_ASSIGN_OR_RETURN(s.ts, s.bed->db->CreateTablespaceOn("bench", dev, scheme));
  return s;
}

struct SingleSpec {
  uint64_t window, round, cap;
  uint32_t cpu_us;  ///< Simulated host CPU per transaction.
};

/// The measurement loop shared by the single-database workloads.
Status MeasureSingle(const Options& o, const SingleSpec& spec,
                     SingleSetup& s, workload::Workload& w, Report* rep,
                     uint64_t* committed) {
  SimClock& clock = s.bed->clock();
  if (s.timed) s.timed->Reset();
  Meter m(o, spec.window, spec.round, spec.cap);
  metrics::Snapshot a = Snap(), b;
  SimTime sim0 = clock.Now(), sim1 = sim0;
  uint64_t dev_ns_in_ops = 0;
  while (!m.Done()) {
    uint64_t d0 = s.timed ? s.timed->total_ns : 0;
    SimTime st = clock.Now();
    uint64_t t0 = NowNs();
    auto r = w.RunTransaction();
    uint64_t t1 = NowNs();
    rep->attempted++;
    if (!r.ok()) {
      rep->failed++;
      return r.status();
    }
    if (r.value()) ++*committed;
    if (s.timed) dev_ns_in_ops += s.timed->total_ns - d0;
    m.Add(t1 - t0, clock.Now() - st);
    clock.Advance(spec.cpu_us);
    if (m.TakeWindowEnd()) {
      b = Snap();
      sim1 = clock.Now();
      rep->end_to_end["peak_rss_mib"] = PeakRssMib();
    }
  }
  rep->end_to_end["host_tps"] = m.host_tps();
  rep->end_to_end["host_p99_us"] = m.host_p99_us();
  Window win = Delta(a, b, sim0, sim1, m.window());
  ReportWindow(win, m, s.bed->db->config().page_size, rep);
  rep->info["ops"] = std::to_string(m.ops());
  rep->info["measured_s"] = std::to_string(m.elapsed_s());
  if (o.trace) {
    ReportLayerCounters(win, rep);
    uint64_t op_ns = 0;
    for (uint32_t v : m.host_ns()) op_ns += v;
    ReportLayerHost({s.timed.get()}, m, op_ns, dev_ns_in_ops, rep);
  }
  return Status::OK();
}

storage::Scheme Ipa2x4(const Options& o, storage::DeltaCodec def) {
  storage::Scheme sc{.n = 2, .m = 4, .v = 12};
  storage::DeltaCodec c = def;
  if (o.codec == "raw") c = storage::DeltaCodec::kRaw;
  if (o.codec == "delta+compress") c = storage::DeltaCodec::kDeltaCompress;
  sc.codec = static_cast<uint8_t>(c);
  return sc;
}

// TPC-B sizing. HISTORY grows by one 50-byte row per commit, so the
// tablespace is sized for the operation cap (>= 60 rows per HISTORY page).
constexpr uint32_t kTpcbAccounts = 60000;
constexpr uint64_t kTpcbCap = 4'800'000;

struct TpcbSums {
  uint32_t account = 0, teller = 0, branch = 0, history = 0;
  uint64_t history_rows = 0;
};

Result<TpcbSums> SumTpcb(engine::Database& db) {
  TpcbSums s;
  auto bal = [](std::span<const uint8_t> t) {
    return Le32(t.data() + workload::Tpcb::kBalanceOffset);
  };
  IPA_RETURN_NOT_OK(ScanTable(db, "ACCOUNT", [&](auto t) { s.account += bal(t); }));
  IPA_RETURN_NOT_OK(ScanTable(db, "TELLER", [&](auto t) { s.teller += bal(t); }));
  IPA_RETURN_NOT_OK(ScanTable(db, "BRANCH", [&](auto t) { s.branch += bal(t); }));
  IPA_RETURN_NOT_OK(ScanTable(db, "HISTORY", [&](auto t) {
    s.history += Le32(t.data() + 16);
    s.history_rows++;
  }));
  return s;
}

void CheckTpcb(const Result<TpcbSums>& r, uint64_t committed, const char* when,
               Report* rep) {
  if (!r.ok()) {
    rep->Fail(std::string(when) + ": " + r.status().ToString());
    return;
  }
  const TpcbSums& s = r.value();
  if (s.account != s.teller || s.teller != s.branch || s.branch != s.history) {
    rep->Fail(std::string(when) + ": balance sums differ");
  }
  if (s.history_rows != committed) {
    rep->Fail(std::string(when) + ": HISTORY holds " +
              std::to_string(s.history_rows) + " rows, " +
              std::to_string(committed) + " commits counted");
  }
}

const std::vector<std::string> kTpcbTables = {"BRANCH", "TELLER", "ACCOUNT",
                                              "HISTORY"};

Status RunTpcb(const Options& o, bool ipa_default, Report* rep) {
  workload::TpcbConfig wc;
  wc.accounts_per_branch = kTpcbAccounts;
  wc.seed = o.seed;
  uint64_t db_pages =
      workload::Tpcb(nullptr, wc, workload::SingleTablespace(0))
          .EstimatedPages(4096);
  uint64_t cap = o.ops > 0 ? o.ops : kTpcbCap;

  workload::TestbedConfig tc;
  tc.backend = ipa_default ? workload::Backend::kNoFtl
                           : workload::Backend::kPageFtlCostBenefit;
  tc.scheme = tc.backend == workload::Backend::kNoFtl
                  ? Ipa2x4(o, storage::DeltaCodec::kRaw)
                  : storage::Scheme{};
  tc.db_pages = db_pages;
  tc.buffer_fraction = 0.25;
  // Room for the loaded data twice over (a rebuilt index after restart
  // included) plus the HISTORY rows the cap allows.
  tc.growth_headroom =
      2.0 + static_cast<double>(cap / 60 + 512) / static_cast<double>(db_pages);
  IPA_ASSIGN_OR_RETURN(SingleSetup s, BuildSingle(tc, o.trace));
  workload::Tpcb w(s.bed->db.get(), wc, workload::SingleTablespace(s.ts));
  IPA_RETURN_NOT_OK(w.Load());
  IPA_RETURN_NOT_OK(s.bed->db->Checkpoint());
  s.bed->ResetBackendStats();
  rep->end_to_end["setup_s"] = SecondsSinceStart();

  uint64_t committed = 0;
  SingleSpec spec{.window = 600'000, .round = 10'000, .cap = cap, .cpu_us = 150};
  IPA_RETURN_NOT_OK(MeasureSingle(o, spec, s, w, rep, &committed));

  // Oracles: balance conservation and one HISTORY row per counted commit,
  // before and after a crash and ARIES restart.
  engine::Database& db = *s.bed->db;
  CheckTpcb(SumTpcb(db), committed, "after run", rep);
  auto d0 = TableDigest(db, kTpcbTables, nullptr);
  IPA_RETURN_NOT_OK(d0.status());
  db.SimulateCrash();
  IPA_RETURN_NOT_OK(db.Recover());
  IPA_RETURN_NOT_OK(w.RebuildIndexes());
  CheckTpcb(SumTpcb(db), committed, "after restart", rep);
  auto d1 = TableDigest(db, kTpcbTables, nullptr);
  IPA_RETURN_NOT_OK(d1.status());
  if (d0.value() != d1.value()) rep->Fail("TPC-B digest changed across restart");
  rep->info["digest"] = Hex(d0.value());
  rep->info["committed"] = std::to_string(committed);
  rep->info["device_mib"] = DeviceMib(*s.bed->dev);
  return Status::OK();
}

// TPC-H-lite at dataset x8: the buffer pool is sized for the x1 dataset.
constexpr uint64_t kScanRows = 40000;
constexpr double kScanDataset = 8.0;
constexpr uint64_t kScanCap = 1'200'000;

Status RunScan(const Options& o, Report* rep) {
  workload::TpchLiteConfig wc;
  wc.rows = static_cast<uint64_t>(kScanRows * kScanDataset);
  wc.seed = static_cast<uint32_t>(o.seed);
  uint64_t db_pages =
      workload::TpchLite(nullptr, wc, workload::SingleTablespace(0))
          .EstimatedPages(4096);
  uint64_t cap = o.ops > 0 ? o.ops : kScanCap;

  workload::TestbedConfig tc;
  tc.backend = workload::Backend::kNoFtl;
  tc.scheme = Ipa2x4(o, storage::DeltaCodec::kDeltaCompress);
  tc.db_pages = db_pages;
  tc.buffer_fraction = 0.5 / kScanDataset;
  // Room for a rebuilt index after restart, plus the rows the writers may
  // append (one writer in 16, >= 30 120-byte rows per page). Kept tight so
  // GC runs within the window.
  tc.growth_headroom =
      1.4 + static_cast<double>(cap / 16 / 30) / static_cast<double>(db_pages);
  IPA_ASSIGN_OR_RETURN(SingleSetup s, BuildSingle(tc, o.trace));
  workload::TpchLite w(s.bed->db.get(), wc, workload::SingleTablespace(s.ts));
  IPA_RETURN_NOT_OK(w.Load());
  IPA_RETURN_NOT_OK(s.bed->db->Checkpoint());
  s.bed->ResetBackendStats();
  rep->end_to_end["setup_s"] = SecondsSinceStart();

  uint64_t committed = 0;
  SingleSpec spec{.window = 300'000, .round = 4'000, .cap = cap, .cpu_us = 250};
  IPA_RETURN_NOT_OK(MeasureSingle(o, spec, s, w, rep, &committed));

  // Oracle: the content digest survives a crash and ARIES restart.
  engine::Database& db = *s.bed->db;
  std::map<std::string, uint64_t> rows;
  auto d0 = TableDigest(db, {"LINEITEM"}, &rows);
  IPA_RETURN_NOT_OK(d0.status());
  db.SimulateCrash();
  IPA_RETURN_NOT_OK(db.Recover());
  IPA_RETURN_NOT_OK(w.RebuildIndexes());
  auto d1 = TableDigest(db, {"LINEITEM"}, nullptr);
  IPA_RETURN_NOT_OK(d1.status());
  if (d0.value() != d1.value()) rep->Fail("LINEITEM digest changed across restart");
  rep->info["digest"] = Hex(d0.value());
  rep->info["lineitem_rows"] = std::to_string(rows["LINEITEM"]);
  rep->info["committed"] = std::to_string(committed);
  rep->info["device_mib"] = DeviceMib(*s.bed->dev);
  return Status::OK();
}

// -- kv-serve: closed-loop clients over the wire protocol ---------------------

constexpr uint32_t kKvParts = 4;
constexpr uint64_t kKvKeys = 20000;
constexpr uint32_t kKvClients = 8;
constexpr uint32_t kKvBatch = 8;
constexpr uint32_t kKvCpuUs = 20;
constexpr uint32_t kKvValueMin = 64, kKvValueMax = 1024;
constexpr uint64_t kKvCap = 3'200'000;

/// The benchmark's own value bytes for (key, seq): key and seq, then filler
/// derived from both. Independent of the program's load generator.
std::vector<uint8_t> KvValue(uint64_t key, uint64_t seq, uint32_t len) {
  std::vector<uint8_t> v(len);
  uint64_t x = Mix64(key * 0x9E3779B97F4A7C15ull + seq + 1);
  for (uint32_t i = 0; i < len; ++i) {
    if (i % 8 == 0) x = Mix64(x + i);
    v[i] = static_cast<uint8_t>(x >> (8 * (i % 8)));
  }
  for (int i = 0; i < 8; ++i) {
    v[i] = static_cast<uint8_t>(key >> (8 * i));
    v[8 + i] = static_cast<uint8_t>(seq >> (8 * i));
  }
  return v;
}

struct KvModelEntry {
  uint64_t seq = 0;
  uint32_t len = 0;
};

Status RunKv(const Options& o, Report* rep) {
  workload::ShardedTestbedConfig sc;
  sc.workers = kKvParts;
  sc.threaded = false;
  // Values average ~544 B plus the tuple header: ~7 per page.
  sc.base.db_pages = kKvKeys / 6 + 256;
  sc.base.scheme = Ipa2x4(o, storage::DeltaCodec::kRaw);
  sc.base.buffer_fraction = 1.5;  // the dataset fits in the buffer pools
  // Database::Insert only probes its hint page and the last page, so space
  // that resizes and deletes free on other pages is not reused and the KV
  // heap keeps growing (~7 pages per 1000 requests): size for the cap.
  uint64_t cap = o.ops > 0 ? o.ops : kKvCap;
  sc.base.growth_headroom =
      1.6 + static_cast<double>(cap / 1000 * 8) /
                static_cast<double>(sc.base.db_pages);
  sc.group_commit_ops = kKvBatch;
  sc.group_commit_window_us = 1000;
  sc.log_force_us = 100;
  IPA_ASSIGN_OR_RETURN(auto bed, workload::MakeShardedTestbed(sc));

  std::vector<std::unique_ptr<TimedDevice>> timed;
  std::vector<net::KvService::PartitionConfig> pcs;
  for (uint32_t p = 0; p < kKvParts; ++p) {
    auto& part = bed->parts[p];
    ftl::PageDevice* dev = bed->noftl->region_device(part.region);
    if (o.trace) {
      timed.push_back(std::make_unique<TimedDevice>(dev, &part.db->sim_clock()));
      dev = timed.back().get();
    }
    IPA_ASSIGN_OR_RETURN(engine::TablespaceId ts,
                         part.db->CreateTablespaceOn("bench", dev, sc.base.scheme));
    pcs.push_back({part.db.get(), ts});
  }
  IPA_ASSIGN_OR_RETURN(auto kv, net::KvService::Create(pcs));
  net::AdmissionController ac(kKvParts, {.inflight_budget = 2 * kKvClients});
  engine::ShardedDatabase& sdb = *bed->sharded;

  // Preload every key once (seq 0), then checkpoint.
  Rng rng(o.seed * 0x2545F4914F6CDD1Dull + 17);
  std::unordered_map<uint64_t, KvModelEntry> model;
  auto draw_len = [&] {
    return kKvValueMin +
           static_cast<uint32_t>(rng.Uniform(kKvValueMax - kKvValueMin + 1));
  };
  for (uint64_t k = 0; k < kKvKeys; ++k) {
    uint32_t len = draw_len();
    uint32_t p = kv->PartitionOfKey(k);
    if (kv->Put(p, net::kAutoCommit, k, KvValue(k, 0, len)) != net::RStatus::kOk) {
      return Status::Internal("preload PUT failed");
    }
    model[k] = {0, len};
  }
  for (uint32_t p = 0; p < kKvParts; ++p) kv->ForceLog(p);
  sdb.EpochBarrier();
  IPA_RETURN_NOT_OK(sdb.Checkpoint());
  SimTime epoch = sdb.EpochBarrier();
  for (uint32_t p = 0; p < kKvParts; ++p) bed->noftl->ResetStats(bed->parts[p].region);
  rep->end_to_end["setup_s"] = SecondsSinceStart();

  for (auto& d : timed) d->Reset();
  ZipfianGenerator zipf(kKvKeys, 0.8);
  std::unordered_map<uint64_t, uint64_t> next_seq;
  Meter m(o, 600'000, 10'000, cap);
  metrics::Snapshot a = Snap(), b;
  SimTime sim0 = epoch, sim1 = epoch;

  struct Pending {
    net::Op op;
    uint64_t key = 0, seq = 0;
    uint32_t len = 0;
    std::vector<uint8_t> wire;  ///< Request frame, then response frame.
    uint64_t t_start = 0;
    SimTime sim_start = 0;
    uint64_t sim_lat = 0;  ///< Simulated time from execution to ack.
    uint32_t part = 0;
  };
  std::vector<Pending> cl(kKvClients);
  std::vector<std::vector<uint32_t>> queue(kKvParts);
  std::vector<uint32_t> get_ns, put_ns;
  uint64_t codec_ns = 0, wire_bytes = 0, requests = 0, forces = 0;
  uint64_t dev_ns_in_ops = 0, server_ns = 0;
  std::vector<uint8_t> got, payload;
  net::FrameDecoder server_dec, client_dec;

  auto timed_total = [&] {
    uint64_t t = 0;
    for (auto& d : timed) t += d->total_ns;
    return t;
  };

  while (!m.Done()) {
    // Clients: draw and encode one request each.
    for (uint32_t c = 0; c < kKvClients; ++c) {
      Pending& q = cl[c];
      q.t_start = NowNs();
      q.key = zipf.Next(rng);
      q.part = kv->PartitionOfKey(q.key);
      bool write = rng.Chance(0.5);
      bool del = write && rng.Chance(0.05);
      q.op = !write ? net::Op::kGet : del ? net::Op::kDelete : net::Op::kPut;
      uint64_t e0 = o.trace ? NowNs() : 0;
      if (q.op == net::Op::kPut) {
        q.seq = ++next_seq[q.key];
        q.len = draw_len();
        payload = net::PutPayload(net::kAutoCommit, q.key,
                                  KvValue(q.key, q.seq, q.len));
      } else {
        payload = q.op == net::Op::kGet ? net::GetPayload(net::kAutoCommit, q.key)
                                        : net::DeletePayload(net::kAutoCommit, q.key);
      }
      q.wire.clear();
      net::EncodeFrame(static_cast<uint8_t>(q.op), c, payload, &q.wire);
      if (o.trace) codec_ns += NowNs() - e0;
      wire_bytes += q.wire.size();
      queue[q.part].push_back(c);
    }
    // Server: each partition decodes, admits, executes and group-commits;
    // responses go out only after the batch's log force.
    uint64_t d0 = o.trace ? timed_total() : 0;
    uint64_t s0 = NowNs();
    for (uint32_t p = 0; p < kKvParts; ++p) {
      engine::Database& db = kv->db(p);
      SimClock& clock = db.sim_clock();
      std::vector<uint32_t> batch;
      auto force = [&] {
        if (batch.empty()) return;
        engine::Lsn before = db.wal().durable_lsn();
        kv->ForceLog(p);
        if (db.wal().durable_lsn() != before) ++forces;
        for (uint32_t c : batch) {
          cl[c].sim_lat = clock.Now() - cl[c].sim_start;
          ac.Complete(p);
        }
        batch.clear();
      };
      for (uint32_t c : queue[p]) {
        Pending& q = cl[c];
        uint64_t e0 = o.trace ? NowNs() : 0;
        server_dec.Feed(q.wire);
        net::Frame f;
        net::Request req;
        if (server_dec.Poll(&f) != net::FrameDecoder::Next::kFrame ||
            !net::ParseRequest(f, &req)) {
          return Status::Internal("request frame did not decode");
        }
        if (o.trace) codec_ns += NowNs() - e0;
        rep->attempted++;
        if (!ac.TryAdmit(p)) {
          rep->failed++;
          return Status::Internal("admission shed a request (RETRY)");
        }
        q.sim_start = clock.Now();
        engine::Lsn before = db.wal().durable_lsn();
        uint64_t k0 = NowNs();
        net::RStatus rs;
        got.clear();
        if (req.op == net::Op::kGet) {
          rs = kv->Get(p, req.txn, req.key, &got);
        } else if (req.op == net::Op::kPut) {
          rs = kv->Put(p, req.txn, req.key, req.value);
        } else {
          rs = kv->Delete(p, req.txn, req.key);
        }
        uint64_t k1 = NowNs();
        if (db.wal().durable_lsn() != before) ++forces;
        if (o.trace) {
          uint32_t ns = static_cast<uint32_t>(std::min<uint64_t>(k1 - k0, UINT32_MAX));
          (req.op == net::Op::kGet ? get_ns : put_ns).push_back(ns);
        }
        clock.Advance(kKvCpuUs);
        e0 = o.trace ? NowNs() : 0;
        q.wire.clear();
        net::EncodeFrame(static_cast<uint8_t>(rs), f.request_id,
                         rs == net::RStatus::kOk ? std::span<const uint8_t>(got)
                                                 : std::span<const uint8_t>(),
                         &q.wire);
        if (o.trace) codec_ns += NowNs() - e0;
        wire_bytes += q.wire.size();
        batch.push_back(c);
        if (batch.size() >= kKvBatch) force();
      }
      force();
      queue[p].clear();
    }
    server_ns += NowNs() - s0;
    if (o.trace) dev_ns_in_ops += timed_total() - d0;
    // Clients: decode responses and check them against the model of
    // acknowledged writes.
    for (uint32_t c = 0; c < kKvClients; ++c) {
      Pending& q = cl[c];
      uint64_t e0 = o.trace ? NowNs() : 0;
      client_dec.Feed(q.wire);
      net::Frame f;
      if (client_dec.Poll(&f) != net::FrameDecoder::Next::kFrame ||
          f.request_id != c) {
        return Status::Internal("response frame did not decode");
      }
      if (o.trace) codec_ns += NowNs() - e0;
      auto rs = static_cast<net::RStatus>(f.op);
      auto it = model.find(q.key);
      bool ok = true;
      if (q.op == net::Op::kGet) {
        if (rs == net::RStatus::kOk) {
          ok = it != model.end() &&
               f.payload == KvValue(q.key, it->second.seq, it->second.len);
        } else {
          ok = rs == net::RStatus::kNotFound && it == model.end();
        }
      } else if (q.op == net::Op::kPut) {
        ok = rs == net::RStatus::kOk;
        model[q.key] = {q.seq, q.len};
      } else {
        ok = rs == (it == model.end() ? net::RStatus::kNotFound : net::RStatus::kOk);
        if (it != model.end()) model.erase(it);
      }
      if (!ok) {
        rep->Fail(std::string("response ") + net::StatusName(rs) + " to " +
                  net::OpName(q.op) + " of key " + std::to_string(q.key) +
                  " disagrees with the model: " +
                  std::string(f.payload.begin(), f.payload.end()));
      }
      requests++;
      m.Add(NowNs() - q.t_start, q.sim_lat);
    }
    SimTime now = sdb.EpochBarrier();
    if (m.TakeWindowEnd()) {
      b = Snap();
      sim1 = now;
      rep->end_to_end["peak_rss_mib"] = PeakRssMib();
    }
  }
  rep->end_to_end["host_tps"] = m.host_tps();
  rep->end_to_end["host_p99_us"] = m.host_p99_us();
  Window win = Delta(a, b, sim0, sim1, m.window());
  ReportWindow(win, m, 4096, rep);
  rep->info["ops"] = std::to_string(m.ops());
  rep->info["measured_s"] = std::to_string(m.elapsed_s());
  if (o.trace) {
    std::vector<TimedDevice*> devs;
    for (auto& d : timed) devs.push_back(d.get());
    ReportLayerCounters(win, rep);
    ReportLayerHost(devs, m, server_ns, dev_ns_in_ops, rep);
    auto& L = rep->per_layer;
    double reqs = std::max<double>(static_cast<double>(requests), 1.0);
    L["engine.requests_per_log_force"] =
        static_cast<double>(requests) / std::max<double>(static_cast<double>(forces), 1.0);
    L["net.frame_codec_ns_per_request"] = static_cast<double>(codec_ns) / reqs;
    L["net.bytes_per_request"] = static_cast<double>(wire_bytes) / reqs;
    L["net.kv_host_us.get.p50"] = Percentile(get_ns, 0.50) / 1000.0;
    L["net.kv_host_us.get.p99"] = Percentile(get_ns, 0.99) / 1000.0;
    L["net.kv_host_us.put.p50"] = Percentile(put_ns, 0.50) / 1000.0;
    L["net.kv_host_us.put.p99"] = Percentile(put_ns, 0.99) / 1000.0;
  }

  // Oracle: after a crash and restart every key reads back as the model of
  // acknowledged writes says. Every ack followed its batch's log force.
  sdb.SimulateCrash();
  IPA_RETURN_NOT_OK(sdb.Recover());
  IPA_RETURN_NOT_OK(kv->RebuildIndexes());
  uint64_t digest = 0, live = 0;
  for (uint64_t k = 0; k < kKvKeys; ++k) {
    got.clear();
    net::RStatus rs = kv->Get(kv->PartitionOfKey(k), net::kAutoCommit, k, &got);
    auto it = model.find(k);
    bool ok = it == model.end()
                  ? rs == net::RStatus::kNotFound
                  : rs == net::RStatus::kOk &&
                        got == KvValue(k, it->second.seq, it->second.len);
    if (!ok) {
      rep->Fail("key " + std::to_string(k) + " disagrees with the model after restart");
      break;
    }
    if (rs == net::RStatus::kOk) {
      digest += HashBytes(got.data(), got.size(), k);
      ++live;
    }
  }
  rep->info["digest"] = Hex(digest);
  rep->info["live_keys"] = std::to_string(live);
  rep->info["device_mib"] = DeviceMib(*bed->dev);
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  CpuRotor rotor(std::chrono::milliseconds(10));
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "clockbench_driver: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--stamp") {
      std::printf("%s\n", CLOCKBENCH_SOURCE_STAMP);
      return 0;
    } else if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(next().c_str());
    } else if (a == "--trace") {
      o.trace = next() == "1";
    } else if (a == "--ops") {
      o.ops = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--codec") {
      o.codec = next();
    } else {
      std::fprintf(stderr, "clockbench_driver: unknown argument %s\n", a.c_str());
      return 2;
    }
  }

  Report rep;
  Status s;
  if (o.workload == "tpcb-ipa") {
    s = RunTpcb(o, true, &rep);
  } else if (o.workload == "tpcb-pageftl") {
    s = RunTpcb(o, false, &rep);
  } else if (o.workload == "scan-large") {
    s = RunScan(o, &rep);
  } else if (o.workload == "kv-serve") {
    s = RunKv(o, &rep);
  } else {
    std::fprintf(stderr, "clockbench_driver: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  if (!s.ok()) rep.Fail(s.ToString());
  if (o.trace) {
    ReportKernels(o.seed, &rep);
    ZeroFillLayers(&rep);
  }
  PrintReport(rep);
  return 0;
}
